// The governed loop kernel: one index loop that owns the checkpoint,
// budget, fault-injection and truncation plumbing shared by every
// checkpointed sampler and enumerator — Thm 4.2 world enumeration (core,
// Datalog and propositional brute force), the Karp-Luby and naive Monte
// Carlo samplers, the Cor 5.5 tuple loop, the Thm 5.12 padded estimator
// (one loop for first-order and Datalog queries, core/approx.h) and the
// absolute-reliability falsifier. Each of them keeps only its fingerprint,
// its payload fields, its per-iteration body and its finish step.
//
// Every iteration i in [next(), end) runs the same four steps in one fixed
// order:
//
//   1. checkpoint — when one is due (CheckpointScope::CheckpointDue),
//      `save(writer, i)` serializes the loop state *before* iteration i,
//      i.e. with i not yet folded into any accumulator;
//   2. charge one work unit to the RunContext;
//   3. hit the loop's fault site (util/fault_injection.h), if it has one;
//   4. `body(i)`.
//
// Because the checkpoint precedes the charge, a resumed run re-charges the
// interrupted iteration and its work counter (restored by the scope) lands
// exactly on the uninterrupted run's total.
//
// An error from steps 2-4 ends the loop. It is returned unless the loop
// may truncate: the caller allowed it, at least one iteration has
// completed (counting resumed ones), the code is a budget code and not a
// cancellation. A truncating loop returns OK with truncated() set and
// next() iterations folded in. Checkpoint write failures always surface.
//
// The save and body callables are template parameters, so the loop makes
// no per-iteration heap allocation or type-erased call; `save` runs only
// when a checkpoint is due.
//
//   GovernedLoop loop(ctx, {.kind = "propositional.naive_mc.v1",
//                           .fingerprint = fingerprint.value(),
//                           .end = samples,
//                           .fault_site = "propositional.naive_mc.sample"});
//   QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r, uint64_t* next) {
//     ...
//   }));
//   QREL_RETURN_IF_ERROR(loop.Run(save, body));

#ifndef QREL_UTIL_GOVERNED_LOOP_H_
#define QREL_UTIL_GOVERNED_LOOP_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "qrel/util/fault_injection.h"
#include "qrel/util/run_context.h"
#include "qrel/util/snapshot.h"
#include "qrel/util/status.h"

namespace qrel {

class GovernedLoop {
 public:
  struct Options {
    // Snapshot kind (algorithm + payload encoding) and resume fingerprint;
    // see CheckpointScope.
    std::string_view kind;
    uint64_t fingerprint = 0;
    // The loop runs iterations [0, end); a resumed run starts later.
    uint64_t end = 0;
    // Name of the fault site hit once per iteration (a string literal);
    // nullptr for loops without one. Registers on its first hit.
    const char* fault_site = nullptr;
    // Whether a budget trip after progress keeps the completed prefix.
    bool allow_truncation = false;
    // False leaves the checkpointer unclaimed for a nested loop (which
    // then owns checkpoint granularity); the loop still charges `ctx`.
    bool checkpoint = true;
  };

  GovernedLoop(RunContext* ctx, const Options& options)
      : ctx_(ctx),
        options_(options),
        scope_(options.checkpoint ? ctx : nullptr, options.kind,
               options.fingerprint) {}

  // Consumes a resume snapshot of this loop's kind, if the checkpointer
  // holds one (the scope restores the work counter).
  // `restore(SnapshotReader&, uint64_t* next)` reads the payload in write
  // order and sets the index to continue at; the payload must then be
  // fully consumed and the index within [0, end]. A no-op on a fresh run.
  template <typename Restore>
  Status Resume(const Restore& restore) {
    std::optional<SnapshotReader> reader;
    QREL_RETURN_IF_ERROR(scope_.TakeResume(&reader));
    if (!reader.has_value()) {
      return Status::Ok();
    }
    uint64_t next = 0;
    QREL_RETURN_IF_ERROR(restore(*reader, &next));
    QREL_RETURN_IF_ERROR(reader->ExpectEnd());
    if (next > options_.end) {
      return Status::DataLoss("snapshot loop index past the end of the loop");
    }
    next_ = next;
    return Status::Ok();
  }

  // Runs the remaining iterations. `save(SnapshotWriter&, uint64_t i)`
  // writes the payload that resumes at iteration i; `body(uint64_t i)`
  // returns the iteration's Status and may call Stop().
  template <typename Save, typename Body>
  Status Run(const Save& save, const Body& body) {
    while (next_ < options_.end && !stopped_) {
      QREL_RETURN_IF_ERROR(scope_.MaybeCheckpoint(
          [&](SnapshotWriter& writer) { save(writer, next_); }));
      Status status = ChargeWork(ctx_);
      if (status.ok()) {
        status = HitFaultSite();
      }
      if (status.ok()) {
        status = body(next_);
      }
      if (!status.ok()) {
        return Interrupt(std::move(status));
      }
      ++next_;
    }
    return Status::Ok();
  }

  // Ends the loop after the current iteration (e.g. a witness was found).
  void Stop() { stopped_ = true; }

  // Iterations folded in so far, resumed ones included; after Run, the
  // number of completed iterations.
  uint64_t next() const { return next_; }
  // Run stopped early on a budget trip and kept the completed prefix.
  bool truncated() const { return truncated_; }

 private:
  Status HitFaultSite() {
    if (options_.fault_site == nullptr) {
      return Status::Ok();
    }
    if (!fault_site_.has_value()) {
      fault_site_.emplace(options_.fault_site);
    }
    return fault_site_->Fire();
  }

  // A prefix of completed iterations is still a usable (smaller) sample;
  // never on cancellation, which is the caller's decision, and never on a
  // non-budget failure such as an injected fault, which must surface.
  Status Interrupt(Status status) {
    if (options_.allow_truncation && next_ > 0 &&
        IsBudgetStatusCode(status.code()) &&
        status.code() != StatusCode::kCancelled) {
      truncated_ = true;
      return Status::Ok();
    }
    return status;
  }

  RunContext* ctx_;
  Options options_;
  CheckpointScope scope_;
  std::optional<FaultSite> fault_site_;  // registered on its first hit
  uint64_t next_ = 0;
  bool stopped_ = false;
  bool truncated_ = false;
};

}  // namespace qrel

#endif  // QREL_UTIL_GOVERNED_LOOP_H_
