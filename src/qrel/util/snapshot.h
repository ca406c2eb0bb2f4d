// Crash-safe checkpointing and deterministic resume.
//
// The exact FP^#P computation (Thm 4.2) and the sampling estimators
// (Thms 5.2-5.12) run for minutes to hours at scale; a crash, OOM-kill or
// deadline expiry used to throw away all accumulated work. This module
// turns every long-running loop in the engine into a *resumable* one:
//
//  - A versioned, checksummed binary **snapshot format** written atomically
//    (write temp file -> fsync -> rename) so a crash mid-write can never
//    destroy the previous checkpoint, with corruption detection on load
//    (truncation, bit flips and version skew come back as typed
//    kDataLoss / kInvalidArgument Statuses — never a crash, never a silent
//    restart from zero).
//  - A **Checkpointer** that owns the snapshot file path and the write
//    interval, rides on a RunContext next to the deadline and work budget,
//    and hands the previous run's snapshot to whichever algorithm it
//    belongs to.
//  - A **CheckpointScope** claimed by the outermost governed loop of each
//    algorithm. Two places construct one: the GovernedLoop kernel
//    (util/governed_loop.h), which runs exact world enumeration (core,
//    Datalog, propositional brute force), Karp-Luby and naive-MC sampling,
//    the Cor 5.5 tuple loop, the Thm 5.12 padded estimator and
//    the absolute-reliability falsifier; and the Datalog fixpoint, whose
//    state is a stratum and round frontier rather than an index. The
//    scope serializes loop state — counters, accumulators, the full RNG
//    state (util/rng.h) — at safe points, and restores it on resume so the
//    continued run draws the *same* random stream and accumulates in the
//    *same* order as an uninterrupted run: the final estimate, count and
//    (ε, δ) report are bit-identical.
//
// Scope claiming: only the first CheckpointScope constructed on a
// RunContext is active; nested scopes (a Karp-Luby loop inside the
// Corollary 5.5 tuple loop, a fixpoint inside the Datalog world loop) are
// inert. Checkpoint granularity is therefore decided by the outermost
// loop, which is also the loop whose state fully determines the rest of
// the computation.
//
// Resume keying: each algorithm stamps its snapshots with a `kind` string
// (e.g. "propositional.karp_luby.v1") and a fingerprint digesting
// everything its result depends on — not just the run parameters (seed,
// sample plan) and the instance *shape* (counts, arities), but the full
// instance *content*: the serialized query or program, the DNF term
// literals, the observed facts, and every probability-model entry. A
// re-run with an edited query or tweaked probabilities that happens to
// keep the same shape therefore cannot match. On resume, a snapshot is
// consumed only by a scope with the same kind; a kind match with a
// fingerprint mismatch is an InvalidArgument ("snapshot from a different
// run"), not a silent restart and never a silently biased merge.

#ifndef QREL_UTIL_SNAPSHOT_H_
#define QREL_UTIL_SNAPSHOT_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qrel/util/bigint.h"
#include "qrel/util/mutex.h"
#include "qrel/util/rational.h"
#include "qrel/util/rng.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

// The snapshot container format version. Bump on any layout change; load
// rejects other versions with InvalidArgument (the payload encodings are
// versioned separately through each algorithm's `kind` string).
inline constexpr uint32_t kSnapshotFormatVersion = 1;

// One decoded snapshot: whose state it is (`kind` + parameter
// `fingerprint`), the work-unit counter at checkpoint time, and the
// algorithm-specific payload bytes.
struct SnapshotData {
  std::string kind;
  uint64_t fingerprint = 0;
  uint64_t work_spent = 0;
  std::vector<uint8_t> payload;
};

// ---------------------------------------------------------------------------
// Byte-level encoding helpers. All integers are little-endian; doubles are
// bit-cast to uint64. Strings and byte blobs are u32-length-prefixed;
// BigInt/Rational travel as decimal strings (exact, and validated on read
// by the existing parsers).

class SnapshotWriter {
 public:
  void U8(uint8_t value) { bytes_.push_back(value); }
  void U32(uint32_t value);
  void U64(uint64_t value);
  void I64(int64_t value) { U64(static_cast<uint64_t>(value)); }
  void Double(double value);
  void String(std::string_view value);
  void BigIntVal(const BigInt& value) { String(value.ToDecimalString()); }
  void RationalVal(const Rational& value);
  void RngState(const Rng& rng);
  void TupleVal(const std::vector<int32_t>& tuple);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

// Reads values back in write order. Every method returns kDataLoss on a
// truncated buffer and kDataLoss/kInvalidArgument on malformed variable-
// length fields, so restoring from an adversarial (or bit-rotted but
// checksum-colliding) payload degrades to a typed error, never UB — the
// property fuzz/fuzz_parse_snapshot.cc hammers on.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::vector<uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  Status U8(uint8_t* out);
  Status U32(uint32_t* out);
  Status U64(uint64_t* out);
  Status I64(int64_t* out);
  Status Double(double* out);
  Status String(std::string* out);
  Status BigIntVal(BigInt* out);
  Status RationalVal(Rational* out);
  Status RngState(Rng* out);
  Status TupleVal(std::vector<int32_t>* out);
  // Fails with kDataLoss unless every byte has been consumed.
  Status ExpectEnd() const;

  size_t remaining() const { return bytes_.size() - position_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t position_ = 0;
};

// Incremental FNV-1a over the values an algorithm's result depends on;
// used both as the file checksum and as the run-parameter fingerprint.
class Fingerprint {
 public:
  Fingerprint& Mix(uint64_t value);
  Fingerprint& Mix(std::string_view value);
  Fingerprint& MixDouble(double value);
  // Exact: digests the normalized numerator/denominator decimal strings.
  Fingerprint& MixRational(const Rational& value);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

// ---------------------------------------------------------------------------
// Container encode/decode and atomic file I/O.

// Serializes `data` into the container format (magic, version,
// fingerprint, kind, work counter, payload, trailing checksum).
std::vector<uint8_t> EncodeSnapshot(const SnapshotData& data);

// Decodes and validates a container. Typed failures:
//   kInvalidArgument — wrong magic (not a snapshot) or unsupported version;
//   kDataLoss        — truncated data, length fields pointing past the end,
//                      trailing garbage, or checksum mismatch.
StatusOr<SnapshotData> DecodeSnapshot(const uint8_t* data, size_t size);

// Writes atomically: the bytes go to "<path>.tmp.<pid>.<seq>" (unique
// per writer attempt, so concurrent writers — threads or processes —
// checkpointing to the same path cannot truncate each other's
// in-progress temp file), are fsync'd, the temp file is renamed over
// `path`, and the containing directory is fsync'd so the rename itself
// is durable. A crash at any instant leaves either the old snapshot or
// the new one — never a torn file.
Status WriteSnapshotFile(const std::string& path, const SnapshotData& data);

// Loads and validates `path`. kNotFound when the file does not exist
// (a fresh run, not an error for callers that probe); otherwise the
// DecodeSnapshot contract.
StatusOr<SnapshotData> ReadSnapshotFile(const std::string& path);

// ---------------------------------------------------------------------------
// Checkpointer: the per-run checkpoint/resume policy, attached to a
// RunContext (RunContext::SetCheckpointer) and claimed by the outermost
// checkpointable loop via CheckpointScope.

class Checkpointer {
 public:
  using Clock = std::chrono::steady_clock;

  // Checkpoints are written to `path` at most every `interval`, the first
  // one `interval` after construction — a run shorter than the interval
  // writes nothing. An interval of zero checkpoints at every safe point
  // (the deterministic setting the crash-recovery tests use).
  Checkpointer(std::string path, std::chrono::milliseconds interval);

  // Probes `path`: when a snapshot exists it becomes the resume state a
  // matching CheckpointScope will consume. A missing file is a fresh run
  // (OK); a corrupt or version-skewed file is the typed DecodeSnapshot
  // error so callers never silently restart from zero.
  Status LoadForResume();

  const std::string& path() const { return path_; }
  bool has_resume() const {
    MutexLock lock(&mu_);
    return resume_.has_value();
  }
  // Kind of the pending resume snapshot, empty when none.
  std::string resume_kind() const {
    MutexLock lock(&mu_);
    return resume_.has_value() ? resume_->kind : std::string();
  }
  // True once a scope consumed the resume state.
  bool resume_consumed() const {
    MutexLock lock(&mu_);
    return resume_consumed_;
  }
  // True while some CheckpointScope holds the claim (so any further scope
  // constructed on the same context would be inert).
  bool claimed() const {
    MutexLock lock(&mu_);
    return claimed_;
  }
  // Checkpoints written so far (tests and overhead accounting).
  uint64_t writes() const {
    MutexLock lock(&mu_);
    return writes_;
  }

 private:
  friend class CheckpointScope;

  // The file holds another algorithm's unconsumed progress (e.g. the run
  // was re-invoked with a different query). Overwriting it would destroy
  // a resumable checkpoint, so a scope of `kind` must not write.
  bool ForeignResumePending(std::string_view kind) const QREL_REQUIRES(mu_) {
    return resume_.has_value() && !resume_consumed_ && resume_->kind != kind;
  }

  std::string path_;          // immutable after construction
  Clock::duration interval_;  // immutable after construction

  // Guards the claim and all checkpoint/resume state, so concurrent
  // CheckpointScope construction (the coming parallel engine core, and
  // today's concurrency stress test) race-free elects exactly one active
  // scope per Checkpointer. Held across WriteSnapshotFile: one writer at
  // a time per checkpoint path, ranked just below the fault registry the
  // write's vfs fault sites take.
  mutable Mutex mu_{LockRank::kCheckpointer};
  std::optional<SnapshotData> resume_ QREL_GUARDED_BY(mu_);
  bool resume_consumed_ QREL_GUARDED_BY(mu_) = false;
  bool claimed_ QREL_GUARDED_BY(mu_) = false;
  std::optional<Clock::time_point> last_write_ QREL_GUARDED_BY(mu_);
  uint64_t writes_ QREL_GUARDED_BY(mu_) = 0;
};

// RAII claim on a RunContext's Checkpointer. Constructed by GovernedLoop
// and the Datalog fixpoint; active only for the outermost one (and only when a
// checkpointer is attached at all), inert otherwise — all methods on an
// inert scope are cheap no-ops.
class CheckpointScope {
 public:
  // `kind` identifies the algorithm + payload encoding; `fingerprint`
  // digests the parameters that must match for a resume to be sound.
  CheckpointScope(RunContext* ctx, std::string_view kind,
                  uint64_t fingerprint);
  ~CheckpointScope();

  CheckpointScope(const CheckpointScope&) = delete;
  CheckpointScope& operator=(const CheckpointScope&) = delete;

  // Whether a scope constructed on `ctx` right now would be active. Lets a
  // caller skip computing an expensive content fingerprint (e.g. hashing a
  // whole extensional database) for a scope that would be inert anyway —
  // in particular per-world fixpoints under a claimed world loop.
  static bool WouldClaim(const RunContext* ctx);

  bool active() const { return checkpointer_ != nullptr; }

  // If the checkpointer holds an unconsumed snapshot of this scope's kind,
  // consumes it: restores the RunContext work counter and hands back a
  // reader over the payload. nullopt when there is nothing to resume (or
  // the scope is inert). A kind match with a different fingerprint fails
  // with InvalidArgument: the snapshot belongs to a different run and
  // resuming — or silently discarding it — would both be wrong.
  Status TakeResume(std::optional<SnapshotReader>* reader);

  // Whether a checkpoint is due at this safe point: the interval has
  // elapsed (always, for a zero interval), or the RunContext has a
  // cancellation pending or its work budget already spent — the next
  // Charge() ends the run, so this is the last safe point and the final
  // state is flushed instead of losing everything since the previous
  // interval write (the qrel_cli SIGINT and server-drain paths rely on
  // this). Never due while the file holds another kind's unconsumed
  // snapshot. False on an inert scope after one pointer compare; an
  // active scope also takes the checkpointer lock and reads the clock.
  bool CheckpointDue() const;

  // Writes a checkpoint when one is due; `fill(SnapshotWriter&)`
  // serializes the loop state into the payload and runs only then. A
  // template, so a loop that passes a lambda pays no allocation or
  // type-erased call on the not-due path.
  template <typename Fill>
  Status MaybeCheckpoint(const Fill& fill) {
    return CheckpointDue() ? CheckpointNow(fill) : Status::Ok();
  }

  // Writes unconditionally (scope entry/exit, stratum boundaries).
  template <typename Fill>
  Status CheckpointNow(const Fill& fill) {
    if (checkpointer_ == nullptr) {
      return Status::Ok();
    }
    SnapshotWriter writer;
    fill(writer);
    return WritePayload(writer.TakeBytes());
  }

 private:
  Status WritePayload(std::vector<uint8_t> payload);

  RunContext* ctx_ = nullptr;
  Checkpointer* checkpointer_ = nullptr;  // non-null iff this scope claimed
  std::string kind_;
  uint64_t fingerprint_ = 0;
};

}  // namespace qrel

#endif  // QREL_UTIL_SNAPSHOT_H_
