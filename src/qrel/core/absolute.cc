#include "qrel/core/absolute.h"

#include "qrel/core/reliability.h"
#include "qrel/logic/classify.h"
#include "qrel/logic/eval.h"
#include "qrel/util/check.h"
#include "qrel/util/governed_loop.h"

namespace qrel {

StatusOr<bool> AbsolutelyReliableQuantifierFree(const FormulaPtr& query,
                                                const UnreliableDatabase& db) {
  StatusOr<ReliabilityReport> report = QuantifierFreeReliability(query, db);
  if (!report.ok()) {
    return report.status();
  }
  return report->expected_error.IsZero();
}

StatusOr<AbsoluteReliabilityResult> AbsoluteReliabilityByWitness(
    const FormulaPtr& query, const UnreliableDatabase& db) {
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  if (db.UncertainEntries().size() > 62) {
    return Status::OutOfRange(
        "witness search over more than 2^62 worlds");
  }

  ObservedAnswers observed(*compiled, db);
  AbsoluteReliabilityResult result;
  WorldEnumerator worlds(db);
  for (uint64_t code = 0; code < worlds.world_count(); ++code) {
    ++result.worlds_checked;
    if (observed.CountDifferences(WorldView(db, worlds.Seek(code))) > 0) {
      result.absolutely_reliable = false;
      result.witness = worlds.world();
      return result;
    }
  }
  result.absolutely_reliable = true;
  return result;
}

StatusOr<AbsoluteReliabilityResult> AbsoluteReliabilityMonteCarlo(
    const FormulaPtr& query, const UnreliableDatabase& db, uint64_t samples,
    uint64_t seed, RunContext* ctx) {
  if (samples == 0) {
    return Status::InvalidArgument("sample count must be positive");
  }
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  int n = db.universe_size();
  int k = compiled->arity();
  ObservedAnswers observed(*compiled, db);

  Fingerprint fingerprint;
  fingerprint.Mix("core.absolute_mc")
      .Mix(seed)
      .Mix(samples)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(query->ToString())
      .Mix(db.ContentFingerprint());
  GovernedLoop loop(ctx, {.kind = "core.absolute_mc.v1",
                          .fingerprint = fingerprint.value(),
                          .end = samples});

  Rng rng(seed);
  AbsoluteReliabilityResult result;
  // Payload: the next sample's index, worlds checked so far, the RNG.
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r, uint64_t* next) {
    QREL_RETURN_IF_ERROR(r.U64(next));
    QREL_RETURN_IF_ERROR(r.U64(&result.worlds_checked));
    return r.RngState(&rng);
  }));
  QREL_RETURN_IF_ERROR(loop.Run(
      [&](SnapshotWriter& w, uint64_t s) {
        w.U64(s);
        w.U64(result.worlds_checked);
        w.RngState(rng);
      },
      [&](uint64_t) {
        World world = db.SampleWorld(&rng);
        ++result.worlds_checked;
        if (observed.CountDifferences(WorldView(db, world)) > 0) {
          result.witness = std::move(world);
          loop.Stop();
        }
        return Status::Ok();
      }));
  // Without a sampled counterexample the answer is inconclusive but
  // reported as "reliable so far" (see the header comment and Lemma 5.10).
  result.absolutely_reliable = !result.witness.has_value();
  return result;
}

}  // namespace qrel
