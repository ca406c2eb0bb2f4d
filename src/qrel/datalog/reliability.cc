#include "qrel/datalog/reliability.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "qrel/util/governed_loop.h"

namespace qrel {

namespace {

size_t SymmetricDifferenceSize(const std::set<Tuple>& a,
                               const std::set<Tuple>& b) {
  size_t common = 0;
  const std::set<Tuple>& smaller = a.size() <= b.size() ? a : b;
  const std::set<Tuple>& larger = a.size() <= b.size() ? b : a;
  for (const Tuple& tuple : smaller) {
    if (larger.find(tuple) != larger.end()) {
      ++common;
    }
  }
  return a.size() + b.size() - 2 * common;
}

}  // namespace

StatusOr<ReliabilityReport> ExactDatalogReliability(
    const CompiledDatalog& program, const std::string& predicate,
    const UnreliableDatabase& db, RunContext* ctx) {
  StatusOr<int> arity = program.PredicateArity(predicate);
  if (!arity.ok()) {
    return arity.status();
  }
  if (db.UncertainEntries().size() > 62) {
    return Status::OutOfRange(
        "exact Datalog reliability would enumerate more than 2^62 worlds");
  }
  // Claimed before any EvalPredicate call: the fixpoint inside each world
  // carries its own (here inert) scope, and granularity must be one world.
  Fingerprint fingerprint;
  fingerprint.Mix("datalog.exact")
      .Mix(predicate)
      .Mix(static_cast<uint64_t>(db.universe_size()))
      .Mix(static_cast<uint64_t>(*arity))
      .Mix(static_cast<uint64_t>(db.UncertainEntries().size()))
      .Mix(program.program().ToString())
      .Mix(db.ContentFingerprint());
  GovernedLoop loop(ctx, {.kind = "datalog.exact.v1",
                          .fingerprint = fingerprint.value(),
                          .end = uint64_t{1} << db.UncertainEntries().size(),
                          .fault_site = "datalog.exact.world"});

  // One index for the observed database and every world: each makes
  // true only atoms among db's possible facts.
  const PossibleFacts facts(db, program.edb_paths());
  StatusOr<std::set<Tuple>> observed =
      program.EvalPredicate(db.observed(), facts, predicate, ctx);
  if (!observed.ok()) {
    return observed.status();
  }
  ReliabilityReport report;
  report.arity = *arity;
  QREL_RETURN_IF_ERROR(EnumerateWorlds(
      db, loop, &report, [&](const WorldView& view) -> StatusOr<size_t> {
        StatusOr<std::set<Tuple>> actual =
            program.EvalPredicate(view, facts, predicate, ctx);
        if (!actual.ok()) {
          return actual.status();  // the envelope, or an injected fault
        }
        return SymmetricDifferenceSize(*observed, *actual);
      }));
  return report;
}

StatusOr<ApproxResult> PaddedDatalogReliability(
    const CompiledDatalog& program, const std::string& predicate,
    const UnreliableDatabase& db, const ApproxOptions& options) {
  QREL_RETURN_IF_ERROR(ValidateApproxOptions(options));
  StatusOr<int> arity = program.PredicateArity(predicate);
  if (!arity.ok()) {
    return arity.status();
  }
  int n = db.universe_size();
  int k = *arity;
  double tuple_count = std::pow(static_cast<double>(n),
                                static_cast<double>(k));
  if (tuple_count > static_cast<double>(uint64_t{1} << 22)) {
    return Status::OutOfRange("answer space too large");
  }
  double per_epsilon = options.epsilon / tuple_count;
  double per_delta = options.delta / tuple_count;
  uint64_t samples =
      options.fixed_samples.has_value()
          ? *options.fixed_samples
          : PaddedSampleBound(options.xi, per_epsilon / 2.0, per_delta);

  // Claimed before any EvalPredicate call so the per-world fixpoint scope
  // is inert; granularity is one sampled world.
  Fingerprint fingerprint;
  fingerprint.Mix("datalog.padded")
      .Mix(predicate)
      .Mix(options.seed)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .MixDouble(options.xi)
      .Mix(options.fixed_samples.value_or(0))
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(program.program().ToString())
      .Mix(db.ContentFingerprint());
  GovernedLoop loop(options.run_context,
                    {.kind = "datalog.padded.v1",
                     .fingerprint = fingerprint.value(),
                     .end = samples,
                     .fault_site = "datalog.padded.world",
                     .allow_truncation = options.allow_truncation});

  const PossibleFacts facts(db, program.edb_paths());
  StatusOr<std::set<Tuple>> observed = program.EvalPredicate(
      db.observed(), facts, predicate, options.run_context);
  if (!observed.ok()) {
    return observed.status();
  }

  // Enumerate the tuple space once; per-tuple hit counters.
  std::vector<Tuple> all_tuples = AllTuples(n, k);
  std::vector<uint64_t> hits(all_tuples.size(), 0);

  const double xi = options.xi;
  Rng rng(options.seed);
  // Payload: samples drawn, the per-tuple hit counters, the RNG.
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r, uint64_t* drawn) {
    QREL_RETURN_IF_ERROR(r.U64(drawn));
    uint32_t hit_count = 0;
    QREL_RETURN_IF_ERROR(r.U32(&hit_count));
    if (hit_count != hits.size()) {
      return Status::DataLoss("snapshot hit-counter count mismatch");
    }
    for (uint64_t& h : hits) {
      QREL_RETURN_IF_ERROR(r.U64(&h));
    }
    return r.RngState(&rng);
  }));
  QREL_RETURN_IF_ERROR(loop.Run(
      [&](SnapshotWriter& w, uint64_t drawn) {
        w.U64(drawn);
        w.U32(static_cast<uint32_t>(hits.size()));
        for (uint64_t h : hits) {
          w.U64(h);
        }
        w.RngState(rng);
      },
      [&](uint64_t) {
        World world = db.SampleWorld(&rng);
        WorldView view(db, world);
        // A fixpoint trip mid-world is a budget trip like any other: the
        // completed worlds are a valid (smaller) sample for every tuple.
        StatusOr<std::set<Tuple>> actual = program.EvalPredicate(
            view, facts, predicate, options.run_context);
        if (!actual.ok()) {
          return actual.status();
        }
        for (size_t i = 0; i < all_tuples.size(); ++i) {
          bool rd = rng.NextBernoulli(xi);
          if (!rd) {
            continue;
          }
          bool rc = rng.NextBernoulli(xi);
          bool psi_true = rc || actual->find(all_tuples[i]) != actual->end();
          if (psi_true) {
            ++hits[i];
          }
        }
        return Status::Ok();
      }));
  uint64_t drawn = loop.next();

  double expected_error = 0.0;
  for (size_t i = 0; i < all_tuples.size(); ++i) {
    double x_bar =
        static_cast<double>(hits[i]) / static_cast<double>(drawn);
    double nu = (x_bar - xi * xi) / (xi - xi * xi);
    nu = std::clamp(nu, 0.0, 1.0);
    bool was_observed = observed->find(all_tuples[i]) != observed->end();
    expected_error += was_observed ? 1.0 - nu : nu;
  }

  ApproxResult result;
  result.samples = drawn;
  result.truncated = loop.truncated();
  if (drawn < PaddedSampleBound(options.xi, per_epsilon / 2.0, per_delta)) {
    result.achieved_epsilon =
        PaddedAchievedEpsilon(options.xi, drawn, per_delta) * tuple_count;
  }
  result.estimate = std::clamp(1.0 - expected_error / tuple_count, 0.0, 1.0);
  result.method =
      "Thm 5.12 padded estimator on Datalog predicate '" + predicate + "'";
  return result;
}

}  // namespace qrel
