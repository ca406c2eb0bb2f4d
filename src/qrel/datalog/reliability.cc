#include "qrel/datalog/reliability.h"

#include <set>
#include <span>
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
      program.EvalPredicate(IndexedWorld(facts), predicate, ctx);
  if (!observed.ok()) {
    return observed.status();
  }
  ReliabilityReport report;
  report.arity = *arity;
  QREL_RETURN_IF_ERROR(EnumerateWorlds(
      db, loop, &report, [&](const World& world) -> StatusOr<size_t> {
        StatusOr<std::set<Tuple>> actual =
            program.EvalPredicate(IndexedWorld(facts, &world), predicate,
                                  ctx);
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
  StatusOr<int> arity = program.PredicateArity(predicate);
  if (!arity.ok()) {
    return arity.status();
  }
  // One index for the observed database and every world: each makes true
  // only atoms among db's possible facts.
  const PossibleFacts facts(db, program.edb_paths());
  const int n = db.universe_size();
  PaddedQuery padded;
  padded.arity = *arity;
  padded.observed = [&](std::vector<bool>* observed) -> Status {
    StatusOr<std::set<Tuple>> answers = program.EvalPredicate(
        IndexedWorld(facts), predicate, options.run_context);
    if (!answers.ok()) {
      return answers.status();
    }
    Tuple tuple(static_cast<size_t>(padded.arity), 0);
    for (size_t i = 0; i < observed->size(); ++i, AdvanceTuple(&tuple, n)) {
      (*observed)[i] = answers->count(tuple) > 0;
    }
    return Status::Ok();
  };
  // One fixpoint per world, then a lookup per needed tuple.
  padded.holds = [&](const World& world, std::span<const Tuple> needed,
                     std::vector<bool>* holds) -> Status {
    StatusOr<std::set<Tuple>> answers = program.EvalPredicate(
        IndexedWorld(facts, &world), predicate, options.run_context);
    if (!answers.ok()) {
      return answers.status();  // the envelope, or an injected fault
    }
    for (size_t j = 0; j < needed.size(); ++j) {
      (*holds)[j] = answers->count(needed[j]) > 0;
    }
    return Status::Ok();
  };
  padded.kind = "datalog.padded.v2";
  padded.fault_site = "datalog.padded.world";
  padded.identity =
      Fingerprint().Mix(predicate).Mix(program.program().ToString()).value();
  padded.method =
      "Thm 5.12 padded estimator on Datalog predicate '" + predicate + "'";
  return PaddedEstimate(padded, db, options);
}

}  // namespace qrel
