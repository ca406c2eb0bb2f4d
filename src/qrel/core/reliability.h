// Exact query reliability: Definition 2.2, Proposition 3.1, Theorem 4.2.
//
// For a k-ary query ψ on an unreliable database 𝔇 = (𝔄, μ) over a universe
// of size n:
//
//   H_ψ(𝔇) = E[ |ψ^𝔄 Δ ψ^𝔅| ]   (expected Hamming error)
//   R_ψ(𝔇) = 1 − H_ψ(𝔇)/n^k     (reliability / fault tolerance)
//
// ExactReliability enumerates the 2^u possible worlds (u = number of
// uncertain atoms) and is the FP^#P-style exact algorithm of Theorem 4.2 —
// the #P oracle is realized by exact big-rational enumeration, and the
// report includes the scaling integer g together with the integer
// g·Pr[𝔅 ⊨ ψ(ā)] values whose integrality the theorem asserts.
//
// QuantifierFreeReliability is de Rougemont's polynomial-time algorithm
// (Proposition 3.1): for each tuple ā, only the ground atoms occurring in
// ψ(ā) matter — a constant number — so summing over their 2^{n(ψ)} local
// truth assignments is polynomial in n for fixed ψ.

#ifndef QREL_CORE_RELIABILITY_H_
#define QREL_CORE_RELIABILITY_H_

#include <vector>

#include "qrel/logic/ast.h"
#include "qrel/logic/eval.h"
#include "qrel/logic/second_order.h"
#include "qrel/prob/possible_facts.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/util/governed_loop.h"
#include "qrel/util/rational.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

struct ReliabilityReport {
  int arity = 0;
  Rational expected_error;  // H_ψ(𝔇)
  Rational reliability;     // R_ψ(𝔇) = 1 − H_ψ/n^k
  // Number of worlds enumerated (exact enumeration) or of local atom
  // assignments summed (quantifier-free algorithm).
  uint64_t work_units = 0;
};

// All tuples of arity `k` over {0..n-1}, in AdvanceTuple order.
std::vector<Tuple> AllTuples(int n, int k);

// n^k exactly: the size of the answer space R_ψ is normalized by.
Rational TupleSpaceSize(int n, int k);

// ψ^𝔄, computed once: every k-tuple with its truth value in the observed
// database, to compare enumerated or sampled worlds against. Reads the
// database through `facts`, the run's index over query.paths().
class ObservedAnswers {
 public:
  ObservedAnswers(const CompiledQuery& query, const PossibleFacts& facts);

  // |ψ^𝔄 Δ ψ^𝔅| for the world 𝔅 = `world` of the indexed database.
  size_t CountDifferences(const World& world) const;

 private:
  const CompiledQuery& query_;
  const PossibleFacts& facts_;
  std::vector<Tuple> tuples_;
  std::vector<bool> truth_;
};

// Thm 4.2's world loop, shared by the first-order and Datalog exact rungs.
// `loop` (end = 2^u, the world count) visits every world of `db`, and
// `differing(const World&)` returns |ψ^𝔄 Δ ψ^𝔅| for one world as a
// StatusOr<size_t>. Accumulates H = Σ ν(𝔅)·|ψ^𝔄 Δ ψ^𝔅| and the world
// count into `report` and sets R = 1 − H/n^k for its arity k. Snapshot
// payload: the next world's code, then expected_error and work_units.
template <typename Differing>
Status EnumerateWorlds(const UnreliableDatabase& db, GovernedLoop& loop,
                       ReliabilityReport* report,
                       const Differing& differing) {
  WorldEnumerator worlds(db);
  RationalSum expected_error;
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r, uint64_t* code) {
    QREL_RETURN_IF_ERROR(r.U64(code));
    Rational resumed;
    QREL_RETURN_IF_ERROR(r.RationalVal(&resumed));
    expected_error = RationalSum(resumed);
    return r.U64(&report->work_units);
  }));
  QREL_RETURN_IF_ERROR(loop.Run(
      [&](SnapshotWriter& w, uint64_t code) {
        w.U64(code);
        w.RationalVal(expected_error.Value());
        w.U64(report->work_units);
      },
      [&](uint64_t code) {
        ++report->work_units;
        Rational probability = worlds.Probability(code);
        if (probability.IsZero()) {
          return Status::Ok();
        }
        StatusOr<size_t> count = differing(worlds.Seek(code));
        if (!count.ok()) {
          return count.status();
        }
        expected_error.Add(probability, static_cast<int64_t>(*count));
        return Status::Ok();
      }));
  report->expected_error = expected_error.Value();
  report->reliability =
      Rational(1) - report->expected_error /
                        TupleSpaceSize(db.universe_size(), report->arity);
  return Status::Ok();
}

// Exact H_ψ and R_ψ by possible-world enumeration (Theorem 4.2). Works for
// every first-order query; cost Θ(2^u · n^k) query evaluations with
// u = |UncertainEntries()|. Fails if u > 62. `ctx` (nullable) is charged
// one work unit per enumerated world; a tripped envelope stops the
// enumeration with the budget status.
StatusOr<ReliabilityReport> ExactReliability(const FormulaPtr& query,
                                             const UnreliableDatabase& db,
                                             RunContext* ctx = nullptr);

// Fails with kInvalidArgument (constant-out-of-range) when a value of
// `assignment` is not an element of db's universe.
Status CheckAssignmentInUniverse(const Tuple& assignment,
                                 const UnreliableDatabase& db);

// Exact Pr[𝔅 ⊨ ψ(ā)] for a Boolean instantiation of a query, by world
// enumeration. An assignment value outside the universe fails with
// kInvalidArgument (constant-out-of-range). `ctx` (nullable) is charged
// one work unit per enumerated world; a tripped envelope stops the
// enumeration with the budget status. Not checkpointed.
StatusOr<Rational> ExactQueryProbability(const FormulaPtr& query,
                                         const UnreliableDatabase& db,
                                         const Tuple& assignment,
                                         RunContext* ctx = nullptr);

// Theorem 4.2 artifacts: the scaling integer g (product of ν-denominators)
// and the exact integer g·Pr[𝔅 ⊨ ψ], certifying that the probability is a
// ratio of polynomial-size integers.
struct ScaledProbability {
  BigInt g;
  BigInt g_times_probability;
};
StatusOr<ScaledProbability> ExactScaledProbability(const FormulaPtr& query,
                                                   const UnreliableDatabase& db,
                                                   const Tuple& assignment,
                                                   RunContext* ctx = nullptr);

// Proposition 3.1: polynomial-time exact reliability for quantifier-free
// queries. Fails with InvalidArgument if `query` has quantifiers. `ctx`
// (nullable) is charged one work unit per local atom assignment summed.
StatusOr<ReliabilityReport> QuantifierFreeReliability(
    const FormulaPtr& query, const UnreliableDatabase& db,
    RunContext* ctx = nullptr);

// Per-tuple breakdown of the expected error: H_ψ(ā) = Pr[ψ(ā) wrong] for
// every tuple ā (lexicographic order), exactly. The linearity of
// expectation behind Prop. 3.1 / Thm. 4.2 makes H_ψ their sum. Uses the
// polynomial local-atom algorithm for quantifier-free queries and world
// enumeration otherwise (same feasibility limits as ExactReliability).
// `ctx` (nullable) is charged one work unit per local atom assignment or
// enumerated world; a tripped envelope stops with the budget status. Not
// checkpointed.
struct TupleError {
  Tuple tuple;
  bool observed = false;     // ā ∈ ψ^𝔄
  Rational error;            // H_ψ(ā)
};
StatusOr<std::vector<TupleError>> PerTupleExpectedError(
    const FormulaPtr& query, const UnreliableDatabase& db,
    RunContext* ctx = nullptr);

// Theorem 4.2 at full strength: exact reliability of a second-order
// Boolean query — Σ¹₁ (default) or Π¹₁ (`pi11` = true) — by world
// enumeration. Each world evaluation itself enumerates the relation-
// variable contents, so both the world space (≤ 2^62) and the per-world
// guess space (≤ 2^24 bits, checked by the evaluator) must be small.
StatusOr<ReliabilityReport> ExactSecondOrderReliability(
    const CompiledSecondOrder& query, const UnreliableDatabase& db,
    bool pi11 = false);

}  // namespace qrel

#endif  // QREL_CORE_RELIABILITY_H_
