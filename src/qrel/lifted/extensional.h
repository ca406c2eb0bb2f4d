// Extensional (lifted) evaluation of safe plans.
//
// For a safe self-join-free conjunctive query (logic/safe_plan.h), the
// query probability factors over independent tuple events, so reliability
// needs no possible worlds and no samples:
//
//   leaf R(t̄)        Pr = ν(R t̄)                     (one marginal lookup)
//   equality t₁ = t₂  Pr = 1 or 0                     (deterministic)
//   independent join  Pr[φ₁ ∧ φ₂] = Pr[φ₁]·Pr[φ₂]
//   independent proj  Pr[∃x φ] = 1 − Π_c (1 − Pr[φ[x:=c]])
//
// ExtensionalReliability evaluates the plan once per answer tuple ā over
// the n^k tuple space, in exact rational arithmetic, and assembles
// H_ψ(𝔇) = Σ_ā Pr[ψ(ā) wrong] and R_ψ = 1 − H_ψ/n^k exactly — the same
// quantities core/reliability.h computes by 2^u world enumeration.
//
// A project does not scan the universe. Its root variable occurs in every
// atom below it, so only the values some possible fact of the first such
// atom puts there (prob/possible_facts.h) can give the child a nonzero
// probability; every other value contributes the factor 1 exactly. A join
// stops at a factor of exactly 0 and a project at a child of exactly 1.
// The cost is O(n^k · matches): per answer tuple, the leaves reached
// through candidate facts, not n^depth instantiations. ψ^𝔄(ā) comes from
// the same plan over the observed facts.
//
// RunContext (nullable) is charged one unit per answer tuple and one per
// plan-leaf evaluation; a tripped envelope stops the computation with its
// budget status. The run is polynomial and restartable from scratch, so
// unlike the exponential rungs it takes no checkpoints.

#ifndef QREL_LIFTED_EXTENSIONAL_H_
#define QREL_LIFTED_EXTENSIONAL_H_

#include <vector>

#include "qrel/core/reliability.h"
#include "qrel/logic/ast.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/util/rational.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

// Exact H_ψ and R_ψ by safe-plan evaluation. Fails with kInvalidArgument
// when the query admits no safe plan (use logic/safe_plan.h or
// QueryClass::kSafeConjunctive to decide beforehand) or names a constant
// outside the universe; work_units counts plan operations (tuples + leaf
// evaluations). When `observed_answers` is non-null, the tuples of ψ^𝔄 are
// appended to it in tuple-space order.
StatusOr<ReliabilityReport> ExtensionalReliability(
    const FormulaPtr& query, const UnreliableDatabase& db,
    RunContext* ctx = nullptr, std::vector<Tuple>* observed_answers = nullptr);

// Exact Pr[𝔅 ⊨ ψ(ā)] via the safe plan, for one assignment of the free
// variables (free_variables order; empty for Boolean queries). The
// extensional counterpart of ExactQueryProbability, used by the
// cross-check tests. An assignment value outside the universe fails with
// kInvalidArgument (constant-out-of-range).
StatusOr<Rational> ExtensionalQueryProbability(const FormulaPtr& query,
                                               const UnreliableDatabase& db,
                                               const Tuple& assignment);

}  // namespace qrel

#endif  // QREL_LIFTED_EXTENSIONAL_H_
