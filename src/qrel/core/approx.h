// Randomized approximation of query probabilities and reliabilities:
// Theorem 5.4, Corollary 5.5 and Theorem 5.12.
//
//  * ExistentialProbabilityFptras — an FPTRAS (relative error ε, failure
//    probability δ) for ν(ψ) = Pr[𝔅 ⊨ ψ], existential Boolean ψ: ground to
//    kDNF (Theorem 5.4) and run Karp-Luby.
//  * ReliabilityAbsoluteApprox — |R̂ − R_ψ| ≤ ε with probability ≥ 1−δ for
//    existential and universal queries of any arity (Corollary 5.5);
//    k-ary queries split the budget into (ε/n^k, δ/n^k) per tuple.
//  * PaddedReliabilityApprox — the same absolute-error guarantee for every
//    polynomial-time evaluable query (Theorem 5.12), via the padded query
//    ψ' = (ψ ∨ Rc) ∧ Rd with fresh ξ-probability atoms Rc, Rd, which pins
//    p = E[X] into [ξ², ξ] so the Karp-Luby zero-one lemma (Lemma 5.11)
//    applies with t = ⌈9/(2ξ(ε/2)²) · ln(1/δ)⌉ samples.

#ifndef QREL_CORE_APPROX_H_
#define QREL_CORE_APPROX_H_

#include <cstdint>
#include <optional>
#include <string>

#include "qrel/logic/ast.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

struct ApproxOptions {
  // Error targets: relative for the FPTRAS, absolute for the reliability
  // approximators. Must lie in (0, 1).
  double epsilon = 0.05;
  double delta = 0.05;
  uint64_t seed = 1;

  // Theorem 5.12's ξ ∈ (0, 1/2); chosen before seeing 𝔇, ε or δ. The
  // sample count scales as 1/ξ, but the footnote fixes it a priori — the
  // default 1/4 matches the usual instantiation.
  double xi = 0.25;

  // Overrides the derived sample counts when set (for equal-budget
  // benchmark comparisons). Applies per Boolean sub-estimate.
  std::optional<uint64_t> fixed_samples;

  // Execution envelope (non-owning, nullable): sampling loops charge one
  // work unit per sample, grounding charges per assignment/clause. A
  // tripped envelope aborts the computation with the budget status.
  RunContext* run_context = nullptr;

  // For single-estimate paths (Boolean queries): when the envelope trips
  // mid-sampling with at least one sample drawn, return the running
  // estimate marked `truncated` instead of failing. Never applies to
  // cancellation, and never to multi-tuple loops (a partially covered
  // tuple space is not a usable estimate).
  bool allow_truncation = false;
};

struct ApproxResult {
  double estimate = 0.0;
  // Total samples drawn across all Boolean sub-estimates.
  uint64_t samples = 0;
  // Human-readable description of the algorithm that ran.
  std::string method;
  // Set when the drawn sample count delivers a weaker guarantee than the
  // requested `epsilon` (fixed_samples below the theorem-derived bound, or
  // a truncated run): the error actually guaranteed at the requested
  // delta, in the same units as the request (relative for the FPTRAS,
  // absolute on R for the reliability approximators).
  std::optional<double> achieved_epsilon;
  // The sampling loop stopped early on a tripped budget (see
  // ApproxOptions::allow_truncation).
  bool truncated = false;
};

// The option checks every approximation rung (Cor 5.5, Thm 5.12, and the
// Datalog padded estimator) runs first, so all of them reject a bad
// request with the same InvalidArgument message: ε and δ in (0, 1), ξ in
// (0, 1/2), and a positive fixed_samples when one is set.
Status ValidateApproxOptions(const ApproxOptions& options);

// FPTRAS for ν(ψ(ā)) where ψ is existential (Theorem 5.4): relative error
// ε with probability ≥ 1-δ. `assignment` instantiates the free variables
// (empty for sentences). Fails if ψ is not existential.
StatusOr<ApproxResult> ExistentialProbabilityFptras(
    const FormulaPtr& query, const UnreliableDatabase& db,
    const Tuple& assignment, const ApproxOptions& options);

// Absolute-error approximation of R_ψ for existential or universal ψ of
// any arity (Corollary 5.5). Fails if ψ is neither.
StatusOr<ApproxResult> ReliabilityAbsoluteApprox(const FormulaPtr& query,
                                                 const UnreliableDatabase& db,
                                                 const ApproxOptions& options);

// Absolute-error approximation of R_ψ for any first-order ψ
// (Theorem 5.12). The estimator never grounds the query; it samples worlds
// and evaluates ψ directly, so it applies to every polynomial-time
// evaluable query.
StatusOr<ApproxResult> PaddedReliabilityApprox(const FormulaPtr& query,
                                               const UnreliableDatabase& db,
                                               const ApproxOptions& options);

// Theorem 5.12's sample bound t(ξ, ε, δ) = ⌈9/(2 ξ ε²) ln(1/δ)⌉ (the ε
// here is the one handed to Lemma 5.11, i.e. half the user's ε).
uint64_t PaddedSampleBound(double xi, double epsilon, double delta);

// Inverts the sample bound: the per-estimate absolute error actually
// guaranteed (at failure probability δ) by `samples` padded samples — the
// error bar of a truncated or fixed-budget run. Includes the ×2 from the
// proof's final step, so it is directly comparable to the user's ε.
double PaddedAchievedEpsilon(double xi, uint64_t samples, double delta);

}  // namespace qrel

#endif  // QREL_CORE_APPROX_H_
