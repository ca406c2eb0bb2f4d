// Randomized approximation of query probabilities and reliabilities:
// Theorem 5.4, Corollary 5.5 and Theorem 5.12.
//
//  * ExistentialProbabilityFptras — an FPTRAS (relative error ε, failure
//    probability δ) for ν(ψ) = Pr[𝔅 ⊨ ψ], existential Boolean ψ: ground to
//    kDNF (Theorem 5.4) and run Karp-Luby.
//  * ReliabilityAbsoluteApprox — |R̂ − R_ψ| ≤ ε with probability ≥ 1−δ for
//    existential and universal queries of any arity (Corollary 5.5);
//    k-ary queries split the budget into (ε/n^k, δ/n^k) per tuple.
//  * PaddedEstimate — the same absolute-error guarantee for every
//    polynomial-time evaluable query (Theorem 5.12), via the padded query
//    ψ' = (ψ ∨ Rc) ∧ Rd with fresh ξ-probability atoms Rc, Rd, which pins
//    p = E[X] into [ξ², ξ] so the Karp-Luby zero-one lemma (Lemma 5.11)
//    applies with t = ⌈9/(2ξ(ε/2)²) · ln(1/δ)⌉ samples. It only evaluates
//    ψ on sampled worlds, so one loop serves every query language:
//    PaddedReliabilityApprox is its first-order front end and
//    PaddedDatalogReliability (datalog/reliability.h) its Datalog one.

#ifndef QREL_CORE_APPROX_H_
#define QREL_CORE_APPROX_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "qrel/logic/ast.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/prob/world.h"
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
  // benchmark comparisons): the samples of each Boolean sub-estimate for
  // the FPTRAS and Cor 5.5, the number of sampled worlds (shared by every
  // answer tuple) for Thm 5.12.
  std::optional<uint64_t> fixed_samples;

  // Execution envelope (non-owning, nullable): sampling loops charge one
  // work unit per sample, grounding charges per assignment/clause. A
  // tripped envelope aborts the computation with the budget status.
  RunContext* run_context = nullptr;

  // When the envelope trips mid-sampling with at least one sample drawn,
  // return the running estimate marked `truncated` instead of failing.
  // Applies to the Thm 5.12 estimator at every arity (each sampled world
  // counts for every tuple, so a prefix of worlds is a smaller sample for
  // all of them) and to the FPTRAS and Cor 5.5 on Boolean queries only (a
  // partially covered tuple space is not a usable estimate). Never applies
  // to cancellation.
  bool allow_truncation = false;
};

struct ApproxResult {
  double estimate = 0.0;
  // Samples drawn: the total across all Boolean sub-estimates for the
  // FPTRAS and Cor 5.5, the sampled worlds (each shared by every tuple)
  // for Thm 5.12.
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

// The option checks every approximation rung (the FPTRAS, Cor 5.5 and
// Thm 5.12 for both query languages) runs first, so all of them reject a
// bad request with the same InvalidArgument message: ε and δ in (0, 1), ξ
// in (0, 1/2), and a positive fixed_samples when one is set.
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

// One query language's view of the Theorem 5.12 estimator: ψ on the
// observed database and on sampled worlds, plus the run's identity. The
// answer tuples are the n^arity tuples in AdvanceTuple order; tuple i is
// the i-th of them.
struct PaddedQuery {
  int arity = 0;
  // Sets (*observed)[i] to ψ^𝔄(ā_i); the vector arrives sized n^arity.
  // Called once, after the sample loop has claimed the checkpointer and
  // before any sample is drawn.
  std::function<Status(std::vector<bool>* observed)> observed;
  // Sets (*holds)[j] to whether `world` ⊨ ψ(needed[j]); the vector arrives
  // sized needed.size(). Called once per sample that needs the world.
  std::function<Status(const World& world, std::span<const Tuple> needed,
                       std::vector<bool>* holds)>
      holds;
  // The sample loop's snapshot kind and fault site (a string literal).
  std::string_view kind;
  const char* fault_site = nullptr;
  // Digest of the query; the estimator adds the database, the seed, ξ and
  // the sample plan to the resume fingerprint.
  uint64_t identity = 0;
  std::string method;  // ApproxResult::method
};

// Theorem 5.12: absolute error `options.epsilon` on R with probability
// ≥ 1 − δ, for any query the caller can evaluate. Each of the t samples
// draws, for every tuple in order, Rd and (when Rd holds) Rc; if some
// tuple has Rd ∧ ¬Rc, one world is drawn and `holds` says which of those
// tuples satisfy ψ on it. Every tuple's estimate keeps its marginal law
// although the tuples share worlds, and the union bound over tuples does
// not care about the correlation, so t is the per-tuple bound at
// (ε/n^k, δ/n^k). Charges one work unit per sample.
StatusOr<ApproxResult> PaddedEstimate(const PaddedQuery& query,
                                      const UnreliableDatabase& db,
                                      const ApproxOptions& options);

// The first-order front end of PaddedEstimate: ψ evaluated per needed
// tuple with CompiledQuery::Eval. It never grounds the query, so it
// applies to every first-order ψ.
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
