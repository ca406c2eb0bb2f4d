#include "qrel/propositional/karp_luby.h"

#include <algorithm>
#include <cmath>

#include "qrel/util/check.h"
#include "qrel/util/governed_loop.h"

namespace qrel {

uint64_t KarpLubySampleBound(int term_count, double epsilon, double delta) {
  QREL_CHECK_GT(term_count, 0);
  double t = 4.0 * term_count * std::log(2.0 / delta) / (epsilon * epsilon);
  QREL_CHECK(std::isfinite(t));
  return static_cast<uint64_t>(std::ceil(t));
}

double KarpLubyAchievedEpsilon(int term_count, uint64_t samples,
                               double delta) {
  QREL_CHECK_GT(term_count, 0);
  QREL_CHECK_GT(samples, 0u);
  // t = 4 m ln(2/δ) / ε²  solved for ε.
  return std::sqrt(4.0 * term_count * std::log(2.0 / delta) /
                   static_cast<double>(samples));
}

StatusOr<KarpLubyResult> KarpLubyProbability(
    const Dnf& dnf, const std::vector<Rational>& prob_true,
    const KarpLubyOptions& options) {
  if (static_cast<int>(prob_true.size()) != dnf.variable_count()) {
    return Status::InvalidArgument(
        "probability vector size does not match variable count");
  }
  if (options.epsilon <= 0.0 || options.epsilon >= 1.0 ||
      options.delta <= 0.0 || options.delta >= 1.0) {
    return Status::InvalidArgument("epsilon and delta must lie in (0, 1)");
  }
  for (const Rational& p : prob_true) {
    if (!p.IsProbability()) {
      return Status::InvalidArgument("variable probability outside [0, 1]");
    }
  }

  KarpLubyResult result;
  if (dnf.term_count() == 0) {
    return result;  // false: probability 0
  }

  // Exact per-term probabilities; drop zero-weight terms from sampling.
  std::vector<double> weight(static_cast<size_t>(dnf.term_count()), 0.0);
  std::vector<int> live_terms;
  double total_weight = 0.0;
  for (int i = 0; i < dnf.term_count(); ++i) {
    if (dnf.term(i).empty()) {
      // The constant-true term: Pr[φ] = 1 exactly.
      result.estimate = 1.0;
      result.total_term_weight = 1.0;
      return result;
    }
    double w = dnf.TermProbability(i, prob_true).ToDouble();
    weight[static_cast<size_t>(i)] = w;
    if (w > 0.0) {
      live_terms.push_back(i);
      total_weight += w;
    }
  }
  result.total_term_weight = total_weight;
  if (live_terms.empty()) {
    return result;  // every term impossible: probability 0
  }

  // Cumulative weights for sampling a term index.
  std::vector<double> cumulative(live_terms.size(), 0.0);
  double running = 0.0;
  for (size_t i = 0; i < live_terms.size(); ++i) {
    running += weight[static_cast<size_t>(live_terms[i])];
    cumulative[i] = running;
  }

  uint64_t samples =
      options.fixed_samples.has_value()
          ? *options.fixed_samples
          : KarpLubySampleBound(static_cast<int>(live_terms.size()),
                                options.epsilon, options.delta);
  if (samples == 0) {
    return Status::InvalidArgument("sample count must be positive");
  }

  // Checkpointable loop state: sample counter, accumulator, RNG. The
  // fingerprint pins everything the sample stream depends on; resuming
  // under different parameters would silently bias the estimate.
  Fingerprint fingerprint;
  fingerprint.Mix("propositional.karp_luby")
      .Mix(options.seed)
      .Mix(samples)
      .Mix(options.estimator == KarpLubyOptions::Estimator::kCanonical
               ? uint64_t{1}
               : uint64_t{0})
      .MixDouble(total_weight);
  MixDnfContent(dnf, prob_true, &fingerprint);
  GovernedLoop loop(options.run_context,
                    {.kind = "propositional.karp_luby.v1",
                     .fingerprint = fingerprint.value(),
                     .end = samples,
                     .fault_site = "propositional.karp_luby.sample",
                     .allow_truncation = options.allow_truncation});

  Rng rng(options.seed);
  PropAssignment assignment(static_cast<size_t>(dnf.variable_count()), 0);
  double sum = 0.0;
  // Payload: samples drawn, the running sum, the RNG.
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r, uint64_t* drawn) {
    QREL_RETURN_IF_ERROR(r.U64(drawn));
    QREL_RETURN_IF_ERROR(r.Double(&sum));
    return r.RngState(&rng);
  }));
  // A prefix of the zero-one sample sequence is still an unbiased
  // estimator, so a truncated run (when the caller opted in) keeps it.
  QREL_RETURN_IF_ERROR(loop.Run(
      [&](SnapshotWriter& w, uint64_t drawn) {
        w.U64(drawn);
        w.Double(sum);
        w.RngState(rng);
      },
      [&](uint64_t) {
        // Pick a term with probability proportional to its weight.
        double u = rng.NextDouble() * total_weight;
        size_t pick =
            static_cast<size_t>(std::lower_bound(cumulative.begin(),
                                                 cumulative.end(), u) -
                                cumulative.begin());
        if (pick >= live_terms.size()) {
          pick = live_terms.size() - 1;  // guard against u == total_weight
        }
        int term_index = live_terms[pick];

        // Draw an assignment conditioned on that term being satisfied: the
        // term's literals are forced, all other variables are independent.
        for (int v = 0; v < dnf.variable_count(); ++v) {
          const Rational& p = prob_true[static_cast<size_t>(v)];
          bool value;
          if (p.denominator().FitsInt64()) {
            uint64_t den = static_cast<uint64_t>(p.denominator().ToInt64());
            uint64_t num = static_cast<uint64_t>(p.numerator().ToInt64());
            value = rng.NextBelow(den) < num;
          } else {
            value = rng.NextBernoulli(p.ToDouble());
          }
          assignment[static_cast<size_t>(v)] = value ? 1 : 0;
        }
        for (const PropLiteral& literal : dnf.term(term_index)) {
          assignment[static_cast<size_t>(literal.variable)] =
              literal.positive ? 1 : 0;
        }

        if (options.estimator == KarpLubyOptions::Estimator::kCanonical) {
          // 1 iff the sampled term is the first satisfied one.
          if (dnf.FirstSatisfiedTerm(assignment) == term_index) {
            sum += 1.0;
          }
        } else {
          int covered = dnf.SatisfiedTermCount(assignment);
          QREL_CHECK_GT(covered, 0);  // the sampled term is satisfied
          sum += 1.0 / covered;
        }
        return Status::Ok();
      }));

  result.samples = loop.next();
  result.truncated = loop.truncated();
  result.estimate = total_weight * sum / static_cast<double>(result.samples);
  // Probabilities cannot exceed 1; the estimator can (slightly).
  result.estimate = std::min(result.estimate, 1.0);
  return result;
}

StatusOr<KarpLubyResult> KarpLubyCount(const Dnf& dnf,
                                       const KarpLubyOptions& options) {
  std::vector<Rational> half(static_cast<size_t>(dnf.variable_count()),
                             Rational::Half());
  StatusOr<KarpLubyResult> result = KarpLubyProbability(dnf, half, options);
  if (!result.ok()) {
    return result;
  }
  double scale = std::ldexp(1.0, dnf.variable_count());
  result->estimate *= scale;
  result->total_term_weight *= scale;
  return result;
}

}  // namespace qrel
