#include "qrel/core/approx.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qrel/logic/classify.h"
#include "qrel/logic/eval.h"
#include "qrel/logic/grounding.h"
#include "qrel/logic/normal_form.h"
#include "qrel/propositional/dnf.h"
#include "qrel/propositional/karp_luby.h"
#include "qrel/util/check.h"
#include "qrel/util/governed_loop.h"

namespace qrel {

namespace {

// Number of tuples n^k, with an overflow/feasibility guard.
StatusOr<uint64_t> TupleCount(int n, int k) {
  uint64_t count = 1;
  for (int i = 0; i < k; ++i) {
    count *= static_cast<uint64_t>(n);
    if (count > (uint64_t{1} << 22)) {
      return Status::OutOfRange(
          "query arity times universe size yields too many tuples");
    }
  }
  return count;
}

// Reads a resumed assignment tuple and its rank in AdvanceTuple order
// (last position fastest), i.e. the tuple loop's index. A tuple of the
// wrong arity or with an element outside the universe is a forged payload.
Status ReadTuple(SnapshotReader& reader, int n, int k, Tuple* tuple,
                 uint64_t* rank) {
  QREL_RETURN_IF_ERROR(reader.TupleVal(tuple));
  if (tuple->size() != static_cast<size_t>(k)) {
    return Status::DataLoss("snapshot tuple arity mismatch");
  }
  *rank = 0;
  for (Element element : *tuple) {
    if (element < 0 || element >= n) {
      return Status::DataLoss("snapshot tuple element out of range");
    }
    *rank = *rank * static_cast<uint64_t>(n) + static_cast<uint64_t>(element);
  }
  return Status::Ok();
}

// One FPTRAS estimate of ν(ψ(ā)) from an already-computed prenex form.
StatusOr<ApproxResult> FptrasFromPrenex(const PrenexExistential& prenex,
                                        const UnreliableDatabase& db,
                                        const Tuple& assignment,
                                        const ApproxOptions& options) {
  StatusOr<GroundDnf> ground = GroundExistential(
      prenex, db, assignment, size_t{1} << 22, options.run_context);
  if (!ground.ok()) {
    return ground.status();
  }
  ApproxResult result;
  if (ground->certainly_true) {
    result.estimate = 1.0;
    result.method = "Thm 5.4 grounding: certainly true";
    return result;
  }
  if (ground->terms.empty()) {
    result.estimate = 0.0;
    result.method = "Thm 5.4 grounding: certainly false";
    return result;
  }

  int entries = db.model().entry_count();
  Dnf dnf(entries);
  for (const std::vector<GroundLiteral>& term : ground->terms) {
    std::vector<PropLiteral> literals;
    literals.reserve(term.size());
    for (const GroundLiteral& literal : term) {
      literals.push_back({literal.entry, literal.positive});
    }
    dnf.AddTerm(std::move(literals));
  }
  // Subsumption pruning shrinks m and with it the Karp-Luby sample bound,
  // without changing Pr[ψ''].
  dnf.RemoveSubsumedTerms();
  std::vector<Rational> prob_true;
  prob_true.reserve(static_cast<size_t>(entries));
  for (int e = 0; e < entries; ++e) {
    prob_true.push_back(db.EntryNuTrue(e));
  }

  KarpLubyOptions kl;
  kl.epsilon = options.epsilon;
  kl.delta = options.delta;
  kl.seed = options.seed;
  kl.fixed_samples = options.fixed_samples;
  kl.run_context = options.run_context;
  kl.allow_truncation = options.allow_truncation;
  StatusOr<KarpLubyResult> estimate = KarpLubyProbability(dnf, prob_true, kl);
  if (!estimate.ok()) {
    return estimate.status();
  }
  result.estimate = estimate->estimate;
  result.samples = estimate->samples;
  result.truncated = estimate->truncated;
  if (estimate->samples > 0 &&
      estimate->samples < KarpLubySampleBound(dnf.term_count(),
                                              options.epsilon,
                                              options.delta)) {
    result.achieved_epsilon = KarpLubyAchievedEpsilon(
        dnf.term_count(), estimate->samples, options.delta);
  }
  result.method = "Thm 5.4 grounding (" + std::to_string(dnf.term_count()) +
                  " terms, width " + std::to_string(dnf.Width()) +
                  ") + Karp-Luby";
  return result;
}

}  // namespace

Status ValidateApproxOptions(const ApproxOptions& options) {
  if (options.epsilon <= 0.0 || options.epsilon >= 1.0 ||
      options.delta <= 0.0 || options.delta >= 1.0) {
    return Status::InvalidArgument("epsilon and delta must lie in (0, 1)");
  }
  if (options.xi <= 0.0 || options.xi >= 0.5) {
    return Status::InvalidArgument("xi must lie in (0, 1/2)");
  }
  if (options.fixed_samples.has_value() && *options.fixed_samples == 0) {
    return Status::InvalidArgument("fixed_samples must be positive");
  }
  return Status::Ok();
}

uint64_t PaddedSampleBound(double xi, double epsilon, double delta) {
  double t = 9.0 / (2.0 * xi * epsilon * epsilon) * std::log(1.0 / delta);
  QREL_CHECK(std::isfinite(t));
  return static_cast<uint64_t>(std::ceil(t));
}

double PaddedAchievedEpsilon(double xi, uint64_t samples, double delta) {
  QREL_CHECK(samples > 0);
  // Solve t = 9/(2ξε²)·ln(1/δ) for ε, then double it to undo the proof's
  // ε/2 instantiation of Lemma 5.11.
  return 2.0 * std::sqrt(9.0 * std::log(1.0 / delta) /
                         (2.0 * xi * static_cast<double>(samples)));
}

StatusOr<ApproxResult> ExistentialProbabilityFptras(
    const FormulaPtr& query, const UnreliableDatabase& db,
    const Tuple& assignment, const ApproxOptions& options) {
  QREL_RETURN_IF_ERROR(ValidateApproxOptions(options));
  StatusOr<PrenexExistential> prenex = ToPrenexExistential(query);
  if (!prenex.ok()) {
    return prenex.status();
  }
  if (assignment.size() != prenex->free_variables.size()) {
    return Status::InvalidArgument("assignment arity mismatch");
  }
  return FptrasFromPrenex(*prenex, db, assignment, options);
}

StatusOr<ApproxResult> ReliabilityAbsoluteApprox(
    const FormulaPtr& query, const UnreliableDatabase& db,
    const ApproxOptions& options) {
  QREL_RETURN_IF_ERROR(ValidateApproxOptions(options));

  // Work with an existential formula: ψ itself, or ¬ψ for universal ψ.
  bool universal = false;
  FormulaPtr target = query;
  if (!IsExistential(query)) {
    if (!IsUniversal(query)) {
      return Status::InvalidArgument(
          "Corollary 5.5 applies to existential or universal queries only; "
          "use PaddedReliabilityApprox for general queries");
    }
    universal = true;
    target = Not(query);
  }
  StatusOr<PrenexExistential> prenex = ToPrenexExistential(target);
  if (!prenex.ok()) {
    return prenex.status();
  }

  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  int n = db.universe_size();
  int k = compiled->arity();
  StatusOr<uint64_t> tuple_count = TupleCount(n, k);
  if (!tuple_count.ok()) {
    return tuple_count.status();
  }

  // Per-tuple budgets from the proof of Corollary 5.5: error ε/n^k with
  // failure probability δ/n^k for each of the n^k Boolean estimates.
  ApproxOptions per_tuple = options;
  per_tuple.epsilon = options.epsilon / static_cast<double>(*tuple_count);
  per_tuple.delta = options.delta / static_cast<double>(*tuple_count);
  if (per_tuple.epsilon >= 1.0) per_tuple.epsilon = 0.999;
  // A truncated sub-estimate is only usable when it is the whole answer;
  // with several tuples a partially covered tuple space is not.
  per_tuple.allow_truncation = options.allow_truncation && *tuple_count == 1;

  // Claimed before the tuple loop so the Karp-Luby loop inside
  // FptrasFromPrenex stays inert: checkpoint granularity is one finished
  // tuple, whose state (plus the seeder) determines everything after it.
  Fingerprint fingerprint;
  fingerprint.Mix("core.absolute_approx")
      .Mix(options.seed)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .MixDouble(options.epsilon)
      .MixDouble(options.delta)
      .Mix(options.fixed_samples.value_or(0))
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(query->ToString())
      .Mix(db.ContentFingerprint());
  // A Boolean query has exactly one tuple, so this loop carries no state
  // worth snapshotting; leaving the checkpointer unclaimed lets the
  // Karp-Luby sampling rung below claim it and checkpoint per sample —
  // that is where a long run spends its time, and the only place a drain
  // cancellation or SIGINT can flush usable progress. With more than one
  // tuple the per-tuple accumulators must own the snapshot.
  GovernedLoop loop(options.run_context,
                    {.kind = "core.absolute_approx.v1",
                     .fingerprint = fingerprint.value(),
                     .end = *tuple_count,
                     .fault_site = "core.approx.tuple",
                     .checkpoint = *tuple_count > 1});

  Rng seeder(options.seed);
  double expected_error = 0.0;
  uint64_t samples = 0;
  bool truncated = false;
  double worst_sub_epsilon = 0.0;  // worst per-tuple achieved (relative) ε
  Tuple assignment(static_cast<size_t>(k), 0);
  // Payload: the next tuple, the accumulators, the per-tuple seeder.
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r, uint64_t* next) {
    QREL_RETURN_IF_ERROR(ReadTuple(r, n, k, &assignment, next));
    QREL_RETURN_IF_ERROR(r.Double(&expected_error));
    QREL_RETURN_IF_ERROR(r.U64(&samples));
    uint8_t truncated_byte = 0;
    QREL_RETURN_IF_ERROR(r.U8(&truncated_byte));
    truncated = truncated_byte != 0;
    QREL_RETURN_IF_ERROR(r.Double(&worst_sub_epsilon));
    return r.RngState(&seeder);
  }));
  QREL_RETURN_IF_ERROR(loop.Run(
      [&](SnapshotWriter& w, uint64_t) {
        w.TupleVal(assignment);
        w.Double(expected_error);
        w.U64(samples);
        w.U8(truncated ? 1 : 0);
        w.Double(worst_sub_epsilon);
        w.RngState(seeder);
      },
      [&](uint64_t) {
        per_tuple.seed = seeder.NextUint64();
        StatusOr<ApproxResult> nu =
            FptrasFromPrenex(*prenex, db, assignment, per_tuple);
        if (!nu.ok()) {
          return nu.status();
        }
        samples += nu->samples;
        truncated = truncated || nu->truncated;
        if (nu->achieved_epsilon.has_value()) {
          worst_sub_epsilon =
              std::max(worst_sub_epsilon, *nu->achieved_epsilon);
        }
        bool observed = compiled->Eval(db.observed(), assignment);
        // nu estimates Pr[target(ā)]; translate into Pr[ψ(ā) wrong].
        double prob_true =
            universal ? 1.0 - nu->estimate : nu->estimate;  // Pr[𝔅 ⊨ ψ(ā)]
        expected_error += observed ? 1.0 - prob_true : prob_true;
        AdvanceTuple(&assignment, n);
        return Status::Ok();
      }));

  ApproxResult result;
  result.samples = samples;
  result.truncated = truncated;
  if (worst_sub_epsilon > 0.0) {
    // Invert the Corollary 5.5 budget split (ε' = ε/n^k per tuple): the
    // guarantee actually delivered on R is n^k times the worst per-tuple
    // achieved error.
    result.achieved_epsilon =
        worst_sub_epsilon * static_cast<double>(*tuple_count);
  }
  result.estimate =
      1.0 - expected_error / static_cast<double>(*tuple_count);
  result.estimate = std::clamp(result.estimate, 0.0, 1.0);
  result.method = universal
                      ? "Cor 5.5 (universal via FPTRAS on negation)"
                      : "Cor 5.5 (existential via Thm 5.4 FPTRAS)";
  return result;
}

StatusOr<ApproxResult> PaddedReliabilityApprox(const FormulaPtr& query,
                                               const UnreliableDatabase& db,
                                               const ApproxOptions& options) {
  QREL_RETURN_IF_ERROR(ValidateApproxOptions(options));
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  int n = db.universe_size();
  int k = compiled->arity();
  StatusOr<uint64_t> tuple_count = TupleCount(n, k);
  if (!tuple_count.ok()) {
    return tuple_count.status();
  }

  double per_epsilon = options.epsilon / static_cast<double>(*tuple_count);
  double per_delta = options.delta / static_cast<double>(*tuple_count);
  // Lemma 5.11 is applied with ε/2 (the proof's final step).
  uint64_t per_samples =
      options.fixed_samples.has_value()
          ? *options.fixed_samples
          : PaddedSampleBound(options.xi, per_epsilon / 2.0, per_delta);
  if (per_samples > UINT64_MAX / *tuple_count) {
    return Status::OutOfRange("padded sample plan exceeds 2^64 samples");
  }

  Fingerprint fingerprint;
  fingerprint.Mix("core.padded")
      .Mix(options.seed)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .MixDouble(options.xi)
      .Mix(per_samples)
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(query->ToString())
      .Mix(db.ContentFingerprint());
  // One iteration per (tuple, sample) pair, tuple-major: iteration i draws
  // sample i mod per_samples of tuple number i / per_samples.
  GovernedLoop loop(options.run_context,
                    {.kind = "core.padded.v1",
                     .fingerprint = fingerprint.value(),
                     .end = *tuple_count * per_samples,
                     .fault_site = "core.approx.padded_sample"});

  const double xi = options.xi;
  Rng rng(options.seed);
  double expected_error = 0.0;
  uint64_t samples = 0;
  Tuple assignment(static_cast<size_t>(k), 0);
  uint64_t s = 0;     // sample index within the current tuple
  uint64_t hits = 0;  // the current tuple's hits so far
  // Payload: the current tuple and its sample index and hits, then the
  // accumulators over finished tuples, then the RNG.
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r, uint64_t* next) {
    uint64_t rank = 0;
    QREL_RETURN_IF_ERROR(ReadTuple(r, n, k, &assignment, &rank));
    QREL_RETURN_IF_ERROR(r.U64(&s));
    if (s >= per_samples) {
      return Status::DataLoss("snapshot sample index out of range");
    }
    QREL_RETURN_IF_ERROR(r.U64(&hits));
    QREL_RETURN_IF_ERROR(r.U64(&samples));
    QREL_RETURN_IF_ERROR(r.Double(&expected_error));
    *next = rank * per_samples + s;
    return r.RngState(&rng);
  }));
  QREL_RETURN_IF_ERROR(loop.Run(
      [&](SnapshotWriter& w, uint64_t) {
        w.TupleVal(assignment);
        w.U64(s);
        w.U64(hits);
        w.U64(samples);
        w.Double(expected_error);
        w.RngState(rng);
      },
      [&](uint64_t) {
        // X_i = ψ'(𝔅') with ψ' = (ψ ∨ Rc) ∧ Rd over the padded database:
        // the two fresh atoms Rc, Rd are virtual — each is an independent
        // Bernoulli(ξ) draw, since R is empty in 𝔄' and μ'(Rc) = μ'(Rd) = ξ.
        // ψ' is false whatever ψ evaluates to unless Rd holds.
        if (rng.NextBernoulli(xi)) {
          bool psi_true = rng.NextBernoulli(xi);  // Rc
          if (!psi_true) {
            World world = db.SampleWorld(&rng);
            WorldView view(db, world);
            psi_true = compiled->Eval(view, assignment);
          }
          if (psi_true) {
            ++hits;
          }
        }
        if (++s < per_samples) {
          return Status::Ok();
        }
        // Tuple finished: invert p = ν(ψ)·(ξ-ξ²) + ξ² (equation (3) in
        // the proof) and fold its error in.
        samples += per_samples;
        double x_bar =
            static_cast<double>(hits) / static_cast<double>(per_samples);
        double nu = std::clamp((x_bar - xi * xi) / (xi - xi * xi), 0.0, 1.0);
        bool observed = compiled->Eval(db.observed(), assignment);
        expected_error += observed ? 1.0 - nu : nu;
        s = 0;
        hits = 0;
        AdvanceTuple(&assignment, n);
        return Status::Ok();
      }));

  ApproxResult result;
  result.samples = samples;
  if (per_samples <
      PaddedSampleBound(options.xi, per_epsilon / 2.0, per_delta)) {
    // fixed_samples below the theorem bound: report the guarantee the
    // budget actually buys, scaled back up through the per-tuple split.
    result.achieved_epsilon =
        PaddedAchievedEpsilon(options.xi, per_samples, per_delta) *
        static_cast<double>(*tuple_count);
  }
  result.estimate =
      1.0 - expected_error / static_cast<double>(*tuple_count);
  result.estimate = std::clamp(result.estimate, 0.0, 1.0);
  result.method = "Thm 5.12 padded estimator (xi=" + std::to_string(xi) + ")";
  return result;
}

}  // namespace qrel
