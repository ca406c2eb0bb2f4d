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

// PaddedSampleBound before the conversion to an integer count, so a plan
// past 2^64 can be refused instead of overflowing.
double PaddedSampleCount(double xi, double epsilon, double delta) {
  return std::ceil(9.0 / (2.0 * xi * epsilon * epsilon) *
                   std::log(1.0 / delta));
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
  double t = PaddedSampleCount(xi, epsilon, delta);
  QREL_CHECK(t < 0x1p64);
  return static_cast<uint64_t>(t);
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

  const PossibleFacts facts(db, compiled->paths());
  const IndexedWorld observed_world(facts);
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
        bool observed = compiled->Eval(observed_world, assignment);
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

StatusOr<ApproxResult> PaddedEstimate(const PaddedQuery& query,
                                      const UnreliableDatabase& db,
                                      const ApproxOptions& options) {
  QREL_RETURN_IF_ERROR(ValidateApproxOptions(options));
  int n = db.universe_size();
  int k = query.arity;
  StatusOr<uint64_t> tuple_count = TupleCount(n, k);
  if (!tuple_count.ok()) {
    return tuple_count.status();
  }
  const uint64_t count = *tuple_count;
  const double tuples = static_cast<double>(count);
  double per_delta = options.delta / tuples;
  // Lemma 5.11 is applied with ε/2 (the proof's final step).
  double bound =
      PaddedSampleCount(options.xi, options.epsilon / tuples / 2.0, per_delta);
  if (!options.fixed_samples.has_value() && !(bound < 0x1p64)) {
    return Status::OutOfRange("padded sample plan exceeds 2^64 samples");
  }
  uint64_t planned = options.fixed_samples.has_value()
                         ? *options.fixed_samples
                         : static_cast<uint64_t>(bound);

  // Claimed before `observed` runs, so a checkpointed evaluation inside it
  // (a Datalog fixpoint) stays inert; granularity is one sample.
  Fingerprint fingerprint;
  fingerprint.Mix(query.kind)
      .Mix(query.identity)
      .Mix(options.seed)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .MixDouble(options.xi)
      .Mix(planned)
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(db.ContentFingerprint());
  GovernedLoop loop(options.run_context,
                    {.kind = query.kind,
                     .fingerprint = fingerprint.value(),
                     .end = planned,
                     .fault_site = query.fault_site,
                     .allow_truncation = options.allow_truncation});

  std::vector<bool> observed(count);
  QREL_RETURN_IF_ERROR(query.observed(&observed));

  const double xi = options.xi;
  Rng rng(options.seed);
  std::vector<uint64_t> hits(count, 0);
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

  // Per-sample buffers, reused so that a sample allocates only its world.
  Tuple tuple(static_cast<size_t>(k), 0);
  std::vector<uint64_t> rc_hits;     // tuples with Rd ∧ Rc: X = 1
  std::vector<uint64_t> needed;      // tuples with Rd ∧ ¬Rc: X = ψ
  std::vector<Tuple> needed_tuples;  // their tuples in the first
                                     // needed.size() slots
  std::vector<bool> holds;
  QREL_RETURN_IF_ERROR(loop.Run(
      [&](SnapshotWriter& w, uint64_t drawn) {
        w.U64(drawn);
        w.U32(static_cast<uint32_t>(hits.size()));
        for (uint64_t h : hits) {
          w.U64(h);
        }
        w.RngState(rng);
      },
      [&](uint64_t) -> Status {
        // X_i = ψ'(𝔅') with ψ' = (ψ ∨ Rc) ∧ Rd over the padded database:
        // the fresh atoms Rc, Rd are virtual — each an independent
        // Bernoulli(ξ) draw, since R is empty in 𝔄' and μ'(Rc) = μ'(Rd) = ξ.
        // ψ' is false whatever ψ is unless Rd holds, and true when Rc does.
        rc_hits.clear();
        needed.clear();
        std::fill(tuple.begin(), tuple.end(), 0);
        for (uint64_t i = 0; i < count; ++i) {
          if (i > 0) {
            AdvanceTuple(&tuple, n);
          }
          if (!rng.NextBernoulli(xi)) {
            continue;
          }
          if (rng.NextBernoulli(xi)) {
            rc_hits.push_back(i);
            continue;
          }
          if (needed.size() == needed_tuples.size()) {
            needed_tuples.push_back(tuple);
          } else {
            needed_tuples[needed.size()] = tuple;
          }
          needed.push_back(i);
        }
        if (!needed.empty()) {
          World world = db.SampleWorld(&rng);
          holds.assign(needed.size(), false);
          QREL_RETURN_IF_ERROR(query.holds(
              world,
              std::span<const Tuple>(needed_tuples.data(), needed.size()),
              &holds));
          for (size_t j = 0; j < needed.size(); ++j) {
            if (holds[j]) {
              ++hits[needed[j]];
            }
          }
        }
        // Folded in only now: a sample whose world evaluation tripped the
        // budget leaves no trace, so a truncated run is a clean prefix.
        for (uint64_t i : rc_hits) {
          ++hits[i];
        }
        return Status::Ok();
      }));
  uint64_t drawn = loop.next();

  // Invert p = ν(ψ)·(ξ-ξ²) + ξ² (equation (3) in the proof) per tuple and
  // fold its error in.
  double expected_error = 0.0;
  for (uint64_t i = 0; i < count; ++i) {
    double x_bar = static_cast<double>(hits[i]) / static_cast<double>(drawn);
    double nu = std::clamp((x_bar - xi * xi) / (xi - xi * xi), 0.0, 1.0);
    expected_error += observed[i] ? 1.0 - nu : nu;
  }
  ApproxResult result;
  result.samples = drawn;
  result.truncated = loop.truncated();
  if (static_cast<double>(drawn) < bound) {
    // A fixed or truncated plan below the theorem bound: report the
    // guarantee the drawn samples buy, scaled back up through the
    // per-tuple split.
    result.achieved_epsilon =
        PaddedAchievedEpsilon(xi, drawn, per_delta) * tuples;
  }
  result.estimate = std::clamp(1.0 - expected_error / tuples, 0.0, 1.0);
  result.method = query.method;
  return result;
}

StatusOr<ApproxResult> PaddedReliabilityApprox(const FormulaPtr& query,
                                               const UnreliableDatabase& db,
                                               const ApproxOptions& options) {
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  const int n = db.universe_size();
  // One index for the observed database and every sampled world.
  const PossibleFacts facts(db, compiled->paths());
  PaddedQuery padded;
  padded.arity = compiled->arity();
  padded.observed = [&](std::vector<bool>* observed) {
    const IndexedWorld world(facts);
    Tuple tuple(static_cast<size_t>(padded.arity), 0);
    for (size_t i = 0; i < observed->size(); ++i, AdvanceTuple(&tuple, n)) {
      (*observed)[i] = compiled->Eval(world, tuple);
    }
    return Status::Ok();
  };
  padded.holds = [&](const World& world, std::span<const Tuple> needed,
                     std::vector<bool>* holds) {
    const IndexedWorld indexed(facts, &world);
    for (size_t j = 0; j < needed.size(); ++j) {
      (*holds)[j] = compiled->Eval(indexed, needed[j]);
    }
    return Status::Ok();
  };
  padded.kind = "core.padded.v2";
  padded.fault_site = "core.approx.padded_sample";
  padded.identity = Fingerprint().Mix(query->ToString()).value();
  padded.method =
      "Thm 5.12 padded estimator (xi=" + std::to_string(options.xi) + ")";
  return PaddedEstimate(padded, db, options);
}

}  // namespace qrel
