// The traced run's layer replay: after an op's end-to-end call, the same
// input goes once more through the public function of each layer the
// op's rung uses, each call under its own span, with the layer's work
// count. Spans under "layer.detail" time one layer's inner unit (a world,
// an evaluation, a fixpoint) and do not count towards coverage.

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "qrel/core/approx.h"
#include "qrel/core/reliability.h"
#include "qrel/datalog/reliability.h"
#include "qrel/lifted/extensional.h"
#include "qrel/logic/classify.h"
#include "qrel/logic/grounding.h"
#include "qrel/logic/normal_form.h"
#include "qrel/logic/parser.h"
#include "qrel/metafinite/reliability.h"
#include "qrel/propositional/karp_luby.h"
#include "qrel/util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Worlds per op on which the inner units are timed.
constexpr int kDetailWorlds = 32;
constexpr int kDetailDatalogWorlds = 8;
constexpr int kSampledWorldDraws = 1000;

bool StartsWith(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

std::vector<qrel::World> SampleWorlds(const qrel::UnreliableDatabase& db,
                                      int count, uint64_t seed) {
  qrel::Rng rng(seed);
  std::vector<qrel::World> worlds;
  for (int i = 0; i < count; ++i) {
    worlds.push_back(db.SampleWorld(&rng));
  }
  return worlds;
}

// CompiledQuery::Eval on every answer tuple of each world.
void TimeEval(const Prepared& p, const std::vector<qrel::World>& worlds,
              std::map<std::string, double>* counts) {
  const qrel::UnreliableDatabase& db = p.engine->database();
  uint64_t evals = 0;
  SpanScope span("logic.eval");
  for (const qrel::World& world : worlds) {
    qrel::WorldView view(db, world);
    qrel::Tuple tuple(static_cast<size_t>(p.compiled->arity()), 0);
    do {
      p.compiled->Eval(view, tuple);
      ++evals;
    } while (qrel::AdvanceTuple(&tuple, db.universe_size()));
  }
  (*counts)["logic.evals"] += static_cast<double>(evals);
}

void TimeWorldEnumeration(const qrel::UnreliableDatabase& db,
                          std::map<std::string, double>* counts) {
  uint64_t worlds = 0;
  SpanScope span("prob.world");
  db.ForEachWorldWhile([&worlds](const qrel::World&, const qrel::Rational&) {
    ++worlds;
    return true;
  });
  (*counts)["prob.worlds_visited"] += static_cast<double>(worlds);
}

void TimeWorldSampling(const qrel::UnreliableDatabase& db, uint64_t seed,
                       std::map<std::string, double>* counts) {
  qrel::Rng rng(seed);
  SpanScope span("prob.sample_world");
  for (int i = 0; i < kSampledWorldDraws; ++i) {
    qrel::World world = db.SampleWorld(&rng);
    (void)world;
  }
  (*counts)["prob.sampled_worlds"] += kSampledWorldDraws;
}

// Fixpoints on the observed database and on sampled worlds, counting
// rule-body enumeration nodes through a RunContext.
void TimeDatalogEval(const Prepared& p, uint64_t seed,
                     std::map<std::string, double>* counts) {
  const qrel::UnreliableDatabase& db = p.engine->database();
  std::vector<qrel::World> worlds =
      SampleWorlds(db, kDetailDatalogWorlds, seed);
  {
    qrel::RunContext ctx;
    SpanScope span("datalog.eval");
    (void)p.datalog->Eval(db.observed(), &ctx);
    (*counts)["datalog.eval_nodes"] += static_cast<double>(ctx.work_spent());
  }
  for (const qrel::World& world : worlds) {
    qrel::WorldView view(db, world);
    qrel::RunContext ctx;
    SpanScope span("datalog.eval");
    (void)p.datalog->Eval(view, &ctx);
    (*counts)["datalog.eval_nodes"] += static_cast<double>(ctx.work_spent());
  }
}

qrel::ApproxOptions ApproxFor(const qrel::EngineOptions& options) {
  qrel::ApproxOptions approx;
  approx.epsilon = options.epsilon;
  approx.delta = options.delta;
  approx.seed = options.seed;
  approx.fixed_samples = options.fixed_samples;
  return approx;
}

// Cor 5.5 for a Boolean query: ground the existential side (Thm 5.4)
// and run Karp-Luby on it with the seed the engine derives for tuple ().
void ReplayKarpLuby(const Prepared& p, const qrel::EngineOptions& options,
                    std::map<std::string, double>* counts) {
  const qrel::UnreliableDatabase& db = p.engine->database();
  if (p.compiled->arity() != 0) {
    return;
  }
  qrel::FormulaPtr target = qrel::IsExistential(p.formula)
                                ? p.formula
                                : qrel::Not(p.formula);
  qrel::StatusOr<qrel::PrenexExistential> prenex =
      qrel::ToPrenexExistential(target);
  if (!prenex.ok()) {
    return;
  }
  qrel::StatusOr<qrel::GroundDnf> ground = qrel::Status::Internal("");
  {
    SpanScope span("logic.ground");
    ground = qrel::GroundExistential(*prenex, db, {});
  }
  if (!ground.ok()) {
    return;
  }
  (*counts)["logic.ground_terms"] += static_cast<double>(ground->terms.size());
  int entries = db.model().entry_count();
  qrel::Dnf dnf(entries);
  std::vector<qrel::Rational> prob_true;
  {
    SpanScope span("propositional.dnf");
    for (const std::vector<qrel::GroundLiteral>& term : ground->terms) {
      std::vector<qrel::PropLiteral> literals;
      for (const qrel::GroundLiteral& literal : term) {
        literals.push_back({literal.entry, literal.positive});
      }
      dnf.AddTerm(std::move(literals));
    }
    dnf.RemoveSubsumedTerms();
    for (int e = 0; e < entries; ++e) {
      prob_true.push_back(db.EntryNuTrue(e));
    }
  }
  qrel::KarpLubyOptions kl;
  kl.epsilon = options.epsilon;
  kl.delta = options.delta;
  kl.seed = qrel::Rng(options.seed).NextUint64();
  kl.fixed_samples = options.fixed_samples;
  SpanScope span("propositional.kl");
  qrel::StatusOr<qrel::KarpLubyResult> estimate =
      qrel::KarpLubyProbability(dnf, prob_true, kl);
  if (estimate.ok()) {
    (*counts)["propositional.kl_samples"] +=
        static_cast<double>(estimate->samples);
    (*counts)["propositional.kl_terms"] += dnf.term_count();
  }
}

void ReplayQuery(const Prepared& p, const std::string& rung,
                 const qrel::EngineOptions& options,
                 std::map<std::string, double>* counts) {
  const qrel::UnreliableDatabase& db = p.engine->database();
  {
    SpanScope span("logic.parse");
    (void)qrel::ParseFormula(p.input.text);
  }
  {
    SpanScope span("engine.explain");
    (void)p.engine->Explain(p.formula, options);
  }
  if (p.compiled->arity() <= 2) {
    SpanScope span("logic.answers");
    (void)p.compiled->AnswerSet(db.observed());
  }
  if (StartsWith(rung, "Thm 4.2 exact world enumeration")) {
    {
      SpanScope span("core.exact");
      qrel::StatusOr<qrel::ReliabilityReport> exact =
          qrel::ExactReliability(p.formula, db);
      if (exact.ok()) {
        (*counts)["core.worlds"] += static_cast<double>(exact->work_units);
      }
    }
    SpanScope detail("layer.detail");
    TimeWorldEnumeration(db, counts);
    TimeEval(p, SampleWorlds(db, kDetailWorlds, options.seed), counts);
  } else if (StartsWith(rung, "safe-plan extensional evaluation")) {
    SpanScope span("lifted.extensional");
    qrel::StatusOr<qrel::ReliabilityReport> exact =
        qrel::ExtensionalReliability(p.formula, db);
    if (exact.ok()) {
      (*counts)["lifted.plan_ops"] += static_cast<double>(exact->work_units);
    }
  } else if (StartsWith(rung, "Cor 5.5")) {
    ReplayKarpLuby(p, options, counts);
  } else if (StartsWith(rung, "Thm 5.12 padded estimator")) {
    {
      SpanScope span("core.padded");
      qrel::StatusOr<qrel::ApproxResult> estimate =
          qrel::PaddedReliabilityApprox(p.formula, db, ApproxFor(options));
      if (estimate.ok()) {
        (*counts)["core.padded_samples"] +=
            static_cast<double>(estimate->samples);
      }
    }
    SpanScope detail("layer.detail");
    TimeWorldSampling(db, options.seed, counts);
    TimeEval(p, SampleWorlds(db, kDetailWorlds, options.seed), counts);
  }
}

void ReplayDatalog(const Prepared& p, const std::string& rung,
                   const qrel::EngineOptions& options,
                   std::map<std::string, double>* counts) {
  const qrel::UnreliableDatabase& db = p.engine->database();
  {
    SpanScope span("engine.explain");
    (void)p.engine->ExplainDatalog(p.input.text, p.input.predicate, options);
  }
  if (StartsWith(rung, "Thm 4.2 exact world enumeration")) {
    SpanScope span("datalog.exact");
    qrel::StatusOr<qrel::ReliabilityReport> exact =
        qrel::ExactDatalogReliability(*p.datalog, p.input.predicate, db);
    if (exact.ok()) {
      (*counts)["datalog.worlds"] += static_cast<double>(exact->work_units);
    }
  } else if (StartsWith(rung, "Thm 5.12 padded estimator")) {
    SpanScope span("datalog.padded");
    qrel::StatusOr<qrel::ApproxResult> estimate =
        qrel::PaddedDatalogReliability(*p.datalog, p.input.predicate, db,
                                       ApproxFor(options));
    if (estimate.ok()) {
      (*counts)["datalog.padded_samples"] +=
          static_cast<double>(estimate->samples);
    }
  }
  SpanScope detail("layer.detail");
  TimeDatalogEval(p, options.seed, counts);
}

}  // namespace

void ReplayLayers(const Prepared& p, const Outcome& outcome, uint64_t seed,
                  std::map<std::string, double>* counts) {
  if (!outcome.status.ok()) {
    return;
  }
  qrel::EngineOptions options = p.input.options;
  options.seed = seed;
  const std::string rung = Rung(outcome.method);
  switch (p.input.api) {
    case Api::kQuery:
      ReplayQuery(p, rung, options, counts);
      break;
    case Api::kDatalog:
      ReplayDatalog(p, rung, options, counts);
      break;
    case Api::kMetafinite: {
      SpanScope span("metafinite.mc");
      qrel::StatusOr<qrel::FunctionalMcResult> mc =
          qrel::McFunctionalReliability(p.term, *p.functional,
                                        p.input.mc_samples, seed);
      if (mc.ok()) {
        (*counts)["metafinite.mc_samples"] += static_cast<double>(mc->samples);
      }
      break;
    }
  }
}

void DeriveLayerMetrics(const std::vector<Span>& spans,
                        const std::map<std::string, double>& counts,
                        std::map<std::string, double>* layer) {
  std::map<std::string, SpanTotals> totals = Tracer::Totals(spans);
  auto count = [&](const char* key) {
    auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
  };
  auto total_ns = [&](const char* span) {
    auto it = totals.find(span);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  auto per_unit_ns = [&](const char* span, const char* key) {
    double units = count(key);
    return units > 0.0 ? total_ns(span) / units : 0.0;
  };
  auto mean_us = [&](const char* span) {
    auto it = totals.find(span);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : total_ns(span) / static_cast<double>(it->second.count) / 1e3;
  };
  std::map<std::string, double>& m = *layer;
  m["prob.world_ns"] = per_unit_ns("prob.world", "prob.worlds_visited");
  m["core.exact_ns_per_world"] = per_unit_ns("core.exact", "core.worlds");
  m["core.worlds"] = count("core.worlds");
  m["logic.eval_ns"] = per_unit_ns("logic.eval", "logic.evals");
  m["logic.evals"] = count("logic.evals");
  m["logic.ground_us"] = mean_us("logic.ground");
  m["logic.ground_ns_per_term"] =
      per_unit_ns("logic.ground", "logic.ground_terms");
  m["logic.ground_terms"] = count("logic.ground_terms");
  m["propositional.kl_ns_per_sample"] =
      per_unit_ns("propositional.kl", "propositional.kl_samples");
  m["propositional.kl_samples"] = count("propositional.kl_samples");
  m["propositional.kl_terms"] = count("propositional.kl_terms");
  m["core.padded_ns_per_sample"] =
      per_unit_ns("core.padded", "core.padded_samples");
  m["core.padded_samples"] = count("core.padded_samples");
  m["prob.sample_world_ns"] =
      per_unit_ns("prob.sample_world", "prob.sampled_worlds");
  m["datalog.eval_us"] = mean_us("datalog.eval");
  m["datalog.eval_nodes"] = count("datalog.eval_nodes");
  m["datalog.exact_ns_per_world"] =
      per_unit_ns("datalog.exact", "datalog.worlds");
  m["datalog.padded_ns_per_sample"] =
      per_unit_ns("datalog.padded", "datalog.padded_samples");
  m["lifted.extensional_us"] = mean_us("lifted.extensional");
  m["lifted.ns_per_plan_op"] =
      per_unit_ns("lifted.extensional", "lifted.plan_ops");
  m["lifted.plan_ops"] = count("lifted.plan_ops");
  m["metafinite.mc_ns_per_sample"] =
      per_unit_ns("metafinite.mc", "metafinite.mc_samples");
  m["engine.explain_us"] = mean_us("engine.explain");
  m["logic.parse_us"] = mean_us("logic.parse");

  // Coverage: per "op" span, the direct layer calls against its e2e call.
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    children[span.parent].push_back(&span);
  }
  double e2e_ns = 0.0;
  double covered_ns = 0.0;
  double engine_e2e_ns = 0.0;
  double engine_covered_ns = 0.0;
  for (const Span& span : spans) {
    if (std::string(span.name) != "op") {
      continue;
    }
    double e2e = 0.0;
    double covered = 0.0;
    bool engine = false;
    for (const Span* child : children[span.id]) {
      std::string name = child->name;
      if (name == "e2e") {
        e2e += static_cast<double>(child->duration_ns());
      } else if (name != "layer.detail") {
        covered += static_cast<double>(child->duration_ns());
        engine = engine || name == "engine.explain";
      }
    }
    e2e_ns += e2e;
    covered_ns += covered;
    if (engine) {
      engine_e2e_ns += e2e;
      engine_covered_ns += covered;
    }
  }
  m["trace.coverage"] = e2e_ns > 0.0 ? covered_ns / e2e_ns : 0.0;
  m["engine.run_overhead_frac"] =
      engine_e2e_ns > 0.0 ? 1.0 - engine_covered_ns / engine_e2e_ns : 0.0;
}

void AddPerLayerMetrics(const std::map<std::string, double>& layer,
                        Result* result) {
  static const char* const kPerLayer[][2] = {
      {"prob.world_ns", "ns"},
      {"core.exact_ns_per_world", "ns"},
      {"core.worlds", "count"},
      {"logic.eval_ns", "ns"},
      {"logic.evals", "count"},
      {"logic.ground_us", "us"},
      {"logic.ground_ns_per_term", "ns"},
      {"logic.ground_terms", "count"},
      {"propositional.kl_ns_per_sample", "ns"},
      {"propositional.kl_samples", "count"},
      {"propositional.kl_terms", "count"},
      {"core.padded_ns_per_sample", "ns"},
      {"core.padded_samples", "count"},
      {"prob.sample_world_ns", "ns"},
      {"datalog.eval_us", "us"},
      {"datalog.eval_nodes", "count"},
      {"datalog.exact_ns_per_world", "ns"},
      {"datalog.padded_ns_per_sample", "ns"},
      {"lifted.extensional_us", "us"},
      {"lifted.ns_per_plan_op", "ns"},
      {"lifted.plan_ops", "count"},
      {"metafinite.mc_ns_per_sample", "ns"},
      {"engine.explain_us", "us"},
      {"logic.parse_us", "us"},
      {"engine.run_overhead_frac", "ratio"},
      {"engine.cpu_ms_per_op", "ms"},
      {"net.parse_request_us", "us"},
      {"net.serialize_response_us", "us"},
      {"net.handle_hit_ms", "ms"},
      {"net.handle_miss_ms", "ms"},
      {"net.reload_ms", "ms"},
      {"net.cache_hit_ratio", "ratio"},
      {"net.single_flight_shared", "count"},
      {"net.shed", "count"},
      {"net.wait_ms_est", "ms"},
      {"net.replay_cache_hits", "count"},
      {"net.replay_cache_misses", "count"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
      {"failed_frac", "ratio"},
      {"exact_frac", "ratio"},
  };
  for (const auto& [name, unit] : kPerLayer) {
    auto it = layer.find(name);
    result->Add(name, it == layer.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
