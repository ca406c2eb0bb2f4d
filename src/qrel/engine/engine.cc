#include "qrel/engine/engine.h"

#include <cmath>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "qrel/datalog/eval.h"
#include "qrel/lifted/extensional.h"
#include "qrel/logic/eval.h"
#include "qrel/logic/parser.h"
#include "qrel/util/check.h"
#include "qrel/util/fault_injection.h"

namespace qrel {

namespace {

// n^k as a double for error reporting (saturates; callers only display it).
double TupleSpace(int n, int k) {
  return std::pow(static_cast<double>(n), static_cast<double>(k));
}

// Whether a rung failure should send the run down the ladder instead of
// out to the caller: only deadline/work trips, only when degradation is
// enabled and no exact answer was explicitly demanded. Cancellation is a
// caller decision, never an engine one.
bool ShouldDegrade(const Status& status, const EngineOptions& options) {
  return options.degrade_on_budget && !options.force_exact &&
         IsBudgetStatusCode(status.code()) &&
         status.code() != StatusCode::kCancelled;
}

std::string DegradationReason(const Status& status) {
  return std::string(StatusCodeName(status.code())) + ": " + status.message();
}

// Whether 2^#uncertain fits the exact-enumeration budget.
bool ExactFeasible(size_t uncertain, const EngineOptions& options) {
  return uncertain < 63 &&
         (uint64_t{1} << uncertain) <= options.max_exact_worlds;
}

// The randomized rung for a class. core/approx.cc covers every class
// below general first-order with Cor 5.5, taking the dual (negation)
// branch exactly when the class is universal.
Rung SamplingRung(QueryClass query_class) {
  return query_class == QueryClass::kGeneralFirstOrder ? Rung::kPadded
                                                       : Rung::kCor55;
}

// The single rung-selection function, shared between Explain (which
// reports its result as the plan) and both Run front ends (which execute
// it). Datalog plans as general first-order.
Rung PlanRung(QueryClass query_class, StaticTruth static_truth,
              size_t uncertain, const EngineOptions& options) {
  if (static_truth != StaticTruth::kUnknown) {
    return Rung::kStaticClosedForm;
  }
  if (!options.force_approximate) {
    if (query_class == QueryClass::kQuantifierFree) {
      return Rung::kQuantifierFree;
    }
    // Like the quantifier-free rung, the extensional rung is exact, so it
    // wins over Thm 4.2 even under force_exact.
    if (query_class == QueryClass::kSafeConjunctive) {
      return Rung::kExtensional;
    }
    if (ExactFeasible(uncertain, options) || options.force_exact) {
      return Rung::kExactWorlds;
    }
  }
  return SamplingRung(query_class);
}

// The planned-method string of a rung: a prefix of the
// EngineReport::method the rung writes.
std::string RungMethod(Rung rung, QueryClass query_class,
                       StaticTruth static_truth, bool datalog) {
  switch (rung) {
    case Rung::kStaticClosedForm:
      return std::string("static analysis closed form (query simplifies to ") +
             (static_truth == StaticTruth::kTautology ? "true" : "false") +
             ")";
    case Rung::kQuantifierFree:
      return "Prop 3.1 quantifier-free polynomial algorithm";
    case Rung::kExtensional:
      return "safe-plan extensional evaluation";
    case Rung::kExactWorlds:
      return datalog ? "Thm 4.2 exact world enumeration over Datalog"
                     : "Thm 4.2 exact world enumeration";
    case Rung::kCor55:
      return query_class == QueryClass::kUniversal
                 ? "Cor 5.5 (universal via FPTRAS on negation)"
                 : "Cor 5.5 (existential via Thm 5.4 FPTRAS)";
    case Rung::kPadded:
      return datalog ? "Thm 5.12 padded estimator on Datalog predicate"
                     : "Thm 5.12 padded estimator";
  }
  QREL_CHECK_MSG(false, "corrupt rung");
  return "";
}

using ExactRungFn = std::function<StatusOr<ReliabilityReport>()>;
using SamplingRungFn =
    std::function<StatusOr<ApproxResult>(const ApproxOptions&)>;

// The degradation ladder both front ends share. `report` arrives with the
// front end's fields (query class, observed answers) and leaves complete.
// `exact` runs the planned exact rung, `sample` the class's randomized
// rung and `reserve` the last-resort padded run, the latter two under the
// given options. Each holds its own fault site, and an injected fault is
// handled exactly like the rung failing on its own: degrade on budget
// codes, propagate the rest. `answer_space` is n^k, for the expected
// error of an estimate.
StatusOr<EngineReport> RunLadder(Rung rung, const std::string& planned_method,
                                 double answer_space,
                                 const EngineOptions& options,
                                 EngineReport report, const ExactRungFn& exact,
                                 const SamplingRungFn& sample,
                                 const SamplingRungFn& reserve) {
  RunContext* ctx = options.run_context;
  // Why the planned rung was abandoned mid-run; OK while no rung tripped.
  Status degrade_trigger = Status::Ok();
  if (rung < Rung::kCor55) {
    StatusOr<ReliabilityReport> result = exact();
    if (result.ok()) {
      report.method = planned_method;
      if (rung == Rung::kExtensional) {
        report.method +=
            " (" + std::to_string(result->work_units) + " plan ops)";
      } else if (rung == Rung::kExactWorlds) {
        report.method += " (" + std::to_string(result->work_units) + " worlds)";
      }
      report.is_exact = true;
      report.exact_reliability = result->reliability;
      report.reliability = result->reliability.ToDouble();
      report.expected_error = result->expected_error.ToDouble();
      report.budget_spent = ctx != nullptr ? ctx->work_spent() : 0;
      return report;
    }
    if (!ShouldDegrade(result.status(), options)) {
      return result.status();
    }
    degrade_trigger = result.status();
  }

  // The randomized rung runs under whatever envelope remains; it may
  // truncate rather than fail (see ApproxOptions::allow_truncation).
  ApproxOptions approx;
  approx.epsilon = options.epsilon;
  approx.delta = options.delta;
  approx.seed = options.seed;
  approx.fixed_samples = options.fixed_samples;
  approx.run_context = ctx;
  approx.allow_truncation = options.degrade_on_budget;

  std::optional<ApproxResult> estimate;
  bool used_reserve = false;
  Status entry = CheckRunContext(ctx);
  if (entry.ok()) {
    StatusOr<ApproxResult> attempt = sample(approx);
    if (attempt.ok()) {
      estimate = std::move(attempt).value();
    } else if (ShouldDegrade(attempt.status(), options)) {
      degrade_trigger = attempt.status();
    } else {
      return attempt.status();
    }
  } else if (degrade_trigger.ok()) {
    if (!ShouldDegrade(entry, options)) {
      return entry;
    }
    degrade_trigger = entry;
  }

  // Only a degradable trip gets here, so degrade_on_budget is set.
  if (!estimate.has_value()) {
    if (ctx != nullptr && ctx->cancellation_requested()) {
      return Status::Cancelled("run cancelled before the reserve rung");
    }
    // Last resort: a fixed reserve-sample padded run. It runs ungoverned —
    // its cost is bounded by construction — so a degraded run still ends
    // with an estimate instead of an error.
    ApproxOptions fallback = approx;
    fallback.run_context = nullptr;
    fallback.allow_truncation = false;
    fallback.fixed_samples = options.reserve_samples;
    StatusOr<ApproxResult> attempt = reserve(fallback);
    if (!attempt.ok()) {
      return attempt.status();
    }
    estimate = std::move(attempt).value();
    used_reserve = true;
  }

  report.method = estimate->method;
  report.is_exact = false;
  report.reliability = estimate->estimate;
  report.expected_error = (1.0 - estimate->estimate) * answer_space;
  report.samples = estimate->samples;
  report.partial = estimate->truncated || used_reserve;
  report.achieved_epsilon = estimate->achieved_epsilon;
  if (report.achieved_epsilon.has_value()) {
    report.achieved_delta = options.delta;
  }
  if (!degrade_trigger.ok()) {
    report.degraded = true;
    report.degradation_reason = DegradationReason(degrade_trigger);
  }
  report.budget_spent = ctx != nullptr ? ctx->work_spent() : 0;
  return report;
}

}  // namespace

ReliabilityEngine::ReliabilityEngine(UnreliableDatabase database)
    : database_(std::move(database)) {}

StatusOr<EngineReport> ReliabilityEngine::Run(
    const std::string& query_text, const EngineOptions& options) const {
  StatusOr<FormulaPtr> query = ParseFormula(query_text);
  if (!query.ok()) {
    return query.status();
  }
  return Run(*query, options);
}

StatusOr<EngineReport> ReliabilityEngine::Run(
    const FormulaPtr& query, const EngineOptions& options) const {
  try {
    return RunImpl(query, options);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("out of memory during engine run");
  }
}

StatusOr<EnginePlan> ReliabilityEngine::Explain(
    const std::string& query_text, const EngineOptions& options) const {
  StatusOr<FormulaPtr> query = ParseFormula(query_text);
  if (!query.ok()) {
    return query.status();
  }
  return Explain(*query, options);
}

EnginePlan ReliabilityEngine::Explain(const FormulaPtr& query,
                                      const EngineOptions& options) const {
  FormulaAnalysis analysis = AnalyzeFormula(query, &database_.vocabulary(),
                                            database_.universe_size());
  size_t uncertain = database_.UncertainEntries().size();

  EnginePlan plan;
  plan.diagnostics = std::move(analysis.diagnostics);
  plan.query_class = analysis.original_class;
  plan.effective_class = analysis.effective_class;
  plan.static_truth = analysis.static_truth;
  plan.simplified_query = analysis.simplified->ToString();
  const FormulaPtr& effective =
      analysis.arity_preserved ? analysis.simplified : query;
  plan.cost = EstimateCost(effective, database_.universe_size(), uncertain);
  plan.safe_plan_applicable = analysis.safety.applicable;
  plan.safe_plan_safe = analysis.safety.safe;
  if (analysis.safety.safe) {
    plan.safe_plan = analysis.safety.plan->ToString();
  } else if (analysis.safety.applicable &&
             !analysis.safety.diagnostics.empty()) {
    plan.safe_plan_blocker = analysis.safety.diagnostics.front().check_id;
  }
  if (!plan.has_errors()) {
    QueryClass dispatch_class = analysis.arity_preserved
                                    ? analysis.effective_class
                                    : analysis.original_class;
    plan.rung =
        PlanRung(dispatch_class, analysis.static_truth, uncertain, options);
    plan.planned_method = RungMethod(plan.rung, dispatch_class,
                                     analysis.static_truth, false);
  }
  return plan;
}

StatusOr<EnginePlan> ReliabilityEngine::ExplainDatalog(
    const std::string& program_text, const std::string& predicate,
    const EngineOptions& options) const {
  StatusOr<DatalogProgram> program = ParseDatalogProgram(program_text);
  if (!program.ok()) {
    return program.status();
  }
  return ExplainDatalog(*program, predicate, options);
}

EnginePlan ReliabilityEngine::ExplainDatalog(
    const DatalogProgram& program, const std::string& predicate,
    const EngineOptions& options) const {
  DatalogAnalysis analysis =
      AnalyzeDatalogProgram(program, &database_.vocabulary(), predicate,
                            database_.universe_size());
  size_t uncertain = database_.UncertainEntries().size();

  EnginePlan plan;
  plan.diagnostics = std::move(analysis.diagnostics);
  // Datalog has no syntactic first-order class ladder; like RunDatalog,
  // the plan reports the general class.
  plan.query_class = QueryClass::kGeneralFirstOrder;
  plan.effective_class = QueryClass::kGeneralFirstOrder;
  plan.cost.universe_size = database_.universe_size();
  plan.cost.uncertain_atoms = uncertain;
  plan.cost.world_count =
      std::pow(2.0, static_cast<double>(uncertain));
  if (analysis.query_arity.has_value()) {
    plan.cost.arity = *analysis.query_arity;
    plan.cost.answer_space =
        std::pow(static_cast<double>(plan.cost.universe_size),
                 static_cast<double>(*analysis.query_arity));
  }
  if (!plan.has_errors()) {
    plan.rung = PlanRung(QueryClass::kGeneralFirstOrder, StaticTruth::kUnknown,
                         uncertain, options);
    plan.planned_method = RungMethod(plan.rung, QueryClass::kGeneralFirstOrder,
                                     StaticTruth::kUnknown, true);
  }
  return plan;
}

StatusOr<EngineReport> ReliabilityEngine::RunImpl(
    const FormulaPtr& query, const EngineOptions& options) const {
  if (options.force_exact && options.force_approximate) {
    return Status::InvalidArgument(
        "force_exact and force_approximate are mutually exclusive");
  }
  RunContext* ctx = options.run_context;

  // Static analysis first: unknown predicates, arity mismatches and the
  // like fail with a source-located diagnostic before the envelope is
  // consulted and before any budget could be charged.
  FormulaAnalysis analysis = AnalyzeFormula(query, &database_.vocabulary(),
                                            database_.universe_size());
  if (analysis.has_errors()) {
    return Status::InvalidArgument(FirstErrorMessage(analysis.diagnostics));
  }

  // Fail fast on an envelope that is already spent (zero work budget,
  // expired deadline, prior cancellation): nothing ran, so there is
  // nothing to degrade to.
  QREL_RETURN_IF_ERROR(CheckRunContext(ctx));

  // Dispatch on the simplified query when it kept the free-variable
  // columns; otherwise simplification dropped a vacuous free variable and
  // the original must stay the unit of evaluation.
  const FormulaPtr& effective =
      analysis.arity_preserved ? analysis.simplified : query;

  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(effective, database_.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }

  EngineReport report;
  report.query_class = analysis.arity_preserved ? analysis.effective_class
                                                : analysis.original_class;
  int n = database_.universe_size();
  int k = compiled->arity();

  const bool want_answers =
      options.include_observed_answers &&
      TupleSpace(n, k) <= static_cast<double>(uint64_t{1} << 16);
  // The extensional rung computes ψ^𝔄 from its plan as it goes; the other
  // rungs (and a degraded extensional run) take it from the query.
  std::vector<Tuple> extensional_answers;

  Rung rung = PlanRung(report.query_class, analysis.static_truth,
                       database_.UncertainEntries().size(), options);
  Rung sampling = SamplingRung(report.query_class);
  auto exact = [&]() -> StatusOr<ReliabilityReport> {
    switch (rung) {
      case Rung::kStaticClosedForm: {
        // The answer set is the same in every world (everything for a
        // tautology, nothing for an unsatisfiable query), so R = 1 with no
        // worlds enumerated and no samples drawn.
        ReliabilityReport closed_form;
        closed_form.reliability = Rational::One();
        return closed_form;
      }
      case Rung::kQuantifierFree:
        QREL_FAULT_SITE("engine.rung.quantifier_free");
        return QuantifierFreeReliability(effective, database_, ctx);
      case Rung::kExtensional:
        // Exact lifted evaluation of the safe plan against the tuple
        // marginals (logic/safe_plan.h, lifted/extensional.h).
        QREL_FAULT_SITE("engine.rung.extensional");
        return ExtensionalReliability(
            effective, database_, ctx,
            want_answers ? &extensional_answers : nullptr);
      default:
        QREL_FAULT_SITE("engine.exact.enumerate");
        return ExactReliability(effective, database_, ctx);
    }
  };
  auto sample = [&](const ApproxOptions& approx) -> StatusOr<ApproxResult> {
    QREL_FAULT_SITE("engine.rung.approx");
    return sampling == Rung::kCor55
               ? ReliabilityAbsoluteApprox(effective, database_, approx)
               : PaddedReliabilityApprox(effective, database_, approx);
  };
  auto reserve = [&](const ApproxOptions& approx) -> StatusOr<ApproxResult> {
    QREL_FAULT_SITE("engine.rung.reserve");
    return PaddedReliabilityApprox(effective, database_, approx);
  };
  StatusOr<EngineReport> result =
      RunLadder(rung,
                RungMethod(rung, report.query_class, analysis.static_truth,
                           false),
                TupleSpace(n, k), options, std::move(report), exact, sample,
                reserve);
  if (result.ok() && want_answers) {
    result->observed_answers =
        rung == Rung::kExtensional && result->is_exact
            ? std::move(extensional_answers)
            : compiled->AnswerSet(database_.observed());
  }
  return result;
}

StatusOr<EngineReport> ReliabilityEngine::RunDatalog(
    const std::string& program_text, const std::string& predicate,
    const EngineOptions& options) const {
  try {
    return RunDatalogImpl(program_text, predicate, options);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("out of memory during Datalog run");
  }
}

StatusOr<EngineReport> ReliabilityEngine::RunDatalogImpl(
    const std::string& program_text, const std::string& predicate,
    const EngineOptions& options) const {
  if (options.force_exact && options.force_approximate) {
    return Status::InvalidArgument(
        "force_exact and force_approximate are mutually exclusive");
  }
  RunContext* ctx = options.run_context;
  StatusOr<DatalogProgram> program = ParseDatalogProgram(program_text);
  if (!program.ok()) {
    return program.status();
  }

  // Static analysis first (the same checks Compile enforces, plus lint):
  // a broken program fails with a source-located diagnostic before the
  // envelope is consulted and before any budget could be charged.
  DatalogAnalysis analysis =
      AnalyzeDatalogProgram(*program, &database_.vocabulary(), predicate,
                            database_.universe_size());
  if (analysis.has_errors()) {
    return Status::InvalidArgument(FirstErrorMessage(analysis.diagnostics));
  }

  QREL_RETURN_IF_ERROR(CheckRunContext(ctx));
  StatusOr<CompiledDatalog> compiled =
      CompiledDatalog::Compile(std::move(program).value(),
                               database_.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  StatusOr<int> arity = compiled->PredicateArity(predicate);
  if (!arity.ok()) {
    return arity.status();
  }

  EngineReport report;
  report.query_class = QueryClass::kGeneralFirstOrder;
  if (options.include_observed_answers) {
    double tuples = TupleSpace(database_.universe_size(), *arity);
    if (tuples <= static_cast<double>(uint64_t{1} << 16)) {
      StatusOr<std::set<Tuple>> answers =
          compiled->EvalPredicate(database_.observed(), predicate);
      if (!answers.ok()) {
        return answers.status();
      }
      report.observed_answers.emplace(answers->begin(), answers->end());
    }
  }

  Rung rung = PlanRung(QueryClass::kGeneralFirstOrder, StaticTruth::kUnknown,
                       database_.UncertainEntries().size(), options);
  auto exact = [&]() -> StatusOr<ReliabilityReport> {
    QREL_FAULT_SITE("engine.datalog.exact");
    return ExactDatalogReliability(*compiled, predicate, database_, ctx);
  };
  auto sample = [&](const ApproxOptions& approx) -> StatusOr<ApproxResult> {
    QREL_FAULT_SITE("engine.datalog.padded");
    return PaddedDatalogReliability(*compiled, predicate, database_, approx);
  };
  auto reserve = [&](const ApproxOptions& approx) -> StatusOr<ApproxResult> {
    QREL_FAULT_SITE("engine.datalog.reserve");
    return PaddedDatalogReliability(*compiled, predicate, database_, approx);
  };
  return RunLadder(rung,
                   RungMethod(rung, QueryClass::kGeneralFirstOrder,
                              StaticTruth::kUnknown, true),
                   TupleSpace(database_.universe_size(), *arity), options,
                   std::move(report), exact, sample, reserve);
}

}  // namespace qrel
