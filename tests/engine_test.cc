#include "qrel/engine/engine.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/core/reliability.h"
#include "qrel/lifted/extensional.h"
#include "qrel/logic/eval.h"
#include "qrel/logic/parser.h"
#include "qrel/prob/text_format.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/run_context.h"

namespace qrel {
namespace {

constexpr char kUdb[] = R"(
universe 4
relation E 2
relation S 1
fact E 0 1
fact E 1 2
fact E 2 3
fact S 0 err=1/4
fact S 2 err=1/3
absent S 1 err=1/2
)";

ReliabilityEngine MakeEngine() {
  StatusOr<UnreliableDatabase> db = ParseUdb(kUdb);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return ReliabilityEngine(std::move(db).value());
}

TEST(EngineTest, QuantifierFreeUsesProp31) {
  ReliabilityEngine engine = MakeEngine();
  EngineReport report = *engine.Run("S(x)");
  EXPECT_EQ(report.query_class, QueryClass::kQuantifierFree);
  EXPECT_TRUE(report.is_exact);
  EXPECT_NE(report.method.find("Prop 3.1"), std::string::npos);
  // H = 1/4 + 1/2 + 1/3 = 13/12; R = 1 - (13/12)/4 = 35/48.
  ASSERT_TRUE(report.exact_reliability.has_value());
  EXPECT_EQ(*report.exact_reliability, Rational(35, 48));
}

TEST(EngineTest, SmallSupportUsesExactEnumeration) {
  ReliabilityEngine engine = MakeEngine();
  // The S self-join makes the query unsafe, so it lands on enumeration.
  EngineReport report =
      *engine.Run("exists x . exists y . S(x) & E(x, y) & S(y)");
  EXPECT_TRUE(report.is_exact);
  EXPECT_NE(report.method.find("Thm 4.2"), std::string::npos);
}

TEST(EngineTest, ForcedApproximationUsesCor55ForExistential) {
  ReliabilityEngine engine = MakeEngine();
  EngineOptions options;
  options.force_approximate = true;
  options.seed = 7;
  EngineReport report = *engine.Run("exists x . S(x)", options);
  EXPECT_FALSE(report.is_exact);
  EXPECT_NE(report.method.find("Cor 5.5"), std::string::npos);
  // Compare against the exact path.
  EngineReport exact = *engine.Run("exists x . S(x)");
  EXPECT_NEAR(report.reliability, exact.reliability, 3 * options.epsilon);
}

TEST(EngineTest, ForcedApproximationUsesThm512ForGeneralQueries) {
  ReliabilityEngine engine = MakeEngine();
  EngineOptions options;
  options.force_approximate = true;
  options.epsilon = 0.05;
  options.delta = 0.05;
  options.seed = 11;
  EngineReport report =
      *engine.Run("forall x . S(x) -> (exists y . E(x, y))", options);
  EXPECT_FALSE(report.is_exact);
  EXPECT_NE(report.method.find("Thm 5.12"), std::string::npos);
  EngineReport exact =
      *engine.Run("forall x . S(x) -> (exists y . E(x, y))");
  EXPECT_NEAR(report.reliability, exact.reliability, 3 * options.epsilon);
}

TEST(EngineTest, ObservedAnswersIncluded) {
  ReliabilityEngine engine = MakeEngine();
  EngineReport report = *engine.Run("S(x)");
  ASSERT_TRUE(report.observed_answers.has_value());
  EXPECT_EQ(*report.observed_answers,
            (std::vector<Tuple>{{0}, {2}}));

  EngineOptions options;
  options.include_observed_answers = false;
  report = *engine.Run("S(x)", options);
  EXPECT_FALSE(report.observed_answers.has_value());
}

TEST(EngineTest, ParseErrorsPropagate) {
  ReliabilityEngine engine = MakeEngine();
  EXPECT_FALSE(engine.Run("S(x").ok());
  EXPECT_FALSE(engine.Run("Zap(x)").ok());
}

TEST(EngineTest, ConflictingForcesRejected) {
  ReliabilityEngine engine = MakeEngine();
  EngineOptions options;
  options.force_exact = true;
  options.force_approximate = true;
  EXPECT_FALSE(engine.Run("S(x)", options).ok());
}

TEST(EngineTest, ClassReporting) {
  ReliabilityEngine engine = MakeEngine();
  EXPECT_EQ(engine.Run("S(x) & E(x, y)")->query_class,
            QueryClass::kQuantifierFree);
  EXPECT_EQ(engine.Run("exists x . S(x) & E(x, x)")->query_class,
            QueryClass::kSafeConjunctive);
  EXPECT_EQ(engine.Run("exists x . exists y . S(x) & E(x, y) & S(y)")
                ->query_class,
            QueryClass::kConjunctive);
  EXPECT_EQ(engine.Run("exists x . S(x) | E(x, x)")->query_class,
            QueryClass::kExistential);
  EXPECT_EQ(engine.Run("forall x . S(x)")->query_class,
            QueryClass::kUniversal);
  EXPECT_EQ(engine.Run("forall x . exists y . E(x, y)")->query_class,
            QueryClass::kGeneralFirstOrder);
}

// A database whose exact enumeration is hopeless on a short deadline:
// 24 uncertain atoms = 2^24 possible worlds.
ReliabilityEngine MakeLargeEngine() {
  std::string udb = "universe 12\nrelation S 1\nrelation T 1\n";
  for (int i = 0; i < 12; ++i) {
    udb += "fact S " + std::to_string(i) + " err=1/3\n";
    udb += "fact T " + std::to_string(i) + " err=1/4\n";
  }
  StatusOr<UnreliableDatabase> db = ParseUdb(udb);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return ReliabilityEngine(std::move(db).value());
}

TEST(EngineBudgetTest, DeadlineDegradesExactPathToSampling) {
  ReliabilityEngine engine = MakeLargeEngine();
  RunContext ctx =
      RunContext::WithDeadline(std::chrono::milliseconds(10));
  EngineOptions options;
  options.run_context = &ctx;
  // Large enough to admit the 2^24-world instance onto the exact rung.
  options.max_exact_worlds = uint64_t{1} << 32;
  options.seed = 5;
  StatusOr<EngineReport> report =
      engine.Run("exists x . exists y . S(x) & T(x) & T(y)", options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_FALSE(report->degradation_reason.empty());
  EXPECT_FALSE(report->is_exact);
  EXPECT_EQ(report->method.find("Thm 4.2"), std::string::npos)
      << report->method;
  EXPECT_GT(report->samples, 0u);
  EXPECT_GT(report->budget_spent, 0u);
  EXPECT_GE(report->reliability, 0.0);
  EXPECT_LE(report->reliability, 1.0);
  // The degraded estimate rests on fewer samples than the (ε, δ) plan and
  // must say what it actually guarantees.
  EXPECT_TRUE(report->partial);
  ASSERT_TRUE(report->achieved_epsilon.has_value());
  EXPECT_GT(*report->achieved_epsilon, 0.0);
  ASSERT_TRUE(report->achieved_delta.has_value());
  EXPECT_EQ(*report->achieved_delta, options.delta);
}

TEST(EngineBudgetTest, WorkBudgetDegradesExactPathToSampling) {
  ReliabilityEngine engine = MakeLargeEngine();
  RunContext ctx = RunContext::WithWorkBudget(5000);
  EngineOptions options;
  options.run_context = &ctx;
  options.max_exact_worlds = uint64_t{1} << 32;
  StatusOr<EngineReport> report =
      engine.Run("exists x . exists y . S(x) & T(x) & T(y)", options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_NE(report->degradation_reason.find("RESOURCE_EXHAUSTED"),
            std::string::npos)
      << report->degradation_reason;
  EXPECT_FALSE(report->is_exact);
  EXPECT_GE(report->budget_spent, 5000u);
}

TEST(EngineBudgetTest, NoDegradeSurfacesTheBudgetError) {
  ReliabilityEngine engine = MakeLargeEngine();
  RunContext ctx =
      RunContext::WithDeadline(std::chrono::milliseconds(10));
  EngineOptions options;
  options.run_context = &ctx;
  options.max_exact_worlds = uint64_t{1} << 32;
  options.degrade_on_budget = false;
  StatusOr<EngineReport> report =
      engine.Run("exists x . exists y . S(x) & T(x) & T(y)", options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(EngineBudgetTest, ForceExactRefusesToDegrade) {
  ReliabilityEngine engine = MakeLargeEngine();
  RunContext ctx = RunContext::WithWorkBudget(1000);
  EngineOptions options;
  options.run_context = &ctx;
  options.force_exact = true;
  StatusOr<EngineReport> report =
      engine.Run("exists x . exists y . S(x) & T(x) & T(y)", options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineBudgetTest, ZeroBudgetFailsCleanlyAtEntry) {
  ReliabilityEngine engine = MakeEngine();
  RunContext ctx = RunContext::WithWorkBudget(0);
  EngineOptions options;
  options.run_context = &ctx;
  StatusOr<EngineReport> report = engine.Run("S(x)", options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.work_spent(), 0u);
}

TEST(EngineBudgetTest, CancellationMidSamplingReturnsCancelled) {
  ReliabilityEngine engine = MakeEngine();
  RunContext ctx;  // unlimited: only cancellation can stop it
  EngineOptions options;
  options.run_context = &ctx;
  options.force_approximate = true;
  // Far more samples than the canceller allows to complete.
  options.fixed_samples = uint64_t{1} << 40;
  std::thread canceller([&ctx] {
    while (ctx.work_spent() < 10000) {
      std::this_thread::yield();
    }
    ctx.RequestCancellation();
  });
  StatusOr<EngineReport> report =
      engine.Run("exists x . S(x)", options);
  canceller.join();
  // Cancellation must surface as kCancelled — never a degraded or
  // truncated partial result.
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
  EXPECT_GE(ctx.work_spent(), 10000u);
}

TEST(EngineBudgetTest, GenerousEnvelopeLeavesResultExact) {
  ReliabilityEngine engine = MakeEngine();
  RunContext ctx = RunContext::WithWorkBudget(uint64_t{1} << 30);
  ctx.SetDeadline(std::chrono::hours(1));
  EngineOptions options;
  options.run_context = &ctx;
  StatusOr<EngineReport> report = engine.Run("S(x)", options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->is_exact);
  EXPECT_FALSE(report->degraded);
  EXPECT_FALSE(report->partial);
  EXPECT_GT(report->budget_spent, 0u);
  EXPECT_EQ(*report->exact_reliability, Rational(35, 48));
}

TEST(EngineTest, ExactAndApproximatePathsAgreeAcrossQueries) {
  ReliabilityEngine engine = MakeEngine();
  for (const std::string text : {
           "exists x . S(x)",
           "exists x y . E(x, y) & S(y)",
           "forall x . S(x) | !S(x)",
       }) {
    EngineReport exact = *engine.Run(text);
    ASSERT_TRUE(exact.is_exact) << text;
    EngineOptions options;
    options.force_approximate = true;
    options.epsilon = 0.04;
    options.delta = 0.02;
    options.seed = 1234;
    EngineReport approx = *engine.Run(text, options);
    EXPECT_NEAR(approx.reliability, exact.reliability, 3 * options.epsilon)
        << text;
  }
}

}  // namespace
}  // namespace qrel

namespace qrel {
namespace {

constexpr char kTcProgram[] =
    "Path(x, y) :- E(x, y).\n"
    "Path(x, z) :- Path(x, y), E(y, z).";

TEST(EngineDatalogTest, ExactPathReliability) {
  ReliabilityEngine engine = MakeEngine();
  EngineReport report = *engine.RunDatalog(kTcProgram, "Path");
  EXPECT_TRUE(report.is_exact);
  EXPECT_NE(report.method.find("Datalog"), std::string::npos);
  ASSERT_TRUE(report.observed_answers.has_value());
  // Chain 0->1->2->3: six reachable pairs.
  EXPECT_EQ(report.observed_answers->size(), 6u);
  EXPECT_TRUE(report.exact_reliability.has_value());
}

TEST(EngineDatalogTest, ApproximatePathMatchesExact) {
  ReliabilityEngine engine = MakeEngine();
  EngineReport exact = *engine.RunDatalog(kTcProgram, "Path");
  EngineOptions options;
  options.force_approximate = true;
  options.epsilon = 0.05;
  options.delta = 0.05;
  options.seed = 99;
  options.fixed_samples = 30000;  // the derived bound is ~4e7 samples here
  EngineReport approx = *engine.RunDatalog(kTcProgram, "Path", options);
  EXPECT_FALSE(approx.is_exact);
  EXPECT_NEAR(approx.reliability, exact.reliability, 3 * options.epsilon);
}

TEST(EngineDatalogTest, WorkBudgetDegradesToPaddedEstimator) {
  ReliabilityEngine engine = MakeEngine();
  // What the exact rung costs, measured rather than assumed; half of it
  // cannot finish the enumeration.
  RunContext unbudgeted;
  EngineOptions measure;
  measure.run_context = &unbudgeted;
  StatusOr<EngineReport> exact =
      engine.RunDatalog(kTcProgram, "Path", measure);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_TRUE(exact->is_exact);
  const uint64_t budget = exact->budget_spent / 2;
  ASSERT_GT(budget, 0u);

  RunContext ctx = RunContext::WithWorkBudget(budget);
  EngineOptions options;
  options.run_context = &ctx;
  options.fixed_samples = 50;
  StatusOr<EngineReport> report =
      engine.RunDatalog(kTcProgram, "Path", options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->is_exact);
  EXPECT_TRUE(report->degraded);
  EXPECT_NE(report->method.find("Thm 5.12"), std::string::npos)
      << report->method;
  EXPECT_GE(report->budget_spent, budget);
}

TEST(EngineDatalogTest, ErrorsPropagate) {
  ReliabilityEngine engine = MakeEngine();
  EXPECT_FALSE(engine.RunDatalog("Path(x, y) :-", "Path").ok());
  EXPECT_FALSE(engine.RunDatalog(kTcProgram, "Nope").ok());
  EXPECT_FALSE(
      engine.RunDatalog("P(x) :- Zap(x).", "P").ok());
}

TEST(EngineTest, EverySamplingRungRejectsZeroFixedSamplesAlike) {
  ReliabilityEngine engine = MakeEngine();
  EngineOptions options;
  options.force_approximate = true;
  options.fixed_samples = 0;
  const StatusOr<EngineReport> runs[] = {
      engine.Run("exists x y . E(x,y) & S(y)", options),         // Cor 5.5
      engine.Run("forall x . exists y . E(x,y) | S(x)", options),  // Thm 5.12
      engine.RunDatalog(kTcProgram, "Path", options),              // Datalog
  };
  for (const StatusOr<EngineReport>& run : runs) {
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(run.status().message(), "fixed_samples must be positive");
  }
}

TEST(EngineAnalysisTest, AnalysisErrorsFailBeforeAnyBudgetCharge) {
  ReliabilityEngine engine = MakeEngine();
  RunContext ctx = RunContext::WithWorkBudget(1000);
  EngineOptions options;
  options.run_context = &ctx;

  StatusOr<EngineReport> unknown = engine.Run("Zap(x)", options);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // The message names the stable check id and the source location.
  EXPECT_NE(unknown.status().message().find("unknown-predicate"),
            std::string::npos);
  EXPECT_NE(unknown.status().message().find("at 0-"), std::string::npos);
  EXPECT_EQ(ctx.work_spent(), 0u);

  StatusOr<EngineReport> arity = engine.Run("E(x)", options);
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(arity.status().message().find("arity-mismatch"),
            std::string::npos);
  EXPECT_EQ(ctx.work_spent(), 0u);
}

TEST(EngineAnalysisTest, DatalogAnalysisErrorsFailBeforeAnyBudgetCharge) {
  ReliabilityEngine engine = MakeEngine();
  RunContext ctx = RunContext::WithWorkBudget(1000);
  EngineOptions options;
  options.run_context = &ctx;

  StatusOr<EngineReport> unsafe =
      engine.RunDatalog("P(x, y) :- S(x).", "P", options);
  ASSERT_FALSE(unsafe.ok());
  EXPECT_EQ(unsafe.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unsafe.status().message().find("unbound-head-variable"),
            std::string::npos);
  EXPECT_EQ(ctx.work_spent(), 0u);

  StatusOr<EngineReport> cyclic = engine.RunDatalog(
      "P(x) :- S(x), !Q(x).\nQ(x) :- S(x), !P(x).", "P", options);
  ASSERT_FALSE(cyclic.ok());
  EXPECT_NE(cyclic.status().message().find("unstratifiable-cycle"),
            std::string::npos);
  EXPECT_EQ(ctx.work_spent(), 0u);

  // A query predicate that is neither a rule head nor a relation.
  StatusOr<EngineReport> unknown = engine.RunDatalog(kTcProgram, "Nope", options);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("unknown-predicate"),
            std::string::npos);
  EXPECT_EQ(ctx.work_spent(), 0u);
}

TEST(EngineAnalysisTest, OutOfRangeConstantIsATypedErrorBeforeAnyCharge) {
  ReliabilityEngine engine = MakeEngine();  // universe {0, 1, 2, 3}
  RunContext ctx = RunContext::WithWorkBudget(1000);
  EngineOptions options;
  options.run_context = &ctx;

  // A safe query: the analyzer used to pass it and evaluation then read
  // the atom E(x, 7), which no database over this universe can hold.
  EnginePlan plan = *engine.Explain("exists x . E(x, 7) & S(x)");
  EXPECT_TRUE(plan.has_errors());
  ASSERT_FALSE(plan.diagnostics.empty());
  bool reported = false;
  for (const Diagnostic& diagnostic : plan.diagnostics) {
    reported = reported || diagnostic.check_id == "constant-out-of-range";
  }
  EXPECT_TRUE(reported);

  for (const char* query : {"exists x . E(x, 7) & S(x)", "S(#4)",
                            "exists x . x = #9 & S(x)"}) {
    StatusOr<EngineReport> run = engine.Run(query, options);
    ASSERT_FALSE(run.ok()) << query;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << query;
    EXPECT_NE(run.status().message().find("constant-out-of-range"),
              std::string::npos)
        << run.status().ToString();
  }

  for (const char* program :
       {"P(x) :- E(x, #7).", "P(#5) :- S(x).", "P(x) :- S(x), !E(x, #4)."}) {
    EnginePlan datalog_plan = *engine.ExplainDatalog(program, "P");
    EXPECT_TRUE(datalog_plan.has_errors()) << program;
    StatusOr<EngineReport> run = engine.RunDatalog(program, "P", options);
    ASSERT_FALSE(run.ok()) << program;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << program;
    EXPECT_NE(run.status().message().find("constant-out-of-range"),
              std::string::npos)
        << run.status().ToString();
  }
  EXPECT_EQ(ctx.work_spent(), 0u);
}

TEST(EngineAnalysisTest, OutOfRangeAssignmentIsATypedError) {
  ReliabilityEngine engine = MakeEngine();
  const UnreliableDatabase& db = engine.database();
  FormulaPtr query = *ParseFormula("exists y . E(x, y) & S(y)");
  for (const Tuple& assignment : {Tuple{4}, Tuple{-1}}) {
    StatusOr<Rational> exact = ExactQueryProbability(query, db, assignment);
    ASSERT_FALSE(exact.ok());
    EXPECT_EQ(exact.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(exact.status().message().find("constant-out-of-range"),
              std::string::npos);
    StatusOr<Rational> lifted =
        ExtensionalQueryProbability(query, db, assignment);
    ASSERT_FALSE(lifted.ok());
    EXPECT_EQ(lifted.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(lifted.status().message().find("constant-out-of-range"),
              std::string::npos);
  }
  // In range, the two agree.
  EXPECT_EQ(*ExactQueryProbability(query, db, {1}),
            *ExtensionalQueryProbability(query, db, {1}));
}

TEST(EngineTest, ExtensionalRungReportsTheObservedAnswersOfItsPlan) {
  ReliabilityEngine engine = MakeEngine();
  const char* query = "exists y . E(x, y) & S(y)";
  EngineReport report = *engine.Run(query);
  ASSERT_TRUE(report.is_exact);
  EXPECT_EQ(report.method.rfind("safe-plan extensional", 0), 0u)
      << report.method;
  ASSERT_TRUE(report.observed_answers.has_value());
  StatusOr<CompiledQuery> compiled = CompiledQuery::Compile(
      *ParseFormula(query), engine.database().vocabulary());
  ASSERT_TRUE(compiled.ok());
  // E(1, 2) with S(2): x = 1 is the only observed answer.
  EXPECT_EQ(*report.observed_answers,
            compiled->AnswerSet(engine.database().observed()));
  EXPECT_EQ(*report.observed_answers, std::vector<Tuple>{{1}});
}

TEST(EngineAnalysisTest, StaticallyFalseShortCircuitsWithoutSampling) {
  ReliabilityEngine engine = MakeEngine();
  RunContext ctx = RunContext::WithWorkBudget(1000);
  EngineOptions options;
  options.run_context = &ctx;
  EngineReport report = *engine.Run("exists x . S(x) & !S(x)", options);
  EXPECT_TRUE(report.is_exact);
  ASSERT_TRUE(report.exact_reliability.has_value());
  EXPECT_EQ(*report.exact_reliability, Rational::One());
  EXPECT_EQ(report.expected_error, 0.0);
  EXPECT_EQ(report.samples, 0u);
  EXPECT_NE(report.method.find("static analysis closed form"),
            std::string::npos);
  // Nothing was enumerated or sampled, so no work unit was charged.
  EXPECT_EQ(report.budget_spent, 0u);
  EXPECT_EQ(ctx.work_spent(), 0u);
}

TEST(EngineAnalysisTest, StaticallyTrueShortCircuitsWithAllAnswers) {
  ReliabilityEngine engine = MakeEngine();
  EngineReport report = *engine.Run("S(x) | !S(x)");
  EXPECT_TRUE(report.is_exact);
  ASSERT_TRUE(report.exact_reliability.has_value());
  EXPECT_EQ(*report.exact_reliability, Rational::One());
  EXPECT_EQ(report.samples, 0u);
  // A tautology answers every tuple of the universe.
  ASSERT_TRUE(report.observed_answers.has_value());
  EXPECT_EQ(report.observed_answers->size(), 4u);
}

TEST(EngineAnalysisTest, DispatchUsesSimplifiedClass) {
  ReliabilityEngine engine = MakeEngine();
  // ∃y with y unused: conjunctive as written, quantifier-free once the
  // vacuous binder and trivial equality fall away — and the report shows
  // the rung the engine actually took (Prop 3.1, not Thm 4.2).
  EngineReport report = *engine.Run("exists y . S(x) & y = y");
  EXPECT_EQ(report.query_class, QueryClass::kQuantifierFree);
  EXPECT_NE(report.method.find("Prop 3.1"), std::string::npos);
  // Same closed form as the plain query.
  EngineReport plain = *engine.Run("S(x)");
  ASSERT_TRUE(report.exact_reliability.has_value());
  EXPECT_EQ(*report.exact_reliability, *plain.exact_reliability);
}

TEST(EngineAnalysisTest, ArityDroppingSimplificationIsNotSubstituted) {
  ReliabilityEngine engine = MakeEngine();
  // "y = y" folds to true, which would drop the free variable y and change
  // the answer space from n^2 to n. The engine must evaluate the original.
  EngineReport report = *engine.Run("S(x) & y = y");
  EXPECT_EQ(report.query_class, QueryClass::kQuantifierFree);
  ASSERT_TRUE(report.observed_answers.has_value());
  // S answers {0, 2}, y ranges over the full universe: 2 * 4 tuples.
  EXPECT_EQ(report.observed_answers->size(), 8u);
}

TEST(EngineExtensionalTest, SafeQueryRunsExtensionallyWithoutSampling) {
  ReliabilityEngine engine = MakeEngine();
  EngineReport report = *engine.Run("exists x y . E(x,y) & S(y)");
  EXPECT_EQ(report.query_class, QueryClass::kSafeConjunctive);
  EXPECT_TRUE(report.is_exact);
  EXPECT_EQ(report.samples, 0u);
  EXPECT_EQ(report.method.rfind("safe-plan extensional evaluation", 0), 0u)
      << report.method;
  // E is certain; the query fails only when S(1) stays absent (1/2) and
  // S(2) flips away (1/3): H = 1/6, R = 5/6 — identical to what Thm 4.2
  // world enumeration computes (see extensional_test.cc for the
  // systematic bit-for-bit cross-check).
  ASSERT_TRUE(report.exact_reliability.has_value());
  EXPECT_EQ(*report.exact_reliability, Rational(5, 6));
  StatusOr<UnreliableDatabase> db = ParseUdb(kUdb);
  ASSERT_TRUE(db.ok());
  StatusOr<ReliabilityReport> enumerated = ExactReliability(
      *ParseFormula("exists x y . E(x,y) & S(y)"), *db);
  ASSERT_TRUE(enumerated.ok());
  EXPECT_EQ(*report.exact_reliability, enumerated->reliability);
}

TEST(EngineExtensionalTest, ForceExactKeepsTheExtensionalRung) {
  // The extensional rung IS exact, so force_exact does not push the query
  // down to world enumeration.
  ReliabilityEngine engine = MakeEngine();
  EngineOptions options;
  options.force_exact = true;
  EngineReport report = *engine.Run("exists x y . E(x,y) & S(y)", options);
  EXPECT_TRUE(report.is_exact);
  EXPECT_EQ(report.method.rfind("safe-plan extensional evaluation", 0), 0u);
}

TEST(EngineExtensionalTest, ForceApproximateSkipsTheExtensionalRung) {
  ReliabilityEngine engine = MakeEngine();
  EngineOptions options;
  options.force_approximate = true;
  options.seed = 3;
  options.epsilon = 0.3;
  options.delta = 0.3;
  EngineReport report = *engine.Run("exists x y . E(x,y) & S(y)", options);
  EXPECT_FALSE(report.is_exact);
  EXPECT_NE(report.method.find("Cor 5.5"), std::string::npos);
  EXPECT_GT(report.samples, 0u);
}

TEST(EngineExtensionalTest, BudgetFailureDegradesToSampling) {
  ReliabilityEngine engine = MakeEngine();
  FaultInjector::Instance().Reset();
  FaultInjector::Instance().Arm("engine.rung.extensional", 1,
                                StatusCode::kResourceExhausted);
  EngineOptions options;
  options.seed = 9;
  StatusOr<EngineReport> report =
      engine.Run("exists x y . E(x,y) & S(y)", options);
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_NE(report->degradation_reason.find("RESOURCE_EXHAUSTED"),
            std::string::npos);
  EXPECT_FALSE(report->is_exact);
  EXPECT_GT(report->samples, 0u);
}

TEST(EngineExtensionalTest, NonBudgetFailureSurfacesTyped) {
  ReliabilityEngine engine = MakeEngine();
  FaultInjector::Instance().Reset();
  FaultInjector::Instance().Arm("engine.rung.extensional", 1,
                                StatusCode::kInternal);
  StatusOr<EngineReport> report = engine.Run("exists x y . E(x,y) & S(y)");
  FaultInjector::Instance().Reset();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

TEST(EngineExtensionalTest, ExplainReportsUnsafeBlocker) {
  ReliabilityEngine engine = MakeEngine();
  EnginePlan plan =
      *engine.Explain("exists x . exists y . E(x, y) & E(y, x)");
  EXPECT_EQ(plan.query_class, QueryClass::kConjunctive);
  EXPECT_TRUE(plan.safe_plan_applicable);
  EXPECT_FALSE(plan.safe_plan_safe);
  EXPECT_EQ(plan.safe_plan_blocker, "unsafe-self-join");
  EXPECT_EQ(plan.planned_method, "Thm 4.2 exact world enumeration");
}

TEST(EngineExplainTest, ExplainReportsDiagnosticsCostAndPlan) {
  ReliabilityEngine engine = MakeEngine();
  EnginePlan plan = *engine.Explain("exists x . S(x) & E(x, y)");
  // The only diagnostic is the safe-plan note.
  ASSERT_EQ(plan.diagnostics.size(), 1u);
  EXPECT_EQ(plan.diagnostics[0].check_id, "safe-plan");
  EXPECT_EQ(plan.query_class, QueryClass::kSafeConjunctive);
  EXPECT_EQ(plan.effective_class, QueryClass::kSafeConjunctive);
  EXPECT_TRUE(plan.safe_plan_applicable);
  EXPECT_TRUE(plan.safe_plan_safe);
  EXPECT_EQ(plan.safe_plan, "proj x . (S(x) * E(x, y))");
  EXPECT_EQ(plan.static_truth, StaticTruth::kUnknown);
  EXPECT_EQ(plan.cost.universe_size, 4);
  EXPECT_EQ(plan.cost.arity, 1);
  EXPECT_EQ(plan.cost.variables, 2);
  EXPECT_DOUBLE_EQ(plan.cost.answer_space, 4.0);
  EXPECT_DOUBLE_EQ(plan.cost.grounding_size, 16.0);
  EXPECT_EQ(plan.cost.uncertain_atoms, 3u);
  EXPECT_DOUBLE_EQ(plan.cost.world_count, 8.0);
  EXPECT_EQ(plan.planned_method, "safe-plan extensional evaluation");

  EnginePlan broken = *engine.Explain("Zap(x)");
  EXPECT_TRUE(broken.has_errors());
  EXPECT_TRUE(broken.planned_method.empty());
}

TEST(EngineExplainTest, ExplainNeverChargesTheBudget) {
  ReliabilityEngine engine = MakeEngine();
  RunContext ctx = RunContext::WithWorkBudget(1000);
  EngineOptions options;
  options.run_context = &ctx;
  (void)*engine.Explain("forall x . exists y . E(x, y)", options);
  (void)*engine.ExplainDatalog("P(x) :- S(x).", "P", options);
  EXPECT_EQ(ctx.work_spent(), 0u);
}

TEST(EngineExplainTest, DatalogExplain) {
  ReliabilityEngine engine = MakeEngine();
  EnginePlan plan = *engine.ExplainDatalog(kTcProgram, "Path");
  EXPECT_FALSE(plan.has_errors());
  EXPECT_EQ(plan.cost.arity, 2);
  EXPECT_EQ(plan.cost.uncertain_atoms, 3u);
  EXPECT_EQ(plan.planned_method,
            "Thm 4.2 exact world enumeration over Datalog");

  EnginePlan broken = *engine.ExplainDatalog("P(x, y) :- S(x).", "P");
  EXPECT_TRUE(broken.has_errors());
  EXPECT_TRUE(broken.planned_method.empty());

  EnginePlan unknown = *engine.ExplainDatalog(kTcProgram, "Nope");
  EXPECT_TRUE(unknown.has_errors());
  EXPECT_TRUE(unknown.planned_method.empty());

  // An extensional query predicate plans like a rule head.
  EnginePlan edb = *engine.ExplainDatalog(kTcProgram, "S");
  EXPECT_FALSE(edb.has_errors());
  EXPECT_EQ(edb.cost.arity, 1);
}

// The degradation ladder is shared by both front ends, so every budget
// scenario must end the same way for a first-order query and a Datalog
// program that both plan Thm 4.2 enumeration over the same 8 worlds.
struct LadderScenario {
  const char* name;
  uint64_t work_budget;
  bool degrade_on_budget;
  bool force_exact;
  bool cancel_mid_sampling;
  StatusCode code;
  bool degraded;
  bool partial;
  bool is_exact;
};

StatusOr<EngineReport> RunLadderScenario(const ReliabilityEngine& engine,
                                         const LadderScenario& scenario,
                                         bool datalog) {
  RunContext ctx = scenario.cancel_mid_sampling
                       ? RunContext::Unlimited()
                       : RunContext::WithWorkBudget(scenario.work_budget);
  EngineOptions options;
  options.run_context = &ctx;
  options.degrade_on_budget = scenario.degrade_on_budget;
  options.force_exact = scenario.force_exact;
  std::thread canceller;
  if (scenario.cancel_mid_sampling) {
    options.force_approximate = true;
    options.fixed_samples = uint64_t{1} << 40;
    canceller = std::thread([&ctx] {
      while (ctx.work_spent() < 10000) {
        std::this_thread::yield();
      }
      ctx.RequestCancellation();
    });
  }
  StatusOr<EngineReport> report =
      datalog ? engine.RunDatalog(kTcProgram, "Path", options)
              : engine.Run("exists x . exists y . S(x) & E(x, y) & S(y)",
                           options);
  if (canceller.joinable()) {
    canceller.join();
  }
  return report;
}

TEST(EngineLadderTest, BothFrontEndsDegradeAlike) {
  const LadderScenario kScenarios[] = {
      {"zero budget at entry", 0, true, false, false,
       StatusCode::kResourceExhausted, false, false, false},
      {"trip mid-exact degrades to the reserve rung", 2, true, false, false,
       StatusCode::kOk, true, true, false},
      {"trip mid-exact without degradation", 2, false, false, false,
       StatusCode::kResourceExhausted, false, false, false},
      {"trip mid-exact under force_exact", 2, true, true, false,
       StatusCode::kResourceExhausted, false, false, false},
      {"cancellation mid-sampling", 0, true, false, true,
       StatusCode::kCancelled, false, false, false},
  };
  ReliabilityEngine engine = MakeEngine();
  for (const LadderScenario& scenario : kScenarios) {
    for (bool datalog : {false, true}) {
      SCOPED_TRACE(std::string(scenario.name) +
                   (datalog ? " (Datalog)" : " (first-order)"));
      StatusOr<EngineReport> report =
          RunLadderScenario(engine, scenario, datalog);
      ASSERT_EQ(report.status().code(), scenario.code)
          << report.status().ToString();
      if (!report.ok()) {
        continue;
      }
      EXPECT_EQ(report->degraded, scenario.degraded);
      EXPECT_EQ(report->partial, scenario.partial);
      EXPECT_EQ(report->is_exact, scenario.is_exact);
      EXPECT_EQ(report->method.rfind("Thm 5.12 padded estimator", 0), 0u)
          << report->method;
      EXPECT_NE(report->degradation_reason.find("RESOURCE_EXHAUSTED"),
                std::string::npos)
          << report->degradation_reason;
    }
  }
}

}  // namespace
}  // namespace qrel
