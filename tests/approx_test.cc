#include "qrel/core/approx.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "qrel/core/reliability.h"
#include "qrel/logic/parser.h"

namespace qrel {
namespace {

FormulaPtr MustParse(const std::string& text) {
  StatusOr<FormulaPtr> result = ParseFormula(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

UnreliableDatabase SmallDatabase() {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("S", 1);
  Structure observed(vocabulary, 3);
  observed.AddFact(0, {0, 1});
  observed.AddFact(0, {1, 2});
  observed.AddFact(1, {0});
  UnreliableDatabase db(std::move(observed));
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{0, {2, 2}}, Rational(1, 5));
  return db;
}

TEST(FptrasTest, RejectsNonExistentialQueries) {
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  EXPECT_FALSE(ExistentialProbabilityFptras(
                   MustParse("forall x . S(x)"), db, {}, options)
                   .ok());
}

TEST(FptrasTest, RejectsBadParameters) {
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  options.epsilon = 0.0;
  EXPECT_FALSE(ExistentialProbabilityFptras(MustParse("exists x . S(x)"),
                                            db, {}, options)
                   .ok());
  options.epsilon = 0.1;
  EXPECT_FALSE(ExistentialProbabilityFptras(MustParse("exists x . S(x)"),
                                            db, {0}, options)
                   .ok());
}

TEST(FptrasTest, CertainQueriesNeedNoSamples) {
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  // ∃x∃y E(x,y): E(1,2) is certainly true.
  ApproxResult result = *ExistentialProbabilityFptras(
      MustParse("exists x y . E(x, y)"), db, {}, options);
  EXPECT_EQ(result.estimate, 1.0);
  EXPECT_EQ(result.samples, 0u);
  // ∃x E(x,x) & S(#2)... E(2,2) uncertain but S(2) certainly false makes
  // a conjunct false; here choose a certainly-false query instead.
  result = *ExistentialProbabilityFptras(
      MustParse("exists x . E(x, x) & S(#2)"), db, {}, options);
  EXPECT_EQ(result.estimate, 0.0);
  EXPECT_EQ(result.samples, 0u);
}

TEST(FptrasTest, MatchesExactProbabilityWithinRelativeError) {
  UnreliableDatabase db = SmallDatabase();
  for (const std::string text : {
           "exists x . S(x)",
           "exists x . !S(x)",
           "exists x y . E(x, y) & S(y)",
           "exists x . E(x, x)",
           "exists x . S(x) & x != #0",
       }) {
    FormulaPtr query = MustParse(text);
    double exact = ExactQueryProbability(query, db, {})->ToDouble();
    ApproxOptions options;
    options.epsilon = 0.04;
    options.delta = 0.01;
    options.seed = 31337;
    ApproxResult result =
        *ExistentialProbabilityFptras(query, db, {}, options);
    if (exact == 0.0) {
      EXPECT_EQ(result.estimate, 0.0) << text;
    } else {
      EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon * exact)
          << text;
    }
  }
}

TEST(FptrasTest, FreeVariableInstantiation) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("exists y . E(x, y) & S(y)");
  ApproxOptions options;
  options.epsilon = 0.04;
  options.delta = 0.01;
  options.seed = 99;
  for (Element a = 0; a < 3; ++a) {
    double exact = ExactQueryProbability(query, db, {a})->ToDouble();
    ApproxResult result =
        *ExistentialProbabilityFptras(query, db, {a}, options);
    EXPECT_NEAR(result.estimate, exact,
                3 * options.epsilon * std::max(exact, 0.01))
        << "x = " << a;
  }
}

TEST(Cor55Test, RejectsGeneralQueries) {
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  EXPECT_FALSE(ReliabilityAbsoluteApprox(
                   MustParse("forall x . exists y . E(x, y)"), db, options)
                   .ok());
}

TEST(Cor55Test, ExistentialBooleanMatchesExactReliability) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("exists x . S(x)");
  double exact = ExactReliability(query, db)->reliability.ToDouble();
  ApproxOptions options;
  options.epsilon = 0.02;
  options.delta = 0.01;
  options.seed = 2718;
  ApproxResult result = *ReliabilityAbsoluteApprox(query, db, options);
  EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon);
}

TEST(Cor55Test, UniversalBooleanMatchesExactReliability) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("forall x . S(x) -> (exists y . E(x, y))");
  // Universal? NNF: ∀x (!S(x) | ∃y E(x,y)) — contains ∃, not universal!
  // Use a genuinely universal query instead.
  query = MustParse("forall x . S(x) | !E(x, x)");
  double exact = ExactReliability(query, db)->reliability.ToDouble();
  ApproxOptions options;
  options.epsilon = 0.02;
  options.delta = 0.01;
  options.seed = 1414;
  ApproxResult result = *ReliabilityAbsoluteApprox(query, db, options);
  EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon);
}

TEST(Cor55Test, UnaryQueryMatchesExactReliability) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("exists y . E(x, y)");
  double exact = ExactReliability(query, db)->reliability.ToDouble();
  ApproxOptions options;
  options.epsilon = 0.06;
  options.delta = 0.05;
  options.seed = 5;
  ApproxResult result = *ReliabilityAbsoluteApprox(query, db, options);
  EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon);
}

TEST(PaddedTest, SampleBoundFormula) {
  // t = ceil(9/(2 ξ ε²) ln(1/δ)).
  EXPECT_EQ(PaddedSampleBound(0.25, 1.0, 1.0 / std::exp(1.0)), 18u);
}

TEST(PaddedTest, RejectsBadXi) {
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  options.xi = 0.5;
  EXPECT_FALSE(
      PaddedReliabilityApprox(MustParse("S(#0)"), db, options).ok());
  options.xi = 0.0;
  EXPECT_FALSE(
      PaddedReliabilityApprox(MustParse("S(#0)"), db, options).ok());
}

TEST(PaddedTest, BooleanQueriesMatchExactReliability) {
  UnreliableDatabase db = SmallDatabase();
  for (const std::string text : {
           "exists x . S(x)",
           "forall x . S(x) | !E(x, x)",
           // General first-order (neither existential nor universal):
           "forall x . S(x) -> (exists y . E(x, y))",
       }) {
    FormulaPtr query = MustParse(text);
    double exact = ExactReliability(query, db)->reliability.ToDouble();
    ApproxOptions options;
    options.epsilon = 0.05;
    options.delta = 0.02;
    options.seed = 808;
    ApproxResult result = *PaddedReliabilityApprox(query, db, options);
    EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon) << text;
  }
}

TEST(PaddedTest, UnaryGeneralQueryMatchesExactReliability) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("forall y . E(x, y) -> (exists z . E(y, z))");
  double exact = ExactReliability(query, db)->reliability.ToDouble();
  ApproxOptions options;
  options.epsilon = 0.15;
  options.delta = 0.1;
  options.seed = 99;
  options.fixed_samples = 40000;  // keep the per-tuple budget tractable
  ApproxResult result = *PaddedReliabilityApprox(query, db, options);
  EXPECT_NEAR(result.estimate, exact, 0.05);
}

TEST(PaddedTest, XiAblationAllValuesConverge) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("exists x . S(x)");
  double exact = ExactReliability(query, db)->reliability.ToDouble();
  for (double xi : {0.05, 0.15, 0.25, 0.35, 0.45}) {
    ApproxOptions options;
    options.xi = xi;
    options.epsilon = 0.2;
    options.delta = 0.1;
    options.seed = 4242;
    options.fixed_samples = 200000;
    ApproxResult result = *PaddedReliabilityApprox(query, db, options);
    EXPECT_NEAR(result.estimate, exact, 0.03) << "xi = " << xi;
  }
}

// Boolean first-order padded runs recorded by the build before the
// first-order and Datalog estimators were merged (tuple-major loop, one
// world per sample). A Boolean query has one tuple, so the shared
// world-major loop draws Rd, Rc and the world in the same order and must
// reproduce every field bit for bit.
TEST(PaddedTest, BooleanRunsMatchTheRecordedResults) {
  struct Recorded {
    const char* query;
    uint64_t seed;
    double xi;
    uint64_t fixed_samples;  // 0: the theorem-derived plan
    double epsilon;
    double delta;
    const char* estimate;  // %a
    uint64_t samples;
    const char* achieved_epsilon;  // %a, or "-" when unset
    const char* method;
  };
  const Recorded kRecorded[] = {
      {"exists x . S(x)", 1, 0.25, 0, 0.2, 0.1, "0x1.c097854d19381p-1", 4145,
       "-", "Thm 5.12 padded estimator (xi=0.250000)"},
      {"exists x . S(x)", 808, 0.1, 500, 0.05, 0.05, "0x1.bbbbbbbbbbbbbp-1",
       500, "0x1.09da8c5127cc2p+0", "Thm 5.12 padded estimator (xi=0.100000)"},
      {"forall x . S(x) | !E(x, x)", 4242, 0.25, 3000, 0.05, 0.05,
       "0x1.91dcf4d98b095p-1", 3000, "0x1.129290f54785ap-2",
       "Thm 5.12 padded estimator (xi=0.250000)"},
      {"forall x . S(x) | !E(x, x)", 7, 0.45, 0, 0.3, 0.2,
       "0x1.c2bf95ad2a751p-1", 716, "-",
       "Thm 5.12 padded estimator (xi=0.450000)"},
      {"forall x . S(x) -> (exists y . E(x, y))", 99, 0.25, 0, 0.15, 0.1,
       "0x1.7b3f1394f43f1p-1", 7369, "-",
       "Thm 5.12 padded estimator (xi=0.250000)"},
      {"forall x . S(x) -> (exists y . E(x, y))", 11, 0.05, 1000, 0.1, 0.1,
       "0x1.dfa9c4b73dfa9p-1", 1000, "0x1.d2275341ba12p-1",
       "Thm 5.12 padded estimator (xi=0.050000)"},
      {"exists x y . E(x, y) & S(y)", 2024, 0.35, 0, 0.25, 0.05,
       "0x1.406cc92286f23p-1", 2466, "-",
       "Thm 5.12 padded estimator (xi=0.350000)"},
      {"exists x y . E(x, y) & S(y)", 3, 0.25, 64, 0.3, 0.3,
       "0x1.2aaaaaaaaaaaap-1", 64, "0x1.29efe4d5e00b5p+0",
       "Thm 5.12 padded estimator (xi=0.250000)"},
  };
  auto hex = [](double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    return std::string(buffer);
  };
  UnreliableDatabase db = SmallDatabase();
  for (const Recorded& recorded : kRecorded) {
    SCOPED_TRACE(std::string(recorded.query) + " seed " +
                 std::to_string(recorded.seed));
    ApproxOptions options;
    options.seed = recorded.seed;
    options.xi = recorded.xi;
    options.epsilon = recorded.epsilon;
    options.delta = recorded.delta;
    if (recorded.fixed_samples > 0) {
      options.fixed_samples = recorded.fixed_samples;
    }
    StatusOr<ApproxResult> result =
        PaddedReliabilityApprox(MustParse(recorded.query), db, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(hex(result->estimate), recorded.estimate);
    EXPECT_EQ(result->samples, recorded.samples);
    EXPECT_EQ(result->achieved_epsilon.has_value()
                  ? hex(*result->achieved_epsilon)
                  : std::string("-"),
              recorded.achieved_epsilon);
    EXPECT_EQ(result->method, recorded.method);
    EXPECT_FALSE(result->truncated);
  }
}

// Each sampled world counts for every tuple, so a budget trip keeps a
// usable prefix at any arity: the estimate comes back marked truncated
// with the error bar its samples buy. Without allow_truncation the trip
// is the run's status.
TEST(PaddedTest, WorkBudgetTruncatesMidRunAtEveryArity) {
  UnreliableDatabase db = SmallDatabase();
  for (const std::string text :
       {"forall x . S(x) -> (exists y . E(x, y))",
        "forall y . E(x, y) -> (exists z . E(y, z))"}) {
    SCOPED_TRACE(text);
    ApproxOptions options;
    options.seed = 3;
    options.fixed_samples = 1000;
    options.allow_truncation = true;
    // One work unit per sample: the 301st sample trips the budget.
    RunContext ctx = RunContext::WithWorkBudget(300);
    options.run_context = &ctx;
    StatusOr<ApproxResult> result =
        PaddedReliabilityApprox(MustParse(text), db, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->truncated);
    EXPECT_EQ(result->samples, 300u);
    ASSERT_TRUE(result->achieved_epsilon.has_value());
    EXPECT_GT(*result->achieved_epsilon, options.epsilon);
    EXPECT_GE(result->estimate, 0.0);
    EXPECT_LE(result->estimate, 1.0);

    RunContext strict = RunContext::WithWorkBudget(300);
    options.run_context = &strict;
    options.allow_truncation = false;
    EXPECT_EQ(PaddedReliabilityApprox(MustParse(text), db, options)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted);
  }
}

TEST(ApproxTest, DeterministicForFixedSeed) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("exists x . S(x)");
  ApproxOptions options;
  options.seed = 11;
  ApproxResult a = *ExistentialProbabilityFptras(query, db, {}, options);
  ApproxResult b = *ExistentialProbabilityFptras(query, db, {}, options);
  EXPECT_EQ(a.estimate, b.estimate);
  ApproxResult c = *PaddedReliabilityApprox(query, db, options);
  ApproxResult d = *PaddedReliabilityApprox(query, db, options);
  EXPECT_EQ(c.estimate, d.estimate);
}

}  // namespace
}  // namespace qrel
