#include "qrel/core/reliability.h"

#include <memory>

#include <gtest/gtest.h>

#include "qrel/logic/parser.h"
#include "qrel/util/rng.h"

namespace qrel {
namespace {

FormulaPtr MustParse(const std::string& text) {
  StatusOr<FormulaPtr> result = ParseFormula(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

// E = {(0,1), (1,2)}, S = {0} over universe {0, 1, 2}.
UnreliableDatabase SmallDatabase() {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("S", 1);
  Structure observed(vocabulary, 3);
  observed.AddFact(0, {0, 1});
  observed.AddFact(0, {1, 2});
  observed.AddFact(1, {0});
  return UnreliableDatabase(std::move(observed));
}

TEST(ExactReliabilityTest, CertainDatabaseIsPerfectlyReliable) {
  UnreliableDatabase db = SmallDatabase();
  ReliabilityReport report =
      *ExactReliability(MustParse("exists x . S(x)"), db);
  EXPECT_TRUE(report.expected_error.IsZero());
  EXPECT_TRUE(report.reliability.IsOne());
}

TEST(ExactReliabilityTest, BooleanQueryHandComputed) {
  // ψ = S(#0); μ(S(0)) = 1/4. ψ^𝔄 = true; wrong iff flipped: H = 1/4.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  ReliabilityReport report = *ExactReliability(MustParse("S(#0)"), db);
  EXPECT_EQ(report.arity, 0);
  EXPECT_EQ(report.expected_error, Rational(1, 4));
  EXPECT_EQ(report.reliability, Rational(3, 4));
}

TEST(ExactReliabilityTest, ExistentialHandComputed) {
  // ψ = ∃x S(x) with μ(S(0)) = 1/4, μ(S(1)) = 1/2 (S(1) observed false).
  // ψ^𝔄 = true. ψ^𝔅 false iff S(0) flipped (prob 1/4) and S(1) not
  // flipped (prob 1/2): H = 1/8.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  ReliabilityReport report =
      *ExactReliability(MustParse("exists x . S(x)"), db);
  EXPECT_EQ(report.expected_error, Rational(1, 8));
  EXPECT_EQ(report.reliability, Rational(7, 8));
  EXPECT_EQ(report.work_units, 4u);
}

TEST(ExactReliabilityTest, UnaryQueryAveragesOverTuples) {
  // ψ(x) = S(x), n = 3, μ(S(0)) = 1/4: only tuple (0) can err.
  // H = 1/4, R = 1 - (1/4)/3 = 11/12.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  ReliabilityReport report = *ExactReliability(MustParse("S(x)"), db);
  EXPECT_EQ(report.arity, 1);
  EXPECT_EQ(report.expected_error, Rational(1, 4));
  EXPECT_EQ(report.reliability, Rational(11, 12));
}

TEST(ExactReliabilityTest, BinaryQueryNormalizesByNSquared) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 2));
  ReliabilityReport report = *ExactReliability(MustParse("E(x, y)"), db);
  EXPECT_EQ(report.arity, 2);
  EXPECT_EQ(report.expected_error, Rational(1, 2));
  EXPECT_EQ(report.reliability, Rational(1) - Rational(1, 18));
}

TEST(ExactQueryProbabilityTest, MatchesHandComputation) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  // Pr[∃x S(x)] = 1 - Pr[S(0) flips]·Pr[S(1) stays false] = 1 - 1/8.
  EXPECT_EQ(*ExactQueryProbability(MustParse("exists x . S(x)"), db, {}),
            Rational(7, 8));
  // Free variable version.
  EXPECT_EQ(*ExactQueryProbability(MustParse("S(x)"), db, {0}),
            Rational(3, 4));
  EXPECT_EQ(*ExactQueryProbability(MustParse("S(x)"), db, {1}),
            Rational(1, 2));
  EXPECT_EQ(*ExactQueryProbability(MustParse("S(x)"), db, {2}), Rational(0));
}

TEST(ExactScaledProbabilityTest, GTimesProbabilityIsInteger) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(3, 7));
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 6));
  ScaledProbability scaled =
      *ExactScaledProbability(MustParse("exists x . S(x)"), db, {});
  EXPECT_EQ(scaled.g.ToInt64(), 4 * 7 * 6);
  // Cross-check: probability recovered from the integer equals the exact
  // probability.
  Rational probability =
      *ExactQueryProbability(MustParse("exists x . S(x)"), db, {});
  EXPECT_EQ(Rational(scaled.g_times_probability, scaled.g), probability);
}

TEST(QuantifierFreeReliabilityTest, RejectsQuantifiedQueries) {
  UnreliableDatabase db = SmallDatabase();
  EXPECT_FALSE(QuantifierFreeReliability(MustParse("exists x . S(x)"), db)
                   .ok());
}

TEST(QuantifierFreeReliabilityTest, HandComputedBoolean) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  ReliabilityReport report =
      *QuantifierFreeReliability(MustParse("S(#0)"), db);
  EXPECT_EQ(report.expected_error, Rational(1, 4));
  EXPECT_EQ(report.reliability, Rational(3, 4));
}

TEST(QuantifierFreeReliabilityTest, SharedAtomAcrossLiterals) {
  // ψ = S(#0) | !S(#0) is a tautology: always reliable even though the
  // atom is uncertain.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 3));
  ReliabilityReport report =
      *QuantifierFreeReliability(MustParse("S(#0) | !S(#0)"), db);
  EXPECT_TRUE(report.expected_error.IsZero());
}

TEST(QuantifierFreeReliabilityTest, MatchesExactEnumerationOnRandomInputs) {
  // The Prop 3.1 fast path must agree exactly with world enumeration.
  Rng rng(424242);
  const std::vector<std::string> queries = {
      "S(x)",
      "E(x, y) & S(x)",
      "E(x, y) | (S(x) & !S(y))",
      "S(x) -> E(x, x)",
      "(S(x) <-> S(y)) & E(x, y)",
      "E(x, x) & x = y | S(#1)",
  };
  for (const std::string& text : queries) {
    UnreliableDatabase db = SmallDatabase();
    // Randomize errors over a handful of atoms.
    for (Element i = 0; i < 3; ++i) {
      if (rng.NextBernoulli(0.7)) {
        db.SetErrorProbability(
            GroundAtom{1, {i}},
            Rational(static_cast<int64_t>(rng.NextBelow(5)), 5));
      }
      for (Element j = 0; j < 3; ++j) {
        if (rng.NextBernoulli(0.4)) {
          db.SetErrorProbability(
              GroundAtom{0, {i, j}},
              Rational(static_cast<int64_t>(rng.NextBelow(4)), 4));
        }
      }
    }
    FormulaPtr query = MustParse(text);
    ReliabilityReport fast = *QuantifierFreeReliability(query, db);
    ReliabilityReport exact = *ExactReliability(query, db);
    EXPECT_EQ(fast.expected_error, exact.expected_error) << text;
    EXPECT_EQ(fast.reliability, exact.reliability) << text;
  }
}

TEST(QuantifierFreeReliabilityTest, WorkIsPolynomialWhileExactIsExponential) {
  // With u uncertain atoms spread over the database, the QF algorithm
  // only ever looks at the atoms of ψ(ā) (here: one per tuple), while
  // exact enumeration visits all 2^u worlds.
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("S", 1);
  const int n = 12;
  Structure observed(vocabulary, n);
  UnreliableDatabase db(std::move(observed));
  for (Element i = 0; i < n; ++i) {
    db.SetErrorProbability(GroundAtom{0, {i}}, Rational(1, 2));
  }
  FormulaPtr query = MustParse("S(x)");
  ReliabilityReport fast = *QuantifierFreeReliability(query, db);
  ReliabilityReport exact = *ExactReliability(query, db);
  EXPECT_EQ(fast.expected_error, exact.expected_error);
  EXPECT_EQ(fast.work_units, static_cast<uint64_t>(n) * 2);  // n tuples × 2
  EXPECT_EQ(exact.work_units, uint64_t{1} << n);
  // H = n/2 (each tuple errs with probability 1/2), R = 1 - 1/2.
  EXPECT_EQ(fast.reliability, Rational(1, 2));
}

TEST(ExactReliabilityTest, RefusesHugeSupports) {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("S", 1);
  Structure observed(vocabulary, 70);
  UnreliableDatabase db(std::move(observed));
  for (Element i = 0; i < 70; ++i) {
    db.SetErrorProbability(GroundAtom{0, {i}}, Rational(1, 2));
  }
  EXPECT_FALSE(ExactReliability(MustParse("exists x . S(x)"), db).ok());
}

}  // namespace
}  // namespace qrel

namespace qrel {
namespace {

TEST(PerTupleExpectedErrorTest, QuantifierFreeBreakdownSumsToH) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 3));
  FormulaPtr query = MustParse("S(x)");
  std::vector<TupleError> breakdown = *PerTupleExpectedError(query, db);
  ASSERT_EQ(breakdown.size(), 3u);
  EXPECT_EQ(breakdown[0].tuple, (Tuple{0}));
  EXPECT_TRUE(breakdown[0].observed);
  EXPECT_EQ(breakdown[0].error, Rational(1, 4));
  EXPECT_FALSE(breakdown[1].observed);
  EXPECT_EQ(breakdown[1].error, Rational(1, 3));
  EXPECT_TRUE(breakdown[2].error.IsZero());

  Rational total;
  for (const TupleError& entry : breakdown) {
    total += entry.error;
  }
  ReliabilityReport report = *QuantifierFreeReliability(query, db);
  EXPECT_EQ(total, report.expected_error);
}

TEST(PerTupleExpectedErrorTest, QuantifiedBreakdownSumsToH) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  FormulaPtr query = MustParse("exists y . E(x, y) & S(y)");
  std::vector<TupleError> breakdown = *PerTupleExpectedError(query, db);
  ASSERT_EQ(breakdown.size(), 3u);
  Rational total;
  for (const TupleError& entry : breakdown) {
    total += entry.error;
  }
  ReliabilityReport report = *ExactReliability(query, db);
  EXPECT_EQ(total, report.expected_error);
}

// Under a work budget of one unit, the second enumerated world trips the
// envelope: the enumeration stops with the budget status instead of
// running to the end.
TEST(ExactQueryProbabilityTest, WorkBudgetStopsTheEnumeration) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  RunContext starved = RunContext::WithWorkBudget(1);
  StatusOr<Rational> probability =
      ExactQueryProbability(MustParse("exists x . S(x)"), db, {}, &starved);
  EXPECT_EQ(probability.status().code(), StatusCode::kResourceExhausted);
  RunContext scaled_starved = RunContext::WithWorkBudget(1);
  EXPECT_EQ(ExactScaledProbability(MustParse("exists x . S(x)"), db, {},
                                   &scaled_starved)
                .status()
                .code(),
            StatusCode::kResourceExhausted);

  // With room for every world, the budgeted run answers as the ungoverned
  // one and charges one unit per world.
  RunContext roomy = RunContext::WithWorkBudget(4);
  EXPECT_EQ(*ExactQueryProbability(MustParse("exists x . S(x)"), db, {},
                                   &roomy),
            Rational(7, 8));
  EXPECT_EQ(roomy.work_spent(), 4u);
}

TEST(PerTupleExpectedErrorTest, WorkBudgetStopsTheBreakdown) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  for (const char* text : {"exists y . E(x, y) & S(y)", "S(x)"}) {
    RunContext starved = RunContext::WithWorkBudget(1);
    EXPECT_EQ(PerTupleExpectedError(MustParse(text), db, &starved)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted)
        << text;
  }
  // Ungoverned and generously budgeted runs give the same rows.
  FormulaPtr query = MustParse("exists y . E(x, y) & S(y)");
  std::vector<TupleError> free = *PerTupleExpectedError(query, db);
  RunContext roomy = RunContext::WithWorkBudget(1000);
  std::vector<TupleError> governed = *PerTupleExpectedError(query, db, &roomy);
  ASSERT_EQ(free.size(), governed.size());
  for (size_t i = 0; i < free.size(); ++i) {
    EXPECT_EQ(free[i].tuple, governed[i].tuple);
    EXPECT_EQ(free[i].observed, governed[i].observed);
    EXPECT_EQ(free[i].error, governed[i].error);
  }
  EXPECT_EQ(roomy.work_spent(), 4u);  // one unit per world
}

TEST(PerTupleExpectedErrorTest, BooleanQueryHasSingleRow) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  std::vector<TupleError> breakdown =
      *PerTupleExpectedError(MustParse("exists x . S(x)"), db);
  ASSERT_EQ(breakdown.size(), 1u);
  EXPECT_TRUE(breakdown[0].tuple.empty());
  EXPECT_EQ(breakdown[0].error,
            ExactReliability(MustParse("exists x . S(x)"), db)
                ->expected_error);
}

}  // namespace
}  // namespace qrel
