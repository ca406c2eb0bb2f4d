// Cross-check suite for the extensional (lifted) evaluator: on every safe
// query it must agree bit-for-bit — exact rationals, not within-epsilon —
// with the Theorem 4.2 possible-world enumeration, including at the
// boundary marginals 0 and 1.

#include "qrel/lifted/extensional.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/core/reliability.h"
#include "qrel/logic/parser.h"
#include "qrel/util/rng.h"

namespace qrel {
namespace {

FormulaPtr MustParse(const std::string& text) {
  StatusOr<FormulaPtr> result = ParseFormula(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

std::shared_ptr<Vocabulary> TestVocabulary() {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("S", 1);
  vocabulary->AddRelation("T", 1);
  vocabulary->AddRelation("E2", 2);
  return vocabulary;
}

// E = {(0,1), (1,2)}, S = {0}, T = {2} over universe {0, 1, 2}.
UnreliableDatabase SmallDatabase() {
  Structure observed(TestVocabulary(), 3);
  observed.AddFact(0, {0, 1});
  observed.AddFact(0, {1, 2});
  observed.AddFact(1, {0});
  observed.AddFact(2, {2});
  return UnreliableDatabase(std::move(observed));
}

UnreliableDatabase SmallUncertainDatabase() {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{0, {2, 0}}, Rational(1, 5));  // absent
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));  // absent
  db.SetErrorProbability(GroundAtom{2, {2}}, Rational(2, 7));
  return db;
}

// Safe queries exercising every plan shape: single atom, hierarchy,
// disjoint components, free variables, repeated variables, equality
// substitution, and a residual equality leaf.
const char* const kSafeQueries[] = {
    "exists x . S(x)",
    "exists x . S(x) & T(x)",
    "exists x . exists y . E(x, y) & S(y)",
    "exists x . exists y . S(x) & T(y)",
    "exists x . S(x) & E(x, y)",
    "exists y . E(x, y)",
    "exists x . E(x, x)",
    "exists x . x = #1 & S(x)",
    "exists x . x = y & E(x, y)",
    // Constants inside atoms, a ground atom beside a project, and two
    // free variables (one with a residual equality leaf).
    "exists y . E(#0, y) & S(y)",
    "exists x . S(x) & T(#1)",
    "exists z . E(x, z) & S(z) & T(y)",
    "exists z . E(x, z) & T(z) & x = y",
    "exists z . E(z, x) & E2(z, y)",
    // Projects whose first atom also holds a variable projected deeper.
    "exists x . exists y . E(x, y)",
    "exists x y z . E2(x, y) & E(x, z)",
};

// Every free-variable assignment over db's universe, in tuple-space order.
std::vector<Tuple> AllAssignments(const FormulaPtr& query,
                                  const UnreliableDatabase& db) {
  size_t arity = query->FreeVariables().size();
  std::vector<Tuple> tuples;
  Tuple tuple(arity, 0);
  do {
    tuples.push_back(tuple);
  } while (AdvanceTuple(&tuple, db.universe_size()));
  return tuples;
}

void ExpectBitIdentical(const FormulaPtr& query, const UnreliableDatabase& db,
                        const std::string& label) {
  StatusOr<ReliabilityReport> lifted = ExtensionalReliability(query, db);
  ASSERT_TRUE(lifted.ok()) << label << ": " << lifted.status().ToString();
  StatusOr<ReliabilityReport> enumerated = ExactReliability(query, db);
  ASSERT_TRUE(enumerated.ok())
      << label << ": " << enumerated.status().ToString();
  EXPECT_EQ(lifted->arity, enumerated->arity) << label;
  EXPECT_EQ(lifted->expected_error, enumerated->expected_error) << label;
  EXPECT_EQ(lifted->reliability, enumerated->reliability) << label;

  for (const Tuple& tuple : AllAssignments(query, db)) {
    StatusOr<Rational> p = ExtensionalQueryProbability(query, db, tuple);
    ASSERT_TRUE(p.ok()) << label << ": " << p.status().ToString();
    StatusOr<Rational> q = ExactQueryProbability(query, db, tuple);
    ASSERT_TRUE(q.ok()) << label << ": " << q.status().ToString();
    EXPECT_EQ(*p, *q) << label;
  }
}

TEST(ExtensionalTest, MatchesWorldEnumerationOnHandBuiltDatabase) {
  UnreliableDatabase db = SmallUncertainDatabase();
  for (const char* query : kSafeQueries) {
    ExpectBitIdentical(MustParse(query), db, query);
  }
}

TEST(ExtensionalTest, CertainDatabaseIsPerfectlyReliable) {
  UnreliableDatabase db = SmallDatabase();
  ReliabilityReport report =
      *ExtensionalReliability(MustParse("exists x . S(x) & T(x)"), db);
  EXPECT_TRUE(report.expected_error.IsZero());
  EXPECT_TRUE(report.reliability.IsOne());
}

TEST(ExtensionalTest, HandComputedExistential) {
  // ψ = ∃x S(x); μ(S(0)) = 1/3 (observed true), μ(S(1)) = 1/2 (observed
  // false). ψ^𝔄 = true; ψ^𝔅 false iff S(0) flips and S(1) does not:
  // H = 1/3 · 1/2 = 1/6.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  ReliabilityReport report =
      *ExtensionalReliability(MustParse("exists x . S(x)"), db);
  EXPECT_EQ(report.arity, 0);
  EXPECT_EQ(report.expected_error, Rational(1, 6));
  EXPECT_EQ(report.reliability, Rational(5, 6));
}

TEST(ExtensionalTest, RandomizedDatabasesMatchBitForBit) {
  // Fuzz the marginals: random databases whose error probabilities are
  // drawn from {0, 1/4, 1/2, 3/4, 1} — deliberately including both
  // boundary values, where an off-by-one in the complement arithmetic or
  // a dropped certain atom would show up. Every round also holds a μ = 0
  // entry and an absent atom with μ = 1, which is certainly true only
  // through its entry. Universes reach 8 elements with most atoms
  // certain, so projects skip most values.
  Rng rng(20260807);
  for (int round = 0; round < 48; ++round) {
    const int n = round < 32 ? 2 + static_cast<int>(rng.NextBelow(2))
                             : 4 + static_cast<int>(rng.NextBelow(5));
    Structure observed(TestVocabulary(), n);
    for (int a = 0; a < n; ++a) {
      if (rng.NextBelow(2) == 0) observed.AddFact(1, {a});
      if (rng.NextBelow(2) == 0) observed.AddFact(2, {a});
      for (int b = 0; b < n; ++b) {
        if (rng.NextBelow(static_cast<uint64_t>(n)) == 0) {
          observed.AddFact(0, {a, b});
        }
        if (rng.NextBelow(static_cast<uint64_t>(n)) == 0) {
          observed.AddFact(3, {a, b});
        }
      }
    }
    auto random_atom = [&]() {
      GroundAtom atom;
      atom.relation = static_cast<int>(rng.NextBelow(4));
      int arity = atom.relation == 0 || atom.relation == 3 ? 2 : 1;
      for (int j = 0; j < arity; ++j) {
        atom.args.push_back(static_cast<Element>(
            rng.NextBelow(static_cast<uint64_t>(n))));
      }
      return atom;
    };
    GroundAtom certainly_true = random_atom();
    while (observed.AtomTrue(certainly_true.relation, certainly_true.args)) {
      certainly_true = random_atom();
    }
    UnreliableDatabase db(std::move(observed));
    // Perturb a handful of atoms (present or absent alike), keeping the
    // uncertain count far below the 2^u enumeration ceiling.
    for (int i = 0; i < 6; ++i) {
      db.SetErrorProbability(random_atom(),
                             Rational(static_cast<int>(rng.NextBelow(5)), 4));
    }
    db.SetErrorProbability(random_atom(), Rational(0));
    db.SetErrorProbability(certainly_true, Rational(1));
    for (const char* query : kSafeQueries) {
      ExpectBitIdentical(MustParse(query), db,
                         "round " + std::to_string(round) + " (n = " +
                             std::to_string(n) + "): " + query);
    }
  }
}

TEST(ExtensionalTest, UnsafeQueryIsRefused) {
  UnreliableDatabase db = SmallUncertainDatabase();
  for (const char* query :
       {"exists x . exists y . E(x, y) & E(y, x)",       // self-join
        "exists x . exists y . S(x) & E(x, y) & T(y)",   // not hierarchical
        "S(x) & T(x)",                                   // quantifier-free
        "exists x . S(x) | T(x)"}) {                     // not conjunctive
    StatusOr<ReliabilityReport> result =
        ExtensionalReliability(MustParse(query), db);
    ASSERT_FALSE(result.ok()) << query;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << query;
  }
}

TEST(ExtensionalTest, UnknownRelationIsRefused) {
  UnreliableDatabase db = SmallUncertainDatabase();
  StatusOr<ReliabilityReport> result =
      ExtensionalReliability(MustParse("exists x . Zap(x)"), db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExtensionalTest, WorkBudgetTripsTheRun) {
  UnreliableDatabase db = SmallUncertainDatabase();
  RunContext ctx = RunContext::WithWorkBudget(2);
  StatusOr<ReliabilityReport> result = ExtensionalReliability(
      MustParse("exists x . exists y . E(x, y) & S(y)"), db, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(ctx.work_spent(), 0u);
}

TEST(ExtensionalTest, ChargesWorkProportionalToPlanSize) {
  UnreliableDatabase db = SmallUncertainDatabase();
  RunContext ctx;
  ReliabilityReport report = *ExtensionalReliability(
      MustParse("exists x . exists y . E(x, y) & S(y)"), db, &ctx);
  EXPECT_GT(report.work_units, 0u);
  EXPECT_EQ(ctx.work_spent(), report.work_units);
}

}  // namespace
}  // namespace qrel
