#include "qrel/logic/grounding.h"

#include <memory>

#include <gtest/gtest.h>

#include "qrel/logic/eval.h"
#include "qrel/logic/parser.h"

namespace qrel {
namespace {

// Builds the database of unreliable_database_test with configurable errors.
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

PrenexExistential MustPrenex(const std::string& text) {
  StatusOr<FormulaPtr> formula = ParseFormula(text);
  EXPECT_TRUE(formula.ok()) << formula.status().ToString();
  StatusOr<PrenexExistential> prenex = ToPrenexExistential(*formula);
  EXPECT_TRUE(prenex.ok()) << prenex.status().ToString();
  return std::move(prenex).value();
}

// Evaluates the ground DNF in a world (flips bitset over entry ids).
bool EvalGroundDnf(const GroundDnf& dnf, const UnreliableDatabase& db,
                   const World& world) {
  if (dnf.certainly_true) return true;
  for (const std::vector<GroundLiteral>& term : dnf.terms) {
    bool all = true;
    for (const GroundLiteral& literal : term) {
      const GroundAtom& atom = db.model().atom(literal.entry);
      bool observed = db.observed().AtomTrue(atom.relation, atom.args);
      bool actual = world.Flipped(literal.entry) ? !observed : observed;
      if (actual != literal.positive) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

TEST(GroundingTest, CertainDatabaseYieldsConstantFormula) {
  UnreliableDatabase db = SmallDatabase();
  // ∃x∃y E(x,y) holds in the (certain) observed database.
  GroundDnf dnf =
      *GroundExistential(MustPrenex("exists x y . E(x, y)"), db, {});
  EXPECT_TRUE(dnf.certainly_true);

  // ∃x S(x) & E(x, x): no witness and nothing uncertain -> empty DNF.
  GroundDnf none =
      *GroundExistential(MustPrenex("exists x . S(x) & E(x, x)"), db, {});
  EXPECT_FALSE(none.certainly_true);
  EXPECT_TRUE(none.terms.empty());
}

TEST(GroundingTest, UncertainAtomsBecomeVariables) {
  UnreliableDatabase db = SmallDatabase();
  int s1 = db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  int s2 = db.SetErrorProbability(GroundAtom{1, {2}}, Rational(1, 3));

  // ∃x S(x) — S(0) is certainly true, so the query is certainly true.
  GroundDnf always = *GroundExistential(MustPrenex("exists x . S(x)"), db, {});
  EXPECT_TRUE(always.certainly_true);

  // ∃x (S(x) & x != #0): only the uncertain S(1), S(2) matter.
  GroundDnf dnf = *GroundExistential(
      MustPrenex("exists x . S(x) & x != #0"), db, {});
  EXPECT_FALSE(dnf.certainly_true);
  ASSERT_EQ(dnf.terms.size(), 2u);
  EXPECT_EQ(dnf.Width(), 1);
  EXPECT_EQ(dnf.terms[0][0].entry, s1);
  EXPECT_TRUE(dnf.terms[0][0].positive);
  EXPECT_EQ(dnf.terms[1][0].entry, s2);
}

TEST(GroundingTest, NegativeLiteralsSupported) {
  UnreliableDatabase db = SmallDatabase();
  int s0 = db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  GroundDnf dnf =
      *GroundExistential(MustPrenex("exists x . !S(x) & x = #0"), db, {});
  ASSERT_EQ(dnf.terms.size(), 1u);
  EXPECT_EQ(dnf.terms[0][0].entry, s0);
  EXPECT_FALSE(dnf.terms[0][0].positive);
}

TEST(GroundingTest, WidthIsIndependentOfDatabaseSize) {
  // ψ = ∃x∃y (E(x,y) & S(x) & S(y)) has width ≤ 3 whatever the database.
  PrenexExistential prenex =
      MustPrenex("exists x y . E(x, y) & S(x) & S(y)");
  for (int n : {3, 5, 8}) {
    auto vocabulary = std::make_shared<Vocabulary>();
    vocabulary->AddRelation("E", 2);
    vocabulary->AddRelation("S", 1);
    Structure observed(vocabulary, n);
    UnreliableDatabase db(std::move(observed));
    for (Element i = 0; i < n; ++i) {
      db.SetErrorProbability(GroundAtom{1, {i}}, Rational(1, 2));
      for (Element j = 0; j < n; ++j) {
        db.SetErrorProbability(GroundAtom{0, {i, j}}, Rational(1, 3));
      }
    }
    GroundDnf dnf = *GroundExistential(prenex, db, {});
    EXPECT_LE(dnf.Width(), 3) << n;
    // n^2 assignments, one term each (atoms all uncertain and distinct,
    // except x == y merging S(x), S(y)).
    EXPECT_EQ(dnf.terms.size(), static_cast<size_t>(n) * n);
  }
}

TEST(GroundingTest, FreeVariablesGroundedThroughAssignment) {
  UnreliableDatabase db = SmallDatabase();
  int s1 = db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  PrenexExistential prenex = MustPrenex("exists y . E(x, y) & S(y)");
  // x = 0: E(0,1) certain true, S(1) uncertain -> one unit term.
  GroundDnf dnf0 = *GroundExistential(prenex, db, {0});
  ASSERT_EQ(dnf0.terms.size(), 1u);
  EXPECT_EQ(dnf0.terms[0][0].entry, s1);
  // x = 2: no certain E(2,·) and no uncertain E -> false.
  GroundDnf dnf2 = *GroundExistential(prenex, db, {2});
  EXPECT_TRUE(dnf2.terms.empty());
  EXPECT_FALSE(dnf2.certainly_true);
}

TEST(GroundingTest, RejectsWrongAssignmentLength) {
  UnreliableDatabase db = SmallDatabase();
  PrenexExistential prenex = MustPrenex("exists y . E(x, y)");
  EXPECT_FALSE(GroundExistential(prenex, db, {}).ok());
  EXPECT_FALSE(GroundExistential(prenex, db, {0, 1}).ok());
}

TEST(GroundingTest, RejectsConstantOutsideUniverse) {
  UnreliableDatabase db = SmallDatabase();
  PrenexExistential prenex = MustPrenex("exists x . E(x, #7)");
  EXPECT_FALSE(GroundExistential(prenex, db, {}).ok());
}

TEST(GroundingTest, ChargesOneUnitPerVisitedBindingAndTerm) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  PrenexExistential prenex = MustPrenex("exists y . E(x, y) & S(y)");
  // x = 0: the join visits E's one candidate E(0,1) and emits S(1).
  RunContext ctx;
  ASSERT_EQ(GroundExistential(prenex, db, {0}, size_t{1} << 22, &ctx)
                ->terms.size(),
            1u);
  EXPECT_EQ(ctx.work_spent(), 2u);
  // x = 2: E(2,·) has no candidate, so nothing is visited.
  RunContext empty;
  EXPECT_TRUE(GroundExistential(prenex, db, {2}, size_t{1} << 22, &empty)
                  ->terms.empty());
  EXPECT_EQ(empty.work_spent(), 0u);
  // No bound variable: the empty binding is visited once.
  RunContext unit;
  EXPECT_EQ(GroundExistential(MustPrenex("S(x)"), db, {1}, size_t{1} << 22,
                              &unit)
                ->terms.size(),
            1u);
  EXPECT_EQ(unit.work_spent(), 2u);
  // A budget below the charge stops the grounding with the budget status.
  RunContext starved = RunContext::WithWorkBudget(1);
  EXPECT_EQ(GroundExistential(prenex, db, {0}, size_t{1} << 22, &starved)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(GroundingTest, GroundDnfAgreesWithQueryOnEveryWorld) {
  // The grounded formula ψ'' must hold in a world iff ψ does (the
  // correctness claim inside Theorem 5.4), exhaustively over all worlds.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{0, {2, 0}}, Rational(1, 2));
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {2}}, Rational(2, 5));

  for (const std::string text : {
           "exists x y . E(x, y) & S(y)",
           "exists x . S(x)",
           "exists x . !S(x)",
           "exists x y . E(x, y) & !S(x) & x != y",
           "exists x . (S(x) | !E(x, x)) & x = #2",
       }) {
    StatusOr<FormulaPtr> formula = ParseFormula(text);
    ASSERT_TRUE(formula.ok());
    PrenexExistential prenex = *ToPrenexExistential(*formula);
    GroundDnf dnf = *GroundExistential(prenex, db, {});
    CompiledQuery query =
        std::move(CompiledQuery::Compile(*formula, db.vocabulary())).value();
    db.ForEachWorld([&](const World& world, const Rational&) {
      WorldView view(db, world);
      EXPECT_EQ(EvalGroundDnf(dnf, db, world), query.Eval(view, {}))
          << text;
    });
  }
}

}  // namespace
}  // namespace qrel
