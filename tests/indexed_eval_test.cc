// The possible-facts evaluator against a domain scan: on every case of
// fo_golden_cases.h, CompiledQuery::Eval through an IndexedWorld must
// agree, in every enumerated world (or 128 sampled ones) and on every
// answer tuple, with a test-local evaluator that loops every quantifier
// over the universe and reads atoms through a WorldView.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fo_golden_cases.h"
#include "qrel/logic/eval.h"
#include "qrel/prob/possible_facts.h"

namespace qrel {
namespace {

// ψ on `oracle` by definition: quantifiers over {0..n-1}, atoms one
// oracle call each.
class DomainScan {
 public:
  explicit DomainScan(const AtomOracle& oracle) : oracle_(oracle) {}

  bool Eval(const Formula& formula, const std::vector<std::string>& free,
            const Tuple& assignment) {
    bindings_.clear();
    for (size_t i = 0; i < free.size(); ++i) {
      bindings_.emplace_back(free[i], assignment[i]);
    }
    return Holds(formula);
  }

 private:
  Element Value(const Term& term) const {
    if (!term.is_variable()) {
      return term.constant;
    }
    for (size_t i = bindings_.size(); i-- > 0;) {
      if (bindings_[i].first == term.variable) {
        return bindings_[i].second;
      }
    }
    ADD_FAILURE() << "unbound variable " << term.variable;
    return 0;
  }

  bool Holds(const Formula& f) {
    switch (f.kind) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kAtom: {
        Tuple args;
        for (const Term& term : f.args) args.push_back(Value(term));
        return oracle_.AtomTrue(*oracle_.vocabulary().FindRelation(f.relation),
                                args);
      }
      case FormulaKind::kEquals:
        return Value(f.args[0]) == Value(f.args[1]);
      case FormulaKind::kNot:
        return !Holds(*f.children[0]);
      case FormulaKind::kAnd:
        for (const FormulaPtr& child : f.children) {
          if (!Holds(*child)) return false;
        }
        return true;
      case FormulaKind::kOr:
        for (const FormulaPtr& child : f.children) {
          if (Holds(*child)) return true;
        }
        return false;
      case FormulaKind::kImplies:
        return !Holds(*f.children[0]) || Holds(*f.children[1]);
      case FormulaKind::kIff:
        return Holds(*f.children[0]) == Holds(*f.children[1]);
      case FormulaKind::kExists:
      case FormulaKind::kForAll: {
        const bool exists = f.kind == FormulaKind::kExists;
        bindings_.emplace_back(f.bound_variable, 0);
        bool result = !exists;
        for (Element v = 0; v < oracle_.universe_size(); ++v) {
          bindings_.back().second = v;
          if (Holds(*f.children[0]) == exists) {
            result = exists;
            break;
          }
        }
        bindings_.pop_back();
        return result;
      }
    }
    ADD_FAILURE() << "unknown formula kind";
    return false;
  }

  const AtomOracle& oracle_;
  std::vector<std::pair<std::string, Element>> bindings_;
};

// Every world when there are at most 128, else 128 sampled ones.
std::vector<World> Worlds(const UnreliableDatabase& db, uint64_t seed) {
  std::vector<World> worlds;
  WorldEnumerator enumerator(db);
  if (enumerator.world_count() <= 128) {
    for (uint64_t code = 0; code < enumerator.world_count(); ++code) {
      worlds.push_back(enumerator.Seek(code));
    }
    return worlds;
  }
  Rng rng(seed);
  for (int i = 0; i < 128; ++i) {
    worlds.push_back(db.SampleWorld(&rng));
  }
  return worlds;
}

TEST(IndexedEvalTest, AgreesWithADomainScanInEveryWorld) {
  for (int i = 0; i < fo_golden::kRandomCaseCount; ++i) {
    fo_golden::Case c = fo_golden::RandomCase(i);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + c.text);
    StatusOr<CompiledQuery> query =
        CompiledQuery::Compile(c.query, c.db.vocabulary());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    const PossibleFacts facts(c.db, query->paths());
    const int n = c.db.universe_size();

    // The observed database, answer set included.
    DomainScan observed_scan(c.db.observed());
    const IndexedWorld observed(facts);
    std::vector<Tuple> answers;
    Tuple tuple(static_cast<size_t>(query->arity()), 0);
    do {
      bool expected =
          observed_scan.Eval(*c.query, query->free_variables(), tuple);
      ASSERT_EQ(query->Eval(observed, tuple), expected);
      if (expected) answers.push_back(tuple);
    } while (AdvanceTuple(&tuple, n));
    EXPECT_EQ(query->AnswerSet(observed), answers);

    for (const World& world : Worlds(c.db, static_cast<uint64_t>(i))) {
      WorldView view(c.db, world);
      DomainScan scan(view);
      const IndexedWorld indexed(facts, &world);
      Tuple t(static_cast<size_t>(query->arity()), 0);
      do {
        ASSERT_EQ(query->Eval(indexed, t),
                  scan.Eval(*c.query, query->free_variables(), t))
            << "world with " << world.FlipCount() << " flips";
      } while (AdvanceTuple(&t, n));
    }
  }
}

TEST(IndexedEvalTest, IndexedWorldReadsEveryAtomLikeAWorldView) {
  for (int i = 0; i < 40; ++i) {
    fo_golden::Case c = fo_golden::RandomCase(i);
    const PossibleFacts facts(c.db, {});
    const int n = c.db.universe_size();
    for (const World& world : Worlds(c.db, static_cast<uint64_t>(i))) {
      WorldView view(c.db, world);
      const IndexedWorld indexed(facts, &world);
      for (int r = 0; r < c.db.vocabulary().relation_count(); ++r) {
        Tuple atom(static_cast<size_t>(c.db.vocabulary().relation(r).arity),
                   0);
        do {
          ASSERT_EQ(indexed.True(r, atom), view.AtomTrue(r, atom))
              << "case " << i << " relation " << r;
        } while (AdvanceTuple(&atom, n));
      }
    }
  }
}

}  // namespace
}  // namespace qrel
