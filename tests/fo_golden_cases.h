// The first-order golden cases: seeded random unreliable databases (n = 2
// to 6, μ drawn from {0, 1/4, 1/2, 1}, absent atoms with μ = 1 included)
// and random queries from a grammar that covers guarded and unguarded ∃
// and ∀, ∀∃ nesting, negation, equality, constants, self-joins and free
// variables; plus Prop 3.2 (#MONOTONE-2SAT) and Lemma 5.9 (4-colouring)
// reduction instances.
//
// tests/fo_golden_gen.cc renders two tables from them:
//
//   - `reliability`: per random case, the exact H and R of Thm 4.2 world
//     enumeration, as rationals;
//   - `grounding`: per case whose query (or its negation) is existential,
//     and per assignment of its free variables, the Thm 5.4 ground DNF
//     of GroundExistential: `certainly_true` and the ordered term list.
//
// tests/fo_golden_test.cc requires the current code to reproduce both
// committed tables (tests/testdata/fo_reliability.txt and
// fo_groundings.txt) line for line, and tests/indexed_eval_test.cc checks
// the indexed evaluator against a domain scan on the same cases, world by
// world.
//
// Only public entry points that predate the possible-facts evaluator are
// used, so the generator also builds against older revisions of the
// library (which is how the committed tables were produced: see
// tests/testdata/README.md).

#ifndef QREL_TESTS_FO_GOLDEN_CASES_H_
#define QREL_TESTS_FO_GOLDEN_CASES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qrel/core/reliability.h"
#include "qrel/logic/ast.h"
#include "qrel/logic/classify.h"
#include "qrel/logic/grounding.h"
#include "qrel/logic/normal_form.h"
#include "qrel/logic/parser.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/reductions/four_coloring.h"
#include "qrel/reductions/monotone_two_sat.h"
#include "qrel/relational/structure.h"
#include "qrel/util/rng.h"
#include "qrel/util/status.h"

namespace qrel::fo_golden {

// Random cases; the reduction instances follow them in GroundingCases.
inline constexpr int kRandomCaseCount = 300;
inline constexpr int kProp32CaseCount = 6;
inline constexpr int kLemma59CaseCount = 4;

inline std::shared_ptr<Vocabulary> GoldenVocabulary() {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("S", 1);
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("R", 3);
  return vocabulary;
}

// A database over S/1, E/2, R/3 with universe `n`: random observed facts
// and up to eleven error-model entries (mostly on S and E, where queries
// meet them), one of them an absent atom with μ = 1.
inline UnreliableDatabase RandomDatabase(int n, Rng* rng) {
  Structure observed(GoldenVocabulary(), n);
  for (int a = 0; a < n; ++a) {
    if (rng->NextBelow(2) == 0) observed.AddFact(0, {a});
    for (int b = 0; b < n; ++b) {
      if (rng->NextBelow(3) == 0) observed.AddFact(1, {a, b});
      for (int c = 0; c < n; ++c) {
        if (rng->NextBelow(8) == 0) observed.AddFact(2, {a, b, c});
      }
    }
  }
  UnreliableDatabase db(std::move(observed));
  auto random_atom = [&]() {
    GroundAtom atom;
    uint64_t pick = rng->NextBelow(20);
    atom.relation = pick < 8 ? 0 : pick < 17 ? 1 : 2;
    for (int i = 0; i <= atom.relation; ++i) {
      atom.args.push_back(
          static_cast<Element>(rng->NextBelow(static_cast<uint64_t>(n))));
    }
    return atom;
  };
  // μ from {0, 1/4, 1/2, 1}, uncertain three times in four.
  const Rational mu[] = {Rational(0), Rational(1, 4), Rational(1, 4),
                         Rational(1, 4), Rational(1, 2), Rational(1, 2),
                         Rational(1, 2), Rational(1)};
  for (int i = 0; i < 10; ++i) {
    db.SetErrorProbability(random_atom(), mu[rng->NextBelow(8)]);
  }
  // An absent atom that is true in every world.
  for (int attempt = 0; attempt < 20; ++attempt) {
    GroundAtom atom = random_atom();
    if (!db.observed().AtomTrue(atom.relation, atom.args) &&
        !db.model().Find(atom).has_value()) {
      db.SetErrorProbability(atom, Rational(1));
      break;
    }
  }
  return db;
}

// Random query text. `mode` 0 draws from the whole grammar, 1 only
// existential formulas (no ∀, negation on atoms), 2 only universal ones.
class QueryGenerator {
 public:
  QueryGenerator(int n, int mode, Rng* rng) : n_(n), mode_(mode), rng_(rng) {}

  std::string Query() {
    scope_.clear();
    // Zero to two free variables.
    int free = static_cast<int>(rng_->NextBelow(3));
    if (free >= 1) scope_.push_back("u");
    if (free >= 2) scope_.push_back("v");
    return Formula(2 + static_cast<int>(rng_->NextBelow(2)));
  }

 private:
  std::string Term() {
    if (!scope_.empty() && rng_->NextBelow(5) != 0) {
      return scope_[rng_->NextBelow(scope_.size())];
    }
    return "#" + std::to_string(rng_->NextBelow(static_cast<uint64_t>(n_)));
  }

  // An atom whose arguments are drawn from `vars` first (so the guard of a
  // block mentions the block's variables), then from the scope.
  std::string Atom(const std::vector<std::string>& vars) {
    static const char* const kNames[] = {"S", "E", "R"};
    uint64_t pick = rng_->NextBelow(20);
    int relation = pick < 8 ? 0 : pick < 17 ? 1 : 2;
    std::string text = std::string(kNames[relation]) + "(";
    for (int i = 0; i <= relation; ++i) {
      if (i > 0) text += ", ";
      if (static_cast<size_t>(i) < vars.size()) {
        text += vars[static_cast<size_t>(i)];
      } else if (!vars.empty() && rng_->NextBelow(2) == 0) {
        text += vars[rng_->NextBelow(vars.size())];  // repeated variable
      } else {
        text += Term();
      }
    }
    return text + ")";
  }

  std::string Leaf() {
    switch (rng_->NextBelow(8)) {
      case 0:
        return Term() + " = " + Term();
      case 1:
        return Term() + " != " + Term();
      case 2:
        return mode_ == 0 ? "true" : Atom({});
      default: {
        std::string atom = Atom({});
        bool negate = rng_->NextBelow(3) == 0;
        return negate ? "!" + atom : atom;
      }
    }
  }

  std::string NewVariable() { return "x" + std::to_string(next_var_++); }

  // A quantifier block over one or two fresh variables.
  std::string Block(bool exists, int depth) {
    std::vector<std::string> vars{NewVariable()};
    if (rng_->NextBelow(2) == 0) vars.push_back(NewVariable());
    std::string prefix = exists ? "exists" : "forall";
    for (const std::string& var : vars) prefix += " " + var;
    prefix += " . ";
    size_t saved = scope_.size();
    scope_.insert(scope_.end(), vars.begin(), vars.end());
    std::string body;
    uint64_t shape = rng_->NextBelow(3);
    if (shape == 0) {
      body = Formula(depth - 1);  // unguarded
    } else if (exists) {
      body = Atom(vars) + " & " + Wrap(Formula(depth - 1));
    } else if (shape == 1) {
      body = Atom(vars) + " -> " + Wrap(Formula(depth - 1));
    } else {
      body = "!" + Atom(vars) + " | " + Wrap(Formula(depth - 1));
    }
    scope_.resize(saved);
    return "(" + prefix + body + ")";
  }

  static std::string Wrap(const std::string& text) { return "(" + text + ")"; }

  std::string Formula(int depth) {
    if (depth <= 0) {
      return Leaf();
    }
    uint64_t choice = rng_->NextBelow(10);
    switch (mode_) {
      case 1:  // existential: ∃, ∧, ∨
        if (choice < 5) return Block(true, depth);
        if (choice < 7) return Wrap(Formula(depth - 1)) + " & " +
                               Wrap(Formula(depth - 1));
        if (choice < 9) return Wrap(Formula(depth - 1)) + " | " +
                               Wrap(Formula(depth - 1));
        return Leaf();
      case 2:  // universal: ∀, ∧, ∨
        if (choice < 5) return Block(false, depth);
        if (choice < 7) return Wrap(Formula(depth - 1)) + " | " +
                               Wrap(Formula(depth - 1));
        if (choice < 9) return Wrap(Formula(depth - 1)) + " & " +
                               Wrap(Formula(depth - 1));
        return Leaf();
      default:
        if (choice < 3) return Block(true, depth);
        if (choice < 6) return Block(false, depth);
        if (choice < 7) return "!" + Wrap(Formula(depth - 1));
        if (choice < 8) return Wrap(Formula(depth - 1)) + " & " +
                               Wrap(Formula(depth - 1));
        if (choice < 9) return Wrap(Formula(depth - 1)) + " | " +
                               Wrap(Formula(depth - 1));
        return Wrap(Formula(depth - 1)) + " <-> " + Wrap(Formula(depth - 1));
    }
  }

  int n_;
  int mode_;
  Rng* rng_;
  std::vector<std::string> scope_;
  int next_var_ = 0;
};

struct Case {
  std::string text;
  FormulaPtr query;
  UnreliableDatabase db;
};

// Random case `index`: universe 2 to 6, grammar mode index % 3.
inline Case RandomCase(int index) {
  Rng rng(0xf0901d00u + static_cast<uint64_t>(index));
  const int n = 2 + static_cast<int>(rng.NextBelow(5));
  UnreliableDatabase db = RandomDatabase(n, &rng);
  QueryGenerator generator(n, index % 3, &rng);
  std::string text = generator.Query();
  FormulaPtr query = std::move(ParseFormula(text)).value();
  return Case{text, query, std::move(db)};
}

// Every case the grounding table covers: the random ones, then the Prop
// 3.2 and Lemma 5.9 reduction instances.
inline Case GroundingCase(int index) {
  if (index < kRandomCaseCount) {
    return RandomCase(index);
  }
  index -= kRandomCaseCount;
  Rng rng(0x9e0d0000u + static_cast<uint64_t>(index));
  if (index < kProp32CaseCount) {
    MonotoneTwoSat formula = RandomMonotoneTwoSat(
        3 + static_cast<int>(rng.NextBelow(3)),
        2 + static_cast<int>(rng.NextBelow(3)), &rng);
    Prop32Instance instance = BuildProp32Instance(formula);
    return Case{"prop32", instance.query, std::move(instance.database)};
  }
  Graph graph;
  while (graph.edges.empty()) {
    graph = RandomGraph(4 + static_cast<int>(rng.NextBelow(2)), 0.6, &rng);
  }
  Lemma59Instance instance = BuildLemma59Instance(graph);
  return Case{"lemma59", instance.query, std::move(instance.database)};
}

inline constexpr int GroundingCaseCount() {
  return kRandomCaseCount + kProp32CaseCount + kLemma59CaseCount;
}

// "<index> H=<h> R=<r>" for random case `index`.
inline std::string RenderReliability(int index) {
  Case c = RandomCase(index);
  StatusOr<ReliabilityReport> report = ExactReliability(c.query, c.db);
  std::string line = std::to_string(index) + " ";
  if (!report.ok()) {
    return line + "error " + report.status().ToString();
  }
  return line + "H=" + report->expected_error.ToString() +
         " R=" + report->reliability.ToString();
}

// One line per free assignment of case `index` whose query or negation is
// existential: "<index> <assignment> true" for a certainly true ground
// DNF, else "<index> <assignment> <term> | <term> ..." with each term its
// literals as "+e"/"-e" (entry ids); no lines otherwise.
inline std::vector<std::string> RenderGrounding(int index) {
  Case c = GroundingCase(index);
  FormulaPtr target = c.query;
  if (!IsExistential(target)) {
    if (!IsUniversal(target)) {
      return {};
    }
    target = Not(target);
  }
  StatusOr<PrenexExistential> prenex = ToPrenexExistential(target);
  if (!prenex.ok()) {
    return {std::to_string(index) + " error " + prenex.status().ToString()};
  }
  std::vector<std::string> lines;
  const int n = c.db.universe_size();
  Tuple assignment(prenex->free_variables.size(), 0);
  do {
    std::string line = std::to_string(index) + " (";
    for (size_t i = 0; i < assignment.size(); ++i) {
      line += (i > 0 ? "," : "") + std::to_string(assignment[i]);
    }
    line += ")";
    StatusOr<GroundDnf> dnf = GroundExistential(*prenex, c.db, assignment);
    if (!dnf.ok()) {
      line += " error " + dnf.status().ToString();
    } else if (dnf->certainly_true) {
      line += " true";
    } else {
      for (size_t t = 0; t < dnf->terms.size(); ++t) {
        line += t == 0 ? " " : " | ";
        for (const GroundLiteral& literal : dnf->terms[t]) {
          line += (literal.positive ? "+" : "-") +
                  std::to_string(literal.entry);
        }
      }
    }
    lines.push_back(line);
  } while (AdvanceTuple(&assignment, n));
  return lines;
}

}  // namespace qrel::fo_golden

#endif  // QREL_TESTS_FO_GOLDEN_CASES_H_
