#include "qrel/logic/analyze.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "qrel/logic/simplify.h"
#include "qrel/util/check.h"

namespace qrel {

namespace {

bool IsConstant(const Formula& formula) {
  return formula.kind == FormulaKind::kTrue ||
         formula.kind == FormulaKind::kFalse;
}

// Collects every distinct variable name — free occurrences and binders —
// so the grounding-size estimate covers the full assignment space.
void CollectVariables(const Formula& formula,
                      std::set<std::string>* variables) {
  switch (formula.kind) {
    case FormulaKind::kAtom:
    case FormulaKind::kEquals:
      for (const Term& term : formula.args) {
        if (term.is_variable()) {
          variables->insert(term.variable);
        }
      }
      return;
    case FormulaKind::kExists:
    case FormulaKind::kForAll:
      variables->insert(formula.bound_variable);
      CollectVariables(*formula.children[0], variables);
      return;
    default:
      for (const FormulaPtr& child : formula.children) {
        CollectVariables(*child, variables);
      }
      return;
  }
}

class FormulaChecker {
 public:
  FormulaChecker(const Vocabulary* vocabulary,
                 std::optional<int> universe_size,
                 std::vector<Diagnostic>* diagnostics)
      : vocabulary_(vocabulary),
        universe_size_(universe_size),
        diagnostics_(diagnostics) {}

  void Check(const Formula& formula) {
    switch (formula.kind) {
      case FormulaKind::kTrue:
      case FormulaKind::kFalse:
        return;
      case FormulaKind::kAtom:
        CheckAtom(formula);
        CheckConstants(formula);
        return;
      case FormulaKind::kEquals:
        CheckConstants(formula);
        if (!formula.args[0].is_variable() &&
            !formula.args[1].is_variable()) {
          diagnostics_->push_back(MakeNote(
              "constant-equality",
              "equality between constants " + formula.args[0].ToString() +
                  " and " + formula.args[1].ToString() +
                  " is decided statically",
              formula.range));
        }
        return;
      case FormulaKind::kExists:
      case FormulaKind::kForAll:
        CheckQuantifier(formula);
        Check(*formula.children[0]);
        return;
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
        CheckComplementaryPair(formula);
        for (const FormulaPtr& child : formula.children) {
          Check(*child);
        }
        return;
      default:
        for (const FormulaPtr& child : formula.children) {
          Check(*child);
        }
        return;
    }
  }

 private:
  void CheckAtom(const Formula& atom) {
    if (vocabulary_ == nullptr) {
      return;
    }
    std::optional<int> relation = vocabulary_->FindRelation(atom.relation);
    if (!relation.has_value()) {
      diagnostics_->push_back(MakeError(
          "unknown-predicate",
          "unknown relation '" + atom.relation + "'", atom.range));
      return;
    }
    int arity = vocabulary_->relation(*relation).arity;
    if (arity != static_cast<int>(atom.args.size())) {
      diagnostics_->push_back(MakeError(
          "arity-mismatch",
          "relation '" + atom.relation + "' has arity " +
              std::to_string(arity) + " but is used with " +
              std::to_string(atom.args.size()) + " argument(s)",
          atom.range));
    }
  }

  void CheckConstants(const Formula& formula) {
    if (universe_size_.has_value()) {
      CheckConstantsInUniverse(formula.args, *universe_size_, formula.range,
                               diagnostics_);
    }
  }

  void CheckQuantifier(const Formula& quantifier) {
    const char* word =
        quantifier.kind == FormulaKind::kExists ? "exists" : "forall";
    const Formula& body = *quantifier.children[0];
    // A body that *folds* to a constant (e.g. "y = y") is just as vacuous
    // as a literal one; match what the simplifier will do.
    if (IsConstant(body) ||
        IsConstant(*SimplifyFormula(quantifier.children[0]))) {
      diagnostics_->push_back(MakeWarning(
          "vacuous-quantifier",
          std::string(word) + " " + quantifier.bound_variable +
              " quantifies a constant body and has no effect",
          quantifier.range));
      return;
    }
    const std::vector<std::string> free = body.FreeVariables();
    if (std::find(free.begin(), free.end(), quantifier.bound_variable) ==
        free.end()) {
      diagnostics_->push_back(MakeWarning(
          "unused-quantifier",
          "variable '" + quantifier.bound_variable + "' bound by " + word +
              " never occurs in its scope",
          quantifier.range));
    }
  }

  // A conjunction containing both φ and !φ is statically false (the dual
  // disjunction statically true) — almost always a query-writing mistake.
  void CheckComplementaryPair(const Formula& connective) {
    std::set<std::string> positive;
    std::set<std::string> negated;
    for (const FormulaPtr& child : connective.children) {
      std::string key;
      bool is_negation = child->kind == FormulaKind::kNot;
      if (is_negation) {
        key = child->children[0]->ToString();
      } else {
        key = child->ToString();
      }
      bool complement_seen = is_negation ? positive.count(key) != 0
                                         : negated.count(key) != 0;
      if (complement_seen) {
        bool conjunction = connective.kind == FormulaKind::kAnd;
        diagnostics_->push_back(MakeWarning(
            conjunction ? "contradictory-literals"
                        : "tautological-literals",
            std::string(conjunction ? "conjunction" : "disjunction") +
                " contains both " + key + " and its negation, so it is "
                "statically " + (conjunction ? "false" : "true"),
            connective.range));
        return;  // one report per connective is enough
      }
      (is_negation ? negated : positive).insert(key);
    }
  }

  const Vocabulary* vocabulary_;
  std::optional<int> universe_size_;
  std::vector<Diagnostic>* diagnostics_;
};

}  // namespace

const char* StaticTruthName(StaticTruth truth) {
  switch (truth) {
    case StaticTruth::kUnknown:
      return "unknown";
    case StaticTruth::kTautology:
      return "tautology";
    case StaticTruth::kUnsatisfiable:
      return "unsatisfiable";
  }
  QREL_CHECK_MSG(false, "corrupt static truth");
  return "";
}

FormulaAnalysis AnalyzeFormula(const FormulaPtr& formula,
                               const Vocabulary* vocabulary,
                               std::optional<int> universe_size) {
  QREL_CHECK(formula != nullptr);
  FormulaAnalysis analysis;
  FormulaChecker(vocabulary, universe_size, &analysis.diagnostics)
      .Check(*formula);

  analysis.simplified = SimplifyFormula(formula);
  analysis.original_class = Classify(formula);
  analysis.effective_class = Classify(analysis.simplified);
  analysis.arity_preserved =
      formula->FreeVariables() == analysis.simplified->FreeVariables();

  if (analysis.simplified->kind == FormulaKind::kTrue) {
    analysis.static_truth = StaticTruth::kTautology;
    analysis.diagnostics.push_back(MakeNote(
        "statically-true",
        "query simplifies to true: every world answers every tuple, "
        "reliability is exactly 1",
        formula->range));
  } else if (analysis.simplified->kind == FormulaKind::kFalse) {
    analysis.static_truth = StaticTruth::kUnsatisfiable;
    analysis.diagnostics.push_back(MakeNote(
        "statically-false",
        "query simplifies to false: every world answers nothing, "
        "reliability is exactly 1",
        formula->range));
  } else if (analysis.simplified->ToString() != formula->ToString()) {
    analysis.diagnostics.push_back(MakeNote(
        "simplified",
        "query simplifies to " + analysis.simplified->ToString() +
            " (class " + QueryClassName(analysis.effective_class) + ")",
        formula->range));
  }

  // Safe-plan analysis of the formula the engine will dispatch on; its
  // verdict is what makes the effective class kSafeConjunctive.
  const FormulaPtr& dispatched =
      analysis.arity_preserved ? analysis.simplified : formula;
  analysis.safety = AnalyzeSafePlan(dispatched);
  analysis.diagnostics.insert(analysis.diagnostics.end(),
                              analysis.safety.diagnostics.begin(),
                              analysis.safety.diagnostics.end());
  return analysis;
}

void CheckConstantsInUniverse(const std::vector<Term>& args,
                              int universe_size, const SourceRange& range,
                              std::vector<Diagnostic>* diagnostics) {
  // Constants name universe elements; one outside {0..n-1} would make
  // evaluation read an atom no database over the universe can hold.
  for (const Term& term : args) {
    if (!term.is_variable() &&
        (term.constant < 0 || term.constant >= universe_size)) {
      diagnostics->push_back(MakeError(
          "constant-out-of-range",
          "constant " + term.ToString() + " is outside the universe of size " +
              std::to_string(universe_size),
          range));
    }
  }
}

CostEstimate EstimateCost(const FormulaPtr& formula, int universe_size,
                          size_t uncertain_atoms) {
  QREL_CHECK(formula != nullptr);
  CostEstimate cost;
  cost.universe_size = universe_size;
  cost.arity = static_cast<int>(formula->FreeVariables().size());
  std::set<std::string> variables;
  CollectVariables(*formula, &variables);
  cost.variables = static_cast<int>(variables.size());
  cost.answer_space = std::pow(static_cast<double>(universe_size),
                               static_cast<double>(cost.arity));
  cost.grounding_size = std::pow(static_cast<double>(universe_size),
                                 static_cast<double>(cost.variables));
  cost.uncertain_atoms = uncertain_atoms;
  cost.world_count = std::pow(2.0, static_cast<double>(uncertain_atoms));
  return cost;
}

std::string FirstErrorMessage(const std::vector<Diagnostic>& diagnostics) {
  for (const Diagnostic& diagnostic : diagnostics) {
    if (diagnostic.severity != DiagnosticSeverity::kError) {
      continue;
    }
    std::string message = diagnostic.check_id;
    if (diagnostic.range.valid()) {
      message += " at " + std::to_string(diagnostic.range.begin) + "-" +
                 std::to_string(diagnostic.range.end);
    }
    return message + ": " + diagnostic.message;
  }
  QREL_CHECK_MSG(false, "FirstErrorMessage called without errors");
  return "";
}

}  // namespace qrel
