// Fuzz target for the static analyzer and simplifier: any formula the
// parser accepts must analyze without crashing, and the simplifier must
// honour its contracts — idempotence, and never moving the query to a
// worse rung of the dispatch ladder (PlanRank). Safe-plan contract: when
// the classifier declares a query safe conjunctive, the extensional
// evaluator must accept it and agree bit-for-bit with exact world
// enumeration on two tiny deterministic databases, one of them with
// μ = 0 and μ = 1 entries.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "qrel/lifted/extensional.h"
#include "qrel/logic/analyze.h"
#include "qrel/logic/classify.h"
#include "qrel/logic/parser.h"
#include "qrel/logic/safe_plan.h"
#include "qrel/logic/simplify.h"

namespace {

const qrel::Vocabulary& FuzzVocabulary() {
  static const qrel::Vocabulary* vocabulary = [] {
    auto* v = new qrel::Vocabulary();
    v->AddRelation("S", 1);
    v->AddRelation("T", 1);
    v->AddRelation("E", 2);
    return v;
  }();
  return *vocabulary;
}

// Two databases over universe {0, 1}; S = {0}, T = {1}, E = {(0, 1)}.
// The first has three uncertain atoms. The second adds boundary entries:
// μ = 0 on the present S(0) and the absent E(1, 1), μ = 1 on the present
// T(1) and the absent E(0, 0), which is then certainly true only through
// its entry.
const std::vector<qrel::UnreliableDatabase>& FuzzDatabases() {
  static const std::vector<qrel::UnreliableDatabase>* databases = [] {
    auto vocabulary = std::make_shared<qrel::Vocabulary>();
    vocabulary->AddRelation("S", 1);
    vocabulary->AddRelation("T", 1);
    vocabulary->AddRelation("E", 2);
    qrel::Structure observed(vocabulary, 2);
    observed.AddFact(0, {0});
    observed.AddFact(1, {1});
    observed.AddFact(2, {0, 1});
    qrel::UnreliableDatabase uncertain(observed);
    uncertain.SetErrorProbability(qrel::GroundAtom{0, {0}},
                                  qrel::Rational(1, 3));
    uncertain.SetErrorProbability(qrel::GroundAtom{1, {0}},
                                  qrel::Rational(1, 4));
    uncertain.SetErrorProbability(qrel::GroundAtom{2, {1, 0}},
                                  qrel::Rational(1, 5));
    qrel::UnreliableDatabase boundary(std::move(observed));
    boundary.SetErrorProbability(qrel::GroundAtom{0, {0}}, qrel::Rational(0));
    boundary.SetErrorProbability(qrel::GroundAtom{2, {1, 1}},
                                 qrel::Rational(0));
    boundary.SetErrorProbability(qrel::GroundAtom{1, {1}}, qrel::Rational(1));
    boundary.SetErrorProbability(qrel::GroundAtom{2, {0, 0}},
                                 qrel::Rational(1));
    boundary.SetErrorProbability(qrel::GroundAtom{1, {0}},
                                 qrel::Rational(1, 2));
    boundary.SetErrorProbability(qrel::GroundAtom{0, {1}},
                                 qrel::Rational(2, 3));
    return new std::vector<qrel::UnreliableDatabase>{std::move(uncertain),
                                                     std::move(boundary)};
  }();
  return *databases;
}

// Whether evaluating `formula` on the fuzz databases is cheap: the
// variable count keeps the 2^u · n^k enumeration small. (Constants are
// range-checked by the analyzer.)
bool CheaplyEvaluable(const qrel::FormulaPtr& formula) {
  std::set<std::string> variables;
  int quantifiers = 0;
  // Iterative walk; fuzz inputs can nest arbitrarily deep.
  std::vector<const qrel::Formula*> stack = {formula.get()};
  while (!stack.empty()) {
    const qrel::Formula* node = stack.back();
    stack.pop_back();
    for (const qrel::Term& term : node->args) {
      if (term.is_variable()) {
        variables.insert(term.variable);
      }
    }
    if (!node->bound_variable.empty()) {
      variables.insert(node->bound_variable);
      // Shadowing binders keep the name count low but still multiply the
      // enumeration: cap quantifier nodes, not just names.
      ++quantifiers;
    }
    if (variables.size() > 6 || quantifiers > 6) {
      return false;
    }
    for (const qrel::FormulaPtr& child : node->children) {
      stack.push_back(child.get());
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  qrel::Diagnostic syntax_error;
  qrel::StatusOr<qrel::FormulaPtr> formula =
      qrel::ParseFormula(text, &syntax_error);
  if (!formula.ok()) {
    // A rejected input must still yield a well-formed diagnostic.
    if (syntax_error.check_id != "syntax-error" ||
        syntax_error.message.empty()) {
      __builtin_trap();
    }
    return 0;
  }

  // Analysis must not crash, with or without a vocabulary.
  qrel::FormulaAnalysis unscoped = qrel::AnalyzeFormula(*formula, nullptr);
  qrel::FormulaAnalysis scoped =
      qrel::AnalyzeFormula(*formula, &FuzzVocabulary(), 2);
  if (unscoped.simplified == nullptr || scoped.simplified == nullptr) {
    __builtin_trap();
  }

  // Simplifier contract 1: the plan rank never gets worse.
  if (qrel::PlanRank(qrel::Classify(unscoped.simplified)) >
      qrel::PlanRank(qrel::Classify(*formula))) {
    __builtin_trap();
  }

  // Simplifier contract 2: simplification is idempotent.
  qrel::FormulaPtr again = qrel::SimplifyFormula(unscoped.simplified);
  if (again->ToString() != unscoped.simplified->ToString()) {
    __builtin_trap();
  }

  // Every diagnostic must render (exercises the JSON escaper too).
  for (const qrel::Diagnostic& diagnostic : scoped.diagnostics) {
    if (diagnostic.ToString().empty() || diagnostic.ToJson().empty()) {
      __builtin_trap();
    }
  }

  // Safe-plan contract: the analysis is internally consistent, its note
  // renders, and on a kSafeConjunctive verdict the extensional evaluator
  // reproduces exact world enumeration bit for bit.
  qrel::SafePlanAnalysis safety = qrel::AnalyzeSafePlan(*formula);
  if (safety.safe != (safety.applicable && safety.plan != nullptr)) {
    __builtin_trap();
  }
  if (safety.safe && safety.plan->ToString().empty()) {
    __builtin_trap();
  }
  if (qrel::Classify(*formula) == qrel::QueryClass::kSafeConjunctive) {
    if (!safety.safe) {
      __builtin_trap();  // classifier and analyzer disagree
    }
    if (!scoped.has_errors() && CheaplyEvaluable(*formula)) {
      for (const qrel::UnreliableDatabase& db : FuzzDatabases()) {
        qrel::StatusOr<qrel::ReliabilityReport> lifted =
            qrel::ExtensionalReliability(*formula, db);
        if (!lifted.ok()) {
          __builtin_trap();  // a safe query the evaluator refused
        }
        qrel::StatusOr<qrel::ReliabilityReport> enumerated =
            qrel::ExactReliability(*formula, db);
        if (!enumerated.ok() ||
            !(lifted->reliability == enumerated->reliability) ||
            !(lifted->expected_error == enumerated->expected_error)) {
          __builtin_trap();  // the polynomial rung changed the answer
        }
      }
    }
  }
  return 0;
}
