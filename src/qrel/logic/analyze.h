// Static analysis of first-order queries: validation diagnostics, the
// semantics-preserving simplification, and the cost pre-analysis behind
// the engine's "explain plan".
//
// AnalyzeFormula runs before anything is grounded, enumerated or sampled.
// It reports every problem it finds as a source-located Diagnostic
// (logic/diagnostics.h) instead of failing on the first one, computes the
// simplified formula (logic/simplify.h) and both classifications, and —
// when a database is supplied — statically estimates the work the engine
// would do. engine/engine.h routes every run through this analysis: hard
// errors fail with kInvalidArgument before any budget is charged, and
// dispatch uses the simplified formula's class.
//
// Checks (stable ids — see DESIGN.md "Static analysis and plan
// explanation"):
//   error   unknown-predicate      relation not in the vocabulary
//   error   arity-mismatch         relation used with the wrong arity
//   error   constant-out-of-range  constant names no element of the
//                                  universe (only with a universe size)
//   warning unused-quantifier      bound variable never occurs in the body
//   warning vacuous-quantifier     quantified body is a truth constant
//   warning contradictory-literals conjunction contains φ and !φ
//   warning tautological-literals  disjunction contains φ and !φ
//   note    constant-equality      equality between two constants
//   note    statically-true        the query simplifies to true
//   note    statically-false       the query simplifies to false
//   note    simplified             simplification changed the formula
//
// plus the safe-plan checks of logic/safe_plan.h, run on the formula the
// engine will dispatch on:
//   note    safe-plan              the query admits a safe plan
//   note    unsafe-self-join       two distinct atoms share a relation
//   note    unsafe-no-root-variable  the hierarchy condition fails

#ifndef QREL_LOGIC_ANALYZE_H_
#define QREL_LOGIC_ANALYZE_H_

#include <optional>
#include <string>
#include <vector>

#include "qrel/logic/ast.h"
#include "qrel/logic/classify.h"
#include "qrel/logic/diagnostics.h"
#include "qrel/logic/safe_plan.h"
#include "qrel/relational/vocabulary.h"

namespace qrel {

// What static analysis decided about the query's truth value.
enum class StaticTruth {
  kUnknown,        // depends on the database
  kTautology,      // simplifies to true: every world answers all tuples
  kUnsatisfiable,  // simplifies to false: every world answers nothing
};

// Stable display name ("unknown", "tautology", "unsatisfiable").
const char* StaticTruthName(StaticTruth truth);

// Statically computed work predictions for a query on a database of
// universe size n. Doubles saturate to infinity rather than overflow.
struct CostEstimate {
  int universe_size = 0;
  // Free variables of the query (the k of the n^k answer-tuple space).
  int arity = 0;
  // Distinct variables overall (free + quantifier-bound); the grounding of
  // Thm 5.4 enumerates up to n^variables assignments.
  int variables = 0;
  double answer_space = 1.0;    // n^arity
  double grounding_size = 1.0;  // n^variables
  size_t uncertain_atoms = 0;   // u = dimensions of the world space
  double world_count = 1.0;     // 2^u
};

struct FormulaAnalysis {
  std::vector<Diagnostic> diagnostics;

  // The equivalent simplified formula and both classifications. The
  // effective class is never worse: PlanRank(effective_class) <=
  // PlanRank(original_class).
  FormulaPtr simplified;
  QueryClass original_class = QueryClass::kGeneralFirstOrder;
  QueryClass effective_class = QueryClass::kGeneralFirstOrder;

  StaticTruth static_truth = StaticTruth::kUnknown;

  // Whether the simplified formula has the same free variables, in the
  // same order, as the original. Only then may the engine substitute the
  // simplified formula wholesale (answer tuples keep their columns);
  // otherwise simplification dropped a vacuous free variable and the
  // original formula must still be the one evaluated.
  bool arity_preserved = false;

  // Safe-plan analysis (logic/safe_plan.h) of the formula the engine will
  // dispatch on (the simplified one when arity_preserved, else the
  // original); its diagnostics are also appended to `diagnostics`. When
  // safety.safe, the effective class is kSafeConjunctive and the engine's
  // extensional rung evaluates the plan exactly in polynomial time.
  SafePlanAnalysis safety;

  bool has_errors() const { return HasErrors(diagnostics); }
};

// Analyzes `formula`. `vocabulary` is nullable; without it the
// vocabulary-dependent checks (unknown-predicate, arity-mismatch) are
// skipped and only the purely syntactic checks run. Given the database's
// `universe_size`, every constant must lie in {0, ..., n-1}
// (constant-out-of-range).
FormulaAnalysis AnalyzeFormula(const FormulaPtr& formula,
                               const Vocabulary* vocabulary,
                               std::optional<int> universe_size = {});

// Appends a constant-out-of-range error, located at `range`, for each
// constant among `args` outside {0, ..., universe_size-1}. Shared by the
// first-order and Datalog analyzers.
void CheckConstantsInUniverse(const std::vector<Term>& args,
                              int universe_size, const SourceRange& range,
                              std::vector<Diagnostic>* diagnostics);

// The cost pre-analysis for `formula` (use the *effective* formula the
// engine will dispatch on) against a database with `universe_size` and
// `uncertain_atoms` uncertain entries.
CostEstimate EstimateCost(const FormulaPtr& formula, int universe_size,
                          size_t uncertain_atoms);

// Renders the first error diagnostic as a one-line message for a typed
// Status ("arity-mismatch at 4-11: ..."). Requires has_errors().
std::string FirstErrorMessage(const std::vector<Diagnostic>& diagnostics);

}  // namespace qrel

#endif  // QREL_LOGIC_ANALYZE_H_
