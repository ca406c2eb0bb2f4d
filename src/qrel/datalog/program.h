// Stratified Datalog programs.
//
// Section 4 of the paper notes that the FP^#P upper bound "includes all
// Datalog queries (for which the result has already been proved by de
// Rougemont) and all fixed point queries". This module supplies that query
// language as a substrate: stratified Datalog with negation, evaluated
// bottom-up to a fixpoint. Datalog queries are polynomial-time evaluable,
// so both the exact world-enumeration algorithm (Thm 4.2) and the padded
// estimator (Thm 5.12) apply to them — see datalog/reliability.h.
//
// Text syntax (parser below):
//
//   Path(x, y)       :- E(x, y).
//   Path(x, z)       :- Path(x, y), E(y, z).
//   Unreached(x, y)  :- Node(x), Node(y), !Path(x, y).
//
// Variables are identifiers, constants are #k (or bare integers), '!'
// negates a body literal. Safety: every variable of a rule must occur in
// some positive body literal. Negation must be stratified.

#ifndef QREL_DATALOG_PROGRAM_H_
#define QREL_DATALOG_PROGRAM_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "qrel/logic/ast.h"
#include "qrel/util/status.h"

namespace qrel {

struct DatalogAtom {
  std::string relation;
  std::vector<Term> args;

  // Byte range in the program text this atom was parsed from (set by
  // ParseDatalogProgram; invalid for programmatically built atoms).
  // Ignored by ToString() and all semantic comparisons.
  SourceRange range;

  std::string ToString() const;
};

struct DatalogLiteral {
  bool positive = true;
  DatalogAtom atom;
};

struct DatalogRule {
  DatalogAtom head;
  std::vector<DatalogLiteral> body;

  // Byte range of the whole rule, head through the terminating '.'.
  SourceRange range;

  std::string ToString() const;
};

// A parsed, unvalidated program. Predicates that appear in some head are
// intensional (IDB); all others are extensional (EDB) and must exist in
// the database vocabulary at compile time (see eval.h).
struct DatalogProgram {
  std::vector<DatalogRule> rules;

  // Names of intensional predicates, in first-head-appearance order.
  std::vector<std::string> IdbPredicates() const;

  std::string ToString() const;
};

// The strata of a program's intensional predicates, by relaxation from 0:
// stratum(head) >= stratum(positive IDB body atom) and >= stratum(negated
// IDB body atom) + 1. A stratum above the IDB count proves a negative
// cycle: the rule that pushed its head past it is recorded (once per head,
// in detection order) and the stratum pinned at the IDB count, so the
// relaxation terminates and every cycle is found. CompiledDatalog::Compile
// and AnalyzeDatalogProgram both stratify with it.
struct DatalogStrata {
  std::map<std::string, int> stratum;  // every IDB predicate
  // Indices into program.rules; empty iff the program is stratified.
  std::vector<size_t> negative_cycles;
};
DatalogStrata StratifyDatalogProgram(const DatalogProgram& program);

// Parses a program (sequence of rules terminated by '.'; '%' or '#'
// comments to end of line are not supported — use blank space).
StatusOr<DatalogProgram> ParseDatalogProgram(std::string_view text);

// Like above; on a syntax error additionally fills `*syntax_error` (when
// non-null) with a source-located Diagnostic (check id "syntax-error") so
// Datalog parse errors share the analyzers' machine-readable output path.
StatusOr<DatalogProgram> ParseDatalogProgram(std::string_view text,
                                             Diagnostic* syntax_error);

}  // namespace qrel

#endif  // QREL_DATALOG_PROGRAM_H_
