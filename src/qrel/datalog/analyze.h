// Static analysis of Datalog programs: the same checks eval.h's Compile
// enforces fatally, reported instead as source-located Diagnostics — all of
// them at once, not just the first — plus lint-style checks Compile does
// not care about. engine/engine.h runs this before compiling so a broken
// program fails with every problem listed and before any budget is
// charged.
//
// Checks (stable ids — see DESIGN.md "Static analysis and plan
// explanation"):
//   error   unknown-predicate      body EDB predicate not in the
//                                  vocabulary, or a query predicate that
//                                  is neither a rule head nor in it
//   error   arity-mismatch         EDB/IDB predicate used at two arities
//   error   idb-edb-clash          predicate is both a rule head and EDB
//   error   unbound-head-variable  head variable not positively bound
//   error   unsafe-variable        negated variable not positively bound
//   error   unstratifiable-cycle   predicate depends negatively on itself
//   error   constant-out-of-range  constant names no element of the
//                                  universe (only with a universe size)
//   warning duplicate-rule         rule repeats an earlier rule verbatim
//   note    unreachable-predicate  rule head cannot influence the query
//                                  predicate (only with `query_predicate`)

#ifndef QREL_DATALOG_ANALYZE_H_
#define QREL_DATALOG_ANALYZE_H_

#include <optional>
#include <string>
#include <vector>

#include "qrel/datalog/program.h"
#include "qrel/logic/diagnostics.h"
#include "qrel/relational/vocabulary.h"

namespace qrel {

struct DatalogAnalysis {
  std::vector<Diagnostic> diagnostics;
  // Arity of the query predicate, when one was given and it is a rule
  // head, a body literal or a vocabulary relation.
  std::optional<int> query_arity;

  bool has_errors() const { return HasErrors(diagnostics); }
};

// Analyzes `program` against the extensional vocabulary. `vocabulary` is
// nullable; without it the EDB checks (unknown-predicate, arity-mismatch
// against the vocabulary, idb-edb-clash) are skipped. `query_predicate`,
// when non-empty, is additionally checked to name a rule head or a
// vocabulary relation (error unknown-predicate), its arity is reported,
// and rules whose head predicate cannot reach it through the dependency
// graph are flagged (note unreachable-predicate). Given the database's
// `universe_size`, every constant in a head or body must lie in
// {0, ..., n-1} (constant-out-of-range).
DatalogAnalysis AnalyzeDatalogProgram(const DatalogProgram& program,
                                      const Vocabulary* vocabulary,
                                      const std::string& query_predicate = "",
                                      std::optional<int> universe_size = {});

}  // namespace qrel

#endif  // QREL_DATALOG_ANALYZE_H_
