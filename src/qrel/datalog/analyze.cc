#include "qrel/datalog/analyze.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "qrel/logic/analyze.h"

namespace qrel {

namespace {

bool Contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

// Arity bookkeeping shared by IDB and EDB predicates: the first use wins
// and later disagreements are reported against the later use's range.
class ArityTable {
 public:
  explicit ArityTable(std::vector<Diagnostic>* diagnostics)
      : diagnostics_(diagnostics) {}

  void Record(const DatalogAtom& atom) {
    int arity = static_cast<int>(atom.args.size());
    auto [it, inserted] = arity_.emplace(atom.relation, arity);
    if (!inserted && it->second != arity) {
      diagnostics_->push_back(MakeError(
          "arity-mismatch",
          "predicate '" + atom.relation + "' first used with arity " +
              std::to_string(it->second) + " but here has " +
              std::to_string(arity) + " argument(s)",
          atom.range));
    }
  }

  void Seed(const std::string& name, int arity) {
    arity_.emplace(name, arity);
  }

  std::optional<int> Find(const std::string& name) const {
    auto it = arity_.find(name);
    if (it == arity_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

 private:
  std::map<std::string, int> arity_;
  std::vector<Diagnostic>* diagnostics_;
};

// Head predicates that cannot reach `query_predicate` in the dependency
// graph never influence the query's answer set.
void CheckReachability(const DatalogProgram& program,
                       const std::vector<std::string>& idb,
                       const std::string& query_predicate,
                       std::vector<Diagnostic>* diagnostics) {
  if (!Contains(idb, query_predicate)) {
    return;  // extensional or unknown query predicate: nothing to prune
  }
  // Reverse reachability from the query predicate over "head depends on
  // body" edges.
  std::set<std::string> reachable = {query_predicate};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const DatalogRule& rule : program.rules) {
      if (reachable.count(rule.head.relation) == 0) {
        continue;
      }
      for (const DatalogLiteral& literal : rule.body) {
        if (Contains(idb, literal.atom.relation) &&
            reachable.insert(literal.atom.relation).second) {
          changed = true;
        }
      }
    }
  }
  std::set<std::string> reported;
  for (const DatalogRule& rule : program.rules) {
    if (reachable.count(rule.head.relation) != 0) {
      continue;
    }
    if (reported.insert(rule.head.relation).second) {
      diagnostics->push_back(MakeNote(
          "unreachable-predicate",
          "predicate '" + rule.head.relation +
              "' cannot influence the query predicate '" + query_predicate +
              "'",
          rule.range));
    }
  }
}

}  // namespace

DatalogAnalysis AnalyzeDatalogProgram(const DatalogProgram& program,
                                      const Vocabulary* vocabulary,
                                      const std::string& query_predicate,
                                      std::optional<int> universe_size) {
  DatalogAnalysis analysis;
  std::vector<Diagnostic>* diagnostics = &analysis.diagnostics;
  const std::vector<std::string> idb = program.IdbPredicates();

  if (vocabulary != nullptr) {
    for (const DatalogRule& rule : program.rules) {
      if (vocabulary->FindRelation(rule.head.relation).has_value()) {
        diagnostics->push_back(MakeError(
            "idb-edb-clash",
            "predicate '" + rule.head.relation +
                "' is both intensional (appears in a rule head) and "
                "extensional",
            rule.head.range));
      }
    }
  }

  ArityTable arities(diagnostics);
  if (vocabulary != nullptr) {
    for (int id = 0; id < vocabulary->relation_count(); ++id) {
      const RelationSymbol& symbol = vocabulary->relation(id);
      arities.Seed(symbol.name, symbol.arity);
    }
  }
  for (const DatalogRule& rule : program.rules) {
    arities.Record(rule.head);
    for (const DatalogLiteral& literal : rule.body) {
      const std::string& name = literal.atom.relation;
      if (!Contains(idb, name) && vocabulary != nullptr &&
          !vocabulary->FindRelation(name).has_value()) {
        diagnostics->push_back(MakeError(
            "unknown-predicate",
            "unknown extensional predicate '" + name + "'",
            literal.atom.range));
        continue;  // no arity to check against
      }
      arities.Record(literal.atom);
    }
  }

  // Safety: head variables and negated variables must be bound by some
  // positive body literal.
  for (const DatalogRule& rule : program.rules) {
    std::set<std::string> positive_variables;
    for (const DatalogLiteral& literal : rule.body) {
      if (!literal.positive) {
        continue;
      }
      for (const Term& term : literal.atom.args) {
        if (term.is_variable()) {
          positive_variables.insert(term.variable);
        }
      }
    }
    std::set<std::string> reported;
    for (const Term& term : rule.head.args) {
      if (term.is_variable() &&
          positive_variables.count(term.variable) == 0 &&
          reported.insert(term.variable).second) {
        diagnostics->push_back(MakeError(
            "unbound-head-variable",
            "head variable '" + term.variable +
                "' is not bound by a positive body literal",
            rule.head.range));
      }
    }
    for (const DatalogLiteral& literal : rule.body) {
      if (literal.positive) {
        continue;
      }
      for (const Term& term : literal.atom.args) {
        if (term.is_variable() &&
            positive_variables.count(term.variable) == 0 &&
            reported.insert(term.variable).second) {
          diagnostics->push_back(MakeError(
              "unsafe-variable",
              "variable '" + term.variable +
                  "' occurs only in negated literals and is never bound",
              literal.atom.range));
        }
      }
    }
  }

  // Constants name universe elements, in heads and bodies alike.
  if (universe_size.has_value()) {
    for (const DatalogRule& rule : program.rules) {
      CheckConstantsInUniverse(rule.head.args, *universe_size,
                               rule.head.range, diagnostics);
      for (const DatalogLiteral& literal : rule.body) {
        CheckConstantsInUniverse(literal.atom.args, *universe_size,
                                 literal.atom.range, diagnostics);
      }
    }
  }

  // Verbatim duplicates (ToString ignores ranges, so rules that differ
  // only in source position still match).
  std::set<std::string> seen_rules;
  for (const DatalogRule& rule : program.rules) {
    if (!seen_rules.insert(rule.ToString()).second) {
      diagnostics->push_back(MakeWarning(
          "duplicate-rule",
          "rule repeats an earlier rule verbatim: " + rule.ToString(),
          rule.range));
    }
  }

  for (size_t r : StratifyDatalogProgram(program).negative_cycles) {
    const DatalogRule& rule = program.rules[r];
    diagnostics->push_back(MakeError(
        "unstratifiable-cycle",
        "predicate '" + rule.head.relation +
            "' depends negatively on itself; the program is not stratified",
        rule.range));
  }

  if (!query_predicate.empty()) {
    if (vocabulary != nullptr && !Contains(idb, query_predicate) &&
        !vocabulary->FindRelation(query_predicate).has_value()) {
      diagnostics->push_back(MakeError(
          "unknown-predicate",
          "unknown query predicate '" + query_predicate + "'"));
    }
    analysis.query_arity = arities.Find(query_predicate);
    CheckReachability(program, idb, query_predicate, diagnostics);
  }
  return analysis;
}

}  // namespace qrel
