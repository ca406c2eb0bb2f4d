// The Datalog golden cases: ~50 seeded (program, database) pairs covering
// constants, repeated variables, negation, several strata and EDB
// relations of arity 1, 2 and 3. tests/datalog_golden_gen.cc renders each
// case's outcome into tests/testdata/datalog_fixpoints.txt, and
// tests/datalog_golden_test.cc requires the current code to reproduce
// every line exactly: the full fixpoint on the observed database, the
// number of body-literal calls the fixpoint charged, and the exact
// reliability of the query predicate (Thm 4.2 over the uncertain atoms).
//
// Only public entry points are used, so the generator also builds against
// older revisions of the library (which is how the committed file was
// produced: see tests/testdata/README.md).

#ifndef QREL_TESTS_DATALOG_GOLDEN_CASES_H_
#define QREL_TESTS_DATALOG_GOLDEN_CASES_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "qrel/datalog/eval.h"
#include "qrel/datalog/program.h"
#include "qrel/datalog/reliability.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/relational/atom_table.h"
#include "qrel/util/rng.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel::datalog_golden {

inline constexpr int kCaseCount = 50;

// Program templates over EDB relations A/1, E/2, R/3. Each `@` is replaced
// by a constant drawn per case; the second field is the query predicate.
struct ProgramTemplate {
  const char* text;
  const char* predicate;
};

inline const std::vector<ProgramTemplate>& Templates() {
  static const std::vector<ProgramTemplate> templates = {
      // Recursion through one EDB join.
      {"P(x, y) :- E(x, y).\n"
       "P(x, z) :- P(x, y), E(y, z).",
       "P"},
      // Constants in a body, a repeated variable, negation on an IDB.
      {"L(x) :- E(x, x).\n"
       "F(y) :- E(@, y).\n"
       "G(x) :- F(x), !L(x).",
       "G"},
      // Arity-3 EDB with a repeated variable and negated EDB.
      {"J(x, z) :- R(x, y, z), A(y).\n"
       "K(x) :- R(x, x, y), !A(y).\n"
       "Q(x, z) :- J(x, z), !K(z).",
       "Q"},
      // Three strata: reachability, then its complement, then a filter.
      {"Reach(x) :- A(x).\n"
       "Reach(y) :- Reach(x), E(x, y).\n"
       "Un(x) :- E(x, y), !Reach(x).\n"
       "Top(x) :- Un(x), !A(x).",
       "Top"},
      // Same generation: two EDB literals sharing a variable, recursion in
      // the middle.
      {"S(x, y) :- E(p, x), E(p, y).\n"
       "S(x, y) :- E(p, x), S(p, q), E(q, y).",
       "S"},
      // A constant in a head, a body-less fact and a symmetric closure.
      {"H(@, x) :- A(x).\n"
       "H(@, @).\n"
       "H(x, y) :- H(y, x).",
       "H"},
      // Arity-3 EDB with a constant and a repeated variable, recursive.
      {"T3(x) :- R(@, x, x).\n"
       "T3(y) :- T3(x), R(x, y, z), A(z).",
       "T3"},
      // Negated EDB literals with swapped arguments.
      {"N(x, y) :- E(x, y), !E(y, x).\n"
       "P(y) :- A(y).\n"
       "D(x) :- N(x, y), !P(y).",
       "D"},
      // A cross product restricted by negation.
      {"C(x, y) :- A(x), A(y), !E(x, y).", "C"},
      // Mutual recursion and a constant inside an arity-3 literal.
      {"Even(x) :- A(x).\n"
       "Odd(y) :- Even(x), E(x, y).\n"
       "Even(y) :- Odd(x), E(x, y).\n"
       "W(x) :- Odd(x), R(x, @, y).",
       "W"},
  };
  return templates;
}

struct Case {
  std::string program;
  std::string predicate;
  UnreliableDatabase db;
};

inline std::shared_ptr<Vocabulary> GoldenVocabulary() {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("A", 1);
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("R", 3);
  return vocabulary;
}

// Case `index`: template index % 10, with its constants, the observed
// database (universe 3 to 5) and four error-model entries drawn from a
// per-case stream. The entries mix present and absent atoms and include
// μ = 0 and μ = 1.
inline Case MakeCase(int index) {
  Rng rng(0x5eed0000u + static_cast<uint64_t>(index));
  const ProgramTemplate& shape =
      Templates()[static_cast<size_t>(index) % Templates().size()];
  const int n = 3 + static_cast<int>(rng.NextBelow(3));
  std::string program;
  for (const char* c = shape.text; *c != '\0'; ++c) {
    if (*c == '@') {
      program += '#';
      program += std::to_string(rng.NextBelow(static_cast<uint64_t>(n)));
    } else {
      program += *c;
    }
  }
  Structure observed(GoldenVocabulary(), n);
  for (int a = 0; a < n; ++a) {
    if (rng.NextBelow(2) == 0) observed.AddFact(0, {a});
    for (int b = 0; b < n; ++b) {
      if (rng.NextBelow(3) == 0) observed.AddFact(1, {a, b});
      for (int c = 0; c < n; ++c) {
        if (rng.NextBelow(6) == 0) observed.AddFact(2, {a, b, c});
      }
    }
  }
  UnreliableDatabase db(std::move(observed));
  const int64_t mu_numerators[] = {0, 1, 2, 3, 4};
  for (int i = 0; i < 4; ++i) {
    GroundAtom atom;
    atom.relation = static_cast<int>(rng.NextBelow(3));
    for (int j = 0; j <= atom.relation; ++j) {
      atom.args.push_back(
          static_cast<Element>(rng.NextBelow(static_cast<uint64_t>(n))));
    }
    db.SetErrorProbability(atom, Rational(mu_numerators[rng.NextBelow(5)], 4));
  }
  return Case{program, shape.predicate, std::move(db)};
}

inline std::string RenderTuples(const std::set<Tuple>& tuples) {
  std::string out = "{";
  bool first = true;
  for (const Tuple& tuple : tuples) {
    out += first ? "(" : " (";
    first = false;
    for (size_t i = 0; i < tuple.size(); ++i) {
      out += i == 0 ? "" : ",";
      out += std::to_string(tuple[i]);
    }
    out += ")";
  }
  return out + "}";
}

// One line: the observed fixpoint of every IDB predicate, the fixpoint's
// work count, and the exact H and R of the query predicate.
inline std::string RenderCase(int index) {
  Case c = MakeCase(index);
  StatusOr<DatalogProgram> parsed = ParseDatalogProgram(c.program);
  if (!parsed.ok()) {
    return "parse error: " + parsed.status().ToString();
  }
  StatusOr<CompiledDatalog> program =
      CompiledDatalog::Compile(std::move(parsed).value(), c.db.vocabulary());
  if (!program.ok()) {
    return "compile error: " + program.status().ToString();
  }
  RunContext ctx;
  StatusOr<DatalogResult> fixpoint = program->Eval(c.db.observed(), &ctx);
  if (!fixpoint.ok()) {
    return "eval error: " + fixpoint.status().ToString();
  }
  std::string line = std::to_string(index);
  for (const auto& [predicate, tuples] : *fixpoint) {
    line += " " + predicate + "=" + RenderTuples(tuples);
  }
  line += " nodes=" + std::to_string(ctx.work_spent());
  StatusOr<ReliabilityReport> exact =
      ExactDatalogReliability(*program, c.predicate, c.db);
  if (!exact.ok()) {
    return line + " exact error: " + exact.status().ToString();
  }
  return line + " H=" + exact->expected_error.ToString() +
         " R=" + exact->reliability.ToString() +
         " worlds=" + std::to_string(exact->work_units);
}

}  // namespace qrel::datalog_golden

#endif  // QREL_TESTS_DATALOG_GOLDEN_CASES_H_
