// The Theorem 5.4 grounding: from an existential query over an unreliable
// database to a propositional kDNF formula over the uncertain atoms.
//
//   ψ(x̄) = ∃ȳ φ(x̄, ȳ)   ↦   ψ'(x̄) = ⋁_b̄ φ(x̄, b̄)   ↦   ψ''
//
// where ψ'' replaces equalities by their truth values and treats atomic
// statements as propositional variables. We additionally fold in atoms
// whose truth is certain (error probability 0, or 1), so the variables of
// ψ'' are exactly the error-model entries with 0 < μ < 1. The number of
// literals per disjunct is bounded by the width of φ's DNF — independent
// of the database — so ψ'' is a kDNF of size polynomial in n, as the
// theorem requires.
//
// A disjunct survives only where each of its positive atoms is a possible
// fact that is not certainly false. So each disjunct of φ's DNF runs as a
// candidate join (logic/join.h) over the database's PossibleFacts: its
// bound variables come from the candidates of its positive atoms (a
// variable that no positive atom or equality binds still ranges over the
// universe), and each atom's certain/uncertain status is read from its
// fact record. The cost is O(candidate bindings) instead of the
// n^|bound| assignments of an odometer walk, while the output is that
// walk's: the same terms in the same order (first appearance by bound
// values in lexicographic order, then by disjunct), so a seeded Karp-Luby
// estimate over ψ'' does not change.

#ifndef QREL_LOGIC_GROUNDING_H_
#define QREL_LOGIC_GROUNDING_H_

#include <vector>

#include "qrel/logic/normal_form.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

// A literal of the grounded DNF: an error-model entry id, possibly negated.
struct GroundLiteral {
  int entry = 0;
  bool positive = true;

  bool operator==(const GroundLiteral& other) const {
    return entry == other.entry && positive == other.positive;
  }
  bool operator<(const GroundLiteral& other) const {
    if (entry != other.entry) return entry < other.entry;
    return positive < other.positive;
  }
};

// A propositional DNF over error-model entries. Terms are consistent
// (no complementary pair) and duplicate-free, with literals sorted by
// entry id; the term list is duplicate-free.
struct GroundDnf {
  std::vector<std::vector<GroundLiteral>> terms;
  // Some disjunct reduced to the empty (always-true) term: the query holds
  // in every world with positive probability. `terms` is empty then.
  bool certainly_true = false;

  // The k of kDNF: maximum number of literals in a term (0 if no terms).
  int Width() const;
};

// Grounds the prenex-existential query against `database`, with
// `free_assignment` supplying values for prenex.free_variables (in order;
// empty for sentences). Fails with InvalidArgument if a free value or an
// atom's constant lies outside the universe, and with OutOfRange if more
// than `max_terms` distinct ground terms are found before a certainly
// true disjunct (the bound exists to keep malformed inputs from
// exhausting memory; the construction itself is polynomial for a fixed
// query). `ctx` (nullable) is charged one work unit per candidate binding
// the joins visit (each candidate or universe element a join step
// examines; a matrix without bound variables visits its one empty
// binding) plus one per emitted ground term; a tripped envelope stops the
// expansion with the budget status.
StatusOr<GroundDnf> GroundExistential(const PrenexExistential& prenex,
                                      const UnreliableDatabase& database,
                                      const Tuple& free_assignment,
                                      size_t max_terms = size_t{1} << 22,
                                      RunContext* ctx = nullptr);

}  // namespace qrel

#endif  // QREL_LOGIC_GROUNDING_H_
