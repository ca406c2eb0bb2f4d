// The possible facts of a database, indexed for joins.
//
// An atom can be true in some world of 𝔇 = (𝔄, μ) only if it is observed
// true or has an error-model entry; every other atom is false in every
// world. PossibleFacts lists, per relation, the tuples of that superset —
// the observed facts plus the entry atoms — and buckets them along the
// access paths a join needs: a relation looked up by the values at some of
// its argument positions. The extensional evaluator (lifted/extensional.h)
// and the Datalog fixpoint (datalog/eval.h) iterate a bucket instead of
// the n^|free| tuples of the domain, and confirm each candidate against a
// world's oracle or the marginals, so the index only ever narrows the
// scan; it never decides truth. An entry with μ = 0 on an absent atom is
// listed even though no world makes it true.
//
// One index is built per run, from the access paths the caller compiled,
// and lives as long as the run: nothing is cached on the database.

#ifndef QREL_PROB_POSSIBLE_FACTS_H_
#define QREL_PROB_POSSIBLE_FACTS_H_

#include <span>
#include <vector>

#include "qrel/prob/unreliable_database.h"
#include "qrel/relational/structure.h"

namespace qrel {

class PossibleFacts {
 public:
  // One access path: tuples of `relation` looked up by the values at the
  // argument positions `bound` (ascending; empty for a full scan).
  struct Path {
    int relation = 0;
    std::vector<int> bound;

    bool operator==(const Path& other) const = default;
  };

  // The facts of `structure`: the possible facts of a database whose only
  // world is the structure itself.
  PossibleFacts(const Structure& structure, std::vector<Path> paths);
  // The observed facts of `db` plus the atom of every error-model entry.
  PossibleFacts(const UnreliableDatabase& db, std::vector<Path> paths);

  // The buckets point into the per-relation tuple lists.
  PossibleFacts(const PossibleFacts&) = delete;
  PossibleFacts& operator=(const PossibleFacts&) = delete;

  // Every candidate tuple of `relation`, in ascending order.
  const std::vector<Tuple>& Tuples(int relation) const {
    return tuples_[static_cast<size_t>(relation)];
  }

  // The candidates on path `path` (an index into the constructor's paths)
  // whose bound positions hold `key` (key[i] at position bound[i]), in
  // ascending tuple order. Views into this index: valid while it lives.
  std::span<const Tuple* const> Match(int path, const Tuple& key) const;

 private:
  void BuildPaths();

  std::vector<Path> paths_;
  std::vector<std::vector<Tuple>> tuples_;  // per relation, ascending
  // Per path: the relation's tuples ordered by (bound values, tuple).
  std::vector<std::vector<const Tuple*>> ordered_;
};

}  // namespace qrel

#endif  // QREL_PROB_POSSIBLE_FACTS_H_
