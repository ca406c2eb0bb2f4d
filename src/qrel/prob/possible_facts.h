// The possible facts of a database, indexed for joins, with each fact's
// truth resolved per world.
//
// An atom can be true in some world of 𝔇 = (𝔄, μ) only if it is observed
// true or has an error-model entry; every other atom is false in every
// world. PossibleFacts lists, per relation, the tuples of that superset —
// the observed facts plus the entry atoms — and buckets them along the
// access paths a join needs: a relation looked up by the values at some of
// its argument positions. An entry with μ = 0 on an absent atom is listed
// even though no world makes it true.
//
// Each candidate also carries its record: its observed truth and its
// error-model entry. A world 𝔅 differs from 𝔄 only by flipping entries,
// so a candidate's truth in 𝔅 is `observed XOR 𝔅.Flipped(entry)` — what
// WorldView::AtomTrue computes, without building a tuple or probing the
// observed set and the error model. IndexedWorld reads one world that way
// and answers every other atom false. The readers:
//
//   - the extensional evaluator (lifted/extensional.h) iterates a bucket
//     instead of the domain and weighs each candidate by its marginal;
//   - the Datalog fixpoint (datalog/eval.h) iterates a bucket per
//     positive extensional literal and confirms each candidate's truth;
//   - first-order evaluation (logic/eval.h) loops its guarded quantifier
//     blocks over the candidates of their guard atom;
//   - the Thm 5.4 grounding (logic/grounding.h) takes its bound-variable
//     assignments from the same candidate join and reads each atom's
//     certain/uncertain status from its record.
//
// One index is built per run, from the access paths the caller compiled,
// and lives as long as the run: nothing is cached on the database.

#ifndef QREL_PROB_POSSIBLE_FACTS_H_
#define QREL_PROB_POSSIBLE_FACTS_H_

#include <span>
#include <vector>

#include "qrel/prob/unreliable_database.h"
#include "qrel/prob/world.h"
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
  // world is the structure itself (every candidate is true, no entries).
  PossibleFacts(const Structure& structure, std::vector<Path> paths);
  // The observed facts of `db` plus the atom of every error-model entry.
  PossibleFacts(const UnreliableDatabase& db, std::vector<Path> paths);

  // The buckets point into the per-relation tuple lists.
  PossibleFacts(const PossibleFacts&) = delete;
  PossibleFacts& operator=(const PossibleFacts&) = delete;

  const Vocabulary& vocabulary() const { return *vocabulary_; }
  int universe_size() const { return universe_size_; }
  // Entries of the error model the candidates refer to (0 for a
  // structure); a world read through the index must have this many.
  int entry_count() const { return entry_count_; }
  const std::vector<Path>& paths() const { return paths_; }

  // Every candidate tuple of `relation`, in ascending order.
  const std::vector<Tuple>& Tuples(int relation) const {
    return tuples_[static_cast<size_t>(relation)];
  }

  // The candidates on path `path` (an index into the constructor's paths)
  // whose bound positions hold `key` (key[i] at position bound[i]), in
  // ascending tuple order. Views into this index: valid while it lives.
  std::span<const Tuple* const> Match(int path,
                                      std::span<const Element> key) const;

  // The candidate of `relation` equal to `tuple`, or nullptr when the atom
  // is false in every world.
  const Tuple* Find(int relation, std::span<const Element> tuple) const;

  // Truth of `candidate` (a tuple of this index, from Tuples, Match or
  // Find) in `world`; nullptr reads the observed database.
  bool Holds(int relation, const Tuple* candidate, const World* world) const {
    const Record& record = RecordOf(relation, candidate);
    if (record.entry < 0 || world == nullptr) {
      return record.observed;
    }
    return record.observed != world->Flipped(record.entry);
  }

  // The candidate's status across the worlds of positive probability
  // (UnreliableDatabase::StatusOf); `*entry` is set when uncertain.
  UnreliableDatabase::AtomStatus StatusOf(int relation,
                                          const Tuple* candidate,
                                          int* entry) const {
    const Record& record = RecordOf(relation, candidate);
    *entry = record.entry;
    return record.status;
  }

 private:
  struct Record {
    bool observed = true;
    int entry = -1;  // error-model entry id, or -1
    UnreliableDatabase::AtomStatus status =
        UnreliableDatabase::AtomStatus::kCertainTrue;
  };

  const Record& RecordOf(int relation, const Tuple* candidate) const {
    const size_t r = static_cast<size_t>(relation);
    return records_[r][static_cast<size_t>(candidate - tuples_[r].data())];
  }

  void BuildPaths();

  const Vocabulary* vocabulary_;
  int universe_size_;
  int entry_count_ = 0;
  std::vector<Path> paths_;
  std::vector<std::vector<Tuple>> tuples_;    // per relation, ascending
  std::vector<std::vector<Record>> records_;  // parallel to tuples_
  // Per path: the relation's tuples ordered by (bound values, tuple).
  std::vector<std::vector<const Tuple*>> ordered_;
};

// One world of an indexed database, read through the per-fact records: a
// candidate's truth is its record's, every other atom is false. Hot loops
// call Holds on the candidates a Match returned. The view keeps
// references: the index and the world must outlive it.
class IndexedWorld {
 public:
  // `world` nullptr reads the observed database.
  explicit IndexedWorld(const PossibleFacts& facts,
                        const World* world = nullptr);

  const Vocabulary& vocabulary() const { return facts_.vocabulary(); }
  int universe_size() const { return facts_.universe_size(); }

  // Truth of any atom: a binary search in its relation's candidates.
  bool True(int relation, std::span<const Element> tuple) const {
    const Tuple* candidate = facts_.Find(relation, tuple);
    return candidate != nullptr && Holds(relation, candidate);
  }
  bool Holds(int relation, const Tuple* candidate) const {
    return facts_.Holds(relation, candidate, world_);
  }

  const PossibleFacts& facts() const { return facts_; }

 private:
  const PossibleFacts& facts_;
  const World* world_;
};

}  // namespace qrel

#endif  // QREL_PROB_POSSIBLE_FACTS_H_
