#include "qrel/prob/possible_facts.h"

#include <algorithm>
#include <utility>

#include "qrel/util/check.h"

namespace qrel {

namespace {

// Lexicographic comparison of a tuple's values at `bound` with `key`.
int CompareBound(const Tuple& tuple, const std::vector<int>& bound,
                 const Tuple& key) {
  for (size_t i = 0; i < bound.size(); ++i) {
    Element value = tuple[static_cast<size_t>(bound[i])];
    if (value != key[i]) {
      return value < key[i] ? -1 : 1;
    }
  }
  return 0;
}

}  // namespace

PossibleFacts::PossibleFacts(const Structure& structure,
                             std::vector<Path> paths)
    : paths_(std::move(paths)) {
  const int relations = structure.vocabulary().relation_count();
  tuples_.resize(static_cast<size_t>(relations));
  for (int r = 0; r < relations; ++r) {
    const std::set<Tuple>& facts = structure.Facts(r);
    tuples_[static_cast<size_t>(r)].assign(facts.begin(), facts.end());
  }
  BuildPaths();
}

PossibleFacts::PossibleFacts(const UnreliableDatabase& db,
                             std::vector<Path> paths)
    : paths_(std::move(paths)) {
  const int relations = db.vocabulary().relation_count();
  tuples_.resize(static_cast<size_t>(relations));
  for (int r = 0; r < relations; ++r) {
    const std::set<Tuple>& facts = db.observed().Facts(r);
    tuples_[static_cast<size_t>(r)].assign(facts.begin(), facts.end());
  }
  for (int id = 0; id < db.model().entry_count(); ++id) {
    const GroundAtom& atom = db.model().atom(id);
    tuples_[static_cast<size_t>(atom.relation)].push_back(atom.args);
  }
  for (std::vector<Tuple>& tuples : tuples_) {
    std::sort(tuples.begin(), tuples.end());
    tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  }
  BuildPaths();
}

void PossibleFacts::BuildPaths() {
  ordered_.reserve(paths_.size());
  for (const Path& path : paths_) {
    QREL_CHECK(path.relation >= 0 &&
               static_cast<size_t>(path.relation) < tuples_.size());
    std::vector<const Tuple*> order;
    order.reserve(tuples_[static_cast<size_t>(path.relation)].size());
    for (const Tuple& tuple : tuples_[static_cast<size_t>(path.relation)]) {
      order.push_back(&tuple);
    }
    // The tuples arrive ascending, so a stable sort on the bound values
    // keeps each bucket in ascending tuple order.
    std::stable_sort(order.begin(), order.end(),
                     [&path](const Tuple* a, const Tuple* b) {
                       for (int position : path.bound) {
                         Element x = (*a)[static_cast<size_t>(position)];
                         Element y = (*b)[static_cast<size_t>(position)];
                         if (x != y) {
                           return x < y;
                         }
                       }
                       return false;
                     });
    ordered_.push_back(std::move(order));
  }
}

std::span<const Tuple* const> PossibleFacts::Match(int path,
                                                   const Tuple& key) const {
  const Path& p = paths_[static_cast<size_t>(path)];
  const std::vector<const Tuple*>& order = ordered_[static_cast<size_t>(path)];
  QREL_CHECK(key.size() == p.bound.size());
  auto first = std::partition_point(
      order.begin(), order.end(), [&](const Tuple* tuple) {
        return CompareBound(*tuple, p.bound, key) < 0;
      });
  auto last = std::partition_point(first, order.end(), [&](const Tuple* tuple) {
    return CompareBound(*tuple, p.bound, key) == 0;
  });
  return {first, last};
}

}  // namespace qrel
