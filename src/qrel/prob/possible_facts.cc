#include "qrel/prob/possible_facts.h"

#include <algorithm>
#include <set>
#include <utility>

#include "qrel/util/check.h"

namespace qrel {

namespace {

// Lexicographic comparison of a tuple's values at `bound` with `key`.
int CompareBound(const Tuple& tuple, const std::vector<int>& bound,
                 std::span<const Element> key) {
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
    : vocabulary_(&structure.vocabulary()),
      universe_size_(structure.universe_size()),
      paths_(std::move(paths)) {
  const int relations = structure.vocabulary().relation_count();
  tuples_.resize(static_cast<size_t>(relations));
  records_.resize(static_cast<size_t>(relations));
  for (int r = 0; r < relations; ++r) {
    const std::set<Tuple>& facts = structure.Facts(r);
    tuples_[static_cast<size_t>(r)].assign(facts.begin(), facts.end());
    records_[static_cast<size_t>(r)].resize(facts.size());
  }
  BuildPaths();
}

PossibleFacts::PossibleFacts(const UnreliableDatabase& db,
                             std::vector<Path> paths)
    : vocabulary_(&db.vocabulary()),
      universe_size_(db.universe_size()),
      entry_count_(db.model().entry_count()),
      paths_(std::move(paths)) {
  const int relations = db.vocabulary().relation_count();
  // Per relation, the entry atoms with their ids, in tuple order.
  std::vector<std::vector<std::pair<const Tuple*, int>>> entries(
      static_cast<size_t>(relations));
  for (int id = 0; id < db.model().entry_count(); ++id) {
    const GroundAtom& atom = db.model().atom(id);
    entries[static_cast<size_t>(atom.relation)].emplace_back(&atom.args, id);
  }
  tuples_.resize(static_cast<size_t>(relations));
  records_.resize(static_cast<size_t>(relations));
  for (int r = 0; r < relations; ++r) {
    std::vector<std::pair<const Tuple*, int>>& atoms =
        entries[static_cast<size_t>(r)];
    std::sort(atoms.begin(), atoms.end(),
              [](const auto& a, const auto& b) { return *a.first < *b.first; });
    const std::set<Tuple>& observed = db.observed().Facts(r);
    std::vector<Tuple>& tuples = tuples_[static_cast<size_t>(r)];
    std::vector<Record>& records = records_[static_cast<size_t>(r)];
    tuples.reserve(observed.size() + atoms.size());
    records.reserve(observed.size() + atoms.size());
    // Merge the observed facts with the entry atoms (an atom has at most
    // one entry).
    auto fact = observed.begin();
    auto atom = atoms.begin();
    while (fact != observed.end() || atom != atoms.end()) {
      Record record;
      if (atom == atoms.end() ||
          (fact != observed.end() && *fact < *atom->first)) {
        tuples.push_back(*fact++);
      } else {
        record.observed = fact != observed.end() && *fact == *atom->first;
        if (record.observed) {
          ++fact;
        }
        record.entry = atom->second;
        const Rational& mu = db.model().error(record.entry);
        if (!mu.IsZero() && !mu.IsOne()) {
          record.status = UnreliableDatabase::AtomStatus::kUncertain;
        } else if (record.observed == mu.IsZero()) {
          record.status = UnreliableDatabase::AtomStatus::kCertainTrue;
        } else {
          record.status = UnreliableDatabase::AtomStatus::kCertainFalse;
        }
        tuples.push_back(*atom++->first);
      }
      records.push_back(record);
    }
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

std::span<const Tuple* const> PossibleFacts::Match(
    int path, std::span<const Element> key) const {
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

const Tuple* PossibleFacts::Find(int relation,
                                 std::span<const Element> tuple) const {
  const std::vector<Tuple>& tuples = tuples_[static_cast<size_t>(relation)];
  auto less = [](const Tuple& a, std::span<const Element> b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  };
  auto it = std::lower_bound(tuples.begin(), tuples.end(), tuple, less);
  if (it == tuples.end() || !std::equal(it->begin(), it->end(), tuple.begin(),
                                        tuple.end())) {
    return nullptr;
  }
  return &*it;
}

IndexedWorld::IndexedWorld(const PossibleFacts& facts, const World* world)
    : facts_(facts), world_(world) {
  QREL_CHECK(world == nullptr || world->entry_count() == facts.entry_count());
}

}  // namespace qrel
