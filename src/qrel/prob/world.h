// Possible worlds of an unreliable database.
//
// A world 𝔅 ∈ Ω(𝔇) differs from the observed database 𝔄 only on atoms
// mentioned by the error model, so it is represented as a bitset of *flips*
// over the model's entry ids: bit e set means the event Wrong(atom_e)
// occurred, i.e. the truth value of atom_e in 𝔅 is the opposite of its
// value in 𝔄. This keeps worlds O(#entries) regardless of how many ground
// atoms the database has.

#ifndef QREL_PROB_WORLD_H_
#define QREL_PROB_WORLD_H_

#include <cstdint>
#include <vector>

#include "qrel/prob/error_model.h"
#include "qrel/relational/structure.h"

namespace qrel {

class World {
 public:
  // A world with no flips (the observed database itself).
  explicit World(int entry_count)
      : entry_count_(entry_count),
        bits_(static_cast<size_t>((entry_count + 63) / 64), 0) {}

  int entry_count() const { return entry_count_; }

  bool Flipped(int entry_id) const {
    return (bits_[static_cast<size_t>(entry_id) / 64] >>
            (static_cast<size_t>(entry_id) % 64)) &
           1u;
  }

  void SetFlipped(int entry_id, bool flipped) {
    uint64_t mask = uint64_t{1} << (static_cast<size_t>(entry_id) % 64);
    if (flipped) {
      bits_[static_cast<size_t>(entry_id) / 64] |= mask;
    } else {
      bits_[static_cast<size_t>(entry_id) / 64] &= ~mask;
    }
  }

  int FlipCount() const;

  bool operator==(const World& other) const {
    return entry_count_ == other.entry_count_ && bits_ == other.bits_;
  }

 private:
  int entry_count_;
  std::vector<uint64_t> bits_;
};

class UnreliableDatabase;

// AtomOracle view of one world: atom truth = observed truth XOR flip.
// Holds references; the database and world must outlive the view.
class WorldView : public AtomOracle {
 public:
  WorldView(const UnreliableDatabase& database, const World& world);

  const Vocabulary& vocabulary() const override;
  int universe_size() const override;
  bool AtomTrue(int relation_id, const Tuple& tuple) const override;

  const UnreliableDatabase& database() const { return database_; }
  const World& world() const { return world_; }

 private:
  const UnreliableDatabase& database_;
  const World& world_;
};

}  // namespace qrel

#endif  // QREL_PROB_WORLD_H_
