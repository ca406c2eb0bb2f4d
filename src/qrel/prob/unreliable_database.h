// Unreliable databases 𝔇 = (𝔄, μ): the model of Definition 2.1.
//
// 𝔄 is the observed database (a finite relational structure) and μ assigns
// to every atomic statement the probability that its observed truth value
// is wrong. 𝔇 induces the probability space Ω(𝔇) of possible worlds with
//
//   ν(𝔅) = Π_{φ ∈ Lit(𝔅)} ν(φ),   ν(R ā) = 1-μ(R ā) if 𝔄 ⊨ R ā, else μ(R ā).
//
// This class provides exact ν values (Rational), the Theorem 4.2 scaling
// integer g (the least g with ν(𝔅)·g ∈ ℕ for all 𝔅), world sampling,
// and exhaustive world enumeration for the exact algorithms.

#ifndef QREL_PROB_UNRELIABLE_DATABASE_H_
#define QREL_PROB_UNRELIABLE_DATABASE_H_

#include <functional>
#include <vector>

#include "qrel/prob/error_model.h"
#include "qrel/prob/world.h"
#include "qrel/relational/structure.h"
#include "qrel/util/bigint.h"
#include "qrel/util/rational.h"
#include "qrel/util/rng.h"

namespace qrel {

class UnreliableDatabase {
 public:
  explicit UnreliableDatabase(Structure observed);

  // The Remark of Section 2: instead of (𝔄, μ), specify directly the
  // marginals ν(R ā) of a tuple-independent distribution. This constructor
  // realizes that presentation inside the (𝔄, μ) model by taking the most
  // likely truth value of each atom as the observed database (ν ≥ 1/2 →
  // observed true) with μ = min(ν, 1-ν). Atoms not listed have ν = 0.
  static UnreliableDatabase FromMarginals(
      std::shared_ptr<const Vocabulary> vocabulary, int universe_size,
      const std::vector<std::pair<GroundAtom, Rational>>& nu_true);

  // Whether the error model satisfies de Rougemont's restricted model
  // (the Remark after Prop. 3.2): only *positive* data are unreliable,
  // i.e. μ(R ā) > 0 implies 𝔄 ⊨ R ā.
  bool IsPositiveOnlyModel() const;

  const Structure& observed() const { return observed_; }
  const ErrorModel& model() const { return model_; }
  const Vocabulary& vocabulary() const { return observed_.vocabulary(); }
  int universe_size() const { return observed_.universe_size(); }

  // Sets μ(atom) = error ∈ [0, 1]. Validates the atom against the observed
  // database's vocabulary and universe. Returns the entry id.
  int SetErrorProbability(const GroundAtom& atom, Rational error);

  // Classification of a ground atom with respect to the possible worlds.
  enum class AtomStatus {
    kCertainFalse,  // false in every world with positive probability
    kCertainTrue,   // true in every world with positive probability
    kUncertain,     // 0 < ν(atom true) < 1; *entry_id is set
  };
  AtomStatus StatusOf(const GroundAtom& atom, int* entry_id) const;

  // ν(atom): probability that `atom` holds in the actual database.
  Rational NuTrue(const GroundAtom& atom) const;
  // ν for an entry of the error model (same quantity, by entry id).
  Rational EntryNuTrue(int entry_id) const;

  // ν(𝔅) for the world represented by `world` (Definition 2.1 product).
  // The world's entry count must match the model's.
  Rational WorldProbability(const World& world) const;

  // A natural number g such that ν(𝔅)·g ∈ ℕ for all 𝔅 ∈ Ω(𝔇): the product
  // of the denominators of the (normalized) entry probabilities. Its bit
  // length is polynomial in the encoding of 𝔇, which is all Theorem 4.2
  // needs.
  //
  // Erratum note: the paper's proof computes the *lcm* of the denominators
  // (the gcd loop); since ν(𝔅) is a product of per-atom probabilities, the
  // lcm is not always sufficient — e.g. μ-values 1/4, 3/7, 1/6 give
  // lcm = 84 but the world probability (1/4)(3/7)(1/6) = 1/56 needs a
  // factor 56 ∤ 84. See ComputeGPaperLcm() for the literal construction and
  // tests/unreliable_database_test.cc for the counterexample.
  BigInt ComputeG() const;

  // The literal gcd-loop from the proof of Theorem 4.2 (lcm of the entry
  // probability denominators). Kept for comparison; insufficient in
  // general — see the erratum note on ComputeG().
  BigInt ComputeGPaperLcm() const;

  // Entry ids with 0 < μ < 1, i.e. the dimensions of Ω(𝔇). The number of
  // worlds with positive probability is 2^|UncertainEntries()|.
  const std::vector<int>& UncertainEntries() const {
    return uncertain_entries_;
  }

  // A world drawn from Ω(𝔇): each uncertain atom flips independently with
  // probability μ; μ=1 atoms always flip. Exact (integer-threshold)
  // Bernoulli draws when a μ denominator fits in 64 bits, which covers
  // every probability this library parses from text; wider denominators
  // fall back to a double-precision threshold.
  World SampleWorld(Rng* rng) const;

  // Enumerates all worlds with positive probability along with their exact
  // probabilities. Cost is Θ(2^u) with u = |UncertainEntries()|; aborts if
  // u > 62 (the enumeration counter would overflow — and such an
  // enumeration would never finish anyway).
  void ForEachWorld(
      const std::function<void(const World&, const Rational&)>& fn) const;

  // Like ForEachWorld, but the callback returns false to stop early.
  // Returns true iff every world was visited.
  bool ForEachWorldWhile(
      const std::function<bool(const World&, const Rational&)>& fn) const;

  // Copies the observed database and applies the world's flips; for tests
  // and materializing examples. Prefer WorldView for evaluation.
  Structure MaterializeWorld(const World& world) const;

  // FNV-1a digest of the full instance content: universe size, vocabulary
  // (relation names and arities), every observed fact, and every error-model
  // entry (atom and exact probability). Mixed into checkpoint resume
  // fingerprints (util/snapshot.h) so a database edit that preserves the
  // instance shape still refuses to resume a stale snapshot.
  uint64_t ContentFingerprint() const;

 private:
  Structure observed_;
  ErrorModel model_;
  std::vector<int> uncertain_entries_;
  std::vector<int> certain_flip_entries_;

  void RefreshEntryCaches();
};

// Random access into Ω(𝔇) in enumeration order: world `code` is the
// bitmask over db.UncertainEntries() (bit i flips entry i), the order in
// which ForEachWorldWhile visits worlds. The governed exact loops index
// worlds this way, so a resumed run restarts at any code.
class WorldEnumerator {
 public:
  // Aborts if db has more than 62 uncertain atoms (the code would
  // overflow — and such an enumeration would never finish anyway).
  explicit WorldEnumerator(const UnreliableDatabase& db);

  uint64_t world_count() const { return uint64_t{1} << mu_.size(); }

  // Sets world() to world `code` and returns it.
  const World& Seek(uint64_t code);
  const World& world() const { return world_; }
  // The exact probability ν(𝔅) of world `code`.
  Rational Probability(uint64_t code) const;

 private:
  const std::vector<int>& entries_;
  // Probability contributions of the uncertain entries, reused per world.
  std::vector<Rational> mu_;
  std::vector<Rational> one_minus_mu_;
  World world_;
};

}  // namespace qrel

#endif  // QREL_PROB_UNRELIABLE_DATABASE_H_
