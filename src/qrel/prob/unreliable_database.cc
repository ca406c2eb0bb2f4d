#include "qrel/prob/unreliable_database.h"

#include <utility>

#include "qrel/util/check.h"
#include "qrel/util/snapshot.h"

namespace qrel {

UnreliableDatabase::UnreliableDatabase(Structure observed)
    : observed_(std::move(observed)) {}

UnreliableDatabase UnreliableDatabase::FromMarginals(
    std::shared_ptr<const Vocabulary> vocabulary, int universe_size,
    const std::vector<std::pair<GroundAtom, Rational>>& nu_true) {
  Structure observed(std::move(vocabulary), universe_size);
  for (const auto& [atom, nu] : nu_true) {
    QREL_CHECK_MSG(nu.IsProbability(), "marginal outside [0, 1]");
    if (nu >= Rational::Half()) {
      observed.AddFact(atom.relation, atom.args);
    }
  }
  UnreliableDatabase db(std::move(observed));
  for (const auto& [atom, nu] : nu_true) {
    Rational mu = nu >= Rational::Half() ? nu.Complement() : nu;
    if (!mu.IsZero()) {
      db.SetErrorProbability(atom, mu);
    }
  }
  return db;
}

bool UnreliableDatabase::IsPositiveOnlyModel() const {
  for (int id = 0; id < model_.entry_count(); ++id) {
    if (model_.error(id).IsZero()) {
      continue;
    }
    const GroundAtom& atom = model_.atom(id);
    if (!observed_.AtomTrue(atom.relation, atom.args)) {
      return false;
    }
  }
  return true;
}

int UnreliableDatabase::SetErrorProbability(const GroundAtom& atom,
                                            Rational error) {
  // Delegate range/arity validation to the structure's own checks.
  observed_.AtomTrue(atom.relation, atom.args);
  int id = model_.SetError(atom, std::move(error));
  RefreshEntryCaches();
  return id;
}

void UnreliableDatabase::RefreshEntryCaches() {
  uncertain_entries_ = model_.UncertainEntries();
  certain_flip_entries_ = model_.CertainFlipEntries();
}

UnreliableDatabase::AtomStatus UnreliableDatabase::StatusOf(
    const GroundAtom& atom, int* entry_id) const {
  std::optional<int> id = model_.Find(atom);
  bool observed_true = observed_.AtomTrue(atom.relation, atom.args);
  if (!id.has_value()) {
    return observed_true ? AtomStatus::kCertainTrue : AtomStatus::kCertainFalse;
  }
  const Rational& mu = model_.error(*id);
  if (mu.IsZero()) {
    return observed_true ? AtomStatus::kCertainTrue : AtomStatus::kCertainFalse;
  }
  if (mu.IsOne()) {
    // Certainly wrong: the actual value is the negation of the observed one.
    return observed_true ? AtomStatus::kCertainFalse : AtomStatus::kCertainTrue;
  }
  if (entry_id != nullptr) {
    *entry_id = *id;
  }
  return AtomStatus::kUncertain;
}

Rational UnreliableDatabase::NuTrue(const GroundAtom& atom) const {
  Rational mu = model_.ErrorOf(atom);
  if (observed_.AtomTrue(atom.relation, atom.args)) {
    return mu.Complement();
  }
  return mu;
}

Rational UnreliableDatabase::EntryNuTrue(int entry_id) const {
  const GroundAtom& atom = model_.atom(entry_id);
  const Rational& mu = model_.error(entry_id);
  if (observed_.AtomTrue(atom.relation, atom.args)) {
    return mu.Complement();
  }
  return mu;
}

Rational UnreliableDatabase::WorldProbability(const World& world) const {
  QREL_CHECK_EQ(world.entry_count(), model_.entry_count());
  Rational probability = Rational::One();
  for (int id = 0; id < model_.entry_count(); ++id) {
    const Rational& mu = model_.error(id);
    probability *= world.Flipped(id) ? mu : mu.Complement();
    if (probability.IsZero()) {
      return probability;
    }
  }
  return probability;
}

BigInt UnreliableDatabase::ComputeG() const {
  // ν(𝔅) is a product of one factor n_i/d_i (or (d_i-n_i)/d_i) per entry,
  // so the product of the d_i clears every world probability.
  BigInt g(1);
  for (int id = 0; id < model_.entry_count(); ++id) {
    g = g * model_.error(id).denominator();
  }
  return g;
}

BigInt UnreliableDatabase::ComputeGPaperLcm() const {
  // The gcd loop from the proof of Theorem 4.2: fold the denominators of
  // the normalized probabilities into their least common multiple.
  BigInt g(1);
  for (int id = 0; id < model_.entry_count(); ++id) {
    const BigInt& d = model_.error(id).denominator();
    BigInt b = BigInt::Gcd(g, d);
    if (b != d) {
      g = g * (d / b);
    }
  }
  return g;
}

World UnreliableDatabase::SampleWorld(Rng* rng) const {
  QREL_CHECK(rng != nullptr);
  World world(model_.entry_count());
  for (int id : certain_flip_entries_) {
    world.SetFlipped(id, true);
  }
  for (int id : uncertain_entries_) {
    const Rational& mu = model_.error(id);
    bool flipped;
    if (mu.denominator().FitsInt64()) {
      // Exact: flip iff a uniform draw from {0, .., den-1} lands below num.
      uint64_t den = static_cast<uint64_t>(mu.denominator().ToInt64());
      uint64_t num = static_cast<uint64_t>(mu.numerator().ToInt64());
      flipped = rng->NextBelow(den) < num;
    } else {
      flipped = rng->NextBernoulli(mu.ToDouble());
    }
    world.SetFlipped(id, flipped);
  }
  return world;
}

void UnreliableDatabase::ForEachWorld(
    const std::function<void(const World&, const Rational&)>& fn) const {
  ForEachWorldWhile([&fn](const World& world, const Rational& probability) {
    fn(world, probability);
    return true;
  });
}

bool UnreliableDatabase::ForEachWorldWhile(
    const std::function<bool(const World&, const Rational&)>& fn) const {
  WorldEnumerator worlds(*this);
  for (uint64_t code = 0; code < worlds.world_count(); ++code) {
    if (!fn(worlds.Seek(code), worlds.Probability(code))) {
      return false;
    }
  }
  return true;
}

WorldEnumerator::WorldEnumerator(const UnreliableDatabase& db)
    : entries_(db.UncertainEntries()), world_(db.model().entry_count()) {
  QREL_CHECK_MSG(entries_.size() <= 62,
                 "world enumeration over more than 62 atoms");
  mu_.reserve(entries_.size());
  one_minus_mu_.reserve(entries_.size());
  for (int id : entries_) {
    mu_.push_back(db.model().error(id));
    one_minus_mu_.push_back(mu_.back().Complement());
  }
  for (int id : db.model().CertainFlipEntries()) {
    world_.SetFlipped(id, true);
  }
}

const World& WorldEnumerator::Seek(uint64_t code) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    world_.SetFlipped(entries_[i], (code >> i) & 1u);
  }
  return world_;
}

Rational WorldEnumerator::Probability(uint64_t code) const {
  Rational probability = Rational::One();
  for (size_t i = 0; i < entries_.size(); ++i) {
    probability *= ((code >> i) & 1u) ? mu_[i] : one_minus_mu_[i];
  }
  return probability;
}

Structure UnreliableDatabase::MaterializeWorld(const World& world) const {
  QREL_CHECK_EQ(world.entry_count(), model_.entry_count());
  Structure result = observed_;
  for (int id = 0; id < model_.entry_count(); ++id) {
    if (world.Flipped(id)) {
      const GroundAtom& atom = model_.atom(id);
      result.SetFact(atom.relation, atom.args,
                     !observed_.AtomTrue(atom.relation, atom.args));
    }
  }
  return result;
}

uint64_t UnreliableDatabase::ContentFingerprint() const {
  Fingerprint fp;
  fp.Mix(static_cast<uint64_t>(observed_.universe_size()));
  const Vocabulary& vocab = observed_.vocabulary();
  fp.Mix(static_cast<uint64_t>(vocab.relation_count()));
  for (int r = 0; r < vocab.relation_count(); ++r) {
    const RelationSymbol& symbol = vocab.relation(r);
    fp.Mix(symbol.name);
    fp.Mix(static_cast<uint64_t>(symbol.arity));
    const std::set<Tuple>& facts = observed_.Facts(r);
    fp.Mix(static_cast<uint64_t>(facts.size()));
    for (const Tuple& tuple : facts) {
      for (Element element : tuple) {
        fp.Mix(static_cast<uint64_t>(static_cast<uint32_t>(element)));
      }
    }
  }
  fp.Mix(static_cast<uint64_t>(model_.entry_count()));
  for (int e = 0; e < model_.entry_count(); ++e) {
    const GroundAtom& atom = model_.atom(e);
    fp.Mix(static_cast<uint64_t>(atom.relation));
    fp.Mix(static_cast<uint64_t>(atom.args.size()));
    for (Element element : atom.args) {
      fp.Mix(static_cast<uint64_t>(static_cast<uint32_t>(element)));
    }
    fp.MixRational(model_.error(e));
  }
  return fp.value();
}

}  // namespace qrel
