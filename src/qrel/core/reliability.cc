#include "qrel/core/reliability.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "qrel/logic/classify.h"
#include "qrel/util/check.h"
#include "qrel/util/fault_injection.h"

namespace qrel {

namespace {

// Answers atom queries from an explicit map; used by the Proposition 3.1
// algorithm, where only the atoms of ψ(ā) matter.
class LocalOracle : public AtomOracle {
 public:
  LocalOracle(const Vocabulary& vocabulary, int universe_size)
      : vocabulary_(vocabulary), universe_size_(universe_size) {}

  void Set(const GroundAtom& atom, bool value) { values_[atom] = value; }

  const Vocabulary& vocabulary() const override { return vocabulary_; }
  int universe_size() const override { return universe_size_; }
  bool AtomTrue(int relation_id, const Tuple& tuple) const override {
    auto it = values_.find(GroundAtom{relation_id, tuple});
    QREL_CHECK_MSG(it != values_.end(),
                   "LocalOracle queried for an unregistered atom");
    return it->second;
  }

 private:
  const Vocabulary& vocabulary_;
  int universe_size_;
  std::unordered_map<GroundAtom, bool, GroundAtomHash> values_;
};

// Collects the ground atoms of the quantifier-free ψ(ā), where `formula`'s
// free variables take the values given by `free_index` + `assignment`.
void CollectGroundAtoms(
    const Formula& formula,
    const std::unordered_map<std::string, size_t>& free_index,
    const Tuple& assignment, const Vocabulary& vocabulary,
    std::vector<GroundAtom>* atoms) {
  if (formula.kind == FormulaKind::kAtom) {
    GroundAtom atom;
    std::optional<int> relation = vocabulary.FindRelation(formula.relation);
    QREL_CHECK(relation.has_value());
    atom.relation = *relation;
    for (const Term& term : formula.args) {
      if (term.is_variable()) {
        atom.args.push_back(assignment[free_index.at(term.variable)]);
      } else {
        atom.args.push_back(term.constant);
      }
    }
    // Deduplicate.
    for (const GroundAtom& existing : *atoms) {
      if (existing == atom) {
        return;
      }
    }
    atoms->push_back(std::move(atom));
    return;
  }
  for (const FormulaPtr& child : formula.children) {
    CollectGroundAtoms(*child, free_index, assignment, vocabulary, atoms);
  }
}

}  // namespace

std::vector<Tuple> AllTuples(int n, int k) {
  std::vector<Tuple> result;
  Tuple tuple(static_cast<size_t>(k), 0);
  do {
    result.push_back(tuple);
  } while (AdvanceTuple(&tuple, n));
  return result;
}

Rational TupleSpaceSize(int n, int k) {
  return Rational(BigInt::Pow(BigInt(n), static_cast<uint32_t>(k)), BigInt(1));
}

ObservedAnswers::ObservedAnswers(const CompiledQuery& query,
                                 const UnreliableDatabase& db)
    : query_(query), tuples_(AllTuples(db.universe_size(), query.arity())) {
  for (const Tuple& tuple : tuples_) {
    truth_.push_back(query.Eval(db.observed(), tuple));
  }
}

size_t ObservedAnswers::CountDifferences(const AtomOracle& world) const {
  size_t count = 0;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (query_.Eval(world, tuples_[i]) != truth_[i]) {
      ++count;
    }
  }
  return count;
}

StatusOr<ReliabilityReport> ExactReliability(const FormulaPtr& query,
                                             const UnreliableDatabase& db,
                                             RunContext* ctx) {
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  if (db.UncertainEntries().size() > 62) {
    return Status::OutOfRange(
        "exact reliability would enumerate more than 2^62 worlds");
  }
  int n = db.universe_size();
  int k = compiled->arity();
  ObservedAnswers observed(*compiled, db);

  Fingerprint fingerprint;
  fingerprint.Mix("core.exact")
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .Mix(static_cast<uint64_t>(db.UncertainEntries().size()))
      .Mix(query->ToString())
      .Mix(db.ContentFingerprint());
  GovernedLoop loop(ctx, {.kind = "core.exact.v1",
                          .fingerprint = fingerprint.value(),
                          .end = uint64_t{1} << db.UncertainEntries().size(),
                          .fault_site = "core.exact.world"});
  ReliabilityReport report;
  report.arity = k;
  QREL_RETURN_IF_ERROR(EnumerateWorlds(
      db, loop, &report, [&](const WorldView& view) -> StatusOr<size_t> {
        return observed.CountDifferences(view);
      }));
  return report;
}

Status CheckAssignmentInUniverse(const Tuple& assignment,
                                 const UnreliableDatabase& db) {
  for (Element value : assignment) {
    if (value < 0 || value >= db.universe_size()) {
      return Status::InvalidArgument(
          "constant-out-of-range: assignment value " + std::to_string(value) +
          " is outside the universe of size " +
          std::to_string(db.universe_size()));
    }
  }
  return Status::Ok();
}

StatusOr<Rational> ExactQueryProbability(const FormulaPtr& query,
                                         const UnreliableDatabase& db,
                                         const Tuple& assignment) {
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  if (static_cast<int>(assignment.size()) != compiled->arity()) {
    return Status::InvalidArgument("assignment arity mismatch");
  }
  QREL_RETURN_IF_ERROR(CheckAssignmentInUniverse(assignment, db));
  if (db.UncertainEntries().size() > 62) {
    return Status::OutOfRange(
        "exact probability would enumerate more than 2^62 worlds");
  }
  Rational probability;
  db.ForEachWorld([&](const World& world, const Rational& world_probability) {
    if (world_probability.IsZero()) {
      return;
    }
    WorldView view(db, world);
    if (compiled->Eval(view, assignment)) {
      probability += world_probability;
    }
  });
  return probability;
}

StatusOr<ScaledProbability> ExactScaledProbability(
    const FormulaPtr& query, const UnreliableDatabase& db,
    const Tuple& assignment) {
  StatusOr<Rational> probability = ExactQueryProbability(query, db, assignment);
  if (!probability.ok()) {
    return probability.status();
  }
  ScaledProbability result;
  result.g = db.ComputeG();
  Rational scaled = *probability * Rational(result.g, BigInt(1));
  QREL_CHECK_MSG(scaled.denominator().IsOne(),
                 "g does not scale the probability to an integer");
  result.g_times_probability = scaled.numerator();
  return result;
}

StatusOr<ReliabilityReport> QuantifierFreeReliability(
    const FormulaPtr& query, const UnreliableDatabase& db, RunContext* ctx) {
  if (!IsQuantifierFree(query)) {
    return Status::InvalidArgument(
        "QuantifierFreeReliability requires a quantifier-free query");
  }
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  int n = db.universe_size();
  int k = compiled->arity();

  std::unordered_map<std::string, size_t> free_index;
  for (size_t i = 0; i < compiled->free_variables().size(); ++i) {
    free_index.emplace(compiled->free_variables()[i], i);
  }

  ReliabilityReport report;
  report.arity = k;

  Tuple assignment(static_cast<size_t>(k), 0);
  do {
    QREL_FAULT_SITE("core.quantifier_free.tuple");
    // The ground atoms of ψ(ā); their number is bounded by the number of
    // atom subformulas of ψ, independent of the database.
    std::vector<GroundAtom> atoms;
    CollectGroundAtoms(*query, free_index, assignment, db.vocabulary(),
                       &atoms);

    LocalOracle oracle(db.vocabulary(), n);
    std::vector<int> uncertain;  // indices into `atoms`
    std::vector<Rational> nu_true;
    for (size_t i = 0; i < atoms.size(); ++i) {
      int entry = -1;
      switch (db.StatusOf(atoms[i], &entry)) {
        case UnreliableDatabase::AtomStatus::kCertainTrue:
          oracle.Set(atoms[i], true);
          break;
        case UnreliableDatabase::AtomStatus::kCertainFalse:
          oracle.Set(atoms[i], false);
          break;
        case UnreliableDatabase::AtomStatus::kUncertain:
          uncertain.push_back(static_cast<int>(i));
          nu_true.push_back(db.EntryNuTrue(entry));
          break;
      }
    }
    QREL_CHECK_LE(uncertain.size(), 62u);

    bool observed = compiled->Eval(db.observed(), assignment);
    Rational h_tuple;
    uint64_t combinations = uint64_t{1} << uncertain.size();
    QREL_RETURN_IF_ERROR(ChargeWork(ctx, combinations));
    report.work_units += combinations;
    if (!uncertain.empty()) {
      for (uint64_t code = 0; code < combinations; ++code) {
        Rational probability = Rational::One();
        for (size_t i = 0; i < uncertain.size(); ++i) {
          bool value = (code >> i) & 1u;
          oracle.Set(atoms[static_cast<size_t>(uncertain[i])], value);
          probability *= value ? nu_true[i] : nu_true[i].Complement();
        }
        if (probability.IsZero()) {
          continue;
        }
        if (compiled->Eval(oracle, assignment) != observed) {
          h_tuple += probability;
        }
      }
    }
    report.expected_error += h_tuple;
  } while (AdvanceTuple(&assignment, n));

  report.reliability =
      Rational(1) - report.expected_error / TupleSpaceSize(n, k);
  return report;
}

StatusOr<ReliabilityReport> ExactSecondOrderReliability(
    const CompiledSecondOrder& query, const UnreliableDatabase& db,
    bool pi11) {
  if (db.UncertainEntries().size() > 62) {
    return Status::OutOfRange(
        "exact reliability would enumerate more than 2^62 worlds");
  }
  auto eval = [&](const AtomOracle& oracle) {
    return pi11 ? query.EvalPi11(oracle) : query.EvalSigma11(oracle);
  };
  // The first evaluation surfaces guess-space feasibility errors before
  // the world loop commits to them.
  StatusOr<bool> observed = eval(db.observed());
  if (!observed.ok()) {
    return observed.status();
  }

  ReliabilityReport report;
  report.arity = 0;
  db.ForEachWorld([&](const World& world, const Rational& probability) {
    ++report.work_units;
    if (probability.IsZero()) {
      return;
    }
    WorldView view(db, world);
    StatusOr<bool> actual = eval(view);
    QREL_CHECK(actual.ok());  // feasibility was established above
    if (*actual != *observed) {
      report.expected_error += probability;
    }
  });
  report.reliability = Rational(1) - report.expected_error;
  return report;
}

StatusOr<std::vector<TupleError>> PerTupleExpectedError(
    const FormulaPtr& query, const UnreliableDatabase& db) {
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  int n = db.universe_size();
  int k = compiled->arity();
  std::vector<Tuple> tuples = AllTuples(n, k);

  std::vector<TupleError> result(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    result[i].tuple = tuples[i];
    result[i].observed = compiled->Eval(db.observed(), tuples[i]);
  }

  if (IsQuantifierFree(query)) {
    // Per-tuple errors are exactly what the Prop. 3.1 inner loop computes;
    // run it through ExactQueryProbability-style local enumeration by
    // instantiating the free variables and reusing the quantifier-free
    // machinery on each Boolean instance.
    for (size_t i = 0; i < tuples.size(); ++i) {
      FormulaPtr instance = query;
      const std::vector<std::string>& names = compiled->free_variables();
      for (size_t v = 0; v < names.size(); ++v) {
        instance = SubstituteConstant(instance, names[v], tuples[i][v]);
      }
      StatusOr<ReliabilityReport> report =
          QuantifierFreeReliability(instance, db);
      if (!report.ok()) {
        return report.status();
      }
      result[i].error = report->expected_error;
    }
    return result;
  }

  if (db.UncertainEntries().size() > 62) {
    return Status::OutOfRange(
        "per-tuple errors would enumerate more than 2^62 worlds");
  }
  db.ForEachWorld([&](const World& world, const Rational& probability) {
    if (probability.IsZero()) {
      return;
    }
    WorldView view(db, world);
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (compiled->Eval(view, tuples[i]) != result[i].observed) {
        result[i].error += probability;
      }
    }
  });
  return result;
}

}  // namespace qrel
