#include "qrel/datalog/eval.h"

#include <algorithm>
#include <set>
#include <utility>

#include "qrel/util/check.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/snapshot.h"

namespace qrel {

namespace {

constexpr Element kUnbound = -1;

// IDB serialization for fixpoint checkpoints. std::map iteration order is
// the predicate-name order, so the encoding is canonical.
void WriteIdb(SnapshotWriter& w, const DatalogResult& idb) {
  w.U32(static_cast<uint32_t>(idb.size()));
  for (const auto& [predicate, tuples] : idb) {
    w.String(predicate);
    w.U32(static_cast<uint32_t>(tuples.size()));
    for (const Tuple& tuple : tuples) {
      w.TupleVal(tuple);
    }
  }
}

// Restores into `idb`, which must already hold exactly the program's
// predicates (mapped to empty sets); unknown names are data loss. Every
// restored tuple is validated against the predicate's recorded arity and
// the universe, so a forged payload (valid checksum, matching fingerprint)
// cannot smuggle a short or out-of-range tuple into BodySatisfied's
// indexing — it degrades to kDataLoss, never UB.
Status ReadIdb(SnapshotReader& r, const std::map<std::string, int>& arity,
               int universe_size, DatalogResult* idb) {
  uint32_t predicate_count = 0;
  QREL_RETURN_IF_ERROR(r.U32(&predicate_count));
  if (predicate_count != idb->size()) {
    return Status::DataLoss("snapshot IDB predicate count mismatch");
  }
  for (uint32_t p = 0; p < predicate_count; ++p) {
    std::string predicate;
    QREL_RETURN_IF_ERROR(r.String(&predicate));
    auto it = idb->find(predicate);
    if (it == idb->end()) {
      return Status::DataLoss("snapshot IDB holds unknown predicate '" +
                              predicate + "'");
    }
    auto arity_it = arity.find(predicate);
    if (arity_it == arity.end()) {
      return Status::DataLoss("snapshot IDB predicate '" + predicate +
                              "' has no recorded arity");
    }
    uint32_t tuple_count = 0;
    QREL_RETURN_IF_ERROR(r.U32(&tuple_count));
    for (uint32_t t = 0; t < tuple_count; ++t) {
      Tuple tuple;
      QREL_RETURN_IF_ERROR(r.TupleVal(&tuple));
      if (tuple.size() != static_cast<size_t>(arity_it->second)) {
        return Status::DataLoss("snapshot IDB tuple arity mismatch for '" +
                                predicate + "'");
      }
      for (Element element : tuple) {
        if (element < 0 || element >= universe_size) {
          return Status::DataLoss(
              "snapshot IDB tuple element out of range for '" + predicate +
              "'");
        }
      }
      it->second.insert(std::move(tuple));
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<CompiledDatalog> CompiledDatalog::Compile(
    DatalogProgram program, const Vocabulary& edb_vocabulary) {
  CompiledDatalog compiled;
  compiled.edb_vocabulary_ = &edb_vocabulary;

  // IDB predicates and arities (consistent across all uses).
  std::vector<std::string> idb = program.IdbPredicates();
  for (const std::string& predicate : idb) {
    if (edb_vocabulary.FindRelation(predicate).has_value()) {
      return Status::InvalidArgument(
          "predicate '" + predicate +
          "' is both intensional (appears in a rule head) and extensional");
    }
  }
  auto is_idb = [&idb](const std::string& name) {
    return std::find(idb.begin(), idb.end(), name) != idb.end();
  };
  auto record_arity = [&compiled](const std::string& name,
                                  int arity) -> Status {
    auto [it, inserted] = compiled.idb_arity_.emplace(name, arity);
    if (!inserted && it->second != arity) {
      return Status::InvalidArgument("inconsistent arity for predicate '" +
                                     name + "'");
    }
    return Status::Ok();
  };

  for (const DatalogRule& rule : program.rules) {
    QREL_RETURN_IF_ERROR(record_arity(
        rule.head.relation, static_cast<int>(rule.head.args.size())));
    for (const DatalogLiteral& literal : rule.body) {
      const std::string& name = literal.atom.relation;
      int arity = static_cast<int>(literal.atom.args.size());
      if (is_idb(name)) {
        QREL_RETURN_IF_ERROR(record_arity(name, arity));
      } else {
        std::optional<int> relation = edb_vocabulary.FindRelation(name);
        if (!relation.has_value()) {
          return Status::InvalidArgument("unknown extensional predicate '" +
                                         name + "'");
        }
        if (edb_vocabulary.relation(*relation).arity != arity) {
          return Status::InvalidArgument("arity mismatch for predicate '" +
                                         name + "'");
        }
      }
    }
  }

  DatalogStrata strata = StratifyDatalogProgram(program);
  if (!strata.negative_cycles.empty()) {
    return Status::InvalidArgument(
        "program is not stratified: predicate '" +
        program.rules[strata.negative_cycles.front()].head.relation +
        "' depends negatively on itself");
  }
  compiled.idb_stratum_ = std::move(strata.stratum);
  for (const auto& [predicate, stratum] : compiled.idb_stratum_) {
    compiled.stratum_count_ =
        std::max(compiled.stratum_count_, stratum + 1);
  }
  compiled.idb_predicates_ = idb;
  std::stable_sort(compiled.idb_predicates_.begin(),
                   compiled.idb_predicates_.end(),
                   [&compiled](const std::string& a, const std::string& b) {
                     return compiled.idb_stratum_.at(a) <
                            compiled.idb_stratum_.at(b);
                   });

  // Per-rule compilation: variable slots, safety, body reordering.
  for (const DatalogRule& rule : program.rules) {
    CompiledRule compiled_rule;
    compiled_rule.head = rule.head.relation;
    compiled_rule.stratum = compiled.idb_stratum_.at(rule.head.relation);

    std::vector<std::string> variables;
    auto slot_of = [&variables](const Term& term) {
      auto it = std::find(variables.begin(), variables.end(), term.variable);
      if (it == variables.end()) {
        variables.push_back(term.variable);
        return static_cast<int>(variables.size()) - 1;
      }
      return static_cast<int>(it - variables.begin());
    };
    auto compile_args = [&](const std::vector<Term>& args,
                            std::vector<int>* slots,
                            std::vector<Element>* constants) {
      for (const Term& term : args) {
        if (term.is_variable()) {
          slots->push_back(slot_of(term));
          constants->push_back(0);
        } else {
          slots->push_back(-1);
          constants->push_back(term.constant);
        }
      }
    };

    // Positive body literals bind variables; compile them first so
    // negative literals always see fully bound arguments.
    std::vector<const DatalogLiteral*> ordered;
    for (const DatalogLiteral& literal : rule.body) {
      if (literal.positive) ordered.push_back(&literal);
    }
    size_t positive_count = ordered.size();
    for (const DatalogLiteral& literal : rule.body) {
      if (!literal.positive) ordered.push_back(&literal);
    }

    std::vector<std::string> positive_variables;
    // Slots bound by the literals compiled so far: positive literals run
    // in this order, so whether an argument is bound at a literal is
    // fixed at compile time.
    std::set<int> bound_slots;
    for (size_t i = 0; i < ordered.size(); ++i) {
      const DatalogLiteral& literal = *ordered[i];
      CompiledLiteral compiled_literal;
      compiled_literal.positive = literal.positive;
      compiled_literal.is_idb = is_idb(literal.atom.relation);
      if (compiled_literal.is_idb) {
        compiled_literal.idb_relation = literal.atom.relation;
        compiled_literal.same_stratum_idb =
            literal.positive &&
            compiled.idb_stratum_.at(literal.atom.relation) ==
                compiled_rule.stratum;
      } else {
        compiled_literal.edb_relation =
            *edb_vocabulary.FindRelation(literal.atom.relation);
      }
      compile_args(literal.atom.args, &compiled_literal.slots,
                   &compiled_literal.constants);
      if (literal.positive && !compiled_literal.is_idb) {
        PossibleFacts::Path path;
        path.relation = compiled_literal.edb_relation;
        for (size_t position = 0; position < compiled_literal.slots.size();
             ++position) {
          int slot = compiled_literal.slots[position];
          if (slot < 0 || bound_slots.count(slot) != 0) {
            path.bound.push_back(static_cast<int>(position));
          }
        }
        auto it = std::find(compiled.edb_paths_.begin(),
                            compiled.edb_paths_.end(), path);
        compiled_literal.edb_path =
            static_cast<int>(it - compiled.edb_paths_.begin());
        if (it == compiled.edb_paths_.end()) {
          compiled.edb_paths_.push_back(std::move(path));
        }
      }
      if (literal.positive) {
        bound_slots.insert(compiled_literal.slots.begin(),
                           compiled_literal.slots.end());
      }
      if (i < positive_count) {
        for (const Term& term : literal.atom.args) {
          if (term.is_variable()) {
            positive_variables.push_back(term.variable);
          }
        }
      }
      compiled_rule.body.push_back(std::move(compiled_literal));
    }

    // Safety: head and negated variables must occur positively.
    auto bound_positively = [&positive_variables](const std::string& name) {
      return std::find(positive_variables.begin(), positive_variables.end(),
                       name) != positive_variables.end();
    };
    for (const Term& term : rule.head.args) {
      if (term.is_variable() && !bound_positively(term.variable)) {
        return Status::InvalidArgument(
            "unsafe rule (head variable '" + term.variable +
            "' not bound by a positive body literal): " + rule.ToString());
      }
    }
    for (const DatalogLiteral& literal : rule.body) {
      if (literal.positive) continue;
      for (const Term& term : literal.atom.args) {
        if (term.is_variable() && !bound_positively(term.variable)) {
          return Status::InvalidArgument(
              "unsafe rule (negated variable '" + term.variable +
              "' not bound by a positive body literal): " + rule.ToString());
        }
      }
    }

    compile_args(rule.head.args, &compiled_rule.head_slots,
                 &compiled_rule.head_constants);
    compiled_rule.variable_count = static_cast<int>(variables.size());
    compiled.rules_.push_back(std::move(compiled_rule));
  }

  compiled.program_ = std::move(program);
  return compiled;
}

void CompiledDatalog::BodySatisfied(const CompiledRule& rule,
                                    size_t literal_index,
                                    std::vector<Element>* binding,
                                    const Firing& firing) const {
  if (!firing.budget->ok()) {
    return;
  }
  *firing.budget = ChargeWork(firing.ctx);
  if (!firing.budget->ok()) {
    return;
  }
  if (literal_index == rule.body.size()) {
    // Body satisfied: emit the head tuple (safety guarantees all head
    // slots are bound).
    Tuple& head_tuple = *firing.head_tuple;
    head_tuple.clear();
    for (size_t i = 0; i < rule.head_slots.size(); ++i) {
      int slot = rule.head_slots[i];
      head_tuple.push_back(slot < 0 ? rule.head_constants[i]
                                    : (*binding)[static_cast<size_t>(slot)]);
    }
    if (firing.head_set.find(head_tuple) == firing.head_set.end()) {
      firing.additions->insert(head_tuple);
    }
    return;  // keep enumerating all bindings
  }

  const CompiledLiteral& literal = rule.body[literal_index];
  const size_t arity = literal.slots.size();

  if (!literal.positive) {
    // All arguments bound (compile-time safety): a simple membership test.
    Tuple args(arity, 0);
    for (size_t i = 0; i < arity; ++i) {
      int slot = literal.slots[i];
      args[i] = slot < 0 ? literal.constants[i]
                         : (*binding)[static_cast<size_t>(slot)];
    }
    bool holds;
    if (literal.is_idb) {
      const std::set<Tuple>& contents = firing.idb.at(literal.idb_relation);
      holds = contents.find(args) != contents.end();
    } else {
      holds = firing.edb.AtomTrue(literal.edb_relation, args);
    }
    if (!holds) {
      BodySatisfied(rule, literal_index + 1, binding, firing);
    }
    return;
  }

  // Binds the literal's free slots to `candidate` if it agrees with the
  // constants and the bound slots (and with itself on repeated variables),
  // then descends; restores the binding either way.
  auto descend_on = [&](const Tuple& candidate) {
    std::vector<int> newly_bound;
    bool matched = true;
    for (size_t i = 0; i < arity && matched; ++i) {
      int slot = literal.slots[i];
      if (slot < 0) {
        matched = candidate[i] == literal.constants[i];
        continue;
      }
      Element& value = (*binding)[static_cast<size_t>(slot)];
      if (value == kUnbound) {
        value = candidate[i];
        newly_bound.push_back(slot);
      } else {
        matched = value == candidate[i];
      }
    }
    if (matched && (literal.is_idb ||
                    firing.edb.AtomTrue(literal.edb_relation, candidate))) {
      BodySatisfied(rule, literal_index + 1, binding, firing);
    }
    for (int slot : newly_bound) {
      (*binding)[static_cast<size_t>(slot)] = kUnbound;
    }
  };

  if (literal.is_idb) {
    // Iterate the materialized relation (or the delta, when this is the
    // restricted literal of a semi-naive pass), filtered by the bound
    // positions.
    const std::set<Tuple>& contents =
        static_cast<int>(literal_index) == firing.delta_index
            ? *firing.delta_contents
            : firing.idb.at(literal.idb_relation);
    for (const Tuple& candidate : contents) {
      descend_on(candidate);
      if (!firing.budget->ok()) {
        return;
      }
    }
    return;
  }

  // Extensional literal: the possible facts that match the bound
  // positions, each confirmed by the oracle.
  const PossibleFacts::Path& path =
      edb_paths_[static_cast<size_t>(literal.edb_path)];
  Tuple key;
  key.reserve(path.bound.size());
  for (int position : path.bound) {
    int slot = literal.slots[static_cast<size_t>(position)];
    key.push_back(slot < 0 ? literal.constants[static_cast<size_t>(position)]
                           : (*binding)[static_cast<size_t>(slot)]);
  }
  for (const Tuple* candidate : firing.facts.Match(literal.edb_path, key)) {
    descend_on(*candidate);
    if (!firing.budget->ok()) {
      return;
    }
  }
}

Status CompiledDatalog::FireRule(const CompiledRule& rule,
                                 const AtomOracle& edb,
                                 const PossibleFacts& facts,
                                 const DatalogResult& idb, int delta_index,
                                 const std::set<Tuple>* delta_contents,
                                 RunContext* ctx,
                                 std::set<Tuple>* additions) const {
  Status budget = Status::Ok();
  Tuple head_tuple;
  std::vector<Element> binding(static_cast<size_t>(rule.variable_count),
                               kUnbound);
  BodySatisfied(rule, 0, &binding,
                Firing{edb, facts, idb, idb.at(rule.head), &head_tuple,
                       additions, delta_index, delta_contents, ctx, &budget});
  return budget;
}

StatusOr<DatalogResult> CompiledDatalog::EvalNaive(const Structure& edb,
                                                   RunContext* ctx) const {
  const PossibleFacts facts(edb, edb_paths_);
  DatalogResult idb;
  for (const std::string& predicate : idb_predicates_) {
    idb[predicate] = {};
  }
  for (int stratum = 0; stratum < stratum_count_; ++stratum) {
    bool changed = true;
    while (changed) {
      QREL_FAULT_SITE("datalog.fixpoint.round");
      changed = false;
      for (const CompiledRule& rule : rules_) {
        if (rule.stratum != stratum) {
          continue;
        }
        std::set<Tuple> additions;
        QREL_RETURN_IF_ERROR(
            FireRule(rule, edb, facts, idb, -1, nullptr, ctx, &additions));
        if (!additions.empty()) {
          idb[rule.head].insert(additions.begin(), additions.end());
          changed = true;
        }
      }
    }
  }
  return idb;
}

StatusOr<DatalogResult> CompiledDatalog::Eval(const Structure& edb,
                                              RunContext* ctx) const {
  return Eval(edb, PossibleFacts(edb, edb_paths_), ctx);
}

StatusOr<DatalogResult> CompiledDatalog::Eval(const WorldView& edb,
                                              RunContext* ctx) const {
  return Eval(edb, PossibleFacts(edb.database(), edb_paths_), ctx);
}

StatusOr<DatalogResult> CompiledDatalog::Eval(const AtomOracle& edb,
                                              const PossibleFacts& facts,
                                              RunContext* ctx) const {
  DatalogResult idb;
  for (const std::string& predicate : idb_predicates_) {
    idb[predicate] = {};
  }

  // Checkpoints at stratum entry and at every semi-naive round boundary:
  // the derived-atom frontier (idb + delta) at those points fully
  // determines the rest of the fixpoint. Inert when a world loop above
  // already claimed the scope (datalog/reliability.cc).
  //
  // The content digest (program text + full EDB relation contents) is
  // computed only when this scope would actually claim: hashing the EDB
  // costs Θ(n^arity) per relation through the oracle, and the per-world
  // fixpoints under a claimed world loop must not pay that per world.
  Fingerprint fingerprint;
  if (CheckpointScope::WouldClaim(ctx)) {
    fingerprint.Mix("datalog.fixpoint")
        .Mix(program_.ToString())
        .Mix(static_cast<uint64_t>(edb.universe_size()));
    const Vocabulary& vocab = edb.vocabulary();
    fingerprint.Mix(static_cast<uint64_t>(vocab.relation_count()));
    for (int r = 0; r < vocab.relation_count(); ++r) {
      const RelationSymbol& symbol = vocab.relation(r);
      fingerprint.Mix(symbol.name);
      fingerprint.Mix(static_cast<uint64_t>(symbol.arity));
      if (symbol.arity > 0 && edb.universe_size() == 0) {
        continue;  // no ground atoms to digest
      }
      // Pack the relation's truth table into 64-bit words; tuple
      // enumeration order is deterministic (odometer order).
      Tuple probe(static_cast<size_t>(symbol.arity), 0);
      uint64_t word = 0;
      int bit = 0;
      do {
        if (edb.AtomTrue(r, probe)) {
          word |= uint64_t{1} << bit;
        }
        if (++bit == 64) {
          fingerprint.Mix(word);
          word = 0;
          bit = 0;
        }
      } while (AdvanceTuple(&probe, edb.universe_size()));
      if (bit != 0) {
        fingerprint.Mix(word);
      }
    }
  }
  CheckpointScope checkpoint(ctx, "datalog.fixpoint.v1", fingerprint.value());

  int start_stratum = 0;
  bool resume_in_round = false;
  DatalogResult resume_delta;
  {
    std::optional<SnapshotReader> resume;
    QREL_RETURN_IF_ERROR(checkpoint.TakeResume(&resume));
    if (resume.has_value()) {
      uint32_t stratum = 0;
      uint8_t in_round = 0;
      QREL_RETURN_IF_ERROR(resume->U32(&stratum));
      QREL_RETURN_IF_ERROR(resume->U8(&in_round));
      if (stratum >= static_cast<uint32_t>(stratum_count_)) {
        return Status::DataLoss("snapshot stratum out of range");
      }
      QREL_RETURN_IF_ERROR(
          ReadIdb(*resume, idb_arity_, edb.universe_size(), &idb));
      if (in_round != 0) {
        for (const std::string& predicate : idb_predicates_) {
          resume_delta[predicate] = {};
        }
        QREL_RETURN_IF_ERROR(
            ReadIdb(*resume, idb_arity_, edb.universe_size(), &resume_delta));
        resume_in_round = true;
      }
      QREL_RETURN_IF_ERROR(resume->ExpectEnd());
      start_stratum = static_cast<int>(stratum);
    }
  }

  for (int stratum = start_stratum; stratum < stratum_count_; ++stratum) {
    DatalogResult delta;
    for (const std::string& predicate : idb_predicates_) {
      delta[predicate] = {};
    }
    if (resume_in_round) {
      // The interrupted run already finished this stratum's seed round and
      // some semi-naive rounds; re-enter the round loop with its frontier.
      resume_in_round = false;
      delta = std::move(resume_delta);
    } else {
      QREL_RETURN_IF_ERROR(checkpoint.MaybeCheckpoint([&](SnapshotWriter& w) {
        w.U32(static_cast<uint32_t>(stratum));
        w.U8(0);
        WriteIdb(w, idb);
      }));
      QREL_FAULT_SITE("datalog.fixpoint.round");
      // Round 0: full evaluation seeds the delta (also the only round for
      // rules with no same-stratum recursion).
      for (const CompiledRule& rule : rules_) {
        if (rule.stratum != stratum) {
          continue;
        }
        std::set<Tuple> additions;
        QREL_RETURN_IF_ERROR(
            FireRule(rule, edb, facts, idb, -1, nullptr, ctx, &additions));
        delta[rule.head].insert(additions.begin(), additions.end());
      }
      for (auto& [predicate, tuples] : delta) {
        idb[predicate].insert(tuples.begin(), tuples.end());
      }
    }

    // Semi-naive rounds: each recursive rule re-fires once per
    // same-stratum positive IDB literal, with that literal restricted to
    // the previous delta.
    bool any_delta = true;
    while (any_delta) {
      QREL_FAULT_SITE("datalog.fixpoint.round");
      DatalogResult next_delta;
      for (const std::string& predicate : idb_predicates_) {
        next_delta[predicate] = {};
      }
      any_delta = false;
      for (const CompiledRule& rule : rules_) {
        if (rule.stratum != stratum) {
          continue;
        }
        for (size_t i = 0; i < rule.body.size(); ++i) {
          if (!rule.body[i].same_stratum_idb) {
            continue;
          }
          const std::set<Tuple>& restricted =
              delta.at(rule.body[i].idb_relation);
          if (restricted.empty()) {
            continue;
          }
          std::set<Tuple> additions;
          QREL_RETURN_IF_ERROR(FireRule(rule, edb, facts, idb,
                                        static_cast<int>(i), &restricted, ctx,
                                        &additions));
          for (const Tuple& tuple : additions) {
            if (idb.at(rule.head).find(tuple) == idb.at(rule.head).end()) {
              next_delta[rule.head].insert(tuple);
            }
          }
        }
      }
      for (auto& [predicate, tuples] : next_delta) {
        if (!tuples.empty()) {
          idb[predicate].insert(tuples.begin(), tuples.end());
          any_delta = true;
        }
      }
      delta = std::move(next_delta);
      if (any_delta) {
        QREL_RETURN_IF_ERROR(
            checkpoint.MaybeCheckpoint([&](SnapshotWriter& w) {
              w.U32(static_cast<uint32_t>(stratum));
              w.U8(1);
              WriteIdb(w, idb);
              WriteIdb(w, delta);
            }));
      }
    }
  }
  return idb;
}

StatusOr<std::set<Tuple>> CompiledDatalog::EvalPredicate(
    const AtomOracle& edb, const PossibleFacts& facts,
    const std::string& predicate, RunContext* ctx) const {
  if (idb_arity_.find(predicate) != idb_arity_.end()) {
    StatusOr<DatalogResult> result = Eval(edb, facts, ctx);
    if (!result.ok()) {
      return result.status();
    }
    return std::move(result->at(predicate));
  }
  std::optional<int> relation = edb_vocabulary_->FindRelation(predicate);
  if (!relation.has_value()) {
    return Status::NotFound("unknown predicate '" + predicate + "'");
  }
  // Materialize the extensional relation: its possible facts, confirmed
  // through the oracle.
  std::set<Tuple> contents;
  for (const Tuple& tuple : facts.Tuples(*relation)) {
    QREL_RETURN_IF_ERROR(ChargeWork(ctx));
    if (edb.AtomTrue(*relation, tuple)) {
      contents.insert(tuple);
    }
  }
  return contents;
}

StatusOr<std::set<Tuple>> CompiledDatalog::EvalPredicate(
    const Structure& edb, const std::string& predicate,
    RunContext* ctx) const {
  return EvalPredicate(edb, PossibleFacts(edb, edb_paths_), predicate, ctx);
}

StatusOr<int> CompiledDatalog::PredicateArity(
    const std::string& predicate) const {
  auto it = idb_arity_.find(predicate);
  if (it != idb_arity_.end()) {
    return it->second;
  }
  std::optional<int> relation = edb_vocabulary_->FindRelation(predicate);
  if (!relation.has_value()) {
    return Status::NotFound("unknown predicate '" + predicate + "'");
  }
  return edb_vocabulary_->relation(*relation).arity;
}

}  // namespace qrel
