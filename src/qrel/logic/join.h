// Candidate joins over the possible facts: the plan shared by first-order
// evaluation (logic/eval.h) and the Thm 5.4 grounding (logic/grounding.h).
//
// A block is a conjunction of literals that binds some slots of an
// environment (the block's slots: the variables of a quantifier block, or
// the bound variables of a prenex form); every other slot a literal reads
// is bound on entry. Domain iteration visits n^|block| assignments. A
// positive database atom can only hold on one of its possible facts, so
// PlanJoin instead binds the block's slots, one step at a time, from
//
//   - the candidates of a positive atom literal (PossibleFacts::Match along
//     the path keyed on the atom's already-bound positions),
//   - a positive equality x = t whose other side is already bound,
//   - the whole universe, for a slot no positive atom or equality binds,
//   - element 0 alone, for a slot no literal reads (in a nonempty universe
//     the block's truth does not depend on it).
//
// Generators are picked greedily in literal order, preferring the atom
// with the most bound positions, then the one that binds the fewest slots
// (the plan sees no data, and a unary guard is usually the more selective
// start: `∃x y z E(x,y) ∧ E(y,z) ∧ S(z)` starts from S). Every literal
// not used as a generator becomes a filter of the first step after which
// all of its slots are bound. The set of complete bindings that pass every
// filter is the same as domain iteration's; only the order differs
// (candidates arrive in ascending tuple order per bucket).

#ifndef QREL_LOGIC_JOIN_H_
#define QREL_LOGIC_JOIN_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "qrel/prob/possible_facts.h"
#include "qrel/relational/structure.h"

namespace qrel {

// A constant or an environment slot.
struct JoinTerm {
  bool is_slot = false;
  int slot = 0;          // environment index if is_slot
  Element constant = 0;  // otherwise

  Element Value(const Element* env) const {
    return is_slot ? env[static_cast<size_t>(slot)] : constant;
  }
};

// One conjunct of a block, as the planner sees it.
struct JoinLiteral {
  enum class Kind { kAtom, kEquals, kOther };
  Kind kind = Kind::kOther;
  bool positive = true;
  int relation = -1;            // kAtom
  std::vector<JoinTerm> terms;  // kAtom: the arguments; kEquals: both sides
  // Every slot the literal reads (for kOther, the slots free in it).
  std::vector<int> slots;
};

struct JoinStep {
  enum class Kind { kCandidates, kAssign, kDomain, kFirst };
  Kind kind = Kind::kDomain;
  int slot = -1;     // kAssign, kDomain, kFirst: the slot bound
  JoinTerm value;    // kAssign: the equality's bound side
  int literal = -1;  // kCandidates, kAssign: the generating literal
  int relation = -1;             // kCandidates
  int path = -1;                 // kCandidates: index into the paths
  std::vector<JoinTerm> key;     // kCandidates: values at path.bound
  // kCandidates: (position, slot) for the first occurrence of each slot
  // the step binds, and (position, earlier position) for a repeat.
  std::vector<std::pair<int, int>> binds;
  std::vector<std::pair<int, int>> repeats;
  // Literals checked once this step has bound its slot(s).
  std::vector<int> filters;
};

struct JoinPlan {
  std::vector<int> filters;  // literals that read no block slot
  std::vector<JoinStep> steps;
};

// Plans the block `block` (slots) under `literals`. Candidate steps look
// up paths appended to `*paths` (an equal path is reused), so one index
// built over `*paths` serves every plan that shares the list.
JoinPlan PlanJoin(const std::vector<JoinLiteral>& literals,
                  const std::vector<int>& block,
                  std::vector<PossibleFacts::Path>* paths);

// Enumerates the plan's bindings into `env`, calling the visitor's
//
//   bool Visit();  // one candidate or value examined; false stops
//   bool Accept(const JoinStep& step, const Tuple* candidate);
//                  // the generator literal holds on `candidate`
//   bool Filter(int literal);  // the literal holds under env
//   bool Emit();   // every block slot bound, every filter passed;
//                  // false stops
//
// `key` is scratch for lookup keys. Returns false iff a callback stopped
// the join.
template <typename Visitor>
bool RunJoin(const JoinPlan& plan, const PossibleFacts& facts,
             std::vector<Element>* env, Tuple* key, Visitor& visitor);

namespace join_internal {

template <typename Visitor>
bool RunSteps(const JoinPlan& plan, size_t index, const PossibleFacts& facts,
              std::vector<Element>* env, Tuple* key, Visitor& visitor) {
  if (index == plan.steps.size()) {
    return visitor.Emit();
  }
  const JoinStep& step = plan.steps[index];
  Element* slots = env->data();
  // Checks the step's filters on the binding just made, then goes deeper.
  auto descend = [&]() {
    for (int literal : step.filters) {
      if (!visitor.Filter(literal)) {
        return true;
      }
    }
    return RunSteps(plan, index + 1, facts, env, key, visitor);
  };
  switch (step.kind) {
    case JoinStep::Kind::kCandidates: {
      key->clear();
      for (const JoinTerm& term : step.key) {
        key->push_back(term.Value(slots));
      }
      for (const Tuple* candidate : facts.Match(step.path, *key)) {
        if (!visitor.Visit()) {
          return false;
        }
        const Tuple& tuple = *candidate;
        bool consistent = std::all_of(
            step.repeats.begin(), step.repeats.end(), [&](const auto& repeat) {
              return tuple[static_cast<size_t>(repeat.first)] ==
                     tuple[static_cast<size_t>(repeat.second)];
            });
        if (!consistent || !visitor.Accept(step, candidate)) {
          continue;
        }
        for (const auto& [position, slot] : step.binds) {
          slots[slot] = tuple[static_cast<size_t>(position)];
        }
        if (!descend()) {
          return false;
        }
      }
      return true;
    }
    case JoinStep::Kind::kAssign: {
      if (!visitor.Visit()) {
        return false;
      }
      Element value = step.value.Value(slots);
      if (value < 0 || value >= facts.universe_size()) {
        return true;  // no element equals it
      }
      slots[step.slot] = value;
      return descend();
    }
    case JoinStep::Kind::kDomain:
      for (Element value = 0; value < facts.universe_size(); ++value) {
        if (!visitor.Visit()) {
          return false;
        }
        slots[step.slot] = value;
        if (!descend()) {
          return false;
        }
      }
      return true;
    case JoinStep::Kind::kFirst:
      if (!visitor.Visit()) {
        return false;
      }
      slots[step.slot] = 0;
      return descend();
  }
  return true;
}

}  // namespace join_internal

template <typename Visitor>
bool RunJoin(const JoinPlan& plan, const PossibleFacts& facts,
             std::vector<Element>* env, Tuple* key, Visitor& visitor) {
  for (int literal : plan.filters) {
    if (!visitor.Filter(literal)) {
      return true;
    }
  }
  return join_internal::RunSteps(plan, 0, facts, env, key, visitor);
}

}  // namespace qrel

#endif  // QREL_LOGIC_JOIN_H_
