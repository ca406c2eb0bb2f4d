#include "qrel/logic/join.h"

#include <algorithm>

namespace qrel {

namespace {

bool Contains(const std::vector<int>& slots, int slot) {
  return std::find(slots.begin(), slots.end(), slot) != slots.end();
}

}  // namespace

JoinPlan PlanJoin(const std::vector<JoinLiteral>& literals,
                  const std::vector<int>& block,
                  std::vector<PossibleFacts::Path>* paths) {
  JoinPlan plan;
  std::vector<int> unbound = block;
  auto is_unbound = [&](int slot) { return Contains(unbound, slot); };
  auto is_bound_term = [&](const JoinTerm& term) {
    return !term.is_slot || !is_unbound(term.slot);
  };
  // Literals not yet a generator or a filter.
  std::vector<bool> placed(literals.size(), false);
  auto ready = [&](const JoinLiteral& literal) {
    return std::none_of(literal.slots.begin(), literal.slots.end(),
                        is_unbound);
  };
  auto place_ready = [&](std::vector<int>* filters) {
    for (size_t i = 0; i < literals.size(); ++i) {
      if (!placed[i] && ready(literals[i])) {
        placed[i] = true;
        filters->push_back(static_cast<int>(i));
      }
    }
  };
  place_ready(&plan.filters);

  while (!unbound.empty()) {
    JoinStep step;
    // A positive atom on an unbound slot, keyed on the most bound
    // positions, then binding the fewest slots (a unary guard before a
    // binary one); the first such atom on a tie.
    int best_key = -1;
    size_t best_fresh = 0;
    for (size_t i = 0; i < literals.size(); ++i) {
      const JoinLiteral& literal = literals[i];
      if (placed[i] || literal.kind != JoinLiteral::Kind::kAtom ||
          !literal.positive) {
        continue;
      }
      int key = static_cast<int>(std::count_if(
          literal.terms.begin(), literal.terms.end(), is_bound_term));
      std::vector<int> fresh;
      for (const JoinTerm& term : literal.terms) {
        if (!is_bound_term(term) && !Contains(fresh, term.slot)) {
          fresh.push_back(term.slot);
        }
      }
      if (key > best_key || (key == best_key && fresh.size() < best_fresh)) {
        best_key = key;
        best_fresh = fresh.size();
        step.literal = static_cast<int>(i);
      }
    }
    if (step.literal >= 0) {
      const JoinLiteral& atom = literals[static_cast<size_t>(step.literal)];
      step.kind = JoinStep::Kind::kCandidates;
      step.relation = atom.relation;
      PossibleFacts::Path path;
      path.relation = atom.relation;
      for (size_t position = 0; position < atom.terms.size(); ++position) {
        const JoinTerm& term = atom.terms[position];
        if (is_bound_term(term)) {
          path.bound.push_back(static_cast<int>(position));
          step.key.push_back(term);
          continue;
        }
        auto first = std::find_if(
            step.binds.begin(), step.binds.end(),
            [&](const std::pair<int, int>& bind) {
              return bind.second == term.slot;
            });
        if (first != step.binds.end()) {
          step.repeats.emplace_back(static_cast<int>(position), first->first);
        } else {
          step.binds.emplace_back(static_cast<int>(position), term.slot);
        }
      }
      auto it = std::find(paths->begin(), paths->end(), path);
      step.path = static_cast<int>(it - paths->begin());
      if (it == paths->end()) {
        paths->push_back(std::move(path));
      }
      placed[static_cast<size_t>(step.literal)] = true;
      for (const auto& bind : step.binds) {
        unbound.erase(std::find(unbound.begin(), unbound.end(), bind.second));
      }
    } else {
      // x = t with t bound binds x to one value.
      for (size_t i = 0; i < literals.size() && step.literal < 0; ++i) {
        const JoinLiteral& literal = literals[i];
        if (placed[i] || literal.kind != JoinLiteral::Kind::kEquals ||
            !literal.positive) {
          continue;
        }
        for (int side = 0; side < 2; ++side) {
          const JoinTerm& target = literal.terms[static_cast<size_t>(side)];
          const JoinTerm& source = literal.terms[static_cast<size_t>(1 - side)];
          if (target.is_slot && is_unbound(target.slot) &&
              is_bound_term(source)) {
            step.kind = JoinStep::Kind::kAssign;
            step.literal = static_cast<int>(i);
            step.slot = target.slot;
            step.value = source;
            break;
          }
        }
      }
      if (step.literal >= 0) {
        placed[static_cast<size_t>(step.literal)] = true;
      } else {
        step.slot = unbound.front();
        bool read = false;
        for (size_t i = 0; i < literals.size(); ++i) {
          read = read || (!placed[i] && Contains(literals[i].slots, step.slot));
        }
        step.kind = read ? JoinStep::Kind::kDomain : JoinStep::Kind::kFirst;
      }
      unbound.erase(std::find(unbound.begin(), unbound.end(), step.slot));
    }
    place_ready(&step.filters);
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

}  // namespace qrel
