#include "qrel/logic/grounding.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

#include "qrel/logic/join.h"
#include "qrel/prob/possible_facts.h"
#include "qrel/util/check.h"
#include "qrel/util/fault_injection.h"

namespace qrel {

namespace {

// Grounds the disjuncts of a matrix, each through its join: the RunJoin
// visitor that turns every complete binding into the disjunct's ground
// term ψ''.
class Grounder {
 public:
  Grounder(const PossibleFacts& facts, std::vector<Element>* valuation,
           size_t free_count, size_t max_terms, RunContext* ctx)
      : facts_(facts),
        valuation_(*valuation),
        free_count_(free_count),
        max_terms_(max_terms),
        ctx_(ctx) {}

  // Runs disjunct `disjunct`, whose literals are `literals` and whose join
  // over the bound variables is `plan`.
  Status Ground(size_t disjunct, const std::vector<JoinLiteral>& literals,
                const JoinPlan& plan) {
    disjunct_ = disjunct;
    literals_ = &literals;
    RunJoin(plan, facts_, &valuation_, &key_, *this);
    return status_;
  }

  // Some disjunct reduced to the empty term.
  bool certainly_true() const { return certainly_true_; }
  const Status& status() const { return status_; }

  // The distinct terms in the odometer walk's order: bound values
  // lexicographically, then disjunct, each term where it first appears.
  std::vector<std::vector<GroundLiteral>> TakeTerms() {
    std::stable_sort(found_.begin(), found_.end(),
                     [](const Found& a, const Found& b) {
                       if (a.bound != b.bound) {
                         return a.bound < b.bound;
                       }
                       return a.disjunct < b.disjunct;
                     });
    std::vector<std::vector<GroundLiteral>> terms;
    std::set<std::vector<GroundLiteral>> seen;
    for (Found& entry : found_) {
      if (seen.insert(entry.term).second) {
        terms.push_back(std::move(entry.term));
      }
    }
    return terms;
  }

  // RunJoin's visitor: one work unit and one fault-site hit per candidate
  // or value the join examines.
  bool Visit() {
    status_ = ChargeWork(ctx_);
    if (status_.ok()) {
      status_ = QREL_FAULT_HIT("logic.grounding.assignment");
    }
    return status_.ok();
  }
  bool Accept(const JoinStep& step, const Tuple* candidate) const {
    int entry = -1;
    return facts_.StatusOf(step.relation, candidate, &entry) !=
           UnreliableDatabase::AtomStatus::kCertainFalse;
  }
  bool Filter(int literal) {
    return Possible((*literals_)[static_cast<size_t>(literal)]);
  }
  bool Emit() {
    std::vector<GroundLiteral> term;
    for (const JoinLiteral& literal : *literals_) {
      if (!Possible(literal)) {
        return true;  // a certainly false literal drops the term
      }
      int entry = -1;
      if (literal.kind == JoinLiteral::Kind::kEquals ||
          AtomStatus(literal, &entry) !=
              UnreliableDatabase::AtomStatus::kUncertain) {
        continue;  // certainly of the literal's polarity: contributes nothing
      }
      // Uncertain atom: a propositional variable of ψ''.
      GroundLiteral ground{entry, literal.positive};
      auto same = std::find_if(term.begin(), term.end(),
                               [&](const GroundLiteral& existing) {
                                 return existing.entry == ground.entry;
                               });
      if (same == term.end()) {
        term.push_back(ground);
      } else if (same->positive != ground.positive) {
        return true;  // complementary pair within the term
      }
    }
    if (term.empty()) {
      // A certainly-true disjunct: ψ holds in every world.
      certainly_true_ = true;
      return false;
    }
    std::sort(term.begin(), term.end());
    if (distinct_.insert(term).second) {
      status_ = ChargeWork(ctx_);
      if (status_.ok() && distinct_.size() > max_terms_) {
        status_ = Status::OutOfRange("grounded DNF exceeds term limit");
      }
      if (!status_.ok()) {
        return false;
      }
    }
    found_.push_back(
        {Tuple(valuation_.begin() + static_cast<ptrdiff_t>(free_count_),
               valuation_.end()),
         disjunct_, std::move(term)});
    return true;
  }

 private:
  struct Found {
    Tuple bound;  // the bound variables' values
    size_t disjunct;
    std::vector<GroundLiteral> term;
  };

  // The status of an atom literal's ground atom under the valuation.
  UnreliableDatabase::AtomStatus AtomStatus(const JoinLiteral& literal,
                                            int* entry) {
    key_.clear();
    for (const JoinTerm& term : literal.terms) {
      key_.push_back(term.Value(valuation_.data()));
    }
    const Tuple* candidate = facts_.Find(literal.relation, key_);
    if (candidate == nullptr) {
      return UnreliableDatabase::AtomStatus::kCertainFalse;
    }
    return facts_.StatusOf(literal.relation, candidate, entry);
  }

  // Whether `literal` can hold in a world of positive probability.
  bool Possible(const JoinLiteral& literal) {
    if (literal.kind == JoinLiteral::Kind::kEquals) {
      bool holds = literal.terms[0].Value(valuation_.data()) ==
                   literal.terms[1].Value(valuation_.data());
      return holds == literal.positive;
    }
    int entry = -1;
    return AtomStatus(literal, &entry) !=
           (literal.positive ? UnreliableDatabase::AtomStatus::kCertainFalse
                             : UnreliableDatabase::AtomStatus::kCertainTrue);
  }

  const PossibleFacts& facts_;
  std::vector<Element>& valuation_;
  const size_t free_count_;
  const size_t max_terms_;
  RunContext* const ctx_;
  size_t disjunct_ = 0;
  const std::vector<JoinLiteral>* literals_ = nullptr;
  Tuple key_;
  Status status_ = Status::Ok();
  bool certainly_true_ = false;
  std::set<std::vector<GroundLiteral>> distinct_;
  std::vector<Found> found_;
};

}  // namespace

int GroundDnf::Width() const {
  size_t width = 0;
  for (const std::vector<GroundLiteral>& term : terms) {
    width = std::max(width, term.size());
  }
  return static_cast<int>(width);
}

StatusOr<GroundDnf> GroundExistential(const PrenexExistential& prenex,
                                      const UnreliableDatabase& database,
                                      const Tuple& free_assignment,
                                      size_t max_terms, RunContext* ctx) {
  if (free_assignment.size() != prenex.free_variables.size()) {
    return Status::InvalidArgument(
        "free assignment has " + std::to_string(free_assignment.size()) +
        " values but the query has " +
        std::to_string(prenex.free_variables.size()) + " free variables");
  }

  // The symbolic DNF of the matrix: each disjunct becomes one join.
  StatusOr<std::vector<SymbolicConjunct>> matrix_dnf =
      QfNnfToDnf(prenex.matrix);
  if (!matrix_dnf.ok()) {
    return matrix_dnf.status();
  }

  const Vocabulary& vocabulary = database.vocabulary();
  const int n = database.universe_size();
  auto out_of_universe = [n](Element value) {
    return Status::InvalidArgument("constant " + std::to_string(value) +
                                   " outside the universe of size " +
                                   std::to_string(n));
  };
  for (Element value : free_assignment) {
    if (value < 0 || value >= n) {
      return out_of_universe(value);
    }
  }

  // Variable name -> slot of the combined (free ++ bound) valuation.
  std::unordered_map<std::string, int> slots;
  std::vector<int> block;  // the bound variables' slots
  for (const std::string& name : prenex.free_variables) {
    slots.emplace(name, static_cast<int>(slots.size()));
  }
  for (const std::string& name : prenex.bound_variables) {
    block.push_back(static_cast<int>(slots.size()));
    slots.emplace(name, block.back());
  }

  // The disjuncts' literals and their joins over the bound variables; one
  // index serves them all.
  std::vector<std::vector<JoinLiteral>> literals(matrix_dnf->size());
  std::vector<JoinPlan> plans;
  std::vector<PossibleFacts::Path> paths;
  for (size_t c = 0; c < matrix_dnf->size(); ++c) {
    for (const SymbolicLiteral& symbolic : (*matrix_dnf)[c]) {
      const Formula& atom = *symbolic.atom;
      JoinLiteral literal;
      literal.positive = symbolic.positive;
      literal.kind = JoinLiteral::Kind::kEquals;
      if (atom.kind == FormulaKind::kAtom) {
        std::optional<int> id = vocabulary.FindRelation(atom.relation);
        if (!id.has_value()) {
          return Status::InvalidArgument("unknown relation '" +
                                         atom.relation + "'");
        }
        if (vocabulary.relation(*id).arity !=
            static_cast<int>(atom.args.size())) {
          return Status::InvalidArgument("arity mismatch for relation '" +
                                         atom.relation + "'");
        }
        literal.kind = JoinLiteral::Kind::kAtom;
        literal.relation = *id;
      }
      for (const Term& term : atom.args) {
        JoinTerm compiled;
        if (term.is_variable()) {
          auto it = slots.find(term.variable);
          QREL_CHECK_MSG(it != slots.end(), "unbound variable in matrix");
          compiled.is_slot = true;
          compiled.slot = it->second;
          literal.slots.push_back(compiled.slot);
        } else if (literal.kind == JoinLiteral::Kind::kAtom &&
                   (term.constant < 0 || term.constant >= n)) {
          return out_of_universe(term.constant);
        } else {
          compiled.constant = term.constant;
        }
        literal.terms.push_back(compiled);
      }
      literals[c].push_back(std::move(literal));
    }
    plans.push_back(PlanJoin(literals[c], block, &paths));
  }
  const PossibleFacts facts(database, std::move(paths));

  std::vector<Element> valuation(
      prenex.free_variables.size() + prenex.bound_variables.size(), 0);
  for (size_t i = 0; i < free_assignment.size(); ++i) {
    valuation[i] = free_assignment[i];
  }
  Grounder grounder(facts, &valuation, free_assignment.size(), max_terms, ctx);
  // Without bound variables the join has no step; its one binding, the
  // empty one, is still visited once.
  if (block.empty() && !grounder.Visit()) {
    return grounder.status();
  }
  for (size_t c = 0; c < plans.size() && !grounder.certainly_true(); ++c) {
    QREL_RETURN_IF_ERROR(grounder.Ground(c, literals[c], plans[c]));
  }
  GroundDnf result;
  result.certainly_true = grounder.certainly_true();
  if (!result.certainly_true) {
    result.terms = grounder.TakeTerms();
  }
  return result;
}

}  // namespace qrel
