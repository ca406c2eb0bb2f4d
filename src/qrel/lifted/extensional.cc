#include "qrel/lifted/extensional.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "qrel/logic/eval.h"
#include "qrel/logic/safe_plan.h"
#include "qrel/prob/possible_facts.h"
#include "qrel/relational/atom_table.h"
#include "qrel/util/check.h"

namespace qrel {

namespace {

// A safe plan with relation names resolved to ids and variables mapped to
// dense environment slots, so the per-tuple inner loop does no string
// work (mirroring logic/eval.h's CompiledQuery).
struct CompiledPlanTerm {
  bool is_slot = false;
  int slot = 0;          // environment index if is_slot
  Element constant = 0;  // otherwise
};

struct CompiledPlanNode {
  SafePlanKind kind = SafePlanKind::kJoin;
  int relation = -1;                    // kAtom
  std::vector<CompiledPlanTerm> terms;  // kAtom / kEquality
  int slot = -1;                        // kProject: projected variable
  // kProject: the candidate values of `slot` are read at `root_positions`
  // of the possible facts on access path `path` (the first atom below the
  // node), looked up by the values of `key` at its bound positions.
  int path = -1;
  std::vector<CompiledPlanTerm> key;
  std::vector<int> root_positions;
  // kJoin: leaves first, so a certain 0 stops the product before any
  // project below it runs.
  std::vector<CompiledPlanNode> children;
};

Element Resolve(const CompiledPlanTerm& term, const std::vector<Element>& env) {
  return term.is_slot ? env[static_cast<size_t>(term.slot)] : term.constant;
}

// The first atom of `node`'s subtree in evaluation order.
const CompiledPlanNode* FirstAtom(const CompiledPlanNode& node) {
  if (node.kind == SafePlanKind::kAtom) {
    return &node;
  }
  for (const CompiledPlanNode& child : node.children) {
    if (const CompiledPlanNode* atom = FirstAtom(child)) {
      return atom;
    }
  }
  return nullptr;
}

class PlanCompiler {
 public:
  PlanCompiler(const Vocabulary& vocabulary, int universe_size,
               std::vector<PossibleFacts::Path>* paths)
      : vocabulary_(vocabulary), universe_size_(universe_size), paths_(paths) {}

  // `slots` maps the free variables (and, during recursion, the projected
  // variables) to environment indices; the builder guarantees variable
  // names are unique across a plan. `in_scope` lists the slots bound on
  // entry to `node`: the free variables and the enclosing projects.
  StatusOr<CompiledPlanNode> Compile(const SafePlanNode& node,
                                     std::map<std::string, int>* slots,
                                     int* slot_count,
                                     std::vector<int>* in_scope) {
    CompiledPlanNode compiled;
    compiled.kind = node.kind;
    switch (node.kind) {
      case SafePlanKind::kAtom: {
        std::optional<int> relation =
            vocabulary_.FindRelation(node.relation);
        if (!relation.has_value()) {
          return Status::InvalidArgument("unknown relation '" +
                                         node.relation + "' in safe plan");
        }
        compiled.relation = *relation;
        QREL_RETURN_IF_ERROR(CompileTerms(node, *slots, &compiled));
        return compiled;
      }
      case SafePlanKind::kEquality:
        QREL_RETURN_IF_ERROR(CompileTerms(node, *slots, &compiled));
        return compiled;
      case SafePlanKind::kJoin:
        for (const SafePlanPtr& child : node.children) {
          StatusOr<CompiledPlanNode> compiled_child =
              Compile(*child, slots, slot_count, in_scope);
          if (!compiled_child.ok()) {
            return compiled_child.status();
          }
          compiled.children.push_back(std::move(compiled_child).value());
        }
        std::stable_partition(
            compiled.children.begin(), compiled.children.end(),
            [](const CompiledPlanNode& child) {
              return child.kind == SafePlanKind::kAtom ||
                     child.kind == SafePlanKind::kEquality;
            });
        return compiled;
      case SafePlanKind::kProject: {
        QREL_CHECK(node.children.size() == 1);
        compiled.slot = (*slot_count)++;
        slots->emplace(node.variable, compiled.slot);
        in_scope->push_back(compiled.slot);
        StatusOr<CompiledPlanNode> compiled_child =
            Compile(*node.children[0], slots, slot_count, in_scope);
        in_scope->pop_back();
        if (!compiled_child.ok()) {
          return compiled_child.status();
        }
        compiled.children.push_back(std::move(compiled_child).value());
        CompileCandidates(*in_scope, &compiled);
        return compiled;
      }
    }
    QREL_CHECK_MSG(false, "corrupt safe-plan node");
    return Status::Internal("corrupt safe-plan node");
  }

 private:
  Status CompileTerms(const SafePlanNode& node,
                      const std::map<std::string, int>& slots,
                      CompiledPlanNode* compiled) const {
    for (const Term& term : node.args) {
      CompiledPlanTerm out;
      if (term.is_variable()) {
        auto it = slots.find(term.variable);
        if (it == slots.end()) {
          return Status::Internal("safe-plan variable '" + term.variable +
                                  "' has no environment slot");
        }
        out.is_slot = true;
        out.slot = it->second;
      } else {
        if (term.constant < 0 || term.constant >= universe_size_) {
          return Status::InvalidArgument(
              "constant-out-of-range: constant " + term.ToString() +
              " is outside the universe of size " +
              std::to_string(universe_size_));
        }
        out.constant = term.constant;
      }
      compiled->terms.push_back(out);
    }
    return Status::Ok();
  }

  // The project's access path. A root variable occurs in every atom below
  // its project, so a value that is not a candidate of the first atom
  // makes that atom certainly false, the child's probability exactly 0
  // and its factor 1 − 0 = 1.
  void CompileCandidates(const std::vector<int>& in_scope,
                         CompiledPlanNode* project) {
    const CompiledPlanNode* atom = FirstAtom(project->children[0]);
    QREL_CHECK_MSG(atom != nullptr, "safe-plan project without an atom");
    PossibleFacts::Path path;
    path.relation = atom->relation;
    for (size_t i = 0; i < atom->terms.size(); ++i) {
      const CompiledPlanTerm& term = atom->terms[i];
      if (term.is_slot && term.slot == project->slot) {
        project->root_positions.push_back(static_cast<int>(i));
      } else if (!term.is_slot ||
                 std::find(in_scope.begin(), in_scope.end(), term.slot) !=
                     in_scope.end()) {
        path.bound.push_back(static_cast<int>(i));
        project->key.push_back(term);
      }
    }
    QREL_CHECK_MSG(!project->root_positions.empty(),
                   "safe-plan root variable missing from an atom");
    project->path = static_cast<int>(paths_->size());
    paths_->push_back(std::move(path));
  }

  const Vocabulary& vocabulary_;
  int universe_size_;
  std::vector<PossibleFacts::Path>* paths_;
};

// Evaluates a compiled plan under an environment, two ways: the exact
// probability from the marginals ν, and the observed truth ψ^𝔄(ā). Both
// walk only the candidate values of each project.
class PlanEvaluator {
 public:
  PlanEvaluator(const UnreliableDatabase& db, const PossibleFacts& facts,
                RunContext* ctx)
      : db_(db), facts_(facts), ctx_(ctx) {}

  // Pr[subplan true]; charges `ctx` one unit per leaf.
  StatusOr<Rational> Probability(const CompiledPlanNode& node,
                                 std::vector<Element>* env) {
    switch (node.kind) {
      case SafePlanKind::kAtom:
        QREL_RETURN_IF_ERROR(ChargeWork(ctx_));
        ++ops_;
        return db_.NuTrue(Ground(node, *env));
      case SafePlanKind::kEquality:
        QREL_RETURN_IF_ERROR(ChargeWork(ctx_));
        ++ops_;
        return Equal(node, *env) ? Rational::One() : Rational::Zero();
      case SafePlanKind::kJoin: {
        // Independent factors: the product of the children.
        Rational product = Rational::One();
        for (const CompiledPlanNode& child : node.children) {
          StatusOr<Rational> p = Probability(child, env);
          if (!p.ok()) {
            return p.status();
          }
          if (p->IsZero()) {
            return Rational::Zero();
          }
          if (!p->IsOne()) {
            product *= *p;
          }
        }
        return product;
      }
      case SafePlanKind::kProject: {
        // Independent instantiations: Pr[∃x φ] = 1 − Π_c (1 − Pr[φ[x:=c]]),
        // where only candidate values c can have Pr[φ[x:=c]] > 0.
        Rational none_true = Rational::One();
        for (Element value : Candidates(node, *env)) {
          (*env)[static_cast<size_t>(node.slot)] = value;
          StatusOr<Rational> p = Probability(node.children[0], env);
          if (!p.ok()) {
            return p.status();
          }
          if (p->IsOne()) {
            return Rational::One();
          }
          if (!p->IsZero()) {
            none_true *= p->Complement();
          }
        }
        return none_true.Complement();
      }
    }
    QREL_CHECK_MSG(false, "corrupt safe-plan node");
    return Status::Internal("corrupt safe-plan node");
  }

  // ψ^𝔄 of the subplan: the same plan over the observed facts.
  bool Observed(const CompiledPlanNode& node, std::vector<Element>* env) {
    switch (node.kind) {
      case SafePlanKind::kAtom: {
        GroundAtom atom = Ground(node, *env);
        return db_.observed().AtomTrue(atom.relation, atom.args);
      }
      case SafePlanKind::kEquality:
        return Equal(node, *env);
      case SafePlanKind::kJoin:
        for (const CompiledPlanNode& child : node.children) {
          if (!Observed(child, env)) {
            return false;
          }
        }
        return true;
      case SafePlanKind::kProject:
        for (Element value : Candidates(node, *env)) {
          (*env)[static_cast<size_t>(node.slot)] = value;
          if (Observed(node.children[0], env)) {
            return true;
          }
        }
        return false;
    }
    QREL_CHECK_MSG(false, "corrupt safe-plan node");
    return false;
  }

  // Leaf evaluations so far.
  uint64_t ops() const { return ops_; }

 private:
  static GroundAtom Ground(const CompiledPlanNode& node,
                           const std::vector<Element>& env) {
    GroundAtom atom;
    atom.relation = node.relation;
    atom.args.reserve(node.terms.size());
    for (const CompiledPlanTerm& term : node.terms) {
      atom.args.push_back(Resolve(term, env));
    }
    return atom;
  }

  static bool Equal(const CompiledPlanNode& node,
                    const std::vector<Element>& env) {
    QREL_CHECK(node.terms.size() == 2);
    return Resolve(node.terms[0], env) == Resolve(node.terms[1], env);
  }

  // The project's candidate values in ascending order: the values at the
  // root positions of the matching possible facts (a fact that puts two
  // different values there matches no instantiation).
  std::vector<Element> Candidates(const CompiledPlanNode& project,
                                  const std::vector<Element>& env) const {
    Tuple key;
    key.reserve(project.key.size());
    for (const CompiledPlanTerm& term : project.key) {
      key.push_back(Resolve(term, env));
    }
    std::vector<Element> values;
    for (const Tuple* fact : facts_.Match(project.path, key)) {
      Element value = (*fact)[static_cast<size_t>(project.root_positions[0])];
      if (std::all_of(project.root_positions.begin(),
                      project.root_positions.end(), [&](int position) {
                        return (*fact)[static_cast<size_t>(position)] == value;
                      })) {
        values.push_back(value);
      }
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    return values;
  }

  const UnreliableDatabase& db_;
  const PossibleFacts& facts_;
  RunContext* ctx_;
  uint64_t ops_ = 0;
};

struct CompiledExtensional {
  CompiledQuery query;
  CompiledPlanNode plan;
  int slot_count = 0;
  std::vector<PossibleFacts::Path> paths;

  explicit CompiledExtensional(CompiledQuery q) : query(std::move(q)) {}
};

StatusOr<CompiledExtensional> CompileExtensional(
    const FormulaPtr& query, const UnreliableDatabase& db) {
  SafePlanAnalysis analysis = AnalyzeSafePlan(query);
  if (!analysis.applicable || !analysis.safe) {
    return Status::InvalidArgument(
        "query admits no safe plan; use the exact or sampling rungs");
  }
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  CompiledExtensional result(std::move(compiled).value());
  std::map<std::string, int> slots;
  std::vector<int> in_scope;
  int slot_count = 0;
  for (const std::string& variable : result.query.free_variables()) {
    in_scope.push_back(slot_count);
    slots.emplace(variable, slot_count++);
  }
  PlanCompiler plan_compiler(db.vocabulary(), db.universe_size(),
                             &result.paths);
  StatusOr<CompiledPlanNode> plan =
      plan_compiler.Compile(*analysis.plan, &slots, &slot_count, &in_scope);
  if (!plan.ok()) {
    return plan.status();
  }
  result.plan = std::move(plan).value();
  result.slot_count = slot_count;
  return result;
}

}  // namespace

StatusOr<ReliabilityReport> ExtensionalReliability(
    const FormulaPtr& query, const UnreliableDatabase& db, RunContext* ctx,
    std::vector<Tuple>* observed_answers) {
  StatusOr<CompiledExtensional> compiled = CompileExtensional(query, db);
  if (!compiled.ok()) {
    return compiled.status();
  }
  const int n = db.universe_size();
  const int k = compiled->query.arity();
  PossibleFacts facts(db, std::move(compiled->paths));
  PlanEvaluator evaluator(db, facts, ctx);

  ReliabilityReport report;
  report.arity = k;
  uint64_t tuples = 0;
  Tuple tuple(static_cast<size_t>(k), 0);
  std::vector<Element> env(static_cast<size_t>(compiled->slot_count), 0);
  while (true) {
    QREL_RETURN_IF_ERROR(ChargeWork(ctx));
    ++tuples;
    for (int i = 0; i < k; ++i) {
      env[static_cast<size_t>(i)] = tuple[static_cast<size_t>(i)];
    }
    StatusOr<Rational> p = evaluator.Probability(compiled->plan, &env);
    if (!p.ok()) {
      return p.status();
    }
    // Pr[ψ(ā) wrong]: the observed database answers ā or it does not.
    if (evaluator.Observed(compiled->plan, &env)) {
      report.expected_error += p->Complement();
      if (observed_answers != nullptr) {
        observed_answers->push_back(tuple);
      }
    } else if (!p->IsZero()) {
      report.expected_error += *p;
    }
    if (!AdvanceTuple(&tuple, n)) {
      break;
    }
  }
  report.reliability =
      Rational(1) - report.expected_error / TupleSpaceSize(n, k);
  report.work_units = tuples + evaluator.ops();
  return report;
}

StatusOr<Rational> ExtensionalQueryProbability(const FormulaPtr& query,
                                               const UnreliableDatabase& db,
                                               const Tuple& assignment) {
  StatusOr<CompiledExtensional> compiled = CompileExtensional(query, db);
  if (!compiled.ok()) {
    return compiled.status();
  }
  if (assignment.size() != static_cast<size_t>(compiled->query.arity())) {
    return Status::InvalidArgument(
        "assignment size does not match the query arity");
  }
  QREL_RETURN_IF_ERROR(CheckAssignmentInUniverse(assignment, db));
  std::vector<Element> env(static_cast<size_t>(compiled->slot_count), 0);
  for (size_t i = 0; i < assignment.size(); ++i) {
    env[i] = assignment[i];
  }
  PossibleFacts facts(db, std::move(compiled->paths));
  return PlanEvaluator(db, facts, nullptr).Probability(compiled->plan, &env);
}

}  // namespace qrel
