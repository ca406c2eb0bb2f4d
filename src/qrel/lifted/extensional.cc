#include "qrel/lifted/extensional.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "qrel/logic/eval.h"
#include "qrel/logic/safe_plan.h"
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
  std::vector<CompiledPlanNode> children;
};

class PlanCompiler {
 public:
  explicit PlanCompiler(const Vocabulary& vocabulary)
      : vocabulary_(vocabulary) {}

  // `slots` maps the free variables (and, during recursion, the projected
  // variables) to environment indices; the builder guarantees variable
  // names are unique across a plan.
  StatusOr<CompiledPlanNode> Compile(const SafePlanNode& node,
                                     std::map<std::string, int>* slots,
                                     int* slot_count) {
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
              Compile(*child, slots, slot_count);
          if (!compiled_child.ok()) {
            return compiled_child.status();
          }
          compiled.children.push_back(std::move(compiled_child).value());
        }
        return compiled;
      case SafePlanKind::kProject: {
        QREL_CHECK(node.children.size() == 1);
        compiled.slot = (*slot_count)++;
        slots->emplace(node.variable, compiled.slot);
        StatusOr<CompiledPlanNode> compiled_child =
            Compile(*node.children[0], slots, slot_count);
        if (!compiled_child.ok()) {
          return compiled_child.status();
        }
        compiled.children.push_back(std::move(compiled_child).value());
        return compiled;
      }
    }
    QREL_CHECK_MSG(false, "corrupt safe-plan node");
    return Status::Internal("corrupt safe-plan node");
  }

 private:
  static Status CompileTerms(const SafePlanNode& node,
                             const std::map<std::string, int>& slots,
                             CompiledPlanNode* compiled) {
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
        out.constant = term.constant;
      }
      compiled->terms.push_back(out);
    }
    return Status::Ok();
  }

  const Vocabulary& vocabulary_;
};

// Pr[subplan true] under the environment `env`; charges `ctx` per leaf.
StatusOr<Rational> EvalPlan(const CompiledPlanNode& node,
                            const UnreliableDatabase& db,
                            std::vector<Element>* env, RunContext* ctx,
                            uint64_t* ops) {
  switch (node.kind) {
    case SafePlanKind::kAtom: {
      QREL_RETURN_IF_ERROR(ChargeWork(ctx));
      ++*ops;
      GroundAtom atom;
      atom.relation = node.relation;
      atom.args.reserve(node.terms.size());
      for (const CompiledPlanTerm& term : node.terms) {
        atom.args.push_back(term.is_slot ? (*env)[term.slot]
                                         : term.constant);
      }
      return db.NuTrue(atom);
    }
    case SafePlanKind::kEquality: {
      QREL_RETURN_IF_ERROR(ChargeWork(ctx));
      ++*ops;
      QREL_CHECK(node.terms.size() == 2);
      Element left = node.terms[0].is_slot ? (*env)[node.terms[0].slot]
                                           : node.terms[0].constant;
      Element right = node.terms[1].is_slot ? (*env)[node.terms[1].slot]
                                            : node.terms[1].constant;
      return left == right ? Rational::One() : Rational::Zero();
    }
    case SafePlanKind::kJoin: {
      // Independent factors: the product of the children.
      Rational product = Rational::One();
      for (const CompiledPlanNode& child : node.children) {
        StatusOr<Rational> p = EvalPlan(child, db, env, ctx, ops);
        if (!p.ok()) {
          return p.status();
        }
        product *= *p;
      }
      return product;
    }
    case SafePlanKind::kProject: {
      // Independent instantiations: Pr[∃x φ] = 1 − Π_c (1 − Pr[φ[x:=c]]).
      Rational none_true = Rational::One();
      for (Element value = 0; value < db.universe_size(); ++value) {
        (*env)[node.slot] = value;
        StatusOr<Rational> p =
            EvalPlan(node.children[0], db, env, ctx, ops);
        if (!p.ok()) {
          return p.status();
        }
        none_true *= p->Complement();
      }
      return none_true.Complement();
    }
  }
  QREL_CHECK_MSG(false, "corrupt safe-plan node");
  return Status::Internal("corrupt safe-plan node");
}

struct CompiledExtensional {
  CompiledQuery query;
  CompiledPlanNode plan;
  int slot_count = 0;

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
  int slot_count = 0;
  for (const std::string& variable : result.query.free_variables()) {
    slots.emplace(variable, slot_count++);
  }
  PlanCompiler plan_compiler(db.vocabulary());
  StatusOr<CompiledPlanNode> plan =
      plan_compiler.Compile(*analysis.plan, &slots, &slot_count);
  if (!plan.ok()) {
    return plan.status();
  }
  result.plan = std::move(plan).value();
  result.slot_count = slot_count;
  return result;
}

}  // namespace

StatusOr<ReliabilityReport> ExtensionalReliability(
    const FormulaPtr& query, const UnreliableDatabase& db, RunContext* ctx) {
  StatusOr<CompiledExtensional> compiled = CompileExtensional(query, db);
  if (!compiled.ok()) {
    return compiled.status();
  }
  const int n = db.universe_size();
  const int k = compiled->query.arity();

  ReliabilityReport report;
  report.arity = k;
  uint64_t ops = 0;
  Tuple tuple(static_cast<size_t>(k), 0);
  std::vector<Element> env(static_cast<size_t>(compiled->slot_count), 0);
  while (true) {
    QREL_RETURN_IF_ERROR(ChargeWork(ctx));
    ++ops;
    for (int i = 0; i < k; ++i) {
      env[static_cast<size_t>(i)] = tuple[static_cast<size_t>(i)];
    }
    StatusOr<Rational> p = EvalPlan(compiled->plan, db, &env, ctx, &ops);
    if (!p.ok()) {
      return p.status();
    }
    // Pr[ψ(ā) wrong]: the observed database answers ā or it does not.
    bool observed = compiled->query.Eval(db.observed(), tuple);
    report.expected_error += observed ? p->Complement() : *p;
    if (!AdvanceTuple(&tuple, n)) {
      break;
    }
  }
  report.reliability =
      Rational(1) - report.expected_error / TupleSpaceSize(n, k);
  report.work_units = ops;
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
  std::vector<Element> env(static_cast<size_t>(compiled->slot_count), 0);
  for (size_t i = 0; i < assignment.size(); ++i) {
    env[i] = assignment[i];
  }
  uint64_t ops = 0;
  return EvalPlan(compiled->plan, db, &env, nullptr, &ops);
}

}  // namespace qrel
