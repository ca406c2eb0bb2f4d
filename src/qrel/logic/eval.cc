#include "qrel/logic/eval.h"

#include <algorithm>
#include <utility>

#include "qrel/util/check.h"

namespace qrel {

namespace {

// Atom truth one oracle call at a time; every quantifier loops over the
// domain.
struct OracleReader {
  static constexpr bool kIndexed = false;
  const AtomOracle& oracle;

  bool Atom(int relation, const Tuple& tuple) const {
    return oracle.AtomTrue(relation, tuple);
  }
};

// Atom truth from the possible-facts records; quantifier blocks run their
// joins.
struct IndexReader {
  static constexpr bool kIndexed = true;
  const IndexedWorld& world;

  bool Atom(int relation, const Tuple& tuple) const {
    return world.True(relation, tuple);
  }
};

// The conjuncts of `node` read with polarity `positive`: a positive ∧, a
// negative ∨ or → and a ¬ are split further, anything else is one conjunct.
template <typename Node, typename Conjunct>
void CollectConjuncts(const Node* node, bool positive,
                      std::vector<Conjunct>* out) {
  switch (node->kind) {
    case FormulaKind::kAnd:
      if (positive) {
        for (const auto& child : node->children) {
          CollectConjuncts(child.get(), true, out);
        }
        return;
      }
      break;
    case FormulaKind::kOr:
      if (!positive) {
        for (const auto& child : node->children) {
          CollectConjuncts(child.get(), false, out);
        }
        return;
      }
      break;
    case FormulaKind::kImplies:
      if (!positive) {
        CollectConjuncts(node->children[0].get(), true, out);
        CollectConjuncts(node->children[1].get(), false, out);
        return;
      }
      break;
    case FormulaKind::kNot:
      CollectConjuncts(node->children[0].get(), !positive, out);
      return;
    default:
      break;
  }
  out->push_back({node, positive});
}

// Appends the slots `node` reads to `reads` and the slots its quantifiers
// bind to `binds`.
template <typename Node>
void CollectSlots(const Node& node, std::vector<int>* reads,
                  std::vector<int>* binds) {
  for (const JoinTerm& term : node.terms) {
    if (term.is_slot) {
      reads->push_back(term.slot);
    }
  }
  if (node.slot >= 0) {
    binds->push_back(node.slot);
  }
  for (const auto& child : node.children) {
    CollectSlots(*child, reads, binds);
  }
}

}  // namespace

StatusOr<CompiledQuery> CompiledQuery::Compile(FormulaPtr formula,
                                               const Vocabulary& vocabulary) {
  QREL_CHECK(formula != nullptr);
  CompiledQuery query;
  query.formula_ = formula;
  query.free_variables_ = formula->FreeVariables();

  // Free variables occupy the first slots, in answer-column order.
  std::vector<std::pair<std::string, int>> scope;
  int next_slot = 0;
  for (const std::string& name : query.free_variables_) {
    scope.emplace_back(name, next_slot++);
  }
  StatusOr<std::unique_ptr<Node>> root =
      CompileNode(*formula, vocabulary, &scope, &next_slot);
  if (!root.ok()) {
    return root.status();
  }
  query.root_ = std::move(root).value();
  query.slot_count_ = next_slot;
  query.PlanBlocks(query.root_.get());
  return query;
}

StatusOr<std::unique_ptr<CompiledQuery::Node>> CompiledQuery::CompileNode(
    const Formula& formula, const Vocabulary& vocabulary,
    std::vector<std::pair<std::string, int>>* scope, int* next_slot) {
  auto node = std::make_unique<Node>();
  node->kind = formula.kind;

  auto compile_term = [&](const Term& term) -> StatusOr<JoinTerm> {
    JoinTerm compiled;
    if (term.is_variable()) {
      // Innermost binding wins (quantifiers may shadow outer variables).
      for (size_t i = scope->size(); i-- > 0;) {
        if ((*scope)[i].first == term.variable) {
          compiled.is_slot = true;
          compiled.slot = (*scope)[i].second;
          return compiled;
        }
      }
      return Status::Internal("unbound variable '" + term.variable + "'");
    }
    compiled.constant = term.constant;
    return compiled;
  };

  switch (formula.kind) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return node;
    case FormulaKind::kAtom: {
      std::optional<int> relation = vocabulary.FindRelation(formula.relation);
      if (!relation.has_value()) {
        return Status::InvalidArgument("unknown relation '" +
                                       formula.relation + "'");
      }
      int arity = vocabulary.relation(*relation).arity;
      if (arity != static_cast<int>(formula.args.size())) {
        return Status::InvalidArgument(
            "relation '" + formula.relation + "' has arity " +
            std::to_string(arity) + " but is used with " +
            std::to_string(formula.args.size()) + " arguments");
      }
      node->relation = *relation;
      for (const Term& term : formula.args) {
        StatusOr<JoinTerm> compiled = compile_term(term);
        if (!compiled.ok()) return compiled.status();
        node->terms.push_back(*compiled);
      }
      return node;
    }
    case FormulaKind::kEquals: {
      for (const Term& term : formula.args) {
        StatusOr<JoinTerm> compiled = compile_term(term);
        if (!compiled.ok()) return compiled.status();
        node->terms.push_back(*compiled);
      }
      return node;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll: {
      node->slot = (*next_slot)++;
      scope->emplace_back(formula.bound_variable, node->slot);
      StatusOr<std::unique_ptr<Node>> body =
          CompileNode(*formula.children[0], vocabulary, scope, next_slot);
      scope->pop_back();
      if (!body.ok()) return body.status();
      node->children.push_back(std::move(body).value());
      return node;
    }
    default: {
      for (const FormulaPtr& child : formula.children) {
        StatusOr<std::unique_ptr<Node>> compiled =
            CompileNode(*child, vocabulary, scope, next_slot);
        if (!compiled.ok()) return compiled.status();
        node->children.push_back(std::move(compiled).value());
      }
      return node;
    }
  }
}

void CompiledQuery::PlanBlocks(Node* node) {
  if (node->kind != FormulaKind::kExists &&
      node->kind != FormulaKind::kForAll) {
    for (const std::unique_ptr<Node>& child : node->children) {
      PlanBlocks(child.get());
    }
    return;
  }
  // The block: this quantifier and the ones of the same kind directly
  // under it.
  std::vector<int> slots;
  Node* body = node;
  while (body->kind == node->kind) {
    slots.push_back(body->slot);
    body = body->children[0].get();
  }
  auto block = std::make_unique<Block>();
  CollectConjuncts(static_cast<const Node*>(body),
                   node->kind == FormulaKind::kExists, &block->conjuncts);
  std::vector<JoinLiteral> literals(block->conjuncts.size());
  std::vector<int> binds;
  for (size_t i = 0; i < literals.size(); ++i) {
    const Node& conjunct = *block->conjuncts[i].node;
    JoinLiteral& literal = literals[i];
    literal.positive = block->conjuncts[i].positive;
    if (conjunct.kind == FormulaKind::kAtom ||
        conjunct.kind == FormulaKind::kEquals) {
      literal.kind = conjunct.kind == FormulaKind::kAtom
                         ? JoinLiteral::Kind::kAtom
                         : JoinLiteral::Kind::kEquals;
      literal.relation = conjunct.relation;
      literal.terms = conjunct.terms;
    }
    // The slots the conjunct reads and does not bind itself.
    binds.clear();
    CollectSlots(conjunct, &literal.slots, &binds);
    std::erase_if(literal.slots, [&binds](int slot) {
      return std::find(binds.begin(), binds.end(), slot) != binds.end();
    });
  }
  block->plan = PlanJoin(literals, slots, &paths_);
  node->block = std::move(block);
  PlanBlocks(body);
}

CompiledQuery::Frame CompiledQuery::NewFrame(const Tuple& assignment,
                                             int universe_size) const {
  QREL_CHECK_EQ(static_cast<int>(assignment.size()), arity());
  Frame frame;
  frame.env.assign(static_cast<size_t>(slot_count_), 0);
  for (size_t i = 0; i < assignment.size(); ++i) {
    QREL_CHECK_GE(assignment[i], 0);
    QREL_CHECK_LT(assignment[i], universe_size);
    frame.env[i] = assignment[i];
  }
  return frame;
}

bool CompiledQuery::Eval(const AtomOracle& oracle,
                         const Tuple& assignment) const {
  Frame frame = NewFrame(assignment, oracle.universe_size());
  return EvalNode(*root_, OracleReader{oracle}, &frame);
}

bool CompiledQuery::Eval(const IndexedWorld& world,
                         const Tuple& assignment) const {
  QREL_CHECK_MSG(world.facts().paths() == paths_,
                 "index not built over the query's access paths");
  Frame frame = NewFrame(assignment, world.universe_size());
  return EvalNode(*root_, IndexReader{world}, &frame);
}

template <typename Reader>
bool CompiledQuery::EvalNode(const Node& node, const Reader& reader,
                             Frame* frame) const {
  const Element* env = frame->env.data();
  switch (node.kind) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kAtom: {
      Tuple& args = frame->key;
      args.clear();
      for (const JoinTerm& term : node.terms) {
        args.push_back(term.Value(env));
      }
      return reader.Atom(node.relation, args);
    }
    case FormulaKind::kEquals:
      return node.terms[0].Value(env) == node.terms[1].Value(env);
    case FormulaKind::kNot:
      return !EvalNode(*node.children[0], reader, frame);
    case FormulaKind::kAnd:
      for (const std::unique_ptr<Node>& child : node.children) {
        if (!EvalNode(*child, reader, frame)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const std::unique_ptr<Node>& child : node.children) {
        if (EvalNode(*child, reader, frame)) return true;
      }
      return false;
    case FormulaKind::kImplies:
      return !EvalNode(*node.children[0], reader, frame) ||
             EvalNode(*node.children[1], reader, frame);
    case FormulaKind::kIff:
      return EvalNode(*node.children[0], reader, frame) ==
             EvalNode(*node.children[1], reader, frame);
    case FormulaKind::kExists:
    case FormulaKind::kForAll:
      break;
  }
  const bool exists = node.kind == FormulaKind::kExists;
  if constexpr (Reader::kIndexed) {
    // A binding of the block's join is a witness for ∃ and a
    // counterexample for ∀.
    struct Visitor {
      const CompiledQuery& query;
      const Block& block;
      const Reader& reader;
      Frame* frame;

      bool Visit() { return true; }
      bool Accept(const JoinStep& step, const Tuple* candidate) {
        return reader.world.Holds(step.relation, candidate);
      }
      bool Filter(int literal) {
        const Block::Conjunct& conjunct =
            block.conjuncts[static_cast<size_t>(literal)];
        return query.EvalNode(*conjunct.node, reader, frame) ==
               conjunct.positive;
      }
      bool Emit() { return false; }
    } visitor{*this, *node.block, reader, frame};
    bool found = !RunJoin(node.block->plan, reader.world.facts(), &frame->env,
                          &frame->key, visitor);
    return found == exists;
  } else {
    for (Element value = 0; value < reader.oracle.universe_size(); ++value) {
      frame->env[static_cast<size_t>(node.slot)] = value;
      if (EvalNode(*node.children[0], reader, frame) == exists) {
        return exists;
      }
    }
    return !exists;
  }
}

template <typename Reader>
std::vector<Tuple> CompiledQuery::Answers(const Reader& reader,
                                          int universe_size) const {
  std::vector<Tuple> result;
  Tuple assignment(static_cast<size_t>(arity()), 0);
  Frame frame = NewFrame(assignment, universe_size);
  do {
    std::copy(assignment.begin(), assignment.end(), frame.env.begin());
    if (EvalNode(*root_, reader, &frame)) {
      result.push_back(assignment);
    }
  } while (AdvanceTuple(&assignment, universe_size));
  return result;
}

std::vector<Tuple> CompiledQuery::AnswerSet(const AtomOracle& oracle) const {
  return Answers(OracleReader{oracle}, oracle.universe_size());
}

std::vector<Tuple> CompiledQuery::AnswerSet(const IndexedWorld& world) const {
  QREL_CHECK_MSG(world.facts().paths() == paths_,
                 "index not built over the query's access paths");
  return Answers(IndexReader{world}, world.universe_size());
}

}  // namespace qrel
