// Query evaluation (data complexity): evaluating a fixed compiled query on
// a database or possible world.
//
// CompiledQuery resolves relation names against a vocabulary once and maps
// variables to dense environment slots, so repeated evaluation (the inner
// loop of every Monte Carlo estimator) does no string work. It evaluates
// two ways:
//
//   - on any AtomOracle (the observed Structure, a WorldView, the local
//     oracles of Prop 3.1 and of second-order guesses): every quantifier
//     loops over the n elements and every atom is one oracle call;
//   - on an IndexedWorld (prob/possible_facts.h), one world of a database
//     read through its possible facts. Compile plans every quantifier
//     block — a run of ∃ (or of ∀) with the formula under it — as a
//     candidate join (logic/join.h) over the block's conjuncts: the body's
//     conjunction for ∃, the negated body's for ∀ (so `∀x̄ R(…) → φ` and
//     `∀x̄ ¬R(…) ∨ φ` are guarded by R). A block variable bound by a
//     positive database atom loops over that atom's candidates, looked up
//     on the positions already bound, and a candidate's truth is read from
//     its fact record; each atom test is a binary search in its relation's
//     candidates. A block costs O(matching candidates) per binding of the
//     enclosing variables instead of O(n^|block|). A variable that no
//     positive atom and no equality binds (an unguarded ∀, `∃x ¬S(x)`)
//     still loops over all n elements.
//
// The caller builds the index once per run over the database and paths()
// (never per world), and reads each world through it.

#ifndef QREL_LOGIC_EVAL_H_
#define QREL_LOGIC_EVAL_H_

#include <memory>
#include <string>
#include <vector>

#include "qrel/logic/ast.h"
#include "qrel/logic/join.h"
#include "qrel/prob/possible_facts.h"
#include "qrel/relational/structure.h"
#include "qrel/util/status.h"

namespace qrel {

class CompiledQuery {
 public:
  // Validates `formula` against `vocabulary` (all relations exist with
  // matching arities) and prepares it for evaluation. The query's free
  // variables, in first-appearance order, become the answer-tuple columns.
  static StatusOr<CompiledQuery> Compile(FormulaPtr formula,
                                         const Vocabulary& vocabulary);

  CompiledQuery(CompiledQuery&&) = default;
  CompiledQuery& operator=(CompiledQuery&&) = default;

  const FormulaPtr& formula() const { return formula_; }
  const std::vector<std::string>& free_variables() const {
    return free_variables_;
  }
  // Number of free variables (the k of a k-ary query).
  int arity() const { return static_cast<int>(free_variables_.size()); }

  // The access paths of the planned quantifier blocks: the index an
  // IndexedWorld evaluation reads must be built over exactly these.
  const std::vector<PossibleFacts::Path>& paths() const { return paths_; }

  // Truth of ψ(ā) on the database `oracle`, where `assignment` supplies the
  // values of the free variables in free_variables() order. Must have
  // exactly arity() entries (empty for Boolean queries).
  bool Eval(const AtomOracle& oracle, const Tuple& assignment) const;
  // The same through the possible-facts index (built over paths()).
  bool Eval(const IndexedWorld& world, const Tuple& assignment) const;

  // ψ^𝔄 = { ā : 𝔄 ⊨ ψ(ā) } in lexicographic tuple order. Evaluates all
  // n^arity assignments.
  std::vector<Tuple> AnswerSet(const AtomOracle& oracle) const;
  std::vector<Tuple> AnswerSet(const IndexedWorld& world) const;

 private:
  struct Node;
  // A quantifier block planned as a join: the conjuncts it filters by, in
  // JoinLiteral order.
  struct Block {
    struct Conjunct {
      const Node* node;
      bool positive;
    };
    std::vector<Conjunct> conjuncts;
    JoinPlan plan;
  };
  struct Node {
    FormulaKind kind;
    int relation = -1;             // kAtom
    std::vector<JoinTerm> terms;   // kAtom / kEquals
    std::vector<std::unique_ptr<Node>> children;
    int slot = -1;  // kExists / kForAll: environment index of bound variable
    // The first ∃ (∀) of a block: its join, read by IndexedWorld
    // evaluation. Oracle evaluation walks the nested nodes instead.
    std::unique_ptr<Block> block;
  };
  // One evaluation's environment and lookup-key scratch.
  struct Frame {
    std::vector<Element> env;
    Tuple key;
  };

  CompiledQuery() = default;

  static StatusOr<std::unique_ptr<Node>> CompileNode(
      const Formula& formula, const Vocabulary& vocabulary,
      std::vector<std::pair<std::string, int>>* scope, int* next_slot);
  void PlanBlocks(Node* node);

  Frame NewFrame(const Tuple& assignment, int universe_size) const;
  template <typename Reader>
  bool EvalNode(const Node& node, const Reader& reader, Frame* frame) const;
  template <typename Reader>
  std::vector<Tuple> Answers(const Reader& reader, int universe_size) const;

  FormulaPtr formula_;
  std::vector<std::string> free_variables_;
  std::unique_ptr<Node> root_;
  int slot_count_ = 0;
  std::vector<PossibleFacts::Path> paths_;
};

}  // namespace qrel

#endif  // QREL_LOGIC_EVAL_H_
