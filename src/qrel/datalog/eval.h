// Compilation and bottom-up fixpoint evaluation of stratified Datalog.
//
// CompiledDatalog validates a program against an EDB vocabulary: EDB
// predicates must exist with matching arities, IDB arities must be
// consistent, rules must be safe (every variable occurs in a positive body
// literal) and negation stratified. Evaluation runs stratum by stratum to
// the fixpoint, reading extensional atoms through the AtomOracle
// interface — so a program evaluates on the observed database and on any
// possible world alike, which is what the reliability algorithms need.
//
// A positive extensional literal does not enumerate the n^|free| values of
// its unbound arguments. Compilation fixes which argument positions each
// such literal finds bound (constants and variables bound by earlier
// literals); evaluation looks those values up in a PossibleFacts index
// (prob/possible_facts.h) and reads each candidate's truth in the world
// from its fact record, so the cost of a body is O(matches) per binding
// instead of O(n^|free|). World loops build the index once per run over
// the database's possible facts and read every world through it
// (IndexedWorld).
#ifndef QREL_DATALOG_EVAL_H_
#define QREL_DATALOG_EVAL_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "qrel/datalog/program.h"
#include "qrel/prob/possible_facts.h"
#include "qrel/prob/world.h"
#include "qrel/relational/structure.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

// Materialized IDB contents after a fixpoint evaluation.
using DatalogResult = std::map<std::string, std::set<Tuple>>;

class CompiledDatalog {
 public:
  static StatusOr<CompiledDatalog> Compile(DatalogProgram program,
                                           const Vocabulary& edb_vocabulary);

  // Evaluates the program over the given extensional database to the
  // least fixpoint (per stratum) and returns all IDB relations. Uses
  // semi-naive evaluation: after the first round, a rule only re-fires
  // with one of its same-stratum positive IDB literals restricted to the
  // previous round's delta, so unchanged derivations are not recomputed.
  // `edb` reads one world through an index built over edb_paths(). `ctx`
  // (nullable) is charged one work unit per rule-body enumeration node; a
  // tripped envelope aborts the fixpoint with the budget status.
  StatusOr<DatalogResult> Eval(const IndexedWorld& edb,
                               RunContext* ctx) const;
  // The same over a structure (indexing its facts) or over one world of a
  // database (indexing the database's possible facts).
  StatusOr<DatalogResult> Eval(const Structure& edb, RunContext* ctx) const;
  StatusOr<DatalogResult> Eval(const WorldView& edb, RunContext* ctx) const;
  DatalogResult Eval(const Structure& edb) const {
    return std::move(Eval(edb, nullptr)).value();
  }

  // The textbook naive fixpoint (re-derives everything every round);
  // exponentially wasteful on deep recursions, kept as the semi-naive
  // algorithm's test oracle.
  StatusOr<DatalogResult> EvalNaive(const Structure& edb,
                                    RunContext* ctx) const;
  DatalogResult EvalNaive(const Structure& edb) const {
    return std::move(EvalNaive(edb, nullptr)).value();
  }

  // Convenience: the contents of one predicate after evaluation. The
  // predicate may be intensional or extensional.
  StatusOr<std::set<Tuple>> EvalPredicate(const IndexedWorld& edb,
                                          const std::string& predicate,
                                          RunContext* ctx = nullptr) const;
  StatusOr<std::set<Tuple>> EvalPredicate(const Structure& edb,
                                          const std::string& predicate,
                                          RunContext* ctx = nullptr) const;

  // The access paths of the positive extensional literals, to build the
  // PossibleFacts index an IndexedWorld evaluation reads.
  const std::vector<PossibleFacts::Path>& edb_paths() const {
    return edb_paths_;
  }

  // Declared IDB predicates in stratum order.
  const std::vector<std::string>& idb_predicates() const {
    return idb_predicates_;
  }
  // The source program (rule bodies and all); its ToString() is mixed into
  // checkpoint resume fingerprints so an edited program refuses to resume.
  const DatalogProgram& program() const { return program_; }
  // Arity of an IDB or EDB predicate.
  StatusOr<int> PredicateArity(const std::string& predicate) const;

 private:
  struct CompiledLiteral {
    bool positive = true;
    bool is_idb = false;
    // Positive IDB literal whose predicate lives in the same stratum as
    // the rule head (the literals semi-naive evaluation restricts).
    bool same_stratum_idb = false;
    int edb_relation = -1;     // when !is_idb
    int edb_path = -1;         // when positive and !is_idb: edb_paths_ index
    std::string idb_relation;  // when is_idb
    // One entry per argument: variable slot (>= 0) or -1 with a constant.
    std::vector<int> slots;
    std::vector<Element> constants;
  };
  struct CompiledRule {
    std::string head;
    std::vector<int> head_slots;        // -1 entries use head_constants
    std::vector<Element> head_constants;
    int variable_count = 0;
    std::vector<CompiledLiteral> body;
    int stratum = 0;
  };

  // What one rule firing reads and writes, shared by every node of its
  // body enumeration. When `delta_index` is a body-literal index, that
  // (positive, same-stratum IDB) literal iterates `*delta_contents`
  // instead of the full relation — the semi-naive restriction; -1 means
  // full evaluation.
  struct Firing {
    const IndexedWorld& edb;
    const DatalogResult& idb;
    const std::set<Tuple>& head_set;
    Tuple* head_tuple;  // scratch for the emitted head
    std::set<Tuple>* additions;
    int delta_index;
    const std::set<Tuple>* delta_contents;
    RunContext* ctx;
    Status* budget;
  };

  DatalogProgram program_;
  std::vector<CompiledRule> rules_;
  std::vector<std::string> idb_predicates_;  // stratum order
  std::map<std::string, int> idb_arity_;
  std::map<std::string, int> idb_stratum_;
  std::vector<PossibleFacts::Path> edb_paths_;
  const Vocabulary* edb_vocabulary_ = nullptr;
  int stratum_count_ = 1;

  // Enumerates body bindings and collects new head tuples into
  // `firing.additions`. Charges one unit of `firing.ctx` per invocation
  // (= per enumeration node) and unwinds as soon as `*firing.budget` goes
  // non-OK.
  void BodySatisfied(const CompiledRule& rule, size_t literal_index,
                     std::vector<Element>* binding,
                     const Firing& firing) const;
  // Fires `rule` once (delta_index/delta_contents as in Firing).
  Status FireRule(const CompiledRule& rule, const IndexedWorld& edb,
                  const DatalogResult& idb,
                  int delta_index, const std::set<Tuple>* delta_contents,
                  RunContext* ctx, std::set<Tuple>* additions) const;
};

}  // namespace qrel

#endif  // QREL_DATALOG_EVAL_H_
