// Reliability of Datalog queries on unreliable databases.
//
// A stratified Datalog program evaluates in polynomial time, so the
// paper's machinery applies directly:
//   * Theorem 4.2 — exact reliability by possible-world enumeration (the
//     "in particular, this includes all Datalog queries" remark);
//   * Theorem 5.12 — the padded (ψ ∨ Rc) ∧ Rd estimator gives an
//     absolute-error randomized approximation, since it only needs to
//     *evaluate* the query on sampled worlds; the shared estimator in
//     core/approx.h runs it with a fixpoint as the evaluator.
// The query is one predicate of the program; its materialized relation is
// the answer set whose expected Hamming error defines H and R.

#ifndef QREL_DATALOG_RELIABILITY_H_
#define QREL_DATALOG_RELIABILITY_H_

#include <string>

#include "qrel/core/approx.h"
#include "qrel/core/reliability.h"
#include "qrel/datalog/eval.h"
#include "qrel/prob/unreliable_database.h"

namespace qrel {

// Exact H and R for `predicate` by world enumeration. Fails if the
// database has more than 62 uncertain atoms. `ctx` (nullable) is charged
// one unit per world plus the fixpoint's own per-node charges; a tripped
// envelope aborts with the budget status.
StatusOr<ReliabilityReport> ExactDatalogReliability(
    const CompiledDatalog& program, const std::string& predicate,
    const UnreliableDatabase& db, RunContext* ctx = nullptr);

// Theorem 5.12 estimator for Datalog: the Datalog front end of
// PaddedEstimate (core/approx.h). A sampled world that some tuple needs is
// evaluated with one fixpoint, and each needed tuple is looked up in the
// predicate's relation. Absolute error `options.epsilon` on R with
// probability ≥ 1 − options.delta. Charges one work unit per sample plus
// the fixpoints' own per-node charges; options.allow_truncation applies at
// every arity.
StatusOr<ApproxResult> PaddedDatalogReliability(
    const CompiledDatalog& program, const std::string& predicate,
    const UnreliableDatabase& db, const ApproxOptions& options);

}  // namespace qrel

#endif  // QREL_DATALOG_RELIABILITY_H_
