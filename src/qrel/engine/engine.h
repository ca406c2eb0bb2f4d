// One-call reliability engine: parse a query, statically analyze it,
// classify it, evaluate it on the observed database, and compute or
// approximate its reliability with the best algorithm the paper provides
// for its class.
//
// Every run starts with static analysis (logic/analyze.h,
// datalog/analyze.h): hard errors — unknown predicates, arity mismatches,
// unsafe or unstratifiable Datalog rules — fail fast with a typed
// kInvalidArgument carrying a source-located diagnostic, before any
// RunContext budget is charged. Queries the simplifier proves statically
// true or false short-circuit to the exact closed form (R = 1, H = 0)
// without sampling a single world. Otherwise dispatch uses the *simplified*
// formula's class, which by the simplifier contract is never a worse rung.
//
// Strategy: one ladder of rungs (enum Rung below), cheapest guarantee
// first. A single planner picks the rung for Explain and for both run
// front ends (first-order queries and Datalog programs):
//   kStaticClosedForm  statically true/false → closed form, no evaluation;
//   kQuantifierFree    Proposition 3.1 exact polynomial algorithm;
//   kExtensional       safe self-join-free conjunctive query → safe-plan
//                      extensional evaluation (logic/safe_plan.h +
//                      lifted/extensional.h): exact rationals, no worlds,
//                      no samples;
//   kExactWorlds       small world space → Theorem 4.2 exact enumeration
//                      (2^#uncertain ≤ options.max_exact_worlds);
//   kCor55             existential/universal → Corollary 5.5
//                      absolute-error approximation (Theorem 5.4
//                      grounding + Karp-Luby);
//   kPadded            anything else → Theorem 5.12 padded estimator.
// Datalog has no syntactic class ladder and plans as general first-order,
// so a Datalog run only ever plans kExactWorlds or kPadded.
//
// Explain() runs the same analysis and rung selection *without executing*:
// it returns the diagnostics, the simplified query, the cost pre-analysis
// (grounding size n^k, world count 2^u), the planned rung and its method
// string, which is always a prefix of the EngineReport::method an actual
// run with the same options produces.
//
// Resource governance: EngineOptions::run_context carries a wall-clock
// deadline, a work budget and a cancellation flag into every rung. An
// envelope that is already tripped at entry fails fast with its budget
// status. Both front ends then hand their rungs to one degradation
// ladder: when a deadline or work budget trips *mid-rung* and
// degrade_on_budget is set, the run falls from the planned exact rung to
// the randomized rung instead of failing — the exact rung's partial work
// is discarded and the randomized rung runs under whatever envelope
// remains — and a last-resort padded run with `reserve_samples` fixed
// samples (ungoverned, so it always finishes) guarantees an answer. The
// report flags the fallback (`degraded`, `degradation_reason`) and the
// weakened guarantee (`partial`, `achieved_epsilon`/`achieved_delta`).
// Cancellation never degrades: it always surfaces as kCancelled.
//
// Crash-safe checkpointing: attach a Checkpointer to the RunContext
// (RunContext::SetCheckpointer, after Checkpointer::LoadForResume) and
// every rung's outermost loop periodically snapshots its progress —
// counters, accumulators, RNG state — through util/snapshot.h. A run
// killed at any point and re-run with the same options resumes from the
// latest snapshot and produces a bit-identical report (estimate, samples,
// budget_spent). Snapshots are keyed by algorithm and parameter
// fingerprint, so a rung simply ignores another rung's snapshot, and a
// parameter change refuses to resume instead of silently biasing the
// estimate.

#ifndef QREL_ENGINE_ENGINE_H_
#define QREL_ENGINE_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "qrel/core/absolute.h"
#include "qrel/core/approx.h"
#include "qrel/core/reliability.h"
#include "qrel/datalog/analyze.h"
#include "qrel/datalog/reliability.h"
#include "qrel/logic/analyze.h"
#include "qrel/logic/classify.h"
#include "qrel/logic/diagnostics.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

// The rungs of the engine's ladder, in planning order (see the header
// comment). The exact rungs come first; kCor55 and kPadded are randomized.
enum class Rung {
  kStaticClosedForm,  // query simplifies to true/false: R = 1 exactly
  kQuantifierFree,    // Prop 3.1 quantifier-free polynomial algorithm
  kExtensional,       // safe-plan extensional evaluation
  kExactWorlds,       // Thm 4.2 exact world enumeration
  kCor55,             // Cor 5.5 absolute-error approximation
  kPadded,            // Thm 5.12 padded estimator
};

struct EngineOptions {
  // Targets for the randomized paths (absolute error on R_ψ).
  double epsilon = 0.02;
  double delta = 0.02;
  uint64_t seed = 1;

  // Overrides the theorem-derived Monte Carlo sample counts (per Boolean
  // sub-estimate) on the randomized paths. The derived counts honor the
  // (ε, δ) guarantee but grow steeply with n^arity; set this for budgeted
  // estimates.
  std::optional<uint64_t> fixed_samples;

  // Use exact world enumeration when 2^#uncertain-atoms is at most this.
  uint64_t max_exact_worlds = uint64_t{1} << 16;
  // Force a path regardless of the heuristics (both false = automatic).
  bool force_exact = false;
  bool force_approximate = false;

  // Also evaluate ψ on the observed database and report the answer set
  // (skipped when n^arity exceeds 2^16 tuples).
  bool include_observed_answers = true;

  // Execution envelope for the whole run (non-owning, nullable; see
  // util/run_context.h). Every rung charges its work — worlds, samples,
  // ground clauses, fixpoint nodes — against it.
  RunContext* run_context = nullptr;

  // Fall down the strategy ladder when the envelope trips mid-rung
  // (deadline or work budget only — cancellation always propagates).
  // force_exact suppresses degradation: an explicit demand for an exact
  // answer is honored even at the price of a budget error.
  bool degrade_on_budget = true;

  // Sampled worlds (shared by every answer tuple) for the last-resort
  // padded rung, which runs ungoverned so a degraded run still returns an
  // estimate.
  uint64_t reserve_samples = 384;
};

struct EngineReport {
  QueryClass query_class = QueryClass::kGeneralFirstOrder;
  std::string method;          // which algorithm ran
  bool is_exact = false;       // whether `reliability` is exact
  double reliability = 0.0;    // R_ψ(𝔇), exact or estimated
  double expected_error = 0.0; // H_ψ(𝔇) = (1 − R)·n^k
  // The exact rational value, when an exact path ran.
  std::optional<Rational> exact_reliability;
  uint64_t samples = 0;  // Monte Carlo samples drawn (0 on exact paths)
  // ψ^𝔄, if requested and small enough.
  std::optional<std::vector<Tuple>> observed_answers;

  // A cheaper rung than the planned one produced the answer because the
  // execution envelope tripped mid-run; `degradation_reason` says why.
  bool degraded = false;
  std::string degradation_reason;
  // The estimate rests on fewer samples than the (ε, δ) plan called for —
  // a truncated sampling run or the fixed-size reserve rung.
  bool partial = false;
  // The guarantee those samples actually deliver (absolute error on R at
  // confidence achieved_delta), when weaker than the requested epsilon.
  std::optional<double> achieved_epsilon;
  std::optional<double> achieved_delta;
  // Work units charged to options.run_context by this run (0 when
  // ungoverned).
  uint64_t budget_spent = 0;
};

// The engine's "explain plan": everything static analysis can say about a
// query against this database without executing anything.
struct EnginePlan {
  // All analyzer diagnostics (errors, warnings, notes). When any is an
  // error, `planned_method` names no theorem: a Run with the same inputs
  // fails with kInvalidArgument instead of executing.
  std::vector<Diagnostic> diagnostics;

  QueryClass query_class = QueryClass::kGeneralFirstOrder;  // original
  // Class of the simplified query — what dispatch actually uses. By the
  // simplifier contract PlanRank(effective) <= PlanRank(query_class).
  QueryClass effective_class = QueryClass::kGeneralFirstOrder;
  StaticTruth static_truth = StaticTruth::kUnknown;
  // ToString() of the simplified query (empty for Datalog plans).
  std::string simplified_query;

  // Work prediction: answer space n^k, grounding size n^#vars, world
  // count 2^u.
  CostEstimate cost;

  // The rung an actual run with these options would execute, and its
  // method string naming the paper theorem — always a prefix of that
  // run's EngineReport::method. `planned_method` is empty, and `rung`
  // meaningless, when `diagnostics` contains errors.
  Rung rung = Rung::kPadded;
  std::string planned_method;

  // Safe-plan analysis of the dispatched query (logic/safe_plan.h).
  // `safe_plan_applicable`: the query is a quantified conjunctive query,
  // so the safe/unsafe verdict is meaningful. When safe, `safe_plan`
  // renders the plan tree; when applicable but unsafe,
  // `safe_plan_blocker` carries the check id of the blocking diagnostic
  // (unsafe-self-join or unsafe-no-root-variable), whose full located
  // message is in `diagnostics`.
  bool safe_plan_applicable = false;
  bool safe_plan_safe = false;
  std::string safe_plan;
  std::string safe_plan_blocker;

  bool has_errors() const { return HasErrors(diagnostics); }
};

class ReliabilityEngine {
 public:
  explicit ReliabilityEngine(UnreliableDatabase database);

  const UnreliableDatabase& database() const { return database_; }
  UnreliableDatabase* mutable_database() { return &database_; }

  // Parses and runs `query_text` (see logic/parser.h for the syntax).
  StatusOr<EngineReport> Run(const std::string& query_text,
                             const EngineOptions& options = {}) const;
  StatusOr<EngineReport> Run(const FormulaPtr& query,
                             const EngineOptions& options = {}) const;

  // Static analysis + rung selection without executing: diagnostics,
  // simplification, cost estimates and the planned method. Never charges
  // options.run_context. The text overload fails only on syntax errors.
  StatusOr<EnginePlan> Explain(const std::string& query_text,
                               const EngineOptions& options = {}) const;
  EnginePlan Explain(const FormulaPtr& query,
                     const EngineOptions& options = {}) const;

  // The Datalog counterpart: program diagnostics (safety, stratification,
  // reachability of `predicate`) and the planned rung. The text overload
  // fails only on syntax errors.
  StatusOr<EnginePlan> ExplainDatalog(const std::string& program_text,
                                      const std::string& predicate,
                                      const EngineOptions& options = {}) const;
  EnginePlan ExplainDatalog(const DatalogProgram& program,
                            const std::string& predicate,
                            const EngineOptions& options = {}) const;

  // Runs a Datalog program (see datalog/program.h for the syntax) and
  // reports the reliability of `predicate`: exact world enumeration when
  // the support is small (or force_exact), the Thm 5.12 padded estimator
  // otherwise. Datalog queries have no syntactic class ladder, so the
  // query_class field is reported as general first-order.
  StatusOr<EngineReport> RunDatalog(const std::string& program_text,
                                    const std::string& predicate,
                                    const EngineOptions& options = {}) const;

 private:
  // The two front ends (parse, analyze, compile, observed answers) of the
  // shared rung ladder; the public entry points wrap them to turn a
  // std::bad_alloc mid-run (real or injected via util/fault_injection.h)
  // into a typed kResourceExhausted instead of a crash.
  StatusOr<EngineReport> RunImpl(const FormulaPtr& query,
                                 const EngineOptions& options) const;
  StatusOr<EngineReport> RunDatalogImpl(const std::string& program_text,
                                        const std::string& predicate,
                                        const EngineOptions& options) const;

  UnreliableDatabase database_;
};

}  // namespace qrel

#endif  // QREL_ENGINE_ENGINE_H_
