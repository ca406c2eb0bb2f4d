// The golden-snapshot cases: one interrupted run per checkpoint payload
// kind. tests/golden_snapshot_gen.cc writes each case's mid-run snapshot
// into tests/testdata/snapshots/<kind>.snap; tests/golden_snapshot_test.cc
// resumes every committed snapshot on the current code and requires the
// result and the work counter to equal an uninterrupted run's, bit for
// bit. A payload layout change that keeps its `.v1` kind string therefore
// fails the test instead of silently misreading old snapshots.
//
// Only public entry points are used, so the generator also builds against
// older revisions of the library (which is how the committed snapshots
// were produced: see tests/testdata/snapshots/README.md).

#ifndef QREL_TESTS_GOLDEN_SNAPSHOT_CASES_H_
#define QREL_TESTS_GOLDEN_SNAPSHOT_CASES_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "qrel/core/absolute.h"
#include "qrel/core/approx.h"
#include "qrel/core/reliability.h"
#include "qrel/datalog/eval.h"
#include "qrel/datalog/program.h"
#include "qrel/datalog/reliability.h"
#include "qrel/logic/parser.h"
#include "qrel/prob/text_format.h"
#include "qrel/propositional/dnf.h"
#include "qrel/propositional/exact.h"
#include "qrel/propositional/karp_luby.h"
#include "qrel/propositional/naive_mc.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel::golden {

inline constexpr char kUdbText[] = R"(
universe 3
relation E 2
relation S 1
fact E 0 1 err=1/4
fact E 1 2 err=1/8
fact S 0
absent S 1 err=1/3
absent E 2 0 err=1/5
)";

inline constexpr char kDatalogProgram[] =
    "Path(x, y) :- E(x, y).\n"
    "Path(x, z) :- Path(x, y), E(y, z).";

// One run's observable outcome: the full result rendered exactly (doubles
// in hex-float, rationals as num/den) or the error Status.
using CaseRun = std::function<StatusOr<std::string>(RunContext*)>;

struct GoldenCase {
  const char* kind;  // snapshot kind, and the file stem under testdata
  CaseRun run;
  // How the generator interrupts the checkpointed run: arm `fault_spec`
  // ("site:n"), or when it is empty, trip a work budget of `work_budget`.
  const char* fault_spec;
  uint64_t work_budget;
};

inline std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

inline UnreliableDatabase Database() {
  return std::move(ParseUdb(kUdbText)).value();
}

inline CompiledDatalog Program(const UnreliableDatabase& db) {
  return std::move(CompiledDatalog::Compile(
                       std::move(ParseDatalogProgram(kDatalogProgram)).value(),
                       db.vocabulary()))
      .value();
}

inline Dnf TestDnf() {
  Dnf dnf(10);
  dnf.AddTerm({{0, true}, {1, false}});
  dnf.AddTerm({{2, true}, {3, true}, {4, false}});
  dnf.AddTerm({{5, false}, {9, true}});
  return dnf;
}

inline std::vector<Rational> UniformHalf() {
  return std::vector<Rational>(10, Rational::Half());
}

inline StatusOr<std::string> Render(
    const StatusOr<ReliabilityReport>& report) {
  if (!report.ok()) return report.status();
  return "R=" + report->reliability.ToString() +
         " H=" + report->expected_error.ToString() +
         " units=" + std::to_string(report->work_units);
}

inline StatusOr<std::string> Render(const StatusOr<ApproxResult>& result) {
  if (!result.ok()) return result.status();
  return result->method + " R=" + Hex(result->estimate) +
         " samples=" + std::to_string(result->samples) +
         " eps=" + Hex(result->achieved_epsilon.value_or(-1.0)) +
         " truncated=" + std::to_string(result->truncated);
}

inline ApproxOptions Approx(RunContext* ctx, uint64_t fixed_samples) {
  ApproxOptions options;
  options.seed = 7;
  options.epsilon = 0.3;
  options.delta = 0.3;
  options.fixed_samples = fixed_samples;
  options.run_context = ctx;
  return options;
}

// The Thm 5.12 runs, shared by their current case and their retired kind.
inline StatusOr<std::string> PaddedFirstOrderRun(RunContext* ctx) {
  // Arity 1, 16 sampled worlds.
  StatusOr<ApproxResult> result = PaddedReliabilityApprox(
      std::move(ParseFormula("forall y . E(x,y) | S(x)")).value(), Database(),
      Approx(ctx, 16));
  return Render(result);
}

inline StatusOr<std::string> PaddedDatalogRun(RunContext* ctx) {
  UnreliableDatabase db = Database();
  StatusOr<ApproxResult> result =
      PaddedDatalogReliability(Program(db), "Path", db, Approx(ctx, 64));
  return Render(result);
}

inline std::vector<GoldenCase> Cases() {
  return {
      {"core.exact.v1",
       [](RunContext* ctx) -> StatusOr<std::string> {
         UnreliableDatabase db = Database();
         StatusOr<ReliabilityReport> report = ExactReliability(
             std::move(ParseFormula("exists x y . E(x,y) & S(y) & S(x)"))
                 .value(),
             db, ctx);
         return Render(report);
       },
       "core.exact.world:5", 0},
      {"datalog.exact.v1",
       [](RunContext* ctx) -> StatusOr<std::string> {
         UnreliableDatabase db = Database();
         StatusOr<ReliabilityReport> report =
             ExactDatalogReliability(Program(db), "Path", db, ctx);
         return Render(report);
       },
       "datalog.exact.world:3", 0},
      {"propositional.karp_luby.v1",
       [](RunContext* ctx) -> StatusOr<std::string> {
         KarpLubyOptions options;
         options.seed = 11;
         options.fixed_samples = 64;
         options.run_context = ctx;
         StatusOr<KarpLubyResult> result =
             KarpLubyProbability(TestDnf(), UniformHalf(), options);
         if (!result.ok()) return result.status();
         return "estimate=" + Hex(result->estimate) +
                " samples=" + std::to_string(result->samples) +
                " weight=" + Hex(result->total_term_weight);
       },
       "propositional.karp_luby.sample:20", 0},
      {"propositional.naive_mc.v1",
       [](RunContext* ctx) -> StatusOr<std::string> {
         StatusOr<NaiveMcResult> result =
             NaiveMcProbability(TestDnf(), UniformHalf(), 64, 5, ctx);
         if (!result.ok()) return result.status();
         return "estimate=" + Hex(result->estimate) +
                " hits=" + std::to_string(result->hits) +
                " samples=" + std::to_string(result->samples);
       },
       "propositional.naive_mc.sample:20", 0},
      {"propositional.brute_force.v1",
       [](RunContext* ctx) -> StatusOr<std::string> {
         StatusOr<Rational> result =
             BruteForceDnfProbability(TestDnf(), UniformHalf(), ctx);
         if (!result.ok()) return result.status();
         return result->ToString();
       },
       "", 100},
      {"core.absolute_approx.v1",
       [](RunContext* ctx) -> StatusOr<std::string> {
         // Arity 2: nine per-tuple estimates.
         StatusOr<ApproxResult> result = ReliabilityAbsoluteApprox(
             std::move(ParseFormula("E(x,y) & S(y)")).value(), Database(),
             Approx(ctx, 16));
         return Render(result);
       },
       "core.approx.tuple:5", 0},
      {"core.padded.v2", PaddedFirstOrderRun,
       // 16 worlds shared by the three tuples: the snapshot is mid-run.
       "core.approx.padded_sample:11", 0},
      {"core.absolute_mc.v1",
       [](RunContext* ctx) -> StatusOr<std::string> {
         // No uncertain diagonal atom: every one of the 200 samples runs.
         StatusOr<AbsoluteReliabilityResult> result =
             AbsoluteReliabilityMonteCarlo(
                 std::move(ParseFormula("exists x . E(x,x)")).value(),
                 Database(), 200, 13, ctx);
         if (!result.ok()) return result.status();
         return "reliable=" + std::to_string(result->absolutely_reliable) +
                " worlds=" + std::to_string(result->worlds_checked) +
                " witness=" + std::to_string(result->witness.has_value());
       },
       "", 40},
      {"datalog.padded.v2", PaddedDatalogRun, "datalog.padded.world:37", 0},
  };
}

// Kinds no current code reads: a run handed one of these snapshots must
// leave it unconsumed (a foreign kind) and equal a fresh run. `run` is the
// retired kind's successor; `fault_spec` and `work_budget` are unused
// (the files were written by the build that still had the kind).
inline std::vector<GoldenCase> RetiredCases() {
  return {
      // Superseded by core.padded.v2 and datalog.padded.v2 when the two
      // Thm 5.12 loops became one world-major estimator.
      {"core.padded.v1", PaddedFirstOrderRun, "", 0},
      {"datalog.padded.v1", PaddedDatalogRun, "", 0},
  };
}

}  // namespace qrel::golden

#endif  // QREL_TESTS_GOLDEN_SNAPSHOT_CASES_H_
