// qrel_cli: query reliability from the command line.
//
//   qrel_cli <database.udb> "<query>" [options]
//
// Options:
//   --analyze          static analysis only: print diagnostics and the
//                      explain plan (class, simplification, cost estimate,
//                      the paper theorem the engine would run) without
//                      executing anything. Lint exit codes: 0 clean (notes
//                      allowed), 1 warnings, 2 errors.
//   --diagnostics-format=<text|json>  how diagnostics (and, with
//                      --analyze, the plan) are printed. JSON gives one
//                      machine-readable path for parse errors and analysis
//                      findings alike.
//   --epsilon=<d>      absolute error target for randomized paths (0.02)
//   --delta=<d>        failure probability (0.02)
//   --seed=<n>         RNG seed (1)
//   --force-exact      always enumerate worlds (Thm 4.2)
//   --force-approx     never enumerate worlds
//   --per-tuple        also print the per-tuple expected-error breakdown,
//                      under the same deadline, work budget and SIGINT
//   --timeout-ms=<n>   wall-clock deadline; past it the engine degrades to
//                      sampling (with --force-exact: fails instead)
//   --max-work=<n>     work-unit budget (worlds/samples/clauses), same
//                      degradation behavior
//   --max-exact-worlds=<n>  raise/lower the exact-enumeration cutoff
//   --no-degrade       fail with the budget error instead of degrading
//   --fault-inject=<site>[:<n>]  arm fault site <site> to fail on its nth
//                      hit (default 1), reproducing an injected failure
//                      deterministically; repeatable. See
//                      util/fault_injection.h for site names.
//   --checkpoint=<path>  crash-safe checkpointing: periodically snapshot
//                      the computation's progress to <path> (atomic
//                      write + rename), and resume from an existing
//                      snapshot there. A killed run re-run with the same
//                      arguments continues where it stopped and prints a
//                      bit-identical report. The snapshot is deleted on
//                      successful completion.
//   --checkpoint-every-ms=<n>  minimum interval between snapshots
//                      (default 1000; 0 = checkpoint at every safe point)
//   --list-fault-sites run a small built-in workload that touches every
//                      layer, then print all registered fault-site names
//                      (the valid --fault-inject targets) and exit.
//
// Exit codes: 0 success, 2 usage, otherwise 10 + StatusCode of the error
// (e.g. 10+kDeadlineExceeded, 10+kCancelled) so scripts can react to
// budget trips specifically.
//
// SIGINT (Ctrl-C) and SIGTERM cancel the run cooperatively instead of
// killing the process: the engine stops at its next safe point, a final
// checkpoint is flushed there when --checkpoint is set (so rerunning the
// same command resumes rather than restarts), and the process exits
// 10 + kCancelled = 18.
//
// Example:
//   qrel_cli crm.udb "exists c . Placed(o, c) & Vip(c)" --per-tuple

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "qrel/core/reliability.h"
#include "qrel/engine/engine.h"
#include "qrel/logic/parser.h"
#include "qrel/metafinite/text_format.h"
#include "qrel/prob/text_format.h"
#include "qrel/propositional/dnf.h"
#include "qrel/propositional/naive_mc.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/run_context.h"
#include "qrel/util/snapshot.h"

namespace {

// SIGINT/SIGTERM → cooperative cancellation of the in-flight run. The
// handler only flips the RunContext's atomic cancel flag (async-signal-
// safe); the engine surfaces kCancelled at its next safe point, and with
// --checkpoint set, CheckpointScope::MaybeCheckpoint flushes a final
// snapshot there — so an interrupted run resumes instead of restarting.
std::atomic<qrel::RunContext*> g_interrupt_context{nullptr};

extern "C" void HandleInterrupt(int /*signum*/) {
  qrel::RunContext* context =
      g_interrupt_context.load(std::memory_order_acquire);
  if (context != nullptr) {
    context->RequestCancellation();
  }
}

bool ParseDoubleFlag(const char* arg, const char* name, double* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  *out = std::atof(arg + len + 1);
  return true;
}

bool ParseUint64Flag(const char* arg, const char* name, uint64_t* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  const char* value = arg + len + 1;
  char* end = nullptr;
  *out = std::strtoull(value, &end, 10);
  if (*value == '\0' || *end != '\0') {
    std::fprintf(stderr, "%s needs a non-negative integer, got \"%s\"\n",
                 name, value);
    std::exit(2);
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: qrel_cli <database.udb> \"<query>\" [--analyze] "
               "[--diagnostics-format=text|json] [--epsilon=E] "
               "[--delta=D] [--seed=N] [--force-exact] [--force-approx] "
               "[--per-tuple] [--timeout-ms=N] [--max-work=N] "
               "[--max-exact-worlds=N] [--no-degrade] "
               "[--fault-inject=SITE[:N]] [--checkpoint=PATH] "
               "[--checkpoint-every-ms=N]\n"
               "       qrel_cli --list-fault-sites\n");
  return 2;
}

// 0 is success and 2 is usage; status-caused exits start at 10 so each
// StatusCode maps to a stable, distinguishable exit code.
int ExitCodeFor(const qrel::Status& status) {
  return 10 + static_cast<int>(status.code());
}

// Prints diagnostics on the chosen format's single output path: one
// ToString() line each (text) or one JSON array (json), both on stdout so
// scripts parse a single stream.
void EmitDiagnostics(const std::vector<qrel::Diagnostic>& diagnostics,
                     bool json) {
  if (json) {
    std::printf("%s\n", qrel::DiagnosticsToJson(diagnostics).c_str());
    return;
  }
  for (const qrel::Diagnostic& diagnostic : diagnostics) {
    std::printf("%s\n", diagnostic.ToString().c_str());
  }
}

// A double as a JSON value; saturated infinities have no JSON spelling and
// become null.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// The --analyze report. Returns the lint exit code: 0 clean, 1 warnings,
// 2 errors.
int EmitPlan(const qrel::EnginePlan& plan, bool json) {
  if (json) {
    std::string out = "{\"diagnostics\":";
    out += qrel::DiagnosticsToJson(plan.diagnostics);
    out += ",\"plan\":{\"class\":\"";
    out += qrel::QueryClassName(plan.query_class);
    out += "\",\"effective_class\":\"";
    out += qrel::QueryClassName(plan.effective_class);
    out += "\",\"static_truth\":\"";
    out += qrel::StaticTruthName(plan.static_truth);
    out += "\",\"simplified\":\"";
    out += qrel::JsonEscapeString(plan.simplified_query);
    out += "\",\"planned_method\":\"";
    out += qrel::JsonEscapeString(plan.planned_method);
    out += "\",\"universe_size\":" + std::to_string(plan.cost.universe_size);
    out += ",\"arity\":" + std::to_string(plan.cost.arity);
    out += ",\"variables\":" + std::to_string(plan.cost.variables);
    out += ",\"answer_space\":" + JsonNumber(plan.cost.answer_space);
    out += ",\"grounding_size\":" + JsonNumber(plan.cost.grounding_size);
    out += ",\"uncertain_atoms\":" +
           std::to_string(plan.cost.uncertain_atoms);
    out += ",\"world_count\":" + JsonNumber(plan.cost.world_count);
    out += "},\"safety\":{\"applicable\":";
    out += plan.safe_plan_applicable ? "true" : "false";
    out += ",\"safe\":";
    out += plan.safe_plan_safe ? "true" : "false";
    if (plan.safe_plan_safe) {
      out += ",\"safe_plan\":\"" + qrel::JsonEscapeString(plan.safe_plan) +
             "\"";
    } else if (plan.safe_plan_applicable) {
      out += ",\"blocker\":\"" +
             qrel::JsonEscapeString(plan.safe_plan_blocker) + "\"";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return qrel::LintExitCode(plan.diagnostics);
  }
  std::printf("class      : %s\n", qrel::QueryClassName(plan.query_class));
  if (plan.effective_class != plan.query_class) {
    std::printf("effective  : %s\n",
                qrel::QueryClassName(plan.effective_class));
  }
  if (!plan.simplified_query.empty()) {
    std::printf("simplified : %s\n", plan.simplified_query.c_str());
  }
  std::printf("static     : %s\n", qrel::StaticTruthName(plan.static_truth));
  std::printf("cost       : universe %d, arity %d (answer space %s), "
              "%d variable(s) (grounding %s), %zu uncertain atom(s) "
              "(%s worlds)\n",
              plan.cost.universe_size, plan.cost.arity,
              JsonNumber(plan.cost.answer_space).c_str(),
              plan.cost.variables,
              JsonNumber(plan.cost.grounding_size).c_str(),
              plan.cost.uncertain_atoms,
              JsonNumber(plan.cost.world_count).c_str());
  if (plan.safe_plan_applicable) {
    if (plan.safe_plan_safe) {
      std::printf("safety     : safe, plan %s\n", plan.safe_plan.c_str());
    } else {
      std::printf("safety     : unsafe (%s)\n",
                  plan.safe_plan_blocker.c_str());
    }
  }
  if (plan.has_errors()) {
    std::printf("plan       : none (static errors)\n");
  } else {
    std::printf("plan       : %s\n", plan.planned_method.c_str());
  }
  if (!plan.diagnostics.empty()) {
    std::printf("diagnostics:\n");
    for (const qrel::Diagnostic& diagnostic : plan.diagnostics) {
      std::printf("  %s\n", diagnostic.ToString().c_str());
    }
  }
  return qrel::LintExitCode(plan.diagnostics);
}

std::string TupleToString(const qrel::Tuple& tuple) {
  std::string result = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i != 0) result += ",";
    result += std::to_string(tuple[i]);
  }
  return result + ")";
}

std::string WriteTempFile(const std::string& stem, const char* text) {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/" +
                     stem + "." + std::to_string(::getpid());
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

// Fault sites register lazily, the first time control reaches them; so to
// enumerate them all, run a small in-memory workload that walks every
// layer — file I/O and parsing, each engine rung (including the budget-
// degraded reserve rungs), the Datalog paths, a direct sampler call and a
// snapshot write/load — then read the registry. All steps are best-effort:
// only their side effect of registering sites matters here.
int ListFaultSites() {
  using namespace qrel;  // NOLINT: localized convenience

  constexpr char kUdbText[] =
      "universe 3\n"
      "relation E 2\n"
      "relation S 1\n"
      "fact E 0 1 err=1/4\n"
      "fact E 1 2 err=1/8\n"
      "fact S 0\n"
      "absent S 1 err=1/3\n";
  constexpr char kMfdbText[] =
      "universe 2\n"
      "function salary 1\n"
      "value salary 0 = 3200\n"
      "dist salary 0 : 3200 @ 9/10, 8200 @ 1/10\n";
  constexpr char kDatalog[] =
      "Path(x, y) :- E(x, y).\n"
      "Path(x, z) :- Path(x, y), E(y, z).";

  std::string udb_path = WriteTempFile("qrel_sites.udb", kUdbText);
  std::string mfdb_path = WriteTempFile("qrel_sites.mfdb", kMfdbText);
  StatusOr<UnreliableDatabase> database = LoadUdbFile(udb_path);
  (void)LoadMfdbFile(mfdb_path);
  (void)ParseMfdb(kMfdbText);
  std::remove(udb_path.c_str());
  std::remove(mfdb_path.c_str());

  {
    Dnf dnf(2);
    dnf.AddTerm({{0, true}, {1, false}});
    std::vector<Rational> probs = {Rational::Half(), Rational::Half()};
    (void)NaiveMcProbability(dnf, probs, 16, /*seed=*/5);
  }

  {
    SnapshotData data;
    data.kind = "cli.site_listing";
    std::string snap_path = WriteTempFile("qrel_sites.snapshot", "");
    (void)WriteSnapshotFile(snap_path, data);
    (void)ReadSnapshotFile(snap_path);
    std::remove(snap_path.c_str());
  }

  if (database.ok()) {
    ReliabilityEngine engine(std::move(database).value());
    EngineOptions defaults;
    defaults.seed = 7;
    (void)engine.Run("S(x)", defaults);
    (void)engine.Run("exists x y . E(x,y) & S(y)", defaults);

    EngineOptions sampled = defaults;
    sampled.force_approximate = true;
    sampled.epsilon = 0.3;
    sampled.delta = 0.3;
    sampled.fixed_samples = 16;
    (void)engine.Run("exists x y . E(x,y) & S(y)", sampled);
    (void)engine.Run("forall x . exists y . E(x,y) | S(x)", sampled);

    (void)engine.RunDatalog(kDatalog, "Path", defaults);
    (void)engine.RunDatalog(kDatalog, "Path", sampled);

    // The --per-tuple breakdown and the exact probability of one tuple.
    StatusOr<FormulaPtr> per_tuple = ParseFormula("exists y . E(x,y) & S(y)");
    if (per_tuple.ok()) {
      (void)PerTupleExpectedError(*per_tuple, engine.database());
      (void)ExactQueryProbability(*per_tuple, engine.database(), {0});
    }

    // Trip a one-unit work budget mid-rung so the engine walks down to the
    // reserve rungs, which only register when actually reached.
    EngineOptions starved = sampled;
    RunContext budgeted = RunContext::WithWorkBudget(1);
    starved.run_context = &budgeted;
    (void)engine.Run("forall x . exists y . E(x,y) | S(x)", starved);
    RunContext datalog_budgeted = RunContext::WithWorkBudget(1);
    starved.run_context = &datalog_budgeted;
    (void)engine.RunDatalog(kDatalog, "Path", starved);
  }

  std::vector<std::string> sites = FaultInjector::Instance().SiteNames();
  std::sort(sites.begin(), sites.end());
  for (const std::string& site : sites) {
    std::printf("%s\n", site.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-fault-sites") == 0) {
    return ListFaultSites();
  }
  if (argc < 3) {
    return Usage();
  }
  const char* path = argv[1];
  const char* query = argv[2];
  qrel::EngineOptions options;
  bool per_tuple = false;
  bool analyze_only = false;
  bool json_diagnostics = false;
  uint64_t timeout_ms = 0;
  uint64_t max_work = 0;
  bool has_timeout = false;
  bool has_max_work = false;
  std::string checkpoint_path;
  uint64_t checkpoint_every_ms = 1000;
  for (int i = 3; i < argc; ++i) {
    if (ParseDoubleFlag(argv[i], "--epsilon", &options.epsilon) ||
        ParseDoubleFlag(argv[i], "--delta", &options.delta) ||
        ParseUint64Flag(argv[i], "--seed", &options.seed)) {
      continue;
    }
    if (ParseUint64Flag(argv[i], "--timeout-ms", &timeout_ms)) {
      has_timeout = true;
    } else if (ParseUint64Flag(argv[i], "--max-work", &max_work)) {
      has_max_work = true;
    } else if (ParseUint64Flag(argv[i], "--max-exact-worlds",
                               &options.max_exact_worlds) ||
               ParseUint64Flag(argv[i], "--checkpoint-every-ms",
                               &checkpoint_every_ms)) {
      continue;
    } else if (std::strncmp(argv[i], "--checkpoint=", 13) == 0) {
      checkpoint_path = argv[i] + 13;
      if (checkpoint_path.empty()) {
        std::fprintf(stderr, "--checkpoint needs a file path\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--fault-inject=", 15) == 0) {
      qrel::Status armed = qrel::ArmFaultFromSpec(argv[i] + 15);
      if (!armed.ok()) {
        std::fprintf(stderr, "--fault-inject: %s\n",
                     armed.ToString().c_str());
        return 2;
      }
    } else if (std::strncmp(argv[i], "--diagnostics-format=", 21) == 0) {
      const char* format = argv[i] + 21;
      if (std::strcmp(format, "json") == 0) {
        json_diagnostics = true;
      } else if (std::strcmp(format, "text") == 0) {
        json_diagnostics = false;
      } else {
        std::fprintf(stderr,
                     "--diagnostics-format must be text or json, got "
                     "\"%s\"\n",
                     format);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--analyze") == 0) {
      analyze_only = true;
    } else if (std::strcmp(argv[i], "--no-degrade") == 0) {
      options.degrade_on_budget = false;
    } else if (std::strcmp(argv[i], "--force-exact") == 0) {
      options.force_exact = true;
    } else if (std::strcmp(argv[i], "--force-approx") == 0) {
      options.force_approximate = true;
    } else if (std::strcmp(argv[i], "--per-tuple") == 0) {
      per_tuple = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return Usage();
    }
  }

  qrel::RunContext run_context;
  if (has_timeout) {
    run_context.SetDeadline(std::chrono::milliseconds(timeout_ms));
  }
  if (has_max_work) {
    run_context.SetWorkBudget(max_work);
  }
  std::optional<qrel::Checkpointer> checkpointer;
  if (!checkpoint_path.empty()) {
    checkpointer.emplace(checkpoint_path,
                         std::chrono::milliseconds(checkpoint_every_ms));
    qrel::Status loaded = checkpointer->LoadForResume();
    if (!loaded.ok()) {
      // A corrupt snapshot is an error, not a silent restart from zero;
      // the user can delete the file to start over deliberately.
      std::fprintf(stderr, "checkpoint %s: %s\n", checkpoint_path.c_str(),
                   loaded.ToString().c_str());
      return ExitCodeFor(loaded);
    }
    run_context.SetCheckpointer(&*checkpointer);
  }
  // The run context is always attached so Ctrl-C cancels cooperatively
  // (exit 10+kCancelled = 18) instead of killing the process mid-write;
  // the budget report below stays gated on an explicit envelope.
  bool governed = has_timeout || has_max_work;
  options.run_context = &run_context;
  g_interrupt_context.store(&run_context, std::memory_order_release);
  std::signal(SIGINT, HandleInterrupt);
  std::signal(SIGTERM, HandleInterrupt);

  qrel::StatusOr<qrel::UnreliableDatabase> database =
      qrel::LoadUdbFile(path);
  if (!database.ok()) {
    std::fprintf(stderr, "%s: %s\n", path,
                 database.status().ToString().c_str());
    return ExitCodeFor(database.status());
  }
  // JSON diagnostics keep stdout a single machine-readable stream, so the
  // banner is suppressed.
  if (!json_diagnostics) {
    std::printf("database   : %s (universe %d, %zu facts, %zu unreliable "
                "atoms)\n",
                path, database->universe_size(),
                database->observed().FactCount(),
                static_cast<size_t>(database->model().entry_count()));
  }

  qrel::ReliabilityEngine engine(std::move(database).value());

  // Parse with the diagnostic-producing overload: a syntax error reaches
  // the same structured output path as every analyzer finding.
  qrel::Diagnostic syntax_error;
  qrel::StatusOr<qrel::FormulaPtr> formula =
      qrel::ParseFormula(query, &syntax_error);
  if (!formula.ok()) {
    EmitDiagnostics({syntax_error}, json_diagnostics);
    if (analyze_only) {
      return 2;  // lint convention: any error exits 2
    }
    std::fprintf(stderr, "query error: %s\n",
                 formula.status().ToString().c_str());
    return ExitCodeFor(formula.status());
  }

  qrel::EnginePlan plan = engine.Explain(*formula, options);
  if (analyze_only) {
    if (!json_diagnostics) {
      std::printf("query      : %s\n", query);
    }
    return EmitPlan(plan, json_diagnostics);
  }
  if (plan.has_errors()) {
    EmitDiagnostics(plan.diagnostics, json_diagnostics);
    qrel::Status failed = qrel::Status::InvalidArgument(
        qrel::FirstErrorMessage(plan.diagnostics));
    std::fprintf(stderr, "query error: %s\n", failed.ToString().c_str());
    return ExitCodeFor(failed);
  }

  qrel::StatusOr<qrel::EngineReport> report = engine.Run(*formula, options);
  if (!report.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 report.status().ToString().c_str());
    // On interruption the snapshot is deliberately left in place: the
    // cancellation path above flushed the final safe point, and a rerun
    // with the same arguments resumes from it.
    if (report.status().code() == qrel::StatusCode::kCancelled &&
        checkpointer.has_value() && checkpointer->writes() > 0) {
      std::fprintf(stderr,
                   "interrupted: %llu snapshot(s) flushed to %s; rerun "
                   "with the same arguments to resume\n",
                   static_cast<unsigned long long>(checkpointer->writes()),
                   checkpoint_path.c_str());
    }
    return ExitCodeFor(report.status());
  }

  std::printf("query      : %s\n", query);
  std::printf("class      : %s\n", qrel::QueryClassName(report->query_class));
  if (report->observed_answers.has_value()) {
    std::printf("observed   : %zu answer tuple(s)\n",
                report->observed_answers->size());
  }
  if (report->exact_reliability.has_value()) {
    std::printf("reliability: %s (= %.6f, exact)\n",
                report->exact_reliability->ToString().c_str(),
                report->reliability);
  } else {
    double error_bar = report->achieved_epsilon.value_or(options.epsilon);
    std::printf("reliability: %.6f +- %.4f (confidence %.2f, %llu samples)\n",
                report->reliability, error_bar, 1.0 - options.delta,
                static_cast<unsigned long long>(report->samples));
  }
  std::printf("H (exp.err): %.6f\n", report->expected_error);
  std::printf("method     : %s\n", report->method.c_str());
  if (report->degraded) {
    std::printf("degraded   : %s\n", report->degradation_reason.c_str());
  }
  if (report->partial) {
    std::printf("partial    : estimate from fewer samples than the (eps, "
                "delta) plan\n");
  }
  if (governed || checkpointer.has_value()) {
    std::printf("budget     : %llu work unit(s) spent\n",
                static_cast<unsigned long long>(report->budget_spent));
  }
  if (checkpointer.has_value()) {
    if (checkpointer->has_resume() && !checkpointer->resume_consumed()) {
      std::fprintf(stderr,
                   "warning: snapshot %s (kind %s) was not used by this "
                   "run's algorithm; it was left untouched\n",
                   checkpoint_path.c_str(),
                   checkpointer->resume_kind().c_str());
    } else {
      std::printf("checkpoint : %llu snapshot(s) written%s\n",
                  static_cast<unsigned long long>(checkpointer->writes()),
                  checkpointer->resume_consumed() ? ", resumed" : "");
      // The computation finished; the snapshot has served its purpose.
      std::remove(checkpoint_path.c_str());
    }
  }

  if (per_tuple) {
    qrel::StatusOr<qrel::FormulaPtr> formula = qrel::ParseFormula(query);
    qrel::StatusOr<std::vector<qrel::TupleError>> breakdown =
        qrel::PerTupleExpectedError(*formula, engine.database(),
                                    &run_context);
    if (!breakdown.ok()) {
      std::fprintf(stderr, "per-tuple: %s\n",
                   breakdown.status().ToString().c_str());
      return ExitCodeFor(breakdown.status());
    }
    std::printf("\nper-tuple breakdown (non-zero rows):\n");
    std::printf("  %-14s %-9s %s\n", "tuple", "observed", "Pr[wrong]");
    for (const qrel::TupleError& row : *breakdown) {
      if (row.error.IsZero()) {
        continue;
      }
      std::printf("  %-14s %-9s %s (= %.6f)\n",
                  TupleToString(row.tuple).c_str(),
                  row.observed ? "in" : "out", row.error.ToString().c_str(),
                  row.error.ToDouble());
    }
  }
  return 0;
}
