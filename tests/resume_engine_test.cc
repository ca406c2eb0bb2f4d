// Crash-recovery suite: for every algorithm family, kill a checkpointed
// run at a mid-loop fault site (or a tripped work budget), resume from the
// snapshot on disk, and assert the resumed run's report is bit-identical
// to an uninterrupted run — same estimate, same sample count, same work
// counter. Also the refusal paths: a parameter change or a corrupt
// snapshot must fail typed, never silently restart from zero.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/core/absolute.h"
#include "qrel/datalog/eval.h"
#include "qrel/datalog/program.h"
#include "qrel/datalog/reliability.h"
#include "qrel/engine/engine.h"
#include "qrel/logic/parser.h"
#include "qrel/prob/text_format.h"
#include "qrel/propositional/dnf.h"
#include "qrel/propositional/exact.h"
#include "qrel/propositional/karp_luby.h"
#include "qrel/propositional/naive_mc.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/snapshot.h"
#include "temp_path.h"

namespace qrel {
namespace {

constexpr char kUdbText[] = R"(
universe 3
relation E 2
relation S 1
fact E 0 1 err=1/4
fact E 1 2 err=1/8
fact S 0
absent S 1 err=1/3
absent E 2 0 err=1/5
)";

constexpr char kDatalogProgram[] =
    "Path(x, y) :- E(x, y).\n"
    "Path(x, z) :- Path(x, y), E(y, z).";

UnreliableDatabase MakeDatabase() {
  StatusOr<UnreliableDatabase> database = ParseUdb(kUdbText);
  EXPECT_TRUE(database.ok()) << database.status().ToString();
  return std::move(database).value();
}

std::string SnapshotPath(const std::string& name) {
  std::string path = TestTempPath(name);
  std::remove(path.c_str());  // no stale state from an earlier test run
  return path;
}

// Field-by-field exact comparison; doubles compare bit-for-bit (EXPECT_EQ
// on doubles is exact equality, which is the whole point of the suite).
void ExpectIdenticalReports(const EngineReport& resumed,
                            const EngineReport& baseline) {
  EXPECT_EQ(resumed.method, baseline.method);
  EXPECT_EQ(resumed.is_exact, baseline.is_exact);
  EXPECT_EQ(resumed.reliability, baseline.reliability);
  EXPECT_EQ(resumed.expected_error, baseline.expected_error);
  EXPECT_EQ(resumed.samples, baseline.samples);
  EXPECT_EQ(resumed.budget_spent, baseline.budget_spent);
  EXPECT_EQ(resumed.degraded, baseline.degraded);
  EXPECT_EQ(resumed.partial, baseline.partial);
  ASSERT_EQ(resumed.exact_reliability.has_value(),
            baseline.exact_reliability.has_value());
  if (baseline.exact_reliability.has_value()) {
    EXPECT_EQ(*resumed.exact_reliability, *baseline.exact_reliability);
  }
}

class ResumeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// Kill-and-resume for an engine query: baseline (no checkpointer), then a
// checkpointed run killed by `fault_spec`, then a resumed run; the resumed
// report must match the baseline exactly.
void RunEngineKillResume(const std::string& query, const EngineOptions& base,
                         const std::string& fault_spec,
                         const std::string& snapshot_name,
                         bool datalog = false) {
  ReliabilityEngine engine(MakeDatabase());
  auto run = [&](RunContext* ctx) {
    EngineOptions options = base;
    options.run_context = ctx;
    return datalog ? engine.RunDatalog(kDatalogProgram, query, options)
                   : engine.Run(query, options);
  };

  RunContext baseline_ctx;
  StatusOr<EngineReport> baseline = run(&baseline_ctx);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string path = SnapshotPath(snapshot_name);
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(ArmFaultFromSpec(fault_spec).ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<EngineReport> killed = run(&ctx);
    ASSERT_FALSE(killed.ok()) << fault_spec << " did not interrupt the run";
    EXPECT_GT(checkpointer.writes(), 0u)
        << "no checkpoint was written before the fault at " << fault_spec;
    FaultInjector::Instance().Reset();
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(checkpointer.has_resume());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<EngineReport> resumed = run(&ctx);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(checkpointer.resume_consumed())
        << "the resumed run ignored the snapshot and restarted from zero";
    ExpectIdenticalReports(*resumed, *baseline);
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, ExactEnumerationResumesBitIdentical) {
  EngineOptions options;
  options.seed = 7;
  RunEngineKillResume("exists x y . E(x,y) & S(y) & S(x)", options,
                      "core.exact.world:5", "resume_exact.snapshot");
}

TEST_F(ResumeEngineTest, KarpLubyRungResumesBitIdentical) {
  EngineOptions options;
  options.seed = 7;
  options.force_approximate = true;
  options.epsilon = 0.3;
  options.delta = 0.3;
  options.fixed_samples = 64;
  RunEngineKillResume("exists x y . E(x,y) & S(y)", options,
                      "propositional.karp_luby.sample:20",
                      "resume_karp_luby.snapshot");
}

TEST_F(ResumeEngineTest, TupleLoopResumesBitIdentical) {
  // Open formula of arity 2: nine per-tuple sub-estimates under the
  // Cor 5.5 rung; the fault lands between tuples.
  EngineOptions options;
  options.seed = 7;
  options.force_approximate = true;
  options.epsilon = 0.3;
  options.delta = 0.3;
  options.fixed_samples = 16;
  RunEngineKillResume("E(x,y) & S(y)", options, "core.approx.tuple:5",
                      "resume_tuple.snapshot");
}

TEST_F(ResumeEngineTest, PaddedEstimatorResumesBitIdentical) {
  EngineOptions options;
  options.seed = 7;
  options.force_approximate = true;
  options.epsilon = 0.3;
  options.delta = 0.3;
  options.fixed_samples = 64;
  RunEngineKillResume("forall x . exists y . E(x,y) | S(x)", options,
                      "core.approx.padded_sample:7",
                      "resume_padded.snapshot");
}

TEST_F(ResumeEngineTest, DatalogExactResumesBitIdentical) {
  EngineOptions options;
  options.seed = 7;
  RunEngineKillResume("Path", options, "datalog.exact.world:3",
                      "resume_datalog_exact.snapshot", /*datalog=*/true);
}

TEST_F(ResumeEngineTest, DatalogPaddedResumesBitIdentical) {
  EngineOptions options;
  options.seed = 7;
  options.force_approximate = true;
  options.epsilon = 0.3;
  options.delta = 0.3;
  options.fixed_samples = 64;
  RunEngineKillResume("Path", options, "datalog.padded.world:5",
                      "resume_datalog_padded.snapshot", /*datalog=*/true);
}

// --- Direct algorithm-level kill/resume ------------------------------------

Dnf MakeTestDnf() {
  Dnf dnf(10);
  dnf.AddTerm({{0, true}, {1, false}});
  dnf.AddTerm({{2, true}, {3, true}, {4, false}});
  dnf.AddTerm({{5, false}, {9, true}});
  return dnf;
}

std::vector<Rational> UniformHalf(int variables) {
  return std::vector<Rational>(static_cast<size_t>(variables),
                               Rational::Half());
}

TEST_F(ResumeEngineTest, KarpLubyLoopResumesMidSample) {
  // Direct sampler call, so the Karp-Luby scope itself (not the Cor 5.5
  // tuple loop above it) owns the checkpoints and resumes mid-stream.
  Dnf dnf = MakeTestDnf();
  std::vector<Rational> probs = UniformHalf(10);
  KarpLubyOptions options;
  options.seed = 11;
  options.fixed_samples = 64;

  RunContext baseline_ctx;
  options.run_context = &baseline_ctx;
  StatusOr<KarpLubyResult> baseline = KarpLubyProbability(dnf, probs, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string path = SnapshotPath("resume_kl_direct.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(ArmFaultFromSpec("propositional.karp_luby.sample:20").ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    ASSERT_FALSE(KarpLubyProbability(dnf, probs, options).ok());
    EXPECT_GT(checkpointer.writes(), 0u);
    FaultInjector::Instance().Reset();
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    StatusOr<KarpLubyResult> resumed = KarpLubyProbability(dnf, probs, options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(checkpointer.resume_consumed());
    EXPECT_EQ(resumed->estimate, baseline->estimate);
    EXPECT_EQ(resumed->samples, baseline->samples);
    EXPECT_EQ(resumed->total_term_weight, baseline->total_term_weight);
    EXPECT_EQ(ctx.work_spent(), baseline_ctx.work_spent());
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, NaiveMcLoopResumesMidSample) {
  Dnf dnf = MakeTestDnf();
  std::vector<Rational> probs = UniformHalf(10);

  RunContext baseline_ctx;
  StatusOr<NaiveMcResult> baseline =
      NaiveMcProbability(dnf, probs, 64, /*seed=*/5, &baseline_ctx);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string path = SnapshotPath("resume_naive_mc.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(ArmFaultFromSpec("propositional.naive_mc.sample:20").ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    ASSERT_FALSE(NaiveMcProbability(dnf, probs, 64, 5, &ctx).ok());
    EXPECT_GT(checkpointer.writes(), 0u);
    FaultInjector::Instance().Reset();
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<NaiveMcResult> resumed =
        NaiveMcProbability(dnf, probs, 64, 5, &ctx);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(checkpointer.resume_consumed());
    EXPECT_EQ(resumed->estimate, baseline->estimate);
    EXPECT_EQ(resumed->hits, baseline->hits);
    EXPECT_EQ(resumed->samples, baseline->samples);
    EXPECT_EQ(ctx.work_spent(), baseline_ctx.work_spent());
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, BruteForceEnumerationResumesAfterBudgetTrip) {
  // 2^10 assignments; a 100-unit budget trips mid-enumeration. The resumed
  // run (unlimited budget) must land on the exact rational value, with the
  // total work equal to an uninterrupted governed run's.
  Dnf dnf = MakeTestDnf();
  std::vector<Rational> probs = UniformHalf(10);

  RunContext baseline_ctx;
  StatusOr<Rational> baseline =
      BruteForceDnfProbability(dnf, probs, &baseline_ctx);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string path = SnapshotPath("resume_brute_force.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx = RunContext::WithWorkBudget(100);
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<Rational> killed = BruteForceDnfProbability(dnf, probs, &ctx);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_GT(checkpointer.writes(), 0u);
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<Rational> resumed = BruteForceDnfProbability(dnf, probs, &ctx);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(checkpointer.resume_consumed());
    EXPECT_EQ(*resumed, *baseline);
    EXPECT_EQ(ctx.work_spent(), baseline_ctx.work_spent());
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, BudgetTripFlushesAFinalCheckpointDespiteLongInterval) {
  // With a 24h checkpoint interval, no interval-gated write can ever fire
  // inside this test; the only snapshot comes from the forced flush when
  // the work budget is about to trip. That flush is what qrel_cli's SIGINT
  // handler and the server's drain checkpoint-abort depend on: without it
  // an interrupted long-interval run would lose all progress.
  Dnf dnf = MakeTestDnf();
  std::vector<Rational> probs = UniformHalf(10);

  RunContext baseline_ctx;
  StatusOr<Rational> baseline =
      BruteForceDnfProbability(dnf, probs, &baseline_ctx);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string path = SnapshotPath("resume_long_interval.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::hours(24));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx = RunContext::WithWorkBudget(100);
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<Rational> killed = BruteForceDnfProbability(dnf, probs, &ctx);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(checkpointer.writes(), 1u)
        << "expected exactly the forced pre-trip flush";
  }
  {
    Checkpointer checkpointer(path, std::chrono::hours(24));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(checkpointer.has_resume());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<Rational> resumed = BruteForceDnfProbability(dnf, probs, &ctx);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(checkpointer.resume_consumed());
    EXPECT_EQ(*resumed, *baseline);
    EXPECT_EQ(ctx.work_spent(), baseline_ctx.work_spent());
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, AbsoluteMonteCarloResumesAfterBudgetTrip) {
  UnreliableDatabase db = MakeDatabase();
  // No uncertain diagonal atom exists, so no sampled world can flip the
  // answer: the falsifier always runs its full 200 samples.
  StatusOr<FormulaPtr> query = ParseFormula("exists x . E(x,x)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  RunContext baseline_ctx;
  StatusOr<AbsoluteReliabilityResult> baseline = AbsoluteReliabilityMonteCarlo(
      *query, db, /*samples=*/200, /*seed=*/13, &baseline_ctx);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string path = SnapshotPath("resume_absolute_mc.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx = RunContext::WithWorkBudget(40);
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<AbsoluteReliabilityResult> killed =
        AbsoluteReliabilityMonteCarlo(*query, db, 200, 13, &ctx);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_GT(checkpointer.writes(), 0u);
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<AbsoluteReliabilityResult> resumed =
        AbsoluteReliabilityMonteCarlo(*query, db, 200, 13, &ctx);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(checkpointer.resume_consumed());
    EXPECT_EQ(resumed->absolutely_reliable, baseline->absolutely_reliable);
    EXPECT_EQ(resumed->worlds_checked, baseline->worlds_checked);
    EXPECT_EQ(resumed->witness.has_value(), baseline->witness.has_value());
    EXPECT_EQ(ctx.work_spent(), baseline_ctx.work_spent());
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, DatalogFixpointResumesMidRound) {
  // Direct fixpoint evaluation, so the fixpoint scope itself owns the
  // checkpoints (inside the engine a world loop claims first).
  UnreliableDatabase db = MakeDatabase();
  StatusOr<DatalogProgram> program = ParseDatalogProgram(kDatalogProgram);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  StatusOr<CompiledDatalog> compiled =
      CompiledDatalog::Compile(std::move(program).value(), db.vocabulary());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  StatusOr<DatalogResult> baseline = compiled->Eval(db.observed(), nullptr);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string path = SnapshotPath("resume_fixpoint.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(ArmFaultFromSpec("datalog.fixpoint.round:2").ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    ASSERT_FALSE(compiled->Eval(db.observed(), &ctx).ok());
    EXPECT_GT(checkpointer.writes(), 0u);
    FaultInjector::Instance().Reset();
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<DatalogResult> resumed = compiled->Eval(db.observed(), &ctx);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(checkpointer.resume_consumed());
    EXPECT_EQ(*resumed, *baseline);
  }
  std::remove(path.c_str());
}

// --- Refusal paths ----------------------------------------------------------

TEST_F(ResumeEngineTest, ChangedSeedRefusesToResume) {
  ReliabilityEngine engine(MakeDatabase());
  EngineOptions options;
  options.seed = 7;
  options.force_approximate = true;
  options.epsilon = 0.3;
  options.delta = 0.3;
  options.fixed_samples = 64;
  const std::string query = "exists x y . E(x,y) & S(y)";

  std::string path = SnapshotPath("resume_changed_seed.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(ArmFaultFromSpec("propositional.karp_luby.sample:20").ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    ASSERT_FALSE(engine.Run(query, options).ok());
    FaultInjector::Instance().Reset();
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    options.seed = 8;  // same algorithm, different RNG stream
    StatusOr<EngineReport> resumed = engine.Run(query, options);
    ASSERT_FALSE(resumed.ok())
        << "resumed with a different seed instead of refusing";
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, ChangedSamplePlanRefusesToResume) {
  // Two runs that differ only in ε and δ, so only in the sample count the
  // Thm 5.12 estimator derives from them. A snapshot taken past the end of
  // the smaller plan must be refused as another run's, not misread as a
  // corrupt loop index (DataLoss) or, below that end, silently continued.
  UnreliableDatabase db = MakeDatabase();
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(
                    std::move(ParseDatalogProgram("Q() :- E(x, y), S(y)."))
                        .value(),
                    db.vocabulary()))
          .value();
  ApproxOptions options;
  options.seed = 7;
  options.epsilon = 0.2;
  options.delta = 0.2;
  const double small_epsilon = 0.95;
  const double small_delta = 0.95;
  // A Boolean predicate: one tuple, so no per-tuple split.
  const uint64_t small_plan =
      PaddedSampleBound(options.xi, small_epsilon / 2.0, small_delta);
  ASSERT_LT(small_plan, 19u);
  ASSERT_GT(PaddedSampleBound(options.xi, options.epsilon / 2.0,
                              options.delta),
            20u);

  std::string path = SnapshotPath("resume_changed_plan.snapshot");
  {
    // The 20th sample faults, after the snapshot that resumes at sample
    // index 19, past the smaller plan's end.
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(ArmFaultFromSpec("datalog.padded.world:20").ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    ASSERT_FALSE(PaddedDatalogReliability(program, "Q", db, options).ok());
    EXPECT_GT(checkpointer.writes(), 0u);
    FaultInjector::Instance().Reset();
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    options.epsilon = small_epsilon;
    options.delta = small_delta;
    StatusOr<ApproxResult> resumed =
        PaddedDatalogReliability(program, "Q", db, options);
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
        << resumed.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, ChangedProbabilityRefusesToResume) {
  // Same universe, same relations, same five error entries — only one
  // probability differs (1/4 -> 1/3). The instance *shape* is identical,
  // so only a content-aware fingerprint can catch it.
  constexpr char kEditedUdbText[] = R"(
universe 3
relation E 2
relation S 1
fact E 0 1 err=1/3
fact E 1 2 err=1/8
fact S 0
absent S 1 err=1/3
absent E 2 0 err=1/5
)";
  EngineOptions options;
  options.seed = 7;
  options.force_approximate = true;
  options.epsilon = 0.3;
  options.delta = 0.3;
  options.fixed_samples = 64;
  const std::string query = "exists x y . E(x,y) & S(y)";

  std::string path = SnapshotPath("resume_changed_prob.snapshot");
  {
    ReliabilityEngine engine(MakeDatabase());
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(ArmFaultFromSpec("propositional.karp_luby.sample:20").ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    ASSERT_FALSE(engine.Run(query, options).ok());
    FaultInjector::Instance().Reset();
  }
  {
    StatusOr<UnreliableDatabase> edited = ParseUdb(kEditedUdbText);
    ASSERT_TRUE(edited.ok()) << edited.status().ToString();
    ReliabilityEngine engine(std::move(edited).value());
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    StatusOr<EngineReport> resumed = engine.Run(query, options);
    ASSERT_FALSE(resumed.ok())
        << "resumed under an edited probability instead of refusing";
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, ChangedQueryRefusesToResume) {
  // E(y,x) instead of E(x,y): same operators, same relation arities, same
  // grounded DNF shape — a different query all the same.
  ReliabilityEngine engine(MakeDatabase());
  EngineOptions options;
  options.seed = 7;
  options.force_approximate = true;
  options.epsilon = 0.3;
  options.delta = 0.3;
  options.fixed_samples = 64;

  std::string path = SnapshotPath("resume_changed_query.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(ArmFaultFromSpec("propositional.karp_luby.sample:20").ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    ASSERT_FALSE(engine.Run("exists x y . E(x,y) & S(y)", options).ok());
    FaultInjector::Instance().Reset();
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    StatusOr<EngineReport> resumed =
        engine.Run("exists x y . E(y,x) & S(y)", options);
    ASSERT_FALSE(resumed.ok())
        << "resumed under a different query instead of refusing";
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, ChangedDatalogProgramRefusesToResume) {
  // Reversed edge in the recursive rule: same rule count, same arities,
  // same strata — a different program.
  ReliabilityEngine engine(MakeDatabase());
  EngineOptions options;
  options.seed = 7;

  std::string path = SnapshotPath("resume_changed_program.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(ArmFaultFromSpec("datalog.exact.world:3").ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    ASSERT_FALSE(engine.RunDatalog(kDatalogProgram, "Path", options).ok());
    FaultInjector::Instance().Reset();
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    options.run_context = &ctx;
    StatusOr<EngineReport> resumed = engine.RunDatalog(
        "Path(x, y) :- E(x, y).\nPath(x, z) :- Path(x, y), E(z, y).", "Path",
        options);
    ASSERT_FALSE(resumed.ok())
        << "resumed under an edited program instead of refusing";
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

// Forges a datalog.fixpoint snapshot whose container is pristine (valid
// checksum, the killed run's own kind and fingerprint) but whose IDB
// payload holds one bad tuple. The resume must degrade to kDataLoss —
// never index the tuple (UB).
void RunTamperedFixpointResume(const Tuple& forged_tuple,
                               const std::string& snapshot_name) {
  UnreliableDatabase db = MakeDatabase();
  StatusOr<DatalogProgram> program = ParseDatalogProgram(kDatalogProgram);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  StatusOr<CompiledDatalog> compiled =
      CompiledDatalog::Compile(std::move(program).value(), db.vocabulary());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  std::string path = SnapshotPath(snapshot_name);
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    ASSERT_TRUE(ArmFaultFromSpec("datalog.fixpoint.round:2").ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    ASSERT_FALSE(compiled->Eval(db.observed(), &ctx).ok());
    EXPECT_GT(checkpointer.writes(), 0u);
    FaultInjector::Instance().Reset();
  }
  {
    StatusOr<SnapshotData> genuine = ReadSnapshotFile(path);
    ASSERT_TRUE(genuine.ok()) << genuine.status().ToString();
    SnapshotData forged = std::move(genuine).value();  // keeps kind + fp
    SnapshotWriter w;
    w.U32(0);  // stratum
    w.U8(0);   // not mid-round
    w.U32(1);  // one predicate
    w.String("Path");
    w.U32(1);  // one tuple
    w.TupleVal(forged_tuple);
    forged.payload = w.TakeBytes();
    ASSERT_TRUE(WriteSnapshotFile(path, forged).ok());
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    StatusOr<DatalogResult> resumed = compiled->Eval(db.observed(), &ctx);
    ASSERT_FALSE(resumed.ok()) << "restored a forged IDB tuple";
    EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
  }
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, TamperedIdbShortTupleFailsTyped) {
  // Path has arity 2; a 1-element tuple would make BodySatisfied read
  // candidate[1] out of bounds.
  RunTamperedFixpointResume(Tuple{0}, "resume_tampered_arity.snapshot");
}

TEST_F(ResumeEngineTest, TamperedIdbOutOfRangeElementFailsTyped) {
  // Universe is {0, 1, 2}; element 99 indexes past every bound downstream.
  RunTamperedFixpointResume(Tuple{0, 99}, "resume_tampered_range.snapshot");
}

TEST_F(ResumeEngineTest, ForeignSnapshotIsLeftUntouched) {
  // A snapshot belonging to a sampling run must not disturb (or be
  // disturbed by) an exact run: it stays on disk, unconsumed.
  ReliabilityEngine engine(MakeDatabase());

  std::string path = SnapshotPath("resume_foreign.snapshot");
  SnapshotData foreign;
  foreign.kind = "propositional.karp_luby.v1";
  foreign.fingerprint = 12345;
  foreign.work_spent = 99;
  ASSERT_TRUE(WriteSnapshotFile(path, foreign).ok());

  Checkpointer checkpointer(path, std::chrono::milliseconds(0));
  ASSERT_TRUE(checkpointer.LoadForResume().ok());
  RunContext ctx;
  ctx.SetCheckpointer(&checkpointer);
  EngineOptions options;
  options.seed = 7;
  options.run_context = &ctx;
  StatusOr<EngineReport> report =
      engine.Run("exists x y . E(x,y) & S(y)", options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(checkpointer.resume_consumed());
  // The run went to completion from scratch, ignoring the foreign state.
  EXPECT_EQ(ctx.work_spent(), report->budget_spent);
  std::remove(path.c_str());
}

TEST_F(ResumeEngineTest, CorruptSnapshotFailsResumeLoudly) {
  std::string path = SnapshotPath("resume_corrupt.snapshot");
  SnapshotData data;
  data.kind = "core.exact.v1";
  ASSERT_TRUE(WriteSnapshotFile(path, data).ok());
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(20);
    file.put('\x7f');
  }
  Checkpointer checkpointer(path, std::chrono::milliseconds(0));
  Status loaded = checkpointer.LoadForResume();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qrel
