// Chaos suite: for every registered fault site, inject a failure into a
// representative full-pipeline workload and assert the contract from
// DESIGN.md "Fault injection and hardening":
//   1. the failure surfaces as a typed non-OK Status (or a report that is
//      explicitly flagged degraded/partial) — never a crash or a silently
//      different answer, and
//   2. a subsequent un-faulted run of the same engine state reproduces the
//      baseline answer exactly.
// Sites register on first execution, so the suite discovers the site list
// by running one clean pass of the workload before arming anything. The
// whole file runs under QREL_SANITIZE in the sanitizer build.

#include <cstdio>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/engine/engine.h"
#include "qrel/metafinite/text_format.h"
#include "qrel/prob/text_format.h"
#include "qrel/propositional/dnf.h"
#include "qrel/propositional/naive_mc.h"
#include "qrel/util/fault_injection.h"
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

constexpr char kMfdbText[] = R"(
universe 2
function salary 1
value salary 0 = 3200
dist salary 0 : 3200 @ 9/10, 8200 @ 1/10
)";

constexpr char kDatalogProgram[] =
    "Path(x, y) :- E(x, y).\n"
    "Path(x, z) :- Path(x, y), E(y, z).";

// One workload step's result, reduced to what the chaos contract needs:
// did it succeed, was any weakening flagged, and a full value signature
// for exact baseline comparison.
struct Outcome {
  std::string label;
  bool ok = false;
  bool flagged = false;  // degraded or partial — an honestly weakened answer
  std::string signature;
};

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

Outcome EngineOutcome(const std::string& label,
                      const StatusOr<EngineReport>& report) {
  Outcome outcome;
  outcome.label = label;
  outcome.ok = report.ok();
  if (!report.ok()) {
    outcome.signature = report.status().ToString();
    return outcome;
  }
  outcome.flagged = report->degraded || report->partial;
  outcome.signature = report->method + " r=" +
                      FormatDouble(report->reliability) +
                      " degraded=" + (report->degraded ? "1" : "0") +
                      " partial=" + (report->partial ? "1" : "0");
  return outcome;
}

Outcome StatusOutcome(const std::string& label, const Status& status,
                      const std::string& ok_signature) {
  Outcome outcome;
  outcome.label = label;
  outcome.ok = status.ok();
  outcome.signature = status.ok() ? ok_signature : status.ToString();
  return outcome;
}

// Representative pass over the whole pipeline: .udb and .mfdb I/O and
// parsing, every engine rung (quantifier-free, exact enumeration,
// Cor 5.5 grounding + Karp-Luby, Thm 5.12 padded), the Datalog exact and
// padded paths, and a direct naive-MC call. Every label is present in the
// result regardless of which steps fail, and all randomized paths are
// seeded, so two clean runs produce identical signatures.
std::vector<Outcome> RunWorkload() {
  std::vector<Outcome> outcomes;

  std::string udb_path = WriteTestTempFile("chaos_engine.udb", kUdbText);
  StatusOr<UnreliableDatabase> database = LoadUdbFile(udb_path);
  outcomes.push_back(
      StatusOutcome("load_udb", database.status(), "ok"));

  StatusOr<UnreliableFunctionalDatabase> mfdb = ParseMfdb(kMfdbText);
  outcomes.push_back(StatusOutcome("parse_mfdb", mfdb.status(), "ok"));

  std::string mfdb_path = WriteTestTempFile("chaos_engine.mfdb", kMfdbText);
  StatusOr<UnreliableFunctionalDatabase> loaded_mfdb =
      LoadMfdbFile(mfdb_path);
  outcomes.push_back(
      StatusOutcome("load_mfdb", loaded_mfdb.status(), "ok"));

  {
    // Direct sampler call, wrapped the way a real caller boundary would
    // be so a simulated bad_alloc stays a typed status.
    Outcome outcome;
    outcome.label = "naive_mc";
    try {
      Dnf dnf(2);
      dnf.AddTerm({{0, true}, {1, false}});
      std::vector<Rational> probs = {Rational::Half(), Rational::Half()};
      StatusOr<NaiveMcResult> mc =
          NaiveMcProbability(dnf, probs, 64, /*seed=*/5);
      outcome.ok = mc.ok();
      outcome.signature =
          mc.ok() ? "estimate=" + FormatDouble(mc->estimate)
                  : mc.status().ToString();
    } catch (const std::bad_alloc&) {
      outcome.ok = false;
      outcome.signature = "RESOURCE_EXHAUSTED: out of memory in naive MC";
    }
    outcomes.push_back(outcome);
  }

  if (!database.ok()) {
    // The engine steps cannot run without a database; report them as
    // failed-by-upstream so every workload has the same label set.
    for (const char* label : {"engine_qf", "engine_exact",
                              "engine_extensional", "engine_cor55",
                              "engine_padded", "datalog_exact",
                              "datalog_padded"}) {
      Outcome outcome;
      outcome.label = label;
      outcome.ok = false;
      outcome.signature = "skipped: database unavailable";
      outcomes.push_back(outcome);
    }
    return outcomes;
  }

  ReliabilityEngine engine(std::move(database).value());

  EngineOptions defaults;
  defaults.seed = 7;
  outcomes.push_back(EngineOutcome("engine_qf", engine.Run("S(x)", defaults)));
  // The S self-join keeps this query off the safe-plan rung so the
  // enumeration fault sites stay covered.
  outcomes.push_back(EngineOutcome(
      "engine_exact",
      engine.Run("exists x y . E(x,y) & S(y) & S(x)", defaults)));
  outcomes.push_back(EngineOutcome(
      "engine_extensional",
      engine.Run("exists x y . E(x,y) & S(y)", defaults)));

  EngineOptions sampled = defaults;
  sampled.force_approximate = true;
  sampled.epsilon = 0.3;
  sampled.delta = 0.3;
  sampled.fixed_samples = 64;
  outcomes.push_back(EngineOutcome(
      "engine_cor55", engine.Run("exists x y . E(x,y) & S(y)", sampled)));
  outcomes.push_back(EngineOutcome(
      "engine_padded",
      engine.Run("forall x . exists y . E(x,y) | S(x)", sampled)));

  outcomes.push_back(EngineOutcome(
      "datalog_exact", engine.RunDatalog(kDatalogProgram, "Path", defaults)));
  outcomes.push_back(EngineOutcome(
      "datalog_padded",
      engine.RunDatalog(kDatalogProgram, "Path", sampled)));
  return outcomes;
}

// Sites the workload is expected to reach; a missing name means a layer
// lost its fault-site coverage.
const char* const kExpectedSites[] = {
    "prob.parse_udb.line",
    "prob.load_udb.read",
    "metafinite.parse_mfdb.line",
    "metafinite.load_mfdb.read",
    "logic.parse_formula",
    "logic.grounding.assignment",
    "core.quantifier_free.tuple",
    "core.exact.world",
    "core.approx.tuple",
    "core.approx.padded_sample",
    "propositional.karp_luby.sample",
    "propositional.naive_mc.sample",
    "engine.rung.quantifier_free",
    "engine.rung.extensional",
    "engine.exact.enumerate",
    "engine.rung.approx",
    "engine.datalog.exact",
    "engine.datalog.padded",
    "datalog.exact.world",
    "datalog.padded.world",
    "datalog.fixpoint.round",
};

class ChaosEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(ChaosEngineTest, WorkloadIsDeterministic) {
  std::vector<Outcome> first = RunWorkload();
  std::vector<Outcome> second = RunWorkload();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i].ok) << first[i].label << ": " << first[i].signature;
    EXPECT_EQ(first[i].signature, second[i].signature) << first[i].label;
  }
}

TEST_F(ChaosEngineTest, WorkloadDiscoversAllPipelineSites) {
  RunWorkload();
  std::vector<std::string> names = FaultInjector::Instance().SiteNames();
  for (const char* site : kExpectedSites) {
    EXPECT_NE(std::find(names.begin(), names.end(), site), names.end())
        << "fault site not reached by the chaos workload: " << site;
  }
}

TEST_F(ChaosEngineTest, EveryDiscoveredSiteFailsToATypedStatus) {
  std::vector<Outcome> baseline = RunWorkload();
  std::vector<std::string> sites = FaultInjector::Instance().SiteNames();
  ASSERT_FALSE(sites.empty());

  for (const std::string& site : sites) {
    FaultInjector::Instance().Reset();
    FaultInjector::Instance().Arm(site, 1);
    std::vector<Outcome> faulted = RunWorkload();
    EXPECT_EQ(FaultInjector::Instance().TriggeredCount(site), 1u)
        << "armed fault never fired at " << site;
    ASSERT_EQ(faulted.size(), baseline.size()) << site;
    for (size_t i = 0; i < faulted.size(); ++i) {
      ASSERT_EQ(faulted[i].label, baseline[i].label) << site;
      if (faulted[i].ok && !faulted[i].flagged) {
        // Not an error and not flagged: the answer must be untouched.
        EXPECT_EQ(faulted[i].signature, baseline[i].signature)
            << "silent answer change with fault at " << site << " in step "
            << faulted[i].label;
      }
    }

    // Recovery: with the fault cleared, the same state must reproduce the
    // baseline bit-for-bit.
    FaultInjector::Instance().Reset();
    std::vector<Outcome> recovered = RunWorkload();
    ASSERT_EQ(recovered.size(), baseline.size()) << site;
    for (size_t i = 0; i < recovered.size(); ++i) {
      EXPECT_EQ(recovered[i].signature, baseline[i].signature)
          << "state not recovered after fault at " << site << " in step "
          << recovered[i].label;
    }
  }
}

TEST_F(ChaosEngineTest, MidRunFaultsAlsoSurfaceTyped) {
  std::vector<Outcome> baseline = RunWorkload();
  // The 5th enumerated world / 7th sample is mid-loop for this workload.
  for (const char* spec :
       {"core.exact.world:5", "propositional.karp_luby.sample:7",
        "core.approx.padded_sample:7", "prob.parse_udb.line:3"}) {
    FaultInjector::Instance().Reset();
    ASSERT_TRUE(ArmFaultFromSpec(spec).ok());
    std::vector<Outcome> faulted = RunWorkload();
    ASSERT_EQ(faulted.size(), baseline.size());
    bool any_failed = false;
    for (size_t i = 0; i < faulted.size(); ++i) {
      if (!faulted[i].ok) {
        any_failed = true;
      } else if (!faulted[i].flagged) {
        EXPECT_EQ(faulted[i].signature, baseline[i].signature)
            << spec << " in step " << faulted[i].label;
      }
    }
    EXPECT_TRUE(any_failed) << spec;
  }
}

TEST_F(ChaosEngineTest, SimulatedAllocationFailureBecomesTypedStatus) {
  RunWorkload();  // discovery pass
  std::vector<std::string> sites = FaultInjector::Instance().SiteNames();
  for (const std::string& site : sites) {
    // File-I/O sites — the load_* read sites and the util/vfs.h syscall
    // wrappers they sit on — live outside the parse/engine bad_alloc
    // boundaries (an out-of-memory read is the OS's problem, not
    // simulable this way); everything else must convert to
    // kResourceExhausted.
    if (site.find("load_") != std::string::npos ||
        site.rfind("vfs.", 0) == 0 || site.rfind("crash-after-", 0) == 0) {
      continue;
    }
    FaultInjector::Instance().Reset();
    FaultInjector::Instance().Arm(site, 1, StatusCode::kInternal,
                                  FaultKind::kBadAlloc);
    std::vector<Outcome> faulted = RunWorkload();  // must not crash
    EXPECT_EQ(FaultInjector::Instance().TriggeredCount(site), 1u) << site;
    bool any_resource_exhausted = false;
    for (const Outcome& outcome : faulted) {
      if (!outcome.ok &&
          outcome.signature.find("RESOURCE_EXHAUSTED") != std::string::npos) {
        any_resource_exhausted = true;
      }
    }
    EXPECT_TRUE(any_resource_exhausted)
        << "simulated bad_alloc at " << site
        << " did not surface as RESOURCE_EXHAUSTED";
  }
}

TEST_F(ChaosEngineTest, EverySiteOnceChaosRun) {
  std::vector<Outcome> baseline = RunWorkload();
  FaultInjector::Instance().ArmEverySiteOnce(StatusCode::kInternal);
  std::vector<Outcome> faulted = RunWorkload();  // must not crash
  ASSERT_EQ(faulted.size(), baseline.size());
  for (size_t i = 0; i < faulted.size(); ++i) {
    if (faulted[i].ok && !faulted[i].flagged) {
      EXPECT_EQ(faulted[i].signature, baseline[i].signature)
          << faulted[i].label;
    }
  }
  FaultInjector::Instance().Reset();
  std::vector<Outcome> recovered = RunWorkload();
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].signature, baseline[i].signature)
        << recovered[i].label;
  }
}

}  // namespace
}  // namespace qrel
