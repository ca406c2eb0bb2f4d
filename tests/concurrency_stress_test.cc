// Concurrency stress: 16 threads hammering one QrelServer — admin-verb
// churn (ATTACH/RELOAD/DETACH), concurrent queries routed at both the
// stable and the churned databases, result-cache single-flight dedup,
// checkpointer claim election, and stats/health polling — all at once.
//
// There are no timing assertions; the test asserts invariants that any
// interleaving must preserve (typed errors only, cache answers
// bit-identical, at most one active CheckpointScope per Checkpointer)
// and otherwise exists to give the TSan build (-DQREL_SANITIZE=thread)
// and the lock-rank checker real contention to chew on. Runtime is
// bounded by iteration counts, not wall clock.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/net/protocol.h"
#include "qrel/net/server.h"
#include "qrel/prob/text_format.h"
#include "qrel/util/run_context.h"
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

constexpr char kAltUdbText[] = R"(
universe 3
relation E 2
relation S 1
fact E 0 1 err=1/2
fact E 1 2 err=1/8
fact S 0
absent S 1 err=1/3
)";

UnreliableDatabase TestDatabase() {
  StatusOr<UnreliableDatabase> database = ParseUdb(kUdbText);
  EXPECT_TRUE(database.ok()) << database.status().ToString();
  return std::move(database).value();
}

Request QueryRequest(const std::string& query, const std::string& db = "") {
  Request request;
  request.verb = RequestVerb::kQuery;
  request.query = query;
  request.options.db = db;
  return request;
}

Request AdminRequest(RequestVerb verb, const std::string& target,
                     const std::string& path = "") {
  Request request;
  request.verb = verb;
  request.target = target;
  request.path = path;
  return request;
}

// A churned database is a moving target: every error a racing request can
// legitimately see is typed. Anything else is a real bug.
bool AcceptableChurnOutcome(const Response& response) {
  switch (response.status.code()) {
    case StatusCode::kOk:
    case StatusCode::kNotFound:            // detached just before the lookup
    case StatusCode::kFailedPrecondition:  // attach/detach racing each other
    case StatusCode::kUnavailable:         // draining for detach
    case StatusCode::kCancelled:           // in-flight when detach cancelled
    case StatusCode::kInvalidArgument:     // reload raced a rewrite mid-file
      return true;
    default:
      return false;
  }
}

TEST(ConcurrencyStressTest, SixteenThreadsOneServer) {
  ServerOptions options;
  options.workers = 4;
  options.default_max_work = uint64_t{1} << 27;
  options.max_request_work = uint64_t{1} << 27;
  options.work_quota = uint64_t{1} << 40;  // never quota-shed under stress
  options.cache_capacity = 8;
  QrelServer server(ReliabilityEngine(TestDatabase()), options);

  constexpr int kAdminThreads = 4;
  constexpr int kQueryThreads = 6;
  constexpr int kFlightThreads = 2;
  constexpr int kClaimThreads = 2;
  constexpr int kStatsThreads = 2;
  constexpr int kIterations = 40;

  std::atomic<bool> failed{false};
  auto check = [&](bool ok, const char* what, const Response& response) {
    if (!ok && !failed.exchange(true)) {
      ADD_FAILURE() << what << ": " << response.status.ToString();
    }
  };

  // Claim election target shared by the claim threads.
  Checkpointer checkpointer(
      TestTempPath("qrel_stress_claim.snap"),
      std::chrono::milliseconds(1 << 30));  // interval: never auto-writes
  std::atomic<int> active_scopes{0};
  std::atomic<int> max_active_scopes{0};

  std::vector<std::thread> threads;
  threads.reserve(kAdminThreads + kQueryThreads + kFlightThreads +
                  kClaimThreads + kStatsThreads);

  // --- Admin churn: each thread attaches, reloads, queries, and detaches
  // its own database name, with the file contents flapping between two
  // per-thread texts so reloads really swap versions. The contents are
  // made unique per thread (and distinct from the default database):
  // in-flight accounting and detach-drain key on the content fingerprint,
  // so two databases with identical bytes share a drain domain and a
  // DETACH of one would cancel the other's queued work.
  for (int t = 0; t < kAdminThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string db = "churn" + std::to_string(t);
      std::string file = "qrel_stress_" + db + ".udb";
      std::string self = std::to_string(t % 3);
      std::string text_a = std::string(kUdbText) + "fact E " + self + " " +
                           self + " err=1/" + std::to_string(7 + t) + "\n";
      std::string text_b = std::string(kAltUdbText) + "fact E " + self + " " +
                           self + " err=1/" + std::to_string(17 + t) + "\n";
      for (int i = 0; i < kIterations; ++i) {
        std::string path = WriteTestTempFile(
            file, ((i % 2 == 0) ? text_a : text_b).c_str());
        Response attached =
            server.Handle(AdminRequest(RequestVerb::kAttach, db, path));
        check(AcceptableChurnOutcome(attached), "attach", attached);
        WriteTestTempFile(file, ((i % 2 == 0) ? text_b : text_a).c_str());
        Response reloaded =
            server.Handle(AdminRequest(RequestVerb::kReload, db));
        check(AcceptableChurnOutcome(reloaded), "reload", reloaded);
        Response queried =
            server.Handle(QueryRequest("exists x y . E(x,y) & S(y)", db));
        check(AcceptableChurnOutcome(queried), "churn query", queried);
        Response detached =
            server.Handle(AdminRequest(RequestVerb::kDetach, db));
        check(AcceptableChurnOutcome(detached), "detach", detached);
      }
      Request dblist;
      dblist.verb = RequestVerb::kDblist;
      (void)server.Handle(dblist);
    });
  }

  // --- Steady queries against the never-detached default database: these
  // must always succeed with the same exact value, churn or no churn.
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      const char* queries[] = {"exists x y . E(x,y) & S(y)", "S(x)",
                               "exists x . S(x)"};
      for (int i = 0; i < kIterations; ++i) {
        Response response =
            server.Handle(QueryRequest(queries[(t + i) % 3]));
        check(response.ok(), "default-db query", response);
      }
    });
  }

  // --- Single-flight: both threads issue the same query; whether a
  // replay, a join on an in-flight leader, or a fresh miss, the value
  // must be bit-identical.
  for (int t = 0; t < kFlightThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        Response response =
            server.Handle(QueryRequest("exists x y . E(x,y) & S(y)"));
        check(response.ok(), "single-flight query", response);
        if (response.ok() &&
            response.Field("exact_value").value_or("") != "3/5" &&
            !failed.exchange(true)) {
          ADD_FAILURE() << "cache returned a non-identical answer: "
                        << response.Field("exact_value").value_or("");
        }
      }
    });
  }

  // --- Checkpointer claim election: every thread constructs scopes on
  // its own RunContext against the shared Checkpointer; at most one scope
  // may ever be active simultaneously.
  for (int t = 0; t < kClaimThreads; ++t) {
    threads.emplace_back([&] {
      RunContext ctx;
      ctx.SetCheckpointer(&checkpointer);
      for (int i = 0; i < kIterations * 4; ++i) {
        CheckpointScope scope(&ctx, "stress.v1", /*fingerprint=*/7);
        if (scope.active()) {
          int now = active_scopes.fetch_add(1, std::memory_order_acq_rel) + 1;
          int seen = max_active_scopes.load(std::memory_order_relaxed);
          while (now > seen && !max_active_scopes.compare_exchange_weak(
                                   seen, now, std::memory_order_relaxed)) {
          }
          active_scopes.fetch_sub(1, std::memory_order_acq_rel);
        }
      }
    });
  }

  // --- Stats/health polling reads every counter the other threads bump.
  for (int t = 0; t < kStatsThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations * 2; ++i) {
        Request stats;
        stats.verb = RequestVerb::kStats;
        Response response = server.Handle(stats);
        check(response.ok(), "stats", response);
        Request health;
        health.verb = RequestVerb::kHealth;
        response = server.Handle(health);
        check(response.ok(), "health", response);
        (void)server.stats_snapshot();
      }
    });
  }

  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_LE(max_active_scopes.load(), 1)
      << "two CheckpointScopes were active on one Checkpointer at once";
  EXPECT_GE(max_active_scopes.load(), 1)
      << "claim election never elected anyone";

  // The server still serves after the storm, and a final drain completes.
  Response response = server.Handle(QueryRequest("S(x)"));
  EXPECT_TRUE(response.ok()) << response.status.ToString();
  server.Drain();
}

}  // namespace
}  // namespace qrel
