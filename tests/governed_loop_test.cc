// Unit tests for the governed loop kernel (util/governed_loop.h): the
// truncation rule, the checkpoint-before-charge ordering, resume, the
// save hook's laziness, and the absence of per-iteration allocations.

#include "qrel/util/governed_loop.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/propositional/karp_luby.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/snapshot.h"
#include "temp_path.h"

// Counts every global operator new, for the allocation test below. Both
// new and delete are replaced so the pair stays malloc/free (sanitizers
// check that allocation and deallocation functions match); GCC cannot see
// that pairing through gtest's inlined code and warns spuriously.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace qrel {
namespace {

constexpr uint64_t kEnd = 10;
constexpr char kSite[] = "test.governed_loop.step";

// What one run of the test loop (sum of the indices it visits) observed.
struct Observed {
  Status status;
  bool truncated = false;
  uint64_t next = 0;
  uint64_t sum = 0;
  int save_calls = 0;
};

// Runs the test loop on `ctx`. `fail_at` makes the body return `body_error`
// at that index instead of folding it in.
Observed RunSumLoop(RunContext* ctx, bool allow_truncation,
                    uint64_t fail_at = kEnd, Status body_error = Status()) {
  Observed observed;
  GovernedLoop loop(ctx, {.kind = "test.sum.v1",
                          .fingerprint = 42,
                          .end = kEnd,
                          .fault_site = kSite,
                          .allow_truncation = allow_truncation});
  observed.status = loop.Resume([&](SnapshotReader& r, uint64_t* next) {
    QREL_RETURN_IF_ERROR(r.U64(next));
    return r.U64(&observed.sum);
  });
  if (observed.status.ok()) {
    observed.status = loop.Run(
        [&](SnapshotWriter& w, uint64_t i) {
          ++observed.save_calls;
          w.U64(i);
          w.U64(observed.sum);
        },
        [&](uint64_t i) {
          if (i == fail_at) {
            return body_error;
          }
          observed.sum += i;
          return Status::Ok();
        });
  }
  observed.truncated = loop.truncated();
  observed.next = loop.next();
  return observed;
}

struct TruncationCase {
  const char* name;
  bool allow_truncation;
  std::optional<uint64_t> work_budget;
  bool cancel_up_front;
  // Arms the kernel's fault site to fire on this hit (1-based) with `code`.
  uint64_t fault_hit;
  StatusCode fault_code;
  // Makes the body itself fail at this index with `body_code`.
  uint64_t body_fail_at;
  StatusCode body_code;
  // Expectations.
  StatusCode want_code;
  bool want_truncated;
  uint64_t want_next;
};

void PrintTo(const TruncationCase& c, std::ostream* os) { *os << c.name; }

class GovernedLoopTruncationTest
    : public ::testing::TestWithParam<TruncationCase> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_P(GovernedLoopTruncationTest, FollowsTheOneTruncationRule) {
  const TruncationCase& c = GetParam();
  RunContext ctx;
  if (c.work_budget.has_value()) {
    ctx.SetWorkBudget(*c.work_budget);
  }
  if (c.cancel_up_front) {
    ctx.RequestCancellation();
  }
  if (c.fault_hit > 0) {
    FaultInjector::Instance().Arm(kSite, c.fault_hit, c.fault_code);
  }
  Observed observed =
      RunSumLoop(&ctx, c.allow_truncation, c.body_fail_at,
                 Status(c.body_code, "body failed"));
  EXPECT_EQ(observed.status.code(), c.want_code)
      << observed.status.ToString();
  EXPECT_EQ(observed.truncated, c.want_truncated);
  EXPECT_EQ(observed.next, c.want_next);
  // Exactly the completed prefix was folded in.
  EXPECT_EQ(observed.sum, observed.next * (observed.next - 1) / 2);
}

constexpr StatusCode kOk = StatusCode::kOk;
constexpr StatusCode kInternal = StatusCode::kInternal;
constexpr StatusCode kExhausted = StatusCode::kResourceExhausted;

INSTANTIATE_TEST_SUITE_P(
    Table, GovernedLoopTruncationTest,
    ::testing::Values(
        TruncationCase{"runs_to_the_end", true, std::nullopt, false, 0, kOk,
                       kEnd, kOk, kOk, false, kEnd},
        TruncationCase{"budget_trip_after_progress_keeps_prefix", true, 4,
                       false, 0, kOk, kEnd, kOk, kOk, true, 4},
        TruncationCase{"budget_trip_fails_when_not_allowed", false, 4, false,
                       0, kOk, kEnd, kOk, kExhausted, false, 4},
        TruncationCase{"budget_trip_with_zero_progress_fails", true, 0, false,
                       0, kOk, kEnd, kOk, kExhausted, false, 0},
        TruncationCase{"cancellation_never_truncates", true, std::nullopt,
                       true, 0, kOk, kEnd, kOk, StatusCode::kCancelled, false,
                       0},
        TruncationCase{"cancelled_body_never_truncates", true, std::nullopt,
                       false, 0, kOk, 6, StatusCode::kCancelled,
                       StatusCode::kCancelled, false, 6},
        TruncationCase{"non_budget_fault_never_truncates", true, std::nullopt,
                       false, 4, kInternal, kEnd, kOk, kInternal, false, 3},
        TruncationCase{"budget_coded_fault_truncates_like_a_trip", true,
                       std::nullopt, false, 4, StatusCode::kDeadlineExceeded,
                       kEnd, kOk, kOk, true, 3},
        TruncationCase{"budget_error_from_the_body_truncates", true,
                       std::nullopt, false, 0, kOk, 6, kExhausted, kOk, true,
                       6},
        TruncationCase{"non_budget_error_from_the_body_fails", true,
                       std::nullopt, false, 0, kOk, 6,
                       StatusCode::kInvalidArgument,
                       StatusCode::kInvalidArgument, false, 6}),
    [](const ::testing::TestParamInfo<TruncationCase>& info) {
      return std::string(info.param.name);
    });

class GovernedLoopCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
};

TEST_F(GovernedLoopCheckpointTest, CheckpointPrecedesChargeAndResumeRestores) {
  RunContext baseline_ctx;
  Observed baseline = RunSumLoop(&baseline_ctx, false);
  ASSERT_TRUE(baseline.status.ok());

  std::string path = TestTempPath("sum.snap");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    RunContext ctx = RunContext::WithWorkBudget(4);
    ctx.SetCheckpointer(&checkpointer);
    Observed killed = RunSumLoop(&ctx, false);
    ASSERT_EQ(killed.status.code(), StatusCode::kResourceExhausted);
  }
  // The last checkpoint was taken at iteration 4 *before* its charge
  // tripped the budget: 4 units spent, iteration 4 not yet folded in.
  StatusOr<SnapshotData> snapshot = ReadSnapshotFile(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->kind, "test.sum.v1");
  EXPECT_EQ(snapshot->work_spent, 4u);
  SnapshotReader reader(snapshot->payload);
  uint64_t index = 0;
  uint64_t sum = 0;
  ASSERT_TRUE(reader.U64(&index).ok());
  ASSERT_TRUE(reader.U64(&sum).ok());
  EXPECT_EQ(index, 4u);
  EXPECT_EQ(sum, 0u + 1 + 2 + 3);

  Checkpointer checkpointer(path, std::chrono::milliseconds(0));
  ASSERT_TRUE(checkpointer.LoadForResume().ok());
  RunContext ctx;
  ctx.SetCheckpointer(&checkpointer);
  Observed resumed = RunSumLoop(&ctx, false);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(checkpointer.resume_consumed());
  EXPECT_EQ(resumed.sum, baseline.sum);
  EXPECT_EQ(resumed.next, kEnd);
  EXPECT_EQ(ctx.work_spent(), baseline_ctx.work_spent());
  std::remove(path.c_str());
}

TEST_F(GovernedLoopCheckpointTest, SaveHookRunsOnlyWhenACheckpointIsDue) {
  {
    RunContext ctx;  // no checkpointer at all
    EXPECT_EQ(RunSumLoop(&ctx, false).save_calls, 0);
  }
  std::string path = TestTempPath("lazy.snap");
  {
    Checkpointer checkpointer(path, std::chrono::hours(24));
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    EXPECT_EQ(RunSumLoop(&ctx, false).save_calls, 0);
    EXPECT_EQ(checkpointer.writes(), 0u);
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    EXPECT_EQ(RunSumLoop(&ctx, false).save_calls, static_cast<int>(kEnd));
    EXPECT_EQ(checkpointer.writes(), kEnd);
  }
  {
    // Another algorithm's unconsumed snapshot in the file: never due, so
    // the file is left intact and the loop serializes nothing.
    SnapshotData foreign;
    foreign.kind = "test.other.v1";
    ASSERT_TRUE(WriteSnapshotFile(path, foreign).ok());
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    Observed observed = RunSumLoop(&ctx, false);
    ASSERT_TRUE(observed.status.ok());
    EXPECT_EQ(observed.save_calls, 0);
    EXPECT_EQ(checkpointer.writes(), 0u);
    EXPECT_EQ(checkpointer.resume_kind(), "test.other.v1");
  }
  std::remove(path.c_str());
}

TEST_F(GovernedLoopCheckpointTest, ResumeRejectsAnIndexPastTheEnd) {
  std::string path = TestTempPath("past_end.snap");
  SnapshotWriter writer;
  writer.U64(kEnd + 1);
  writer.U64(0);
  SnapshotData data;
  data.kind = "test.sum.v1";
  data.fingerprint = 42;
  data.payload = writer.TakeBytes();
  ASSERT_TRUE(WriteSnapshotFile(path, data).ok());
  Checkpointer checkpointer(path, std::chrono::milliseconds(0));
  ASSERT_TRUE(checkpointer.LoadForResume().ok());
  RunContext ctx;
  ctx.SetCheckpointer(&checkpointer);
  EXPECT_EQ(RunSumLoop(&ctx, false).status.code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(GovernedLoopAllocationTest, KarpLubySamplesAllocateNothingPerSample) {
  Dnf dnf(10);
  dnf.AddTerm({{0, true}, {1, false}});
  dnf.AddTerm({{2, true}, {3, true}, {4, false}});
  dnf.AddTerm({{5, false}, {9, true}});
  std::vector<Rational> probs(10, Rational::Half());
  KarpLubyOptions options;
  options.fixed_samples = 101000;
  RunContext ctx;
  options.run_context = &ctx;

  uint64_t before = g_allocations.load();
  StatusOr<KarpLubyResult> result = KarpLubyProbability(dnf, probs, options);
  uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->samples, 101000u);
  // Set-up (weights, cumulative table, fingerprint) allocates a bounded
  // amount; the sampling loop itself must not allocate per sample.
  EXPECT_LT(allocations, 1000u);
}

}  // namespace
}  // namespace qrel
