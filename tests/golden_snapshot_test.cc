// Resumes the committed mid-run snapshots in tests/testdata/snapshots (one
// per payload kind, see golden_snapshot_cases.h) on the current code: the
// resumed result and work counter must equal an uninterrupted run's bit
// for bit. This is what keeps every `.v1` kind string honest — a payload
// layout change must bump the kind, not silently misread old snapshots.
// The snapshots of retired kinds stay committed too, and must be left
// alone by the code that replaced them.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "golden_snapshot_cases.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/snapshot.h"
#include "temp_path.h"

namespace qrel {

namespace golden {
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.kind; }
}  // namespace golden

namespace {

class GoldenSnapshotTest
    : public ::testing::TestWithParam<golden::GoldenCase> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
};

TEST_P(GoldenSnapshotTest, ResumesBitIdentical) {
  const golden::GoldenCase& c = GetParam();
  const std::string golden_path =
      std::string(QREL_TESTDATA_DIR) + "/snapshots/" + c.kind + ".snap";

  StatusOr<SnapshotData> snapshot = ReadSnapshotFile(golden_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->kind, c.kind);
  EXPECT_GT(snapshot->work_spent, 0u) << "snapshot is not mid-run";

  RunContext baseline_ctx;
  StatusOr<std::string> baseline = c.run(&baseline_ctx);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(baseline_ctx.work_spent(), snapshot->work_spent)
      << "snapshot is not mid-run";

  // Resume from a copy: the resumed run checkpoints over its own file.
  const std::string path = TestTempPath(std::string(c.kind) + ".snap");
  std::filesystem::copy_file(
      golden_path, path, std::filesystem::copy_options::overwrite_existing);
  Checkpointer checkpointer(path, std::chrono::milliseconds(0));
  ASSERT_TRUE(checkpointer.LoadForResume().ok());
  RunContext ctx;
  ctx.SetCheckpointer(&checkpointer);
  StatusOr<std::string> resumed = c.run(&ctx);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(checkpointer.resume_consumed())
      << "the snapshot was ignored and the run restarted from zero";
  EXPECT_EQ(*resumed, *baseline);
  EXPECT_EQ(ctx.work_spent(), baseline_ctx.work_spent());
  std::filesystem::remove(path);
}

std::string KindName(const ::testing::TestParamInfo<golden::GoldenCase>& info) {
  std::string name = info.param.kind;
  for (char& ch : name) {
    if (ch == '.') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GoldenSnapshotTest,
                         ::testing::ValuesIn(golden::Cases()), KindName);

// A snapshot of a retired kind is another algorithm's progress to the
// current code: the run must neither consume nor overwrite it, and must
// equal a fresh run in result and work.
class RetiredSnapshotTest : public GoldenSnapshotTest {};

TEST_P(RetiredSnapshotTest, LeftUnconsumedAsAForeignKind) {
  const golden::GoldenCase& c = GetParam();
  const std::string golden_path =
      std::string(QREL_TESTDATA_DIR) + "/snapshots/" + c.kind + ".snap";
  StatusOr<SnapshotData> snapshot = ReadSnapshotFile(golden_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->kind, c.kind);

  RunContext fresh_ctx;
  StatusOr<std::string> fresh = c.run(&fresh_ctx);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  const std::string path = TestTempPath(std::string(c.kind) + ".snap");
  std::filesystem::copy_file(
      golden_path, path, std::filesystem::copy_options::overwrite_existing);
  Checkpointer checkpointer(path, std::chrono::milliseconds(0));
  ASSERT_TRUE(checkpointer.LoadForResume().ok());
  RunContext ctx;
  ctx.SetCheckpointer(&checkpointer);
  StatusOr<std::string> run = c.run(&ctx);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(checkpointer.resume_consumed());
  EXPECT_EQ(checkpointer.writes(), 0u) << "the foreign snapshot was overwritten";
  EXPECT_EQ(*run, *fresh);
  EXPECT_EQ(ctx.work_spent(), fresh_ctx.work_spent());
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(RetiredKinds, RetiredSnapshotTest,
                         ::testing::ValuesIn(golden::RetiredCases()),
                         KindName);

}  // namespace
}  // namespace qrel
