// util/vfs: the injectable filesystem. Covers the POSIX semantics the
// durability layer relies on (typed errors, short-write contract,
// fd-released-on-close-failure), every vfs.* error-injection site, and —
// via WriteSnapshotFile — the unlink-on-failure audit: no early return in
// the atomic-rename protocol may leak a temp file or a descriptor.

#include "qrel/util/vfs.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/util/fault_injection.h"
#include "qrel/util/snapshot.h"
#include "temp_path.h"

namespace qrel {
namespace {

class VfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    dir_ = TestTempPath("vfs_test");
    ::mkdir(dir_.c_str(), 0755);
  }

  void TearDown() override {
    FaultInjector::Instance().Reset();
    StatusOr<std::vector<std::string>> names = ProcessVfs().ListDir(dir_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        (void)RawPosixVfs().Unlink(dir_ + "/" + name);
      }
    }
    ::rmdir(dir_.c_str());
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::vector<std::string> Listing() const {
    StatusOr<std::vector<std::string>> names = ProcessVfs().ListDir(dir_);
    EXPECT_TRUE(names.ok()) << names.status().ToString();
    std::vector<std::string> sorted = names.ok() ? *names
                                                 : std::vector<std::string>{};
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

  std::string dir_;
};

// Writes `bytes` through the full vfs write protocol, looping on short
// writes the way every real caller must.
Status WriteWholeFile(Vfs& vfs, const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  QREL_ASSIGN_OR_RETURN(int fd, vfs.OpenWrite(path));
  size_t offset = 0;
  while (offset < bytes.size()) {
    StatusOr<size_t> n =
        vfs.Write(fd, bytes.data() + offset, bytes.size() - offset);
    if (!n.ok()) {
      (void)vfs.Close(fd);
      return n.status();
    }
    offset += *n;
  }
  QREL_RETURN_IF_ERROR(vfs.Fsync(fd));
  return vfs.Close(fd);
}

TEST_F(VfsTest, WriteReadRoundTrip) {
  std::vector<uint8_t> bytes = {1, 2, 3, 4, 5};
  ASSERT_TRUE(WriteWholeFile(ProcessVfs(), Path("a.bin"), bytes).ok());
  StatusOr<std::vector<uint8_t>> read =
      ProcessVfs().ReadFileBytes(Path("a.bin"), 1024);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, bytes);
}

TEST_F(VfsTest, MissingFileReadsAsNotFound) {
  StatusOr<std::vector<uint8_t>> read =
      ProcessVfs().ReadFileBytes(Path("missing.bin"), 1024);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(VfsTest, OversizedFileReadsAsDataLoss) {
  std::vector<uint8_t> bytes(64, 0xab);
  ASSERT_TRUE(WriteWholeFile(ProcessVfs(), Path("big.bin"), bytes).ok());
  StatusOr<std::vector<uint8_t>> read =
      ProcessVfs().ReadFileBytes(Path("big.bin"), 63);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST_F(VfsTest, UnlinkMissingIsNotFound) {
  Status status = ProcessVfs().Unlink(Path("missing.bin"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(VfsTest, ListDirOmitsDotEntriesAndSeesFiles) {
  ASSERT_TRUE(WriteWholeFile(ProcessVfs(), Path("one"), {1}).ok());
  ASSERT_TRUE(WriteWholeFile(ProcessVfs(), Path("two"), {2}).ok());
  EXPECT_EQ(Listing(), (std::vector<std::string>{"one", "two"}));
}

TEST_F(VfsTest, ListMissingDirIsNotFound) {
  StatusOr<std::vector<std::string>> names =
      ProcessVfs().ListDir(Path("no_such_subdir"));
  ASSERT_FALSE(names.ok());
  EXPECT_EQ(names.status().code(), StatusCode::kNotFound);
}

// --- Error-injection sites -------------------------------------------------

TEST_F(VfsTest, ArmedOpenWriteFailsWithChosenCode) {
  // kResourceExhausted at arm time simulates ENOSPC: the code chosen by
  // the drill comes back, not a hardwired one.
  FaultInjector::Instance().Arm("vfs.open_write", 1,
                                StatusCode::kResourceExhausted);
  StatusOr<int> fd = ProcessVfs().OpenWrite(Path("full.bin"));
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kResourceExhausted);
  // One-shot: the retry succeeds and nothing was created by the fault.
  StatusOr<int> retry = ProcessVfs().OpenWrite(Path("full.bin"));
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(ProcessVfs().Close(*retry).ok());
}

TEST_F(VfsTest, ArmedShortWriteHalvesOneTransferAndCallersAbsorbIt) {
  FaultInjector::Instance().Arm("vfs.write.short", 1);
  std::vector<uint8_t> bytes(100, 0x5a);
  ASSERT_TRUE(WriteWholeFile(ProcessVfs(), Path("short.bin"), bytes).ok());
  StatusOr<std::vector<uint8_t>> read =
      ProcessVfs().ReadFileBytes(Path("short.bin"), 1024);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, bytes) << "short write dropped bytes";
  EXPECT_EQ(FaultInjector::Instance().TriggeredCount("vfs.write.short"), 1u);
}

TEST_F(VfsTest, InjectedCloseFailureStillReleasesTheDescriptor) {
  StatusOr<int> fd = ProcessVfs().OpenWrite(Path("close.bin"));
  ASSERT_TRUE(fd.ok());
  FaultInjector::Instance().Arm("vfs.close", 1);
  Status closed = ProcessVfs().Close(*fd);
  ASSERT_FALSE(closed.ok());
  // The fd was really released despite the injected error: closing it
  // again must fail at the OS level (EBADF), not double-close a live fd.
  EXPECT_FALSE(RawPosixVfs().Close(*fd).ok());
}

TEST_F(VfsTest, ArmedRenameFailsAndLeavesSourceInPlace) {
  ASSERT_TRUE(WriteWholeFile(ProcessVfs(), Path("src"), {7}).ok());
  FaultInjector::Instance().Arm("vfs.rename", 1, StatusCode::kInternal);
  Status renamed = ProcessVfs().Rename(Path("src"), Path("dst"));
  ASSERT_FALSE(renamed.ok());
  EXPECT_EQ(renamed.code(), StatusCode::kInternal);
  EXPECT_EQ(Listing(), (std::vector<std::string>{"src"}));
}

TEST_F(VfsTest, ScopedOverrideRoutesProcessVfs) {
  // A counting pass-through proves ProcessVfs() honors the override and
  // restores the default when the scope ends.
  class CountingVfs : public FaultInjectingVfs {
   public:
    CountingVfs() : FaultInjectingVfs(&RawPosixVfs()) {}
    StatusOr<std::vector<std::string>> ListDir(
        const std::string& dir) override {
      ++lists;
      return FaultInjectingVfs::ListDir(dir);
    }
    int lists = 0;
  };
  CountingVfs counting;
  {
    ScopedVfsOverride scoped(&counting);
    ASSERT_TRUE(ProcessVfs().ListDir(dir_).ok());
    EXPECT_EQ(counting.lists, 1);
  }
  ASSERT_TRUE(ProcessVfs().ListDir(dir_).ok());
  EXPECT_EQ(counting.lists, 1) << "override leaked past its scope";
}

// --- WriteSnapshotFile early-return audit ----------------------------------
//
// For every injectable failure point in the atomic-rename protocol, a
// failed WriteSnapshotFile must (a) return a typed error, (b) leave no
// temp file behind, and (c) leave a previous snapshot at the target path
// untouched. One site is armed per run — the cleanup path itself goes
// through the vfs, and faulting two sites at once would fault the
// cleanup too.

SnapshotData SampleSnapshot() {
  SnapshotWriter writer;
  writer.U64(42);
  SnapshotData data;
  data.kind = "vfs.test.v1";
  data.fingerprint = 7;
  data.work_spent = 1;
  data.payload = writer.TakeBytes();
  return data;
}

TEST_F(VfsTest, EveryWriteSiteFailureLeavesNoTempAndKeepsPreviousSnapshot) {
  const std::string path = Path("state.snap");
  SnapshotData previous = SampleSnapshot();
  ASSERT_TRUE(WriteSnapshotFile(path, previous).ok());

  SnapshotData replacement = SampleSnapshot();
  replacement.work_spent = 999;

  for (const char* site : {"vfs.open_write", "vfs.write", "vfs.fsync",
                           "vfs.close", "vfs.rename"}) {
    SCOPED_TRACE(site);
    FaultInjector::Instance().Reset();
    FaultInjector::Instance().Arm(site, 1, StatusCode::kResourceExhausted);
    Status failed = WriteSnapshotFile(path, replacement);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
    FaultInjector::Instance().Reset();

    EXPECT_EQ(Listing(), (std::vector<std::string>{"state.snap"}))
        << "temp file leaked after failure at " << site;
    StatusOr<SnapshotData> loaded = ReadSnapshotFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->work_spent, previous.work_spent)
        << "previous snapshot damaged by failure at " << site;
  }
}

TEST_F(VfsTest, FsyncDirFailureAfterRenameKeepsTheNewSnapshot) {
  // The parent-dir fsync happens after the rename: its failure reports an
  // error (durability not guaranteed) but the rename already happened, so
  // the new content is what a reader sees and no temp remains.
  const std::string path = Path("state.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, SampleSnapshot()).ok());
  SnapshotData replacement = SampleSnapshot();
  replacement.work_spent = 999;
  FaultInjector::Instance().Arm("vfs.fsync_dir", 1);
  Status failed = WriteSnapshotFile(path, replacement);
  ASSERT_FALSE(failed.ok());
  FaultInjector::Instance().Reset();
  EXPECT_EQ(Listing(), (std::vector<std::string>{"state.snap"}));
  StatusOr<SnapshotData> loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->work_spent, 999u);
}

TEST_F(VfsTest, ShortWriteDuringSnapshotWriteIsAbsorbed) {
  const std::string path = Path("state.snap");
  FaultInjector::Instance().Arm("vfs.write.short", 1);
  ASSERT_TRUE(WriteSnapshotFile(path, SampleSnapshot()).ok());
  EXPECT_EQ(FaultInjector::Instance().TriggeredCount("vfs.write.short"), 1u);
  StatusOr<SnapshotData> loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
}

}  // namespace
}  // namespace qrel
