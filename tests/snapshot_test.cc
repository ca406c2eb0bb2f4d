// Snapshot container format: value round-trips, the typed corruption
// taxonomy (kNotFound / kInvalidArgument / kDataLoss — never a crash,
// never a silent restart), and write atomicity (a failed or interrupted
// write leaves the previous snapshot intact).

#include "qrel/util/snapshot.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/util/fault_injection.h"
#include "temp_path.h"

namespace qrel {
namespace {

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path,
                   const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

SnapshotData MakeSample() {
  SnapshotWriter writer;
  writer.U8(3);
  writer.U32(0xdeadbeef);
  writer.U64(uint64_t{1} << 62);
  writer.I64(-123456789);
  writer.Double(0.625);
  writer.String("hello snapshot");
  writer.BigIntVal(BigInt(-42));
  writer.RationalVal(Rational(3, 8));
  writer.RngState(Rng(99));
  writer.TupleVal({0, 5, 2});

  SnapshotData data;
  data.kind = "test.sample.v1";
  data.fingerprint = 0x1234abcd5678ef00ULL;
  data.work_spent = 777;
  data.payload = writer.TakeBytes();
  return data;
}

TEST(SnapshotFormatTest, EncodeDecodeRoundTrip) {
  SnapshotData data = MakeSample();
  std::vector<uint8_t> bytes = EncodeSnapshot(data);
  StatusOr<SnapshotData> decoded = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, data.kind);
  EXPECT_EQ(decoded->fingerprint, data.fingerprint);
  EXPECT_EQ(decoded->work_spent, data.work_spent);
  EXPECT_EQ(decoded->payload, data.payload);

  // Every value reads back exactly, in write order.
  SnapshotReader reader(decoded->payload);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0;
  std::string s;
  BigInt big;
  Rational rational;
  Rng rng(1);
  std::vector<int32_t> tuple;
  ASSERT_TRUE(reader.U8(&u8).ok());
  EXPECT_EQ(u8, 3);
  ASSERT_TRUE(reader.U32(&u32).ok());
  EXPECT_EQ(u32, 0xdeadbeefu);
  ASSERT_TRUE(reader.U64(&u64).ok());
  EXPECT_EQ(u64, uint64_t{1} << 62);
  ASSERT_TRUE(reader.I64(&i64).ok());
  EXPECT_EQ(i64, -123456789);
  ASSERT_TRUE(reader.Double(&d).ok());
  EXPECT_EQ(d, 0.625);
  ASSERT_TRUE(reader.String(&s).ok());
  EXPECT_EQ(s, "hello snapshot");
  ASSERT_TRUE(reader.BigIntVal(&big).ok());
  EXPECT_EQ(big.ToDecimalString(), "-42");
  ASSERT_TRUE(reader.RationalVal(&rational).ok());
  EXPECT_EQ(rational, Rational(3, 8));
  ASSERT_TRUE(reader.RngState(&rng).ok());
  EXPECT_EQ(rng.NextUint64(), Rng(99).NextUint64());
  ASSERT_TRUE(reader.TupleVal(&tuple).ok());
  EXPECT_EQ(tuple, (std::vector<int32_t>{0, 5, 2}));
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(SnapshotFormatTest, EncodingIsCanonical) {
  // Decode(Encode(x)) re-encodes byte-identically — the invariant the
  // fuzz harness checks on arbitrary accepted inputs.
  SnapshotData data = MakeSample();
  std::vector<uint8_t> bytes = EncodeSnapshot(data);
  StatusOr<SnapshotData> decoded = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(EncodeSnapshot(*decoded), bytes);
}

TEST(SnapshotFormatTest, MissingFileIsNotFound) {
  StatusOr<SnapshotData> loaded =
      ReadSnapshotFile(TestTempPath("does_not_exist.snapshot"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotFormatTest, FileRoundTrip) {
  std::string path = TestTempPath("roundtrip.snapshot");
  SnapshotData data = MakeSample();
  ASSERT_TRUE(WriteSnapshotFile(path, data).ok());
  StatusOr<SnapshotData> loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->kind, data.kind);
  EXPECT_EQ(loaded->payload, data.payload);
  std::remove(path.c_str());
}

// --- Corruption corpus -----------------------------------------------------

TEST(SnapshotCorruptionTest, TruncationAtEveryLengthIsTyped) {
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSample());
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusOr<SnapshotData> decoded = DecodeSnapshot(bytes.data(), len);
    ASSERT_FALSE(decoded.ok()) << "truncated to " << len << " bytes";
    StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << "truncated to " << len << ": " << decoded.status().ToString();
  }
}

TEST(SnapshotCorruptionTest, EveryFlippedByteIsDetected) {
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSample());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x40;
    StatusOr<SnapshotData> decoded =
        DecodeSnapshot(corrupt.data(), corrupt.size());
    // The trailing checksum covers every byte before it; flipping the
    // checksum itself mismatches too. No flip may decode successfully.
    ASSERT_FALSE(decoded.ok()) << "flip at offset " << i;
    StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << "flip at offset " << i << ": " << decoded.status().ToString();
  }
}

TEST(SnapshotCorruptionTest, BadMagicIsInvalidArgument) {
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSample());
  bytes[0] = 'X';
  StatusOr<SnapshotData> decoded = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCorruptionTest, StaleVersionIsInvalidArgument) {
  // Rebuild the container with a bumped version and a valid checksum, so
  // version skew is reported as such rather than as corruption.
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSample());
  bytes[8] = static_cast<uint8_t>(kSnapshotFormatVersion + 1);
  // Recompute the trailing checksum (FNV-1a over everything before it).
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i + 8 < bytes.size(); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(hash >> (8 * i));
  }
  StatusOr<SnapshotData> decoded = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(SnapshotCorruptionTest, TruncatedFileOnDiskIsDataLoss) {
  std::string path = TestTempPath("truncated.snapshot");
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSample());
  bytes.resize(bytes.size() / 2);
  WriteAllBytes(path, bytes);
  StatusOr<SnapshotData> loaded = ReadSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, TrailingGarbageIsDataLoss) {
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSample());
  bytes.push_back(0x00);
  StatusOr<SnapshotData> decoded = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotCorruptionTest, ZeroDenominatorRationalIsDataLoss) {
  SnapshotWriter writer;
  writer.String("1");  // numerator
  writer.String("0");  // denominator: must be rejected before Rational()
  SnapshotReader reader(writer.TakeBytes());
  Rational value;
  Status status = reader.RationalVal(&value);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(SnapshotCorruptionTest, AllZeroRngStateIsDataLoss) {
  SnapshotWriter writer;
  for (int i = 0; i < 4; ++i) {
    writer.U64(0);
  }
  SnapshotReader reader(writer.TakeBytes());
  Rng rng(1);
  Status status = reader.RngState(&rng);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(SnapshotCorruptionTest, PayloadReadersRejectOverrunLengths) {
  // A string length pointing past the payload end must not read out of
  // bounds (the checksum cannot help once an algorithm interprets its own
  // payload, so the readers guard independently).
  SnapshotWriter writer;
  writer.U32(1000);  // claimed string length with no bytes behind it
  SnapshotReader reader(writer.TakeBytes());
  std::string s;
  Status status = reader.String(&s);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

// --- Atomicity and the Checkpointer ---------------------------------------

TEST(SnapshotAtomicityTest, FailedWriteLeavesPreviousSnapshotIntact) {
  FaultInjector::Instance().Reset();
  std::string path = TestTempPath("atomic.snapshot");
  SnapshotData first = MakeSample();
  ASSERT_TRUE(WriteSnapshotFile(path, first).ok());

  SnapshotData second = MakeSample();
  second.work_spent = 999999;
  FaultInjector::Instance().Arm("util.snapshot.write", 1);
  Status failed = WriteSnapshotFile(path, second);
  ASSERT_FALSE(failed.ok());

  StatusOr<SnapshotData> loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->work_spent, first.work_spent);
  std::remove(path.c_str());
  FaultInjector::Instance().Reset();
}

TEST(SnapshotAtomicityTest, TempNameDoesNotClobberOtherWriters) {
  // The temp name is pid-unique, so another writer's in-progress
  // "<path>.tmp*" file (here: a sentinel under the legacy fixed name)
  // survives a concurrent WriteSnapshotFile to the same path.
  std::string path = TestTempPath("shared.snapshot");
  std::string other_temp = path + ".tmp";
  std::vector<uint8_t> sentinel = {'o', 't', 'h', 'e', 'r'};
  WriteAllBytes(other_temp, sentinel);

  ASSERT_TRUE(WriteSnapshotFile(path, MakeSample()).ok());

  EXPECT_EQ(ReadAllBytes(other_temp), sentinel)
      << "WriteSnapshotFile truncated a foreign temp file";
  ASSERT_TRUE(ReadSnapshotFile(path).ok());
  std::remove(other_temp.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointerTest, WouldClaimTracksAttachmentAndClaims) {
  EXPECT_FALSE(CheckpointScope::WouldClaim(nullptr));
  RunContext bare;
  EXPECT_FALSE(CheckpointScope::WouldClaim(&bare));

  std::string path = TestTempPath("would_claim.snapshot");
  Checkpointer checkpointer(path, std::chrono::milliseconds(0));
  RunContext ctx;
  ctx.SetCheckpointer(&checkpointer);
  EXPECT_TRUE(CheckpointScope::WouldClaim(&ctx));
  {
    CheckpointScope outer(&ctx, "outer.v1", 1);
    // A nested scope would be inert — callers can skip fingerprint work.
    EXPECT_FALSE(CheckpointScope::WouldClaim(&ctx));
  }
  EXPECT_TRUE(CheckpointScope::WouldClaim(&ctx));
  std::remove(path.c_str());
}

TEST(CheckpointerTest, ScopeClaimingMakesNestedScopesInert) {
  std::string path = TestTempPath("claim.snapshot");
  Checkpointer checkpointer(path, std::chrono::milliseconds(0));
  RunContext ctx;
  ctx.SetCheckpointer(&checkpointer);

  CheckpointScope outer(&ctx, "outer.v1", 1);
  EXPECT_TRUE(outer.active());
  {
    CheckpointScope inner(&ctx, "inner.v1", 2);
    EXPECT_FALSE(inner.active());
    // An inert scope never writes.
    ASSERT_TRUE(inner.MaybeCheckpoint([](SnapshotWriter&) {}).ok());
    EXPECT_EQ(checkpointer.writes(), 0u);
  }
  // The claim is released with the scope; a later outermost loop can claim.
  {
    CheckpointScope next(&ctx, "next.v1", 3);
    EXPECT_FALSE(next.active());  // outer still alive
  }
  std::remove(path.c_str());
}

TEST(CheckpointerTest, ResumeRequiresMatchingFingerprint) {
  std::string path = TestTempPath("fingerprint.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    CheckpointScope scope(&ctx, "algo.v1", /*fingerprint=*/111);
    ASSERT_TRUE(scope.CheckpointNow([](SnapshotWriter& w) { w.U64(5); }).ok());
  }
  {
    // Same kind, different parameters: refuse, do not silently restart.
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    CheckpointScope scope(&ctx, "algo.v1", /*fingerprint=*/222);
    std::optional<SnapshotReader> reader;
    Status status = scope.TakeResume(&reader);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  {
    // A different kind ignores the snapshot (it belongs to another rung).
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    CheckpointScope scope(&ctx, "other.v1", /*fingerprint=*/111);
    std::optional<SnapshotReader> reader;
    ASSERT_TRUE(scope.TakeResume(&reader).ok());
    EXPECT_FALSE(reader.has_value());
    EXPECT_FALSE(checkpointer.resume_consumed());
  }
  {
    // Matching kind and fingerprint: the state comes back, with the work
    // counter restored onto the context.
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    CheckpointScope scope(&ctx, "algo.v1", /*fingerprint=*/111);
    std::optional<SnapshotReader> reader;
    ASSERT_TRUE(scope.TakeResume(&reader).ok());
    ASSERT_TRUE(reader.has_value());
    uint64_t value = 0;
    ASSERT_TRUE(reader->U64(&value).ok());
    EXPECT_EQ(value, 5u);
    EXPECT_TRUE(checkpointer.resume_consumed());
  }
  std::remove(path.c_str());
}

TEST(CheckpointerTest, CorruptSnapshotFailsLoadForResume) {
  std::string path = TestTempPath("corrupt_resume.snapshot");
  SnapshotData data = MakeSample();
  ASSERT_TRUE(WriteSnapshotFile(path, data).ok());
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  bytes[bytes.size() / 2] ^= 0xff;
  WriteAllBytes(path, bytes);

  Checkpointer checkpointer(path, std::chrono::milliseconds(0));
  Status loaded = checkpointer.LoadForResume();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(checkpointer.has_resume());
  std::remove(path.c_str());
}

TEST(CheckpointerTest, MissingSnapshotMeansFreshRun) {
  Checkpointer checkpointer(TestTempPath("fresh.snapshot"),
                            std::chrono::milliseconds(0));
  ASSERT_TRUE(checkpointer.LoadForResume().ok());
  EXPECT_FALSE(checkpointer.has_resume());
}

TEST(CheckpointerTest, WorkSpentIsRestoredOntoContext) {
  std::string path = TestTempPath("workspent.snapshot");
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    ASSERT_TRUE(ctx.Charge(123).ok());
    CheckpointScope scope(&ctx, "algo.v1", 9);
    ASSERT_TRUE(scope.CheckpointNow([](SnapshotWriter&) {}).ok());
  }
  {
    Checkpointer checkpointer(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    ASSERT_TRUE(ctx.Charge(7).ok());  // a resumed run's replayed prologue
    CheckpointScope scope(&ctx, "algo.v1", 9);
    std::optional<SnapshotReader> reader;
    ASSERT_TRUE(scope.TakeResume(&reader).ok());
    ASSERT_TRUE(reader.has_value());
    // The overwrite discards the prologue's re-charges in favor of the
    // interrupted run's total, which already included them.
    EXPECT_EQ(ctx.work_spent(), 123u);
  }
  std::remove(path.c_str());
}

// A pending cooperative cancellation forces MaybeCheckpoint to flush even
// when the interval has not elapsed: the very next Charge() ends the run,
// so this is the last safe point to persist progress. Both the qrel_cli
// SIGINT flush and the server's drain checkpoint-abort rely on this.
TEST(CheckpointerTest, PendingCancellationForcesAFlushInsideTheInterval) {
  std::string path = TestTempPath("trip_cancel.snapshot");
  Checkpointer checkpointer(path, std::chrono::hours(24));
  RunContext ctx;
  ctx.SetCheckpointer(&checkpointer);
  CheckpointScope scope(&ctx, "algo.v1", 11);
  ASSERT_TRUE(
      scope.MaybeCheckpoint([](SnapshotWriter& w) { w.U64(1); }).ok());
  EXPECT_EQ(checkpointer.writes(), 0u);  // interval-gated: nothing yet
  ctx.RequestCancellation();
  ASSERT_TRUE(
      scope.MaybeCheckpoint([](SnapshotWriter& w) { w.U64(2); }).ok());
  EXPECT_EQ(checkpointer.writes(), 1u);
  // The flushed snapshot is complete and resumable.
  Checkpointer fresh(path, std::chrono::hours(24));
  ASSERT_TRUE(fresh.LoadForResume().ok());
  EXPECT_TRUE(fresh.has_resume());
  std::remove(path.c_str());
}

TEST(CheckpointerTest, ExhaustedWorkBudgetForcesAFlushInsideTheInterval) {
  std::string path = TestTempPath("trip_budget.snapshot");
  Checkpointer checkpointer(path, std::chrono::hours(24));
  RunContext ctx;
  ctx.SetWorkBudget(10);
  ctx.SetCheckpointer(&checkpointer);
  CheckpointScope scope(&ctx, "algo.v1", 12);
  ASSERT_TRUE(ctx.Charge(9).ok());
  ASSERT_TRUE(
      scope.MaybeCheckpoint([](SnapshotWriter& w) { w.U64(1); }).ok());
  EXPECT_EQ(checkpointer.writes(), 0u);  // budget not yet exhausted
  ASSERT_TRUE(ctx.Charge(1).ok());      // spends the last unit
  ASSERT_TRUE(
      scope.MaybeCheckpoint([](SnapshotWriter& w) { w.U64(2); }).ok());
  EXPECT_EQ(checkpointer.writes(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qrel
