// net/manifest: the durable catalog manifest and the idempotency journal.
// Round trips, the canonical-encoding fixpoint the fuzz harness relies
// on, the typed corruption taxonomy via full byte-flip and truncation
// sweeps over the serialized container, and the grammar rules (strict
// name ordering, version >= 1, bounded entry count, key validity).

#include "qrel/net/manifest.h"
#include "temp_path.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qrel {
namespace {

CatalogManifest SampleManifest() {
  CatalogManifest manifest;
  manifest.entries.push_back({"alpha", "/data/alpha.udb", 3, 0x1111});
  manifest.entries.push_back({"beta", "/data/beta.udb", 1, 0x2222});
  manifest.entries.push_back({"gamma.v2", "relative/path.udb", 17, 0x3333});
  return manifest;
}

IdempotencyRecord SampleRecord() {
  IdempotencyRecord record;
  record.key = "req-2024.retry_01";
  record.flight_key = 0xfeedface;
  record.store_key = 0xdeadbeef;
  record.db_fingerprint = 0xabcdef01;
  return record;
}

TEST(ManifestTest, EncodeDecodeRoundTrip) {
  CatalogManifest manifest = SampleManifest();
  StatusOr<CatalogManifest> decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->entries, manifest.entries);
}

TEST(ManifestTest, EmptyManifestRoundTrips) {
  StatusOr<CatalogManifest> decoded =
      DecodeManifest(EncodeManifest(CatalogManifest{}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->entries.empty());
}

TEST(ManifestTest, EncodingIsCanonical) {
  // Decode(Encode(x)) re-encodes byte-identically — with the container
  // layer included. This is the fixpoint the fuzz harness asserts on
  // arbitrary accepted inputs; strict name ordering, the recomputed
  // fingerprint, and work_spent == 0 make it hold by construction.
  SnapshotData data = EncodeManifest(SampleManifest());
  std::vector<uint8_t> bytes = EncodeSnapshot(data);
  StatusOr<SnapshotData> container = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(container.ok());
  StatusOr<CatalogManifest> manifest = DecodeManifest(*container);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(EncodeSnapshot(EncodeManifest(*manifest)), bytes);
}

TEST(ManifestTest, WrongKindIsInvalidArgument) {
  SnapshotData data = EncodeManifest(SampleManifest());
  data.kind = "something.else.v1";
  StatusOr<CatalogManifest> decoded = DecodeManifest(data);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ManifestTest, NonzeroWorkCounterIsDataLoss) {
  SnapshotData data = EncodeManifest(SampleManifest());
  data.work_spent = 5;
  StatusOr<CatalogManifest> decoded = DecodeManifest(data);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(ManifestTest, UnsortedEntriesAreDataLoss) {
  CatalogManifest manifest;
  manifest.entries.push_back({"beta", "/b.udb", 1, 2});
  manifest.entries.push_back({"alpha", "/a.udb", 1, 1});
  SnapshotData data = EncodeManifest(manifest);
  StatusOr<CatalogManifest> decoded = DecodeManifest(data);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(ManifestTest, DuplicateNamesAreDataLoss) {
  CatalogManifest manifest;
  manifest.entries.push_back({"alpha", "/a.udb", 1, 1});
  manifest.entries.push_back({"alpha", "/b.udb", 2, 2});
  StatusOr<CatalogManifest> decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(ManifestTest, VersionZeroIsDataLoss) {
  CatalogManifest manifest;
  manifest.entries.push_back({"alpha", "/a.udb", 0, 1});
  StatusOr<CatalogManifest> decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(ManifestTest, InvalidNameIsRejected) {
  CatalogManifest manifest;
  manifest.entries.push_back({"bad name!", "/a.udb", 1, 1});
  StatusOr<CatalogManifest> decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ManifestTest, OversizedEntryCountIsDataLoss) {
  // Hand-build a payload claiming more entries than the hard cap, without
  // materializing them.
  SnapshotWriter writer;
  writer.U32(static_cast<uint32_t>(kMaxManifestEntries + 1));
  SnapshotData data;
  data.kind = kCatalogManifestKind;
  data.fingerprint = 0;
  data.work_spent = 0;
  data.payload = writer.TakeBytes();
  StatusOr<CatalogManifest> decoded = DecodeManifest(data);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(ManifestTest, FingerprintMismatchIsDataLoss) {
  SnapshotData data = EncodeManifest(SampleManifest());
  data.fingerprint ^= 1;
  StatusOr<CatalogManifest> decoded = DecodeManifest(data);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

// --- Corruption corpus over the full serialized container ------------------

TEST(ManifestCorruptionTest, TruncationAtEveryLengthIsTyped) {
  std::vector<uint8_t> bytes = EncodeSnapshot(EncodeManifest(SampleManifest()));
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusOr<SnapshotData> container = DecodeSnapshot(bytes.data(), len);
    if (!container.ok()) {
      StatusCode code = container.status().code();
      EXPECT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kInvalidArgument)
          << "truncated to " << len << ": " << container.status().ToString();
      continue;
    }
    StatusOr<CatalogManifest> decoded = DecodeManifest(*container);
    ASSERT_FALSE(decoded.ok()) << "truncated to " << len << " decoded";
  }
}

TEST(ManifestCorruptionTest, EveryFlippedByteIsDetected) {
  std::vector<uint8_t> bytes = EncodeSnapshot(EncodeManifest(SampleManifest()));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x40;
    StatusOr<SnapshotData> container =
        DecodeSnapshot(corrupt.data(), corrupt.size());
    // The container checksum catches every flip below it; a flip that
    // somehow decoded at the container layer must still fail the manifest
    // fingerprint or grammar. No flip may produce a usable manifest.
    if (container.ok()) {
      StatusOr<CatalogManifest> decoded = DecodeManifest(*container);
      ASSERT_FALSE(decoded.ok()) << "flip at offset " << i << " decoded";
    }
  }
}

// --- File helpers ----------------------------------------------------------

TEST(ManifestFileTest, WriteReadRoundTripAndFreshIsNotFound) {
  std::string path = TestTempPath("manifest_test.manifest");
  StatusOr<CatalogManifest> fresh = ReadManifestFile(path + ".absent");
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kNotFound);

  CatalogManifest manifest = SampleManifest();
  ASSERT_TRUE(WriteManifestFile(path, manifest).ok());
  StatusOr<CatalogManifest> loaded = ReadManifestFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->entries, manifest.entries);
  std::remove(path.c_str());
}

// --- Idempotency journal ---------------------------------------------------

TEST(IdempotencyTest, RecordRoundTripsAndIsCanonical) {
  IdempotencyRecord record = SampleRecord();
  SnapshotData data = EncodeIdempotencyRecord(record);
  StatusOr<IdempotencyRecord> decoded = DecodeIdempotencyRecord(data);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, record);
  EXPECT_EQ(EncodeSnapshot(EncodeIdempotencyRecord(*decoded)),
            EncodeSnapshot(data));
}

TEST(IdempotencyTest, WrongKindAndTamperedFingerprintAreTyped) {
  SnapshotData data = EncodeIdempotencyRecord(SampleRecord());
  SnapshotData wrong_kind = data;
  wrong_kind.kind = kCatalogManifestKind;
  EXPECT_EQ(DecodeIdempotencyRecord(wrong_kind).status().code(),
            StatusCode::kInvalidArgument);
  SnapshotData tampered = data;
  tampered.fingerprint ^= 1;
  EXPECT_EQ(DecodeIdempotencyRecord(tampered).status().code(),
            StatusCode::kDataLoss);
}

TEST(IdempotencyTest, MalformedKeyInJournalIsDataLoss) {
  IdempotencyRecord record = SampleRecord();
  record.key = "spaces are invalid";
  StatusOr<IdempotencyRecord> decoded =
      DecodeIdempotencyRecord(EncodeIdempotencyRecord(record));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(IdempotencyTest, KeyGrammarMatchesCatalogNames) {
  EXPECT_TRUE(ValidIdempotencyKey("retry-1"));
  EXPECT_TRUE(ValidIdempotencyKey("a.b_c-d"));
  EXPECT_FALSE(ValidIdempotencyKey(""));
  EXPECT_FALSE(ValidIdempotencyKey("has space"));
  EXPECT_FALSE(ValidIdempotencyKey(std::string(65, 'k')));
  EXPECT_FALSE(ValidIdempotencyKey("semi;colon"));
}

TEST(IdempotencyTest, FileRoundTrip) {
  std::string path = TestTempPath("idem_test.idem");
  IdempotencyRecord record = SampleRecord();
  ASSERT_TRUE(WriteIdempotencyFile(path, record).ok());
  StatusOr<IdempotencyRecord> loaded = ReadIdempotencyFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, record);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qrel
