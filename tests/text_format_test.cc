#include "qrel/prob/text_format.h"

#include <gtest/gtest.h>

namespace qrel {
namespace {

constexpr char kSample[] = R"(
# A small unreliable graph database.
universe 4
relation E 2
relation S 1

fact E 0 1
fact E 1 2 err=0.1
fact S 0 err=1/3
absent S 3 err=1/2
)";

TEST(TextFormatTest, ParsesSample) {
  StatusOr<UnreliableDatabase> db = ParseUdb(kSample);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->universe_size(), 4);
  EXPECT_EQ(db->vocabulary().relation_count(), 2);

  int e = *db->vocabulary().FindRelation("E");
  int s = *db->vocabulary().FindRelation("S");
  EXPECT_TRUE(db->observed().AtomTrue(e, {0, 1}));
  EXPECT_TRUE(db->observed().AtomTrue(e, {1, 2}));
  EXPECT_TRUE(db->observed().AtomTrue(s, {0}));
  EXPECT_FALSE(db->observed().AtomTrue(s, {3}));

  EXPECT_EQ(db->model().ErrorOf(GroundAtom{e, {0, 1}}), Rational(0));
  EXPECT_EQ(db->model().ErrorOf(GroundAtom{e, {1, 2}}), Rational(1, 10));
  EXPECT_EQ(db->model().ErrorOf(GroundAtom{s, {0}}), Rational(1, 3));
  EXPECT_EQ(db->model().ErrorOf(GroundAtom{s, {3}}), Rational(1, 2));
}

TEST(TextFormatTest, RoundTripsThroughFormat) {
  UnreliableDatabase original = *ParseUdb(kSample);
  std::string serialized = FormatUdb(original);
  StatusOr<UnreliableDatabase> reparsed = ParseUdb(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(reparsed->observed() == original.observed());
  EXPECT_EQ(reparsed->model().entry_count(), original.model().entry_count());
  for (int id = 0; id < original.model().entry_count(); ++id) {
    const GroundAtom& atom = original.model().atom(id);
    EXPECT_EQ(reparsed->model().ErrorOf(atom), original.model().error(id));
  }
}

TEST(TextFormatTest, RejectsMissingUniverse) {
  EXPECT_FALSE(ParseUdb("relation E 2\n").ok());
  EXPECT_FALSE(ParseUdb("").ok());
}

TEST(TextFormatTest, RejectsFactBeforeUniverse) {
  StatusOr<UnreliableDatabase> db =
      ParseUdb("relation E 2\nfact E 0 1\nuniverse 4\n");
  EXPECT_FALSE(db.ok());
}

TEST(TextFormatTest, RejectsUnknownRelation) {
  StatusOr<UnreliableDatabase> db = ParseUdb("universe 2\nfact E 0 1\n");
  EXPECT_FALSE(db.ok());
  EXPECT_NE(db.status().message().find("unknown relation"), std::string::npos);
}

TEST(TextFormatTest, RejectsArityMismatch) {
  EXPECT_FALSE(ParseUdb("universe 2\nrelation E 2\nfact E 0\n").ok());
  EXPECT_FALSE(ParseUdb("universe 2\nrelation E 2\nfact E 0 1 1\n").ok());
}

TEST(TextFormatTest, RejectsElementOutsideUniverse) {
  EXPECT_FALSE(ParseUdb("universe 2\nrelation E 2\nfact E 0 2\n").ok());
}

TEST(TextFormatTest, RejectsBadProbability) {
  EXPECT_FALSE(
      ParseUdb("universe 2\nrelation E 2\nfact E 0 1 err=3/2\n").ok());
  EXPECT_FALSE(
      ParseUdb("universe 2\nrelation E 2\nfact E 0 1 err=abc\n").ok());
}

TEST(TextFormatTest, RejectsDuplicateRelation) {
  EXPECT_FALSE(ParseUdb("universe 2\nrelation E 2\nrelation E 1\n").ok());
}

TEST(TextFormatTest, RejectsUnknownDirective) {
  EXPECT_FALSE(ParseUdb("universe 2\nbogus E 0\n").ok());
}

TEST(TextFormatTest, ErrorsReportLineNumbers) {
  Status status = ParseUdb("universe 2\nrelation E 2\nfact E 0 9\n").status();
  EXPECT_NE(status.message().find("line 3"), std::string::npos);
}

TEST(TextFormatTest, RejectsDuplicateFactForSameAtom) {
  Status status =
      ParseUdb("universe 2\nrelation E 2\nfact E 0 1 err=1/4\n"
               "fact E 0 1 err=1/8\n")
          .status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("line 4"), std::string::npos);
  EXPECT_NE(status.message().find("already declared"), std::string::npos);
}

TEST(TextFormatTest, RejectsFactThenAbsentForSameAtom) {
  EXPECT_FALSE(ParseUdb("universe 2\nrelation S 1\nfact S 0\n"
                        "absent S 0 err=1/3\n")
                   .ok());
  EXPECT_FALSE(ParseUdb("universe 2\nrelation S 1\nabsent S 0 err=1/3\n"
                        "absent S 0 err=1/4\n")
                   .ok());
}

TEST(TextFormatTest, CapsLineLength) {
  std::string huge_line((1 << 16) + 1, 'x');
  Status status = ParseUdb("universe 2\n" + huge_line + "\n").status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
  EXPECT_NE(status.message().find("exceeds"), std::string::npos);
}

TEST(TextFormatTest, CapsTokenCount) {
  std::string many_tokens = "fact";
  for (int i = 0; i < (1 << 12) + 1; ++i) {
    many_tokens += " 0";
  }
  Status status =
      ParseUdb("universe 2\nrelation E 2\n" + many_tokens + "\n").status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 3"), std::string::npos);
  EXPECT_NE(status.message().find("tokens"), std::string::npos);
}

TEST(TextFormatTest, CommentsAndBlankLinesIgnored) {
  StatusOr<UnreliableDatabase> db = ParseUdb(
      "# leading comment\n"
      "\n"
      "universe 2   # trailing comment\n"
      "relation P 0\n"
      "fact P err=1/2\n");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  int p = *db->vocabulary().FindRelation("P");
  EXPECT_TRUE(db->observed().AtomTrue(p, {}));
  EXPECT_EQ(db->model().ErrorOf(GroundAtom{p, {}}), Rational(1, 2));
}

}  // namespace
}  // namespace qrel

#include "qrel/util/rng.h"

namespace qrel {
namespace {

// Property sweep: random databases round-trip exactly through the text
// format (structure, errors, exact rational probabilities).
class TextFormatRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextFormatRoundTripTest, RandomDatabasesRoundTrip) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    auto vocabulary = std::make_shared<Vocabulary>();
    int e = vocabulary->AddRelation("E", 2);
    int s = vocabulary->AddRelation("S", 1);
    int p = vocabulary->AddRelation("P", 0);
    int n = 2 + static_cast<int>(rng.NextBelow(6));
    Structure observed(vocabulary, n);
    for (Element i = 0; i < n; ++i) {
      for (Element j = 0; j < n; ++j) {
        if (rng.NextBernoulli(0.3)) observed.AddFact(e, {i, j});
      }
      if (rng.NextBernoulli(0.4)) observed.AddFact(s, {i});
    }
    if (rng.NextBernoulli(0.5)) observed.AddFact(p, {});
    UnreliableDatabase db(std::move(observed));
    for (int a = 0; a < 6; ++a) {
      int64_t den = 2 + static_cast<int64_t>(rng.NextBelow(97));
      Rational mu(static_cast<int64_t>(
                      rng.NextBelow(static_cast<uint64_t>(den) + 1)),
                  den);
      GroundAtom atom =
          rng.NextBernoulli(0.5)
              ? GroundAtom{e,
                           {static_cast<Element>(rng.NextBelow(n)),
                            static_cast<Element>(rng.NextBelow(n))}}
              : GroundAtom{s, {static_cast<Element>(rng.NextBelow(n))}};
      db.SetErrorProbability(atom, mu);
    }

    StatusOr<UnreliableDatabase> reparsed = ParseUdb(FormatUdb(db));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_TRUE(reparsed->observed() == db.observed());
    // Every stored error probability survives exactly (zero-probability
    // entries may be dropped by the serializer; they are semantically
    // absent anyway).
    for (int id = 0; id < db.model().entry_count(); ++id) {
      EXPECT_EQ(reparsed->model().ErrorOf(db.model().atom(id)),
                db.model().error(id));
    }
    for (int id = 0; id < reparsed->model().entry_count(); ++id) {
      EXPECT_EQ(db.model().ErrorOf(reparsed->model().atom(id)),
                reparsed->model().error(id));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextFormatRoundTripTest,
                         ::testing::Values(10u, 20u, 30u));

}  // namespace
}  // namespace qrel

#include <filesystem>
#include <fstream>

#include "qrel/util/fault_injection.h"
#include "temp_path.h"

namespace qrel {
namespace {

TEST(LoadUdbFileTest, MissingFileIsNotFoundWithPath) {
  std::string path = TestTempPath("definitely_missing.udb");
  StatusOr<UnreliableDatabase> db = LoadUdbFile(path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kNotFound);
  EXPECT_NE(db.status().message().find(path), std::string::npos);
}

TEST(LoadUdbFileTest, LoadsAValidFile) {
  std::string path = TestTempPath("load_udb_ok.udb");
  std::ofstream(path, std::ios::trunc) << kSample;
  StatusOr<UnreliableDatabase> db = LoadUdbFile(path);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->universe_size(), 4);
}

TEST(LoadUdbFileTest, ReadErrorIsNotConfusedWithNotFound) {
  // The deterministic fault site stands in for a mid-read I/O failure —
  // the status must be a non-kNotFound error naming the path.
  std::string path = TestTempPath("load_udb_read_fault.udb");
  std::ofstream(path, std::ios::trunc) << kSample;
  FaultInjector::Instance().Reset();
  FaultInjector::Instance().Arm("prob.load_udb.read", 1,
                                StatusCode::kInternal);
  StatusOr<UnreliableDatabase> db = LoadUdbFile(path);
  FaultInjector::Instance().Reset();
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInternal);
}

// Replays the malformed-input regression corpus (seeded from fuzz
// findings): every file must be rejected with a typed InvalidArgument
// that points at a line — and must never crash.
TEST(TextFormatTest, MalformedCorpusIsRejectedWithoutCrashing) {
  std::filesystem::path corpus =
      std::filesystem::path(QREL_TESTDATA_DIR) / "bad_udb";
  ASSERT_TRUE(std::filesystem::is_directory(corpus)) << corpus;
  int checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".udb") {
      continue;
    }
    std::ifstream in(entry.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Status status = ParseUdb(text).status();
    EXPECT_FALSE(status.ok()) << entry.path();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << entry.path();
    EXPECT_NE(status.message().find("line "), std::string::npos)
        << entry.path() << ": " << status.ToString();
    ++checked;
  }
  EXPECT_GE(checked, 6);
}

}  // namespace
}  // namespace qrel
