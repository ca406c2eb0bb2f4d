#include "qrel/metafinite/text_format.h"

#include <gtest/gtest.h>

#include "qrel/metafinite/reliability.h"
#include "qrel/metafinite/term.h"
#include "qrel/util/fault_injection.h"
#include "temp_path.h"

namespace qrel {
namespace {

constexpr char kSample[] = R"(
# payroll with OCR ambiguity
universe 3
function salary 1
function bonus 0

value salary 0 = 3200
value salary 1 = 4100.5
value salary 2 = 9/2
value bonus = 100

dist salary 0 : 3200 @ 9/10, 8200 @ 1/10
dist bonus : 100 @ 1/2, 0 @ 1/3, 250 @ 1/6
)";

TEST(MfdbTextFormatTest, ParsesSample) {
  StatusOr<UnreliableFunctionalDatabase> db = ParseMfdb(kSample);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->universe_size(), 3);
  int salary = *db->vocabulary().FindFunction("salary");
  int bonus = *db->vocabulary().FindFunction("bonus");
  EXPECT_EQ(db->observed().Value(salary, {0}), Rational(3200));
  EXPECT_EQ(db->observed().Value(salary, {1}), Rational(8201, 2));
  EXPECT_EQ(db->observed().Value(salary, {2}), Rational(9, 2));
  EXPECT_EQ(db->observed().Value(bonus, {}), Rational(100));
  EXPECT_EQ(db->uncertain_entry_count(), 2);
  const ValueDistribution& d = db->distribution(
      *db->FindUncertainEntry(FunctionEntry{bonus, {}}));
  ASSERT_EQ(d.outcomes.size(), 3u);
  EXPECT_EQ(d.outcomes[1].probability, Rational(1, 3));
}

TEST(MfdbTextFormatTest, RoundTripsThroughFormat) {
  UnreliableFunctionalDatabase original = *ParseMfdb(kSample);
  std::string serialized = FormatMfdb(original);
  StatusOr<UnreliableFunctionalDatabase> reparsed = ParseMfdb(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->universe_size(), original.universe_size());
  EXPECT_EQ(reparsed->uncertain_entry_count(),
            original.uncertain_entry_count());
  // Semantically identical: same reliability for a probe query.
  MTermPtr probe = MAdd(MSum("y", MApply("salary", {Term::Var("y")})),
                        MApply("bonus", {}));
  FunctionalReliabilityReport a = *ExactFunctionalReliability(probe, original);
  FunctionalReliabilityReport b = *ExactFunctionalReliability(probe, *reparsed);
  EXPECT_EQ(a.expected_error, b.expected_error);
}

TEST(MfdbTextFormatTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseMfdb("").ok());
  EXPECT_FALSE(ParseMfdb("function f 1\n").ok());  // no universe
  EXPECT_FALSE(ParseMfdb("universe 2\nvalue f 0 = 1\n").ok());  // unknown f
  EXPECT_FALSE(
      ParseMfdb("universe 2\nfunction f 1\nvalue f 5 = 1\n").ok());
  EXPECT_FALSE(
      ParseMfdb("universe 2\nfunction f 1\nvalue f 0 = abc\n").ok());
  EXPECT_FALSE(
      ParseMfdb("universe 2\nfunction f 1\nvalue f 0\n").ok());
  EXPECT_FALSE(ParseMfdb("universe 2\nbogus f\n").ok());
  EXPECT_FALSE(ParseMfdb("universe 2\nfunction f 1\nfunction f 2\n").ok());
}

TEST(MfdbTextFormatTest, RejectsBadDistributions) {
  // Probabilities not summing to 1.
  EXPECT_FALSE(ParseMfdb("universe 2\nfunction f 1\n"
                         "dist f 0 : 1 @ 1/2, 2 @ 1/3\n")
                   .ok());
  // Duplicate outcome values.
  EXPECT_FALSE(ParseMfdb("universe 2\nfunction f 1\n"
                         "dist f 0 : 1 @ 1/2, 1 @ 1/2\n")
                   .ok());
  // Odd token count.
  EXPECT_FALSE(ParseMfdb("universe 2\nfunction f 1\n"
                         "dist f 0 : 1 @ 1/2, 2\n")
                   .ok());
  // Errors report the offending line.
  Status status = ParseMfdb("universe 2\nfunction f 1\n"
                            "dist f 0 : 1 @ 1/2, 2 @ 1/3\n")
                      .status();
  EXPECT_NE(status.message().find("line 3"), std::string::npos);
}

TEST(MfdbTextFormatTest, LoadMfdbFileReportsMissingFile) {
  std::string path = TestTempPath("definitely_missing.mfdb");
  StatusOr<UnreliableFunctionalDatabase> db = LoadMfdbFile(path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kNotFound);
  EXPECT_NE(db.status().message().find(path), std::string::npos);
}

TEST(MfdbTextFormatTest, LoadMfdbFileReadsThroughTheVfs) {
  std::string path = WriteTestTempFile("load_mfdb.mfdb", kSample);
  StatusOr<UnreliableFunctionalDatabase> loaded = LoadMfdbFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->universe_size(), 3);

  FaultInjector::Instance().Reset();
  FaultInjector::Instance().Arm("vfs.read", 1, StatusCode::kDataLoss);
  StatusOr<UnreliableFunctionalDatabase> faulted = LoadMfdbFile(path);
  FaultInjector::Instance().Reset();
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(faulted.status().message().find(path), std::string::npos);
}

}  // namespace
}  // namespace qrel
