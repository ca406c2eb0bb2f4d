// First-order reliabilities and Thm 5.4 groundings against recorded
// results: every case of fo_golden_cases.h must render exactly the lines
// committed in tests/testdata/fo_reliability.txt and fo_groundings.txt
// (see tests/testdata/README.md for the revision that wrote them).

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fo_golden_cases.h"

namespace qrel {
namespace {

std::vector<std::string> ReadLines(const std::string& name) {
  std::ifstream in(std::string(QREL_TESTDATA_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

TEST(FoGoldenTest, ExactReliabilitiesMatchTheRecordedRun) {
  std::vector<std::string> recorded = ReadLines("fo_reliability.txt");
  ASSERT_EQ(recorded.size(),
            static_cast<size_t>(fo_golden::kRandomCaseCount));
  for (int i = 0; i < fo_golden::kRandomCaseCount; ++i) {
    EXPECT_EQ(fo_golden::RenderReliability(i),
              recorded[static_cast<size_t>(i)])
        << fo_golden::RandomCase(i).text;
  }
}

TEST(FoGoldenTest, GroundingsMatchTheRecordedRun) {
  std::vector<std::string> recorded = ReadLines("fo_groundings.txt");
  size_t next = 0;
  for (int i = 0; i < fo_golden::GroundingCaseCount(); ++i) {
    for (const std::string& line : fo_golden::RenderGrounding(i)) {
      ASSERT_LT(next, recorded.size()) << "case " << i;
      EXPECT_EQ(line, recorded[next]) << fo_golden::GroundingCase(i).text;
      ++next;
    }
  }
  EXPECT_EQ(next, recorded.size());
}

}  // namespace
}  // namespace qrel
