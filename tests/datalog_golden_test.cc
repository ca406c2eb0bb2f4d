// Datalog fixpoints and exact reliabilities against recorded results: every
// case of datalog_golden_cases.h must render exactly the line committed in
// tests/testdata/datalog_fixpoints.txt (see tests/testdata/README.md for
// the revision that wrote it).

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog_golden_cases.h"

namespace qrel {
namespace {

TEST(DatalogGoldenTest, FixpointsAndReliabilitiesMatchTheRecordedRun) {
  std::ifstream in(std::string(QREL_TESTDATA_DIR) + "/datalog_fixpoints.txt");
  ASSERT_TRUE(in.good());
  std::vector<std::string> recorded;
  for (std::string line; std::getline(in, line);) {
    recorded.push_back(line);
  }
  ASSERT_EQ(recorded.size(),
            static_cast<size_t>(datalog_golden::kCaseCount));
  for (int i = 0; i < datalog_golden::kCaseCount; ++i) {
    EXPECT_EQ(datalog_golden::RenderCase(i), recorded[static_cast<size_t>(i)])
        << datalog_golden::MakeCase(i).program;
  }
}

}  // namespace
}  // namespace qrel
