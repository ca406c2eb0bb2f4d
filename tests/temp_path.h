// Per-test scratch paths. gtest_discover_tests runs every test case as its
// own process and `ctest -j` runs those processes in parallel, so a fixed
// file name under ::testing::TempDir() would be shared by cases running at
// the same time (and by two runs of the suite on one machine). These
// helpers fold the running test's full name and the pid into the path.

#ifndef QREL_TESTS_TEMP_PATH_H_
#define QREL_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <fstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace qrel {

// ::testing::TempDir()/<suite>.<test>.<pid>.<name>, unique to the running
// test case (parameterized names have their '/' replaced).
inline std::string TestTempPath(std::string_view name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test =
      info != nullptr
          ? std::string(info->test_suite_name()) + "." + info->name()
          : std::string("no_test");
  for (char& ch : test) {
    if (ch == '/') ch = '_';
  }
  return ::testing::TempDir() + "/" + test + "." +
         std::to_string(::getpid()) + "." + std::string(name);
}

// Writes `text` to TestTempPath(name), replacing earlier content, and
// returns the path.
inline std::string WriteTestTempFile(std::string_view name,
                                     std::string_view text) {
  std::string path = TestTempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  EXPECT_TRUE(out.good()) << "cannot write " << path;
  return path;
}

}  // namespace qrel

#endif  // QREL_TESTS_TEMP_PATH_H_
