// Prints one line per Datalog golden case (datalog_golden_cases.h):
//
//   datalog_golden_gen > tests/testdata/datalog_fixpoints.txt
//
// datalog_golden_test compares the current code's lines with that file.

#include <cstdio>

#include "datalog_golden_cases.h"

int main() {
  for (int i = 0; i < qrel::datalog_golden::kCaseCount; ++i) {
    std::printf("%s\n", qrel::datalog_golden::RenderCase(i).c_str());
  }
  return 0;
}
