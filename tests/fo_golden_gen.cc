// Prints the first-order golden tables (fo_golden_cases.h):
//
//   fo_golden_gen reliability > tests/testdata/fo_reliability.txt
//   fo_golden_gen grounding > tests/testdata/fo_groundings.txt
//
// fo_golden_test compares the current code's lines with those files.

#include <cstdio>
#include <string>

#include "fo_golden_cases.h"

int main(int argc, char** argv) {
  const std::string table = argc > 1 ? argv[1] : "";
  if (table == "reliability") {
    for (int i = 0; i < qrel::fo_golden::kRandomCaseCount; ++i) {
      std::printf("%s\n", qrel::fo_golden::RenderReliability(i).c_str());
    }
    return 0;
  }
  if (table == "grounding") {
    for (int i = 0; i < qrel::fo_golden::GroundingCaseCount(); ++i) {
      for (const std::string& line : qrel::fo_golden::RenderGrounding(i)) {
        std::printf("%s\n", line.c_str());
      }
    }
    return 0;
  }
  std::fprintf(stderr, "usage: fo_golden_gen reliability|grounding\n");
  return 2;
}
