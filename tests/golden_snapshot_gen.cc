// Writes one mid-run snapshot per checkpoint payload kind (the cases in
// golden_snapshot_cases.h) into a directory:
//
//   golden_snapshot_gen tests/testdata/snapshots
//
// Each case runs with a zero-interval Checkpointer, so a checkpoint is
// written at every safe point, and is interrupted by its fault spec or
// work budget; the last checkpoint before the interruption is copied to
// <dir>/<kind>.snap. Exits nonzero if a case was not interrupted or left
// no snapshot.

#include <cstdio>
#include <filesystem>
#include <string>

#include "golden_snapshot_cases.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/snapshot.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path out_dir = argv[1];
  fs::create_directories(out_dir);
  int failures = 0;
  for (const qrel::golden::GoldenCase& c : qrel::golden::Cases()) {
    const fs::path scratch = out_dir / (std::string(c.kind) + ".tmp");
    fs::remove(scratch);
    qrel::FaultInjector::Instance().Reset();
    {
      qrel::Checkpointer checkpointer(scratch.string(),
                                      std::chrono::milliseconds(0));
      qrel::RunContext ctx;
      if (*c.fault_spec != '\0') {
        if (!qrel::ArmFaultFromSpec(c.fault_spec).ok()) {
          std::fprintf(stderr, "%s: bad fault spec\n", c.kind);
          return 2;
        }
      } else {
        ctx.SetWorkBudget(c.work_budget);
      }
      ctx.SetCheckpointer(&checkpointer);
      qrel::StatusOr<std::string> run = c.run(&ctx);
      if (run.ok() || checkpointer.writes() == 0) {
        std::fprintf(stderr, "%s: run was not interrupted mid-loop\n",
                     c.kind);
        ++failures;
        continue;
      }
    }
    qrel::FaultInjector::Instance().Reset();
    fs::rename(scratch, out_dir / (std::string(c.kind) + ".snap"));
    std::printf("%s\n", c.kind);
  }
  return failures == 0 ? 0 : 1;
}
