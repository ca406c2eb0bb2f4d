// Host-speed calibration. The shared hosts the benchmark runs on change
// speed by up to ~1.7x within seconds (frequency and neighbours), which
// would swamp any change to qrel itself. The benchmark therefore times a
// fixed reference kernel between segments of measured work (one engine op,
// or one second of serve_mix traffic), with nothing else running, and
// rescales each segment's times to the kernel's nominal speed. The kernel lives in its own translation unit with fixed
// optimisation flags (CMakeLists.txt), so no change to qrel moves it.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "harness.h"

namespace perfbench {

namespace {

constexpr int kKernelSteps = 24000;
constexpr int kKernelReps = 5;

std::atomic<uint64_t> sink{0};

// Integer arithmetic, data-dependent branches, reads and writes in a
// 32 KiB table and small heap allocations: the mix the engine's inner
// loops are made of.
uint64_t Kernel() {
  std::array<uint32_t, 8192> table;
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  std::vector<uint64_t> scratch;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  for (int i = 0; i < kKernelSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint32_t& slot = table[x & (table.size() - 1)];
    acc += static_cast<uint64_t>(slot) * (x | 1);
    slot = static_cast<uint32_t>(acc >> 17);
    if ((acc & 3) == 0) {
      scratch.push_back(acc);
    }
    if (scratch.size() == 64) {
      acc ^= scratch[x % 64];
      scratch = std::vector<uint64_t>();
    }
  }
  return acc;
}

}  // namespace

double SpeedFactor() {
  std::array<double, kKernelReps> ns;
  for (double& t : ns) {
    int64_t begin = NowNs();
    sink.fetch_add(Kernel(), std::memory_order_relaxed);
    t = static_cast<double>(NowNs() - begin);
  }
  std::nth_element(ns.begin(), ns.begin() + kKernelReps / 2, ns.end());
  return kKernelNominalNs / ns[kKernelReps / 2];
}

}  // namespace perfbench
