#include "calibrate.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "probes.hpp"

namespace perfbench {

namespace {
volatile std::uint64_t g_sink;
}  // namespace

double calibration_s() {
  const std::int64_t c0 = cpu_ns();
  std::mt19937_64 rng(7);
  std::map<std::uint64_t, std::uint64_t> tree;
  std::uint64_t sum = 0;
  for (int i = 0; i < 50000; ++i) tree[rng() % 1000000] += static_cast<std::uint64_t>(i);
  for (int i = 0; i < 50000; ++i) {
    const auto it = tree.find(rng() % 1000000);
    if (it != tree.end()) sum += it->second;
  }
  std::vector<std::uint64_t> v(250000);
  for (std::uint64_t& x : v) x = rng();
  std::sort(v.begin(), v.end());
  g_sink = sum + v[v.size() / 2];
  return static_cast<double>(cpu_ns() - c0) / 1e9;
}

}  // namespace perfbench
