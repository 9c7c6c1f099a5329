// The benchmark's workloads and the timed execution of their points.
//
// A workload is a closed batch of scenario points run one after another on
// one thread. run_point() follows scenario::run_point() pass for pass (the
// rank-fault-free reference first where the point has one, then the
// measured pass) but times set-up, simulation and teardown of every pass
// separately, which the library's runner does not expose.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "probes.hpp"
#include "scenario/runner.hpp"

namespace perfbench {

struct Point {
  scenario::RunPoint run;
  std::string grid;  // the scenario the point was expanded from
};

struct Workload {
  std::string name;
  std::vector<Point> points;  // runnable points, in run order
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Loads and expands `name`'s scenarios from the checkout at `root`; the
/// points run in grid order. The seed becomes the cluster seed of every
/// NAS point. Throws std::runtime_error on an unknown name.
Workload load_workload(const std::string& name, const std::string& root,
                       std::uint64_t seed);

/// What a round switches on besides the plain library.
enum class Mode {
  kPlain,    // nothing: the end-to-end configuration
  kProbed,   // timing decorators + span log
  kLanes,    // per-rank trace lanes
  kSampler,  // metrics registry + virtual-time sampler
};

/// The simulated extent of one pass: where a later round cuts it into
/// slices.
struct PassShape {
  sim::Time end = 0;          // engine time when Cluster::run returned
  std::uint64_t events = 0;   // engine events of the pass
};

struct PointRun {
  scenario::RunResult result;
  double setup_s = 0;     // workload + lowering + Cluster construction, CPU s
  double run_s = 0;       // Cluster::run, every pass, CPU s
  std::vector<PassShape> passes;  // every pass, in run order
  // With a slice plan: the CPU s of each slice of each pass, in run order.
  // The slices cut every pass at fixed simulated times, so a slice does the
  // same simulated work in every round.
  std::vector<double> slices;
  double rss_after_construct_mb = 0;  // largest over the passes
  std::uint64_t events = 0;           // engine events, every pass
  std::uint64_t frames = 0;           // fabric frames, measured pass
  ProbeTotals probe;                  // measured pass (kProbed only)
};

/// Runs one point. In kProbed mode the point's spans carry `point_id`.
/// With `plan` (an earlier run of the same point), each pass is cut into
/// slices at fixed simulated times, one per kEventsPerSlice events of the
/// planned pass (at most kMaxSlices), and `slices` records their CPU time.
PointRun run_point(const Point& p, Mode mode, std::uint32_t point_id,
                   const PointRun* plan = nullptr);

inline constexpr std::uint64_t kEventsPerSlice = 20000;
inline constexpr std::uint64_t kMaxSlices = 128;

/// Runs every point once, in order; `plan`, when given, is an earlier round
/// of the same workload (see run_point).
std::vector<PointRun> run_round(const Workload& w, Mode mode,
                                const std::vector<PointRun>* plan = nullptr);

/// Every point once through the library's own scenario::run_point(), with
/// trace lanes and the sampler off as in a kPlain round. Its simulated
/// outcome must equal run_point()'s: that keeps this file's copy of the
/// pass structure tied to the library.
std::vector<scenario::RunResult> library_round(const Workload& w);

/// The P4 checksums of every distinct NAS configuration in `w`, keyed by
/// nas_key().
std::map<std::string, std::vector<std::uint64_t>> p4_references(
    const Workload& w);

/// Check view over a round's results.
std::vector<Checked> checked(const Workload& w, const std::vector<PointRun>& r);

/// Current resident set of this process, MB.
double rss_now_mb();
/// Peak resident set of this process so far, MB.
double rss_peak_mb();

}  // namespace perfbench
