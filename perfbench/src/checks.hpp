// Output checks. Each compares a workload's results against something
// computed apart from the measured run (a P4 run of the same kernel, the
// point's own fault-free reference pass, the other half of an EL/no-EL
// pair) or against a property the method must have. Every check returns
// the points it rejects; a rejected point counts as a failed operation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probes.hpp"
#include "scenario/runner.hpp"

namespace perfbench {

/// One point as the checks see it: where it came from and what it produced.
struct Checked {
  const scenario::RunPoint* point = nullptr;
  std::string grid;  // scenario the point was expanded from
  const scenario::RunResult* result = nullptr;
};

struct Failure {
  std::size_t index;  // into the checked vector
  std::string why;
};
using Failures = std::vector<Failure>;

/// "kernel:class:scale:nranks" of a NAS point, "" for other workloads.
std::string nas_key(const scenario::ScenarioSpec& spec);

/// Every point finished (none abandoned at max_sim_time).
Failures check_completed(const std::vector<Checked>& pts);

/// Every NAS point's per-rank checksums equal the P4 run of the same
/// kernel, class, scale and rank count (`p4` is keyed by nas_key()).
Failures check_nas_checksums(
    const std::vector<Checked>& pts,
    const std::map<std::string, std::vector<std::uint64_t>>& p4);

/// Every point with a fault-free reference pass in the logging,
/// coordinated and replica families is recovered_exact against it.
Failures check_recovered_exact(const std::vector<Checked>& pts);

/// A ULFM point ends completed_shrunk exactly when a rank crashed.
Failures check_ulfm_shrunk(const std::vector<Checked>& pts);

/// Every split_brain point reconciled its EL logs, and every merge is
/// complete.
Failures check_split_brain_merged(const std::vector<Checked>& pts);

/// Fabric bytes cover what the application and the piggybacks sent.
Failures check_wire_bytes(const std::vector<Checked>& pts);

/// Paper Fig. 7 and Fig. 9 on the fig9 points: for every causal strategy,
/// the EL variant has the lower piggyback share and the higher Mop/s.
Failures check_fig7_fig9(const std::vector<Checked>& pts);

/// Paper Fig. 10 on the fig10 points: at the largest rank count of each
/// kernel, collecting the events to replay takes longer without the EL.
Failures check_fig10(const std::vector<Checked>& pts);

/// The simulated outcome of one point, for exact comparison between two
/// executions (rounds, or a run with trace lanes / sampler on and off).
std::string sim_digest(const scenario::RunResult& r);

/// Points whose simulated outcome differs between `a` and `b` (same order).
Failures check_same_simulation(const std::vector<Checked>& a,
                               const std::vector<Checked>& b,
                               const std::string& what);

/// The traced pass's decorator totals agree with the report: on_send's
/// piggybacks add up to pb_events/pb_bytes on every point, and so do the
/// strategies' Work.events and build bytes on causal points. Every
/// captured piggyback passed check_piggyback().
Failures check_probe_totals(const std::vector<Checked>& pts,
                            const std::vector<ProbeTotals>& probes);

/// Piggybacked bytes as a share of application bytes over all points.
double pb_pct(const std::vector<const scenario::RunResult*>& results);

}  // namespace perfbench
