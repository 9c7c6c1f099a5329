#include "rounds.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "scenario/registry.hpp"

namespace perfbench {

namespace {

/// One expanded scenario file, optionally with some sweep axes replaced.
std::vector<Point> expand_file(
    const std::string& path, const std::string& grid,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& axes) {
  scenario::ScenarioSpec spec = scenario::parse_scenario_file(path);
  spec.quick.clear();
  for (const auto& [key, values] : axes) {
    auto it = std::find_if(spec.sweep.begin(), spec.sweep.end(),
                           [&](const auto& a) { return a.first == key; });
    if (it == spec.sweep.end()) {
      throw std::runtime_error(path + ": no sweep axis '" + key + "'");
    }
    it->second = values;
  }
  std::vector<Point> out;
  for (scenario::RunPoint& p : scenario::expand(spec)) {
    out.push_back(Point{std::move(p), grid});
  }
  return out;
}

/// The fig9 row the nas_variants workload runs: the grid's own LU panel.
std::string fig9_lu_panel(const std::string& path) {
  const scenario::ScenarioSpec spec = scenario::parse_scenario_file(path);
  for (const auto& [key, values] : spec.sweep) {
    if (key != "nas") continue;
    for (const std::string& v : values) {
      if (v.rfind("lu:A:", 0) == 0) return v;
    }
  }
  throw std::runtime_error(path + ": no lu:A panel in the nas axis");
}

struct Pass {
  runtime::ClusterReport report;
  std::uint64_t events = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
  std::vector<std::uint64_t> checksums;
  double flops = 0;
  std::string protocol_label;
  ProbeTotals probe;
};

std::uint32_t span_name(const char* name) { return spans().intern(name); }

/// Runs one pass; `shape`, when given, is the same pass in an earlier round
/// and cuts this one into slices.
Pass run_pass(const scenario::ScenarioSpec& spec, PointRun& acc,
              const PassShape* shape) {
  SpanLog& log = spans();
  probe_totals() = ProbeTotals{};
  Pass out;
  // Spans take the steady clock; setup_s and run_s take thread CPU time.
  const std::int64_t c0 = cpu_ns();
  log.open(span_name("runtime.construct"), now_ns(), SpanLog::Kind::kStructural);
  const scenario::WorkloadEntry& entry =
      scenario::workload_registry().at(spec.workload.name);
  scenario::WorkloadInstance wl = entry.make(spec);
  auto cluster = std::make_unique<runtime::Cluster>(scenario::lower(spec));
  log.close(now_ns());
  const std::int64_t c1 = cpu_ns();
  acc.rss_after_construct_mb = std::max(acc.rss_after_construct_mb, rss_now_mb());

  // The engine's sampler side-channel fires between events and schedules
  // nothing, so the cuts leave the simulation as it was.
  std::vector<std::int64_t> cuts;
  if (shape != nullptr) {
    const std::uint64_t n =
        std::clamp<std::uint64_t>(shape->events / kEventsPerSlice, 1, kMaxSlices);
    const sim::Time interval = std::max<sim::Time>(1, shape->end / static_cast<sim::Time>(n));
    cuts.reserve(n + 1);
    cluster->engine().set_sampler(interval, interval,
                                  [&cuts](sim::Time) { cuts.push_back(cpu_ns()); });
  }
  const std::int64_t c2 = cpu_ns();
  log.open(span_name("runtime.run"), now_ns(), SpanLog::Kind::kStructural);
  out.report = cluster->run(wl.app);
  log.close(now_ns());
  const std::int64_t c3 = cpu_ns();
  if (shape != nullptr) {
    std::int64_t from = c2;
    for (const std::int64_t c : cuts) {
      acc.slices.push_back(static_cast<double>(c - from) / 1e9);
      from = c;
    }
    acc.slices.push_back(static_cast<double>(c3 - from) / 1e9);
  }
  acc.passes.push_back(PassShape{cluster->engine().now(),
                                 cluster->engine().events_executed()});

  out.events = cluster->engine().events_executed();
  out.wire_bytes = cluster->network().bytes_sent();
  out.frames = cluster->network().frames_sent();
  out.protocol_label = cluster->protocol_label();
  if (wl.checksums) out.checksums = wl.checksums->checksums;
  out.flops = wl.flops;
  const std::int64_t t4 = now_ns();
  log.open(span_name("runtime.teardown"), t4, SpanLog::Kind::kStructural);
  cluster.reset();
  const std::int64_t t5 = now_ns();
  log.close(t5);

  acc.setup_s += static_cast<double>(c1 - c0) / 1e9;
  acc.run_s += static_cast<double>(c3 - c2) / 1e9;
  acc.events += out.events;
  out.probe = probe_totals();
  return out;
}

void adopt(scenario::RunResult& r, Pass&& pass, PointRun& acc) {
  r.completed = pass.report.completed;
  r.protocol_label = std::move(pass.protocol_label);
  r.report = std::move(pass.report);
  r.events_executed = pass.events;
  r.wire_bytes = pass.wire_bytes;
  r.checksums = std::move(pass.checksums);
  r.flops = pass.flops;
  acc.frames = pass.frames;
  acc.probe = std::move(pass.probe);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"pb_scale", "el_sharded",
                                                 "nas_variants", "recovery"};
  return names;
}

Workload load_workload(const std::string& name, const std::string& root,
                       std::uint64_t seed) {
  const std::string own = root + "/perfbench/scenarios/";
  const std::string bundled = root + "/scenarios/";
  Workload w;
  w.name = name;
  std::vector<Point> all;
  if (name == "pb_scale" || name == "el_sharded") {
    all = expand_file(own + name + ".scn", name, {});
  } else if (name == "nas_variants") {
    const std::string fig9 = bundled + "fig9.scn";
    all = expand_file(fig9, "fig9",
                      {{"nas", {fig9_lu_panel(fig9)}}, {"nranks", {"16"}}});
  } else if (name == "recovery") {
    for (const char* grid : {"fig10", "family_race", "split_brain"}) {
      std::vector<Point> g = expand_file(bundled + grid + ".scn", grid, {});
      all.insert(all.end(), std::make_move_iterator(g.begin()),
                 std::make_move_iterator(g.end()));
    }
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  for (Point& p : all) {
    if (p.run.skipped) continue;
    // The family_race and split_brain grids keep the seeds their scenario
    // files sweep: other seeds crash or miss recovered_exact (CHANGES.md).
    if (p.run.spec.workload.name == "nas") p.run.spec.seed = seed;
    w.points.push_back(std::move(p));
  }
  return w;
}

PointRun run_point(const Point& p, Mode mode, std::uint32_t point_id,
                   const PointRun* plan) {
  PointRun acc;
  // The plan's shape of the pass about to run, or null.
  const auto shape = [&]() -> const PassShape* {
    if (plan == nullptr || acc.passes.size() >= plan->passes.size()) return nullptr;
    return &plan->passes[acc.passes.size()];
  };
  scenario::RunResult& r = acc.result;
  r.label = p.run.label;
  r.axes = p.run.axes;

  scenario::ScenarioSpec spec = p.run.spec;
  spec.trace.enabled = mode == Mode::kLanes;
  spec.metrics.enabled = mode == Mode::kSampler;

  SpanLog& log = spans();
  log.set_point(point_id);
  const std::int64_t t0 = now_ns();
  log.open(span_name("point"), t0, SpanLog::Kind::kStructural);

  // Same pass structure as scenario::run_point().
  if (spec.faults.midrun_rank >= 0 || spec.compare_reference) {
    scenario::ScenarioSpec ref = spec;
    ref.compare_reference = false;
    ref.faults.faults.clear();
    ref.faults.faults_per_minute = 0.0;
    ref.faults.midrun_rank = -1;
    auto& inj = ref.faults.campaign.injections;
    inj.erase(std::remove_if(inj.begin(), inj.end(),
                             [](const fault::Injection& i) {
                               return i.target == fault::Target::kRank;
                             }),
              inj.end());
    const bool ref_is_measured =
        spec.faults.midrun_rank < 0 && spec.faults.faults.empty() &&
        spec.faults.faults_per_minute == 0.0 &&
        inj.size() == spec.faults.campaign.injections.size();
    Pass ref_pass = run_pass(ref, acc, shape());
    r.has_reference = true;
    r.reference_time = ref_pass.report.completion_time;
    r.reference_checksums = ref_pass.checksums;
    if (!ref_pass.report.completed || ref_is_measured) {
      adopt(r, std::move(ref_pass), acc);
      r.recovered_exact = ref_is_measured && r.completed && !r.checksums.empty();
      log.close(now_ns());
      return acc;
    }
    if (spec.faults.midrun_rank >= 0) {
      spec.faults.faults.push_back(runtime::FaultSpec{
          static_cast<sim::Time>(static_cast<double>(r.reference_time) *
                                 spec.faults.midrun_frac),
          spec.faults.midrun_rank});
      spec.faults.midrun_rank = -1;
    }
  }
  adopt(r, run_pass(spec, acc, shape()), acc);
  if (r.has_reference) {
    r.recovered_exact = !r.checksums.empty() && r.checksums == r.reference_checksums;
  }
  log.close(now_ns());
  return acc;
}

std::vector<PointRun> run_round(const Workload& w, Mode mode,
                                const std::vector<PointRun>* plan) {
  set_enabled(mode == Mode::kProbed);
  spans().set_recording(mode == Mode::kProbed);
  std::vector<PointRun> out;
  out.reserve(w.points.size());
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const PointRun* point_plan =
        plan != nullptr && i < plan->size() ? &(*plan)[i] : nullptr;
    out.push_back(run_point(w.points[i], mode, static_cast<std::uint32_t>(i + 1), point_plan));
  }
  set_enabled(false);
  spans().set_recording(false);
  return out;
}

std::vector<scenario::RunResult> library_round(const Workload& w) {
  std::vector<scenario::RunResult> out;
  out.reserve(w.points.size());
  for (const Point& p : w.points) {
    scenario::RunPoint point = p.run;
    point.spec.trace.enabled = false;
    point.spec.metrics.enabled = false;
    point.spec.trace_dir.clear();
    point.spec.metrics_dir.clear();
    out.push_back(scenario::run_point(point));
  }
  return out;
}

std::map<std::string, std::vector<std::uint64_t>> p4_references(
    const Workload& w) {
  std::map<std::string, std::vector<std::uint64_t>> out;
  for (const Point& p : w.points) {
    const std::string key = nas_key(p.run.spec);
    if (key.empty() || out.count(key)) continue;
    scenario::ScenarioSpec spec = p.run.spec;
    spec.variant = scenario::parse_variant("p4");
    spec.el_shards = 1;
    spec.el_standby = 0;
    spec.faults = scenario::FaultPlan{};
    spec.compare_reference = false;
    spec.ckpt_policy = ckpt::Policy::kNone;
    spec.ckpt_interval = 0;
    const scenario::WorkloadEntry& entry =
        scenario::workload_registry().at(spec.workload.name);
    scenario::WorkloadInstance wl = entry.make(spec);
    runtime::Cluster cluster(scenario::lower(spec));
    const runtime::ClusterReport rep = cluster.run(wl.app);
    out[key] = rep.completed && wl.checksums ? wl.checksums->checksums
                                             : std::vector<std::uint64_t>{};
  }
  return out;
}

std::vector<Checked> checked(const Workload& w, const std::vector<PointRun>& r) {
  std::vector<Checked> out;
  for (std::size_t i = 0; i < w.points.size() && i < r.size(); ++i) {
    out.push_back(Checked{&w.points[i].run, w.points[i].grid, &r[i].result});
  }
  return out;
}

double rss_now_mb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
