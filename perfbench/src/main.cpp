// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--root DIR] [--out-dir DIR]
//   perfbench --list-metrics
//
// --trace 0 runs an untimed warm-up round, then whole sliced and calibrated
// rounds of the workload's points until S seconds have passed, and prints
// the end-to-end metrics; --trace 1 runs cycles of five rounds (decorated
// with spans, plain, trace lanes on, sampler on, plain) and prints the
// per-layer metrics. Either way the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; progress goes to
// stderr. run.py builds this binary and passes --root and --out-dir (where
// the traced run writes its span log).
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "checks.hpp"
#include "probes.hpp"
#include "rounds.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  bool end_to_end;
};

// The single list of what the driver prints; BENCHMARK.json declares the
// same names and units (selftest.py compares the two).
const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower", true},
      {"run_s", "s", "lower", true},
      {"peak_rss_mb", "MB", "lower", true},
      {"sim_time_s", "sim_s", "lower", true},
      {"pb_pct", "%", "lower", true},
      {"el_ack_mean_ms", "sim_ms", "lower", true},

      {"scenario.points", "count", "lower", false},
      {"scenario.load_s", "s", "lower", false},
      {"runtime.construct_s", "s", "lower", false},
      {"runtime.rss_after_construct_mb", "MB", "lower", false},
      {"runtime.teardown_s", "s", "lower", false},
      {"runtime.run_s", "s", "lower", false},
      {"runtime.run_self_s", "s", "lower", false},
      {"sim.events", "count", "lower", false},
      {"sim.events_per_s", "1/s", "higher", false},
      {"net.frames", "count", "lower", false},
      {"net.wire_bytes", "B", "lower", false},
      {"mpi.app_msgs", "count", "lower", false},
      {"mpi.app_bytes", "B", "lower", false},
      {"ftapi.on_send_s", "s", "lower", false},
      {"ftapi.on_send_calls", "count", "lower", false},
      {"ftapi.on_packet_s", "s", "lower", false},
      {"ftapi.on_packet_calls", "count", "lower", false},
      {"ftapi.on_deliver_s", "s", "lower", false},
      {"ftapi.on_deliver_calls", "count", "lower", false},
      {"ftapi.on_ctl_s", "s", "lower", false},
      {"ftapi.on_ctl_calls", "count", "lower", false},
      {"causal.build_s", "s", "lower", false},
      {"causal.build_calls", "count", "lower", false},
      {"causal.absorb_s", "s", "lower", false},
      {"causal.absorb_calls", "count", "lower", false},
      {"causal.build_pct.vcausal", "%", "lower", false},
      {"causal.build_pct.manetho", "%", "lower", false},
      {"causal.build_pct.logon", "%", "lower", false},
      {"causal.absorb_pct.vcausal", "%", "lower", false},
      {"causal.absorb_pct.manetho", "%", "lower", false},
      {"causal.absorb_pct.logon", "%", "lower", false},
      {"causal.pb_events", "count", "lower", false},
      {"causal.pb_bytes", "B", "lower", false},
      {"causal.pb_send_cpu_s", "sim_s", "lower", false},
      {"causal.pb_recv_cpu_s", "sim_s", "lower", false},
      {"causal.pb_peak_msg_bytes", "B", "lower", false},
      {"wire.encode_s", "s", "lower", false},
      {"wire.decode_s", "s", "lower", false},
      {"wire.bytes_per_event", "B/event", "lower", false},
      {"elog.events_stored", "count", "lower", false},
      {"elog.acks_sent", "count", "lower", false},
      {"elog.peak_queue", "count", "lower", false},
      {"elog.ack_p50_ms", "sim_ms", "lower", false},
      {"elog.ack_p99_ms", "sim_ms", "lower", false},
      {"fault.injected", "count", "lower", false},
      {"recovery.count", "count", "lower", false},
      {"recovery.events", "count", "lower", false},
      {"recovery.collect_ms", "sim_ms", "lower", false},
      {"recovery.replay_ms", "sim_ms", "lower", false},
      {"recovery.total_ms", "sim_ms", "lower", false},
      {"trace.overhead_s", "s", "lower", false},
      {"metrics.overhead_s", "s", "lower", false},
  };
  return defs;
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& values, bool end_to_end) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : metric_defs()) {
    if (d.end_to_end != end_to_end) continue;
    const auto it = values.find(d.name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not computed: ") + d.name);
    }
    if (!first) out += ", ";
    first = false;
    out += std::string("\"") + d.name + "\": {\"value\": " + num(it->second) +
           ", \"unit\": \"" + d.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void list_metrics() {
  std::string out = "{";
  for (const bool e2e : {true, false}) {
    out += e2e ? "\"end_to_end\": [" : ", \"per_layer\": [";
    bool first = true;
    for (const MetricDef& d : metric_defs()) {
      if (d.end_to_end != e2e) continue;
      if (!first) out += ", ";
      first = false;
      out += std::string("{\"name\": \"") + d.name + "\", \"unit\": \"" + d.unit +
             "\", \"better\": \"" + d.better + "\"}";
    }
    out += "]";
  }
  out += ", \"workloads\": [";
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    out += (i ? ", \"" : "\"") + workload_names()[i] + "\"";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double sum_run_s(const std::vector<PointRun>& round) {
  double s = 0;
  for (const PointRun& p : round) s += p.run_s;
  return s;
}

/// Runs every output check on one round; returns the failing point indices
/// (and reports why on stderr).
std::set<std::size_t> check_round(const Workload& w,
                                  const std::vector<PointRun>& round,
                                  const std::map<std::string, std::vector<std::uint64_t>>& p4) {
  const std::vector<Checked> pts = checked(w, round);
  std::set<std::size_t> bad;
  const auto take = [&](const Failures& f) {
    for (const Failure& x : f) {
      if (bad.insert(x.index).second) {
        std::fprintf(stderr, "perfbench: FAIL %s [%s]: %s\n",
                     pts[x.index].result->label.c_str(), pts[x.index].grid.c_str(),
                     x.why.c_str());
      }
    }
  };
  take(check_completed(pts));
  take(check_nas_checksums(pts, p4));
  take(check_recovered_exact(pts));
  take(check_ulfm_shrunk(pts));
  take(check_split_brain_merged(pts));
  take(check_wire_bytes(pts));
  take(check_fig7_fig9(pts));
  take(check_fig10(pts));
  return bad;
}

/// Points whose simulated outcome through the library's own
/// scenario::run_point() differs from `round`'s.
std::set<std::size_t> differing_from_library(const Workload& w,
                                             const std::vector<PointRun>& round) {
  const std::vector<scenario::RunResult> lib = library_round(w);
  std::vector<Checked> lib_view;
  for (std::size_t i = 0; i < w.points.size() && i < lib.size(); ++i) {
    lib_view.push_back(Checked{&w.points[i].run, w.points[i].grid, &lib[i]});
  }
  std::set<std::size_t> bad;
  for (const Failure& f :
       check_same_simulation(checked(w, round), lib_view, "scenario::run_point")) {
    if (bad.insert(f.index).second) {
      std::fprintf(stderr, "perfbench: FAIL %s: %s\n",
                   round[f.index].result.label.c_str(), f.why.c_str());
    }
  }
  return bad;
}

/// Points of `later` whose simulated outcome differs from `base`.
std::set<std::size_t> differing(const Workload& w, const std::vector<PointRun>& base,
                                const std::vector<PointRun>& later,
                                const std::string& what) {
  std::set<std::size_t> bad;
  for (const Failure& f : check_same_simulation(checked(w, base), checked(w, later), what)) {
    if (bad.insert(f.index).second) {
      std::fprintf(stderr, "perfbench: FAIL %s: %s\n",
                   base[f.index].result.label.c_str(), f.why.c_str());
    }
  }
  return bad;
}

std::vector<const scenario::RunResult*> results_of(const std::vector<PointRun>& round) {
  std::vector<const scenario::RunResult*> out;
  for (const PointRun& p : round) out.push_back(&p.result);
  return out;
}

/// The simulated and count metrics of one round (identical every round).
std::map<std::string, double> sim_metrics(const std::vector<PointRun>& round) {
  std::map<std::string, double> m;
  double sim_time = 0;
  ftapi::RankStats all;
  std::uint64_t events = 0, frames = 0, wire = 0, stored = 0, acks = 0, peak_q = 0;
  std::uint64_t injected = 0, recoveries = 0;
  double collect = 0, replay = 0, total = 0;
  for (const PointRun& p : round) {
    const scenario::RunResult& r = p.result;
    sim_time += sim::to_sec(r.report.completion_time);
    all.merge(r.report.totals());
    events += p.events;
    frames += p.frames;
    wire += r.wire_bytes;
    stored += r.report.el_stats.events_stored;
    acks += r.report.el_stats.acks_sent;
    peak_q = std::max(peak_q, r.report.el_stats.peak_queue);
    injected += r.report.faults_injected;
    for (const auto& rec : r.report.recoveries) {
      ++recoveries;
      if (!rec.complete()) continue;
      collect += sim::to_ms(rec.collect_ns());
      replay += sim::to_ms(rec.replay_ns());
      total += sim::to_ms(rec.total_ns());
    }
  }
  const auto& ack = all.el_ack_latency_us;
  m["sim_time_s"] = sim_time;
  m["pb_pct"] = pb_pct(results_of(round));
  m["el_ack_mean_ms"] = ack.count() ? ack.sum() / static_cast<double>(ack.count()) / 1e3 : 0.0;
  m["sim.events"] = static_cast<double>(events);
  m["net.frames"] = static_cast<double>(frames);
  m["net.wire_bytes"] = static_cast<double>(wire);
  m["mpi.app_msgs"] = static_cast<double>(all.app_msgs_sent);
  m["mpi.app_bytes"] = static_cast<double>(all.app_bytes_sent);
  m["causal.pb_events"] = static_cast<double>(all.pb_events_sent);
  m["causal.pb_bytes"] = static_cast<double>(all.pb_bytes_sent);
  m["causal.pb_send_cpu_s"] = sim::to_sec(all.pb_send_cpu);
  m["causal.pb_recv_cpu_s"] = sim::to_sec(all.pb_recv_cpu);
  m["causal.pb_peak_msg_bytes"] = static_cast<double>(all.pb_peak_msg_bytes);
  m["wire.bytes_per_event"] =
      all.pb_events_sent ? static_cast<double>(all.pb_bytes_sent) /
                               static_cast<double>(all.pb_events_sent)
                         : 0.0;
  m["elog.events_stored"] = static_cast<double>(stored);
  m["elog.acks_sent"] = static_cast<double>(acks);
  m["elog.peak_queue"] = static_cast<double>(peak_q);
  m["elog.ack_p50_ms"] = ack.p50() / 1e3;
  m["elog.ack_p99_ms"] = ack.p99() / 1e3;
  m["fault.injected"] = static_cast<double>(injected);
  m["recovery.count"] = static_cast<double>(recoveries);
  m["recovery.events"] = static_cast<double>(all.recovery_events);
  m["recovery.collect_ms"] = collect;
  m["recovery.replay_ms"] = replay;
  m["recovery.total_ms"] = total;
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string out_dir;
  bool list = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-metrics") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::runtime_error("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--root") {
      a.root = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (!a.list && !have_workload) throw std::runtime_error("--workload is required");
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

int run_end_to_end(const Args& a, const Workload& w, double load_cpu_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  // The first round is the warm-up: it gives the cold set-up sample, the
  // slice plan of every later round and the simulated outcome the checks
  // read. Its run time is not used.
  const std::vector<PointRun> first = run_round(w, Mode::kPlain);
  double setup_first = 0;
  for (const PointRun& p : first) setup_first += p.setup_s;
  std::vector<double> cal = {calibration_s()};
  // fastest[i][k] = slice k of point i, fastest over the timed rounds.
  std::vector<std::vector<double>> fastest(w.points.size());
  std::vector<double> round_s;
  std::uint64_t failed_later = 0;
  do {
    const std::vector<PointRun> round = run_round(w, Mode::kPlain, &first);
    round_s.push_back(sum_run_s(round));
    for (std::size_t i = 0; i < round.size(); ++i) {
      const std::vector<double>& s = round[i].slices;
      if (fastest[i].empty()) fastest[i] = s;
      // A differing slice count means a differing simulation, which
      // differing() below counts as failed.
      if (s.size() != fastest[i].size()) continue;
      for (std::size_t k = 0; k < s.size(); ++k) fastest[i][k] = std::min(fastest[i][k], s[k]);
    }
    failed_later +=
        differing(w, first, round, "round " + std::to_string(round_s.size() + 1)).size();
    cal.push_back(calibration_s());
  } while (now_ns() < deadline);
  const double peak_rss = rss_peak_mb();
  const auto p4 = p4_references(w);
  std::set<std::size_t> bad = check_round(w, first, p4);
  bad.merge(differing_from_library(w, first));

  const std::uint64_t rounds = round_s.size() + 1;
  const std::uint64_t attempted = rounds * w.points.size();
  const std::uint64_t failed = bad.size() * rounds + failed_later;
  std::map<std::string, double> m = sim_metrics(first);
  // Host times are scaled to the reference host's speed by the run's
  // fastest calibration (calibrate.hpp). A single calibration moves by ±15%
  // from one to the next; their floor is as steady as run_s's slices.
  const double cal_floor = *std::min_element(cal.begin(), cal.end());
  const double scale = kReferenceCalibrationS / cal_floor;
  m["setup_s"] = (load_cpu_s + setup_first) * scale;
  // Each slice's fastest round, summed. Other tenants of a shared host only
  // ever add time, in bursts shorter than a round and phases longer than
  // one; the fastest slice is the steadiest estimate of its own cost.
  double slice_floor = 0;
  for (const std::vector<double>& v : fastest) {
    for (const double s : v) slice_floor += s;
  }
  m["run_s"] = slice_floor * scale;
  m["peak_rss_mb"] = peak_rss;
  std::fprintf(stderr,
               "perfbench: %s: %zu points x %llu rounds (1 warm-up), set-up %.5f s, "
               "slice floor %.4f s, calibration floor %.4f s; CPU s per timed round:",
               w.name.c_str(), w.points.size(), static_cast<unsigned long long>(rounds),
               load_cpu_s + setup_first, slice_floor, cal_floor);
  for (const double s : round_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "; calibrations:");
  for (const double c : cal) std::fprintf(stderr, " %.4f", c);
  std::fprintf(stderr, "\n");
  print_result(failed == 0, attempted, failed, m, true);
  return 0;
}

int run_traced(const Args& a, const Workload& w, double load_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  std::vector<std::map<std::string, double>> cycles;
  std::vector<PointRun> probed0, plain0;
  std::set<std::size_t> bad;
  std::uint64_t failed_later = 0;
  do {
    const bool first = cycles.empty();
    std::vector<PointRun> probed = run_round(w, Mode::kProbed);
    const std::vector<SpanTotals> tot = spans().totals();
    if (first && !a.out_dir.empty()) {
      const std::string path = a.out_dir + "/spans-" + w.name + ".csv";
      if (!spans().write_csv(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
    spans().clear();
    std::vector<PointRun> plain = run_round(w, Mode::kPlain);
    const std::vector<PointRun> lanes = run_round(w, Mode::kLanes);
    const std::vector<PointRun> sampler = run_round(w, Mode::kSampler);
    // A second plain round brackets lanes and sampler, so drift over the
    // cycle cancels out of the overhead baselines.
    const std::vector<PointRun> plain2 = run_round(w, Mode::kPlain);
    const double base_s = (sum_run_s(plain) + sum_run_s(plain2)) / 2.0;
    std::fprintf(stderr,
                 "perfbench: cycle %zu run_s: spans %.3f plain %.3f lanes %.3f "
                 "sampler %.3f plain %.3f\n",
                 cycles.size() + 1, sum_run_s(probed), sum_run_s(plain),
                 sum_run_s(lanes), sum_run_s(sampler), sum_run_s(plain2));

    std::set<std::size_t> cycle_bad = differing(w, plain, probed, "spans on vs off");
    cycle_bad.merge(differing(w, plain, lanes, "trace lanes on vs off"));
    cycle_bad.merge(differing(w, plain, sampler, "metrics sampler on vs off"));
    cycle_bad.merge(differing(w, plain, plain2, "plain rounds"));
    std::vector<ProbeTotals> probes;
    for (const PointRun& p : probed) probes.push_back(p.probe);
    for (const Failure& f : check_probe_totals(checked(w, probed), probes)) {
      if (cycle_bad.insert(f.index).second) {
        std::fprintf(stderr, "perfbench: FAIL %s: %s\n",
                     probed[f.index].result.label.c_str(), f.why.c_str());
      }
    }

    const auto get = [&](const char* name) {
      return tot[spans().intern(name)];
    };
    std::map<std::string, double> c;
    c["runtime.construct_s"] = get("runtime.construct").net_s;
    c["runtime.teardown_s"] = get("runtime.teardown").net_s;
    c["runtime.run_s"] = get("runtime.run").net_s;
    c["runtime.run_self_s"] = get("runtime.run").self_s;
    std::uint64_t events = 0;
    for (const PointRun& p : plain) events += p.events;
    c["sim.events_per_s"] = static_cast<double>(events) / base_s;
    for (const char* hook : {"on_send", "on_packet", "on_deliver", "on_ctl"}) {
      const SpanTotals& t = get((std::string("ftapi.") + hook).c_str());
      c[std::string("ftapi.") + hook + "_s"] = t.net_s;
      c[std::string("ftapi.") + hook + "_calls"] = static_cast<double>(t.calls);
    }
    for (const char* op : {"build", "absorb"}) {
      double s = 0;
      std::uint64_t calls = 0;
      double per[3];
      const char* kinds[3] = {"vcausal", "manetho", "logon"};
      for (int k = 0; k < 3; ++k) {
        const SpanTotals& t = get((std::string("causal.") + op + "." + kinds[k]).c_str());
        per[k] = t.net_s;
        s += t.net_s;
        calls += t.calls;
      }
      c[std::string("causal.") + op + "_s"] = s;
      c[std::string("causal.") + op + "_calls"] = static_cast<double>(calls);
      for (int k = 0; k < 3; ++k) {
        c[std::string("causal.") + op + "_pct." + kinds[k]] = s > 0 ? 100.0 * per[k] / s : 0.0;
      }
    }
    c["wire.encode_s"] = get("wire.encode").net_s;
    c["wire.decode_s"] = get("wire.decode").net_s;
    c["trace.overhead_s"] = sum_run_s(lanes) - base_s;
    c["metrics.overhead_s"] = sum_run_s(sampler) - base_s;
    cycles.push_back(std::move(c));

    if (first) {
      const auto p4 = p4_references(w);
      bad = check_round(w, plain, p4);
      bad.merge(differing_from_library(w, plain));
      bad.insert(cycle_bad.begin(), cycle_bad.end());
      probed0 = std::move(probed);
      plain0 = std::move(plain);
    } else {
      cycle_bad.merge(differing(w, plain0, plain, "cycle " + std::to_string(cycles.size())));
      failed_later += cycle_bad.size();
    }
  } while (now_ns() < deadline);

  std::map<std::string, double> m = sim_metrics(plain0);
  for (const auto& [name, v] : cycles.front()) {
    std::vector<double> vals;
    for (const auto& c : cycles) vals.push_back(c.at(name));
    m[name] = median(vals);
  }
  // Resident set after construction, from the process's first round: later
  // rounds construct into heap the earlier ones freed.
  double rss = 0;
  for (const PointRun& p : probed0) rss = std::max(rss, p.rss_after_construct_mb);
  m["runtime.rss_after_construct_mb"] = rss;
  m["scenario.points"] = static_cast<double>(w.points.size());
  m["scenario.load_s"] = load_s;
  const std::uint64_t attempted = cycles.size() * w.points.size();
  const std::uint64_t failed = bad.size() * cycles.size() + failed_later;
  std::fprintf(stderr, "perfbench: %s traced: %zu points x %zu cycles\n",
               w.name.c_str(), w.points.size(), cycles.size());
  print_result(failed == 0, attempted, failed, m, false);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse_args(argc, argv);
    if (a.list) {
      list_metrics();
      return 0;
    }
    if (a.trace) install();
    spans().set_recording(a.trace);
    const std::int64_t c0 = cpu_ns();
    const std::int64_t t0 = now_ns();
    spans().open(spans().intern("scenario.load"), t0, SpanLog::Kind::kStructural);
    const Workload w = load_workload(a.workload, a.root, a.seed);
    const std::int64_t t1 = now_ns();
    spans().close(t1);
    const std::int64_t c1 = cpu_ns();
    spans().set_recording(false);
    if (w.points.empty()) throw std::runtime_error("workload has no runnable points");
    if (a.trace) return run_traced(a, w, static_cast<double>(t1 - t0) / 1e9);
    return run_end_to_end(a, w, static_cast<double>(c1 - c0) / 1e9);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
