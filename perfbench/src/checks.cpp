#include "checks.hpp"

#include <iomanip>
#include <sstream>

namespace perfbench {

namespace {

using scenario::Outcome;

bool is_causal(const Checked& c) {
  return c.point->spec.variant.protocol == runtime::ProtocolKind::kCausal;
}

std::uint64_t collect_ns(const scenario::RunResult& r) {
  std::uint64_t t = 0;
  for (const auto& rec : r.report.recoveries) {
    if (rec.complete()) t += static_cast<std::uint64_t>(rec.collect_ns());
  }
  return t;
}

}  // namespace

std::string nas_key(const scenario::ScenarioSpec& spec) {
  if (spec.workload.name != "nas") return "";
  return spec.workload.get_str("kernel", "cg") + ":" +
         spec.workload.get_str("class", "A") + ":" +
         spec.workload.get_str("scale", "1.0") + ":" +
         std::to_string(spec.nranks);
}

Failures check_completed(const std::vector<Checked>& pts) {
  Failures f;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (!pts[i].result->completed) f.push_back({i, "did not complete"});
  }
  return f;
}

Failures check_nas_checksums(
    const std::vector<Checked>& pts,
    const std::map<std::string, std::vector<std::uint64_t>>& p4) {
  Failures f;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::string key = nas_key(pts[i].point->spec);
    if (key.empty()) continue;
    const auto it = p4.find(key);
    if (it == p4.end() || it->second.empty()) {
      f.push_back({i, "no P4 reference for " + key});
    } else if (pts[i].result->checksums != it->second) {
      f.push_back({i, "checksums differ from P4 " + key});
    }
  }
  return f;
}

Failures check_recovered_exact(const std::vector<Checked>& pts) {
  Failures f;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const scenario::RunResult& r = *pts[i].result;
    if (!r.has_reference) continue;
    if (pts[i].point->spec.variant.protocol == runtime::ProtocolKind::kUlfm) {
      continue;
    }
    if (r.outcome() != Outcome::kRecoveredExact) {
      f.push_back({i, std::string("outcome ") + scenario::outcome_name(r.outcome()) +
                          ", expected recovered_exact"});
    }
  }
  return f;
}

Failures check_ulfm_shrunk(const std::vector<Checked>& pts) {
  Failures f;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].point->spec.variant.protocol != runtime::ProtocolKind::kUlfm) {
      continue;
    }
    const scenario::RunResult& r = *pts[i].result;
    const bool crashed = r.report.fault_counts.rank_crashes > 0;
    const bool shrunk = r.outcome() == Outcome::kCompletedShrunk;
    if (crashed != shrunk) {
      f.push_back({i, crashed ? "rank crashed but not completed_shrunk"
                              : "completed_shrunk without a rank crash"});
    }
  }
  return f;
}

Failures check_split_brain_merged(const std::vector<Checked>& pts) {
  Failures f;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].grid != "split_brain") continue;
    const auto& recs = pts[i].result->report.el_reconciles;
    if (recs.empty()) {
      f.push_back({i, "no EL reconcile"});
      continue;
    }
    for (const auto& rec : recs) {
      if (!rec.complete()) {
        f.push_back({i, "EL merge incomplete"});
        break;
      }
    }
  }
  return f;
}

Failures check_wire_bytes(const std::vector<Checked>& pts) {
  Failures f;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const scenario::RunResult& r = *pts[i].result;
    const ftapi::RankStats t = r.report.totals();
    if (r.wire_bytes < t.app_bytes_sent + t.pb_bytes_sent) {
      f.push_back({i, "wire bytes " + std::to_string(r.wire_bytes) +
                          " < app + piggyback bytes"});
    }
  }
  return f;
}

Failures check_fig7_fig9(const std::vector<Checked>& pts) {
  Failures f;
  for (const causal::StrategyKind k :
       {causal::StrategyKind::kVcausal, causal::StrategyKind::kManetho,
        causal::StrategyKind::kLogOn}) {
    std::size_t el = pts.size(), noel = pts.size();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].grid != "fig9" || !is_causal(pts[i])) continue;
      const auto& v = pts[i].point->spec.variant;
      if (v.strategy != k) continue;
      (v.event_logger ? el : noel) = i;
    }
    if (el == pts.size() && noel == pts.size()) continue;
    if (el == pts.size() || noel == pts.size()) {
      f.push_back({el == pts.size() ? noel : el, "EL/no-EL pair incomplete"});
      continue;
    }
    const scenario::RunResult& a = *pts[el].result;
    const scenario::RunResult& b = *pts[noel].result;
    const std::string name = causal::strategy_kind_name(k);
    if (!(a.report.piggyback_pct() < b.report.piggyback_pct())) {
      f.push_back({el, name + ": EL does not lower pb_pct (Fig. 7)"});
      f.push_back({noel, name + ": EL does not lower pb_pct (Fig. 7)"});
    }
    if (!(a.mops() > b.mops())) {
      f.push_back({el, name + ": EL does not raise Mop/s (Fig. 9)"});
      f.push_back({noel, name + ": EL does not raise Mop/s (Fig. 9)"});
    }
  }
  return f;
}

Failures check_fig10(const std::vector<Checked>& pts) {
  Failures f;
  // kernel -> largest rank count among its fig10 points.
  std::map<std::string, int> largest;
  for (const Checked& c : pts) {
    if (c.grid != "fig10") continue;
    const std::string kernel = c.point->spec.workload.get_str("kernel", "");
    int& n = largest[kernel];
    n = std::max(n, c.point->spec.nranks);
  }
  for (const auto& [kernel, n] : largest) {
    std::size_t el = pts.size(), noel = pts.size();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto& spec = pts[i].point->spec;
      if (pts[i].grid != "fig10" || spec.nranks != n ||
          spec.workload.get_str("kernel", "") != kernel) {
        continue;
      }
      (spec.variant.event_logger ? el : noel) = i;
    }
    if (el == pts.size() || noel == pts.size()) {
      f.push_back({el == pts.size() ? noel : el,
                   kernel + "/" + std::to_string(n) + ": EL/no-EL pair incomplete"});
      continue;
    }
    if (!(collect_ns(*pts[noel].result) > collect_ns(*pts[el].result))) {
      const std::string why = kernel + "/" + std::to_string(n) +
                              ": no-EL collect time does not exceed EL (Fig. 10)";
      f.push_back({el, why});
      f.push_back({noel, why});
    }
  }
  return f;
}

std::string sim_digest(const scenario::RunResult& r) {
  std::ostringstream o;
  const ftapi::RankStats t = r.report.totals();
  // Every double with all its digits: the ack-latency sum runs to 1e11 us.
  o << std::setprecision(17);
  o << r.completed << ' ' << r.report.completion_time << ' '
    << r.report.faults_injected << ' ' << r.wire_bytes << ' '
    << t.app_msgs_sent << ' ' << t.app_bytes_sent << ' ' << t.pb_events_sent
    << ' ' << t.pb_bytes_sent << ' ' << t.pb_send_cpu << ' ' << t.pb_recv_cpu
    << ' ' << t.pb_peak_msg_bytes << ' ' << t.el_ack_latency_us.count() << ' '
    << t.el_ack_latency_us.sum() << ' ' << t.recovery_events << ' '
    << r.report.el_stats.events_stored << ' ' << r.report.el_stats.acks_sent
    << ' ' << r.report.el_stats.peak_queue << ' ' << r.recovered_exact << ' '
    << r.reference_time << " |";
  for (const std::uint64_t c : r.checksums) o << ' ' << c;
  o << " |";
  for (const auto& rec : r.report.recoveries) {
    o << ' ' << rec.rank << ':' << rec.fault_at << ':' << rec.collect_at << ':'
      << rec.replay_done_at;
  }
  o << " | " << r.report.repairs.size() << ' ' << r.report.el_reconciles.size()
    << ' ' << r.report.promotions.size();
  return o.str();
}

Failures check_same_simulation(const std::vector<Checked>& a,
                               const std::vector<Checked>& b,
                               const std::string& what) {
  Failures f;
  if (a.size() != b.size()) {
    for (std::size_t i = 0; i < a.size(); ++i) f.push_back({i, what + ": point count differs"});
    return f;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (sim_digest(*a[i].result) != sim_digest(*b[i].result)) {
      f.push_back({i, what + ": simulated outcome differs"});
    }
  }
  return f;
}

Failures check_probe_totals(const std::vector<Checked>& pts,
                            const std::vector<ProbeTotals>& probes) {
  Failures f;
  for (std::size_t i = 0; i < pts.size() && i < probes.size(); ++i) {
    const ProbeTotals& p = probes[i];
    const ftapi::RankStats t = pts[i].result->report.totals();
    if (p.send_events != t.pb_events_sent || p.send_bytes != t.pb_bytes_sent) {
      f.push_back({i, "on_send piggyback totals differ from the report"});
    }
    if (is_causal(pts[i]) &&
        (p.build_events != t.pb_events_sent || p.build_bytes != t.pb_bytes_sent)) {
      f.push_back({i, "Strategy::build totals differ from the report"});
    }
    if (p.wire_failed > 0) {
      f.push_back({i, "piggyback wire check failed: " + p.first_wire_error});
    }
  }
  return f;
}

double pb_pct(const std::vector<const scenario::RunResult*>& results) {
  double app = 0, pb = 0;
  for (const scenario::RunResult* r : results) {
    const ftapi::RankStats t = r->report.totals();
    app += static_cast<double>(t.app_bytes_sent);
    pb += static_cast<double>(t.pb_bytes_sent);
  }
  return app > 0 ? 100.0 * pb / app : 0.0;
}

}  // namespace perfbench
