// The benchmark's own tests: every output check passes on a well-formed
// result and fails on a deliberately corrupted one (a flipped checksum
// byte, a dropped recovery, a piggyback one byte short, a swapped EL/no-EL
// ordering, ...). Run through selftest.py, which also checks the driver's
// metric list against BENCHMARK.json.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "causal/wire.hpp"
#include "checks.hpp"
#include "probes.hpp"
#include "rounds.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;
int g_checks = 0;

void expect(bool cond, const std::string& what) {
  ++g_checks;
  if (!cond) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

scenario::RunPoint nas_point(const std::string& variant, const std::string& kernel,
                             int nranks) {
  scenario::RunPoint p;
  p.spec.variant = scenario::parse_variant(variant);
  p.spec.nranks = nranks;
  p.spec.workload.name = "nas";
  p.spec.workload.params = {{"kernel", kernel}, {"class", "A"}, {"scale", "0.1"}};
  p.label = variant + "/" + kernel + "/" + std::to_string(nranks);
  return p;
}

scenario::RunPoint ring_point(const std::string& variant) {
  scenario::RunPoint p;
  p.spec.variant = scenario::parse_variant(variant);
  p.spec.nranks = 4;
  p.spec.workload.name = "ring";
  p.label = variant;
  return p;
}

/// A finished run with `app` application bytes and `pb` piggyback bytes.
scenario::RunResult finished(std::uint64_t app, std::uint64_t pb) {
  scenario::RunResult r;
  r.completed = true;
  r.report.completed = true;
  r.report.completion_time = 2 * sim::kSecond;
  ftapi::RankStats s;
  s.app_msgs_sent = 10;
  s.app_bytes_sent = app;
  s.pb_bytes_sent = pb;
  s.pb_events_sent = pb / 14;
  r.report.rank_stats = {s};
  r.wire_bytes = app + pb + 1000;
  r.checksums = {11, 22, 33, 44};
  r.flops = 1e9;
  return r;
}

fault::RecoveryRecord recovery(sim::Time collect) {
  fault::RecoveryRecord rec;
  rec.rank = 0;
  rec.fault_at = 1 * sim::kSecond;
  rec.restart_at = rec.fault_at + 250 * sim::kMillisecond;
  rec.image_at = rec.restart_at + sim::kMillisecond;
  rec.collect_at = rec.image_at + collect;
  rec.replay_done_at = rec.collect_at + 10 * sim::kMillisecond;
  return rec;
}

struct Set {
  std::vector<scenario::RunPoint> points;
  std::vector<std::string> grids;
  std::vector<scenario::RunResult> results;

  void add(scenario::RunPoint p, const std::string& grid, scenario::RunResult r) {
    points.push_back(std::move(p));
    grids.push_back(grid);
    results.push_back(std::move(r));
  }
  std::vector<Checked> view() const {
    std::vector<Checked> out;
    for (std::size_t i = 0; i < points.size(); ++i) {
      out.push_back(Checked{&points[i], grids[i], &results[i]});
    }
    return out;
  }
};

/// A check must accept `good` and reject `bad`.
void pass_then_fail(const std::string& name,
                    const std::function<Failures(const Set&)>& check,
                    const Set& good, const std::function<void(Set&)>& corrupt) {
  expect(check(good).empty(), name + ": accepts the well-formed result");
  Set bad = good;
  corrupt(bad);
  expect(!check(bad).empty(), name + ": rejects the corrupted result");
}

void test_nas_checksums() {
  Set s;
  s.add(nas_point("vcausal:el", "lu", 4), "pb_scale", finished(1000, 500));
  std::map<std::string, std::vector<std::uint64_t>> p4 = {
      {nas_key(s.points[0].spec), {11, 22, 33, 44}}};
  pass_then_fail(
      "nas checksums",
      [&](const Set& x) { return check_nas_checksums(x.view(), p4); }, s,
      [](Set& x) { x.results[0].checksums[2] ^= 0x1; });  // one flipped byte
  expect(!check_nas_checksums(s.view(), {}).empty(),
         "nas checksums: a missing P4 reference fails");
}

void test_recovered_exact() {
  Set s;
  scenario::RunResult r = finished(1000, 10);
  r.has_reference = true;
  r.reference_checksums = r.checksums;
  r.recovered_exact = true;
  r.report.fault_counts.rank_crashes = 1;
  r.report.recoveries = {recovery(5 * sim::kMillisecond)};
  s.add(ring_point("pessimistic"), "family_race", r);
  s.add(ring_point("coordinated"), "family_race", r);
  pass_then_fail("recovered_exact", [](const Set& x) { return check_recovered_exact(x.view()); },
                 s, [](Set& x) {
                   // The recovery was dropped: the run ended on different
                   // checksums than its fault-free reference.
                   x.results[1].recovered_exact = false;
                   x.results[1].checksums[0] ^= 0x100;
                 });
}

void test_ulfm() {
  Set s;
  scenario::RunResult crashed = finished(1000, 0);
  crashed.has_reference = true;
  crashed.report.fault_counts.rank_crashes = 1;
  fault::RepairRecord rep;
  rep.fault_at = sim::kSecond;
  rep.revoke_at = rep.fault_at + sim::kMillisecond;
  rep.repair_done_at = rep.revoke_at + 10 * sim::kMillisecond;
  crashed.report.repairs = {rep};
  scenario::RunResult clean = finished(1000, 0);
  clean.has_reference = true;
  clean.recovered_exact = true;
  s.add(ring_point("ulfm"), "family_race", crashed);
  s.add(ring_point("ulfm"), "family_race", clean);
  pass_then_fail("ulfm shrunk", [](const Set& x) { return check_ulfm_shrunk(x.view()); }, s,
                 [](Set& x) { x.results[0].report.repairs.clear(); });
  pass_then_fail("ulfm shrunk", [](const Set& x) { return check_ulfm_shrunk(x.view()); }, s,
                 [&](Set& x) { x.results[1].report.repairs = {rep}; });
}

void test_split_brain() {
  Set s;
  scenario::RunResult r = finished(1000, 10);
  fault::ElReconcileRecord rec;
  rec.cut_at = 30 * sim::kMillisecond;
  rec.suspect_at = 40 * sim::kMillisecond;
  rec.heal_at = 110 * sim::kMillisecond;
  rec.done_at = 112 * sim::kMillisecond;
  r.report.el_reconciles = {rec};
  s.add(ring_point("vcausal:el"), "split_brain", r);
  const auto check = [](const Set& x) { return check_split_brain_merged(x.view()); };
  pass_then_fail("split_brain merge", check, s,
                 [](Set& x) { x.results[0].report.el_reconciles[0].done_at = 0; });
  pass_then_fail("split_brain merge", check, s,
                 [](Set& x) { x.results[0].report.el_reconciles.clear(); });
}

void test_wire_bytes() {
  Set s;
  s.add(ring_point("vcausal:el"), "pb_scale", finished(1000, 400));
  pass_then_fail("wire bytes", [](const Set& x) { return check_wire_bytes(x.view()); }, s,
                 [](Set& x) { x.results[0].wire_bytes = 1399; });
}

Set fig9_set() {
  Set s;
  for (const char* strat : {"vcausal", "manetho", "logon"}) {
    scenario::RunResult el = finished(100000, 30000);
    el.report.completion_time = 2 * sim::kSecond;
    scenario::RunResult noel = finished(100000, 70000);
    noel.report.completion_time = 4 * sim::kSecond;
    s.add(nas_point(std::string(strat) + ":el", "lu", 16), "fig9", el);
    s.add(nas_point(std::string(strat) + ":noel", "lu", 16), "fig9", noel);
  }
  s.add(nas_point("p4", "lu", 16), "fig9", finished(100000, 0));
  return s;
}

void test_fig7_fig9() {
  const auto check = [](const Set& x) { return check_fig7_fig9(x.view()); };
  // Swapped EL/no-EL ordering, piggyback volume (Fig. 7).
  pass_then_fail("fig7", check, fig9_set(), [](Set& x) {
    std::swap(x.results[2].report.rank_stats, x.results[3].report.rank_stats);
  });
  // Swapped EL/no-EL ordering, completion time and so Mop/s (Fig. 9).
  pass_then_fail("fig9", check, fig9_set(), [](Set& x) {
    std::swap(x.results[4].report.completion_time, x.results[5].report.completion_time);
  });
  pass_then_fail("fig9 pair", check, fig9_set(), [](Set& x) {
    x.points.erase(x.points.begin() + 1);
    x.grids.erase(x.grids.begin() + 1);
    x.results.erase(x.results.begin() + 1);
  });
}

void test_fig10() {
  Set s;
  for (const int n : {4, 16}) {
    scenario::RunResult el = finished(1000, 10);
    el.report.recoveries = {recovery(5 * sim::kMillisecond)};
    scenario::RunResult noel = finished(1000, 50);
    noel.report.recoveries = {recovery(40 * sim::kMillisecond)};
    s.add(nas_point("vcausal:el", "cg", n), "fig10", el);
    s.add(nas_point("vcausal:noel", "cg", n), "fig10", noel);
  }
  const auto check = [](const Set& x) { return check_fig10(x.view()); };
  pass_then_fail("fig10", check, s, [](Set& x) {
    std::swap(x.results[2].report.recoveries, x.results[3].report.recoveries);
  });
  pass_then_fail("fig10 dropped recovery", check, s,
                 [](Set& x) { x.results[3].report.recoveries.clear(); });
  // Only the largest rank count is compared.
  Set small = s;
  std::swap(small.results[0].report.recoveries, small.results[1].report.recoveries);
  expect(check(small).empty(), "fig10: smaller rank counts are not compared");
}

void test_same_simulation() {
  Set s;
  s.add(ring_point("vcausal:el"), "pb_scale", finished(1000, 400));
  const auto check = [&s](const Set& x) {
    return check_same_simulation(s.view(), x.view(), "test");
  };
  pass_then_fail("same simulation", check, s,
                 [](Set& x) { x.results[0].report.completion_time += 1; });
  pass_then_fail("same simulation", check, s,
                 [](Set& x) { x.results[0].checksums[3] ^= 0x1; });
  // One microsecond more over 1e11 us of acks: beyond 6 significant digits.
  Set acks = s;
  acks.results[0].report.rank_stats[0].el_ack_latency_us.add(1e11);
  pass_then_fail("same simulation", [&acks](const Set& x) {
    return check_same_simulation(acks.view(), x.view(), "test");
  }, acks, [](Set& x) { x.results[0].report.rank_stats[0].el_ack_latency_us.add(1.0); });
}

/// The benchmark's run_point() and the library's scenario::run_point()
/// simulate the same thing on every kind of pass structure: no reference
/// (the plain ring), a midrun crash sized by a reference pass (Fig. 10),
/// and compare_reference with and without rank crashes (family_race).
void test_library_equivalence() {
  Workload w;
  w.name = "library";
  const char* grids[][2] = {
      {"fig10", "[scenario]\nname = t\nmidrun_fault_rank = 0\n"
                "[sweep]\nnas = lu:A:0.05\nnranks = 4\nvariant = vcausal:el, vcausal:noel\n"},
      {"family_race", "[scenario]\nname = t\nnranks = 8\nckpt_policy = round-robin\n"
                      "ckpt_interval = 100ms\ndetection_delay = 10ms\nmax_sim_time = 3s\n"
                      "compare_reference = true\nworkload = ring\nworkload.laps = 150\n"
                      "[sweep]\nvariant = vcausal:el, coordinated\n"
                      "faults.rank_rate = 0, 120\nseed = 1\n"},
  };
  for (const auto& [grid, text] : grids) {
    for (scenario::RunPoint& p : scenario::expand(scenario::parse_scenario_text(text))) {
      if (!p.skipped) w.points.push_back(Point{std::move(p), grid});
    }
  }
  expect(w.points.size() == 6, "library equivalence: six runnable points");
  const std::vector<PointRun> ours = run_round(w, Mode::kPlain);
  Set lib;
  for (const Point& p : w.points) lib.add(p.run, p.grid, scenario::run_point(p.run));
  expect(!lib.results[0].report.recoveries.empty(),
         "library equivalence: the midrun point recovers a rank");
  bool campaign_crash = false;
  for (const auto& r : lib.results) campaign_crash |= r.report.fault_counts.rank_crashes > 0;
  expect(campaign_crash, "library equivalence: some family_race point crashes a rank");
  pass_then_fail(
      "library equivalence",
      [&](const Set& x) { return check_same_simulation(checked(w, ours), x.view(), "lib"); },
      lib, [](Set& x) {
        // A copy that skipped the midrun crash: its run is the reference.
        x.results[0].report.recoveries.clear();
      });
}

void test_probe_totals() {
  Set s;
  s.add(ring_point("vcausal:el"), "pb_scale", finished(1000, 420));
  ProbeTotals p;
  p.build_events = p.send_events = 30;
  p.build_bytes = p.send_bytes = 420;
  const auto check = [&p](const Set& x) { return check_probe_totals(x.view(), {p}); };
  pass_then_fail("probe totals", check, s,
                 [](Set& x) { x.results[0].report.rank_stats[0].pb_bytes_sent -= 1; });
  pass_then_fail("probe totals", check, s,
                 [](Set& x) { x.results[0].report.rank_stats[0].pb_events_sent += 1; });
  ProbeTotals wire_bad = p;
  wire_bad.wire_failed = 1;
  expect(!check_probe_totals(s.view(), {wire_bad}).empty(),
         "probe totals: a failed wire check fails the point");
}

std::vector<ftapi::Determinant> events() {
  std::vector<ftapi::Determinant> ev;
  for (std::uint32_t c = 0; c < 3; ++c) {
    for (std::uint64_t s = 5; s < 9; ++s) {
      ftapi::Determinant d;
      d.creator = c;
      d.seq = s;
      d.src = (c + 1) % 4;
      d.ssn = 100 + s;
      d.tag = 7;
      ev.push_back(d);
    }
  }
  return ev;
}

void test_piggyback() {
  namespace wire = mpiv::causal::wire;
  const std::vector<ftapi::Determinant> ev = events();
  for (const auto kind : {causal::StrategyKind::kVcausal, causal::StrategyKind::kLogOn}) {
    const std::string name = causal::strategy_kind_name(kind);
    util::Buffer b;
    if (kind == causal::StrategyKind::kLogOn) {
      wire::plain_serialize(ev, b);
    } else {
      wire::factored_serialize(ev, b);
    }
    const std::vector<std::uint8_t> good = b.bytes();
    expect(check_piggyback(kind, good, ev.size(), nullptr, nullptr).empty(),
           name + " piggyback: well-formed bytes pass");
    std::vector<std::uint8_t> short_by_one = good;
    short_by_one.pop_back();
    expect(!check_piggyback(kind, short_by_one, ev.size(), nullptr, nullptr).empty(),
           name + " piggyback: one byte short fails");
    std::vector<std::uint8_t> long_by_one = good;
    long_by_one.push_back(0);
    expect(!check_piggyback(kind, long_by_one, ev.size(), nullptr, nullptr).empty(),
           name + " piggyback: one byte long fails");
    expect(!check_piggyback(kind, good, ev.size() + 1, nullptr, nullptr).empty(),
           name + " piggyback: an event count other than Work.events fails");
    expect(!check_piggyback(kind, {}, 0, nullptr, nullptr).empty(),
           name + " piggyback: an empty buffer fails");
  }
  // A factored run split into two blocks parses, but does not re-serialize
  // to the same bytes.
  util::Buffer split;
  split.put_u16(2);
  for (const std::uint64_t first : {5ULL, 6ULL}) {
    split.put_u16(0);
    split.put_u16(1);
    split.put_u64(first);
    split.put_u16(1);
    split.put_u64(42);
    split.put_u32(3);
  }
  expect(!check_piggyback(causal::StrategyKind::kManetho, split.bytes(), 2, nullptr,
                          nullptr)
              .empty(),
         "manetho piggyback: a non-maximal block split fails");
}

}  // namespace

int main() {
  test_nas_checksums();
  test_recovered_exact();
  test_ulfm();
  test_split_brain();
  test_wire_bytes();
  test_fig7_fig9();
  test_fig10();
  test_same_simulation();
  test_library_equivalence();
  test_probe_totals();
  test_piggyback();
  std::printf("perfbench_tests: %d/%d expectations held\n", g_checks - g_failures,
              g_checks);
  return g_failures == 0 ? 0 : 1;
}
