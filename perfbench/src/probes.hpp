// Host-time probes for the traced run: an in-memory span log and timing
// decorators around every ftapi::VProtocol and causal::Strategy instance.
//
// The decorators are put in from outside the simulator: install() swaps
// the `make` factory of every scenario::protocols() and
// scenario::strategies() entry for one that wraps the instance it returns.
// While probes are off (set_enabled(false)) the wrappers hand out the bare
// instance, so an untraced round runs exactly the library's code.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "causal/strategy.hpp"
#include "scenario/runner.hpp"

namespace perfbench {

namespace causal = mpiv::causal;
namespace ckpt = mpiv::ckpt;
namespace fault = mpiv::fault;
namespace ftapi = mpiv::ftapi;
namespace net = mpiv::net;
namespace runtime = mpiv::runtime;
namespace scenario = mpiv::scenario;
namespace sim = mpiv::sim;
namespace util = mpiv::util;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. The driver runs on one thread, so this
/// is its host time less what other tenants of the host take from it.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// One recorded interval. `parent` is the handle (index + 1) of the
/// enclosing recorded span, 0 for a root; `point` is the id shared by every
/// span of one run point (0 = outside any point).
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;
  std::uint32_t point = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals: calls, net duration (the benchmark's own probe work
/// removed) and self duration (net minus the net duration of children).
struct SpanTotals {
  std::uint64_t calls = 0;
  double net_s = 0;
  double self_s = 0;
};

/// The traced run's span log. Structural spans (scenario load, point,
/// Cluster construction / run / teardown) are kept one record each. Call
/// spans (every decorated hook and strategy call, millions per round) are
/// folded as they close into per-(point, name) totals, so self time is
/// exact without keeping a record per call. Probe spans are the
/// benchmark's own checking work: their time is removed from every
/// enclosing span that is not itself a probe.
class SpanLog {
 public:
  enum class Kind { kStructural, kCall, kProbe };

  /// Spans are taken only while recording; open/close are no-ops otherwise.
  void set_recording(bool on) { recording_ = on; }

  std::uint32_t intern(const std::string& name);

  /// Opens a span under the innermost open one. Spans close innermost first.
  void open(std::uint32_t name, std::int64_t t, Kind kind = Kind::kCall);
  void close(std::int64_t t);
  /// Sets the point id that spans opened from now on carry.
  void set_point(std::uint32_t point) { point_ = point; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Drops records and totals (interned names stay).
  void clear();

  /// Totals per interned name id (index = name id), over every point.
  std::vector<SpanTotals> totals() const;

  /// Writes the structural spans ("span,id,parent,point,name,start_ns,
  /// end_ns") and the folded call totals ("calls,point,name,calls,net_ns,
  /// self_ns").
  bool write_csv(const std::string& path) const;

 private:
  struct Frame {
    std::uint32_t name;
    Kind kind;
    std::int64_t start;
    std::uint32_t handle;    // record handle, 0 for call/probe spans
    double child_net = 0;    // net seconds of children
    double probe_in = 0;     // probe seconds inside, to remove from net
  };

  bool recording_ = false;
  std::uint32_t point_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  // (point, name) -> totals, for every closed span.
  std::vector<std::vector<SpanTotals>> by_point_;
};

SpanLog& spans();

/// Per-pass totals the decorators add up while enabled: what the strategies
/// returned, what on_send handed the rank runtime, and the outcome of the
/// wire round trip of every piggyback `build` produced.
struct ProbeTotals {
  std::uint64_t build_events = 0;
  std::uint64_t build_bytes = 0;
  std::uint64_t send_events = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t wire_checked = 0;
  std::uint64_t wire_failed = 0;
  std::string first_wire_error;
};

ProbeTotals& probe_totals();

/// Swaps the registry factories for wrapping ones (idempotent).
void install();
void set_enabled(bool on);

/// The wire check applied to every captured piggyback: the bytes must walk
/// as `kind`'s format with exactly the size the closed form in
/// causal/wire.hpp gives, parse back to `events` determinants, and
/// re-serialize to the same bytes. Returns "" when all hold, else why not.
/// `decode_ns`/`encode_ns` receive the parse and re-serialize times.
std::string check_piggyback(causal::StrategyKind kind,
                            const std::vector<std::uint8_t>& bytes,
                            std::uint64_t events, std::int64_t* decode_ns,
                            std::int64_t* encode_ns);

}  // namespace perfbench
