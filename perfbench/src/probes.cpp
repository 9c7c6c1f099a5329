#include "probes.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "causal/wire.hpp"
#include "ftapi/vprotocol.hpp"
#include "scenario/registry.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Span log
// ---------------------------------------------------------------------------

std::uint32_t SpanLog::intern(const std::string& name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanLog::open(std::uint32_t name, std::int64_t t, Kind kind) {
  if (!recording_) return;
  std::uint32_t handle = 0;
  if (kind == Kind::kStructural) {
    Span s;
    s.name = name;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->handle != 0) {
        s.parent = it->handle;
        break;
      }
    }
    s.point = point_;
    s.start_ns = t;
    s.end_ns = t;
    spans_.push_back(s);
    handle = static_cast<std::uint32_t>(spans_.size());
  }
  stack_.push_back(Frame{name, kind, t, handle});
}

void SpanLog::close(std::int64_t t) {
  if (!recording_ || stack_.empty()) return;
  const Frame f = stack_.back();
  stack_.pop_back();
  if (f.handle != 0) spans_[f.handle - 1].end_ns = t;
  const double raw = static_cast<double>(t - f.start) / 1e9;
  const double net = raw - f.probe_in;
  if (by_point_.size() <= point_) by_point_.resize(point_ + 1);
  std::vector<SpanTotals>& row = by_point_[point_];
  if (row.size() < names_.size()) row.resize(names_.size());
  SpanTotals& tot = row[f.name];
  ++tot.calls;
  tot.net_s += net;
  tot.self_s += net - f.child_net;
  if (stack_.empty()) return;
  Frame& parent = stack_.back();
  if (f.kind == Kind::kProbe && parent.kind != Kind::kProbe) {
    parent.probe_in += raw;
  } else {
    parent.child_net += net;
    parent.probe_in += f.probe_in;
  }
}

void SpanLog::clear() {
  spans_.clear();
  stack_.clear();
  by_point_.clear();
}

std::vector<SpanTotals> SpanLog::totals() const {
  std::vector<SpanTotals> out(names_.size());
  for (const std::vector<SpanTotals>& row : by_point_) {
    for (std::size_t n = 0; n < row.size(); ++n) {
      out[n].calls += row[n].calls;
      out[n].net_s += row[n].net_s;
      out[n].self_s += row[n].self_s;
    }
  }
  return out;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << "span,id,parent,point,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "span," << i + 1 << ',' << s.parent << ',' << s.point << ','
      << names_[s.name] << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  f << "calls,point,name,calls,net_ns,self_ns\n";
  for (std::size_t p = 0; p < by_point_.size(); ++p) {
    for (std::size_t n = 0; n < by_point_[p].size(); ++n) {
      const SpanTotals& t = by_point_[p][n];
      if (t.calls == 0) continue;
      f << "calls," << p << ',' << names_[n] << ',' << t.calls << ','
        << static_cast<std::int64_t>(t.net_s * 1e9) << ','
        << static_cast<std::int64_t>(t.self_s * 1e9) << '\n';
    }
  }
  return f.good();
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

ProbeTotals& probe_totals() {
  static ProbeTotals t;
  return t;
}

// ---------------------------------------------------------------------------
// Wire check
// ---------------------------------------------------------------------------

namespace {

std::uint16_t read_u16(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint16_t v;
  std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}

}  // namespace

std::string check_piggyback(causal::StrategyKind kind,
                            const std::vector<std::uint8_t>& bytes,
                            std::uint64_t events, std::int64_t* decode_ns,
                            std::int64_t* encode_ns) {
  namespace wire = mpiv::causal::wire;
  const bool plain = kind == causal::StrategyKind::kLogOn;
  if (bytes.size() < wire::kPlainHeader) return "shorter than its header";
  // Walk the headers first: the library's parsers abort on a short buffer.
  std::uint64_t walked_events = 0;
  std::uint64_t expect = 0;
  if (plain) {
    walked_events = read_u16(bytes, 0);
    expect = wire::kPlainHeader + walked_events * wire::kPlainPerEvent;
  } else {
    const std::uint16_t nblocks = read_u16(bytes, 0);
    expect = wire::kFactoredHeader;
    for (std::uint16_t b = 0; b < nblocks; ++b) {
      if (expect + wire::kFactoredBlockHeader > bytes.size()) {
        return "block " + std::to_string(b) + " header runs past the end";
      }
      const std::uint16_t count = read_u16(bytes, expect + 2);
      walked_events += count;
      expect += wire::kFactoredBlockHeader + count * wire::kFactoredPerEvent;
    }
  }
  if (expect != bytes.size()) {
    return "size " + std::to_string(bytes.size()) + " != closed form " +
           std::to_string(expect);
  }
  if (walked_events != events) {
    return "carries " + std::to_string(walked_events) + " events, Work.events " +
           std::to_string(events);
  }
  util::Buffer in{std::vector<std::uint8_t>(bytes)};
  const std::int64_t t0 = now_ns();
  const std::vector<ftapi::Determinant> parsed =
      plain ? wire::plain_parse(in) : wire::factored_parse(in);
  const std::int64_t t1 = now_ns();
  util::Buffer out;
  if (plain) {
    wire::plain_serialize(parsed, out);
  } else {
    wire::factored_serialize(parsed, out);
  }
  const std::int64_t t2 = now_ns();
  if (decode_ns) *decode_ns = t1 - t0;
  if (encode_ns) *encode_ns = t2 - t1;
  if (parsed.size() != events) {
    return "parsed " + std::to_string(parsed.size()) + " events, Work.events " +
           std::to_string(events);
  }
  if (out.bytes() != bytes) return "re-serialized bytes differ";
  return "";
}

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

namespace {

bool g_enabled = false;

struct Names {
  std::uint32_t on_send, on_packet, on_deliver, on_ctl, on_peer_checkpoint,
      bind, serialize, restore, reset;
  std::uint32_t build[3], absorb[3];
  std::uint32_t s_local, s_stable, s_peer_restart, s_attach, s_serialize,
      s_restore, s_reset;
  std::uint32_t wire_check, wire_decode, wire_encode;
};

const Names& names() {
  static const Names n = [] {
    SpanLog& l = spans();
    Names x{};
    x.on_send = l.intern("ftapi.on_send");
    x.on_packet = l.intern("ftapi.on_packet");
    x.on_deliver = l.intern("ftapi.on_deliver");
    x.on_ctl = l.intern("ftapi.on_ctl");
    x.on_peer_checkpoint = l.intern("ftapi.on_peer_checkpoint");
    x.bind = l.intern("ftapi.bind");
    x.serialize = l.intern("ftapi.serialize");
    x.restore = l.intern("ftapi.restore");
    x.reset = l.intern("ftapi.reset");
    const char* kinds[3] = {"vcausal", "manetho", "logon"};
    for (int k = 0; k < 3; ++k) {
      x.build[k] = l.intern(std::string("causal.build.") + kinds[k]);
      x.absorb[k] = l.intern(std::string("causal.absorb.") + kinds[k]);
    }
    x.s_local = l.intern("causal.on_local_event");
    x.s_stable = l.intern("causal.on_stable");
    x.s_peer_restart = l.intern("causal.on_peer_restart");
    x.s_attach = l.intern("causal.attach");
    x.s_serialize = l.intern("causal.serialize");
    x.s_restore = l.intern("causal.restore");
    x.s_reset = l.intern("causal.reset");
    x.wire_check = l.intern("wire.check");
    x.wire_decode = l.intern("wire.decode");
    x.wire_encode = l.intern("wire.encode");
    return x;
  }();
  return n;
}

/// RAII span around one decorated call.
class Scope {
 public:
  explicit Scope(std::uint32_t name) { spans().open(name, now_ns()); }
  ~Scope() { spans().close(now_ns()); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

class TimedStrategy final : public causal::Strategy {
 public:
  TimedStrategy(std::unique_ptr<causal::Strategy> inner, causal::StrategyKind kind)
      : inner_(std::move(inner)), kind_(static_cast<int>(kind)) {}

  const char* name() const override { return inner_->name(); }

  // Deliberately not calling Strategy::attach: the per-peer views live in
  // the wrapped instance only.
  void attach(causal::EventStore* store, const net::CostModel* cost, int rank,
              int nranks) override {
    Scope s(names().s_attach);
    inner_->attach(store, cost, rank, nranks);
  }

  Work build(int dst, util::Buffer& out, DepShadow& deps) override {
    const std::size_t before = out.size();
    spans().open(names().build[kind_], now_ns());
    const Work w = inner_->build(dst, out, deps);
    spans().close(now_ns());
    ProbeTotals& pt = probe_totals();
    pt.build_events += w.events;
    pt.build_bytes += out.size() - before;
    wire_check(out, before, w.events);
    return w;
  }

  Work absorb(int src, util::Buffer& in, const DepShadow& deps) override {
    Scope s(names().absorb[kind_]);
    return inner_->absorb(src, in, deps);
  }

  void on_local_event(const ftapi::Determinant& d) override {
    Scope s(names().s_local);
    inner_->on_local_event(d);
  }
  void on_stable(const std::vector<std::uint64_t>& stable) override {
    Scope s(names().s_stable);
    inner_->on_stable(stable);
  }
  void on_peer_restart(int peer, const std::vector<std::uint64_t>& known) override {
    Scope s(names().s_peer_restart);
    inner_->on_peer_restart(peer, known);
  }
  void serialize(util::Buffer& b) const override {
    Scope s(names().s_serialize);
    inner_->serialize(b);
  }
  void restore(util::Buffer& b) override {
    Scope s(names().s_restore);
    inner_->restore(b);
  }
  void reset() override {
    Scope s(names().s_reset);
    inner_->reset();
  }
  std::size_t graph_vertices() const override { return inner_->graph_vertices(); }

 private:
  void wire_check(const util::Buffer& out, std::size_t before,
                  std::uint64_t events) {
    const std::int64_t t0 = now_ns();
    SpanLog& log = spans();
    log.open(names().wire_check, t0, SpanLog::Kind::kProbe);
    const std::vector<std::uint8_t> bytes(
        out.bytes().begin() + static_cast<std::ptrdiff_t>(before),
        out.bytes().end());
    std::int64_t dec = 0, enc = 0;
    const std::string err = check_piggyback(
        static_cast<causal::StrategyKind>(kind_), bytes, events, &dec, &enc);
    const std::int64_t t1 = now_ns();
    // The parse and re-serialize intervals sit back to back at the end of
    // the check span.
    log.open(names().wire_decode, t1 - dec - enc, SpanLog::Kind::kProbe);
    log.close(t1 - enc);
    log.open(names().wire_encode, t1 - enc, SpanLog::Kind::kProbe);
    log.close(t1);
    log.close(t1);
    ProbeTotals& pt = probe_totals();
    ++pt.wire_checked;
    if (!err.empty()) {
      if (pt.wire_failed++ == 0) pt.first_wire_error = err;
    }
  }

  std::unique_ptr<causal::Strategy> inner_;
  int kind_;
};

class TimedProtocol final : public ftapi::VProtocol {
 public:
  explicit TimedProtocol(std::unique_ptr<ftapi::VProtocol> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  bool is_message_logging() const override { return inner_->is_message_logging(); }
  std::size_t pb_set_size() const override { return inner_->pb_set_size(); }

  void bind(const ftapi::RankServices& svc) override {
    Scope s(names().bind);
    VProtocol::bind(svc);
    inner_->bind(svc);
  }

  // Coroutine hooks are forwarded untimed: their bodies run when the
  // runtime awaits them, interleaved with simulated time.
  sim::Task<void> send_gate() override { return inner_->send_gate(); }
  sim::Task<void> at_checkpoint_site(ftapi::ICheckpointOps& ops,
                                     const util::Buffer& app_state) override {
    return inner_->at_checkpoint_site(ops, app_state);
  }
  sim::Task<ftapi::DeterminantList> recover(
      std::uint64_t already_rsn,
      const std::vector<std::uint64_t>& arr_watermarks) override {
    return inner_->recover(already_rsn, arr_watermarks);
  }

  ftapi::PiggybackOut on_send(int dst_rank, std::uint64_t ssn,
                              const net::Payload& payload,
                              std::int32_t tag) override {
    Scope s(names().on_send);
    ftapi::PiggybackOut out = inner_->on_send(dst_rank, ssn, payload, tag);
    ProbeTotals& pt = probe_totals();
    pt.send_events += out.events;
    pt.send_bytes += out.bytes.size();
    return out;
  }
  PacketCost on_packet(net::Message& m) override {
    Scope s(names().on_packet);
    return inner_->on_packet(m);
  }
  sim::Time on_deliver(const ftapi::Determinant& d) override {
    Scope s(names().on_deliver);
    return inner_->on_deliver(d);
  }
  void on_ctl(net::Message&& m) override {
    Scope s(names().on_ctl);
    inner_->on_ctl(std::move(m));
  }
  void serialize(util::Buffer& b) const override {
    Scope s(names().serialize);
    inner_->serialize(b);
  }
  void restore(util::Buffer& b) override {
    Scope s(names().restore);
    inner_->restore(b);
  }
  void reset() override {
    Scope s(names().reset);
    inner_->reset();
  }
  void on_peer_checkpoint(int peer, std::uint64_t arr_ssn) override {
    Scope s(names().on_peer_checkpoint);
    inner_->on_peer_checkpoint(peer, arr_ssn);
  }

 private:
  std::unique_ptr<ftapi::VProtocol> inner_;
};

using ProtocolMake =
    std::unique_ptr<ftapi::VProtocol> (*)(const runtime::ClusterConfig&);
using StrategyMake = std::unique_ptr<causal::Strategy> (*)();

constexpr int kMaxKinds = 16;
ProtocolMake g_protocol_make[kMaxKinds] = {};
StrategyMake g_strategy_make[3] = {};

std::unique_ptr<ftapi::VProtocol> make_timed_protocol(
    const runtime::ClusterConfig& cfg) {
  std::unique_ptr<ftapi::VProtocol> inner =
      g_protocol_make[static_cast<int>(cfg.protocol)](cfg);
  if (!g_enabled) return inner;
  return std::make_unique<TimedProtocol>(std::move(inner));
}

template <int K>
std::unique_ptr<causal::Strategy> make_timed_strategy() {
  std::unique_ptr<causal::Strategy> inner = g_strategy_make[K]();
  if (!g_enabled) return inner;
  return std::make_unique<TimedStrategy>(std::move(inner),
                                         static_cast<causal::StrategyKind>(K));
}

constexpr StrategyMake kTimedStrategyMake[3] = {
    make_timed_strategy<0>, make_timed_strategy<1>, make_timed_strategy<2>};

}  // namespace

void install() {
  static bool done = false;
  if (done) return;
  done = true;
  names();
  // The registries are heap objects handed out by non-const reference;
  // only entries() is const, so the swap casts that away.
  for (const auto& [name, entry] : scenario::protocols().entries()) {
    auto& e = const_cast<scenario::ProtocolEntry&>(entry);
    const int k = static_cast<int>(e.kind);
    if (k >= kMaxKinds) {
      std::fprintf(stderr, "perfbench: protocol '%s' kind %d out of range\n",
                   name.c_str(), k);
      std::abort();
    }
    g_protocol_make[k] = e.make;
    e.make = make_timed_protocol;
  }
  for (const auto& [name, entry] : scenario::strategies().entries()) {
    auto& e = const_cast<scenario::StrategyEntry&>(entry);
    const int k = static_cast<int>(e.kind);
    if (k >= 3) {
      std::fprintf(stderr, "perfbench: strategy '%s' kind %d out of range\n",
                   name.c_str(), k);
      std::abort();
    }
    g_strategy_make[k] = e.make;
    e.make = kTimedStrategyMake[k];
  }
}

void set_enabled(bool on) { g_enabled = on; }

}  // namespace perfbench
