// perfbench_harness — one measured repeat of a repository benchmark workload.
//
//   perfbench_harness --workload city|city_overload|bulk --seed N [--traced 0|1]
//
// Builds the workload kSetups times (timing each build, keeping the last),
// runs it once, and prints one JSON object on stdout: the set-up and run host
// times, peak RSS, the simulated outputs the caller compares across repeats,
// and the per-layer counters read from each module's public stats. `run.py`
// drives this binary, repeats it, checks the outputs and reduces the numbers;
// see README.md in this directory for the workloads and the metric map.
//
// Untraced runs use the program's own executors (ShardSet::RunUntil for the
// cities, Simulator::Step for bulk). A traced run installs a trace::Tracer
// and drives the simulation one timestamp (cities) or one event (bulk) at a
// time, closing one host-time span per step and labelling it with the
// highest layer whose TraceStats::per_layer counter advanced during it.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/scenario/testbed.h"
#include "src/scenario/topo_gen.h"
#include "src/scenario/vc_station.h"
#include "src/trace/trace.h"
#include "src/util/packet_buf.h"
#include "src/util/random.h"

namespace upr::perfbench {
namespace {

std::int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Host-time spans ---------------------------------------------------------

// Step labels, ordered bottom of the stack to top; a step that crosses
// several layers is labelled with the highest one. kTimer is a step that
// crossed no layer (timers, end-of-transmission fan-out scheduling, frames
// that fail the FCS check).
enum Label : int {
  kRadio,
  kEther,
  kSerial,
  kKiss,
  kDriver,
  kAx25,
  kIp,
  kGateway,
  kTimer,
  kLabelCount
};
constexpr std::array<const char*, kLabelCount> kLabelMetric = {
    "radio.host_ms", "ether.host_ms", "serial.host_ms",  "kiss.host_ms",
    "driver.host_ms", "ax25.host_ms", "ip.host_ms",     "gateway.host_ms",
    "sim.timer_host_ms"};

Label LabelOf(trace::Layer layer) {
  switch (layer) {
    case trace::Layer::kSerial: return kSerial;
    case trace::Layer::kKiss: return kKiss;
    case trace::Layer::kAx25: return kAx25;
    case trace::Layer::kIp: return kIp;
    case trace::Layer::kMac: return kRadio;
    case trace::Layer::kGateway: return kGateway;
    case trace::Layer::kDriver: return kDriver;
    case trace::Layer::kEther: return kEther;
  }
  return kTimer;
}

// One host-time span. Steps are children of the run (parent 0); the spans
// around the harness's own API calls are children of the step they ran in.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t parent = 0;
  Label label = kTimer;
};

// Streams spans into per-label sums. Step spans tile the traced run with no
// gaps (each one starts where the previous ended), so the label sums should
// add up to the run's host time, which Main measures independently.
class SpanSink {
 public:
  void AddStep(const Span& s) {
    const std::int64_t d = s.end_ns - s.start_ns;
    label_ns_[s.label] += d;
    step_ns_.push_back(d);
  }
  void AddApi(const Span& s) { api_ns_ += s.end_ns - s.start_ns; }
  std::int64_t label_ns(Label l) const { return label_ns_[l]; }
  std::int64_t api_ns() const { return api_ns_; }
  // Nearest-rank percentile of the step durations.
  std::int64_t StepPercentile(double p) {
    if (step_ns_.empty()) {
      return 0;
    }
    const auto n = step_ns_.size();
    auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(n));
    rank = std::min(rank, n - 1);
    std::nth_element(step_ns_.begin(), step_ns_.begin() + rank, step_ns_.end());
    return step_ns_[rank];
  }

 private:
  std::array<std::int64_t, kLabelCount> label_ns_{};
  std::vector<std::int64_t> step_ns_;
  std::int64_t api_ns_ = 0;
};

// Closes one step span per call to EndStep(). Null tracer = untraced run.
class StepClock {
 public:
  StepClock(const trace::Tracer* tracer, SpanSink* sink)
      : tracer_(tracer), sink_(sink) {}
  void Begin() {
    Snapshot(prev_);
    last_ns_ = HostNs();
  }
  void EndStep() {
    const std::int64_t now = HostNs();
    std::array<std::uint64_t, trace::kLayerCount> cur;
    Snapshot(cur);
    Label label = kTimer;
    int best = -1;
    for (int l = 0; l < trace::kLayerCount; ++l) {
      if (cur[l] != prev_[l]) {
        const Label cand = LabelOf(static_cast<trace::Layer>(l));
        if (static_cast<int>(cand) > best) {
          best = cand;
          label = cand;
        }
      }
    }
    prev_ = cur;
    ++step_id_;
    sink_->AddStep({last_ns_, now, 0, label});
    last_ns_ = now;
  }
  std::uint64_t current_step() const { return step_id_ + 1; }

 private:
  void Snapshot(std::array<std::uint64_t, trace::kLayerCount>& out) const {
    std::copy(std::begin(tracer_->stats().per_layer),
              std::end(tracer_->stats().per_layer), out.begin());
  }
  const trace::Tracer* tracer_;
  SpanSink* sink_;
  std::array<std::uint64_t, trace::kLayerCount> prev_{};
  std::int64_t last_ns_ = 0;
  std::uint64_t step_id_ = 0;
};

// The active step clock of a traced run; null when untraced.
StepClock* g_clock = nullptr;
SpanSink* g_sink = nullptr;

// Runs `fn` inside an API span when traced.
template <typename F>
auto ApiCall(F&& fn) {
  if (g_clock == nullptr) {
    return fn();
  }
  const std::int64_t start = HostNs();
  auto result = fn();
  g_sink->AddApi({start, HostNs(), g_clock->current_step(), kTimer});
  return result;
}

// --- Output ------------------------------------------------------------------

class JsonOut {
 public:
  void Key(const char* k) {
    Sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
  }
  void Num(const char* k, double v) {
    Key(k);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void Int(const char* k, std::int64_t v) {
    Key(k);
    out_ += std::to_string(v);
  }
  void Str(const char* k, const std::string& v) {
    Key(k);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
      }
      out_ += c;
    }
    out_ += '"';
  }
  void Bool(const char* k, bool v) {
    Key(k);
    out_ += v ? "true" : "false";
  }
  void IntList(const char* k, const std::vector<std::int64_t>& v) {
    Key(k);
    out_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      out_ += (i ? "," : "") + std::to_string(v[i]);
    }
    out_ += ']';
  }
  void NumList(const char* k, const std::vector<double>& v) {
    Key(k);
    out_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      out_ += buf;
    }
    out_ += ']';
  }
  void Open(const char* k = nullptr) {
    if (k != nullptr) {
      Key(k);
    } else {
      Sep();
    }
    out_ += '{';
  }
  void Close() { out_ += '}'; }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!out_.empty() && out_.back() != '{' && out_.back() != ':') {
      out_ += ',';
    }
  }
  std::string out_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- Per-layer census ----------------------------------------------------------

// Pointers to every module instance a workload built, for the per-layer
// counters. Counts are read after the run from each module's public stats.
struct Census {
  std::vector<Simulator*> sims;
  std::vector<ShardSet*> shards;
  std::vector<RadioChannel*> channels;
  std::vector<KissTnc*> tncs;
  std::vector<SerialLine*> serials;
  std::vector<PacketRadioInterface*> drivers;
  std::vector<NetStack*> stacks;
  std::vector<TcpConnection*> tcp;
  std::vector<std::pair<Ax25Link*, Ax25Address>> circuits;

  void AddRadioHost(SerialLine* s, KissTnc* t, PacketRadioInterface* d,
                    NetStack* st) {
    serials.push_back(s);
    tncs.push_back(t);
    drivers.push_back(d);
    stacks.push_back(st);
  }
};

// Writes every count-based per-layer metric. `ops` is the denominator of
// sim.events_per_op (answered pings, or delivered KB). `traced` supplies the
// MAC defer count, which no module exports: every MAC trace record is a tx
// start, a collision or a deferral, so deferrals are the rest.
void WriteLayerCounts(JsonOut& j, const Census& c, double ops,
                      const trace::Tracer* traced) {
  std::uint64_t events = 0;
  std::uint64_t pending_peak = 0;
  for (Simulator* s : c.sims) {
    events += s->executed_events();
    pending_peak += s->pool_capacity();
  }
  std::uint64_t tx = 0, collisions = 0, receptions = 0;
  double util = 0;
  for (RadioChannel* ch : c.channels) {
    tx += ch->transmissions();
    collisions += ch->collisions();
    util += ch->Utilization();
  }
  std::uint64_t to_host = 0, fcs = 0;
  for (KissTnc* t : c.tncs) {
    receptions += t->radio_port()->frames_received();
    to_host += t->frames_to_host();
    fcs += t->fcs_errors();
  }
  std::uint64_t deliveries = 0, serial_bytes = 0, overruns = 0;
  for (SerialLine* s : c.serials) {
    for (const SerialEndpoint* e : {&s->a(), &s->b()}) {
      deliveries += e->deliveries();
      serial_bytes += e->bytes_received();
      overruns += e->overruns();
    }
  }
  std::uint64_t interrupts = 0, frames_in = 0, useful = 0, out_drops = 0;
  for (PacketRadioInterface* d : c.drivers) {
    const DriverStats& s = d->driver_stats();
    interrupts += s.interrupts;
    frames_in += s.frames_in;
    useful += s.frames_in - s.frames_not_for_us - s.frames_in_transit;
    out_drops += s.output_drops;
  }
  std::uint64_t forwarded = 0, ip_drops = 0;
  for (NetStack* st : c.stacks) {
    const IpStats& s = st->ip_stats();
    forwarded += s.forwarded;
    ip_drops += s.input_drops + s.header_errors + s.no_route + s.ttl_expired +
                s.no_protocol + s.filtered + s.reassembly_failures +
                s.cant_fragment;
  }
  std::uint64_t i_sent = 0, i_resent = 0, srej = 0;
  for (const auto& [link, peer] : c.circuits) {
    if (Ax25Connection* conn = link->FindConnection(peer)) {
      i_sent += conn->i_frames_sent();
      i_resent += conn->i_frames_resent();
    }
    srej += link->stats().srej_sent;
  }
  std::uint64_t segs = 0, rexmit = 0, spurious = 0;
  for (TcpConnection* conn : c.tcp) {
    segs += conn->stats().segments_sent;
    rexmit += conn->stats().retransmissions;
    spurious += conn->stats().spurious_retransmissions;
  }
  const BufLayerStats buf = BufStatsTotal();

  j.Int("sim.events", static_cast<std::int64_t>(events));
  j.Num("sim.events_per_op", Ratio(static_cast<double>(events), ops));
  j.Int("sim.pending_peak", static_cast<std::int64_t>(pending_peak));
  std::uint64_t handoffs = 0;
  for (ShardSet* s : c.shards) {
    handoffs += s->stats().posted;
  }
  j.Int("sim.handoffs", static_cast<std::int64_t>(handoffs));
  j.Int("radio.tx_frames", static_cast<std::int64_t>(tx));
  j.Num("radio.fanout", Ratio(static_cast<double>(receptions),
                              static_cast<double>(tx)));
  j.Num("radio.collision_ratio",
        Ratio(static_cast<double>(collisions), static_cast<double>(tx)));
  j.Num("radio.utilization",
        Ratio(util, static_cast<double>(c.channels.size())));
  if (traced != nullptr) {
    const std::uint64_t mac =
        traced->stats().per_layer[static_cast<int>(trace::Layer::kMac)];
    j.Int("radio.deferrals", static_cast<std::int64_t>(mac) -
                                 static_cast<std::int64_t>(tx + collisions));
  }
  j.Int("serial.deliveries", static_cast<std::int64_t>(deliveries));
  j.Num("serial.bytes_per_delivery",
        Ratio(static_cast<double>(serial_bytes), static_cast<double>(deliveries)));
  j.Int("serial.overruns", static_cast<std::int64_t>(overruns));
  j.Int("tnc.frames_to_host", static_cast<std::int64_t>(to_host));
  j.Int("tnc.fcs_errors", static_cast<std::int64_t>(fcs));
  j.Int("driver.interrupts", static_cast<std::int64_t>(interrupts));
  j.Num("driver.useful_ratio",
        Ratio(static_cast<double>(useful), static_cast<double>(frames_in)));
  j.Int("driver.output_drops", static_cast<std::int64_t>(out_drops));
  j.Int("lapb.i_frames_sent", static_cast<std::int64_t>(i_sent));
  j.Num("lapb.resend_ratio",
        Ratio(static_cast<double>(i_resent), static_cast<double>(i_sent)));
  j.Int("lapb.srej_sent", static_cast<std::int64_t>(srej));
  j.Int("ip.forwarded", static_cast<std::int64_t>(forwarded));
  j.Int("ip.drops", static_cast<std::int64_t>(ip_drops));
  j.Int("tcp.segments_sent", static_cast<std::int64_t>(segs));
  j.Num("tcp.rexmit_ratio",
        Ratio(static_cast<double>(rexmit), static_cast<double>(segs)));
  j.Int("tcp.spurious_rexmits", static_cast<std::int64_t>(spurious));
  j.Num("buf.copied_bytes_per_frame",
        Ratio(static_cast<double>(buf.bytes_copied), static_cast<double>(tx)));
  j.Num("buf.allocs_per_frame",
        Ratio(static_cast<double>(buf.allocs), static_cast<double>(tx)));
}

// --- Ping bookkeeping -----------------------------------------------------------

constexpr std::size_t kPingPayload = 32;
constexpr std::size_t kCityStations = 50;  // per channel
constexpr SimTime kCityDuration = Seconds(45);
constexpr double kProbeShare = 0.9;  // of the offered echo load
constexpr SimTime kTxDelay = Milliseconds(50);  // KISS TXDELAY 5, every TNC
constexpr SimTime kPingTimeout = Seconds(30);

struct ProbeLog {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::vector<std::int64_t> rtt_ns;  // answered probes, in answer order

  void Send(NetStack& from, IpV4Address to) {
    ++sent;
    ApiCall([&] {
      return from.icmp().Ping(
          to, kPingPayload,
          [this](bool success, SimTime rtt) {
            if (success) {
              ++ok;
              rtt_ns.push_back(rtt);
            } else {
              ++failed;
            }
          },
          kPingTimeout);
    });
  }
};

// --- City workloads -------------------------------------------------------------

// The two city load points. Offered load is one echo per station per
// `load_period`; the probe stream takes kProbeShare of it, so station pings
// run at load_period / (1 - kProbeShare). A repeat runs `replicas`
// independent cities (seeds derived from the run seed) one after the other
// and pools their outputs: across seeds one city's event count and RTT tail
// vary too much, and one overloaded city is chaotic.
struct CityShape {
  std::size_t channels;
  SimTime load_period;
  std::size_t replicas;
};

CityShape ShapeFor(const std::string& workload) {
  if (workload == "city") {
    return {8, Seconds(60), 2};
  }
  return {4, Seconds(15), 3};
}

class CityRun {
 public:
  CityRun(const CityShape& shape, std::uint64_t seed) : shape_(shape) {
    for (std::size_t r = 0; r < shape.replicas; ++r) {
      const std::uint64_t rseed = MixSeed(seed, "perfbench-city-replica" +
                                                    std::to_string(r));
      topo::CityConfig cfg;
      cfg.spec = {shape.channels, kCityStations};
      cfg.seed = MixSeed(rseed, "perfbench-city");
      cfg.radio_bit_rate = 9600;
      cfg.serial_baud = 19200;
      cfg.mac.tx_delay = kTxDelay;
      cfg.ping_period = static_cast<SimTime>(
          static_cast<double>(shape.load_period) / (1.0 - kProbeShare));
      cfg.ping_payload = kPingPayload;
      cfg.ping_timeout = kPingTimeout;
      cities_.push_back(std::make_unique<topo::CityTopology>(cfg));
      ScheduleProbes(*cities_.back(), MixSeed(rseed, "perfbench-probe"));
    }
  }

  const std::vector<std::unique_ptr<topo::CityTopology>>& cities() const {
    return cities_;
  }
  const ProbeLog& probes() const { return probes_; }
  // Clock of the city currently running (for the tracer's timestamps).
  SimTime Now() const { return cities_[current_]->shards().CurrentTime(); }

  void RunUntraced() {
    for (current_ = 0; current_ < cities_.size(); ++current_) {
      cities_[current_]->Run(kCityDuration);
    }
    current_ = 0;
  }

  // One timestamp per step across all shards of each city in turn.
  void RunTraced(StepClock& clock) {
    clock.Begin();
    for (current_ = 0; current_ < cities_.size(); ++current_) {
      ShardSet& shards = cities_[current_]->shards();
      for (;;) {
        bool any = false;
        SimTime next = 0;
        for (std::size_t k = 0; k < shards.shard_count(); ++k) {
          SimTime t;
          if (shards.shard(k)->NextEventTime(&t) && (!any || t < next)) {
            next = t;
            any = true;
          }
        }
        if (!any || next > kCityDuration) {
          break;
        }
        shards.RunUntil(next);
        clock.EndStep();
      }
      shards.RunUntil(kCityDuration);
      clock.EndStep();
    }
    current_ = 0;
  }

  Census MakeCensus() const {
    Census c;
    for (const auto& city : cities_) {
      ShardSet& shards = city->shards();
      c.shards.push_back(&shards);
      for (std::size_t k = 0; k < shards.shard_count(); ++k) {
        c.sims.push_back(shards.shard(k));
      }
      for (std::size_t ch = 0; ch < city->channel_count(); ++ch) {
        c.channels.push_back(&city->channel(ch));
        RadioStation& gw = city->gateway(ch);
        c.AddRadioHost(&gw.serial(), &gw.tnc(), gw.radio_if(), &gw.stack());
        for (std::size_t i = 0; i < kCityStations; ++i) {
          RadioStation& st = city->station(ch, i);
          c.AddRadioHost(&st.serial(), &st.tnc(), st.radio_if(), &st.stack());
        }
      }
    }
    return c;
  }

 private:
  // Open-loop probes at evenly spread, jittered instants: a seeded station
  // pings its own gateway (even probes) or a station on another channel
  // across the backbone (odd probes).
  void ScheduleProbes(topo::CityTopology& city, std::uint64_t seed) {
    Rng rng(seed);
    const double total = static_cast<double>(shape_.channels * kCityStations);
    const auto interval = static_cast<SimTime>(
        static_cast<double>(shape_.load_period) / (total * kProbeShare));
    for (std::uint64_t k = 0;; ++k) {
      const SimTime at = static_cast<SimTime>(k) * interval +
                         static_cast<SimTime>(rng.NextBelow(
                             static_cast<std::uint64_t>(interval)));
      if (at >= kCityDuration) {
        break;
      }
      const std::size_t c = rng.NextBelow(shape_.channels);
      const std::size_t i = rng.NextBelow(kCityStations);
      IpV4Address target = topo::CityTopology::GatewayIp(c);
      if (k % 2 == 1 && shape_.channels > 1) {
        const std::size_t d = (c + 1 + rng.NextBelow(shape_.channels - 1)) %
                              shape_.channels;
        target = topo::CityTopology::StationIp(d, rng.NextBelow(kCityStations));
      }
      NetStack& from = city.station(c, i).stack();
      from.sim()->ScheduleAt(at, [this, &from, target] {
        probes_.Send(from, target);
      });
    }
  }

  CityShape shape_;
  std::vector<std::unique_ptr<topo::CityTopology>> cities_;
  std::size_t current_ = 0;
  ProbeLog probes_;
};

// --- Bulk workload -----------------------------------------------------------------

constexpr std::size_t kBulkBytes = 256 * 1024;
constexpr SimTime kBulkDeadline = Seconds(6 * 3600);
constexpr SimTime kBulkProbeInterval = Seconds(10);

// One closed-loop TCP transfer of a seeded payload, checked byte for byte.
struct Flow {
  Tcp* from = nullptr;
  Tcp* to = nullptr;
  IpV4Address to_ip;
  std::uint16_t port = 0;
  Bytes payload;
  Bytes received;
  TcpConnection* conn = nullptr;
  TcpConnection* rx = nullptr;
  std::size_t queued = 0;
  SimTime start = 0;
  SimTime done_at = -1;

  bool done() const { return done_at >= 0; }
  // Done, or given up: TCP aborted the connection and nothing more arrives.
  bool settled() const {
    return done() || (conn != nullptr && conn->state() == TcpState::kClosed);
  }

  void Generate(std::uint64_t seed) {
    Rng rng(seed);
    payload.resize(kBulkBytes);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.NextU64());
    }
    received.reserve(kBulkBytes);
  }

  void Start(Simulator* sim) {
    to->Listen(port, [this, sim](TcpConnection* c) {
      rx = c;
      c->set_data_handler([this, sim](const Bytes& d) {
        received.insert(received.end(), d.begin(), d.end());
        if (!done() && received.size() >= payload.size()) {
          done_at = sim->Now();
        }
      });
    });
    start = sim->Now();
    conn = ApiCall([&] { return from->Connect(to_ip, port); });
    conn->set_connected_handler([this] { TopUp(); });
  }

  // Keeps the send buffer fed, one send-buffer's worth at a time.
  void TopUp() {
    if (conn == nullptr || queued >= payload.size() ||
        conn->state() != TcpState::kEstablished || conn->unsent_bytes() != 0) {
      return;
    }
    const std::size_t end = std::min(payload.size(), queued + 32 * 1024);
    Bytes chunk(payload.begin() + static_cast<std::ptrdiff_t>(queued),
                payload.begin() + static_cast<std::ptrdiff_t>(end));
    queued += ApiCall([&] { return conn->Send(chunk); });
  }

  bool intact() const { return received == payload; }
  double goodput_bps() const {
    if (!done() || done_at <= start) {
      return 0.0;
    }
    return static_cast<double>(received.size()) * 8.0 / ToSeconds(done_at - start);
  }
};

class BulkRun {
 public:
  explicit BulkRun(std::uint64_t seed) : seed_(seed) {
    TestbedConfig cfg;
    cfg.radio_pcs = 1;
    cfg.ether_hosts = 1;
    cfg.radio_bit_rate = 9600;
    cfg.serial_baud = 19200;
    cfg.mac.tx_delay = kTxDelay;
    cfg.seed = MixSeed(seed, "perfbench-testbed");
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->PopulateRadioArp();

    Ax25LinkConfig lc;
    lc.window = 32;
    lc.dialect = Ax25Dialect::kV22;
    const IpV4Address ip_a(44, 24, 11, 1), ip_b(44, 24, 11, 2);
    vc_a_ = MakeVc("vca", "KD7VA", ip_a, lc, MixSeed(seed, "perfbench-vca"));
    vc_b_ = MakeVc("vcb", "KD7VB", ip_b, lc, MixSeed(seed, "perfbench-vcb"));
    vc_a_->vc()->MapIpToCallsign(ip_b, vc_b_->callsign());
    vc_b_->vc()->MapIpToCallsign(ip_a, vc_a_->callsign());

    ui_.from = &tb_->host(0).tcp();
    ui_.to = &tb_->pc(0).tcp();
    ui_.to_ip = Testbed::RadioPcIp(0);
    ui_.port = 5001;
    vc_.from = &vc_a_->tcp();
    vc_.to = &vc_b_->tcp();
    vc_.to_ip = ip_b;
    vc_.port = 5002;
    ui_.Generate(MixSeed(seed, "perfbench-ui-data"));
    vc_.Generate(MixSeed(seed, "perfbench-vc-data"));
  }

  const Flow& ui() const { return ui_; }
  const Flow& vc() const { return vc_; }
  const ProbeLog& probes() const { return probes_; }
  Simulator& sim() { return tb_->sim(); }
  bool finished() const { return ui_.settled() && vc_.settled(); }

  void Run(StepClock* clock) {
    if (clock != nullptr) {
      clock->Begin();
    }
    Simulator& s = sim();
    ui_.Start(&s);
    vc_.Start(&s);
    probe_rng_ = Rng(MixSeed(seed_, "perfbench-probe"));
    ScheduleProbe();
    while (!finished() && s.Now() < kBulkDeadline && s.Step()) {
      ui_.TopUp();
      vc_.TopUp();
      if (clock != nullptr) {
        clock->EndStep();
      }
    }
  }

  Census MakeCensus() {
    Census c;
    c.sims.push_back(&sim());
    c.channels.push_back(&tb_->channel());
    GatewayHost& gw = tb_->gateway();
    c.AddRadioHost(&gw.serial(), &gw.tnc(), gw.radio_if(), &gw.stack());
    RadioStation& pc = tb_->pc(0);
    c.AddRadioHost(&pc.serial(), &pc.tnc(), pc.radio_if(), &pc.stack());
    for (VcStation* v : {vc_a_.get(), vc_b_.get()}) {
      c.AddRadioHost(&v->serial(), &v->tnc(), v->driver(), &v->stack());
    }
    c.stacks.push_back(&tb_->host(0).stack());
    for (const Flow* f : {&ui_, &vc_}) {
      for (TcpConnection* conn : {f->conn, f->rx}) {
        if (conn != nullptr) {
          c.tcp.push_back(conn);
        }
      }
    }
    c.circuits.emplace_back(&vc_a_->vc()->link(), vc_b_->callsign());
    c.circuits.emplace_back(&vc_b_->vc()->link(), vc_a_->callsign());
    return c;
  }

 private:
  std::unique_ptr<VcStation> MakeVc(const char* name, const char* call,
                                    IpV4Address ip, const Ax25LinkConfig& lc,
                                    std::uint64_t seed) {
    VcStationConfig vc;
    vc.name = name;
    vc.callsign = call;
    vc.ip = ip;
    vc.serial_baud = 19200;
    vc.link = lc;
    vc.mac.tx_delay = kTxDelay;
    vc.seed = seed;
    return std::make_unique<VcStation>(&tb_->sim(), &tb_->channel(), vc);
  }

  // An interactive user on the radio PC: a ping every ~10 s while the
  // transfers run, alternately to the gateway and across it to the
  // Ethernet host.
  void ScheduleProbe() {
    const SimTime delay =
        kBulkProbeInterval / 2 +
        static_cast<SimTime>(probe_rng_.NextBelow(
            static_cast<std::uint64_t>(kBulkProbeInterval)));
    sim().Schedule(delay, [this] {
      if (finished()) {
        return;
      }
      const IpV4Address to = probes_.sent % 2 == 0 ? Testbed::GatewayRadioIp()
                                                   : Testbed::EtherHostIp(0);
      probes_.Send(tb_->pc(0).stack(), to);
      ScheduleProbe();
    });
  }

  std::uint64_t seed_;
  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<VcStation> vc_a_;
  std::unique_ptr<VcStation> vc_b_;
  Flow ui_;
  Flow vc_;
  ProbeLog probes_;
  Rng probe_rng_;
};

// --- Driver ------------------------------------------------------------------------

// Builds per repeat; setup_s is their median, which steadies it.
constexpr int kSetups = 31;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload city|city_overload|bulk "
               "--seed N [--traced 0|1]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + a).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--traced") {
      o.traced = std::strcmp(v, "1") == 0;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed number for " + a).c_str());
    }
  }
  if (o.workload != "city" && o.workload != "city_overload" &&
      o.workload != "bulk") {
    Usage("unknown workload");
  }
  return o;
}

void WriteBuild(JsonOut& j) {
  j.Open("build");
  j.Str("compiler", __VERSION__);
  j.Str("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__OPTIMIZE__)
  j.Bool("optimized", true);
#else
  j.Bool("optimized", false);
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  j.Bool("sanitized", true);
#else
  j.Bool("sanitized", false);
#endif
  j.Close();
}

// Host-time results of a traced run.
void WriteHostTimes(JsonOut& j, SpanSink& sink) {
  j.Open("host");
  for (int l = 0; l < kLabelCount; ++l) {
    j.Num(kLabelMetric[l],
          static_cast<double>(sink.label_ns(static_cast<Label>(l))) / 1e6);
  }
  j.Int("sim.step_ns_p50", sink.StepPercentile(50));
  j.Int("sim.step_ns_p99", sink.StepPercentile(99));
  j.Num("bench.api_host_ms", static_cast<double>(sink.api_ns()) / 1e6);
  j.Close();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void WriteProbes(JsonOut& j, const ProbeLog& p) {
  j.Int("probes_sent", static_cast<std::int64_t>(p.sent));
  j.Int("probes_ok", static_cast<std::int64_t>(p.ok));
  j.Int("probes_failed", static_cast<std::int64_t>(p.failed));
  j.IntList("probe_rtt_ns", p.rtt_ns);
}

template <typename Run, typename Make>
std::unique_ptr<Run> TimedSetups(std::vector<double>* times, Make make) {
  std::unique_ptr<Run> run;
  for (int i = 0; i < kSetups; ++i) {
    run.reset();
    DrainBufPool();
    const std::int64_t t0 = HostNs();
    run = make();
    times->push_back(static_cast<double>(HostNs() - t0) / 1e9);
  }
  ResetBufStats();
  return run;
}

int Main(int argc, char** argv) {
  const Options o = Parse(argc, argv);
  std::vector<double> setup_s;
  JsonOut j;
  j.Open();
  j.Str("workload", o.workload);
  j.Int("seed", static_cast<std::int64_t>(o.seed));
  j.Bool("traced", o.traced);

  SpanSink sink;
  std::unique_ptr<trace::Tracer> tracer;
  std::unique_ptr<trace::ScopedInstall> install;
  std::unique_ptr<StepClock> clock;
  auto start_trace = [&](Simulator* sim, std::function<SimTime()> now) {
    if (!o.traced) {
      return;
    }
    tracer = std::make_unique<trace::Tracer>(sim);
    if (now) {
      tracer->set_clock(std::move(now));
    }
    install = std::make_unique<trace::ScopedInstall>(tracer.get());
    clock = std::make_unique<StepClock>(tracer.get(), &sink);
    g_clock = clock.get();
    g_sink = &sink;
  };

  double run_s = 0;
  if (o.workload == "bulk") {
    auto run = TimedSetups<BulkRun>(&setup_s, [&] {
      return std::make_unique<BulkRun>(o.seed);
    });
    start_trace(&run->sim(), nullptr);
    const std::int64_t t0 = HostNs();
    run->Run(clock.get());
    run_s = static_cast<double>(HostNs() - t0) / 1e9;
    const double delivered_kb =
        static_cast<double>(run->ui().received.size() + run->vc().received.size()) /
        1024.0;
    j.Open("sim");
    j.Int("events", static_cast<std::int64_t>(run->sim().executed_events()));
    j.Int("sim_ns", run->sim().Now());
    j.Int("transfers", 2);
    j.Int("transfers_ok", (run->ui().done() && run->ui().intact() ? 1 : 0) +
                              (run->vc().done() && run->vc().intact() ? 1 : 0));
    j.Int("ui_bytes", static_cast<std::int64_t>(run->ui().received.size()));
    j.Int("vc_bytes", static_cast<std::int64_t>(run->vc().received.size()));
    j.Num("ui_goodput_bps", run->ui().goodput_bps());
    j.Num("vc_goodput_bps", run->vc().goodput_bps());
    WriteProbes(j, run->probes());
    j.Close();
    const Census census = run->MakeCensus();
    j.Open("layer");
    WriteLayerCounts(j, census, delivered_kb, tracer.get());
    j.Num("tcp.ui_goodput_bps", run->ui().goodput_bps());
    j.Num("tcp.vc_goodput_bps", run->vc().goodput_bps());
    j.Close();
  } else {
    const CityShape shape = ShapeFor(o.workload);
    auto run = TimedSetups<CityRun>(&setup_s, [&] {
      return std::make_unique<CityRun>(shape, o.seed);
    });
    start_trace(run->cities().front()->shards().shard(0),
                [&run] { return run->Now(); });
    const std::int64_t t0 = HostNs();
    if (clock) {
      run->RunTraced(*clock);
    } else {
      run->RunUntraced();
    }
    run_s = static_cast<double>(HostNs() - t0) / 1e9;
    topo::ChannelTraffic t;
    std::uint64_t events = 0, tx = 0, collisions = 0;
    for (const auto& city : run->cities()) {
      const topo::ChannelTraffic ct = city->TrafficTotal();
      t.pings_sent += ct.pings_sent;
      t.pings_ok += ct.pings_ok;
      t.pings_failed += ct.pings_failed;
      events += city->shards().TotalEventsExecuted();
      for (std::size_t c = 0; c < city->channel_count(); ++c) {
        tx += city->channel(c).transmissions();
        collisions += city->channel(c).collisions();
      }
    }
    j.Open("sim");
    j.Int("events", static_cast<std::int64_t>(events));
    j.Int("sim_ns", kCityDuration * static_cast<SimTime>(shape.replicas));
    j.Int("payload_bytes", kPingPayload);
    j.Int("pings_sent", static_cast<std::int64_t>(t.pings_sent));
    j.Int("pings_ok", static_cast<std::int64_t>(t.pings_ok));
    j.Int("pings_failed", static_cast<std::int64_t>(t.pings_failed));
    j.Int("radio_tx", static_cast<std::int64_t>(tx));
    j.Int("radio_collisions", static_cast<std::int64_t>(collisions));
    WriteProbes(j, run->probes());
    j.Close();
    const Census census = run->MakeCensus();
    j.Open("layer");
    WriteLayerCounts(j, census,
                     static_cast<double>(t.pings_ok + run->probes().ok),
                     tracer.get());
    j.Num("tcp.ui_goodput_bps", 0);
    j.Num("tcp.vc_goodput_bps", 0);
    j.Close();
  }
  j.NumList("setup_s", setup_s);
  j.Num("run_s", run_s);
  j.Num("peak_rss_mb", PeakRssMb());
  if (clock) {
    WriteHostTimes(j, sink);
  }
  WriteBuild(j);
  j.Close();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace upr::perfbench

int main(int argc, char** argv) { return upr::perfbench::Main(argc, argv); }
