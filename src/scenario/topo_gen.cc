#include "src/scenario/topo_gen.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>

#include "src/util/panic.h"
#include "src/util/parse.h"

namespace upr::topo {

bool ParseCitySpec(std::string_view text, CitySpec* out, std::string* error) {
  constexpr std::string_view kPrefix = "city:";
  if (text.substr(0, kPrefix.size()) != kPrefix) {
    *error = "topology spec must start with 'city:' (got '" +
             std::string(text) + "')";
    return false;
  }
  std::string_view body = text.substr(kPrefix.size());
  const std::size_t x = body.find('x');
  if (x == std::string_view::npos) {
    *error = "topology spec must be city:<channels>x<stations>";
    return false;
  }
  const std::string channels_str(body.substr(0, x));
  const std::string stations_str(body.substr(x + 1));
  auto channels = ParseU64(channels_str.c_str(), 1, kMaxChannels);
  if (!channels) {
    *error = "channel count must be an integer in [1, " +
             std::to_string(kMaxChannels) + "] (got '" + channels_str + "')";
    return false;
  }
  auto stations = ParseU64(stations_str.c_str(), 1, kMaxStationsPerChannel);
  if (!stations) {
    *error = "station count must be an integer in [1, " +
             std::to_string(kMaxStationsPerChannel) + "] (got '" +
             stations_str + "')";
    return false;
  }
  out->channels = static_cast<std::size_t>(*channels);
  out->stations = static_cast<std::size_t>(*stations);
  return true;
}

IpV4Address CityTopology::GatewayIp(std::size_t c) {
  return IpV4Address(44, static_cast<std::uint8_t>(c), 0, 1);
}

IpV4Address CityTopology::StationIp(std::size_t c, std::size_t i) {
  // 44.c.1.1 .. 44.c.1.250, then 44.c.2.1 .. — never .0 or .255.
  return IpV4Address(44, static_cast<std::uint8_t>(c),
                     static_cast<std::uint8_t>(1 + i / 250),
                     static_cast<std::uint8_t>(1 + i % 250));
}

Ax25Address CityTopology::GatewayCall(std::size_t c) {
  std::string call = "N7";
  call.push_back(static_cast<char>('A' + c % 26));
  call.push_back(static_cast<char>('A' + (c / 26) % 26));
  return Ax25Address(call, 1);
}

Ax25Address CityTopology::StationCall(std::size_t i) {
  // Callsigns are channel-scoped (each channel is its own frequency), so the
  // Testbed PC series reused per channel is unambiguous on the air.
  std::string call = "KD7";
  call.push_back(static_cast<char>('A' + i % 26));
  call.push_back(static_cast<char>('A' + (i / 26) % 26));
  return Ax25Address(call, static_cast<std::uint8_t>((i / 676) % 16));
}

Ax25Address CityTopology::DigiCall(std::size_t c, std::size_t d) {
  std::string call = "WB7R";
  call.push_back(static_cast<char>('A' + d % 26));
  return Ax25Address(call, static_cast<std::uint8_t>(1 + c % 15));
}

namespace {

// Two digipeaters on busy channels, one on small ones — pinned by the
// golden-count test, so changing this is an intentional topology change.
std::size_t DigisForStations(std::size_t stations) {
  return stations >= 8 ? 2 : 1;
}

IpV4Address TrunkIp(std::size_t edge_index, int end) {
  return IpV4Address(10, static_cast<std::uint8_t>(edge_index >> 8),
                     static_cast<std::uint8_t>(edge_index & 0xFF),
                     static_cast<std::uint8_t>(end == 0 ? 1 : 2));
}

}  // namespace

CityTopology::CityTopology(const CityConfig& config) : config_(config) {
  UPR_INVARIANT(config_.spec.channels >= 1 &&
                    config_.spec.channels <= kMaxChannels &&
                    config_.spec.stations >= 1 &&
                    config_.spec.stations <= kMaxStationsPerChannel,
                "city spec out of range (%zu channels x %zu stations)",
                config_.spec.channels, config_.spec.stations);
  shards_ = std::make_unique<ShardSet>(config_.spec.channels);

  cells_.reserve(config_.spec.channels);
  for (std::size_t c = 0; c < config_.spec.channels; ++c) {
    BuildCell(c);
  }
  BuildBackbone();
  BuildRoutes();
  InstallTraffic();
}

CityTopology::~CityTopology() = default;

void CityTopology::BuildCell(std::size_t c) {
  auto cell = std::make_unique<Cell>();
  Simulator* sim = shards_->shard(c);

  RadioChannelConfig rc;
  rc.bit_rate = config_.radio_bit_rate;
  cell->channel = std::make_unique<RadioChannel>(
      sim, rc, MixSeed(config_.seed, "city-ch" + std::to_string(c)));

  // The gateway is a full radio station (its TNC hears the channel like any
  // other) whose stack forwards between the radio net and its trunks.
  RadioStationConfig gw;
  gw.hostname = "gw" + std::to_string(c);
  gw.callsign = GatewayCall(c);
  gw.ip = GatewayIp(c);
  gw.prefix_len = 16;  // 44.c.0.0/16 is this channel's net
  gw.serial_baud = config_.serial_baud;
  gw.silo_depth = config_.silo_depth;
  gw.tnc.mac = config_.mac;
  gw.seed = MixSeed(config_.seed, "city-gw" + std::to_string(c));
  cell->gateway = std::make_unique<RadioStation>(sim, cell->channel.get(), gw);
  cell->gateway->stack().set_forwarding(true);

  const std::size_t digis = DigisForStations(config_.spec.stations);
  for (std::size_t d = 0; d < digis; ++d) {
    cell->digis.push_back(std::make_unique<Digipeater>(
        sim, cell->channel.get(), DigiCall(c, d), config_.mac,
        MixSeed(config_.seed,
                "city-digi" + std::to_string(c) + "." + std::to_string(d))));
  }

  cell->stations.reserve(config_.spec.stations);
  cell->station_rngs.reserve(config_.spec.stations);
  for (std::size_t i = 0; i < config_.spec.stations; ++i) {
    RadioStationConfig st;
    st.hostname = "c" + std::to_string(c) + "s" + std::to_string(i);
    st.callsign = StationCall(i);
    st.ip = StationIp(c, i);
    st.prefix_len = 16;
    st.serial_baud = config_.serial_baud;
    st.silo_depth = config_.silo_depth;
    st.tnc.mac = config_.mac;
    st.seed = MixSeed(config_.seed, "city-st" + std::to_string(c) + "." +
                                        std::to_string(i));
    cell->stations.push_back(
        std::make_unique<RadioStation>(sim, cell->channel.get(), st));
    RadioStation& station = *cell->stations.back();
    station.stack().routes().AddDefault(GatewayIp(c), station.radio_if());
    // Static ARP both ways; every sixteenth station reaches the gateway
    // through a digipeater (its replies come back direct — asymmetric paths
    // are normal on the air).
    cell->gateway->radio_if()->AddArpEntry(StationIp(c, i), StationCall(i));
    if (i % 16 == 3 && !cell->digis.empty()) {
      station.radio_if()->AddArpEntry(
          GatewayIp(c), GatewayCall(c),
          {DigiCall(c, (i / 16) % cell->digis.size())});
    } else {
      station.radio_if()->AddArpEntry(GatewayIp(c), GatewayCall(c));
    }
    cell->station_rngs.emplace_back(
        MixSeed(config_.seed,
                "city-ping" + std::to_string(c) + "." + std::to_string(i)));
  }
  cells_.push_back(std::move(cell));
}

void CityTopology::BuildBackbone() {
  const std::size_t c = cells_.size();
  adjacency_.assign(c, {});
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  if (c >= 2) {
    // Ring: i — i+1 (mod C). For C == 2 that is a single link.
    for (std::size_t i = 0; i + 1 < c; ++i) {
      edges.emplace_back(i, i + 1);
    }
    if (c > 2) {
      edges.emplace_back(c - 1, 0);
    }
    // Cross-town chords halve the ring diameter: i — i + C/2.
    if (c >= 4) {
      for (std::size_t i = 0; i < c / 2; ++i) {
        const std::size_t j = i + c / 2;
        if (j != i + 1 && !(i == 0 && j == c - 1)) {
          edges.emplace_back(i, j);
        }
      }
    }
  }
  for (const auto& [a, b] : edges) {
    TrunkEdge edge;
    edge.a = a;
    edge.b = b;
    const std::size_t t = trunk_edges_.size();
    edge.a_ip = TrunkIp(t, 0);
    edge.b_ip = TrunkIp(t, 1);
    TrunkConfig tc;
    tc.bit_rate = config_.trunk_bit_rate;
    tc.latency = config_.trunk_latency;
    const std::string name = "tk" + std::to_string(t);
    auto a_if = std::make_unique<TrunkLink>(name, shards_.get(), a, tc);
    auto b_if = std::make_unique<TrunkLink>(name, shards_.get(), b, tc);
    a_if->Configure(edge.a_ip, 30);
    b_if->Configure(edge.b_ip, 30);
    TrunkLink::Wire(a_if.get(), b_if.get());
    edge.a_if = static_cast<TrunkLink*>(
        cells_[a]->gateway->stack().AddInterface(std::move(a_if)));
    edge.b_if = static_cast<TrunkLink*>(
        cells_[b]->gateway->stack().AddInterface(std::move(b_if)));
    cells_[a]->trunk_ifs.push_back(edge.a_if);
    cells_[b]->trunk_ifs.push_back(edge.b_if);
    adjacency_[a].push_back(b);
    adjacency_[b].push_back(a);
    trunk_edges_.push_back(edge);
  }
  for (auto& neighbors : adjacency_) {
    std::sort(neighbors.begin(), neighbors.end());
  }
}

bool CityTopology::BackboneConnected() const {
  if (cells_.size() <= 1) {
    return true;
  }
  std::vector<bool> seen(cells_.size(), false);
  std::deque<std::size_t> queue{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!queue.empty()) {
    const std::size_t g = queue.front();
    queue.pop_front();
    for (std::size_t n : adjacency_[g]) {
      if (!seen[n]) {
        seen[n] = true;
        ++visited;
        queue.push_back(n);
      }
    }
  }
  return visited == cells_.size();
}

void CityTopology::BuildRoutes() {
  const std::size_t c = cells_.size();
  if (c <= 1) {
    return;
  }
  // For each destination channel d, a BFS tree rooted at d (neighbors in
  // ascending order) gives every other gateway its deterministic next hop.
  for (std::size_t d = 0; d < c; ++d) {
    std::vector<std::size_t> parent(c, c);  // c = unreached
    std::deque<std::size_t> queue{d};
    parent[d] = d;
    while (!queue.empty()) {
      const std::size_t g = queue.front();
      queue.pop_front();
      for (std::size_t n : adjacency_[g]) {
        if (parent[n] == c) {
          parent[n] = g;
          queue.push_back(n);
        }
      }
    }
    const IpV4Prefix dst_net =
        IpV4Prefix::FromCidr(IpV4Address(44, static_cast<std::uint8_t>(d), 0, 0), 16);
    for (std::size_t g = 0; g < c; ++g) {
      if (g == d || parent[g] == c) {
        continue;
      }
      const std::size_t next = parent[g];
      // The trunk edge connecting g and next.
      for (const TrunkEdge& e : trunk_edges_) {
        if (e.a == g && e.b == next) {
          cells_[g]->gateway->stack().routes().AddVia(dst_net, e.b_ip, e.a_if);
          break;
        }
        if (e.b == g && e.a == next) {
          cells_[g]->gateway->stack().routes().AddVia(dst_net, e.a_ip, e.b_if);
          break;
        }
      }
    }
  }
}

IpV4Address CityTopology::PingTarget(std::size_t c, std::size_t i) const {
  const std::size_t channels = cells_.size();
  if (channels > 1 && i % 4 == 1) {
    // Cross-channel: a station on a deterministically chosen other channel,
    // through the local gateway and the backbone.
    const std::size_t d = (c + 1 + (i / 4) % (channels - 1)) % channels;
    const std::size_t j = (i * 7 + 3) % cells_[d]->stations.size();
    return StationIp(d, j);
  }
  return GatewayIp(c);
}

void CityTopology::SchedulePing(std::size_t c, std::size_t i, bool first) {
  Cell& cell = *cells_[c];
  Rng& rng = cell.station_rngs[i];
  const SimTime period = config_.ping_period;
  // First ping lands somewhere in the first period; afterwards the period
  // gets ±25% jitter so stations do not phase-lock.
  const SimTime delay =
      first ? static_cast<SimTime>(rng.NextBelow(
                  static_cast<std::uint64_t>(period)))
            : period - period / 4 +
                  static_cast<SimTime>(rng.NextBelow(
                      static_cast<std::uint64_t>(period / 2)));
  cells_[c]->stations[i]->stack().sim()->Schedule(delay, [this, c, i] {
    Cell& cl = *cells_[c];
    ++cl.traffic.pings_sent;
    cl.stations[i]->stack().icmp().Ping(
        PingTarget(c, i), config_.ping_payload,
        [&cl](bool ok, SimTime) {
          if (ok) {
            ++cl.traffic.pings_ok;
          } else {
            ++cl.traffic.pings_failed;
          }
        },
        config_.ping_timeout);
    SchedulePing(c, i, false);
  });
}

void CityTopology::InstallTraffic() {
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    for (std::size_t i = 0; i < cells_[c]->stations.size(); ++i) {
      SchedulePing(c, i, true);
    }
  }
}

std::size_t CityTopology::station_count() const {
  std::size_t n = 0;
  for (const auto& cell : cells_) {
    n += cell->stations.size();
  }
  return n;
}

std::size_t CityTopology::digipeater_count() const {
  std::size_t n = 0;
  for (const auto& cell : cells_) {
    n += cell->digis.size();
  }
  return n;
}

std::size_t CityTopology::Run(SimTime duration) {
  return shards_->RunUntil(duration);
}

ChannelTraffic CityTopology::TrafficTotal() const {
  ChannelTraffic total;
  for (const auto& cell : cells_) {
    total.pings_sent += cell->traffic.pings_sent;
    total.pings_ok += cell->traffic.pings_ok;
    total.pings_failed += cell->traffic.pings_failed;
  }
  return total;
}

std::string CityTopology::FormatSummary() const {
  // Stable text: the city golden compares this byte-for-byte.
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "city %zux%zu trunks=%zu digis=%zu\n",
                cells_.size(), config_.spec.stations, trunk_edges_.size(),
                digipeater_count());
  out += line;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = *cells_[c];
    const InterfaceStats& radio = cell.gateway->radio_if()->stats();
    std::uint64_t trunk_in = 0;
    std::uint64_t trunk_out = 0;
    std::uint64_t trunk_drops = 0;
    for (const TrunkLink* t : cell.trunk_ifs) {
      trunk_in += t->stats().ipackets;
      trunk_out += t->stats().opackets;
      trunk_drops += t->stats().odrops;
    }
    std::snprintf(line, sizeof(line),
                  "ch%-3zu pings %llu/%llu/%llu gw-radio %llu/%llu "
                  "trunk %llu/%llu drop %llu\n",
                  c, static_cast<unsigned long long>(cell.traffic.pings_sent),
                  static_cast<unsigned long long>(cell.traffic.pings_ok),
                  static_cast<unsigned long long>(cell.traffic.pings_failed),
                  static_cast<unsigned long long>(radio.ipackets),
                  static_cast<unsigned long long>(radio.opackets),
                  static_cast<unsigned long long>(trunk_in),
                  static_cast<unsigned long long>(trunk_out),
                  static_cast<unsigned long long>(trunk_drops));
    out += line;
  }
  const ChannelTraffic total = TrafficTotal();
  std::snprintf(line, sizeof(line), "total pings %llu/%llu/%llu\n",
                static_cast<unsigned long long>(total.pings_sent),
                static_cast<unsigned long long>(total.pings_ok),
                static_cast<unsigned long long>(total.pings_failed));
  out += line;
  return out;
}

}  // namespace upr::topo
