// City — the regional AMPRnet macro-bench: one seeded city topology run on
// the sharded merge, reporting events/sec.
//
// The full run is 64 channels × 1000 stations, one simulated second of
// seeded ping traffic (local, cross-backbone, and digipeated). The traffic
// counters and executed-event count are deterministic simulation outputs
// (they land in the ledger as exact sim metrics); the wall-clock rate lands
// as a banded one-sided wall metric. Smoke mode shrinks the topology.
#include <chrono>
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/scenario/topo_gen.h"

using namespace upr;
using namespace upr::bench;

int main(int argc, char** argv) {
  BenchReport rep("city", &argc, argv);
  const topo::CitySpec spec = rep.smoke()
                                  ? topo::CitySpec{4, 12}
                                  : topo::CitySpec{64, 1000};
  // One simulated second of the full city is already millions of events (the
  // channels run congested, which is the point of a load bench); the smoke
  // topology is small enough to afford two.
  const int sim_secs = rep.smoke() ? 2 : 1;
  rep.Param("channels", static_cast<std::int64_t>(spec.channels));
  rep.Param("stations_per_channel", static_cast<std::int64_t>(spec.stations));
  rep.Param("sim_seconds", sim_secs);
  rep.Param("rate", 9600);
  rep.Param("seed", 7);

  std::printf(
      "City: %zu channels x %zu stations, %d simulated seconds of seeded "
      "pings\n",
      spec.channels, spec.stations, sim_secs);

  topo::CityConfig cfg;
  cfg.spec = spec;
  cfg.seed = 7;
  cfg.radio_bit_rate = 9600;
  topo::CityTopology city(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t events = city.Run(Seconds(sim_secs));
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double events_per_sec =
      secs > 0 ? static_cast<double>(events) / secs : 0.0;
  const topo::ChannelTraffic traffic = city.TrafficTotal();

  rep.Header("sharded merge", {"events", "secs", "events_per_sec"}, 14,
             TableKind::kWall);
  rep.Row({FmtInt(events), Fmt(secs, 3), Fmt(events_per_sec, 0)}, 14);
  rep.Wall("serial_events_per_sec", events_per_sec, "higher");

  rep.Header("seeded traffic", {"pings_sent", "pings_ok", "pings_failed"}, 14,
             TableKind::kSim);
  rep.Row({FmtInt(traffic.pings_sent), FmtInt(traffic.pings_ok),
           FmtInt(traffic.pings_failed)},
          14);
  rep.Sim("pings_sent", traffic.pings_sent);
  rep.Sim("pings_ok", traffic.pings_ok);
  rep.Events(events);

  std::printf("\n%.0f events/sec\n", events_per_sec);
  return rep.Finish(0);
}
