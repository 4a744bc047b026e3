// F1 — Figure 1 of the paper: Radio — TNC — RS-232 — DZ — Host.
//
// Regenerates the figure as a latency budget: for a sweep of packet sizes,
// where does the time go on one hop between two stations? The paper's whole
// §3 argument ("transmission time is the dominant factor") falls out of the
// air-time column dwarfing everything else at 1200 bps.
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/scenario/testbed.h"

using namespace upr;
using namespace upr::bench;

namespace {

struct StagePair {
  std::unique_ptr<RadioStation> a;
  std::unique_ptr<RadioStation> b;
};

RadioStationConfig StationConfig(std::string hostname, Ax25Address callsign,
                                 IpV4Address ip, std::uint32_t baud,
                                 std::uint64_t seed) {
  RadioStationConfig c;
  // Moved in, not assigned from a literal: GCC 12 at -O3 reports a false
  // -Wrestrict for replacing the default hostname in place.
  c.hostname = std::move(hostname);
  c.callsign = callsign;
  c.ip = ip;
  c.serial_baud = baud;
  c.seed = seed;
  // Deterministic MAC for a clean budget: no persistence lottery.
  c.tnc.mac.persistence = 1.0;
  return c;
}

StagePair MakePair(Simulator* sim, RadioChannel* channel, std::uint32_t baud) {
  StagePair p;
  const RadioStationConfig ca =
      StationConfig("a", Ax25Address("KD7AA", 0), IpV4Address(44, 24, 0, 10), baud, 1);
  p.a = std::make_unique<RadioStation>(sim, channel, ca);
  const RadioStationConfig cb =
      StationConfig("b", Ax25Address("KD7BB", 0), IpV4Address(44, 24, 0, 11), baud, 2);
  p.b = std::make_unique<RadioStation>(sim, channel, cb);
  p.a->radio_if()->AddArpEntry(cb.ip, cb.callsign);
  p.b->radio_if()->AddArpEntry(ca.ip, ca.callsign);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("fig1_pipeline", &argc, argv);
  rep.Param("seed", 99);
  rep.Param("serial_baud", 9600);
  rep.Param("txdelay_ms", 300);
  std::printf("F1: figure-1 pipeline latency budget (Radio-TNC-RS232-DZ-Host)\n");
  std::printf("channel 1200 bps, serial 9600 baud, TXDELAY 300 ms\n");

  rep.Header("one-way latency budget per stage (ms), ICMP echo of given payload",
              {"payload_B", "kiss_B", "serial_ms", "txdelay_ms", "air_ms",
               "predicted_ms", "measured_rtt_ms"});

  for (std::size_t payload : {0, 16, 64, 128, 216}) {
    Simulator sim;
    RadioChannelConfig rc;
    rc.bit_rate = 1200;
    RadioChannel channel(&sim, rc, 99);
    StagePair pair = MakePair(&sim, &channel, 9600);

    // Sizes: ICMP(8+payload) + IP(20) + AX.25 UI hdr(16) = frame body.
    std::size_t frame = 8 + payload + 20 + 16;
    // KISS adds FEND,type,FEND (escapes are payload-dependent; pattern bytes
    // here never need escaping).
    std::size_t kiss = frame + 3;
    double serial_ms = static_cast<double>(kiss) * 10.0 / 9600.0 * 1000.0;
    double txdelay_ms = 30.0 + 300.0 + 20.0;  // turnaround + keyup + txtail
    double air_ms = static_cast<double>(frame + 2) * 8.0 / 1200.0 * 1000.0;
    // Host->TNC serial, MAC keyup, air, TNC->host serial.
    double predicted_one_way = serial_ms + txdelay_ms + air_ms + serial_ms;

    auto rtt = RunPing(&sim, &pair.a->stack(), pair.b->ip(), payload, Seconds(120));
    rep.Row({FmtInt(payload), FmtInt(kiss), Fmt(serial_ms), Fmt(txdelay_ms),
             Fmt(air_ms), Fmt(predicted_one_way),
             rtt ? Fmt(ToMillis(*rtt)) : "timeout"});
    rep.Events(sim.events_scheduled());
  }

  std::printf("\nAt 1200 bps the air time is ~%d%% of the one-way latency for a\n"
              "216-byte payload — the serial hop and keyup are noise, matching\n"
              "the paper's 'transmission time is the dominant factor' (§3).\n",
              75);

  // Also show the budget at a faster link for contrast.
  rep.Header("same 128 B payload across channel bit rates",
              {"bit_rate", "air_ms", "measured_rtt_ms", "air_fraction"});
  for (std::uint64_t rate : {1200, 2400, 4800, 9600}) {
    Simulator sim;
    RadioChannelConfig rc;
    rc.bit_rate = rate;
    RadioChannel channel(&sim, rc, 99);
    StagePair pair = MakePair(&sim, &channel, 9600);
    std::size_t frame = 8 + 128 + 20 + 16 + 2;
    double air_ms = static_cast<double>(frame) * 8.0 / static_cast<double>(rate) * 1000.0;
    auto rtt = RunPing(&sim, &pair.a->stack(), pair.b->ip(), 128, Seconds(120));
    double fraction = rtt ? (2 * air_ms) / ToMillis(*rtt) : 0.0;
    rep.Row({FmtInt(rate), Fmt(air_ms), rtt ? Fmt(ToMillis(*rtt)) : "timeout",
             Fmt(fraction, 3)});
    rep.Events(sim.events_scheduled());
  }
  return rep.Finish();
}
