// E8-copy — the cost of carrying a datagram through the gateway, in buffer
// work rather than channel time: bytes memcpy'd between buffers and buffer
// allocations per forwarded datagram.
//
// The radio->radio forward runs on the datapath the driver uses: one owned
// copy out of the decoder's frame buffer into a headroom-carrying PacketBuf,
// TTL patched in place, AX.25 header prepended into headroom, KISS escape
// write at the edge. Its output must match, byte for byte, the frame the
// Bytes encoders build for the same forward.
//
// The gate is an absolute ceiling per payload size (the figures the
// datapath reached when the copy-per-layer pipeline it replaced was
// retired; that pipeline's numbers are kept in EXPERIMENTS.md). The bench
// exits non-zero if any forward copies more bytes or allocates more often,
// so tools/check.sh keeps the zero-copy path honest.
#include <cstdio>
#include <cstdlib>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/ax25/frame.h"
#include "src/kiss/kiss.h"
#include "src/net/ipv4.h"
#include "src/scenario/netstat.h"
#include "src/util/packet_buf.h"

using namespace upr;
using namespace upr::bench;

namespace {

const Ax25Address kPcCall("PC0", 0);
const Ax25Address kGwCall("GW", 0);
const Ax25Address kNextCall("PC1", 0);

// One UI/IP KISS frame carrying an IP datagram with `payload_len` transport
// bytes: as it arrives from the TNC (PC0 -> GW), or as the gateway must send
// it on (GW -> PC1, TTL one lower). The forwarded frame, built by the Bytes
// encoders, is the reference for the datapath's wire output.
Bytes MakeWire(std::size_t payload_len, bool forwarded) {
  Bytes payload(payload_len, 0);
  for (std::size_t i = 0; i < payload_len; ++i) {
    // Include FEND/FESC values so KISS escaping does real work.
    payload[i] = static_cast<std::uint8_t>(i * 37);
  }
  Ipv4Header h;
  h.identification = 42;
  h.protocol = kIpProtoUdp;
  h.source = IpV4Address(44, 24, 1, 2);
  h.destination = IpV4Address(44, 24, 2, 3);
  if (forwarded) {
    --h.ttl;
  }
  Ax25Frame f = forwarded
                    ? Ax25Frame::MakeUi(kNextCall, kGwCall, kPidIp, h.Encode(payload))
                    : Ax25Frame::MakeUi(kGwCall, kPcCall, kPidIp, h.Encode(payload));
  return KissEncodeData(f.Encode());
}

// The datapath: decode over views, one owned copy, prepend in place.
Bytes Forward(const Bytes& in_wire) {
  Bytes out_wire;
  KissDecoder dec([&](std::uint8_t, KissCommand, ByteView frame_wire) {
    auto fr = Ax25Frame::DecodeView(frame_wire);
    if (!fr) {
      return;
    }
    PacketBuf pb;
    {
      BufLayerScope scope(BufLayer::kDriver);
      pb = PacketBuf::FromView(fr->info, PacketBuf::kDefaultHeadroom);
    }
    if (!Ipv4Header::DecodeView(pb.view())) {
      return;
    }
    Ipv4Header::DecrementTtlInPlace(pb.data());
    Ax25Frame out = Ax25Frame::MakeUi(kNextCall, kGwCall, kPidIp, {});
    out.EncodeTo(&pb);
    KissEncodeInto(pb.view(), &out_wire);
  });
  dec.Feed(in_wire);
  return out_wire;
}

struct RunStats {
  double bytes_per_dgram = 0;
  double allocs_per_dgram = 0;
};

RunStats Measure(const Bytes& in_wire, int iters) {
  ResetBufStats();
  Bytes last;
  for (int i = 0; i < iters; ++i) {
    last = Forward(in_wire);
  }
  BufLayerStats t = BufStatsTotal();
  RunStats r;
  r.bytes_per_dgram = static_cast<double>(t.bytes_copied) / iters;
  r.allocs_per_dgram = static_cast<double>(t.allocs) / iters;
  if (last.empty()) {
    std::fprintf(stderr, "forward produced no output\n");
    std::exit(1);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("e8_copy_path", &argc, argv);
  // One smoke iteration for CI / sanitizer jobs.
  int iters = rep.smoke() ? 1 : 1000;
  rep.Param("iters", iters);
  rep.Param("payloads", "64,200,236");

  std::printf("E8-copy: buffer work per gateway-forwarded datagram\n");
  rep.Header("radio->radio forward, per datagram",
             {"payload", "copied_B", "max_B", "allocs", "max_allocs"}, 11);

  // Ceilings per payload size: bytes copied, and allocations.
  struct Case {
    std::size_t payload;
    double max_bytes;
    double max_allocs;
  };
  const Case cases[] = {{64, 187, 1.0}, {200, 460, 1.0}, {236, 532, 1.0}};
  bool ok = true;
  for (const Case& c : cases) {
    Bytes in_wire = MakeWire(c.payload, /*forwarded=*/false);
    if (Forward(in_wire) != MakeWire(c.payload, /*forwarded=*/true)) {
      std::fprintf(stderr, "output mismatch at payload %zu\n", c.payload);
      return 1;
    }
    RunStats r = Measure(in_wire, iters);
    rep.Row({FmtInt(c.payload), Fmt(r.bytes_per_dgram, 0), Fmt(c.max_bytes, 0),
             Fmt(r.allocs_per_dgram, 1), Fmt(c.max_allocs, 1)},
            11);
    if (r.bytes_per_dgram > c.max_bytes || r.allocs_per_dgram > c.max_allocs) {
      ok = false;
    }
  }

  // The same counters on the live stack: a ping forwarded radio->Ethernet
  // through the testbed gateway, attributed per layer (what `uprsim
  // --netstat` prints).
  std::printf("\n== live gateway forward (testbed ping, per-layer) ==\n");
  {
    TestbedConfig cfg;
    cfg.radio_pcs = 1;
    cfg.ether_hosts = 1;
    Testbed tb(cfg);
    ResetBufStats();
    auto rtt = RunPing(&tb.sim(), &tb.pc(0).stack(), Testbed::EtherHostIp(0), 64,
                       Seconds(600));
    std::printf("%s", FormatBufStats().c_str());
    std::printf("ping %s\n", rtt ? "completed" : "timed out");
    rep.Events(tb.sim().events_scheduled());
  }

  std::printf("\n%s: bytes copied and allocations per datagram %s the ceilings\n",
              ok ? "PASS" : "FAIL", ok ? "within" : "ABOVE");
  return rep.Finish(ok ? 0 : 1);
}
