// Flight-recorder tests: ring bounding and truncation, per-layer hook
// coverage over the full testbed pipeline, and the golden pcapng round-trip —
// a 3-hop digipeated UI frame traced through uprsim's testbed must produce a
// pcapng the in-repo reader validates block for block.
#include <cstdio>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "src/ax25/frame.h"
#include "src/scenario/testbed.h"
#include "src/sim/simulator.h"
#include "src/trace/pcapng_reader.h"
#include "src/trace/pcapng_writer.h"
#include "src/trace/trace.h"
#include "src/util/panic.h"

namespace upr {
namespace {

// Interface name "e<i>", appended piecewise: GCC 12 at -O3 reports a false
// -Wrestrict for `"e" + std::string`.
std::string IfaceName(std::size_t i) {
  std::string name = "e";
  name += std::to_string(i);
  return name;
}

Bytes ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(TraceRing, BoundedAndOldestFirst) {
  Simulator sim;
  trace::TracerConfig cfg;
  cfg.ring_capacity = 4;
  trace::Tracer tracer(&sim, cfg);

  Bytes payload{0x01, 0x02, 0x03};
  for (std::size_t i = 0; i < 10; ++i) {
    tracer.Record(trace::Layer::kSerial, trace::Kind::kSerialEnqueue,
                  trace::Dir::kTx, IfaceName(i), payload);
  }
  EXPECT_EQ(tracer.stats().recorded, 10u);
  EXPECT_EQ(tracer.stats().ring_evicted, 6u);

  auto ring = tracer.RingSnapshot();
  ASSERT_EQ(ring.size(), 4u);
  // The four newest entries survive, oldest-first.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i]->seq, 6 + i);
    EXPECT_EQ(ring[i]->iface, IfaceName(6 + i));
  }
  EXPECT_NE(tracer.FormatRing().find("e9"), std::string::npos);
}

TEST(TraceRing, TruncatesToSnaplen) {
  Simulator sim;
  trace::TracerConfig cfg;
  cfg.snaplen = 8;
  trace::Tracer tracer(&sim, cfg);

  Bytes big(100, 0xAB);
  tracer.Record(trace::Layer::kMac, trace::Kind::kMacTxStart, trace::Dir::kTx,
                "p", big);
  auto ring = tracer.RingSnapshot();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0]->data.size(), 8u);
  EXPECT_EQ(ring[0]->orig_len, 100u);
  EXPECT_EQ(tracer.stats().truncated, 1u);
}

TEST(TraceRing, DisabledCostsNothingAndScopesNoOp) {
  EXPECT_EQ(trace::Active(), nullptr);
  {
    trace::IfScope scope("pc0 dz0", trace::Dir::kTx);
    // With no tracer installed the scope must not set the ambient name.
    EXPECT_TRUE(trace::CurrentIf().empty());
  }
  trace::DumpActiveRing(stderr);  // no-op, must not crash
}

TEST(TraceHooks, AllLayersEmitOnGatewayPing) {
  TestbedConfig cfg;
  cfg.radio_pcs = 1;
  cfg.ether_hosts = 1;
  Testbed tb(cfg);
  tb.PopulateRadioArp();

  trace::Tracer tracer(&tb.sim());
  trace::ScopedInstall install(&tracer);

  bool ok = false;
  tb.pc(0).stack().icmp().Ping(Testbed::EtherHostIp(0), 32,
                               [&](bool success, SimTime) { ok = success; });
  tb.sim().RunUntil(Seconds(120));
  ASSERT_TRUE(ok);

  const trace::TraceStats& s = tracer.stats();
  EXPECT_GT(s.per_layer[static_cast<int>(trace::Layer::kSerial)], 0u);
  EXPECT_GT(s.per_layer[static_cast<int>(trace::Layer::kKiss)], 0u);
  EXPECT_GT(s.per_layer[static_cast<int>(trace::Layer::kAx25)], 0u);
  EXPECT_GT(s.per_layer[static_cast<int>(trace::Layer::kIp)], 0u);
  EXPECT_GT(s.per_layer[static_cast<int>(trace::Layer::kMac)], 0u);
  EXPECT_GT(s.per_layer[static_cast<int>(trace::Layer::kGateway)], 0u);

  // Timestamps in the ring never run backwards.
  auto ring = tracer.RingSnapshot();
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_LE(ring[i - 1]->ts, ring[i]->ts);
  }
}

// The golden-file test of the issue: ping across two digipeaters (a 3-hop
// path for each direction), trace to pcapng, then round-trip the bytes
// through the in-repo reader.
TEST(Pcapng, GoldenDigipeatedRoundTrip) {
  const std::string path = "trace_golden_digi.pcapng";

  TestbedConfig cfg;
  cfg.radio_pcs = 2;
  cfg.ether_hosts = 0;
  cfg.digipeaters = 2;
  Testbed tb(cfg);
  tb.PopulateRadioArp();
  tb.SetDigiPath(0, Testbed::RadioPcIp(1),
                 {Testbed::DigiCallsign(0), Testbed::DigiCallsign(1)});

  bool ok = false;
  {
    trace::TracerConfig tcfg;
    tcfg.pcap_path = path;
    trace::Tracer tracer(&tb.sim(), tcfg);
    ASSERT_TRUE(tracer.pcap_ok());
    trace::ScopedInstall install(&tracer);

    tb.pc(0).stack().icmp().Ping(Testbed::RadioPcIp(1), 16,
                                 [&](bool success, SimTime) { ok = success; });
    tb.sim().RunUntil(Seconds(300));
    tracer.Flush();
    EXPECT_GT(tracer.stats().pcap_packets, 0u);
    EXPECT_GE(tracer.stats().pcap_interfaces, 2u);
  }
  ASSERT_TRUE(ok);

  Bytes file = ReadFileBytes(path);
  ASSERT_FALSE(file.empty());
  std::string error;
  auto parsed = trace::PcapngFile::Parse(file, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  // Every interface is a named LINKTYPE_AX25_KISS port with nanosecond
  // timestamps.
  ASSERT_GE(parsed->interfaces.size(), 2u);
  for (const auto& idb : parsed->interfaces) {
    EXPECT_EQ(idb.link_type, trace::kLinkTypeAx25Kiss);
    EXPECT_EQ(idb.tsresol, 9);
    EXPECT_FALSE(idb.name.empty());
  }

  // Packets reference real interfaces and sim-time stamps are monotone.
  ASSERT_FALSE(parsed->packets.empty());
  std::uint64_t prev_ts = 0;
  for (const auto& pkt : parsed->packets) {
    EXPECT_LT(pkt.interface_id, parsed->interfaces.size());
    EXPECT_GE(pkt.timestamp, prev_ts);
    prev_ts = pkt.timestamp;
    EXPECT_EQ(pkt.captured_len, pkt.data.size());
  }

  // The capture contains the digipeated UI frame: KISS type byte, then an
  // AX.25 UI frame routed via both digipeaters.
  bool found_digi_ui = false;
  for (const auto& pkt : parsed->packets) {
    if (pkt.data.size() < 2) {
      continue;
    }
    auto decoded = Ax25Frame::DecodeView(
        ByteView(pkt.data.data() + 1, pkt.data.size() - 1));
    if (decoded && decoded->frame.type == Ax25FrameType::kUi &&
        decoded->frame.digipeaters.size() == 2) {
      found_digi_ui = true;
      break;
    }
  }
  EXPECT_TRUE(found_digi_ui);

  // Byte-exact round trip: the reader kept every block raw; concatenating
  // them reconstructs the file.
  Bytes rebuilt;
  for (const auto& block : parsed->raw_blocks) {
    rebuilt.insert(rebuilt.end(), block.begin(), block.end());
  }
  EXPECT_EQ(rebuilt, file);

  // Keep the file on failure (CI uploads *.pcapng artifacts from the build
  // tree); remove it only when everything passed.
  if (!testing::Test::HasFailure()) {
    std::remove(path.c_str());
  }
}

// Satellite regression: EPB packet data is padded to a 32-bit boundary
// relative to the *start of the data field*, not the block or buffer start.
// Frames whose captured length is ≡ 1, 2, 3 (mod 4) each exercise a distinct
// pad width; all must survive writer → strict reader byte-exactly, and the
// file must stay structurally valid (the reader checks every block's
// alignment and trailing length).
TEST(Pcapng, OddLengthPayloadPaddingRoundTrips) {
  Simulator sim;
  const std::string path = "trace_padding.pcapng";
  std::vector<Bytes> frames;
  for (std::size_t len : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    Bytes f;
    for (std::size_t i = 0; i < len; ++i) {
      f.push_back(static_cast<std::uint8_t>(0xE0 + i));
    }
    frames.push_back(std::move(f));
  }
  {
    trace::TracerConfig cfg;
    cfg.pcap_path = path;
    trace::Tracer tracer(&sim, cfg);
    ASSERT_TRUE(tracer.pcap_ok());
    for (const Bytes& f : frames) {
      tracer.RecordFrame(trace::Layer::kKiss, trace::Kind::kKissFrameOut,
                         trace::Dir::kTx, "pad-port", f);
    }
    tracer.Flush();
  }
  Bytes file = ReadFileBytes(path);
  ASSERT_FALSE(file.empty());
  std::string error;
  auto parsed = trace::PcapngFile::Parse(file, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->packets.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    // On the wire the tracer prepends the KISS type byte (port 0, data).
    Bytes expected{0x00};
    expected.insert(expected.end(), frames[i].begin(), frames[i].end());
    EXPECT_EQ(parsed->packets[i].data, expected) << "frame " << i;
    EXPECT_EQ(parsed->packets[i].captured_len, expected.size());
    // Options after the padded data must have survived too — if padding were
    // off by even one byte the comment would be garbled or Parse would fail.
    EXPECT_EQ(parsed->packets[i].comment.rfind("kiss:frame-out", 0), 0u)
        << parsed->packets[i].comment;
  }
  std::remove(path.c_str());
}

// Satellite: the ring-buffer assertion hook. ANY failed invariant — not just
// workload failures — must dump the flight recorder before dying.
TEST(TraceRingDeathTest, PanicDumpsActiveRing) {
  Simulator sim;
  trace::Tracer tracer(&sim);
  trace::ScopedInstall install(&tracer);
  tracer.RecordFrame(trace::Layer::kKiss, trace::Kind::kKissFrameOut,
                     trace::Dir::kTx, "death-port", Bytes{0xDE, 0xAD});
  // Note: gtest compiles this as POSIX ERE without REG_NEWLINE, so `.`
  // spans newlines.
  EXPECT_DEATH(UPR_PANIC("invariant %d violated", 42),
               "panic at .*: invariant 42 violated.*"
               "=== trace ring \\(oldest first\\) ===.*death-port");
}

// Without an installed tracer the hook is a no-op: panic still dies cleanly.
TEST(TraceRingDeathTest, PanicWithoutTracerStillAborts) {
  EXPECT_DEATH(UPR_PANIC("bare panic"), "panic at .*: bare panic");
}

TEST(Pcapng, ReaderRejectsCorruptTrailingLength) {
  Simulator sim;
  const std::string path = "trace_corrupt.pcapng";
  {
    trace::TracerConfig cfg;
    cfg.pcap_path = path;
    trace::Tracer tracer(&sim, cfg);
    ASSERT_TRUE(tracer.pcap_ok());
    Bytes frame{0x00, 0x01, 0x02, 0x03, 0x04, 0x05};
    tracer.RecordFrame(trace::Layer::kKiss, trace::Kind::kKissFrameOut,
                       trace::Dir::kTx, "p0", frame);
    tracer.Flush();
  }
  Bytes file = ReadFileBytes(path);
  ASSERT_GT(file.size(), 4u);
  ASSERT_TRUE(trace::PcapngFile::Parse(file).has_value());

  // Flip the last block's trailing total-length field.
  file[file.size() - 4] ^= 0xFF;
  std::string error;
  EXPECT_FALSE(trace::PcapngFile::Parse(file, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(Pcapng, WriterReportsUnopenableFile) {
  Simulator sim;
  trace::TracerConfig cfg;
  cfg.pcap_path = "/nonexistent-dir/x.pcapng";
  trace::Tracer tracer(&sim, cfg);
  EXPECT_FALSE(tracer.pcap_ok());
  // Recording must still work (ring only).
  Bytes frame{0xAA};
  tracer.RecordFrame(trace::Layer::kKiss, trace::Kind::kKissFrameOut,
                     trace::Dir::kTx, "p0", frame);
  EXPECT_EQ(tracer.stats().recorded, 1u);
  EXPECT_EQ(tracer.stats().pcap_packets, 0u);
}

// Satellite: a mixed capture. Radio ports register as LINKTYPE_AX25_KISS and
// the LAN port as LINKTYPE_ETHERNET, each with its own interface block; the
// Ethernet packet body is the raw Ethernet-II frame with no pseudo-header.
TEST(Pcapng, MixedAx25AndEthernetInterfaces) {
  Simulator sim;
  const std::string path = "trace_mixed.pcapng";
  // dst MAC | src MAC | ethertype 0x0800 | 4 payload bytes.
  Bytes ether_frame{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x02, 0x60,
                    0x8C, 0x11, 0x22, 0x33, 0x08, 0x00, 0xDE, 0xAD,
                    0xBE, 0xEF};
  Bytes ax25_frame{0x10, 0x20, 0x30};
  {
    trace::TracerConfig cfg;
    cfg.pcap_path = path;
    trace::Tracer tracer(&sim, cfg);
    ASSERT_TRUE(tracer.pcap_ok());
    tracer.RecordFrame(trace::Layer::kKiss, trace::Kind::kKissFrameOut,
                       trace::Dir::kTx, "upr0", ax25_frame);
    tracer.RecordEtherFrame(trace::Kind::kEtherFrameOut, trace::Dir::kTx,
                            "qe0", ether_frame);
    tracer.RecordEtherFrame(trace::Kind::kEtherFrameIn, trace::Dir::kRx,
                            "qe0", ether_frame);
    tracer.Flush();
    EXPECT_EQ(tracer.stats().pcap_interfaces, 2u);
  }
  Bytes file = ReadFileBytes(path);
  ASSERT_FALSE(file.empty());
  std::string error;
  auto parsed = trace::PcapngFile::Parse(file, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  ASSERT_EQ(parsed->interfaces.size(), 2u);
  EXPECT_EQ(parsed->interfaces[0].name, "upr0");
  EXPECT_EQ(parsed->interfaces[0].link_type, trace::kLinkTypeAx25Kiss);
  EXPECT_EQ(parsed->interfaces[1].name, "qe0");
  EXPECT_EQ(parsed->interfaces[1].link_type, trace::kLinkTypeEthernet);

  ASSERT_EQ(parsed->packets.size(), 3u);
  // The AX.25 packet carries the KISS type byte; the Ethernet packets are
  // the raw frame, untouched.
  EXPECT_EQ(parsed->packets[0].interface_id, 0u);
  Bytes kiss_wire{0x00, 0x10, 0x20, 0x30};
  EXPECT_EQ(parsed->packets[0].data, kiss_wire);
  for (std::size_t i : {1u, 2u}) {
    EXPECT_EQ(parsed->packets[i].interface_id, 1u);
    EXPECT_EQ(parsed->packets[i].data, ether_frame);
    EXPECT_EQ(parsed->packets[i].comment.rfind("ether:frame-", 0), 0u)
        << parsed->packets[i].comment;
  }

  // Reusing the names must not mint new interface blocks.
  {
    trace::TracerConfig cfg;
    cfg.pcap_path = path;  // overwrite; fresh writer
    trace::Tracer tracer(&sim, cfg);
    tracer.RecordEtherFrame(trace::Kind::kEtherFrameOut, trace::Dir::kTx,
                            "qe0", ether_frame);
    tracer.RecordEtherFrame(trace::Kind::kEtherFrameOut, trace::Dir::kTx,
                            "qe0", ether_frame);
    tracer.Flush();
    EXPECT_EQ(tracer.stats().pcap_interfaces, 1u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace upr
