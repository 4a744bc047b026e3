// Property: the PacketBuf TX path (headers prepended in place) is
// byte-for-byte equivalent to the legacy Bytes encode at every layer —
// UDP, IPv4, AX.25, KISS — for arbitrary payloads, and stays equivalent
// when headroom is exhausted mid-chain, when buffers are trimmed, and
// across the forwarding fast path (in-place TTL decrement) and
// fragmentation slicing.
#include <gtest/gtest.h>

#include "src/ax25/frame.h"
#include "src/kiss/kiss.h"
#include "src/net/ipv4.h"
#include "src/udp/udp.h"
#include "src/util/packet_buf.h"
#include "src/util/random.h"

namespace upr {
namespace {

Bytes RandomPayload(Rng* rng, std::size_t max_len) {
  Bytes b(rng->NextBelow(max_len + 1));
  for (auto& byte : b) {
    // Bias toward KISS special characters so escaping paths are exercised.
    switch (rng->NextBelow(4)) {
      case 0:
        byte = kKissFend;
        break;
      case 1:
        byte = kKissFesc;
        break;
      default:
        byte = static_cast<std::uint8_t>(rng->NextU64());
    }
  }
  return b;
}

Ipv4Header RandomIpHeader(Rng* rng) {
  Ipv4Header h;
  h.tos = static_cast<std::uint8_t>(rng->NextU64());
  h.identification = static_cast<std::uint16_t>(rng->NextU64());
  h.ttl = static_cast<std::uint8_t>(1 + rng->NextBelow(254));
  h.protocol = kIpProtoUdp;
  h.source = IpV4Address(static_cast<std::uint32_t>(rng->NextU64()));
  h.destination = IpV4Address(static_cast<std::uint32_t>(rng->NextU64()));
  if (rng->NextBelow(4) == 0) {
    h.options = RandomPayload(rng, 12);
  }
  return h;
}

Ax25Frame RandomUi(Rng* rng) {
  std::vector<Ax25Digipeater> digis;
  std::size_t n_digis = rng->NextBelow(3);
  for (std::size_t i = 0; i < n_digis; ++i) {
    digis.push_back(Ax25Digipeater{
        Ax25Address("DIGI" + std::to_string(i), static_cast<int>(rng->NextBelow(16))),
        rng->Chance(0.5)});
  }
  return Ax25Frame::MakeUi(Ax25Address("DEST", static_cast<int>(rng->NextBelow(16))),
                           Ax25Address("SRC", static_cast<int>(rng->NextBelow(16))),
                           kPidIp, {}, std::move(digis));
}

TEST(BufEquivProperty, Ipv4EncodeToMatchesLegacyEncode) {
  Rng rng(0xE81);
  for (int i = 0; i < 200; ++i) {
    Ipv4Header h = RandomIpHeader(&rng);
    Bytes payload = RandomPayload(&rng, 300);

    PacketBuf pb = PacketBuf::FromView(payload, PacketBuf::kDefaultHeadroom);
    h.EncodeTo(&pb);
    EXPECT_EQ(pb.ToBytes(), h.Encode(payload)) << "iteration " << i;
  }
}

TEST(BufEquivProperty, Ax25EncodeToMatchesLegacyEncode) {
  Rng rng(0xE82);
  for (int i = 0; i < 200; ++i) {
    Ax25Frame f = RandomUi(&rng);
    Bytes info = RandomPayload(&rng, 300);

    PacketBuf pb = PacketBuf::FromView(info, PacketBuf::kDefaultHeadroom);
    f.EncodeTo(&pb);

    Ax25Frame legacy = f;
    legacy.info = info;
    EXPECT_EQ(pb.ToBytes(), legacy.Encode()) << "iteration " << i;
  }
}

TEST(BufEquivProperty, KissEncodeIntoMatchesLegacyEncode) {
  Rng rng(0xE83);
  for (int i = 0; i < 200; ++i) {
    Bytes payload = RandomPayload(&rng, 300);
    auto port = static_cast<std::uint8_t>(rng.NextBelow(16));

    Bytes via_into;
    KissEncodeInto(payload, &via_into, port);

    KissFrame frame;
    frame.port = port;
    frame.payload = payload;
    EXPECT_EQ(via_into, KissEncode(frame)) << "iteration " << i;
  }
}

// The whole TX chain: UDP segment built in a PacketBuf, IP then AX.25
// prepended into headroom, KISS escape at the edge — against the nested
// legacy encodes. Run once with ample headroom and once with none, so the
// equivalence also covers the Grow() path (headroom exhaustion at every
// prepend).
TEST(BufEquivProperty, FullChainMatchesNestedLegacyEncodes) {
  Rng rng(0xE84);
  for (int i = 0; i < 100; ++i) {
    Bytes user_data = RandomPayload(&rng, 200);
    Ipv4Header ip = RandomIpHeader(&rng);
    Ax25Frame ui = RandomUi(&rng);

    UdpDatagram udp;
    udp.source_port = static_cast<std::uint16_t>(rng.NextU64());
    udp.destination_port = static_cast<std::uint16_t>(rng.NextU64());

    // Legacy: every layer re-serializes.
    UdpDatagram udp_legacy = udp;
    udp_legacy.payload = user_data;
    Bytes segment = udp_legacy.Encode(ip.source, ip.destination);
    Ax25Frame ui_legacy = ui;
    ui_legacy.info = ip.Encode(segment);
    Bytes legacy_wire = KissEncodeData(ui_legacy.Encode());

    for (std::size_t headroom : {PacketBuf::kDefaultHeadroom, std::size_t{0}}) {
      ResetBufStats();
      PacketBuf pb = PacketBuf::FromView(user_data, headroom);
      udp.EncodeTo(&pb, ip.source, ip.destination);
      ip.EncodeTo(&pb);
      ui.EncodeTo(&pb);
      Bytes wire;
      KissEncodeInto(pb.view(), &wire);
      EXPECT_EQ(wire, legacy_wire) << "iteration " << i << " headroom " << headroom;
      if (headroom == 0) {
        // Exhausted headroom must be visible in the counters...
        EXPECT_GE(BufStatsTotal().prepend_reallocs, 1u);
      } else {
        // ...and generous headroom must avoid regrowth entirely.
        EXPECT_EQ(BufStatsTotal().prepend_reallocs, 0u);
      }
    }
  }
}

// Forwarding fast path: patching TTL + checksum in the buffer equals a
// decrement-and-re-encode, bit for bit.
TEST(BufEquivProperty, DecrementTtlInPlaceMatchesReencode) {
  Rng rng(0xE85);
  for (int i = 0; i < 200; ++i) {
    Ipv4Header h = RandomIpHeader(&rng);
    Bytes payload = RandomPayload(&rng, 300);
    Bytes datagram = h.Encode(payload);

    PacketBuf pb = PacketBuf::FromView(datagram, PacketBuf::kDefaultHeadroom);
    Ipv4Header::DecrementTtlInPlace(pb.data());

    Ipv4Header fwd = h;
    --fwd.ttl;
    EXPECT_EQ(pb.ToBytes(), fwd.Encode(payload)) << "iteration " << i;
    // Still a valid datagram after the patch.
    EXPECT_TRUE(Ipv4Header::DecodeView(pb.view()).has_value());
  }
}

// Fragmentation slicing: building each fragment from a view subspan of the
// reassembled payload (what NetStack::TransmitVia does) equals encoding the
// fragment from a copied Bytes slice. Also exercises TrimFront/TrimBack as
// the slicing primitive.
TEST(BufEquivProperty, FragmentSlicesMatchLegacySlices) {
  Rng rng(0xE86);
  for (int i = 0; i < 100; ++i) {
    Ipv4Header h = RandomIpHeader(&rng);
    h.options.clear();
    Bytes payload = RandomPayload(&rng, 600);
    if (payload.empty()) {
      // Assigned, not push_back: GCC 12 at -O3 reports a false
      // -Wfree-nonheap-object for growing the empty vector.
      payload = Bytes{0x55};
    }
    std::size_t mtu = 68 + rng.NextBelow(200);
    std::size_t max_frag = (mtu - h.HeaderLength()) / 8 * 8;
    if (max_frag == 0) {
      max_frag = 8;
    }

    for (std::size_t off = 0; off < payload.size(); off += max_frag) {
      std::size_t n = std::min(max_frag, payload.size() - off);
      Ipv4Header fh = h;
      fh.fragment_offset = static_cast<std::uint16_t>(off / 8);
      fh.more_fragments = off + n < payload.size();

      // Datapath: a view into the parent buffer, no intermediate Bytes.
      PacketBuf frag =
          PacketBuf::FromView(ByteView(payload).subspan(off, n), PacketBuf::kDefaultHeadroom);
      fh.EncodeTo(&frag);

      // Same slice via trims on a full copy of the payload.
      PacketBuf trimmed = PacketBuf::FromView(payload, PacketBuf::kDefaultHeadroom);
      trimmed.TrimFront(off);
      trimmed.TrimBack(payload.size() - off - n);
      fh.EncodeTo(&trimmed);

      Bytes legacy = fh.Encode(Bytes(payload.begin() + static_cast<std::ptrdiff_t>(off),
                                     payload.begin() + static_cast<std::ptrdiff_t>(off + n)));
      EXPECT_EQ(frag.ToBytes(), legacy) << "iteration " << i << " offset " << off;
      EXPECT_EQ(trimmed.ToBytes(), legacy) << "iteration " << i << " offset " << off;
    }
  }
}

// RX round trip: the view decoders recover exactly what the encoders were
// given, with the payload views aliasing the wire buffer (no copy).
TEST(BufEquivProperty, ViewDecodersRecoverEncodedFields) {
  Rng rng(0xE87);
  for (int i = 0; i < 100; ++i) {
    Ipv4Header h = RandomIpHeader(&rng);
    Bytes payload = RandomPayload(&rng, 200);
    Bytes datagram = h.Encode(payload);

    auto view = Ipv4Header::DecodeView(datagram);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->payload.data(), datagram.data() + h.HeaderLength());
    EXPECT_EQ(Bytes(view->payload.begin(), view->payload.end()), payload);
    EXPECT_EQ(view->header.ToString(), h.ToString());
    EXPECT_EQ(view->header.Encode(payload), datagram);

    Ax25Frame ui = RandomUi(&rng);
    ui.info = datagram;
    Bytes wire = ui.Encode();
    auto fview = Ax25Frame::DecodeView(wire);
    ASSERT_TRUE(fview.has_value());
    EXPECT_EQ(fview->info.data(), wire.data() + ui.HeaderLength());
    // DecodeView leaves frame.info empty (the view carries it); graft it on
    // for a whole-frame comparison.
    Ax25Frame reassembled = fview->frame;
    reassembled.info.assign(fview->info.begin(), fview->info.end());
    EXPECT_EQ(reassembled.ToString(), ui.ToString());
    EXPECT_EQ(reassembled.Encode(), wire);
  }
}

}  // namespace
}  // namespace upr
