#include <gtest/gtest.h>

#include "src/ax25/address.h"
#include "src/ax25/frame.h"

namespace upr {
namespace {

TEST(Ax25AddressTest, ConstructionUpcasesAndValidates) {
  Ax25Address a("n7akr", 5);
  EXPECT_EQ(a.callsign(), "N7AKR");
  EXPECT_EQ(a.ssid(), 5);
  EXPECT_FALSE(a.IsNull());

  EXPECT_TRUE(Ax25Address("", 0).IsNull());
  EXPECT_TRUE(Ax25Address("TOOLONG1", 0).IsNull());
  EXPECT_TRUE(Ax25Address("AB", 16).IsNull());
  EXPECT_TRUE(Ax25Address("A B", 0).IsNull());
}

TEST(Ax25AddressTest, ParseForms) {
  auto a = Ax25Address::Parse("KD7NM");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->callsign(), "KD7NM");
  EXPECT_EQ(a->ssid(), 0);

  auto b = Ax25Address::Parse("W1GOH-15");
  ASSERT_TRUE(b);
  EXPECT_EQ(b->ssid(), 15);

  EXPECT_FALSE(Ax25Address::Parse("W1GOH-16"));
  EXPECT_FALSE(Ax25Address::Parse("W1GOH-"));
  EXPECT_FALSE(Ax25Address::Parse("-3"));
  EXPECT_FALSE(Ax25Address::Parse("W1GOH-1X"));
}

TEST(Ax25AddressTest, ToStringRoundTrip) {
  EXPECT_EQ(Ax25Address("K3MC", 0).ToString(), "K3MC");
  EXPECT_EQ(Ax25Address("K3MC", 7).ToString(), "K3MC-7");
  auto parsed = Ax25Address::Parse(Ax25Address("KB7DZ", 3).ToString());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, Ax25Address("KB7DZ", 3));
}

TEST(Ax25AddressTest, WireEncodingShiftsCharacters) {
  Ax25Address a("AB1", 4);
  auto wire = a.Encode(/*c_or_h_bit=*/true, /*last=*/false);
  EXPECT_EQ(wire[0], 'A' << 1);
  EXPECT_EQ(wire[1], 'B' << 1);
  EXPECT_EQ(wire[2], '1' << 1);
  EXPECT_EQ(wire[3], ' ' << 1);  // padding
  // SSID octet: C=1, reserved=11, ssid=4, ext=0.
  EXPECT_EQ(wire[6], 0x80 | 0x60 | (4 << 1));
}

TEST(Ax25AddressTest, WireDecodeRoundTrip) {
  for (std::uint8_t ssid : {0, 1, 15}) {
    for (bool bit : {false, true}) {
      for (bool last : {false, true}) {
        Ax25Address a("N7XYZ", ssid);
        auto wire = a.Encode(bit, last);
        auto d = Ax25Address::Decode(wire.data());
        ASSERT_TRUE(d);
        EXPECT_EQ(d->address, a);
        EXPECT_EQ(d->c_or_h_bit, bit);
        EXPECT_EQ(d->last, last);
      }
    }
  }
}

TEST(Ax25AddressTest, DecodeRejectsGarbage) {
  std::uint8_t bad[7] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x61};
  EXPECT_FALSE(Ax25Address::Decode(bad));  // low bits set in callsign
  std::uint8_t spaces[7] = {' ' << 1, ' ' << 1, ' ' << 1, ' ' << 1,
                            ' ' << 1, ' ' << 1, 0x61};
  EXPECT_FALSE(Ax25Address::Decode(spaces));  // empty callsign
}

TEST(Ax25AddressTest, Broadcast) {
  EXPECT_TRUE(Ax25Address::Broadcast().IsBroadcast());
  EXPECT_TRUE(Ax25Address("CQ", 0).IsBroadcast());
  EXPECT_FALSE(Ax25Address("CQ", 2).IsBroadcast());
  EXPECT_FALSE(Ax25Address("N7AKR", 0).IsBroadcast());
}

class Ax25FrameTest : public ::testing::Test {
 protected:
  Ax25Address dst_{"KD7NM", 0};
  Ax25Address src_{"N7AKR", 1};
};

TEST_F(Ax25FrameTest, UiRoundTrip) {
  Bytes info = BytesFromString("hello radio");
  Ax25Frame f = Ax25Frame::MakeUi(dst_, src_, kPidIp, info);
  Bytes wire = f.Encode();
  auto d = Ax25Frame::DecodeView(wire);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->frame.destination, dst_);
  EXPECT_EQ(d->frame.source, src_);
  EXPECT_EQ(d->frame.type, Ax25FrameType::kUi);
  EXPECT_EQ(d->frame.pid, kPidIp);
  EXPECT_EQ(Bytes(d->info.begin(), d->info.end()), info);
  EXPECT_TRUE(d->frame.command);
  EXPECT_TRUE(d->frame.digipeaters.empty());
}

TEST_F(Ax25FrameTest, DigipeaterListRoundTrip) {
  std::vector<Ax25Digipeater> digis{{Ax25Address("WB7RA", 0), true},
                                    {Ax25Address("WB7RB", 2), false}};
  Ax25Frame f = Ax25Frame::MakeUi(dst_, src_, kPidNoLayer3, Bytes{1, 2}, digis);
  Bytes wire = f.Encode();
  auto d = Ax25Frame::DecodeView(wire);
  ASSERT_TRUE(d);
  ASSERT_EQ(d->frame.digipeaters.size(), 2u);
  EXPECT_EQ(d->frame.digipeaters[0].address, Ax25Address("WB7RA", 0));
  EXPECT_TRUE(d->frame.digipeaters[0].repeated);
  EXPECT_FALSE(d->frame.digipeaters[1].repeated);
  EXPECT_FALSE(d->frame.DigipeatingComplete());
  EXPECT_EQ(d->frame.NextDigipeater()->address, Ax25Address("WB7RB", 2));
}

TEST_F(Ax25FrameTest, EightDigipeatersMax) {
  std::vector<Ax25Digipeater> digis;
  for (int i = 0; i < 8; ++i) {
    digis.push_back({Ax25Address("WB7R" + std::string(1, static_cast<char>('A' + i)), 0),
                     false});
  }
  Ax25Frame f = Ax25Frame::MakeUi(dst_, src_, kPidNoLayer3, Bytes{}, digis);
  Bytes wire = f.Encode();
  auto d = Ax25Frame::DecodeView(wire);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->frame.digipeaters.size(), 8u);
}

TEST_F(Ax25FrameTest, AllSupervisoryAndUnnumberedTypesRoundTrip) {
  for (auto type : {Ax25FrameType::kRr, Ax25FrameType::kRnr, Ax25FrameType::kRej,
                    Ax25FrameType::kSabm, Ax25FrameType::kDisc, Ax25FrameType::kUa,
                    Ax25FrameType::kDm, Ax25FrameType::kFrmr}) {
    Ax25Frame f;
    f.destination = dst_;
    f.source = src_;
    f.type = type;
    f.nr = 5;
    f.poll_final = true;
    Bytes wire = f.Encode();
    auto d = Ax25Frame::DecodeView(wire);
    ASSERT_TRUE(d) << Ax25FrameTypeName(type);
    EXPECT_EQ(d->frame.type, type);
    EXPECT_TRUE(d->frame.poll_final);
    if (type == Ax25FrameType::kRr || type == Ax25FrameType::kRnr ||
        type == Ax25FrameType::kRej) {
      EXPECT_EQ(d->frame.nr, 5);
    }
  }
}

TEST_F(Ax25FrameTest, IFrameSequenceNumbers) {
  for (std::uint8_t ns = 0; ns < 8; ++ns) {
    for (std::uint8_t nr = 0; nr < 8; ++nr) {
      Ax25Frame f;
      f.destination = dst_;
      f.source = src_;
      f.type = Ax25FrameType::kI;
      f.ns = ns;
      f.nr = nr;
      f.pid = kPidNoLayer3;
      f.info = Bytes{0xAB};
      Bytes wire = f.Encode();
      auto d = Ax25Frame::DecodeView(wire);
      ASSERT_TRUE(d);
      EXPECT_EQ(d->frame.type, Ax25FrameType::kI);
      EXPECT_EQ(d->frame.ns, ns);
      EXPECT_EQ(d->frame.nr, nr);
      EXPECT_EQ(Bytes(d->info.begin(), d->info.end()), Bytes{0xAB});
    }
  }
}

TEST_F(Ax25FrameTest, CommandResponseBitsRoundTrip) {
  for (bool command : {true, false}) {
    Ax25Frame f;
    f.destination = dst_;
    f.source = src_;
    f.command = command;
    f.type = Ax25FrameType::kRr;
    Bytes wire = f.Encode();
    auto d = Ax25Frame::DecodeView(wire);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->frame.command, command);
  }
}

TEST_F(Ax25FrameTest, DecodeRejectsTruncated) {
  Ax25Frame f = Ax25Frame::MakeUi(dst_, src_, kPidIp, BytesFromString("x"));
  Bytes wire = f.Encode();
  for (std::size_t len = 0; len < 15; ++len) {
    Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(Ax25Frame::DecodeView(cut)) << "len=" << len;
  }
}

TEST_F(Ax25FrameTest, DecodeRejectsUnterminatedAddressList) {
  // Address list says "more follows" but frame ends.
  Ax25Frame f = Ax25Frame::MakeUi(dst_, src_, kPidIp, Bytes{});
  Bytes wire = f.Encode();
  wire[13] &= ~0x01;  // clear the extension bit on the source address
  wire.resize(14);
  EXPECT_FALSE(Ax25Frame::DecodeView(wire));
}

TEST_F(Ax25FrameTest, ToStringIsInformative) {
  Ax25Frame f = Ax25Frame::MakeUi(dst_, src_, kPidIp, BytesFromString("abc"),
                                  {{Ax25Address("WB7RA", 0), true}});
  std::string s = f.ToString();
  EXPECT_NE(s.find("N7AKR-1>KD7NM"), std::string::npos);
  EXPECT_NE(s.find("WB7RA*"), std::string::npos);
  EXPECT_NE(s.find("UI"), std::string::npos);
}

// --- AX.25 v2.2: XID parameter TLVs and mod-128 control fields -------------

// The golden XID information field, byte for byte as a real v2.2 TNC emits
// it (captured from a direwolf-lineage stack's XID dump): FI 0x82, GI 0x80,
// GL 23, then classes / optional-functions / I-field-length / window /
// ack-timer / retries for the full v2.2 offer (mod 128 + SREJ, k=127,
// N1=1536 bytes, T1=3 s, N2=10).
const std::uint8_t kGoldenXidInfo[] = {
    0x82, 0x80, 0x00, 0x17,              // FI, GI, GL=23
    0x02, 0x02, 0x21, 0x00,              // PI 2: classes ABM half-duplex
    0x03, 0x03, 0x86, 0xa8, 0x22,        // PI 3: optional functions
    0x06, 0x02, 0x30, 0x00,              // PI 6: I field length RX (bits)
    0x08, 0x01, 0x7f,                    // PI 8: window size RX
    0x09, 0x02, 0x0b, 0xb8,              // PI 9: ack timer (ms)
    0x0a, 0x01, 0x0a,                    // PI 10: retries
};

TEST(Ax25XidTest, DefaultOfferEncodesToGoldenBytes) {
  Ax25XidParams p;  // defaults are the full v2.2 offer
  Bytes enc = p.Encode();
  ASSERT_EQ(enc.size(), sizeof(kGoldenXidInfo));
  for (std::size_t i = 0; i < sizeof(kGoldenXidInfo); ++i) {
    EXPECT_EQ(enc[i], kGoldenXidInfo[i]) << "offset " << i;
  }
}

TEST(Ax25XidTest, GoldenBytesDecodeToDefaults) {
  auto p = Ax25XidParams::Decode(
      ByteView(kGoldenXidInfo, sizeof(kGoldenXidInfo)));
  ASSERT_TRUE(p);
  EXPECT_EQ(*p, Ax25XidParams{});
  EXPECT_TRUE(p->Mod128());
  EXPECT_TRUE(p->Srej());
  EXPECT_EQ(p->window_size_rx, 127);
  EXPECT_EQ(p->i_field_length_rx, 1536u * 8);
  EXPECT_EQ(p->ack_timer_ms, 3000u);
  EXPECT_EQ(p->retries, 10u);
}

TEST(Ax25XidTest, DecodeRejectsWrongFormatAndTruncation) {
  Bytes good(kGoldenXidInfo, kGoldenXidInfo + sizeof(kGoldenXidInfo));
  Bytes bad_fi = good;
  bad_fi[0] = 0x81;
  EXPECT_FALSE(Ax25XidParams::Decode(bad_fi));
  Bytes bad_gi = good;
  bad_gi[1] = 0x81;
  EXPECT_FALSE(Ax25XidParams::Decode(bad_gi));
  for (std::size_t len = 0; len < 4; ++len) {
    EXPECT_FALSE(Ax25XidParams::Decode(ByteView(kGoldenXidInfo, len)));
  }
  Bytes bad_gl = good;
  bad_gl[3] = 0x40;  // GL larger than the remaining bytes
  EXPECT_FALSE(Ax25XidParams::Decode(bad_gl));
}

TEST(Ax25XidTest, OversizeWindowClampsToMod128Maximum) {
  // A 2-byte window PV of 0x0180 (384) used to truncate to its low byte,
  // yielding 128 — one past the mod-128 maximum the u8 field is allowed to
  // hold. Out-of-range offers now clamp to 127 (the peer's window is an
  // upper bound, so clamping keeps negotiation sound).
  Bytes info = {0x82, 0x80, 0x00, 0x04, 0x08, 0x02, 0x01, 0x80};
  auto p = Ax25XidParams::Decode(info);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->window_size_rx, 127);
  // And the clamped value round-trips: encode -> decode is a fixed point.
  auto again = Ax25XidParams::Decode(p->Encode());
  ASSERT_TRUE(again);
  EXPECT_EQ(*again, *p);
}

TEST(Ax25XidTest, OversizeRetriesClampAndClassesReject) {
  // Retries wider than a u8 clamp (N2=300 -> 255)...
  Bytes retries = {0x82, 0x80, 0x00, 0x04, 0x0a, 0x02, 0x01, 0x2c};
  auto p = Ax25XidParams::Decode(retries);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->retries, 255u);
  // ...but a classes PV wider than its 16-bit wire field is malformed: the
  // old truncation would have invented a different class set.
  Bytes classes = {0x82, 0x80, 0x00, 0x05, 0x02, 0x03, 0x01, 0x21, 0x00};
  EXPECT_FALSE(Ax25XidParams::Decode(classes));
}

TEST(Ax25XidTest, DanglingByteInParameterGroupIsMalformed) {
  // GL covers a full window parameter plus one trailing byte — a truncated
  // PI/PL header. The decoder used to silently ignore it and report success.
  Bytes info = {0x82, 0x80, 0x00, 0x04, 0x08, 0x01, 0x21, 0x0a};
  EXPECT_FALSE(Ax25XidParams::Decode(info));
}

TEST(Ax25XidTest, WideOptionalFunctionsSurviveReencode) {
  // A 4-byte optional-functions PV must re-encode at 4 bytes, not truncate
  // to the default 3-byte width.
  Bytes info = {0x82, 0x80, 0x00, 0x06, 0x03, 0x04, 0x12, 0x86, 0xa8, 0x22};
  auto p = Ax25XidParams::Decode(info);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->optional_functions, 0x1286a822u);
  auto again = Ax25XidParams::Decode(p->Encode());
  ASSERT_TRUE(again);
  EXPECT_EQ(again->optional_functions, 0x1286a822u);
}

TEST(Ax25XidTest, UnknownParametersAreSkipped) {
  // PI 0x7f (unknown, 1 byte) between window and timer must not derail the
  // parse; absent parameters keep their defaults.
  Bytes info = {0x82, 0x80, 0x00, 0x09, 0x08, 0x01, 0x21,
                0x7f, 0x01, 0xee, 0x0a, 0x01, 0x05};
  auto p = Ax25XidParams::Decode(info);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->window_size_rx, 0x21);
  EXPECT_EQ(p->retries, 5u);
  EXPECT_EQ(p->ack_timer_ms, 3000u);  // untouched default
}

TEST_F(Ax25FrameTest, XidFrameUsesControl0xAF) {
  Ax25Frame f;
  f.destination = dst_;
  f.source = src_;
  f.command = true;
  f.type = Ax25FrameType::kXid;
  Ax25XidParams offer;
  f.info = offer.Encode();
  Bytes wire = f.Encode();
  // 14 address bytes, then the XID control byte (P=0), then the TLVs.
  ASSERT_GT(wire.size(), 15u);
  EXPECT_EQ(wire[14], 0xAF);
  ASSERT_EQ(wire.size(), 15u + sizeof(kGoldenXidInfo));
  for (std::size_t i = 0; i < sizeof(kGoldenXidInfo); ++i) {
    EXPECT_EQ(wire[15 + i], kGoldenXidInfo[i]) << "offset " << i;
  }
  auto back = Ax25Frame::DecodeView(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->frame.type, Ax25FrameType::kXid);
  EXPECT_TRUE(back->frame.command);
  auto params = Ax25XidParams::Decode(back->info);
  ASSERT_TRUE(params);
  EXPECT_EQ(*params, offer);
}

TEST_F(Ax25FrameTest, SabmeControlByte) {
  Ax25Frame f;
  f.destination = dst_;
  f.source = src_;
  f.command = true;
  f.poll_final = true;
  f.type = Ax25FrameType::kSabme;
  Bytes wire = f.Encode();
  EXPECT_EQ(wire[14], 0x6F | 0x10);  // SABME with P set
  auto back = Ax25Frame::DecodeView(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->frame.type, Ax25FrameType::kSabme);
  EXPECT_TRUE(back->frame.poll_final);
}

TEST_F(Ax25FrameTest, Mod128IFrameTwoByteControl) {
  Ax25Frame f;
  f.destination = dst_;
  f.source = src_;
  f.command = true;
  f.type = Ax25FrameType::kI;
  f.modulus = Ax25Modulus::kMod128;
  f.ns = 93;
  f.nr = 117;
  f.poll_final = true;
  f.pid = kPidIp;
  f.info = BytesFromString("hello");
  Bytes wire = f.Encode();
  // Extended I control: byte 0 = N(S)<<1 (bit 0 clear), byte 1 = N(R)<<1|P.
  EXPECT_EQ(wire[14], static_cast<std::uint8_t>(93 << 1));
  EXPECT_EQ(wire[15], static_cast<std::uint8_t>((117 << 1) | 1));
  auto back = Ax25Frame::DecodeView(wire, Ax25Modulus::kMod128);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->frame.type, Ax25FrameType::kI);
  EXPECT_EQ(back->frame.ns, 93);
  EXPECT_EQ(back->frame.nr, 117);
  EXPECT_TRUE(back->frame.poll_final);
  EXPECT_EQ(back->frame.pid, kPidIp);
  EXPECT_EQ(Bytes(back->info.begin(), back->info.end()), BytesFromString("hello"));
}

TEST_F(Ax25FrameTest, Mod128SupervisoryRoundTrip) {
  struct Case {
    Ax25FrameType type;
    std::uint8_t code;
  } cases[] = {
      {Ax25FrameType::kRr, 0x01},
      {Ax25FrameType::kRnr, 0x05},
      {Ax25FrameType::kRej, 0x09},
      {Ax25FrameType::kSrej, 0x0D},
  };
  for (const Case& c : cases) {
    Ax25Frame f;
    f.destination = dst_;
    f.source = src_;
    f.command = false;
    f.type = c.type;
    f.modulus = Ax25Modulus::kMod128;
    f.nr = 100;
    Bytes wire = f.Encode();
    EXPECT_EQ(wire[14], c.code);
    EXPECT_EQ(wire[15], static_cast<std::uint8_t>(100 << 1));
    auto back = Ax25Frame::DecodeView(wire, Ax25Modulus::kMod128);
    ASSERT_TRUE(back) << Ax25FrameTypeName(c.type);
    EXPECT_EQ(back->frame.type, c.type);
    EXPECT_EQ(back->frame.nr, 100);
    EXPECT_FALSE(back->frame.poll_final);
  }
}

TEST_F(Ax25FrameTest, Mod128SrejMod8RoundTrip) {
  // SREJ also exists in mod-8 (single control byte, N(R) in the top bits).
  Ax25Frame f;
  f.destination = dst_;
  f.source = src_;
  f.command = false;
  f.type = Ax25FrameType::kSrej;
  f.nr = 5;
  Bytes wire = f.Encode();
  EXPECT_EQ(wire[14], static_cast<std::uint8_t>((5 << 5) | 0x0D));
  auto back = Ax25Frame::DecodeView(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->frame.type, Ax25FrameType::kSrej);
  EXPECT_EQ(back->frame.nr, 5);
}

TEST_F(Ax25FrameTest, Mod128DecodeRejectsTruncatedSecondControlByte) {
  Ax25Frame f;
  f.destination = dst_;
  f.source = src_;
  f.command = false;
  f.type = Ax25FrameType::kRr;
  f.modulus = Ax25Modulus::kMod128;
  f.nr = 9;
  Bytes wire = f.Encode();
  wire.resize(15);  // keep only the first control byte
  EXPECT_FALSE(Ax25Frame::DecodeView(wire, Ax25Modulus::kMod128));
  // U frames stay one control byte even in mod 128.
  Ax25Frame ua;
  ua.destination = dst_;
  ua.source = src_;
  ua.command = false;
  ua.type = Ax25FrameType::kUa;
  Bytes ua_wire = ua.Encode();
  EXPECT_TRUE(Ax25Frame::DecodeView(ua_wire, Ax25Modulus::kMod128));
}

}  // namespace
}  // namespace upr
