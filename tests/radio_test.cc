#include <gtest/gtest.h>

#include <cmath>

#include "src/ax25/frame.h"
#include "src/radio/channel.h"
#include "src/radio/csma_mac.h"
#include "src/radio/digipeater.h"
#include "src/sim/simulator.h"
#include "src/util/crc.h"

namespace upr {
namespace {

Bytes WithFcs(const Bytes& body) {
  Bytes out = body;
  std::uint16_t fcs = Crc16Ccitt(body);
  out.push_back(static_cast<std::uint8_t>(fcs & 0xFF));
  out.push_back(static_cast<std::uint8_t>(fcs >> 8));
  return out;
}

TEST(RadioChannelTest, BroadcastDelivery) {
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  RadioPort* c = ch.CreatePort("c");
  int b_got = 0, c_got = 0;
  b->set_receive_handler([&](const Bytes&, bool corrupted) {
    EXPECT_FALSE(corrupted);
    ++b_got;
  });
  c->set_receive_handler([&](const Bytes&, bool) { ++c_got; });
  a->StartTransmit(Bytes(30, 0xAA), 0, 0);
  sim.RunAll();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);  // everyone on the frequency hears it
  EXPECT_EQ(ch.collisions(), 0u);
}

TEST(RadioChannelTest, TransmitTimeMatchesBitRate) {
  Simulator sim;
  RadioChannelConfig cfg;
  cfg.bit_rate = 1200;
  RadioChannel ch(&sim, cfg);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  SimTime arrival = 0;
  b->set_receive_handler([&](const Bytes&, bool) { arrival = sim.Now(); });
  a->StartTransmit(Bytes(150, 0), 0, 0);  // 150 B * 8 / 1200 = 1 s
  sim.RunAll();
  EXPECT_EQ(arrival, Seconds(1));
}

TEST(RadioChannelTest, HeadAndTailExtendAirTime) {
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  SimTime arrival = 0;
  b->set_receive_handler([&](const Bytes&, bool) { arrival = sim.Now(); });
  a->StartTransmit(Bytes(150, 0), Milliseconds(300), Milliseconds(20));
  sim.RunAll();
  EXPECT_EQ(arrival, Seconds(1) + Milliseconds(320));
}

TEST(RadioChannelTest, OverlappingTransmissionsCollide) {
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  RadioPort* c = ch.CreatePort("c");
  int corrupted_frames = 0, clean_frames = 0;
  c->set_receive_handler([&](const Bytes&, bool corrupted) {
    if (corrupted) {
      ++corrupted_frames;
    } else {
      ++clean_frames;
    }
  });
  a->StartTransmit(Bytes(100, 1), 0, 0);
  sim.RunUntil(Milliseconds(100));
  b->StartTransmit(Bytes(100, 2), 0, 0);  // overlaps a's transmission
  sim.RunAll();
  EXPECT_EQ(corrupted_frames, 2);
  EXPECT_EQ(clean_frames, 0);
  EXPECT_EQ(ch.collisions(), 1u);
}

TEST(RadioChannelTest, TransmitterMissesFramesWhileKeyed) {
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  int a_got = 0;
  a->set_receive_handler([&](const Bytes&, bool) { ++a_got; });
  // Both transmit overlapping: a must not hear b's frame (half duplex).
  a->StartTransmit(Bytes(100, 1), 0, 0);
  b->StartTransmit(Bytes(100, 2), 0, 0);
  sim.RunAll();
  EXPECT_EQ(a_got, 0);
}

TEST(RadioChannelTest, StartTransmitWhileBusyInvokesCallbackAndRejects) {
  // Regression: the busy-port early-return used to silently drop `on_done`,
  // deadlocking any MAC waiting on it to clear its busy flag.
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  int b_got = 0;
  b->set_receive_handler([&](const Bytes&, bool) { ++b_got; });
  bool first_done = false, second_done = false;
  EXPECT_TRUE(a->StartTransmit(Bytes(100, 1), 0, 0, [&] { first_done = true; }));
  // Still keyed: the second frame must be rejected, but its callback must
  // still fire so the caller can recover.
  EXPECT_FALSE(a->StartTransmit(Bytes(100, 2), 0, 0, [&] { second_done = true; }));
  EXPECT_EQ(a->rejected_transmits(), 1u);
  sim.RunAll();
  EXPECT_TRUE(first_done);
  EXPECT_TRUE(second_done);
  EXPECT_EQ(a->frames_sent(), 1u);  // the rejected frame never hit the air
  EXPECT_EQ(b_got, 1);
}

TEST(CsmaMacTest, MacRecoversWhenPortWasAlreadyKeyed) {
  // A user program keys the port directly (outside the MAC) while the MAC
  // decides to transmit: the MAC's frame is rejected, but the completion
  // callback still runs, so the MAC un-sticks and retries its queue.
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* port = ch.CreatePort("a");
  RadioPort* peer = ch.CreatePort("b");
  int peer_got = 0;
  peer->set_receive_handler([&](const Bytes&, bool) { ++peer_got; });
  MacParams params;
  params.persistence = 1.0;
  params.turnaround = Milliseconds(30);
  params.tx_delay = 0;
  params.tx_tail = 0;
  CsmaMac mac(&sim, port, params, /*seed=*/5);
  mac.Enqueue(Bytes(10, 0xAB));
  // During the MAC's turnaround commitment window, key the port directly.
  sim.RunUntil(Milliseconds(10));
  port->StartTransmit(Bytes(10, 0xCD), 0, Milliseconds(100));
  sim.RunAll();
  // Without the fix the MAC's busy flag stays set forever and the queue
  // never drains; with it the frame is re-queued, retried and sent.
  EXPECT_EQ(mac.queue_depth(), 0u);
  EXPECT_GE(mac.deferrals(), 1u);
  EXPECT_EQ(port->rejected_transmits(), 0u);  // MAC re-queues, never rejects
  EXPECT_EQ(peer_got, 2);
}

TEST(RadioChannelTest, RandomLossCorruptsFrames) {
  Simulator sim;
  RadioChannelConfig cfg;
  cfg.bit_rate = 1'000'000;  // fast, to run many frames
  cfg.loss_rate = 0.5;
  RadioChannel ch(&sim, cfg, /*seed=*/3);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  int ok = 0, bad = 0;
  b->set_receive_handler([&](const Bytes&, bool corrupted) {
    corrupted ? ++bad : ++ok;
  });
  std::function<void(int)> send = [&](int remaining) {
    if (remaining == 0) {
      return;
    }
    a->StartTransmit(Bytes(10, 0), 0, 0, [&, remaining] { send(remaining - 1); });
  };
  send(1000);
  sim.RunAll();
  EXPECT_EQ(ok + bad, 1000);
  EXPECT_NEAR(static_cast<double>(bad) / 1000.0, 0.5, 0.06);
}

TEST(RadioChannelTest, BitErrorRateScalesWithFrameLength) {
  Simulator sim;
  RadioChannelConfig cfg;
  cfg.bit_rate = 1'000'000;
  cfg.bit_error_rate = 1e-3;
  RadioChannel ch(&sim, cfg, 17);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  int short_bad = 0, long_bad = 0;
  int phase = 0;  // 0: short frames, 1: long frames
  b->set_receive_handler([&](const Bytes&, bool corrupted) {
    if (corrupted) {
      (phase == 0 ? short_bad : long_bad) += 1;
    }
  });
  std::function<void(int, std::size_t)> send = [&](int remaining, std::size_t len) {
    if (remaining == 0) {
      return;
    }
    a->StartTransmit(Bytes(len, 0), 0, 0,
                     [&, remaining, len] { send(remaining - 1, len); });
  };
  send(500, 16);  // 128 bits: ~12% loss at 1e-3
  sim.RunAll();
  phase = 1;
  send(500, 256);  // 2048 bits: ~87% loss
  sim.RunAll();
  EXPECT_GT(short_bad, 20);
  EXPECT_LT(short_bad, 120);
  EXPECT_GT(long_bad, 350);
}

TEST(RadioChannelTest, BerCorruptsGuardsEdgeValues) {
  Rng rng(1);
  // None of the edge cases may corrupt — or consume the RNG stream.
  EXPECT_FALSE(BerCorrupts(rng, 0.0, 100));
  EXPECT_FALSE(BerCorrupts(rng, -0.5, 100));
  EXPECT_FALSE(BerCorrupts(rng, std::nan(""), 100));
  EXPECT_FALSE(BerCorrupts(rng, 1e-3, 0));  // empty frame has no bits to flip
  EXPECT_FALSE(BerCorrupts(rng, 1.0, 0));
  EXPECT_TRUE(BerCorrupts(rng, 1.0, 1));  // certain corruption, no draw
  EXPECT_TRUE(BerCorrupts(rng, 1.5, 1));
  Rng fresh(1);
  EXPECT_EQ(rng.NextU64(), fresh.NextU64()) << "edge case consumed the stream";
}

TEST(RadioChannelTest, CertainBitErrorRateSparesEmptyFrames) {
  Simulator sim;
  RadioChannelConfig cfg;
  cfg.bit_error_rate = 1.0;
  RadioChannel ch(&sim, cfg);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  int clean = 0, bad = 0;
  b->set_receive_handler([&](const Bytes&, bool corrupted) {
    corrupted ? ++bad : ++clean;
  });
  a->StartTransmit(Bytes{}, Milliseconds(10), 0,
                   [&] { a->StartTransmit(Bytes(10, 0), 0, 0); });
  sim.RunAll();
  EXPECT_EQ(clean, 1);  // zero bits on the air: nothing to flip
  EXPECT_EQ(bad, 1);
}

TEST(RadioChannelTest, HalfDuplexCheckedAtDeliveryTime) {
  Simulator sim;
  RadioChannelConfig cfg;
  cfg.bit_rate = 1200;
  cfg.propagation_delay = Milliseconds(50);
  RadioChannel ch(&sim, cfg);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  int b_got = 0;
  b->set_receive_handler([&](const Bytes&, bool) { ++b_got; });
  a->StartTransmit(Bytes(150, 0), 0, 0);  // on the air [0, 1 s], lands 1.05 s
  // b keys up after a's transmission left the air but before the frame
  // arrives: b's receiver is deaf when it lands. Deciding receipt at
  // tx-end time (before propagation) would wrongly deliver it.
  sim.Schedule(Seconds(1) + Milliseconds(10),
               [&] { b->StartTransmit(Bytes(30, 1), 0, 0); });
  sim.RunAll();
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(b->half_duplex_misses(), 1u);
}

TEST(CsmaMacTest, CoChannelMacsSharingSeedDoNotLockstep) {
  // Two MACs constructed with the same (default) seed on differently named
  // ports must not roll identical p-persistence sequences: in lockstep they
  // defer and key up in the same slots and every transmission collides.
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  RadioPort* c = ch.CreatePort("c");
  int clean = 0;
  c->set_receive_handler([&](const Bytes&, bool corrupted) {
    if (!corrupted) {
      ++clean;
    }
  });
  MacParams mp;
  mp.persistence = 0.25;
  CsmaMac ma(&sim, a, mp, 7);
  CsmaMac mb(&sim, b, mp, 7);
  for (int i = 0; i < 20; ++i) {
    ma.Enqueue(WithFcs(Bytes(40, 0xAA)));
    mb.Enqueue(WithFcs(Bytes(40, 0xBB)));
  }
  sim.RunAll();
  EXPECT_GT(clean, 0) << "identical streams: every transmission collided";
}

TEST(RadioChannelTest, CarrierSenseAndUtilization) {
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  EXPECT_FALSE(b->CarrierBusy());
  a->StartTransmit(Bytes(150, 0), 0, 0);  // 1 s air time
  EXPECT_TRUE(b->CarrierBusy());
  EXPECT_TRUE(a->CarrierBusy());
  sim.RunUntil(Seconds(2));
  EXPECT_FALSE(b->CarrierBusy());
  EXPECT_NEAR(ch.Utilization(), 0.5, 0.01);
}

TEST(CsmaMacTest, SendsQueuedFramesWhenIdle) {
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  MacParams mac;
  mac.persistence = 1.0;  // always transmit when clear
  mac.tx_delay = 0;
  mac.tx_tail = 0;
  CsmaMac m(&sim, a, mac);
  int got = 0;
  b->set_receive_handler([&](const Bytes&, bool c) {
    EXPECT_FALSE(c);
    ++got;
  });
  m.Enqueue(Bytes(10, 1));
  m.Enqueue(Bytes(10, 2));
  m.Enqueue(Bytes(10, 3));
  sim.RunAll();
  EXPECT_EQ(got, 3);
  EXPECT_EQ(m.frames_sent(), 3u);
  EXPECT_EQ(ch.collisions(), 0u);
}

TEST(CsmaMacTest, DefersWhileChannelBusy) {
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* blocker = ch.CreatePort("blocker");
  RadioPort* a = ch.CreatePort("a");
  RadioPort* b = ch.CreatePort("b");
  MacParams mac;
  mac.persistence = 1.0;
  mac.tx_delay = 0;
  mac.tx_tail = 0;
  CsmaMac m(&sim, a, mac);
  int clean = 0;
  b->set_receive_handler([&](const Bytes&, bool c) {
    if (!c) {
      ++clean;
    }
  });
  blocker->StartTransmit(Bytes(300, 0), 0, 0);  // 2 s of carrier
  sim.RunUntil(Milliseconds(10));
  m.Enqueue(Bytes(10, 1));
  sim.RunAll();
  EXPECT_EQ(clean, 2);  // both frames intact: MAC waited
  EXPECT_EQ(ch.collisions(), 0u);
  EXPECT_GT(m.deferrals(), 0u);
}

TEST(CsmaMacTest, PersistenceBelowOneDefersProbabilistically) {
  Simulator sim;
  RadioChannel ch(&sim);
  RadioPort* a = ch.CreatePort("a");
  MacParams mac;
  mac.persistence = 0.1;
  CsmaMac m(&sim, a, mac, /*seed=*/5);
  m.Enqueue(Bytes(10, 1));
  sim.RunAll();
  EXPECT_EQ(m.frames_sent(), 1u);
  // With p=0.1 the expected deferral count before sending is ~9.
  EXPECT_GT(m.deferrals(), 0u);
}

TEST(MacParamsTest, KissPersistenceMapping) {
  EXPECT_DOUBLE_EQ(MacParams::PersistenceFromKiss(255), 1.0);
  EXPECT_NEAR(MacParams::PersistenceFromKiss(63), 0.25, 0.00001);
}

class DigipeaterTest : public ::testing::Test {
 protected:
  DigipeaterTest() : ch_(&sim_) {
    src_port_ = ch_.CreatePort("src");
    dst_port_ = ch_.CreatePort("dst");
    MacParams mac;
    mac.tx_delay = Milliseconds(10);
    mac.tx_tail = 0;
    mac.persistence = 1.0;
    digi_ = std::make_unique<Digipeater>(&sim_, &ch_, Ax25Address("WB7RA", 0), mac);
  }

  Simulator sim_;
  RadioChannel ch_;
  RadioPort* src_port_;
  RadioPort* dst_port_;
  std::unique_ptr<Digipeater> digi_;
};

TEST_F(DigipeaterTest, RepeatsFrameAddressedThroughIt) {
  Ax25Frame f = Ax25Frame::MakeUi(Ax25Address("DST", 0), Ax25Address("SRC", 0),
                                  kPidNoLayer3, BytesFromString("via digi"),
                                  {{Ax25Address("WB7RA", 0), false}});
  std::vector<Ax25Frame> dst_heard;
  dst_port_->set_receive_handler([&](const Bytes& wire, bool corrupted) {
    if (corrupted || wire.size() < 2) {
      return;
    }
    Bytes body(wire.begin(), wire.end() - 2);
    if (auto d = Ax25Frame::DecodeView(body)) {
      d->frame.info.assign(d->info.begin(), d->info.end());
      dst_heard.push_back(std::move(d->frame));
    }
  });
  src_port_->StartTransmit(WithFcs(f.Encode()), 0, 0);
  sim_.RunAll();
  EXPECT_EQ(digi_->frames_repeated(), 1u);
  // dst hears the original (H bit clear) and the repeated copy (H bit set).
  ASSERT_EQ(dst_heard.size(), 2u);
  EXPECT_FALSE(dst_heard[0].digipeaters[0].repeated);
  EXPECT_TRUE(dst_heard[1].digipeaters[0].repeated);
  EXPECT_TRUE(dst_heard[1].DigipeatingComplete());
  EXPECT_EQ(dst_heard[1].info, BytesFromString("via digi"));
}

TEST_F(DigipeaterTest, IgnoresFramesNotRoutedThroughIt) {
  Ax25Frame f = Ax25Frame::MakeUi(Ax25Address("DST", 0), Ax25Address("SRC", 0),
                                  kPidNoLayer3, Bytes{}, {});
  src_port_->StartTransmit(WithFcs(f.Encode()), 0, 0);
  Ax25Frame other = Ax25Frame::MakeUi(Ax25Address("DST", 0), Ax25Address("SRC", 0),
                                      kPidNoLayer3, Bytes{},
                                      {{Ax25Address("OTHER", 0), false}});
  sim_.RunAll();
  src_port_->StartTransmit(WithFcs(other.Encode()), 0, 0);
  sim_.RunAll();
  EXPECT_EQ(digi_->frames_repeated(), 0u);
  EXPECT_EQ(digi_->frames_heard(), 2u);
}

TEST_F(DigipeaterTest, IgnoresAlreadyRepeatedEntry) {
  Ax25Frame f = Ax25Frame::MakeUi(Ax25Address("DST", 0), Ax25Address("SRC", 0),
                                  kPidNoLayer3, Bytes{},
                                  {{Ax25Address("WB7RA", 0), true}});
  src_port_->StartTransmit(WithFcs(f.Encode()), 0, 0);
  sim_.RunAll();
  EXPECT_EQ(digi_->frames_repeated(), 0u);
}

TEST_F(DigipeaterTest, DropsBadFcs) {
  Ax25Frame f = Ax25Frame::MakeUi(Ax25Address("DST", 0), Ax25Address("SRC", 0),
                                  kPidNoLayer3, Bytes{},
                                  {{Ax25Address("WB7RA", 0), false}});
  Bytes wire = WithFcs(f.Encode());
  wire[0] ^= 0xFF;  // corrupt
  src_port_->StartTransmit(wire, 0, 0);
  sim_.RunAll();
  EXPECT_EQ(digi_->frames_repeated(), 0u);
  EXPECT_EQ(digi_->frames_dropped(), 1u);
}

TEST_F(DigipeaterTest, TwoHopChain) {
  MacParams mac;
  mac.tx_delay = Milliseconds(10);
  mac.tx_tail = 0;
  mac.persistence = 1.0;
  Digipeater second(&sim_, &ch_, Ax25Address("WB7RB", 0), mac, 99);
  Ax25Frame f = Ax25Frame::MakeUi(
      Ax25Address("DST", 0), Ax25Address("SRC", 0), kPidNoLayer3,
      BytesFromString("two hops"),
      {{Ax25Address("WB7RA", 0), false}, {Ax25Address("WB7RB", 0), false}});
  bool complete_copy_heard = false;
  dst_port_->set_receive_handler([&](const Bytes& wire, bool corrupted) {
    if (corrupted || wire.size() < 2) {
      return;
    }
    Bytes body(wire.begin(), wire.end() - 2);
    auto d = Ax25Frame::DecodeView(body);
    if (d && d->frame.DigipeatingComplete()) {
      complete_copy_heard = true;
    }
  });
  src_port_->StartTransmit(WithFcs(f.Encode()), 0, 0);
  sim_.RunUntil(Seconds(30));
  EXPECT_EQ(digi_->frames_repeated(), 1u);
  EXPECT_EQ(second.frames_repeated(), 1u);
  EXPECT_TRUE(complete_copy_heard);
}

}  // namespace
}  // namespace upr
