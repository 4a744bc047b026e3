#include <gtest/gtest.h>

#include <functional>

#include "src/ax25/lapb.h"
#include "src/sim/simulator.h"

namespace upr {
namespace {

// Two links joined by a lossy delayed pipe.
class LapbPair : public ::testing::Test {
 protected:
  void Build(Ax25LinkConfig config = {}) {
    a_ = std::make_unique<Ax25Link>(
        &sim_, Ax25Address("AAA", 0),
        [this](const Ax25Frame& f) { Deliver(f, b_.get(), &a_to_b_drop_); }, config);
    b_ = std::make_unique<Ax25Link>(
        &sim_, Ax25Address("BBB", 0),
        [this](const Ax25Frame& f) { Deliver(f, a_.get(), &b_to_a_drop_); }, config);
    b_->set_accept_handler([](const Ax25Address&) { return true; });
    b_->set_connection_handler([this](Ax25Connection* c) {
      accepted_ = c;
      c->set_data_handler([this](const Bytes& data) {
        received_.insert(received_.end(), data.begin(), data.end());
      });
    });
  }

  void Deliver(const Ax25Frame& f, Ax25Link* to, int* drop_budget) {
    if (*drop_budget > 0) {
      --*drop_budget;
      return;  // frame lost
    }
    // Half-second link delay, corpus-independent.
    sim_.Schedule(Milliseconds(500), [to, f] { to->HandleFrame(f); });
  }

  Simulator sim_;
  std::unique_ptr<Ax25Link> a_;
  std::unique_ptr<Ax25Link> b_;
  Ax25Connection* accepted_ = nullptr;
  Bytes received_;
  int a_to_b_drop_ = 0;
  int b_to_a_drop_ = 0;
};

TEST_F(LapbPair, ConnectHandshake) {
  Build();
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  EXPECT_EQ(c->state(), Ax25Connection::State::kConnecting);
  bool connected = false;
  c->set_connected_handler([&] { connected = true; });
  sim_.RunUntil(Seconds(5));
  EXPECT_TRUE(connected);
  EXPECT_EQ(c->state(), Ax25Connection::State::kConnected);
  ASSERT_NE(accepted_, nullptr);
  EXPECT_EQ(accepted_->state(), Ax25Connection::State::kConnected);
}

TEST_F(LapbPair, RejectedConnectGetsDm) {
  Build();
  b_->set_accept_handler([](const Ax25Address&) { return false; });
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  bool disconnected = false;
  c->set_disconnected_handler([&] { disconnected = true; });
  sim_.RunUntil(Seconds(5));
  EXPECT_TRUE(disconnected);
  EXPECT_EQ(c->state(), Ax25Connection::State::kDisconnected);
}

TEST_F(LapbPair, DataTransferInOrder) {
  Build();
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  Bytes msg = BytesFromString("The quick brown fox jumps over the lazy dog");
  c->Send(msg);
  sim_.RunUntil(Seconds(30));
  EXPECT_EQ(received_, msg);
}

TEST_F(LapbPair, SegmentsLargeDataByPaclen) {
  Ax25LinkConfig cfg;
  cfg.paclen = 10;
  Build(cfg);
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  Bytes msg(95, 0x5A);
  c->Send(msg);
  sim_.RunUntil(Seconds(120));
  EXPECT_EQ(received_, msg);
  EXPECT_EQ(c->i_frames_sent(), 10u);  // ceil(95/10)
}

TEST_F(LapbPair, SurvivesSabmLoss) {
  Build();
  a_to_b_drop_ = 1;  // first SABM vanishes
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(c->state(), Ax25Connection::State::kConnected);
}

TEST_F(LapbPair, RetransmitsLostIFrame) {
  Build();
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(5));
  ASSERT_EQ(c->state(), Ax25Connection::State::kConnected);
  a_to_b_drop_ = 1;  // first I frame lost
  Bytes msg = BytesFromString("reliable");
  c->Send(msg);
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(received_, msg);
  EXPECT_GE(c->i_frames_resent(), 1u);
}

TEST_F(LapbPair, RejRecoversOutOfSequence) {
  Ax25LinkConfig cfg;
  cfg.paclen = 8;
  cfg.window = 4;
  Build(cfg);
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(5));
  ASSERT_EQ(c->state(), Ax25Connection::State::kConnected);
  a_to_b_drop_ = 1;  // lose the first of several I frames: B sees 1,2,3 and REJs
  Bytes msg(32, 0x77);
  c->Send(msg);
  sim_.RunUntil(Seconds(120));
  EXPECT_EQ(received_, msg);
}

TEST_F(LapbPair, WindowLimitsOutstandingFrames) {
  Ax25LinkConfig cfg;
  cfg.paclen = 4;
  cfg.window = 2;
  Build(cfg);
  // Black-hole everything after connect to observe the frozen window.
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(5));
  a_to_b_drop_ = 1'000'000;
  c->Send(Bytes(40, 1));
  sim_.RunUntil(Seconds(6));
  // Only `window` frames were ever emitted as fresh transmissions.
  EXPECT_EQ(c->i_frames_sent(), 2u);
}

TEST_F(LapbPair, DisconnectHandshake) {
  Build();
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(5));
  bool a_down = false, b_down = false;
  c->set_disconnected_handler([&] { a_down = true; });
  accepted_->set_disconnected_handler([&] { b_down = true; });
  c->Disconnect();
  sim_.RunUntil(Seconds(15));
  EXPECT_TRUE(a_down);
  EXPECT_TRUE(b_down);
  a_->ReapClosed();
  b_->ReapClosed();
  EXPECT_EQ(a_->connection_count(), 0u);
  EXPECT_EQ(b_->connection_count(), 0u);
}

TEST_F(LapbPair, RetryLimitGivesUp) {
  Ax25LinkConfig cfg;
  cfg.n2 = 3;
  cfg.t1 = Seconds(2);
  Build(cfg);
  a_to_b_drop_ = 1'000'000;  // peer unreachable
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(c->state(), Ax25Connection::State::kDisconnected);
}

TEST_F(LapbPair, BidirectionalTransfer) {
  Build();
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  Bytes a_received;
  c->set_data_handler([&](const Bytes& d) {
    a_received.insert(a_received.end(), d.begin(), d.end());
  });
  sim_.RunUntil(Seconds(5));
  ASSERT_NE(accepted_, nullptr);
  c->Send(BytesFromString("ping from A"));
  accepted_->Send(BytesFromString("pong from B"));
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(received_, BytesFromString("ping from A"));
  EXPECT_EQ(a_received, BytesFromString("pong from B"));
}

TEST_F(LapbPair, SendBeforeConnectedIsQueued) {
  Build();
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  c->Send(BytesFromString("early"));
  sim_.RunUntil(Seconds(30));
  EXPECT_EQ(received_, BytesFromString("early"));
}

TEST_F(LapbPair, T3KeepaliveDetectsDeadPeer) {
  Ax25LinkConfig cfg;
  cfg.t1 = Seconds(2);
  cfg.t3 = Seconds(30);
  cfg.n2 = 3;
  Build(cfg);
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(5));
  ASSERT_EQ(c->state(), Ax25Connection::State::kConnected);
  // Peer falls off the air. The idle link looks fine until T3 polls it.
  a_to_b_drop_ = 1'000'000;
  b_to_a_drop_ = 1'000'000;
  sim_.RunUntil(Seconds(25));
  EXPECT_EQ(c->state(), Ax25Connection::State::kConnected);  // not yet probed
  sim_.RunUntil(Seconds(120));
  EXPECT_EQ(c->state(), Ax25Connection::State::kDisconnected);
}

TEST_F(LapbPair, T3KeepaliveKeepsIdleLinkAlive) {
  Ax25LinkConfig cfg;
  cfg.t1 = Seconds(2);
  cfg.t3 = Seconds(30);
  cfg.n2 = 3;
  Build(cfg);
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(5));
  ASSERT_EQ(c->state(), Ax25Connection::State::kConnected);
  // A long idle period with a healthy peer: polls answered, link stays up,
  // and data still flows afterwards.
  sim_.RunUntil(Seconds(600));
  EXPECT_EQ(c->state(), Ax25Connection::State::kConnected);
  c->Send(BytesFromString("still here"));
  sim_.RunUntil(Seconds(700));
  EXPECT_EQ(received_, BytesFromString("still here"));
}

TEST_F(LapbPair, T3DisabledMeansNoIdleTraffic) {
  Ax25LinkConfig cfg;
  cfg.t3 = 0;
  Build(cfg);
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(5));
  ASSERT_EQ(c->state(), Ax25Connection::State::kConnected);
  std::size_t events_before = sim_.executed_events();
  sim_.RunUntil(Seconds(3600));
  // No keepalives: a fully idle link generates no events at all.
  EXPECT_EQ(sim_.executed_events(), events_before);
}

TEST_F(LapbPair, UaLossRaceDoesNotKillHalfOpenLink) {
  // The accept side answers SABM with UA and immediately queues data. When
  // the UA is lost on the air, the data I frame reaches a peer still in
  // kConnecting. It must be dropped there — answering DM would tear down the
  // accept side's freshly established link and discard the queued data. The
  // T1 SABM retry then re-establishes the link with the data requeued.
  Build();
  std::string a_got;
  b_->set_connection_handler([this](Ax25Connection* c) {
    accepted_ = c;
    c->Send(BytesFromString("hi"));
  });
  b_to_a_drop_ = 1;  // B's UA dies on the air; its data frame survives
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  std::string* got = &a_got;
  c->set_data_handler([got](const Bytes& d) { got->append(d.begin(), d.end()); });
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(c->state(), Ax25Connection::State::kConnected);
  ASSERT_NE(accepted_, nullptr);
  EXPECT_EQ(accepted_->state(), Ax25Connection::State::kConnected);
  EXPECT_EQ(a_got, "hi");
}

TEST_F(LapbPair, SabmRevivingDeadConnectionNotifiesApp) {
  // A connection object that died (DM, retry exhaustion) lingers in the link
  // until reaped. A new SABM from that peer re-establishes it — and the
  // application must hear about the new session, or the link sits connected
  // but mute forever.
  Build();
  int connections = 0;
  b_->set_connection_handler([&](Ax25Connection* c) {
    ++connections;
    accepted_ = c;
  });
  a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(5));
  ASSERT_EQ(connections, 1);
  ASSERT_NE(accepted_, nullptr);

  // Kill B's side with a hand-delivered DM; the object stays in the map.
  Ax25Frame dm;
  dm.destination = Ax25Address("BBB", 0);
  dm.source = Ax25Address("AAA", 0);
  dm.command = false;
  dm.type = Ax25FrameType::kDm;
  dm.poll_final = true;
  b_->HandleFrame(dm);
  EXPECT_EQ(accepted_->state(), Ax25Connection::State::kDisconnected);

  // A fresh SABM from the same peer revives it and surfaces a new session.
  Ax25Frame sabm;
  sabm.destination = Ax25Address("BBB", 0);
  sabm.source = Ax25Address("AAA", 0);
  sabm.command = true;
  sabm.type = Ax25FrameType::kSabm;
  sabm.poll_final = true;
  b_->HandleFrame(sabm);
  EXPECT_EQ(connections, 2);
  EXPECT_EQ(accepted_->state(), Ax25Connection::State::kConnected);
}

TEST_F(LapbPair, UnknownPeerNonSabmGetsDm) {
  Build();
  // Hand-deliver an I frame from a peer B has never heard of.
  Ax25Frame f;
  f.destination = Ax25Address("BBB", 0);
  f.source = Ax25Address("ZZZ", 0);
  f.type = Ax25FrameType::kI;
  f.pid = kPidNoLayer3;
  f.info = BytesFromString("?");
  int dm_count = 0;
  auto z = std::make_unique<Ax25Link>(
      &sim_, Ax25Address("ZZZ", 0), [&](const Ax25Frame&) {});
  // Replace b's sender check: count DMs it emits by inspecting via a fresh link.
  b_ = std::make_unique<Ax25Link>(&sim_, Ax25Address("BBB", 0),
                                  [&](const Ax25Frame& out) {
                                    if (out.type == Ax25FrameType::kDm) {
                                      ++dm_count;
                                    }
                                  });
  b_->HandleFrame(f);
  EXPECT_EQ(dm_count, 1);
}

// --- v2.0 / v2.2 dialect interop matrix -------------------------------------
//
// Unlike LapbPair, each end gets its own config (so the two ends can speak
// different dialects) and frames travel as wire bytes: encode, pre-parse with
// the mod-8 layout, then HandleDecoded — the exact path the driver uses. A
// mod-128 control field survives only if the re-parse machinery works.
class LapbDialectPair : public ::testing::Test {
 protected:
  void Build(Ax25LinkConfig config_a, Ax25LinkConfig config_b) {
    a_ = std::make_unique<Ax25Link>(
        &sim_, Ax25Address("AAA", 0),
        [this](const Ax25Frame& f) { Deliver(f, b_.get(), &a_to_b_drop_); },
        config_a);
    b_ = std::make_unique<Ax25Link>(
        &sim_, Ax25Address("BBB", 0),
        [this](const Ax25Frame& f) { Deliver(f, a_.get(), &b_to_a_drop_); },
        config_b);
    a_->set_accept_handler([](const Ax25Address&) { return true; });
    b_->set_accept_handler([](const Ax25Address&) { return true; });
    b_->set_connection_handler([this](Ax25Connection* c) {
      accepted_ = c;
      c->set_data_handler([this](const Bytes& data) {
        received_.insert(received_.end(), data.begin(), data.end());
      });
    });
  }

  void Deliver(const Ax25Frame& f, Ax25Link* to, int* drop_budget) {
    if (*drop_budget > 0) {
      --*drop_budget;
      return;
    }
    Bytes wire = f.Encode();
    sim_.Schedule(Milliseconds(500), [to, wire = std::move(wire)] {
      auto decoded = Ax25Frame::DecodeView(wire, Ax25Modulus::kMod8);
      ASSERT_TRUE(decoded.has_value());
      decoded->frame.info.assign(decoded->info.begin(), decoded->info.end());
      to->HandleDecoded(decoded->frame, wire);
    });
  }

  static Ax25LinkConfig V22(std::uint8_t window = 127) {
    Ax25LinkConfig cfg;
    cfg.dialect = Ax25Dialect::kV22;
    cfg.window = window;
    return cfg;
  }

  Simulator sim_;
  std::unique_ptr<Ax25Link> a_;
  std::unique_ptr<Ax25Link> b_;
  Ax25Connection* accepted_ = nullptr;
  Bytes received_;
  int a_to_b_drop_ = 0;
  int b_to_a_drop_ = 0;
};

TEST_F(LapbDialectPair, V22BothNegotiateMod128AndSrej) {
  Build(V22(), V22());
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(20));
  ASSERT_EQ(c->state(), Ax25Connection::State::kConnected);
  EXPECT_EQ(c->modulus(), Ax25Modulus::kMod128);
  EXPECT_EQ(c->window(), 127);
  EXPECT_TRUE(c->srej_enabled());
  ASSERT_NE(accepted_, nullptr);
  EXPECT_EQ(accepted_->modulus(), Ax25Modulus::kMod128);
  EXPECT_EQ(accepted_->window(), 127);
  EXPECT_TRUE(accepted_->srej_enabled());
  EXPECT_GE(a_->stats().xid_sent, 1u);
  EXPECT_GE(b_->stats().xid_received, 1u);
  EXPECT_EQ(a_->stats().mod128_links, 1u);
  EXPECT_EQ(a_->stats().downgrades, 0u);
  // And data actually flows over the extended-control wire format.
  Bytes msg = BytesFromString("modulo 128 payload");
  c->Send(msg);
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(received_, msg);
}

TEST_F(LapbDialectPair, V22CallerDowngradesForV20Peer) {
  Build(V22(), Ax25LinkConfig{});
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(30));
  ASSERT_EQ(c->state(), Ax25Connection::State::kConnected);
  // The v2.0 peer refused XID with DM; A fell back to a plain SABM link.
  EXPECT_EQ(c->modulus(), Ax25Modulus::kMod8);
  EXPECT_LE(c->window(), 7);
  EXPECT_FALSE(c->srej_enabled());
  EXPECT_EQ(a_->stats().downgrades, 1u);
  EXPECT_EQ(a_->stats().mod128_links, 0u);
  EXPECT_EQ(b_->stats().xid_sent, 0u);
  Bytes msg = BytesFromString("plain old v2.0");
  c->Send(msg);
  sim_.RunUntil(Seconds(90));
  EXPECT_EQ(received_, msg);
}

TEST_F(LapbDialectPair, V20CallerConnectsToV22Peer) {
  Build(Ax25LinkConfig{}, V22());
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(20));
  ASSERT_EQ(c->state(), Ax25Connection::State::kConnected);
  // A plain SABM never negotiates: the v2.2 responder answers in kind.
  EXPECT_EQ(c->modulus(), Ax25Modulus::kMod8);
  ASSERT_NE(accepted_, nullptr);
  EXPECT_EQ(accepted_->modulus(), Ax25Modulus::kMod8);
  EXPECT_EQ(a_->stats().xid_sent, 0u);
  EXPECT_EQ(b_->stats().xid_sent, 0u);
  EXPECT_EQ(a_->stats().downgrades, 0u);
  Bytes msg = BytesFromString("v2.0 caller");
  c->Send(msg);
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(received_, msg);
}

TEST_F(LapbDialectPair, CrossingXidCommandsBothEstablishMod128) {
  Build(V22(), V22());
  // Both ends dial simultaneously: the XID commands cross on the half-second
  // wire. Agree() is symmetric, so both compute identical parameters and the
  // crossing must still converge on one extended-mode link at each end.
  Ax25Connection* ca = a_->Connect(Ax25Address("BBB", 0));
  Ax25Connection* cb = b_->Connect(Ax25Address("AAA", 0));
  sim_.RunUntil(Seconds(30));
  EXPECT_EQ(ca->state(), Ax25Connection::State::kConnected);
  EXPECT_EQ(cb->state(), Ax25Connection::State::kConnected);
  EXPECT_EQ(ca->modulus(), Ax25Modulus::kMod128);
  EXPECT_EQ(cb->modulus(), Ax25Modulus::kMod128);
  EXPECT_EQ(a_->stats().downgrades, 0u);
  EXPECT_EQ(b_->stats().downgrades, 0u);
}

TEST_F(LapbDialectPair, SrejResendsOnlyTheMissingFrame) {
  Ax25LinkConfig cfg = V22();
  cfg.paclen = 8;
  Build(cfg, cfg);
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(20));
  ASSERT_EQ(c->state(), Ax25Connection::State::kConnected);
  ASSERT_TRUE(c->srej_enabled());
  a_to_b_drop_ = 1;  // exactly one I frame dies; nine follow it intact
  Bytes msg(80, 0x5C);
  c->Send(msg);
  sim_.RunUntil(Seconds(120));
  EXPECT_EQ(received_, msg);
  // Selective reject recovered the gap without a go-back-N storm: the peer
  // asked for the one hole and only (about) that frame went out again.
  EXPECT_GE(b_->stats().srej_sent, 1u);
  EXPECT_GE(a_->stats().srej_received, 1u);
  EXPECT_GE(c->i_frames_resent(), 1u);
  EXPECT_LE(c->i_frames_resent(), 3u);
}

TEST_F(LapbDialectPair, Mod128SequenceNumbersWrap) {
  Ax25LinkConfig cfg = V22();
  cfg.paclen = 4;
  Build(cfg, cfg);
  Ax25Connection* c = a_->Connect(Ax25Address("BBB", 0));
  sim_.RunUntil(Seconds(20));
  ASSERT_EQ(c->state(), Ax25Connection::State::kConnected);
  ASSERT_EQ(c->modulus(), Ax25Modulus::kMod128);
  // 150 I frames: V(S) runs past 127 and wraps. Delivery must stay exact.
  Bytes msg(600);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  c->Send(msg);
  sim_.RunUntil(Seconds(600));
  EXPECT_EQ(received_, msg);
  EXPECT_GE(c->i_frames_sent(), 150u);
}

}  // namespace
}  // namespace upr
