#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/serial/serial_line.h"
#include "src/sim/simulator.h"

namespace upr {
namespace {

// Exact land time of the n-th byte (1-based) of a burst starting at t=0:
// round(n * 10 bits / baud), the cumulative-rounding rule SerialLine uses.
SimTime LandTime(std::uint64_t n, std::uint32_t baud) {
  return static_cast<SimTime>(std::llround(
      static_cast<double>(n) * 10.0 / baud * static_cast<double>(kSecond)));
}

TEST(SerialLineTest, DeliversBytesInOrder) {
  Simulator sim;
  SerialLine line(&sim, {.baud_rate = 9600});
  Bytes got;
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t* d, std::size_t n) { got.insert(got.end(), d, d + n); });
  line.a().Write(Bytes{1, 2, 3, 4});
  sim.RunAll();
  EXPECT_EQ(got, (Bytes{1, 2, 3, 4}));
}

TEST(SerialLineTest, ByteTimingMatchesBaudRate) {
  Simulator sim;
  SerialLine line(&sim, {.baud_rate = 9600});
  // 10 bits per byte at 9600 baud, rounded to the nearest nanosecond.
  EXPECT_EQ(line.byte_time(), LandTime(1, 9600));
  std::vector<SimTime> arrivals;
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t*, std::size_t) { arrivals.push_back(sim.Now()); });
  line.a().Write(Bytes{0, 0, 0});
  sim.RunAll();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each arrival is the *cumulative* rounded time, not n truncated additions.
  EXPECT_EQ(arrivals[0], LandTime(1, 9600));
  EXPECT_EQ(arrivals[1], LandTime(2, 9600));
  EXPECT_EQ(arrivals[2], LandTime(3, 9600));
}

TEST(SerialLineTest, NonDivisorBaudRateDoesNotDrift) {
  // 9600 baud: 1041666.67 ns/byte. The old per-byte truncation lost 2/3 ns
  // per byte (~0.06 ms/s of drift); cumulative rounding keeps the clock
  // within half a nanosecond of exact forever. 9600 bytes at 9600 baud with
  // 10-bit framing is exactly 10 seconds.
  Simulator sim;
  SerialLine line(&sim, {.baud_rate = 9600});
  SimTime last = 0;
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t*, std::size_t) { last = sim.Now(); });
  line.a().Write(Bytes(9600, 0x55));
  sim.RunAll();
  EXPECT_EQ(last, Seconds(10));
}

TEST(SerialLineTest, BacklogSerializesBursts) {
  Simulator sim;
  SerialLine line(&sim, {.baud_rate = 1200});
  int received = 0;
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t*, std::size_t n) { received += static_cast<int>(n); });
  line.a().Write(Bytes(120, 0x55));  // one second of data at 1200 baud
  EXPECT_EQ(line.a().backlog(), 120u);
  sim.RunUntil(Milliseconds(500));
  EXPECT_EQ(received, 60);
  sim.RunAll();
  EXPECT_EQ(received, 120);
  EXPECT_EQ(line.a().backlog(), 0u);
}

TEST(SerialLineTest, FullDuplexDirectionsIndependent) {
  Simulator sim;
  SerialLine line(&sim, {.baud_rate = 9600});
  int a_got = 0, b_got = 0;
  line.a().set_receive_chunk_handler(
      [&](const std::uint8_t*, std::size_t n) { a_got += static_cast<int>(n); });
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t*, std::size_t n) { b_got += static_cast<int>(n); });
  line.a().Write(Bytes(10, 1));
  line.b().Write(Bytes(10, 2));
  sim.RunAll();
  EXPECT_EQ(a_got, 10);
  EXPECT_EQ(b_got, 10);
  EXPECT_EQ(line.a().bytes_sent(), 10u);
  EXPECT_EQ(line.a().bytes_received(), 10u);
}

TEST(SerialLineTest, LaterWritesQueueBehindEarlier) {
  Simulator sim;
  SerialLine line(&sim, {.baud_rate = 9600});
  std::vector<std::uint8_t> got;
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t* d, std::size_t n) { got.insert(got.end(), d, d + n); });
  line.a().Write(Bytes{1});
  line.a().Write(Bytes{2});
  sim.RunAll();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2}));
  // Second byte lands a full byte-time after the first.
}

// --- Depth 1 (per character): one queued event per direction -------------
//
// Bytes in flight wait in the endpoint's FIFO; only the next one to land is a
// simulator event. Each byte's event keeps the seq reserved at Write() time,
// so these tests pin both the byte stream and its place in the event order.

TEST(SerialLineTest, WritesWhileBytesInFlightAppendToTheStream) {
  // Depth 0 and depth 1 both mean one delivery per character.
  for (const std::size_t depth : {0, 1}) {
    SCOPED_TRACE(depth);
    Simulator sim;
    SerialLine line(&sim, {.baud_rate = 9600, .silo_depth = depth});
    Bytes got;
    std::vector<SimTime> at;
    line.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
      got.insert(got.end(), d, d + n);
      at.push_back(sim.Now());
    });
    line.a().Write(Bytes{1, 2, 3});
    sim.RunUntil(LandTime(1, 9600));  // byte 1 landed, 2 and 3 in flight
    line.a().Write(Bytes{4, 5});
    line.a().Write(Bytes{6});
    EXPECT_EQ(line.a().backlog(), 5u);
    EXPECT_EQ(sim.pending_events(), 1u);  // only the next byte is queued
    sim.RunAll();
    EXPECT_EQ(got, (Bytes{1, 2, 3, 4, 5, 6}));
    ASSERT_EQ(at.size(), 6u);
    for (std::size_t i = 0; i < at.size(); ++i) {
      EXPECT_EQ(at[i], LandTime(i + 1, 9600)) << "byte " << i;
    }
    EXPECT_EQ(line.a().events_scheduled(), 6u);
    EXPECT_EQ(line.b().deliveries(), 6u);
    EXPECT_EQ(sim.events_scheduled(), 6u);
    EXPECT_EQ(sim.executed_events(), 6u);
    EXPECT_EQ(line.a().backlog(), 0u);
  }
}

TEST(SerialLineTest, WriteFromInsideDeliveryHandler) {
  // The receiver writes back on the same direction from its handler, once
  // while bytes are still in flight and once after the last one landed, and
  // echoes every byte on the reverse direction.
  Simulator sim;
  SerialLine line(&sim, {.baud_rate = 9600});
  Bytes got;
  std::vector<SimTime> at;
  Bytes echoed;
  line.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    got.insert(got.end(), d, d + n);
    at.push_back(sim.Now());
    if (d[0] == 1) {
      line.a().Write(Bytes{7});  // 2 still in flight: queues behind it
    } else if (d[0] == 7) {
      line.a().Write(Bytes{8});  // the FIFO just emptied: re-arms
    }
    line.b().Write(Bytes(d, d + n));
  });
  line.a().set_receive_chunk_handler(
      [&](const std::uint8_t* d, std::size_t n) { echoed.insert(echoed.end(), d, d + n); });
  line.a().Write(Bytes{1, 2});
  sim.RunAll();
  EXPECT_EQ(got, (Bytes{1, 2, 7, 8}));
  ASSERT_EQ(at.size(), 4u);
  EXPECT_EQ(at[0], LandTime(1, 9600));
  EXPECT_EQ(at[1], LandTime(2, 9600));
  EXPECT_EQ(at[2], LandTime(3, 9600));  // the line never went idle
  EXPECT_EQ(at[3], at[2] + line.byte_time());
  EXPECT_EQ(echoed, got);
  EXPECT_EQ(line.a().events_scheduled() + line.b().events_scheduled(),
            sim.events_scheduled());
  EXPECT_EQ(sim.executed_events(), 8u);
}

TEST(SerialLineTest, EqualTimeDeliveriesOnTwoLinesKeepLineOrder) {
  // Two lines written at the same instant land their bytes at identical
  // times; each tie breaks by which line wrote first, as when every byte was
  // its own event scheduled at Write() time.
  Simulator sim;
  SerialLine one(&sim, {.baud_rate = 9600});
  SerialLine two(&sim, {.baud_rate = 9600});
  std::vector<int> order;
  one.b().set_receive_chunk_handler(
      [&](const std::uint8_t* d, std::size_t) { order.push_back(10 + d[0]); });
  two.b().set_receive_chunk_handler(
      [&](const std::uint8_t* d, std::size_t) { order.push_back(20 + d[0]); });
  one.a().Write(Bytes{1, 2, 3});
  two.a().Write(Bytes{1, 2, 3});
  // Appended in the opposite line order: the fourth bytes tie the other way.
  two.a().Write(Bytes{4});
  one.a().Write(Bytes{4});
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{11, 21, 12, 22, 13, 23, 24, 14}));
}

// --- Depth > 1: DZ/DH silo --------------------------------------------------

SerialLineConfig SiloConfig(std::uint32_t baud, std::size_t depth,
                            SimTime timeout = 0) {
  SerialLineConfig c;
  c.baud_rate = baud;
  c.silo_depth = depth;
  c.silo_timeout = timeout;
  return c;
}

TEST(SerialSiloTest, DeliversFullSilosAsChunks) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 16));
  std::vector<std::size_t> chunk_sizes;
  Bytes got;
  line.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    chunk_sizes.push_back(n);
    got.insert(got.end(), d, d + n);
  });
  Bytes sent(40, 0);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(i);
  }
  line.a().Write(sent);
  sim.RunAll();
  EXPECT_EQ(chunk_sizes, (std::vector<std::size_t>{16, 16, 8}));
  EXPECT_EQ(got, sent);
  EXPECT_EQ(line.a().events_scheduled(), 3u);
  EXPECT_EQ(line.b().deliveries(), 3u);
  EXPECT_DOUBLE_EQ(line.b().bytes_per_event(), 40.0 / 3.0);
}

TEST(SerialSiloTest, ChunkArrivesWhenLastByteLands) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 16));
  std::vector<SimTime> arrivals;
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t*, std::size_t) { arrivals.push_back(sim.Now()); });
  line.a().Write(Bytes(20, 0x42));
  sim.RunAll();
  ASSERT_EQ(arrivals.size(), 2u);
  // Full silo: at the 16th byte's land time. Partial: at the 20th's (no
  // timeout configured).
  EXPECT_EQ(arrivals[0], LandTime(16, 9600));
  EXPECT_EQ(arrivals[1], LandTime(20, 9600));
}

TEST(SerialSiloTest, SiloAlarmFlushesPartialAfterTimeout) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 64, Milliseconds(5)));
  std::vector<SimTime> arrivals;
  std::vector<std::size_t> sizes;
  line.b().set_receive_chunk_handler([&](const std::uint8_t*, std::size_t n) {
    arrivals.push_back(sim.Now());
    sizes.push_back(n);
  });
  line.a().Write(Bytes(10, 0x11));
  sim.RunAll();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(sizes[0], 10u);
  EXPECT_EQ(arrivals[0], LandTime(10, 9600) + Milliseconds(5));
}

TEST(SerialSiloTest, NewBytesExtendArmedAlarm) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 64, Milliseconds(50)));
  std::vector<std::size_t> sizes;
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t*, std::size_t n) { sizes.push_back(n); });
  line.a().Write(Bytes(4, 1));
  // Before the alarm fires, more bytes arrive: they join the same silo.
  sim.RunUntil(Milliseconds(10));
  line.a().Write(Bytes(4, 2));
  sim.RunAll();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{8}));
}

TEST(SerialSiloTest, EqualTimeSiloDeliveriesKeepTheirScheduleOrder) {
  // Two depth-4 lines at 1 ms per byte, written at the same instant. Their
  // closing bytes tie at 4 ms and break by write order. One line's partial
  // silo goes out on a zero-timeout alarm; a handler that writes back from
  // inside that delivery opens a new partial silo, whose alarm ties at 8 ms
  // with the other line's closing byte reserved earlier. The other line's
  // handler writes back from inside a full-silo delivery while its next
  // silo is still in flight.
  Simulator sim;
  SerialLine one(&sim, SiloConfig(10000, 4));
  SerialLine two(&sim, SiloConfig(10000, 4));
  struct Delivery {
    SimTime at;
    int line;
    Bytes data;
    bool operator==(const Delivery&) const = default;
  };
  std::vector<Delivery> got;
  one.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    got.push_back({sim.Now(), 1, Bytes(d, d + n)});
    if (d[0] == 15) {
      one.a().Write(Bytes{17, 18});  // the line went idle: a new epoch
    }
  });
  two.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    got.push_back({sim.Now(), 2, Bytes(d, d + n)});
    if (d[0] == 21) {
      two.a().Write(Bytes{29, 30});  // queues behind 25..28
    }
  });
  one.a().Write(Bytes{11, 12, 13, 14, 15, 16});
  two.a().Write(Bytes{21, 22, 23, 24, 25, 26, 27, 28});
  sim.RunAll();
  const std::vector<Delivery> want = {
      {Milliseconds(4), 1, {11, 12, 13, 14}},
      {Milliseconds(4), 2, {21, 22, 23, 24}},
      {Milliseconds(6), 1, {15, 16}},
      {Milliseconds(8), 2, {25, 26, 27, 28}},
      {Milliseconds(8), 1, {17, 18}},
      {Milliseconds(10), 2, {29, 30}},
  };
  EXPECT_EQ(got, want);
  EXPECT_EQ(one.a().events_scheduled(), 3u);
  EXPECT_EQ(two.a().events_scheduled(), 3u);
  EXPECT_EQ(sim.events_scheduled(), 6u);
  EXPECT_EQ(sim.executed_events(), 6u);
  EXPECT_EQ(one.a().backlog() + two.a().backlog(), 0u);
}

TEST(SerialSiloTest, SameByteStreamAsPerByteModeWithFewerEvents) {
  // The acceptance criterion: the silo path must deliver a byte-identical
  // stream with >= 3x fewer delivery events than depth 1.
  Bytes sent;
  for (int i = 0; i < 500; ++i) {
    sent.push_back(static_cast<std::uint8_t>(i * 7 + 3));
  }

  Simulator sim_pb;
  SerialLine per_byte(&sim_pb, {.baud_rate = 9600});
  Bytes got_pb;
  per_byte.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    got_pb.insert(got_pb.end(), d, d + n);
  });
  per_byte.a().Write(sent);
  sim_pb.RunAll();

  Simulator sim_silo;
  SerialLine silo(&sim_silo, SiloConfig(9600, 16));
  Bytes got_silo;
  silo.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    got_silo.insert(got_silo.end(), d, d + n);
  });
  silo.a().Write(sent);
  sim_silo.RunAll();

  EXPECT_EQ(got_pb, sent);
  EXPECT_EQ(got_silo, sent);
  EXPECT_EQ(per_byte.a().events_scheduled(), 500u);
  EXPECT_LE(silo.a().events_scheduled() * 3, per_byte.a().events_scheduled());
  EXPECT_LE(sim_silo.events_scheduled() * 3, sim_pb.events_scheduled());
}

// --- Bounded transmit FIFO ---------------------------------------------------

TEST(SerialBacklogCapTest, OverflowDropsWithStatInsteadOfBuffering) {
  Simulator sim;
  SerialLineConfig cfg;
  cfg.baud_rate = 1200;
  cfg.max_backlog = 100;
  SerialLine line(&sim, cfg);
  int received = 0;
  bool tie_ran_last = false;
  line.b().set_receive_chunk_handler([&](const std::uint8_t*, std::size_t n) {
    received += static_cast<int>(n);
    tie_ran_last = false;
  });
  line.a().Write(Bytes(250, 0x77));
  // FIFO capped at 100: 150 bytes dropped, one overrun event recorded.
  EXPECT_EQ(line.a().backlog(), 100u);
  EXPECT_EQ(line.a().overruns(), 1u);
  EXPECT_EQ(line.a().bytes_dropped(), 150u);
  EXPECT_EQ(line.a().bytes_sent(), 100u);
  // Only accepted bytes take an event seq.
  EXPECT_EQ(line.a().events_scheduled(), 100u);
  EXPECT_EQ(sim.events_scheduled(), 100u);
  // An event scheduled now for the last byte's land time ties with it and,
  // holding the next seq, runs after it.
  sim.ScheduleAt(LandTime(100, 1200), [&] { tie_ran_last = true; });
  line.a().Write(Bytes(5, 0x01));  // FIFO still full: all dropped
  EXPECT_EQ(line.a().overruns(), 2u);
  EXPECT_EQ(line.a().bytes_dropped(), 155u);
  EXPECT_EQ(sim.events_scheduled(), 101u);
  sim.RunAll();
  EXPECT_EQ(received, 100);
  EXPECT_TRUE(tie_ran_last);
  // Once drained, new writes go through again.
  line.a().Write(Bytes(10, 0x01));
  sim.RunAll();
  EXPECT_EQ(received, 110);
  EXPECT_EQ(line.a().overruns(), 2u);
  EXPECT_EQ(sim.events_scheduled(), 111u);
}

TEST(SerialBacklogCapTest, UnboundedByDefault) {
  Simulator sim;
  SerialLine line(&sim, {.baud_rate = 1200});
  line.a().Write(Bytes(100000, 0));
  EXPECT_EQ(line.a().backlog(), 100000u);
  EXPECT_EQ(line.a().overruns(), 0u);
}

}  // namespace
}  // namespace upr
