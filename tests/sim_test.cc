#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/sim/simulator.h"

namespace upr {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Milliseconds(30), [&] { order.push_back(3); });
  sim.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  sim.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Milliseconds(30));
}

TEST(SimulatorTest, EqualTimestampsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  auto id = sim.Schedule(Seconds(1), [&] { ran = true; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelIsIdempotentAndSafeAfterRun) {
  Simulator sim;
  int runs = 0;
  auto id = sim.Schedule(Seconds(1), [&] { ++runs; });
  sim.RunAll();
  sim.Cancel(id);  // already executed: no-op
  sim.Cancel(id);
  EXPECT_EQ(runs, 1);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(5), [&] { order.push_back(5); });
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.Now(), Seconds(2));
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.Schedule(Seconds(1), recurse);
    }
  };
  sim.Schedule(Seconds(1), recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(Seconds(2), [] {});
  sim.RunAll();
  SimTime before = sim.Now();
  bool ran = false;
  sim.Schedule(-Seconds(5), [&] { ran = true; });
  sim.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), before);
}

TEST(TimerTest, FiresOnceAfterDelay) {
  Simulator sim;
  int fires = 0;
  Timer t(&sim, [&] { ++fires; });
  t.Restart(Seconds(3));
  EXPECT_TRUE(t.running());
  sim.RunAll();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.running());
}

TEST(TimerTest, RestartResetsDeadline) {
  Simulator sim;
  int fires = 0;
  Timer t(&sim, [&] { ++fires; });
  t.Restart(Seconds(1));
  sim.RunUntil(Milliseconds(500));
  t.Restart(Seconds(1));
  sim.RunUntil(Seconds(1));  // original deadline passes
  EXPECT_EQ(fires, 0);
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(fires, 1);
}

TEST(TimerTest, StopCancels) {
  Simulator sim;
  int fires = 0;
  Timer t(&sim, [&] { ++fires; });
  t.Restart(Seconds(1));
  t.Stop();
  sim.RunAll();
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, TimerCanRearmItself) {
  Simulator sim;
  int fires = 0;
  Timer* handle = nullptr;
  Timer t(&sim, [&] {
    if (++fires < 3) {
      handle->Restart(Seconds(1));
    }
  });
  handle = &t;
  t.Restart(Seconds(1));
  sim.RunAll();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.Now(), Seconds(3));
}

TEST(SimulatorTest, EventPoolRecyclesInsteadOfGrowing) {
  Simulator sim;
  // A self-rescheduling chain keeps at most one event live; the pool must
  // not grow with the number of events executed.
  int fires = 0;
  std::function<void()> tick = [&] {
    if (++fires < 10000) {
      sim.Schedule(kMicrosecond, tick);
    }
  };
  sim.Schedule(kMicrosecond, tick);
  sim.RunAll();
  EXPECT_EQ(fires, 10000);
  EXPECT_EQ(sim.events_scheduled(), 10000u);
  EXPECT_EQ(sim.executed_events(), 10000u);
  EXPECT_LE(sim.pool_capacity(), 4u);
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity());
}

TEST(SimulatorTest, CancelledEventsReturnToPool) {
  Simulator sim;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.Schedule(Seconds(1), [] {}));
  }
  for (auto id : ids) {
    sim.Cancel(id);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunAll();
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity());
  // Recycled slots are reused by later schedules.
  std::size_t capacity = sim.pool_capacity();
  bool ran = false;
  sim.Schedule(Seconds(1), [&] { ran = true; });
  sim.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.pool_capacity(), capacity);
}

TEST(SimulatorTest, CancelOfRecycledIdDoesNotAffectNewEvent) {
  Simulator sim;
  auto id = sim.Schedule(Seconds(1), [] {});
  sim.RunAll();
  // `id` already ran; a new event may reuse its pool slot. Cancelling the
  // stale id must be a no-op for the new event.
  bool ran = false;
  sim.Schedule(Seconds(1), [&] { ran = true; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, CancelledEventsRecycleImmediately) {
  // The tombstone regression: re-arming a timer 100k times used to leave
  // 100k dead heap entries (pool slots + O(log n) pops). The indexed heap
  // removes each cancelled event and returns its slot to the free list.
  Simulator sim;
  Timer t(&sim, [] {});
  for (int i = 0; i < 100'000; ++i) {
    t.Restart(Seconds(5));  // each Restart cancels the previous arm
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  // One live arm; everything else must already be recycled.
  EXPECT_LE(sim.pool_capacity(), 4u);
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity() - 1);
  t.Stop();
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity());
}

TEST(SimulatorTest, CancelFromTheMiddleKeepsHeapOrder) {
  // Cancels at every heap position (root, inner nodes, leaves) must leave
  // the survivors firing in exact (when, seq) order.
  Simulator sim;
  std::vector<int> order;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    // Interleaved deadlines so heap positions don't follow insertion order.
    SimTime when = Milliseconds((i * 37) % 64);
    ids.push_back(sim.ScheduleAt(when, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 64; i += 3) {
    sim.Cancel(ids[i]);
  }
  sim.Cancel(ids[0]);  // double cancel: no-op
  sim.RunAll();
  std::vector<int> expected;
  for (int ms = 0; ms < 64; ++ms) {
    for (int i = 0; i < 64; ++i) {
      if ((i * 37) % 64 == ms && i % 3 != 0) {
        expected.push_back(i);
      }
    }
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity());
}

TEST(SimulatorTest, OrderingAcrossWideDeadlineSpans) {
  // Deadlines from microseconds to days, scheduled in reverse so insertion
  // order is decoupled from firing order.
  Simulator sim;
  std::vector<int> order;
  const SimTime whens[] = {
      Microseconds(1),  Microseconds(64), Microseconds(65),  Microseconds(200),
      Milliseconds(16), Milliseconds(17), Milliseconds(400), Seconds(4),
      Seconds(5),       Seconds(1000),    Seconds(1100),     Seconds(100'000),
      Seconds(300'000), Seconds(400'000),
  };
  for (int i = static_cast<int>(std::size(whens)) - 1; i >= 0; --i) {
    sim.ScheduleAt(whens[i], [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  ASSERT_EQ(order.size(), std::size(whens));
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
  }
  EXPECT_EQ(sim.Now(), Seconds(400'000));
}

TEST(SimulatorTest, EqualTimestampScheduledLaterRunsLast) {
  // Events at the same instant run by sequence number, including one
  // scheduled much later (from inside another event) for that instant.
  Simulator sim;
  std::vector<int> order;
  const SimTime far = Seconds(500'000);
  sim.ScheduleAt(far, [&] { order.push_back(0); });
  sim.ScheduleAt(far, [&] { order.push_back(1); });
  sim.ScheduleAt(Seconds(250'000), [&] {
    sim.ScheduleAt(far, [&] { order.push_back(2); });
  });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTest, RunUntilAdvancesAcrossEmptySpans) {
  // A large idle jump (RunUntil with an empty queue) must not disturb the
  // ordering of later schedules.
  Simulator sim;
  sim.RunUntil(Seconds(3600));
  EXPECT_EQ(sim.Now(), Seconds(3600));
  std::vector<int> order;
  sim.Schedule(Milliseconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(30), [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.Now(), Seconds(3600) + Seconds(30));
}

TEST(SimulatorTest, ChurnExecutionOrderMatchesPinnedSequence) {
  // A randomized schedule/cancel/re-arm storm. The fired-tag sequence is
  // pinned by its length, FNV-1a-64 hash and final clock, recorded on the
  // event core this heap replaced (itself gated identical to the original
  // priority queue); reordering a single event changes the hash.
  Simulator sim;
  std::vector<std::uint64_t> fired;
  std::vector<std::uint64_t> ids;
  std::uint64_t lcg = 12345;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      std::uint64_t tag = next();
      SimTime delay = static_cast<SimTime>(next() % 2'000'000'000);  // 0..2 s
      ids.push_back(sim.Schedule(delay, [&fired, tag] { fired.push_back(tag); }));
    }
    // Cancel a pseudo-random third of everything ever scheduled.
    for (std::size_t i = 0; i < ids.size(); i += 3) {
      if (next() % 2 == 0) {
        sim.Cancel(ids[i]);
      }
    }
    sim.RunUntil(sim.Now() + Milliseconds(250));
  }
  sim.RunAll();
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::uint64_t tag : fired) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (tag >> (8 * b)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(fired.size(), 1443u);
  EXPECT_EQ(hash, 0xa198b9e40a7e4805ULL);
  EXPECT_EQ(sim.Now(), 14'230'530'609);
}

TEST(SimulatorTest, ReservedSeqsKeepTheirPlaceAmongEqualTimeEvents) {
  // Seqs reserved between two ordinary schedules and queued later, out of
  // order, run exactly where they were reserved.
  Simulator sim;
  std::vector<int> order;
  const SimTime t = Milliseconds(5);
  sim.ScheduleAt(t, [&] { order.push_back(0); });
  const std::uint64_t r = sim.ReserveSeqs(3);
  sim.ScheduleAt(t, [&] { order.push_back(4); });
  sim.ScheduleAt(t, [&] { order.push_back(5); });
  EXPECT_EQ(sim.events_scheduled(), 6u);
  sim.ScheduleAtSeq(t, r + 2, [&] { order.push_back(3); });
  sim.ScheduleAtSeq(t, r, [&] { order.push_back(1); });
  sim.ScheduleAtSeq(t, r + 1, [&] { order.push_back(2); });
  EXPECT_EQ(sim.events_scheduled(), 6u);  // queuing reserves nothing new
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.executed_events(), 6u);
}

TEST(SimulatorTest, ReservedStreamQueuedOneAtATimeMatchesUpFrontSchedule) {
  // The serial line's pattern: a stream of events with non-decreasing
  // deadlines reserves its seqs up front, but only its head is queued; each
  // event queues its successor when it fires. Ordinary events scheduled
  // before and after the reservation, at the same instants, some of them
  // cancelled, must interleave exactly as if the whole stream had been
  // scheduled up front.
  const std::vector<SimTime> stream = {Milliseconds(1), Milliseconds(2),
                                       Milliseconds(2), Milliseconds(3),
                                       Milliseconds(5)};
  const std::vector<SimTime> others = {Milliseconds(1), Milliseconds(2),
                                       Milliseconds(3), Milliseconds(4),
                                       Milliseconds(5)};
  auto run = [&](bool lazy) {
    Simulator sim;
    std::vector<int> order;
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < others.size(); ++i) {
      const int tag = 100 + static_cast<int>(i);
      ids.push_back(sim.ScheduleAt(others[i], [&order, tag] { order.push_back(tag); }));
    }
    std::uint64_t first = 0;
    std::function<void(std::size_t)> arm;
    if (lazy) {
      first = sim.ReserveSeqs(stream.size());
      arm = [&](std::size_t k) {
        sim.ScheduleAtSeq(stream[k], first + k, [&, k] {
          if (k + 1 < stream.size()) {
            arm(k + 1);
          }
          order.push_back(static_cast<int>(k));
        });
      };
      arm(0);
    } else {
      for (std::size_t k = 0; k < stream.size(); ++k) {
        sim.ScheduleAt(stream[k], [&order, k] { order.push_back(static_cast<int>(k)); });
      }
    }
    for (std::size_t i = 0; i < others.size(); ++i) {
      const int tag = 200 + static_cast<int>(i);
      ids.push_back(sim.ScheduleAt(others[i], [&order, tag] { order.push_back(tag); }));
    }
    // Cancel neighbours of stream events on both sides of the reservation.
    sim.Cancel(ids[1]);
    sim.Cancel(ids[others.size() + 2]);
    sim.Cancel(ids[others.size() + 4]);
    sim.RunAll();
    EXPECT_EQ(sim.events_scheduled(), stream.size() + 2 * others.size());
    return order;
  };
  const std::vector<int> up_front = run(false);
  EXPECT_EQ(up_front, (std::vector<int>{100, 0, 200, 1, 2, 201, 102, 3, 103,
                                        203, 104, 4}));
  EXPECT_EQ(run(true), up_front);
}

TEST(SimulatorTest, PopComparesAreLogarithmic) {
  // A deep queue of uniformly spread deadlines: every pop's sift-down may
  // compare at most two entries per heap level.
  Simulator sim;
  std::uint64_t lcg = 99;
  for (int i = 0; i < 4096; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    sim.Schedule(static_cast<SimTime>((lcg >> 33) % 1'000'000'000), [] {});
  }
  EXPECT_EQ(sim.pop_compares(), 0u);
  sim.RunAll();
  EXPECT_EQ(sim.executed_events(), 4096u);
  EXPECT_GT(sim.pop_compares(), 0u);
  EXPECT_LE(sim.pop_compares(), 4096u * 2 * 12);  // 2 * log2(4096) per pop
}

TEST(TimeHelpersTest, Conversions) {
  EXPECT_EQ(Seconds(1.5), 1'500'000'000);
  EXPECT_EQ(Milliseconds(2), 2'000'000);
  EXPECT_EQ(Microseconds(3), 3'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(4)), 4.0);
  EXPECT_DOUBLE_EQ(ToMillis(Milliseconds(7)), 7.0);
}

TEST(TimeHelpersTest, TransmitTimeAt1200Baud) {
  // 150 bytes at 1200 bit/s = 1 second: the paper's dominant cost.
  EXPECT_EQ(TransmitTime(150, 1200), Seconds(1));
  EXPECT_EQ(TransmitTime(1500, 10'000'000), Microseconds(1200));
}

TEST(TimeHelpersTest, TransmitTimeIsExactIntegerMathWithRoundHalfUp) {
  // Non-divisible rates: the old double formula truncated (1 byte at 1200
  // bit/s -> 6666666 ns); integer round-half-up pins the mathematically
  // nearest nanosecond.
  EXPECT_EQ(TransmitTime(1, 1200), 6'666'667);     // 6666666.66... rounds up
  EXPECT_EQ(TransmitTime(100, 1200), 666'666'667); // .66 rounds up
  EXPECT_EQ(TransmitTime(1, 9600), 833'333);       // 833333.33 rounds down
  EXPECT_EQ(TransmitTime(7, 9600), 5'833'333);     // 5833333.33 rounds down
  // Exact half: 1 byte at 16000 bit/s = 500000 ns exactly; 1 at 3200000 is
  // 2500 ns exactly; 1 byte at 4800 = 1666666.66 rounds up.
  EXPECT_EQ(TransmitTime(1, 4800), 1'666'667);
  // Half-way case rounds up: 3 bytes at 48'000'000'000 bps = 0.5 ns.
  EXPECT_EQ(TransmitTime(3, 48'000'000'000ULL), 1);
  // Pathological rates.
  EXPECT_EQ(TransmitTime(1, 1), Seconds(8));         // 8 s per byte
  EXPECT_EQ(TransmitTime(1, 3), 2'666'666'667);      // 2.66... s rounds up
  EXPECT_EQ(TransmitTime(0, 1200), 0);
  EXPECT_EQ(TransmitTime(10, 0), 0);  // guarded: no divide-by-zero
  // Saturates instead of overflowing for absurd byte counts.
  EXPECT_EQ(TransmitTime(static_cast<std::size_t>(-1), 1), INT64_MAX);
  // No drift when accumulated: 1000 one-byte times vs one 1000-byte frame
  // differ only by per-frame rounding, never by more than half a ns each.
  SimTime per_byte_sum = 0;
  for (int i = 0; i < 1000; ++i) {
    per_byte_sum += TransmitTime(1, 1200);
  }
  SimTime frame = TransmitTime(1000, 1200);
  EXPECT_LE(per_byte_sum - frame, 1000);
  EXPECT_GE(per_byte_sum - frame, 0);
}

}  // namespace
}  // namespace upr
