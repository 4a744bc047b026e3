// Tests for the sharded executor (ISSUE 8): the SPSC handoff ring, and the
// three ShardSet execution modes producing identical per-shard event
// schedules for the same seeded workload.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/shard_exec.h"
#include "src/sim/simulator.h"
#include "src/sim/spsc_ring.h"

namespace upr {
namespace {

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRing, PushPopFifo) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) {
    int v = i * 10;
    EXPECT_TRUE(ring.TryPush(v));
  }
  EXPECT_EQ(ring.SizeApprox(), 5u);
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i * 10);
  }
  int out = -1;
  EXPECT_FALSE(ring.TryPop(&out));
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(256).capacity(), 256u);
}

TEST(SpscRing, FullRingRejectsAndValueStaysWithCaller) {
  SpscRing<std::string> ring(4);
  for (int i = 0; i < 4; ++i) {
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(ring.TryPush(v));
  }
  std::string extra = "overflow";
  EXPECT_FALSE(ring.TryPush(extra));
  EXPECT_EQ(extra, "overflow");  // untouched on failure
  std::string out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, "v0");
  EXPECT_TRUE(ring.TryPush(extra));  // slot freed
}

TEST(SpscRing, IndexWrapKeepsFifoOrder) {
  SpscRing<int> ring(4);
  int expect = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) {
      int v = round * 3 + i;
      ASSERT_TRUE(ring.TryPush(v));
    }
    for (int i = 0; i < 3; ++i) {
      int out = -1;
      ASSERT_TRUE(ring.TryPop(&out));
      ASSERT_EQ(out, expect++);
    }
  }
}

// One producer thread, one consumer thread, values must arrive in order.
// (This is the exact pairing the executor uses; the TSan CI lane watches it.)
TEST(SpscRing, ConcurrentProducerConsumer) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kCount = 100'000;
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kCount;) {
      std::uint64_t v = i;
      if (ring.TryPush(v)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t next = 0;
  while (next < kCount) {
    std::uint64_t out = 0;
    if (ring.TryPop(&out)) {
      ASSERT_EQ(out, next);
      ++next;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

// ---------------------------------------------------------------------------
// ShardSet

TEST(ShardSet, ShardedModeHasDistinctSimulators) {
  ShardSet set({.shards = 3, .mode = ShardSet::Mode::kSharded});
  EXPECT_NE(set.shard(0), set.shard(1));
  EXPECT_NE(set.shard(1), set.shard(2));
}

TEST(ShardSet, ShardedMergeRunsInGlobalTimeOrder) {
  ShardSet set({.shards = 3, .mode = ShardSet::Mode::kSharded});
  std::vector<std::pair<SimTime, std::size_t>> order;
  // Interleaved timestamps across shards; one tie (t=500) that must break by
  // shard index.
  set.shard(1)->ScheduleAt(100, [&] { order.push_back({100, 1}); });
  set.shard(0)->ScheduleAt(200, [&] { order.push_back({200, 0}); });
  set.shard(2)->ScheduleAt(150, [&] { order.push_back({150, 2}); });
  set.shard(2)->ScheduleAt(500, [&] { order.push_back({500, 2}); });
  set.shard(0)->ScheduleAt(500, [&] { order.push_back({500, 0}); });
  const std::size_t executed = set.RunUntil(1000);
  EXPECT_EQ(executed, 5u);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], (std::pair<SimTime, std::size_t>{100, 1}));
  EXPECT_EQ(order[1], (std::pair<SimTime, std::size_t>{150, 2}));
  EXPECT_EQ(order[2], (std::pair<SimTime, std::size_t>{200, 0}));
  EXPECT_EQ(order[3], (std::pair<SimTime, std::size_t>{500, 0}));
  EXPECT_EQ(order[4], (std::pair<SimTime, std::size_t>{500, 2}));
  EXPECT_TRUE(set.Idle());
}

TEST(ShardSet, CrossShardPostArrivesAtRequestedTime) {
  ShardSet set({.shards = 2, .mode = ShardSet::Mode::kSharded, .lookahead = 50});
  set.EnsureLane(0, 1);
  SimTime arrival = 0;
  set.shard(0)->ScheduleAt(100, [&] {
    set.Post(0, 1, set.shard(0)->Now() + 50,
             [&] { arrival = set.shard(1)->Now(); });
  });
  set.RunUntil(1000);
  EXPECT_EQ(arrival, 150u);
  EXPECT_EQ(set.stats().posted, 1u);
}

// A seeded synthetic workload: each shard runs a chain of local events and
// every third step posts a handoff to the next shard. Event timestamps are
// residue-separated (locals on shard s are ≡ s mod 10, handoffs into s are
// ≡ src+5 mod 10) so no two events on a shard ever share a timestamp and the
// per-shard logs are a complete order witness. The same workload must
// produce byte-identical per-shard logs in every mode and thread count.
class SyntheticWorkload {
 public:
  static constexpr std::size_t kShards = 4;
  static constexpr int kSteps = 200;
  static constexpr SimTime kLookahead = 1000;

  SyntheticWorkload(ShardSet::Mode mode, int threads)
      : set_({.shards = kShards,
              .mode = mode,
              .threads = threads,
              .lookahead = kLookahead,
              .ring_capacity = 1}),  // tiny (rounds to 2): forces overflow
        logs_(kShards) {
    for (std::size_t a = 0; a < kShards; ++a) {
      for (std::size_t b = 0; b < kShards; ++b) {
        if (a != b) set_.EnsureLane(a, b);
      }
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      ScheduleStep(s, /*step=*/0, /*when=*/100 + 10 * s + s);
    }
  }

  void Run() { executed_ = set_.RunUntil(10'000'000); }

  const std::vector<std::vector<std::string>>& logs() const { return logs_; }
  ShardStats stats() const { return set_.stats(); }
  std::size_t executed() const { return executed_; }
  bool Idle() { return set_.Idle(); }

 private:
  void ScheduleStep(std::size_t s, int step, SimTime when) {
    set_.shard(s)->ScheduleAt(when, [this, s, step] {
      Simulator* sim = set_.shard(s);
      Append(s, "s%zu step%d t%llu", s, step,
             static_cast<unsigned long long>(sim->Now()));
      if (step % 3 == 1) {
        const std::size_t dst = (s + 1) % kShards;
        // A burst of four: more than the tiny ring holds, so some ride the
        // cold overflow list. The +5 offset keeps handoff residues disjoint
        // from local residues; burst members stay 10 apart so no two events
        // on the destination shard ever share a timestamp.
        for (int burst = 0; burst < 4; ++burst) {
          const SimTime rx = sim->Now() + kLookahead + 10 * burst + 5;
          set_.Post(s, dst, rx, [this, dst, s, burst] {
            Append(dst, "s%zu rx-from%zu.%d t%llu", dst, s, burst,
                   static_cast<unsigned long long>(set_.shard(dst)->Now()));
          });
        }
      }
      if (step + 1 < kSteps) {
        // Increments are multiples of 10, so locals stay on residue s.
        ScheduleStep(s, step + 1, sim->Now() + 100 + 40 * ((step * 7 + s) % 5));
      }
    });
  }

  void Append(std::size_t s, const char* fmt, ...) {
    char buf[96];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    logs_[s].push_back(buf);
  }

  ShardSet set_;
  std::vector<std::vector<std::string>> logs_;
  std::size_t executed_ = 0;
};

TEST(ShardSet, AllModesProduceIdenticalPerShardSchedules) {
  SyntheticWorkload sharded(ShardSet::Mode::kSharded, 1);
  sharded.Run();
  SyntheticWorkload par2(ShardSet::Mode::kParallel, 2);
  par2.Run();
  SyntheticWorkload par4(ShardSet::Mode::kParallel, 4);
  par4.Run();

  // Every shard saw its 200 local steps plus the handoffs aimed at it.
  for (std::size_t s = 0; s < SyntheticWorkload::kShards; ++s) {
    ASSERT_GT(sharded.logs()[s].size(), 200u) << "shard " << s;
    EXPECT_EQ(par2.logs()[s], sharded.logs()[s]) << "shard " << s;
    EXPECT_EQ(par4.logs()[s], sharded.logs()[s]) << "shard " << s;
  }
  EXPECT_EQ(par2.executed(), sharded.executed());
  EXPECT_EQ(par4.executed(), sharded.executed());
  EXPECT_TRUE(par4.Idle());

  // Handoff accounting: the parallel runs posted the same crossings the
  // serial merge did, and every posted handoff was injected at a barrier.
  const ShardStats serial = sharded.stats();
  const ShardStats p4 = par4.stats();
  EXPECT_GT(serial.posted, 0u);
  EXPECT_EQ(p4.posted, serial.posted);
  EXPECT_EQ(p4.injected, p4.posted);
  EXPECT_GT(p4.windows, 0u);
  // ring_capacity 8 with bursts of handoffs: the cold path must have fired
  // at least once, proving the overflow list preserves order too.
  EXPECT_GT(p4.ring_overflow, 0u);
}

TEST(ShardSet, ParallelRunsAreRepeatable) {
  SyntheticWorkload a(ShardSet::Mode::kParallel, 3);
  a.Run();
  SyntheticWorkload b(ShardSet::Mode::kParallel, 3);
  b.Run();
  EXPECT_EQ(a.logs(), b.logs());
  EXPECT_EQ(a.executed(), b.executed());
}

}  // namespace
}  // namespace upr
