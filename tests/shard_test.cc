// Tests for the sharded executor: the time-ordered merge across shards,
// cross-shard handoffs, and a seeded workload whose schedule is pinned.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/shard_exec.h"
#include "src/sim/simulator.h"

namespace upr {
namespace {

// ---------------------------------------------------------------------------
// ShardSet

TEST(ShardSet, ShardsHaveDistinctSimulators) {
  ShardSet set(3);
  EXPECT_NE(set.shard(0), set.shard(1));
  EXPECT_NE(set.shard(1), set.shard(2));
}

TEST(ShardSet, ShardedMergeRunsInGlobalTimeOrder) {
  ShardSet set(3);
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
  ShardSet set(2);
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
// every third step posts a burst of four handoffs to the next shard. Event
// timestamps are residue-separated (locals on shard s are ≡ s mod 10,
// handoffs into s are ≡ src+5 mod 10) so no two events on a shard ever share
// a timestamp and the per-shard logs are a complete order witness; the
// merged log records the order the merge ran them across shards.
class SyntheticWorkload {
 public:
  static constexpr std::size_t kShards = 4;
  static constexpr int kSteps = 200;
  static constexpr SimTime kHandoffDelay = 1000;

  SyntheticWorkload() : set_(kShards), logs_(kShards) {
    for (std::size_t s = 0; s < kShards; ++s) {
      ScheduleStep(s, /*step=*/0, /*when=*/100 + 10 * s + s);
    }
  }

  void Run() { executed_ = set_.RunUntil(10'000'000); }

  const std::vector<std::vector<std::string>>& logs() const { return logs_; }
  const std::vector<std::string>& merged() const { return merged_; }
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
        // The +5 offset keeps handoff residues disjoint from local residues;
        // burst members stay 10 apart so no two events on the destination
        // shard ever share a timestamp.
        for (int burst = 0; burst < 4; ++burst) {
          const SimTime rx = sim->Now() + kHandoffDelay + 10 * burst + 5;
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
    merged_.push_back(buf);
  }

  ShardSet set_;
  std::vector<std::vector<std::string>> logs_;
  std::vector<std::string> merged_;
  std::size_t executed_ = 0;
};

// FNV-1a-64 over the log lines, each terminated by '\n'.
std::uint64_t Fnv1a64(const std::vector<std::string>& lines) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::string& line : lines) {
    for (const char c : line + '\n') {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

TEST(ShardSet, SyntheticWorkloadMatchesPinnedSchedule) {
  // Pinned by each shard's log length and FNV-1a-64 hash, the merged log's,
  // the executed count and the posted handoffs. They were recorded while the
  // per-shard logs were still gated identical to those of a conservative
  // parallel executor on 2 and 4 threads; one reordered event changes a hash.
  SyntheticWorkload w;
  w.Run();
  EXPECT_TRUE(w.Idle());
  const std::uint64_t kLogHashes[SyntheticWorkload::kShards] = {
      0xad76e7ef0856e45dULL, 0xb064f75cd363e08aULL, 0x68a4b20ec88d4f6bULL,
      0x4f76b1513b3dadefULL};
  for (std::size_t s = 0; s < SyntheticWorkload::kShards; ++s) {
    EXPECT_EQ(w.logs()[s].size(), 468u) << "shard " << s;
    EXPECT_EQ(Fnv1a64(w.logs()[s]), kLogHashes[s]) << "shard " << s;
  }
  EXPECT_EQ(w.merged().size(), 1872u);
  EXPECT_EQ(Fnv1a64(w.merged()), 0xc917b4539d225276ULL);
  EXPECT_EQ(w.executed(), 1872u);
  EXPECT_EQ(w.stats().posted, 1072u);
}

}  // namespace
}  // namespace upr
