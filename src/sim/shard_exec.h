// upr — sharded event execution.
//
// The city-scale topology decomposes, as the NS-2 multi-channel model does,
// into radio channels that only interact through gateways and point-to-point
// trunks: a channel's MAC, serial lines and stations never touch another
// channel's state directly, and every cross-channel path crosses a link with
// a real, bounded latency. A ShardSet keeps one Simulator (and so one event
// heap) per shard, with cross-shard events carried as explicit handoffs
// instead of shared-queue inserts, and runs them all on one thread as a
// globally time-ordered merge: a lazy min-heap over shard clocks, equal
// timestamps breaking by lowest shard index. Its city output is pinned by
// the tests/golden/city_4x6_seed7 capture and summary.
#ifndef SRC_SIM_SHARD_EXEC_H_
#define SRC_SIM_SHARD_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace upr {

struct ShardStats {
  std::uint64_t posted = 0;       // cross-shard handoffs posted
  std::uint64_t merge_steps = 0;  // events run by the merge loop
};

class ShardSet {
 public:
  explicit ShardSet(std::size_t shards);
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  std::size_t shard_count() const { return sims_.size(); }

  // The simulator backing shard `k`.
  Simulator* shard(std::size_t k);

  // The clock of the shard whose event is executing (the merge cursor).
  // The tracer's clock override reads it so ring/pcap timestamps come from
  // the shard that actually recorded the crossing.
  SimTime CurrentTime() const { return current_->Now(); }

  // Schedules `fn` on shard `dst` at absolute sim time `when`. Called from
  // an event executing on shard `src`.
  void Post(std::size_t src, std::size_t dst, SimTime when,
            std::function<void()> fn);

  // Runs all shards up to and including `deadline`. Returns the number of
  // events executed across shards.
  std::size_t RunUntil(SimTime deadline);

  // True when no shard has a pending event (call between RunUntil calls).
  bool Idle();

  ShardStats stats() const { return stats_; }

  // Aggregate counters across the shards' simulators.
  std::uint64_t TotalEventsScheduled() const;
  std::size_t TotalEventsExecuted() const;
  std::uint64_t TotalPopCompares() const;

 private:
  std::vector<std::unique_ptr<Simulator>> sims_;  // one per shard
  Simulator* current_ = nullptr;

  // Lazy min-heap of (next event time, shard).
  using MergeEntry = std::pair<SimTime, std::size_t>;
  std::priority_queue<MergeEntry, std::vector<MergeEntry>,
                      std::greater<MergeEntry>>
      merge_heap_;

  ShardStats stats_;
};

}  // namespace upr

#endif  // SRC_SIM_SHARD_EXEC_H_
