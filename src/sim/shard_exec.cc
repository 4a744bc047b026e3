#include "src/sim/shard_exec.h"

#include "src/util/panic.h"

namespace upr {

ShardSet::ShardSet(std::size_t shards) {
  const std::size_t n = shards == 0 ? 1 : shards;
  sims_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  current_ = sims_[0].get();
}

Simulator* ShardSet::shard(std::size_t k) {
  UPR_INVARIANT(k < sims_.size(), "shard index %zu out of range (%zu shards)",
                k, sims_.size());
  return sims_[k].get();
}

void ShardSet::Post(std::size_t src, std::size_t dst, SimTime when,
                    std::function<void()> fn) {
  UPR_INVARIANT(src < sims_.size() && dst < sims_.size(),
                "Post shard out of range (%zu -> %zu, %zu shards)", src, dst,
                sims_.size());
  ++stats_.posted;
  sims_[dst]->ScheduleAt(when, std::move(fn));
  merge_heap_.push({when, dst});
}

std::size_t ShardSet::RunUntil(SimTime deadline) {
  // Rebuild the candidate heap from scratch: entries are (time, shard)
  // pairs, lazily invalidated — on pop we re-check the shard's real next
  // event time and re-push when the entry went stale (ran, cancelled, or
  // superseded). Ties execute lowest shard index first, which is the
  // deterministic rule the city golden pins.
  while (!merge_heap_.empty()) {
    merge_heap_.pop();
  }
  for (std::size_t k = 0; k < sims_.size(); ++k) {
    SimTime t;
    if (sims_[k]->NextEventTime(&t)) {
      merge_heap_.push({t, k});
    }
  }
  std::size_t n = 0;
  while (!merge_heap_.empty()) {
    const auto [t, k] = merge_heap_.top();
    if (t > deadline) {
      break;
    }
    merge_heap_.pop();
    SimTime real;
    if (!sims_[k]->NextEventTime(&real)) {
      continue;  // stale: the event ran or was cancelled
    }
    if (real != t) {
      merge_heap_.push({real, k});
      continue;
    }
    current_ = sims_[k].get();
    sims_[k]->Step();
    ++n;
    ++stats_.merge_steps;
    if (sims_[k]->NextEventTime(&real)) {
      merge_heap_.push({real, k});
    }
  }
  for (std::size_t k = 0; k < sims_.size(); ++k) {
    sims_[k]->RunUntil(deadline);  // settle every shard clock at deadline
  }
  return n;
}

bool ShardSet::Idle() {
  for (const auto& sim : sims_) {
    SimTime t;
    if (sim->NextEventTime(&t)) {
      return false;
    }
  }
  return true;
}

std::uint64_t ShardSet::TotalEventsScheduled() const {
  std::uint64_t n = 0;
  for (const auto& sim : sims_) {
    n += sim->events_scheduled();
  }
  return n;
}

std::size_t ShardSet::TotalEventsExecuted() const {
  std::size_t n = 0;
  for (const auto& sim : sims_) {
    n += sim->executed_events();
  }
  return n;
}

std::uint64_t ShardSet::TotalPopCompares() const {
  std::uint64_t n = 0;
  for (const auto& sim : sims_) {
    n += sim->pop_compares();
  }
  return n;
}

}  // namespace upr
