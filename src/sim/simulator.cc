#include "src/sim/simulator.h"

#include "src/util/panic.h"

namespace upr {

std::uint64_t Simulator::Schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) {
    delay = 0;
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

Simulator::Event* Simulator::AllocEvent() {
  Event* ev;
  if (!free_.empty()) {
    ev = free_.back();
    free_.pop_back();
  } else {
    if (pool_size_ == blocks_.size() * kBlockEvents) {
      blocks_.push_back(std::make_unique<Event[]>(kBlockEvents));
    }
    ev = &blocks_.back()[pool_size_ % kBlockEvents];
    ev->pool_index = static_cast<std::uint32_t>(pool_size_++);
  }
  // The generation stamp bumps per allocation, so a Cancel() holding an id
  // from a previous tenant of this slot is a guaranteed no-op.
  ++ev->gen;
  return ev;
}

void Simulator::Recycle(Event* ev) {
  ev->fn = nullptr;  // release the closure's captures now, not at reuse
  ev->heap_pos = kNotQueued;
  free_.push_back(ev);
}

std::uint64_t Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  return ScheduleAtSeq(when, next_seq_++, std::move(fn));
}

std::uint64_t Simulator::ReserveSeqs(std::uint64_t n) {
  std::uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

std::uint64_t Simulator::ScheduleAtSeq(SimTime when, std::uint64_t seq,
                                       std::function<void()> fn) {
  UPR_INVARIANT(seq != 0 && seq < next_seq_,
                "event seq %llu was never handed out",
                static_cast<unsigned long long>(seq));
  if (when < now_) {
    when = now_;
  }
  Event* ev = AllocEvent();
  ev->seq = seq;
  ev->fn = std::move(fn);
  if (heap_.capacity() == 0) {
    heap_.reserve(kInitialHeapEntries);
  }
  heap_.push_back({when, ev});
  SiftUp(heap_.size() - 1, {when, ev});
  return (static_cast<std::uint64_t>(ev->gen) << 32) | ev->pool_index;
}

void Simulator::SiftUp(std::size_t pos, Entry e) {
  while (pos > 0) {
    std::size_t parent = (pos - 1) / 2;
    if (!Earlier(e, heap_[parent])) {
      break;
    }
    Put(pos, heap_[parent]);
    pos = parent;
  }
  Put(pos, e);
}

std::size_t Simulator::SiftDown(std::size_t pos, Entry e) {
  const std::size_t n = heap_.size();
  std::size_t compares = 0;
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n) {
      ++compares;
      if (Earlier(heap_[child + 1], heap_[child])) {
        ++child;
      }
    }
    ++compares;
    if (!Earlier(heap_[child], e)) {
      break;
    }
    Put(pos, heap_[child]);
    pos = child;
  }
  Put(pos, e);
  return compares;
}

std::size_t Simulator::RemoveAt(std::size_t pos) {
  Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return 0;  // the removed entry was the last one
  }
  if (pos > 0 && Earlier(last, heap_[(pos - 1) / 2])) {
    SiftUp(pos, last);
    return 0;
  }
  return SiftDown(pos, last);
}

void Simulator::Cancel(std::uint64_t id) {
  auto index = static_cast<std::uint32_t>(id & 0xFFFFFFFF);
  auto gen = static_cast<std::uint32_t>(id >> 32);
  if (index >= pool_size_) {
    return;
  }
  Event* ev = &blocks_[index / kBlockEvents][index % kBlockEvents];
  if (ev->gen != gen || ev->heap_pos == kNotQueued) {
    return;  // already ran, already cancelled, or a stale id
  }
  UPR_INVARIANT(heap_[ev->heap_pos].ev == ev,
                "event seq %llu lost its heap position",
                static_cast<unsigned long long>(ev->seq));
  RemoveAt(ev->heap_pos);
  Recycle(ev);
}

bool Simulator::NextEventTime(SimTime* when) const {
  if (heap_.empty()) {
    return false;
  }
  *when = heap_.front().when;
  return true;
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  const Entry top = heap_.front();
  Event* ev = top.ev;
  pop_compares_ += RemoveAt(0);
  UPR_INVARIANT(top.when >= now_,
                "event seq %llu would move time backwards (%lld < %lld)",
                static_cast<unsigned long long>(ev->seq),
                static_cast<long long>(top.when), static_cast<long long>(now_));
  now_ = top.when;
  ++executed_;
  // Move the closure out and recycle before running: the callback may
  // schedule new events, which must be free to reuse this slot.
  std::function<void()> fn = std::move(ev->fn);
  Recycle(ev);
  fn();
  return true;
}

std::size_t Simulator::RunUntil(SimTime deadline) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    Step();
    ++n;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

std::size_t Simulator::RunAll(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && Step()) {
    ++n;
  }
  return n;
}

void Timer::Restart(SimTime delay) {
  Stop();
  running_ = true;
  deadline_ = sim_->Now() + (delay < 0 ? 0 : delay);
  id_ = sim_->Schedule(delay, [this] {
    running_ = false;
    fn_();
  });
}

void Timer::Stop() {
  if (running_) {
    sim_->Cancel(id_);
    running_ = false;
  }
}

}  // namespace upr
