// Deterministic discrete-event simulator that drives the whole system.
//
// Every component (radio channel, TNC, serial line, host stack, application)
// schedules callbacks on a single Simulator. Events at equal timestamps run
// in scheduling order (a monotonically increasing sequence number breaks
// ties; an event queued late at a reserved seq keeps the place it reserved),
// so runs are bit-reproducible.
//
// Event storage is one indexed binary min-heap ordered by (when, seq). Every
// pooled event records its heap position, so Cancel() removes it in
// O(log n) and recycles its slot at once: the protocol timers (T1/T3/RTO/
// ARP/silo alarms), re-armed far more often than they fire, leave no
// tombstones behind. Pops cost O(log n) heap compares, counted in
// pop_compares() as a host-independent measure of the event core's work.
//
// Time is kept in integer nanoseconds (`SimTime`). Helpers convert from
// humane units.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace upr {

// Simulated time in nanoseconds since simulation start.
using SimTime = std::int64_t;

constexpr SimTime kNanosecond = 1;
constexpr SimTime kMicrosecond = 1000 * kNanosecond;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;

constexpr SimTime Microseconds(double us) {
  return static_cast<SimTime>(us * static_cast<double>(kMicrosecond));
}
constexpr SimTime Milliseconds(double ms) {
  return static_cast<SimTime>(ms * static_cast<double>(kMillisecond));
}
constexpr SimTime Seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kSecond));
}
constexpr double ToSeconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}
constexpr double ToMillis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

// Transmission time of `bytes` at `bits_per_second` (8 bits per byte; HDLC
// bit-stuffing overhead is ignored, as the paper's budget analysis does).
// Integer math with round-half-up: the old double formula truncated, so
// rates that don't divide evenly (1200, 9600, ...) drifted up to 1 ns per
// frame — the same error class PR 1 fixed for per-byte serial `byte_time`.
constexpr SimTime TransmitTime(std::size_t bytes, std::uint64_t bits_per_second) {
  if (bits_per_second == 0) {
    return 0;
  }
  using Wide = unsigned __int128;
  Wide ns = (Wide(bytes) * 8u * Wide(kSecond) + bits_per_second / 2) /
            bits_per_second;
  constexpr Wide kMax = Wide(INT64_MAX);
  return ns > kMax ? INT64_MAX : static_cast<SimTime>(ns);
}

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at Now() + delay (delay < 0 is clamped to 0).
  // Returns an id usable with Cancel().
  std::uint64_t Schedule(SimTime delay, std::function<void()> fn);
  std::uint64_t ScheduleAt(SimTime when, std::function<void()> fn);

  // Reserves `n` consecutive sequence numbers and returns the first; they
  // count in events_scheduled() at once. A component that keeps a stream of
  // future events outside the heap (the serial line) reserves each
  // event's seq when it would have scheduled it and queues it later with
  // ScheduleAtSeq(): ties at equal `when` then break exactly as if every
  // event had been scheduled up front.
  std::uint64_t ReserveSeqs(std::uint64_t n);
  // ScheduleAt() with a seq taken from ReserveSeqs() instead of a fresh one.
  std::uint64_t ScheduleAtSeq(SimTime when, std::uint64_t seq,
                              std::function<void()> fn);

  // Cancels a pending event; a no-op if it already ran or was cancelled.
  // O(log n): the event leaves the heap and its slot is recycled at once.
  void Cancel(std::uint64_t id);

  // Runs events until the queue is empty or `deadline` is passed. Events at
  // exactly `deadline` still run. Returns the number of events executed.
  std::size_t RunUntil(SimTime deadline);

  // Runs until the event queue drains (use with care: periodic timers never
  // drain). Returns the number of events executed.
  std::size_t RunAll(std::size_t max_events = 100'000'000);

  // Runs a single event if one is pending; returns false when idle.
  bool Step();

  bool Idle() const { return heap_.empty(); }
  // Timestamp of the earliest pending event without running it. Returns
  // false when the queue is empty. The sharded city executor merges shard
  // queues globally-by-time with this.
  bool NextEventTime(SimTime* when) const;
  std::size_t pending_events() const { return heap_.size(); }
  std::size_t executed_events() const { return executed_; }
  // Total events ever scheduled (the interrupt-rate analogue: every serial
  // byte, timer and frame delivery passes through here).
  std::uint64_t events_scheduled() const { return next_seq_ - 1; }
  // Event objects allocated over the simulator's lifetime. Events are pooled
  // on a free list, so this tracks peak concurrency, not event count.
  std::size_t pool_capacity() const { return pool_size_; }
  std::size_t pool_free() const { return free_.size(); }
  // Heap entries compared while popping events (the sift-downs of Step()).
  // Deterministic for a given schedule, so pop_compares() /
  // executed_events() bounds the cost per pop independently of host speed.
  std::uint64_t pop_compares() const { return pop_compares_; }

 private:
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;
  // Events are allocated 16 at a time: one malloc per block instead of per
  // event, and no per-event allocator header.
  static constexpr std::size_t kBlockEvents = 16;
  // The heap array's first allocation (4 KB). Growing a fresh queue from one
  // entry by doubling leaves a trail of small freed buffers that the
  // caller's next allocations land in, which measurably slowed topology
  // construction; starting larger avoids that churn.
  static constexpr std::size_t kInitialHeapEntries = 256;

  struct Event {
    std::uint64_t seq = 0;
    std::function<void()> fn;
    std::uint32_t gen = 0;  // bumped on alloc; ids embed it
    std::uint32_t pool_index = 0;
    std::uint32_t heap_pos = kNotQueued;  // index into heap_ while pending
  };

  // A heap entry holds its event's deadline, so sifting compares without
  // touching the event unless two deadlines tie.
  struct Entry {
    SimTime when;
    Event* ev;
  };

  // Strict (when, seq) order — the execution order contract.
  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.ev->seq < b.ev->seq;
  }

  // Free-list allocation: events live in `blocks_` for the simulator's
  // lifetime and recycle through `free_` instead of a per-schedule
  // allocation (the hot path bench_e5 measures).
  Event* AllocEvent();
  void Recycle(Event* ev);

  // Indexed heap maintenance; each keeps Event::heap_pos current.
  void Put(std::size_t pos, Entry e) {
    heap_[pos] = e;
    e.ev->heap_pos = static_cast<std::uint32_t>(pos);
  }
  void SiftUp(std::size_t pos, Entry e);
  // Both return the number of heap entries compared.
  std::size_t SiftDown(std::size_t pos, Entry e);
  // Removes heap_[pos], filling the hole with the last entry.
  std::size_t RemoveAt(std::size_t pos);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t executed_ = 0;
  std::uint64_t pop_compares_ = 0;

  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Event[]>> blocks_;
  std::size_t pool_size_ = 0;  // events handed out of blocks_ so far
  std::vector<Event*> free_;
};

// RAII one-shot timer bound to a Simulator. Restart() re-arms; destruction or
// Stop() cancels. Used for protocol timers (T1, ARP expiry, RTO, ...).
class Timer {
 public:
  Timer(Simulator* sim, std::function<void()> fn) : sim_(sim), fn_(std::move(fn)) {}
  ~Timer() { Stop(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // (Re)arms the timer to fire after `delay`.
  void Restart(SimTime delay);
  void Stop();
  bool running() const { return running_; }
  // Time at which the timer will fire (valid only while running()).
  SimTime deadline() const { return deadline_; }

 private:
  Simulator* sim_;
  std::function<void()> fn_;
  std::uint64_t id_ = 0;
  bool running_ = false;
  SimTime deadline_ = 0;
};

}  // namespace upr

#endif  // SRC_SIM_SIMULATOR_H_
