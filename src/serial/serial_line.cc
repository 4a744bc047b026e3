#include "src/serial/serial_line.h"

#include <algorithm>
#include <cmath>

#include "src/trace/trace.h"
#include "src/util/panic.h"

namespace upr {

SerialLine::SerialLine(Simulator* sim, SerialLineConfig config)
    : sim_(sim), config_(config) {
  config_.silo_depth = std::max<std::size_t>(config_.silo_depth, 1);  // 0 reads as 1
  a_.line_ = this;
  a_.peer_ = &b_;
  b_.line_ = this;
  b_.peer_ = &a_;
}

SimTime SerialLine::byte_time() const { return transfer_time(1); }

SimTime SerialLine::transfer_time(std::uint64_t n) const {
  return static_cast<SimTime>(
      std::llround(static_cast<double>(n) * 10.0 /
                   static_cast<double>(config_.baud_rate) *
                   static_cast<double>(kSecond)));
}

std::uint64_t SerialEndpoint::tx_room() const {
  std::uint64_t cap = line_->config_.max_backlog;
  if (cap == 0) {
    return UINT64_MAX;
  }
  return backlog_ >= cap ? 0 : cap - backlog_;
}

void SerialEndpoint::DeliverChunk(const std::uint8_t* data, std::size_t len) {
  bytes_received_ += len;
  ++deliveries_;
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kSerial, trace::Kind::kSerialDeliver,
              trace::Dir::kRx, name_, ByteView(data, len));
  }
  if (on_bytes_) {
    on_bytes_(data, len);
  }
}

void SerialEndpoint::ArmSiloAlarm() {
  SimTime when = busy_until_ + line_->config_.silo_timeout;
  silo_alarm_id_ = line_->sim_->ScheduleAt(when, [this] {
    // Every closed delivery landed before the alarm, so the partial silo is
    // the whole FIFO.
    UPR_INVARIANT(in_flight_->size() == open_, "silo alarm behind a closed delivery");
    silo_alarm_id_ = 0;
    ++events_scheduled_;
    const std::size_t n = open_;
    open_ = 0;
    Land(n);
  });
}

void SerialEndpoint::ArmNextDelivery() {
  const InFlight& closing = (*in_flight_)[line_->config_.silo_depth - 1];
  line_->sim_->ScheduleAtSeq(closing.when, closing.seq,
                             [this] { Land(line_->config_.silo_depth); });
}

void SerialEndpoint::Land(std::size_t n) {
  std::deque<InFlight>& fifo = *in_flight_;
  // Depth 1 delivers from a local byte; only a silo allocates its chunk.
  std::uint8_t byte = 0;
  Bytes silo;
  std::uint8_t* chunk = &byte;
  if (n > 1) {
    silo.resize(n);
    chunk = silo.data();
  }
  for (std::size_t i = 0; i < n; ++i) {
    chunk[i] = fifo.front().byte;
    fifo.pop_front();
  }
  // Arm the next delivery before this one runs: a handler that writes to
  // this direction again then finds the FIFO in a consistent state. An
  // emptied FIFO is dropped, so an idle line holds no storage.
  if (fifo.empty()) {
    in_flight_.reset();
  } else if (closed_in_flight()) {
    ArmNextDelivery();
  }
  backlog_ -= n;
  peer_->DeliverChunk(chunk, n);
}

void SerialEndpoint::Write(const Bytes& bytes) {
  Simulator* sim = line_->sim_;
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kSerial, trace::Kind::kSerialEnqueue,
              trace::Dir::kTx, name_, bytes,
              "backlog=" + std::to_string(backlog_));
  }
  if (busy_until_ <= sim->Now()) {
    // Line idle: start a fresh timing epoch at now.
    busy_until_ = sim->Now();
    tx_epoch_ = sim->Now();
    tx_bytes_since_epoch_ = 0;
  }
  // Bytes past the FIFO cap are dropped with a stat, not buffered without
  // bound (the DZ would overrun). Nothing drains the backlog during this
  // call, so the accepted bytes are a prefix of the write.
  const auto accepted =
      static_cast<std::size_t>(std::min<std::uint64_t>(bytes.size(), tx_room()));
  // A delivery event is armed while a closed delivery is in flight.
  const bool armed = closed_in_flight();
  if (accepted != 0 && !in_flight_) {
    in_flight_ = std::make_unique<std::deque<InFlight>>();
  }
  // The bytes that close a delivery take, in order, the seqs their events
  // would have taken if scheduled now.
  const std::size_t depth = line_->config_.silo_depth;
  const std::size_t closings = (open_ + accepted) / depth;
  std::uint64_t seq = sim->ReserveSeqs(closings);
  events_scheduled_ += closings;
  for (std::size_t i = 0; i < accepted; ++i) {
    ++tx_bytes_since_epoch_;
    busy_until_ = tx_epoch_ + line_->transfer_time(tx_bytes_since_epoch_);
    ++bytes_sent_;
    ++backlog_;
    std::uint64_t closing_seq = 0;
    if (++open_ == depth) {
      closing_seq = seq++;
      open_ = 0;
    }
    in_flight_->push_back({busy_until_, closing_seq, bytes[i]});
  }
  if (silo_alarm_id_ != 0) {
    sim->Cancel(silo_alarm_id_);
    silo_alarm_id_ = 0;
  }
  if (!armed && closed_in_flight()) {
    ArmNextDelivery();
  }
  if (open_ != 0) {
    ArmSiloAlarm();
  }
  if (accepted != bytes.size()) {
    ++overruns_;
    bytes_dropped_ += bytes.size() - accepted;
  }
}

}  // namespace upr
