#include "src/serial/serial_line.h"

#include <algorithm>
#include <cmath>

#include "src/trace/trace.h"

namespace upr {

SerialLine::SerialLine(Simulator* sim, SerialLineConfig config)
    : sim_(sim), config_(config) {
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

void SerialEndpoint::FlushSilo(SimTime when) {
  if (silo_alarm_id_ != 0) {
    line_->sim_->Cancel(silo_alarm_id_);
    silo_alarm_id_ = 0;
  }
  if (silo_.empty()) {
    return;
  }
  SerialEndpoint* dst = peer_;
  ++events_scheduled_;
  line_->sim_->ScheduleAt(when, [this, dst, chunk = std::move(silo_)] {
    backlog_ -= chunk.size();
    dst->DeliverChunk(chunk.data(), chunk.size());
  });
  silo_.clear();
}

void SerialEndpoint::ArmSiloAlarm() {
  if (silo_alarm_id_ != 0) {
    line_->sim_->Cancel(silo_alarm_id_);
  }
  SimTime when = busy_until_ + line_->config_.silo_timeout;
  SerialEndpoint* dst = peer_;
  silo_alarm_id_ = line_->sim_->ScheduleAt(when, [this, dst] {
    silo_alarm_id_ = 0;
    if (silo_.empty()) {
      return;
    }
    Bytes chunk = std::move(silo_);
    silo_.clear();
    ++events_scheduled_;
    backlog_ -= chunk.size();
    dst->DeliverChunk(chunk.data(), chunk.size());
  });
}

void SerialEndpoint::ArmNextByte() {
  const InFlight& next = in_flight_->front();
  line_->sim_->ScheduleAtSeq(next.when, next.seq, [this] { LandByte(); });
}

void SerialEndpoint::LandByte() {
  const std::uint8_t b = in_flight_->front().byte;
  in_flight_->pop_front();
  // Arm the successor before delivering: a handler that writes to this
  // direction again then finds the FIFO in a consistent state. An emptied
  // FIFO is dropped, so an idle line holds no storage.
  if (in_flight_->empty()) {
    in_flight_.reset();
  } else {
    ArmNextByte();
  }
  --backlog_;
  peer_->DeliverChunk(&b, 1);
}

void SerialEndpoint::Write(const Bytes& bytes) {
  Simulator* sim = line_->sim_;
  const SerialLineConfig& cfg = line_->config_;
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
  const bool per_byte = cfg.mode == SerialLineConfig::Mode::kPerByte;
  const bool arm = per_byte && accepted != 0 && !in_flight_;
  std::uint64_t seq = 0;
  if (per_byte) {
    seq = sim->ReserveSeqs(accepted);
    if (arm) {
      in_flight_ = std::make_unique<std::deque<InFlight>>();
    }
  }
  for (std::size_t i = 0; i < accepted; ++i) {
    ++tx_bytes_since_epoch_;
    busy_until_ = tx_epoch_ + line_->transfer_time(tx_bytes_since_epoch_);
    ++bytes_sent_;
    ++backlog_;
    if (per_byte) {
      ++events_scheduled_;
      in_flight_->push_back({busy_until_, seq++, bytes[i]});
    } else {
      silo_.push_back(bytes[i]);
      if (silo_.size() >= cfg.silo_depth) {
        FlushSilo(busy_until_);
      }
    }
  }
  if (arm) {
    ArmNextByte();
  }
  if (!per_byte && !silo_.empty()) {
    ArmSiloAlarm();
  }
  if (accepted != bytes.size()) {
    ++overruns_;
    bytes_dropped_ += bytes.size() - accepted;
  }
}

}  // namespace upr
