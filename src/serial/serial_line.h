// Full-duplex RS-232 serial line between the host's DZ port and the TNC
// (figure 1 of the paper). Bytes move at the configured baud rate, 10 bits
// per byte (8N1 framing). The receiver takes one delivery (one receive
// interrupt) per `silo_depth` characters:
//
//  * Depth 1 (default, paper fidelity): each byte is its own delivery, which
//    is exactly how the paper's driver ingests packets ("For each character
//    in the packet, the tty driver calls the packet radio interrupt
//    handler", §2.2).
//
//  * Depth > 1: the DH-style silo the paper's §Performance points at as the
//    cure for per-character overhead. A delivery fires when the silo fills,
//    or `silo_timeout` after the line goes quiet (the DZ-11 silo alarm), and
//    hands the receiver the whole batch in one callback.
//
// Both depths run through one stream: each direction keeps its bytes in
// flight in a FIFO of (land time, seq, byte) and holds one simulator event,
// for the next delivery to land. Only the byte that closes a delivery takes
// an event seq, reserved at Write() time (Simulator::ReserveSeqs), so every
// delivery runs at the same (when, seq) place in the global order as if it
// had been scheduled up front. The byte stream, its ordering and its wire
// timing do not depend on the depth; only the number of deliveries does.
#ifndef SRC_SERIAL_SERIAL_LINE_H_
#define SRC_SERIAL_SERIAL_LINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "src/sim/simulator.h"
#include "src/util/byte_buffer.h"

namespace upr {

class SerialLine;

struct SerialLineConfig {
  std::uint32_t baud_rate = 9600;
  // Characters per delivery event: 1 (or 0) is one receive interrupt per
  // character (paper §2.2); more is a DZ/DH silo (the DZ-11 had 64).
  std::size_t silo_depth = 1;
  // A partially-filled silo is delivered this long after its last byte
  // lands (the silo-alarm timeout). 0 delivers at the last byte's land
  // time, i.e. as soon as the burst ends.
  SimTime silo_timeout = 0;
  // Transmit FIFO cap in bytes per direction; writes beyond it are dropped
  // and counted (the real DZ overruns instead of buffering without bound).
  // 0 means unbounded (seed behaviour).
  std::uint64_t max_backlog = 0;
};

// One end of the line. Obtain via SerialLine::a()/b().
class SerialEndpoint {
 public:
  using ChunkHandler = std::function<void(const std::uint8_t* data, std::size_t len)>;

  // Runs once per delivery event, at its delivery time, with every byte it
  // carried: up to silo_depth bytes. The data is valid only for the
  // duration of the call.
  void set_receive_chunk_handler(ChunkHandler h) { on_bytes_ = std::move(h); }

  // Queues bytes for transmission to the far end. Never blocks; the line
  // serializes output at the baud rate. Bytes beyond the configured
  // max_backlog are dropped and counted in overruns()/bytes_dropped().
  void Write(const Bytes& bytes);

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  // Transmit-queue backlog in bytes not yet delivered to the peer.
  std::uint64_t backlog() const { return backlog_; }
  // Free transmit-FIFO capacity in bytes (UINT64_MAX when max_backlog is 0,
  // i.e. unbounded). Writers with an external flow-control lever — the live
  // bridge reading from a PTY/TCP fd — consume at most this much per burst,
  // so the cap backpressures the fd instead of dropping mid-frame and
  // desyncing the external KISS decoder.
  std::uint64_t tx_room() const;

  // --- Interrupt-path instrumentation (experiment E5) ---------------------
  // Delivery events scheduled for this endpoint's outgoing bytes.
  std::uint64_t events_scheduled() const { return events_scheduled_; }
  // Delivery events (receive interrupts) this endpoint has taken.
  std::uint64_t deliveries() const { return deliveries_; }
  // Mean received bytes per delivery event: 1.0 at depth 1, up to
  // silo_depth for a silo.
  double bytes_per_event() const {
    return deliveries_ == 0
               ? 0.0
               : static_cast<double>(bytes_received_) / static_cast<double>(deliveries_);
  }
  // Write() calls that hit the FIFO cap, and the bytes they lost.
  std::uint64_t overruns() const { return overruns_; }
  std::uint64_t bytes_dropped() const { return bytes_dropped_; }

  // Name used to attribute this endpoint's trace events (e.g. "pc0 dz0").
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

 private:
  friend class SerialLine;

  // A byte on the wire: its land time, and the event seq reserved for the
  // delivery it closes (0 for a byte that does not close one).
  struct InFlight {
    SimTime when;
    std::uint64_t seq;
    std::uint8_t byte;
  };

  // Hands a landed chunk to the receive side of *this* endpoint.
  void DeliverChunk(const std::uint8_t* data, std::size_t len);
  // Whether a closed delivery is in flight, i.e. its event is armed. The
  // FIFO is never empty while it exists, so with no partial silo open every
  // byte in it belongs to a closed delivery.
  bool closed_in_flight() const {
    return in_flight_ && (open_ == 0 || in_flight_->size() > open_);
  }
  // Queues the event for the oldest closed delivery in flight.
  void ArmNextDelivery();
  // Pops the oldest `n` bytes in flight and delivers them to the peer.
  void Land(std::size_t n);
  // Arms the silo alarm that delivers the partially-filled silo.
  void ArmSiloAlarm();

  SerialLine* line_ = nullptr;
  SerialEndpoint* peer_ = nullptr;
  std::string name_;
  ChunkHandler on_bytes_;
  SimTime busy_until_ = 0;  // when this direction's last queued byte lands
  // Byte-accurate clock for this direction: bytes sent since `tx_epoch_`.
  // busy_until_ is recomputed as epoch + round(n * byte-time) each Write so
  // non-divisor baud rates (9600 -> 1041666.67 ns/byte) don't accumulate
  // per-byte truncation drift.
  SimTime tx_epoch_ = 0;
  std::uint64_t tx_bytes_since_epoch_ = 0;
  // Bytes on the wire, oldest first: whole closed deliveries of silo_depth
  // bytes each, then the `open_` bytes of a partial silo. Only the oldest
  // closed delivery is a pending simulator event. Created by Write() and
  // dropped when it empties, so constructing a line allocates nothing and
  // an idle line holds no storage.
  std::unique_ptr<std::deque<InFlight>> in_flight_;
  std::size_t open_ = 0;
  std::uint64_t silo_alarm_id_ = 0;  // 0 while no silo alarm is armed
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t backlog_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t overruns_ = 0;
  std::uint64_t bytes_dropped_ = 0;
};

class SerialLine {
 public:
  SerialLine(Simulator* sim, SerialLineConfig config);

  SerialEndpoint& a() { return a_; }
  SerialEndpoint& b() { return b_; }
  const SerialEndpoint& a() const { return a_; }
  const SerialEndpoint& b() const { return b_; }

  const SerialLineConfig& config() const { return config_; }
  std::uint32_t baud_rate() const { return config_.baud_rate; }
  // Wire time for one byte (10 bit times: start + 8 data + stop), rounded.
  SimTime byte_time() const;
  // Wire time for `n` consecutive bytes, rounded once (not n truncations).
  SimTime transfer_time(std::uint64_t n) const;

 private:
  friend class SerialEndpoint;

  Simulator* sim_;
  SerialLineConfig config_;
  SerialEndpoint a_;
  SerialEndpoint b_;
};

}  // namespace upr

#endif  // SRC_SERIAL_SERIAL_LINE_H_
