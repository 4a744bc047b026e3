// upr::bridge — surfaces a simulated serial port on a real file descriptor
// so unmodified external KISS stacks (Linux kissattach/mkiss, patty's
// pattyd, the tools/kiss_client interop client) join the channel as
// first-class stations.
//
// A BridgePort is a complete station-side attachment: SerialLine + KissTnc
// joined to the RadioChannel, with the *host* side of the line spliced to an
// external fd instead of an in-simulation stack. Bytes read from the fd are
// written into the SerialEndpoint at their wall-equivalent sim time (the
// RealtimeExecutor advances the clock before dispatch), so the external
// station experiences byte-time serial pacing, KISS framing, channel faults
// and p-persistent MAC contention exactly like a simulated one.
//
// Pacing out (sim -> fd): chunks delivered by the serial line are released
// to the fd no earlier than the trailing edge of their last byte's wire
// time, reconstructed independently by EdgePacer. The serial line already
// lands every delivery, one character or a silo batch, at that edge; the
// pacer is the guard that keeps it true at the boundary (a silo batch
// released ahead of its on-air completion would reach the external decoder
// early) and counts any violation as a pacing overrun.
//
// Backpressure in (fd -> sim): the serial TX FIFO cap (max_backlog) is
// enforced by reading at most tx_room() bytes from the fd and dropping
// POLLIN interest while the FIFO is full. A mid-frame drop would desync the
// external KISS decoder; an unread socket/PTY buffer just blocks the peer.
//
// Frontends: PtyBridge (posix_openpt; `kissattach $(pty) radio` works as-is)
// and TcpKissListener (one client at a time; reattach re-enters KISS mode so
// a client that sent the 0xFF "return" on exit doesn't brick the port).
#ifndef SRC_BRIDGE_BRIDGE_H_
#define SRC_BRIDGE_BRIDGE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "src/radio/channel.h"
#include "src/serial/serial_line.h"
#include "src/sim/realtime.h"
#include "src/sim/simulator.h"
#include "src/tnc/kiss_tnc.h"
#include "src/util/byte_buffer.h"

namespace upr {
namespace bridge {

// Reconstructs the far-end transmit clock for a delivered chunk stream and
// assigns each chunk a release time at the trailing edge of its last byte.
// Deliveries that arrive at (or after) their edge release immediately;
// deliveries ahead of it — the silo-batch hazard — are held to the edge and
// counted. Tolerates sub-byte rounding jitter (cumulative-vs-per-chunk
// rounding differs by nanoseconds, not byte times).
class EdgePacer {
 public:
  explicit EdgePacer(SimTime byte_time) : byte_time_(byte_time) {}

  // Chunk of `nbytes` delivered at sim time `now`; returns the earliest sim
  // time it may be written to the fd (>= now when deferred).
  SimTime Admit(SimTime now, std::uint64_t nbytes);

  std::uint64_t overruns() const { return overruns_; }
  SimTime edge() const { return edge_; }

 private:
  SimTime byte_time_;
  SimTime edge_ = 0;  // trailing edge of the last admitted byte
  std::uint64_t overruns_ = 0;
};

struct BridgeStats {
  std::uint64_t bytes_in = 0;      // fd -> serial FIFO
  std::uint64_t bytes_out = 0;     // serial delivery -> fd
  std::uint64_t reads_paused = 0;  // POLLIN dropped: FIFO at max_backlog
  std::uint64_t pacing_overruns = 0;  // chunks held to their byte edge
  std::uint64_t attaches = 0;
  std::uint64_t disconnects = 0;  // EOF/error detaches (TCP client went away)
  std::uint64_t write_errors = 0;
};

struct BridgePortConfig {
  std::string name = "ext0";
  SerialLineConfig serial;  // max_backlog 0 is promoted to a real cap: the
                            // backpressure contract needs a finite FIFO
  TncConfig tnc;
  std::uint64_t seed = 77;
};

class BridgePort {
 public:
  BridgePort(RealtimeExecutor* exec, RadioChannel* channel,
             BridgePortConfig config);
  ~BridgePort();
  BridgePort(const BridgePort&) = delete;
  BridgePort& operator=(const BridgePort&) = delete;

  // Splices `fd` (made non-blocking) to the port's host-side serial
  // endpoint, replacing any previous attachment. Re-enters KISS mode and
  // resyncs framing, so a reattach after a client exit (which may have sent
  // the KISS 0xFF return command) gets a working port.
  void AttachFd(int fd, bool close_on_detach);
  void DetachFd();
  bool attached() const { return fd_ >= 0; }

  const std::string& name() const { return config_.name; }
  SerialLine& line() { return *line_; }
  KissTnc& tnc() { return *tnc_; }
  const KissTnc& tnc() const { return *tnc_; }
  const BridgeStats& stats() const { return stats_; }
  std::uint64_t pacing_overruns() const { return pacer_.overruns(); }

 private:
  void OnFdReady(short revents);
  void ReadFromFd();
  // Serial delivery (host side) at its sim time; paced out to the fd.
  void OnSerialChunk(const std::uint8_t* data, std::size_t len);
  // Moves every paced chunk whose release time has arrived into out_buf_
  // and writes as much as the fd accepts.
  void ReleaseDue();
  void FlushToFd();
  void ArmRelease();
  // prepare hook: POLLIN iff FIFO room, POLLOUT iff bytes queued on the fd.
  void UpdateInterest();
  std::uint64_t TxRoom() const;

  RealtimeExecutor* exec_;
  BridgePortConfig config_;
  std::unique_ptr<SerialLine> line_;
  std::unique_ptr<KissTnc> tnc_;
  EdgePacer pacer_;
  int fd_ = -1;
  bool close_on_detach_ = false;
  bool reads_on_ = true;
  std::deque<std::pair<SimTime, Bytes>> paced_;  // release time, bytes
  Bytes out_buf_;         // released but not yet accepted by the fd
  std::size_t out_off_ = 0;
  std::uint64_t release_event_ = 0;
  bool release_armed_ = false;
  std::uint64_t hook_id_ = 0;
  BridgeStats stats_;
};

// PTY frontend: opens a pseudo-terminal master, keeps a holder fd on the
// slave (so the master never reports POLLHUP between client sessions), puts
// the pair in raw mode and attaches the master to the port. The slave path
// (e.g. /dev/pts/3) is what kissattach/pattyd open.
class PtyBridge {
 public:
  PtyBridge(RealtimeExecutor* exec, BridgePort* port);
  ~PtyBridge();
  PtyBridge(const PtyBridge&) = delete;
  PtyBridge& operator=(const PtyBridge&) = delete;

  bool ok() const { return master_fd_ >= 0; }
  const std::string& slave_path() const { return slave_path_; }

 private:
  BridgePort* port_;
  int master_fd_ = -1;
  int holder_fd_ = -1;
  std::string slave_path_;
};

// TCP frontend: listens on 127.0.0.1:`port` (0 picks an ephemeral port) and
// splices one accepted client at a time into the bridge port; the raw byte
// stream is KISS, as a serial TNC would carry. A second connection while one
// is active is accepted and immediately closed. When the client disconnects
// the listener resumes accepting.
class TcpKissListener {
 public:
  TcpKissListener(RealtimeExecutor* exec, BridgePort* port,
                  std::uint16_t tcp_port);
  ~TcpKissListener();
  TcpKissListener(const TcpKissListener&) = delete;
  TcpKissListener& operator=(const TcpKissListener&) = delete;

  bool ok() const { return listen_fd_ >= 0; }
  std::uint16_t port() const { return bound_port_; }
  std::uint64_t accepts() const { return accepts_; }

 private:
  void OnReady(short revents);

  RealtimeExecutor* exec_;
  BridgePort* port_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::uint64_t accepts_ = 0;
};

// Operator-facing counters for --netstat (kept here so the scenario library
// doesn't grow a bridge dependency).
std::string FormatBridge(const BridgePort& port);

}  // namespace bridge
}  // namespace upr

#endif  // SRC_BRIDGE_BRIDGE_H_
