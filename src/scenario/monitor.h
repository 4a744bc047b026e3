// Channel monitor: a receive-only station that decodes every frame heard on
// a radio channel into human-readable trace lines — the simulated equivalent
// of leaving a TNC in monitor mode next to the gateway. Used by examples for
// narration and by tests/benches to assert on traffic without touching the
// stations under test.
#ifndef SRC_SCENARIO_MONITOR_H_
#define SRC_SCENARIO_MONITOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/ax25/frame.h"
#include "src/radio/channel.h"
#include "src/sim/simulator.h"

namespace upr {

struct MonitorCounters {
  std::uint64_t frames = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t ui_ip = 0;
  std::uint64_t ui_arp = 0;
  std::uint64_t ui_netrom = 0;
  std::uint64_t ui_other = 0;
  std::uint64_t connected_mode = 0;  // SABM/I/RR/...
  std::uint64_t bytes_on_air = 0;
};

class ChannelMonitor {
 public:
  // Each decoded frame produces one line, e.g.
  //   "12.34 KD7AA>N7AKR-1 UI PID=cc len=84 (IP 44.24.0.10 > 128.95.1.4 ...)".
  using LineHandler = std::function<void(const std::string&)>;

  ChannelMonitor(Simulator* sim, RadioChannel* channel,
                 LineHandler on_line = nullptr, std::size_t keep_lines = 256);

  const MonitorCounters& counters() const { return counters_; }
  // The most recent `keep_lines` trace lines.
  const std::vector<std::string>& lines() const { return lines_; }
  // True if any retained line contains `needle`.
  bool Saw(const std::string& needle) const;

 private:
  void OnFrame(const Bytes& wire, bool corrupted);
  std::string DescribePayload(const Ax25Frame& frame, ByteView info) const;

  Simulator* sim_;
  LineHandler on_line_;
  std::size_t keep_lines_;
  MonitorCounters counters_;
  std::vector<std::string> lines_;
};

}  // namespace upr

#endif  // SRC_SCENARIO_MONITOR_H_
