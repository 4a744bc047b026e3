// Remote login over our TCP — the first of the three services the paper ran
// across the gateway ("we were able to telnet from an isolated IBM PC to a
// system that was on our Ethernet by way of the new gateway", §2.3).
//
// A deliberately small subset: no option negotiation (the PC clients of the
// era mostly ran NVT-ASCII anyway), a login prompt, and a shell offering a
// few commands. Enough to generate realistic interactive traffic patterns.
#ifndef SRC_APPS_TELNET_H_
#define SRC_APPS_TELNET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/line_codec.h"
#include "src/tcp/tcp.h"

namespace upr {

inline constexpr std::uint16_t kTelnetPort = 23;

class TelnetServer {
 public:
  TelnetServer(Tcp* tcp, std::string hostname, std::uint16_t port = kTelnetPort);

  std::uint64_t sessions_started() const { return sessions_; }
  std::uint64_t logins() const { return logins_; }
  std::uint64_t commands_executed() const { return commands_; }

 private:
  struct Session {
    TcpConnection* conn;
    std::unique_ptr<LineBuffer> lines;
    bool logged_in = false;
    std::string user;
  };

  void OnAccept(TcpConnection* conn);
  void OnLine(Session* session, const std::string& line);

  Tcp* tcp_;
  std::string hostname_;
  std::vector<std::unique_ptr<Session>> sessions_list_;
  std::uint64_t sessions_ = 0;
  std::uint64_t logins_ = 0;
  std::uint64_t commands_ = 0;
};

// Scripted client: connect, log in, run commands, collect output.
class TelnetClient {
 public:
  explicit TelnetClient(Tcp* tcp) : tcp_(tcp) {}

  using LineHandler = std::function<void(const std::string&)>;
  using EventHandler = std::function<void()>;

  // Starts the session; `username` is sent at the login prompt.
  bool Connect(IpV4Address server, std::string username,
               std::uint16_t port = kTelnetPort);
  void SendCommand(const std::string& command);
  void Quit();

  void set_line_handler(LineHandler h) { on_line_ = std::move(h); }
  void set_closed_handler(EventHandler h) { on_closed_ = std::move(h); }
  const std::vector<std::string>& transcript() const { return transcript_; }
  bool connected() const;
  const TcpConnection* connection() const { return conn_; }

 private:
  Tcp* tcp_;
  TcpConnection* conn_ = nullptr;
  std::unique_ptr<LineBuffer> lines_;
  std::string username_;
  bool sent_username_ = false;
  std::vector<std::string> transcript_;
  LineHandler on_line_;
  EventHandler on_closed_;
};

}  // namespace upr

#endif  // SRC_APPS_TELNET_H_
