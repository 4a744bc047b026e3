// Electronic mail over the gateway (SMTP, RFC 821 subset) — the second
// service §2.3 reports using "in both directions".
#ifndef SRC_APPS_SMTP_H_
#define SRC_APPS_SMTP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/line_codec.h"
#include "src/tcp/tcp.h"

namespace upr {

inline constexpr std::uint16_t kSmtpPort = 25;

struct MailMessage {
  std::string from;
  std::vector<std::string> recipients;
  std::vector<std::string> body;
};

class MiniSmtpServer {
 public:
  MiniSmtpServer(Tcp* tcp, std::string hostname, std::uint16_t port = kSmtpPort);

  const std::vector<MailMessage>& mailbox() const { return mailbox_; }
  std::uint64_t messages_accepted() const { return mailbox_.size(); }
  std::uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  enum class State { kCommand, kData };
  struct Session {
    TcpConnection* conn;
    std::unique_ptr<LineBuffer> lines;
    State state = State::kCommand;
    bool greeted = false;
    MailMessage current;
  };

  void OnAccept(TcpConnection* conn);
  void OnLine(Session* s, const std::string& line);

  Tcp* tcp_;
  std::string hostname_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<MailMessage> mailbox_;
  std::uint64_t protocol_errors_ = 0;
};

// One-shot mail submission client.
class MiniSmtpClient {
 public:
  using DoneHandler = std::function<void(bool success, const std::string& detail)>;

  explicit MiniSmtpClient(Tcp* tcp) : tcp_(tcp) {}

  // Drives the whole HELO/MAIL/RCPT/DATA/QUIT dialog.
  bool Send(IpV4Address server, const MailMessage& message, DoneHandler done,
            std::uint16_t port = kSmtpPort);
  // The connection of the latest Send(), or nullptr before the first.
  const TcpConnection* connection() const {
    return transactions_.empty() ? nullptr : transactions_.back()->conn;
  }

 private:
  enum class Phase { kGreeting, kHelo, kMail, kRcpt, kData, kBody, kQuit, kDone };
  struct Transaction {
    TcpConnection* conn = nullptr;
    std::unique_ptr<LineBuffer> lines;
    MailMessage message;
    Phase phase = Phase::kGreeting;
    std::size_t next_rcpt = 0;
    DoneHandler done;
    bool finished = false;
  };

  void OnLine(Transaction* t, const std::string& line);
  void Finish(Transaction* t, bool success, const std::string& detail);

  Tcp* tcp_;
  std::vector<std::unique_ptr<Transaction>> transactions_;
};

}  // namespace upr

#endif  // SRC_APPS_SMTP_H_
