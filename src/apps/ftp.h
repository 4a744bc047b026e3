// File transfer over the gateway — the third §2.3 service ("we have used the
// gateway for file transfer ... in both directions").
//
// Simplification versus RFC 959: one connection carries both the control
// dialog and the data, with an exact byte count announced before each
// transfer ("150 <n>"), instead of a second data connection. The era's
// packet-radio FTP usage was single-stream in practice, and a second TCP
// connection across a 1200 bps half-duplex link only adds handshake traffic.
#ifndef SRC_APPS_FTP_H_
#define SRC_APPS_FTP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/line_codec.h"
#include "src/tcp/tcp.h"

namespace upr {

inline constexpr std::uint16_t kFtpPort = 21;

// Server-side file store.
class FileStore {
 public:
  void Put(const std::string& name, Bytes data) { files_[name] = std::move(data); }
  const Bytes* Get(const std::string& name) const {
    auto it = files_.find(name);
    return it == files_.end() ? nullptr : &it->second;
  }
  std::vector<std::string> List() const;
  std::size_t size() const { return files_.size(); }

 private:
  std::map<std::string, Bytes> files_;
};

class MiniFtpServer {
 public:
  MiniFtpServer(Tcp* tcp, std::string hostname, std::uint16_t port = kFtpPort);

  FileStore& store() { return store_; }
  std::uint64_t transfers_completed() const { return transfers_; }

 private:
  enum class Mode { kCommand, kReceivingData };
  struct Session {
    TcpConnection* conn;
    std::unique_ptr<LineBuffer> lines;
    Mode mode = Mode::kCommand;
    std::string upload_name;
    std::size_t upload_remaining = 0;
    Bytes upload_data;
  };

  void OnAccept(TcpConnection* conn);
  void OnLine(Session* s, const std::string& line);
  void OnRaw(Session* s, const Bytes& data);

  Tcp* tcp_;
  std::string hostname_;
  FileStore store_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::uint64_t transfers_ = 0;
};

class MiniFtpClient {
 public:
  using GetHandler = std::function<void(bool success, const Bytes& data)>;
  using DoneHandler = std::function<void(bool success)>;
  using ListHandler = std::function<void(const std::vector<std::string>&)>;

  explicit MiniFtpClient(Tcp* tcp) : tcp_(tcp) {}

  bool Connect(IpV4Address server, DoneHandler on_ready,
               std::uint16_t port = kFtpPort);
  void Put(const std::string& name, const Bytes& data, DoneHandler done);
  void Get(const std::string& name, GetHandler done);
  void List(ListHandler done);
  void Quit();
  const TcpConnection* connection() const { return conn_; }

 private:
  enum class Mode { kIdle, kAwaitPutAck, kAwaitGetHeader, kReceiving, kListing };

  void OnData(const Bytes& data);
  void OnLine(const std::string& line);

  Tcp* tcp_;
  TcpConnection* conn_ = nullptr;
  std::unique_ptr<LineBuffer> lines_;
  Mode mode_ = Mode::kIdle;
  bool ready_ = false;
  DoneHandler on_ready_;
  DoneHandler put_done_;
  GetHandler get_done_;
  ListHandler list_done_;
  std::vector<std::string> list_lines_;
  Bytes receive_buffer_;
  std::size_t receive_remaining_ = 0;
};

}  // namespace upr

#endif  // SRC_APPS_FTP_H_
