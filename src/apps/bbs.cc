#include "src/apps/bbs.h"

namespace upr {

std::unique_ptr<Ax25Link> BindAx25LinkToDriver(Simulator* sim,
                                               PacketRadioInterface* driver,
                                               Ax25LinkConfig config) {
  auto link = std::make_unique<Ax25Link>(
      sim, driver->local_ax25(),
      [driver](const Ax25Frame& f) { driver->SendRawFrame(f); }, config);
  Ax25Link* raw = link.get();
  driver->set_l3_tap(
      [raw](const Ax25Frame& f, ByteView wire) { raw->HandleDecoded(f, wire); });
  return link;
}

Ax25Bbs::Ax25Bbs(Ax25Link* link, std::string banner)
    : link_(link), banner_(std::move(banner)) {
  link_->set_accept_handler([](const Ax25Address&) { return true; });
  link_->set_connection_handler([this](Ax25Connection* c) { OnConnection(c); });
}

void Ax25Bbs::OnConnection(Ax25Connection* conn) {
  ++sessions_;
  auto session = std::make_unique<Session>();
  Session* raw = session.get();
  raw->conn = conn;
  raw->lines = std::make_unique<LineBuffer>(
      [this, raw](const std::string& line) { OnLine(raw, line); });
  conn->set_data_handler([raw](const Bytes& d) { raw->lines->Feed(d); });
  sessions_list_.push_back(std::move(session));
  conn->Send(Line(banner_));
  SendPrompt(raw);
}

void Ax25Bbs::SendPrompt(Session* s) {
  s->conn->Send(Line("CMD(L/R n/S call subj/B):"));
}

void Ax25Bbs::OnLine(Session* s, const std::string& line) {
  if (s->mode == Mode::kComposing) {
    if (line == "/EX") {
      messages_.push_back(s->draft);
      s->draft = BbsMessage{};
      s->mode = Mode::kCommand;
      s->conn->Send(Line("Message #" + std::to_string(messages_.size()) + " stored"));
      SendPrompt(s);
    } else {
      s->draft.body.push_back(line);
    }
    return;
  }
  if (s->mode == Mode::kForwardReceiving) {
    if (line == "/EX") {
      s->draft.forwarded = true;  // it reached the recipient's home: final
      messages_.push_back(s->draft);
      s->draft = BbsMessage{};
      s->mode = Mode::kCommand;
      ++forwarded_in_;
      s->conn->Send(Line("OK"));
    } else {
      s->draft.body.push_back(line);
    }
    return;
  }
  // A peer BBS opening a forwarding transfer: "FWD <from> <to> <subject...>".
  if (line.rfind("FWD ", 0) == 0) {
    std::string rest = line.substr(4);
    auto sp1 = rest.find(' ');
    auto sp2 = sp1 == std::string::npos ? std::string::npos : rest.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) {
      s->conn->Send(Line("NO bad FWD header"));
      return;
    }
    s->draft = BbsMessage{};
    s->draft.from = rest.substr(0, sp1);
    s->draft.to = rest.substr(sp1 + 1, sp2 - sp1 - 1);
    s->draft.subject = rest.substr(sp2 + 1);
    s->mode = Mode::kForwardReceiving;
    return;
  }
  ++commands_;
  if (line.empty()) {
    SendPrompt(s);
    return;
  }
  char cmd = line[0];
  if (cmd == 'L') {
    if (messages_.empty()) {
      s->conn->Send(Line("No messages"));
    }
    for (std::size_t i = 0; i < messages_.size(); ++i) {
      // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict for
      // `"#" + std::string`.
      std::string entry = "#";
      entry += std::to_string(i + 1);
      entry += ' ';
      entry += messages_[i].from;
      entry += ": ";
      entry += messages_[i].subject;
      s->conn->Send(Line(entry));
    }
    SendPrompt(s);
  } else if (cmd == 'R') {
    std::size_t n = line.size() > 2
                        ? static_cast<std::size_t>(std::atoi(line.c_str() + 2))
                        : 0;
    if (n == 0 || n > messages_.size()) {
      s->conn->Send(Line("No such message"));
    } else {
      const BbsMessage& m = messages_[n - 1];
      s->conn->Send(Line("From: " + m.from));
      s->conn->Send(Line("Subj: " + m.subject));
      for (const auto& body_line : m.body) {
        s->conn->Send(Line(body_line));
      }
    }
    SendPrompt(s);
  } else if (cmd == 'S') {
    // "S <callsign> <subject...>"
    auto first_space = line.find(' ');
    auto second_space = first_space == std::string::npos
                            ? std::string::npos
                            : line.find(' ', first_space + 1);
    if (second_space == std::string::npos) {
      s->conn->Send(Line("Usage: S <call> <subject>"));
      SendPrompt(s);
      return;
    }
    s->draft.from = s->conn->peer().ToString();
    s->draft.to = line.substr(first_space + 1, second_space - first_space - 1);
    s->draft.subject = line.substr(second_space + 1);
    s->mode = Mode::kComposing;
    s->conn->Send(Line("Enter message, /EX to end"));
  } else if (cmd == 'B') {
    s->conn->Send(Line("73!"));
    s->conn->Disconnect();
  } else {
    s->conn->Send(Line("?"));
    SendPrompt(s);
  }
}

void Ax25Bbs::SetUserHome(const std::string& user, const Ax25Address& home_bbs) {
  user_homes_[user] = home_bbs;
}

void Ax25Bbs::StartForwarding(SimTime interval, std::vector<Ax25Digipeater> digis) {
  forward_digis_ = std::move(digis);
  forward_timer_ = std::make_unique<Timer>(link_->sim(), [this, interval] {
    ForwardPending();
    forward_timer_->Restart(interval);
  });
  forward_timer_->Restart(interval);
}

void Ax25Bbs::ForwardPending() {
  // Group unforwarded messages by the recipient's home BBS.
  std::map<Ax25Address, std::vector<std::size_t>> by_bbs;
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const BbsMessage& m = messages_[i];
    if (m.forwarded || m.to.empty()) {
      continue;
    }
    auto home = user_homes_.find(m.to);
    if (home == user_homes_.end() || home->second == link_->local_address()) {
      continue;  // local (or unknown) recipients stay here
    }
    by_bbs[home->second].push_back(i);
  }
  for (auto& [bbs, indices] : by_bbs) {
    StartForwardSession(bbs, std::move(indices));
  }
}

void Ax25Bbs::StartForwardSession(const Ax25Address& peer_bbs,
                                  std::vector<std::size_t> indices) {
  // One outstanding session per peer at a time.
  for (const auto& fs : forward_sessions_) {
    if (fs->conn != nullptr && fs->conn->peer() == peer_bbs &&
        fs->conn->state() != Ax25Connection::State::kDisconnected) {
      return;
    }
  }
  auto session = std::make_unique<ForwardSession>();
  ForwardSession* fs = session.get();
  fs->message_indices = std::move(indices);
  fs->conn = link_->Connect(peer_bbs, forward_digis_);
  fs->lines = std::make_unique<LineBuffer>([this, fs](const std::string& line) {
    if (line.rfind("OK", 0) != 0) {
      return;  // banner / prompt chatter from the remote BBS
    }
    if (!fs->message_indices.empty()) {
      std::size_t idx = fs->message_indices.front();
      fs->message_indices.erase(fs->message_indices.begin());
      messages_[idx].forwarded = true;
      ++forwarded_out_;
    }
    if (fs->message_indices.empty()) {
      fs->conn->Disconnect();
    }
  });
  fs->conn->set_data_handler([fs](const Bytes& d) { fs->lines->Feed(d); });
  fs->conn->set_connected_handler([this, fs] {
    for (std::size_t idx : fs->message_indices) {
      const BbsMessage& m = messages_[idx];
      fs->conn->Send(Line("FWD " + m.from + " " + m.to + " " + m.subject));
      for (const auto& body_line : m.body) {
        fs->conn->Send(Line(body_line));
      }
      fs->conn->Send(Line("/EX"));
    }
  });
  forward_sessions_.push_back(std::move(session));
}

BbsTerminal::BbsTerminal(Ax25Link* link, Ax25Address bbs,
                         std::vector<Ax25Digipeater> digis) {
  conn_ = link->Connect(bbs, std::move(digis));
  lines_ = std::make_unique<LineBuffer>([this](const std::string& line) {
    transcript_.push_back(line);
    if (on_line_) {
      on_line_(line);
    }
  });
  conn_->set_data_handler([this](const Bytes& d) { lines_->Feed(d); });
}

void BbsTerminal::SendLine(const std::string& line) { conn_->Send(Line(line)); }

void BbsTerminal::Disconnect() { conn_->Disconnect(); }

bool BbsTerminal::connected() const {
  return conn_->state() == Ax25Connection::State::kConnected;
}

}  // namespace upr
