#include "src/tcp/tcp.h"

#include <algorithm>
#include <cstdio>

#include "src/util/crc.h"
#include "src/util/logging.h"

namespace upr {

namespace {

constexpr const char* kTag = "tcp";

std::uint32_t PseudoHeaderSum(IpV4Address src, IpV4Address dst, std::size_t tcp_len) {
  std::uint32_t sum = 0;
  sum += src.value() >> 16;
  sum += src.value() & 0xFFFF;
  sum += dst.value() >> 16;
  sum += dst.value() & 0xFFFF;
  sum += kIpProtoTcp;
  sum += static_cast<std::uint32_t>(tcp_len);
  return sum;
}

}  // namespace

// --- Codec -------------------------------------------------------------------

void TcpSegment::EncodeTo(PacketBuf* pb, IpV4Address src, IpV4Address dst) const {
  BufLayerScope scope(BufLayer::kTransport);
  std::size_t header_words = 5 + (mss_option ? 1 : 0);
  std::size_t hlen = header_words * 4;
  std::uint8_t* h = pb->Prepend(hlen);
  h[0] = static_cast<std::uint8_t>(source_port >> 8);
  h[1] = static_cast<std::uint8_t>(source_port);
  h[2] = static_cast<std::uint8_t>(destination_port >> 8);
  h[3] = static_cast<std::uint8_t>(destination_port);
  h[4] = static_cast<std::uint8_t>(seq >> 24);
  h[5] = static_cast<std::uint8_t>(seq >> 16);
  h[6] = static_cast<std::uint8_t>(seq >> 8);
  h[7] = static_cast<std::uint8_t>(seq);
  h[8] = static_cast<std::uint8_t>(ack >> 24);
  h[9] = static_cast<std::uint8_t>(ack >> 16);
  h[10] = static_cast<std::uint8_t>(ack >> 8);
  h[11] = static_cast<std::uint8_t>(ack);
  std::uint8_t flag_bits = static_cast<std::uint8_t>(
      (flags.fin ? 0x01 : 0) | (flags.syn ? 0x02 : 0) | (flags.rst ? 0x04 : 0) |
      (flags.psh ? 0x08 : 0) | (flags.ack ? 0x10 : 0) | (flags.urg ? 0x20 : 0));
  h[12] = static_cast<std::uint8_t>(header_words << 4);
  h[13] = flag_bits;
  h[14] = static_cast<std::uint8_t>(window >> 8);
  h[15] = static_cast<std::uint8_t>(window);
  h[16] = 0;  // checksum placeholder
  h[17] = 0;
  h[18] = 0;  // urgent pointer
  h[19] = 0;
  if (mss_option) {
    h[20] = 2;  // kind: MSS
    h[21] = 4;
    h[22] = static_cast<std::uint8_t>(*mss_option >> 8);
    h[23] = static_cast<std::uint8_t>(*mss_option);
  }
  std::uint16_t sum =
      ChecksumFinish(ChecksumPartial(pb->data(), pb->size(),
                                     PseudoHeaderSum(src, dst, pb->size())));
  h[16] = static_cast<std::uint8_t>(sum >> 8);
  h[17] = static_cast<std::uint8_t>(sum & 0xFF);
}

Bytes TcpSegment::Encode(IpV4Address src, IpV4Address dst) const {
  std::size_t hlen = (5 + (mss_option ? 1 : 0)) * 4;
  PacketBuf pb = PacketBuf::FromView(payload, hlen);
  EncodeTo(&pb, src, dst);
  return pb.Release();
}

std::optional<TcpSegment> TcpSegment::Decode(ByteView wire, IpV4Address src,
                                             IpV4Address dst) {
  if (wire.size() < 20) {
    return std::nullopt;
  }
  if (ChecksumFinish(ChecksumPartial(wire.data(), wire.size(),
                                     PseudoHeaderSum(src, dst, wire.size()))) != 0) {
    return std::nullopt;
  }
  ByteReader r(wire.data(), wire.size());
  TcpSegment s;
  s.source_port = r.ReadU16();
  s.destination_port = r.ReadU16();
  s.seq = r.ReadU32();
  s.ack = r.ReadU32();
  std::uint8_t offset_byte = r.ReadU8();
  std::size_t header_len = static_cast<std::size_t>(offset_byte >> 4) * 4;
  if (header_len < 20 || header_len > wire.size()) {
    return std::nullopt;
  }
  std::uint8_t flag_bits = r.ReadU8();
  s.flags.fin = flag_bits & 0x01;
  s.flags.syn = flag_bits & 0x02;
  s.flags.rst = flag_bits & 0x04;
  s.flags.psh = flag_bits & 0x08;
  s.flags.ack = flag_bits & 0x10;
  s.flags.urg = flag_bits & 0x20;
  s.window = r.ReadU16();
  r.Skip(4);  // checksum + urgent
  // Parse options.
  std::size_t opt_len = header_len - 20;
  Bytes opts = r.ReadBytes(opt_len);
  for (std::size_t i = 0; i < opts.size();) {
    std::uint8_t kind = opts[i];
    if (kind == 0) {
      break;  // end of options
    }
    if (kind == 1) {
      ++i;  // NOP
      continue;
    }
    if (i + 1 >= opts.size()) {
      break;
    }
    std::uint8_t len = opts[i + 1];
    if (len < 2 || i + len > opts.size()) {
      break;
    }
    if (kind == 2 && len == 4) {
      s.mss_option = static_cast<std::uint16_t>(opts[i + 2] << 8 | opts[i + 3]);
    }
    i += len;
  }
  {
    BufLayerScope scope(BufLayer::kTransport);
    if (wire.size() > header_len) {
      BufNoteAlloc();
      BufNoteCopy(wire.size() - header_len);
    }
  }
  s.payload.assign(wire.begin() + static_cast<std::ptrdiff_t>(header_len), wire.end());
  if (!r.ok()) {
    return std::nullopt;
  }
  return s;
}

std::string TcpSegment::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%u>%u seq=%u ack=%u%s%s%s%s%s win=%u len=%zu",
                source_port, destination_port, seq, ack, flags.syn ? " SYN" : "",
                flags.ack ? " ACK" : "", flags.fin ? " FIN" : "", flags.rst ? " RST" : "",
                flags.psh ? " PSH" : "", window, payload.size());
  return buf;
}

// --- RTO estimator ------------------------------------------------------------

RtoEstimator::RtoEstimator(const TcpConfig& config)
    : config_(config), srtt_(config.initial_rtt), rttvar_(config.initial_rtt / 2) {}

void RtoEstimator::Sample(SimTime rtt) {
  ++samples_;
  switch (config_.rto_algorithm) {
    case RtoAlgorithm::kFixed:
      return;
    case RtoAlgorithm::kRfc793:
      // SRTT = ALPHA*SRTT + (1-ALPHA)*RTT with ALPHA = 0.9.
      srtt_ = static_cast<SimTime>(0.9 * static_cast<double>(srtt_) +
                                   0.1 * static_cast<double>(rtt));
      return;
    case RtoAlgorithm::kJacobson:
      if (samples_ == 1) {
        srtt_ = rtt;
        rttvar_ = rtt / 2;
      } else {
        SimTime err = rtt - srtt_;
        srtt_ += err / 8;
        SimTime abserr = err < 0 ? -err : err;
        rttvar_ += (abserr - rttvar_) / 4;
      }
      return;
  }
}

SimTime RtoEstimator::Timeout() const {
  SimTime rto;
  switch (config_.rto_algorithm) {
    case RtoAlgorithm::kFixed:
      return config_.fixed_rto;
    case RtoAlgorithm::kRfc793:
      rto = 2 * srtt_;  // BETA = 2
      break;
    case RtoAlgorithm::kJacobson:
      rto = srtt_ + 4 * rttvar_;
      break;
    default:
      rto = config_.fixed_rto;
      break;
  }
  return std::clamp(rto, config_.min_rto, config_.max_rto);
}

SimTime RtoEstimator::BackedOff(int backoffs) const {
  SimTime rto = Timeout();
  if (!config_.exponential_backoff) {
    return rto;
  }
  for (int i = 0; i < backoffs && rto < config_.max_rto; ++i) {
    rto *= 2;
  }
  return std::min(rto, config_.max_rto);
}

// --- State names ----------------------------------------------------------------

const char* TcpStateName(TcpState s) {
  switch (s) {
    case TcpState::kClosed:
      return "CLOSED";
    case TcpState::kListen:
      return "LISTEN";
    case TcpState::kSynSent:
      return "SYN_SENT";
    case TcpState::kSynReceived:
      return "SYN_RCVD";
    case TcpState::kEstablished:
      return "ESTABLISHED";
    case TcpState::kFinWait1:
      return "FIN_WAIT_1";
    case TcpState::kFinWait2:
      return "FIN_WAIT_2";
    case TcpState::kCloseWait:
      return "CLOSE_WAIT";
    case TcpState::kClosing:
      return "CLOSING";
    case TcpState::kLastAck:
      return "LAST_ACK";
    case TcpState::kTimeWait:
      return "TIME_WAIT";
  }
  return "?";
}

// --- TcpConnection ----------------------------------------------------------------

TcpConnection::TcpConnection(Tcp* tcp, TcpConfig config)
    : tcp_(tcp), config_(config), rto_(config) {
  advertised_window_ = config_.receive_window;
  rtx_timer_ = std::make_unique<Timer>(tcp->sim(), [this] { OnRetransmitTimeout(); });
  persist_timer_ = std::make_unique<Timer>(tcp->sim(), [this] { OnPersistTimeout(); });
  delack_timer_ = std::make_unique<Timer>(tcp->sim(), [this] { SendAck(); });
  misc_timer_ = std::make_unique<Timer>(tcp->sim(), [this] {
    if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived) {
      Terminate("connection timed out", true);
    } else if (state_ == TcpState::kTimeWait) {
      Terminate("", false);
    }
  });
  cwnd_ = config_.mss;
}

void TcpConnection::StartConnect(IpV4Address dst, std::uint16_t dport,
                                 std::uint16_t sport, IpV4Address src) {
  local_ip_ = src;
  remote_ip_ = dst;
  local_port_ = sport;
  remote_port_ = dport;
  std::uint32_t iss = tcp_->NextIss();
  snd_una_ = iss;
  snd_nxt_ = iss + 1;
  snd_wnd_ = config_.mss;  // until the peer tells us
  state_ = TcpState::kSynSent;
  InFlight syn;
  syn.seq = iss;
  syn.syn = true;
  in_flight_.push_back(std::move(syn));
  TransmitSegment(&in_flight_.back(), false);
  RestartRetransmitTimer();
  misc_timer_->Restart(config_.connect_timeout);
}

void TcpConnection::StartAccept(IpV4Address local, std::uint16_t lport,
                                IpV4Address remote, std::uint16_t rport,
                                const TcpSegment& syn) {
  local_ip_ = local;
  remote_ip_ = remote;
  local_port_ = lport;
  remote_port_ = rport;
  rcv_nxt_ = syn.seq + 1;
  peer_mss_ = syn.mss_option.value_or(536);
  snd_wnd_ = syn.window;
  std::uint32_t iss = tcp_->NextIss();
  snd_una_ = iss;
  snd_nxt_ = iss + 1;
  state_ = TcpState::kSynReceived;
  InFlight synack;
  synack.seq = iss;
  synack.syn = true;
  in_flight_.push_back(std::move(synack));
  TransmitSegment(&in_flight_.back(), false);
  RestartRetransmitTimer();
  misc_timer_->Restart(config_.connect_timeout);
}

std::size_t TcpConnection::Send(const Bytes& data) {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kSynSent && state_ != TcpState::kSynReceived) {
    return 0;
  }
  if (fin_requested_) {
    return 0;
  }
  std::size_t room = config_.send_buffer_limit > send_buffer_.size()
                         ? config_.send_buffer_limit - send_buffer_.size()
                         : 0;
  std::size_t n = std::min(room, data.size());
  send_buffer_.insert(send_buffer_.end(), data.begin(),
                      data.begin() + static_cast<std::ptrdiff_t>(n));
  PumpOutput();
  return n;
}

void TcpConnection::Close() {
  if (fin_requested_ || state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) {
    return;
  }
  fin_requested_ = true;
  PumpOutput();
}

void TcpConnection::Abort() {
  if (state_ == TcpState::kClosed) {
    return;
  }
  TcpSegment rst;
  rst.source_port = local_port_;
  rst.destination_port = remote_port_;
  rst.seq = snd_nxt_;
  rst.ack = rcv_nxt_;
  rst.flags.rst = true;
  rst.flags.ack = true;
  rst.window = 0;
  tcp_->SendSegment(rst, local_ip_, remote_ip_);
  Terminate("aborted", false);
}

void TcpConnection::PumpOutput() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;
  }
  std::size_t flight = static_cast<std::size_t>(snd_nxt_ - snd_una_);
  std::size_t window = snd_wnd_;
  if (config_.slow_start) {
    window = std::min<std::size_t>(window, cwnd_);
  }
  // Zero-window deadlock avoidance: with data pending, nothing in flight and
  // the peer's window shut, arm the persist timer to probe.
  if (snd_wnd_ == 0 && !send_buffer_.empty() && in_flight_.empty() &&
      !persist_timer_->running()) {
    persist_timer_->Restart(rto_.BackedOff(persist_backoffs_));
  }
  while (!send_buffer_.empty() && flight < window) {
    std::size_t n = std::min<std::size_t>(
        {static_cast<std::size_t>(std::min<std::uint16_t>(config_.mss, peer_mss_)),
         send_buffer_.size(), window - flight});
    if (n == 0) {
      break;
    }
    InFlight item;
    item.seq = snd_nxt_;
    item.data.assign(send_buffer_.begin(),
                     send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    snd_nxt_ += static_cast<std::uint32_t>(n);
    flight += n;
    in_flight_.push_back(std::move(item));
    TransmitSegment(&in_flight_.back(), false);
  }
  if (fin_requested_ && !fin_enqueued_ && send_buffer_.empty()) {
    EnqueueFin();
  }
  if (!in_flight_.empty() && !rtx_timer_->running()) {
    RestartRetransmitTimer();
  }
}

void TcpConnection::EnqueueFin() {
  fin_enqueued_ = true;
  InFlight fin;
  fin.seq = snd_nxt_;
  fin.fin = true;
  snd_nxt_ += 1;
  in_flight_.push_back(std::move(fin));
  if (state_ == TcpState::kEstablished) {
    state_ = TcpState::kFinWait1;
  } else if (state_ == TcpState::kCloseWait) {
    state_ = TcpState::kLastAck;
  }
  TransmitSegment(&in_flight_.back(), false);
  RestartRetransmitTimer();
}

void TcpConnection::TransmitSegment(InFlight* item, bool retransmission) {
  TcpSegment seg;
  seg.source_port = local_port_;
  seg.destination_port = remote_port_;
  seg.seq = item->seq;
  seg.flags.syn = item->syn;
  seg.flags.fin = item->fin;
  if (state_ != TcpState::kSynSent) {
    seg.flags.ack = true;
    seg.ack = rcv_nxt_;
    unacked_in_order_ = 0;
    delack_timer_->Stop();
  }
  if (item->syn) {
    seg.mss_option = config_.mss;
  }
  if (!item->data.empty()) {
    seg.flags.psh = true;
    seg.payload = item->data;
  }
  seg.window = advertised_window_;
  SimTime now = tcp_->sim()->Now();
  if (item->transmissions == 0) {
    item->first_sent = now;
  } else {
    item->retransmitted = true;
  }
  item->last_sent = now;
  ++item->transmissions;
  ++stats_.segments_sent;
  stats_.bytes_sent += item->data.size();
  if (retransmission) {
    ++stats_.retransmissions;
  }
  tcp_->SendSegment(seg, local_ip_, remote_ip_);
}

void TcpConnection::SendControl(TcpFlags flags, std::uint32_t seq, bool with_ack) {
  TcpSegment seg;
  seg.source_port = local_port_;
  seg.destination_port = remote_port_;
  seg.seq = seq;
  seg.flags = flags;
  if (with_ack) {
    seg.flags.ack = true;
    seg.ack = rcv_nxt_;
  }
  seg.window = advertised_window_;
  ++stats_.segments_sent;
  tcp_->SendSegment(seg, local_ip_, remote_ip_);
}

void TcpConnection::SendAck() {
  unacked_in_order_ = 0;
  delack_timer_->Stop();
  SendControl(TcpFlags{}, snd_nxt_, true);
}

void TcpConnection::AckIncoming(bool force_immediate) {
  if (force_immediate || !config_.delayed_ack) {
    SendAck();
    return;
  }
  if (++unacked_in_order_ >= 2) {
    SendAck();
    return;
  }
  if (!delack_timer_->running()) {
    delack_timer_->Restart(config_.delayed_ack_timeout);
  }
}

void TcpConnection::RestartRetransmitTimer() {
  if (in_flight_.empty()) {
    rtx_timer_->Stop();
    return;
  }
  rtx_timer_->Restart(rto_.BackedOff(backoffs_));
}

void TcpConnection::OnPersistTimeout() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;
  }
  if (snd_wnd_ > 0 || send_buffer_.empty()) {
    persist_backoffs_ = 0;
    PumpOutput();
    return;
  }
  if (in_flight_.empty()) {
    // Window probe: one byte beyond the advertised window (RFC 1122
    // 4.2.2.17). The ACK it provokes carries the peer's current window.
    InFlight probe;
    probe.seq = snd_nxt_;
    probe.data.assign(send_buffer_.begin(), send_buffer_.begin() + 1);
    send_buffer_.erase(send_buffer_.begin());
    snd_nxt_ += 1;
    in_flight_.push_back(std::move(probe));
    TransmitSegment(&in_flight_.back(), false);
    RestartRetransmitTimer();
  }
  if (persist_backoffs_ < 12) {
    ++persist_backoffs_;
  }
  persist_timer_->Restart(rto_.BackedOff(persist_backoffs_));
}

void TcpConnection::OnRetransmitTimeout() {
  if (in_flight_.empty()) {
    return;
  }
  InFlight& head = in_flight_.front();
  if (head.transmissions > config_.max_retries) {
    Terminate("retransmission limit exceeded", true);
    return;
  }
  if (config_.exponential_backoff) {
    ++backoffs_;
  }
  if (config_.slow_start) {
    ssthresh_ = std::max<std::size_t>(
        (static_cast<std::size_t>(snd_nxt_ - snd_una_)) / 2, 2 * config_.mss);
    cwnd_ = config_.mss;
  }
  TransmitSegment(&head, true);
  RestartRetransmitTimer();
}

void TcpConnection::HandleAck(const TcpSegment& seg) {
  if (!seg.flags.ack) {
    return;
  }
  if (SeqGt(seg.ack, snd_nxt_)) {
    SendAck();  // acking the future: tell them where we are
    return;
  }
  snd_wnd_ = seg.window;
  if (SeqLe(seg.ack, snd_una_)) {
    return;  // duplicate or old ACK
  }
  SimTime now = tcp_->sim()->Now();
  bool fin_acked = false;
  while (!in_flight_.empty()) {
    InFlight& item = in_flight_.front();
    std::uint32_t item_end = item.seq + static_cast<std::uint32_t>(SequenceLength(item));
    if (SeqGt(item_end, seg.ack)) {
      break;
    }
    // RTT sampling. Karn's rule (Jacobson): never sample retransmitted
    // segments. RFC 793 as commonly implemented pre-Karn: sample everything,
    // timing from the first transmission.
    if (!item.retransmitted) {
      SimTime rtt = now - item.first_sent;
      rto_.Sample(rtt);
      if (min_rtt_seen_ == 0 || rtt < min_rtt_seen_) {
        min_rtt_seen_ = rtt;
      }
    } else {
      if (config_.rto_algorithm == RtoAlgorithm::kRfc793) {
        rto_.Sample(now - item.first_sent);
      }
      // Spurious-retransmission detection: the ACK landed sooner after our
      // retransmission than half the fastest RTT ever seen, so it must have
      // been triggered by the original copy (§4.1's needless retransmits).
      if (min_rtt_seen_ > 0 && now - item.last_sent < min_rtt_seen_ / 2) {
        ++stats_.spurious_retransmissions;
      }
    }
    if (item.fin) {
      fin_acked = true;
    }
    if (config_.slow_start) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += config_.mss;  // slow start
      } else {
        cwnd_ += std::max<std::size_t>(1, config_.mss * config_.mss / cwnd_);
      }
    }
    in_flight_.pop_front();
  }
  snd_una_ = seg.ack;
  backoffs_ = 0;
  RestartRetransmitTimer();
  if (snd_wnd_ > 0 && persist_timer_->running()) {
    persist_timer_->Stop();
    persist_backoffs_ = 0;
  }

  if (fin_acked) {
    if (state_ == TcpState::kFinWait1) {
      state_ = TcpState::kFinWait2;
    } else if (state_ == TcpState::kClosing) {
      EnterTimeWait();
    } else if (state_ == TcpState::kLastAck) {
      Terminate("", false);
      return;
    }
  }
  PumpOutput();
}

void TcpConnection::HandleData(const TcpSegment& seg) {
  if (seg.payload.empty()) {
    return;
  }
  if (seg.seq == rcv_nxt_) {
    rcv_nxt_ += static_cast<std::uint32_t>(seg.payload.size());
    stats_.bytes_received += seg.payload.size();
    if (on_data_) {
      on_data_(seg.payload);
    }
    // Drain any queued out-of-order continuation.
    auto it = out_of_order_.find(rcv_nxt_);
    while (it != out_of_order_.end()) {
      Bytes data = std::move(it->second);
      out_of_order_.erase(it);
      rcv_nxt_ += static_cast<std::uint32_t>(data.size());
      stats_.bytes_received += data.size();
      if (on_data_) {
        on_data_(data);
      }
      it = out_of_order_.find(rcv_nxt_);
    }
    AckIncoming(/*force_immediate=*/false);
    return;
  }
  if (SeqLt(seg.seq, rcv_nxt_)) {
    ++stats_.duplicate_segments;
  } else {
    ++stats_.out_of_order_segments;
    if (out_of_order_.size() < 64) {
      out_of_order_.emplace(seg.seq, seg.payload);
    }
  }
  // Duplicate or gap: ack immediately so the sender learns where we are.
  SendAck();
}

void TcpConnection::HandleSegment(const TcpSegment& seg) {
  ++stats_.segments_received;
  if (seg.flags.rst) {
    if (state_ != TcpState::kClosed) {
      Terminate("connection reset by peer", true);
    }
    return;
  }

  if (state_ == TcpState::kSynSent) {
    if (seg.flags.syn && seg.flags.ack && seg.ack == snd_una_ + 1) {
      rcv_nxt_ = seg.seq + 1;
      peer_mss_ = seg.mss_option.value_or(536);
      HandleAck(seg);
      state_ = TcpState::kEstablished;
      misc_timer_->Stop();
      SendAck();
      if (on_connected_) {
        on_connected_();
      }
      PumpOutput();
    } else if (seg.flags.syn && !seg.flags.ack) {
      // Simultaneous open.
      rcv_nxt_ = seg.seq + 1;
      peer_mss_ = seg.mss_option.value_or(536);
      state_ = TcpState::kSynReceived;
      if (!in_flight_.empty()) {
        TransmitSegment(&in_flight_.front(), true);  // now carries the ACK
      }
    }
    return;
  }

  if (state_ == TcpState::kSynReceived) {
    if (seg.flags.ack && seg.ack == snd_una_ + 1) {
      HandleAck(seg);
      state_ = TcpState::kEstablished;
      misc_timer_->Stop();
      if (on_connected_) {
        on_connected_();
      }
      // Fall through: the segment may carry data.
    } else if (seg.flags.syn) {
      // Duplicate SYN: re-answer.
      if (!in_flight_.empty()) {
        TransmitSegment(&in_flight_.front(), true);
      }
      return;
    } else {
      return;
    }
  }

  if (state_ == TcpState::kTimeWait) {
    if (seg.flags.fin) {
      SendAck();
      misc_timer_->Restart(config_.time_wait);
    }
    return;
  }

  if (seg.flags.syn) {
    // SYN on a synchronized connection: peer rebooted or is confused.
    SendAck();
    return;
  }

  HandleAck(seg);
  if (state_ == TcpState::kClosed) {
    return;  // HandleAck may have terminated (LAST_ACK)
  }
  HandleData(seg);

  if (seg.flags.fin) {
    std::uint32_t fin_seq = seg.seq + static_cast<std::uint32_t>(seg.payload.size());
    if (fin_seq == rcv_nxt_ && !remote_fin_seen_) {
      remote_fin_seen_ = true;
      rcv_nxt_ += 1;
      SendAck();
      switch (state_) {
        case TcpState::kEstablished:
          state_ = TcpState::kCloseWait;
          break;
        case TcpState::kFinWait1:
          // Our FIN not yet acked (else we'd be in FIN_WAIT_2).
          state_ = TcpState::kClosing;
          break;
        case TcpState::kFinWait2:
          EnterTimeWait();
          break;
        default:
          break;
      }
      // Callback last: a Close() inside it must see CLOSE_WAIT and take the
      // LAST_ACK path.
      if (on_remote_closed_) {
        on_remote_closed_();
      }
    } else if (SeqLt(fin_seq, rcv_nxt_)) {
      SendAck();  // retransmitted FIN
    }
  }
}

void TcpConnection::EnterTimeWait() {
  state_ = TcpState::kTimeWait;
  rtx_timer_->Stop();
  in_flight_.clear();
  misc_timer_->Restart(config_.time_wait);
}

void TcpConnection::set_advertised_window(std::uint16_t window) {
  bool opening = advertised_window_ == 0 && window > 0;
  advertised_window_ = window;
  if (opening && state_ == TcpState::kEstablished) {
    SendAck();  // window update so the stalled peer resumes promptly
  }
}

void TcpConnection::Terminate(const std::string& reason, bool notify_error) {
  if (state_ == TcpState::kClosed) {
    return;
  }
  UPR_DEBUG(kTag, "%s:%u terminate: %s", local_ip_.ToString().c_str(), local_port_,
            reason.empty() ? "closed" : reason.c_str());
  state_ = TcpState::kClosed;
  rtx_timer_->Stop();
  misc_timer_->Stop();
  persist_timer_->Stop();
  in_flight_.clear();
  send_buffer_.clear();
  if (notify_error && on_error_) {
    on_error_(reason);
  }
  if (on_closed_) {
    on_closed_();
  }
}

// --- Tcp ------------------------------------------------------------------------

Tcp::Tcp(NetStack* stack, TcpConfig default_config, std::uint64_t seed)
    : stack_(stack), default_config_(default_config), rng_(seed) {
  stack_->RegisterProtocol(kIpProtoTcp,
                           [this](const Ipv4Header& h, ByteView p, NetInterface* in) {
                             HandleInput(h, p, in);
                           });
  stack_->icmp().set_error_handler(
      [this](const Ipv4Header& outer, const IcmpMessage& msg) {
        HandleIcmpError(outer, msg);
      });
}

void Tcp::HandleIcmpError(const Ipv4Header& outer, const IcmpMessage& msg) {
  if (msg.type != kIcmpUnreachable) {
    return;
  }
  // Hard errors only; net/host unreachable and time-exceeded are transient
  // on a network whose links come and go with the weather.
  if (msg.code != kUnreachPort && msg.code != kUnreachProtocol &&
      msg.code != kUnreachAdminProhibited) {
    return;
  }
  // Body: 4 unused bytes, then the offending IP header + >= 8 payload bytes.
  if (msg.body.size() < 4) {
    return;
  }
  auto orig = Ipv4Header::DecodeView(ByteView(msg.body).subspan(4));
  if (!orig || orig->header.protocol != kIpProtoTcp || orig->payload.size() < 4) {
    return;
  }
  std::uint16_t sport = static_cast<std::uint16_t>(orig->payload[0] << 8 |
                                                   orig->payload[1]);
  std::uint16_t dport = static_cast<std::uint16_t>(orig->payload[2] << 8 |
                                                   orig->payload[3]);
  ConnKey key{orig->header.source.value(), orig->header.destination.value(), sport,
              dport};
  auto it = connections_.find(key);
  if (it != connections_.end()) {
    it->second->Terminate("destination unreachable (ICMP code " +
                              std::to_string(msg.code) + ")",
                          true);
  }
}

Tcp::~Tcp() = default;

std::uint16_t Tcp::AllocatePort() {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    std::uint16_t p = next_ephemeral_++;
    if (next_ephemeral_ == 0) {
      next_ephemeral_ = 1024;
    }
    if (p < 1024) {
      continue;
    }
    bool used = false;
    for (const auto& [key, conn] : connections_) {
      if (key.local_port == p) {
        used = true;
        break;
      }
    }
    if (!used) {
      return p;
    }
  }
  return 0;
}

TcpConnection* Tcp::Connect(IpV4Address dst, std::uint16_t dport,
                            std::optional<TcpConfig> config) {
  const Route* route = stack_->routes().Lookup(dst);
  if (route == nullptr || route->interface == nullptr) {
    UPR_DEBUG(kTag, "connect: no route to %s", dst.ToString().c_str());
    return nullptr;
  }
  IpV4Address src = route->interface->address();
  std::uint16_t sport = AllocatePort();
  ConnKey key{src.value(), dst.value(), sport, dport};
  TcpConfig conn_config = config.value_or(default_config_);
  // Advertise an MSS that fits the outgoing interface without IP
  // fragmentation (4.3BSD: MTU minus 40 bytes of IP+TCP header).
  if (route->interface->mtu() > 40) {
    conn_config.mss = std::min<std::uint16_t>(
        conn_config.mss, static_cast<std::uint16_t>(route->interface->mtu() - 40));
  }
  auto conn = std::unique_ptr<TcpConnection>(new TcpConnection(this, conn_config));
  TcpConnection* raw = conn.get();
  connections_[key] = std::move(conn);
  raw->StartConnect(dst, dport, sport, src);
  return raw;
}

void Tcp::Listen(std::uint16_t port, AcceptHandler on_accept,
                 std::optional<TcpConfig> config) {
  listeners_[port] = Listener{std::move(on_accept), config.value_or(default_config_)};
}

void Tcp::StopListening(std::uint16_t port) { listeners_.erase(port); }

void Tcp::ReapClosed() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second->state() == TcpState::kClosed) {
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Tcp::HandleInput(const Ipv4Header& ip, ByteView payload, NetInterface* in) {
  auto seg = TcpSegment::Decode(payload, ip.source, ip.destination);
  if (!seg) {
    return;
  }
  ++segments_demuxed_;
  ConnKey key{ip.destination.value(), ip.source.value(), seg->destination_port,
              seg->source_port};
  auto it = connections_.find(key);
  if (it != connections_.end()) {
    it->second->HandleSegment(*seg);
    return;
  }
  // No connection. A SYN may match a listener.
  auto lit = listeners_.find(seg->destination_port);
  if (lit != listeners_.end() && seg->flags.syn && !seg->flags.ack) {
    TcpConfig conn_config = lit->second.config;
    if (in != nullptr && in->mtu() > 40) {
      conn_config.mss = std::min<std::uint16_t>(
          conn_config.mss, static_cast<std::uint16_t>(in->mtu() - 40));
    }
    auto conn = std::unique_ptr<TcpConnection>(new TcpConnection(this, conn_config));
    TcpConnection* raw = conn.get();
    connections_[key] = std::move(conn);
    raw->StartAccept(ip.destination, seg->destination_port, ip.source,
                     seg->source_port, *seg);
    if (lit->second.on_accept) {
      lit->second.on_accept(raw);
    }
    return;
  }
  if (!seg->flags.rst) {
    SendReset(*seg, ip.destination, ip.source);
  }
}

void Tcp::SendSegment(const TcpSegment& seg, IpV4Address src, IpV4Address dst) {
  NetStack::SendOptions opts;
  opts.source = src;
  // One PacketBuf end to end: the payload is copied into headroom-reserved
  // storage once and every layer below prepends in place.
  PacketBuf pb;
  {
    BufLayerScope scope(BufLayer::kTransport);
    pb = PacketBuf::FromView(seg.payload, PacketBuf::kDefaultHeadroom);
  }
  seg.EncodeTo(&pb, src, dst);
  stack_->SendDatagram(dst, kIpProtoTcp, std::move(pb), opts);
}

void Tcp::SendReset(const TcpSegment& offending, IpV4Address src, IpV4Address dst) {
  TcpSegment rst;
  rst.source_port = offending.destination_port;
  rst.destination_port = offending.source_port;
  if (offending.flags.ack) {
    rst.seq = offending.ack;
  } else {
    rst.flags.ack = true;
    rst.ack = offending.seq + static_cast<std::uint32_t>(offending.payload.size()) +
              (offending.flags.syn ? 1 : 0) + (offending.flags.fin ? 1 : 0);
  }
  rst.flags.rst = true;
  ++resets_sent_;
  SendSegment(rst, src, dst);
}

}  // namespace upr
