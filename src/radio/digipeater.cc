#include "src/radio/digipeater.h"

#include "src/util/crc.h"
#include "src/util/logging.h"

namespace upr {

namespace {
constexpr const char* kTag = "digi";
}  // namespace

Digipeater::Digipeater(Simulator* sim, RadioChannel* channel, Ax25Address callsign,
                       MacParams mac, std::uint64_t seed)
    : sim_(sim), callsign_(std::move(callsign)) {
  port_ = channel->CreatePort("digi:" + callsign_.ToString());
  mac_ = std::make_unique<CsmaMac>(sim, port_, mac, seed);
  port_->set_receive_handler(
      [this](const Bytes& wire, bool corrupted) { OnReceive(wire, corrupted); });
}

void Digipeater::OnReceive(const Bytes& wire, bool corrupted) {
  ++frames_heard_;
  // FCS check: corrupted frames fail; also verify the trailing CRC.
  std::optional<ByteView> body;
  if (!corrupted) {
    body = FcsCheckedBody(wire);
  }
  if (!body) {
    ++frames_dropped_;
    return;
  }
  auto decoded = Ax25Frame::DecodeView(*body);
  if (!decoded) {
    ++frames_dropped_;
    return;
  }
  Ax25Frame& frame = decoded->frame;
  Ax25Digipeater* next = frame.NextDigipeater();
  if (next == nullptr || next->address != callsign_) {
    return;  // not addressed through us (or already fully repeated)
  }
  next->repeated = true;
  ++frames_repeated_;
  UPR_TRACE(kTag, "%s repeating %s", callsign_.ToString().c_str(),
            frame.ToString().c_str());
  // Re-encode with the H bit set: the info view lands behind the new header
  // in one exact-fit buffer.
  PacketBuf pb = PacketBuf::FromView(
      frame.CarriesInfo() ? decoded->info : ByteView(), frame.HeaderLength());
  frame.EncodeTo(&pb);
  Bytes out = pb.Release();
  std::uint16_t new_fcs = Crc16Ccitt(out);
  out.push_back(static_cast<std::uint8_t>(new_fcs & 0xFF));
  out.push_back(static_cast<std::uint8_t>(new_fcs >> 8));
  mac_->Enqueue(std::move(out));
}

}  // namespace upr
