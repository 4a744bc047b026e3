#include "src/net/ipv4.h"

#include <cstdio>

#include "src/util/crc.h"

namespace upr {

void Ipv4Header::EncodeTo(PacketBuf* pb) const {
  BufLayerScope scope(BufLayer::kIp);
  std::size_t hlen = HeaderLength();
  std::size_t total = hlen + pb->size();
  std::uint8_t* h = pb->Prepend(hlen);
  h[0] = static_cast<std::uint8_t>(0x40 | (hlen / 4));
  h[1] = tos;
  h[2] = static_cast<std::uint8_t>(total >> 8);
  h[3] = static_cast<std::uint8_t>(total);
  h[4] = static_cast<std::uint8_t>(identification >> 8);
  h[5] = static_cast<std::uint8_t>(identification);
  // The reserved bit survives a decode/re-encode round trip (RFC 791 says
  // "must be zero", but a router that clears it would break end-to-end
  // byte-identity for traffic that set it — see the ipv4 fuzz harness).
  std::uint16_t frag = static_cast<std::uint16_t>((reserved_flag ? 0x8000 : 0) |
                                                  (dont_fragment ? 0x4000 : 0) |
                                                  (more_fragments ? 0x2000 : 0) |
                                                  (fragment_offset & 0x1FFF));
  h[6] = static_cast<std::uint8_t>(frag >> 8);
  h[7] = static_cast<std::uint8_t>(frag);
  h[8] = ttl;
  h[9] = protocol;
  h[10] = 0;  // checksum placeholder
  h[11] = 0;
  std::uint32_t src = source.value();
  std::uint32_t dst = destination.value();
  h[12] = static_cast<std::uint8_t>(src >> 24);
  h[13] = static_cast<std::uint8_t>(src >> 16);
  h[14] = static_cast<std::uint8_t>(src >> 8);
  h[15] = static_cast<std::uint8_t>(src);
  h[16] = static_cast<std::uint8_t>(dst >> 24);
  h[17] = static_cast<std::uint8_t>(dst >> 16);
  h[18] = static_cast<std::uint8_t>(dst >> 8);
  h[19] = static_cast<std::uint8_t>(dst);
  std::size_t i = 20;
  for (std::uint8_t b : options) {
    h[i++] = b;
  }
  while (i < hlen) {
    h[i++] = 0;  // EOL padding
  }
  std::uint16_t sum = InternetChecksum(h, hlen);
  h[10] = static_cast<std::uint8_t>(sum >> 8);
  h[11] = static_cast<std::uint8_t>(sum & 0xFF);
}

Bytes Ipv4Header::Encode(const Bytes& payload) const {
  // Exact-fit PacketBuf: after the prepend the storage is fully occupied, so
  // Release() moves it out — same one-allocation cost as before.
  PacketBuf pb = PacketBuf::FromView(payload, HeaderLength());
  EncodeTo(&pb);
  return pb.Release();
}

std::optional<Ipv4Header::ParsedView> Ipv4Header::DecodeView(ByteView datagram) {
  if (datagram.size() < 20) {
    return std::nullopt;
  }
  std::uint8_t vhl = datagram[0];
  if ((vhl >> 4) != 4) {
    return std::nullopt;
  }
  std::size_t hlen = static_cast<std::size_t>(vhl & 0x0F) * 4;
  if (hlen < 20 || hlen > datagram.size()) {
    return std::nullopt;
  }
  if (InternetChecksum(datagram.data(), hlen) != 0) {
    return std::nullopt;
  }
  ByteReader r(datagram.data(), datagram.size());
  r.Skip(1);
  ParsedView p;
  p.header.tos = r.ReadU8();
  std::uint16_t total = r.ReadU16();
  if (total < hlen || total > datagram.size()) {
    return std::nullopt;
  }
  p.header.identification = r.ReadU16();
  std::uint16_t frag = r.ReadU16();
  p.header.reserved_flag = (frag & 0x8000) != 0;
  p.header.dont_fragment = (frag & 0x4000) != 0;
  p.header.more_fragments = (frag & 0x2000) != 0;
  p.header.fragment_offset = frag & 0x1FFF;
  p.header.ttl = r.ReadU8();
  p.header.protocol = r.ReadU8();
  r.Skip(2);  // checksum (verified above)
  p.header.source = IpV4Address(r.ReadU32());
  p.header.destination = IpV4Address(r.ReadU32());
  if (hlen > 20) {
    p.header.options = r.ReadBytes(hlen - 20);
  }
  if (!r.ok()) {
    return std::nullopt;
  }
  p.payload = datagram.subspan(hlen, total - hlen);
  return p;
}

void Ipv4Header::DecrementTtlInPlace(std::uint8_t* datagram) {
  std::size_t hlen = static_cast<std::size_t>(datagram[0] & 0x0F) * 4;
  --datagram[8];
  // Full recompute (not RFC 1141 incremental) so the forwarded bytes are
  // bit-identical to a re-encode — the equivalence property test relies on it.
  datagram[10] = 0;
  datagram[11] = 0;
  std::uint16_t sum = InternetChecksum(datagram, hlen);
  datagram[10] = static_cast<std::uint8_t>(sum >> 8);
  datagram[11] = static_cast<std::uint8_t>(sum & 0xFF);
}

std::string Ipv4Header::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s > %s proto=%u ttl=%u id=%u%s%s off=%u",
                source.ToString().c_str(), destination.ToString().c_str(), protocol, ttl,
                identification, dont_fragment ? " DF" : "", more_fragments ? " MF" : "",
                fragment_offset);
  return buf;
}

}  // namespace upr
