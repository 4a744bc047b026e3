// IPv4 header codec (RFC 791) with header checksum and fragmentation fields.
// Options are carried opaquely. This replaces the "existing Ultrix network
// support" box of the paper's figure 2.
#ifndef SRC_NET_IPV4_H_
#define SRC_NET_IPV4_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/net/ip_address.h"
#include "src/util/byte_buffer.h"
#include "src/util/packet_buf.h"

namespace upr {

// Protocol numbers used in this stack.
inline constexpr std::uint8_t kIpProtoIcmp = 1;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

inline constexpr std::uint8_t kDefaultTtl = 30;  // 4.3BSD default

struct Ipv4Header {
  std::uint8_t tos = 0;
  std::uint16_t identification = 0;
  bool reserved_flag = false;  // bit 0x8000, "must be zero" but preserved
  bool dont_fragment = false;
  bool more_fragments = false;
  std::uint16_t fragment_offset = 0;  // in 8-byte units
  std::uint8_t ttl = kDefaultTtl;
  std::uint8_t protocol = 0;
  IpV4Address source;
  IpV4Address destination;
  Bytes options;  // raw, padded to a multiple of 4 by Encode

  std::size_t HeaderLength() const { return 20 + (options.size() + 3) / 4 * 4; }

  // Prepends the serialized header (checksum computed in place) in front of
  // `pb`'s current data, which becomes the datagram payload. This is the
  // datapath primitive: the transport's segment stays where it is and the IP
  // header lands in headroom.
  void EncodeTo(PacketBuf* pb) const;

  // Serializes header + payload, computing the header checksum.
  Bytes Encode(const Bytes& payload) const;

  struct ParsedView;
  // Validates version, length fields and checksum. The payload is a
  // non-owning view into `datagram` — no copy. The view is valid only while
  // the underlying buffer lives.
  static std::optional<ParsedView> DecodeView(ByteView datagram);

  // Forwarding fast path: decrements TTL and recomputes the header checksum
  // directly in the datagram bytes. `datagram` must have passed DecodeView.
  static void DecrementTtlInPlace(std::uint8_t* datagram);

  std::string ToString() const;
};

struct Ipv4Header::ParsedView {
  Ipv4Header header;
  ByteView payload;
};

}  // namespace upr

#endif  // SRC_NET_IPV4_H_
