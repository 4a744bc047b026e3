// Ipv4Header::DecodeView harness. Properties: the payload view stays inside
// the input span; re-encoding the parsed header over the parsed payload
// reproduces the accepted datagram byte-for-byte (checksum field excluded:
// 0x0000 and 0xFFFF are the same one's-complement zero, so two wire forms can
// verify while Encode always emits the canonical one); decoding the
// re-encoded datagram gives back the same header and payload.

#include <cstring>

#include "fuzz/fuzz_util.h"
#include "fuzz/targets.h"
#include "src/net/ipv4.h"

namespace upr::fuzz {

int RunIpv4(const std::uint8_t* data, std::size_t size) {
  if (size > (1u << 16)) {
    return 0;
  }
  auto view = Ipv4Header::DecodeView(ByteView(data, size));
  if (!view) {
    return 0;
  }
  FUZZ_REQUIRE(ViewWithin(view->payload, data, size));
  const Bytes payload(view->payload.begin(), view->payload.end());

  const Ipv4Header& h = view->header;
  std::size_t hlen = h.HeaderLength();
  FUZZ_REQUIRE(hlen >= 20 && hlen <= size);
  std::size_t total = hlen + payload.size();
  FUZZ_REQUIRE(total <= size);

  Bytes re = h.Encode(payload);
  FUZZ_REQUIRE(re.size() == total);
  // Byte-identical except the checksum bytes (offsets 10..11).
  Bytes a(re);
  Bytes b(data, data + total);
  a[10] = a[11] = 0;
  b[10] = b[11] = 0;
  FUZZ_REQUIRE(a == b);

  auto again = Ipv4Header::DecodeView(re);
  FUZZ_REQUIRE(again.has_value());
  FUZZ_REQUIRE(Bytes(again->payload.begin(), again->payload.end()) == payload);
  FUZZ_REQUIRE(again->header.ToString() == h.ToString());
  FUZZ_REQUIRE(again->header.options == h.options);
  return 0;
}

}  // namespace upr::fuzz
