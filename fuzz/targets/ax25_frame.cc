// Ax25Frame::DecodeView harness, run for both sequence moduli. Properties:
//   - the info view never escapes the input span;
//   - re-encoding the decoded frame and decoding again is the identity on
//     every field (the wire bytes may legally differ: v1 command bits and
//     space-padded callsigns normalize, trailing junk after a supervisory
//     control byte is dropped).

#include "fuzz/fuzz_util.h"
#include "fuzz/targets.h"
#include "src/ax25/frame.h"

namespace upr::fuzz {

namespace {

bool FramesEqual(const Ax25Frame& a, const Ax25Frame& b) {
  if (!(a.destination == b.destination && a.source == b.source &&
        a.digipeaters == b.digipeaters && a.command == b.command &&
        a.type == b.type && a.poll_final == b.poll_final && a.ns == b.ns &&
        a.nr == b.nr)) {
    return false;
  }
  if (a.HasPid() && a.pid != b.pid) {
    return false;
  }
  // Only I/UI/FRMR/XID frames carry an info field on the wire; for the rest
  // the decoder tolerates (and the encoder drops) trailing bytes.
  if (a.CarriesInfo() && a.info != b.info) {
    return false;
  }
  return true;
}

void RunOneModulus(const std::uint8_t* data, std::size_t size,
                   Ax25Modulus modulus) {
  auto view = Ax25Frame::DecodeView(ByteView(data, size), modulus);
  if (!view) {
    return;
  }
  FUZZ_REQUIRE(ViewWithin(view->info, data, size));
  // DecodeView leaves frame.info empty (the bytes live in view->info), so
  // materialize it for the encoder and the field-for-field compare.
  Ax25Frame& frame = view->frame;
  frame.info.assign(view->info.begin(), view->info.end());

  if (frame.type == Ax25FrameType::kUnknown) {
    return;  // unknown control values have no encoding
  }
  Bytes re = frame.Encode();
  auto again = Ax25Frame::DecodeView(re, modulus);
  FUZZ_REQUIRE(again.has_value());
  again->frame.info.assign(again->info.begin(), again->info.end());
  FUZZ_REQUIRE(FramesEqual(frame, again->frame));
  // Second round trip must be byte-stable: encode(decode(.)) is idempotent.
  FUZZ_REQUIRE(again->frame.Encode() == re);
}

}  // namespace

int RunAx25Frame(const std::uint8_t* data, std::size_t size) {
  if (size > (1u << 16)) {
    return 0;
  }
  RunOneModulus(data, size, Ax25Modulus::kMod8);
  RunOneModulus(data, size, Ax25Modulus::kMod128);
  return 0;
}

}  // namespace upr::fuzz
