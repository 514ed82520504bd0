// Wire primitives for the shard-serving RPC protocol: a bounds-checked
// binary reader/writer pair and the length-prefixed, versioned frame
// header every message travels under.
//
// Encoding rules (the whole protocol follows them):
//   * Fixed-width integers are little-endian.
//   * Strings are a u32 byte length followed by the raw bytes.
//   * Doubles are their IEEE-754 bit pattern as a u64 — bit-exact round
//     trips, which is what lets the RPC transport oracle demand
//     byte-identical responses to the in-process router.
//
// Frame layout (kFrameHeaderBytes = 12):
//   offset 0  u8[4]  magic "CSRP"
//   offset 4  u16    protocol version (kWireVersion)
//   offset 6  u16    message type (net/messages.h MessageType)
//   offset 8  u32    payload byte length (<= kMaxFramePayloadBytes)
//   offset 12 ...    payload
//
// Every malformed input — truncated header or payload, bad magic, an
// oversized length prefix, a version we do not speak — decodes to a
// clean typed Status (never a crash, never an unbounded read):
// kParseError for garbage, kInvalidArgument for a version mismatch.
// tests/net_protocol_test.cc holds the mutated-frame corpus that pins
// this contract.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace comparesets {

/// Protocol version spoken by this build. Bumped on any incompatible
/// frame or payload layout change; peers refuse other versions with a
/// typed error instead of misparsing.
///   v1: initial protocol.
///   v2: quality tiers — SelectorOptions gained min_tier /
///       sample_threshold / sample_size, SelectResponse and RequestTrace
///       gained tier + objective_gap.
///   v3: streaming ingestion — RequestTrace gained ingest_records (the
///       shard snapshot's cumulative delta-applied review count).
///   v4: request priority — SelectRequest gained a priority class
///       (interactive/batch, u8) and RequestTrace gained the effective
///       priority string.
///   v5: RequestTrace gained alignment_seconds (the timed ROUGE stage).
inline constexpr uint16_t kWireVersion = 5;

/// Frame header magic: "CSRP" (CompareSets RPc).
inline constexpr uint8_t kFrameMagic[4] = {'C', 'S', 'R', 'P'};

/// Fixed byte size of the frame header.
inline constexpr size_t kFrameHeaderBytes = 12;

/// Hard cap on one frame's payload. Far above any real batch response,
/// far below anything that could exhaust memory from a hostile or
/// corrupted length prefix.
inline constexpr uint32_t kMaxFramePayloadBytes = 64u * 1024u * 1024u;

/// Decoded frame header.
struct FrameHeader {
  uint16_t version = kWireVersion;
  uint16_t type = 0;
  uint32_t payload_bytes = 0;
};

/// Appends the 12-byte header for a `type` frame carrying
/// `payload_bytes` of payload to `out`.
void AppendFrameHeader(uint16_t type, uint32_t payload_bytes,
                       std::string* out);

/// One complete frame: header + payload, ready to send.
std::string EncodeFrame(uint16_t type, std::string_view payload);

/// Parses and validates a 12-byte header. `data` must hold at least
/// kFrameHeaderBytes (callers read exactly that much off the socket).
/// Typed failures: kParseError (bad magic, oversized payload length),
/// kInvalidArgument (version mismatch).
Result<FrameHeader> DecodeFrameHeader(std::string_view data);

/// Append-only binary writer implementing the encoding rules above.
class WireWriter {
 public:
  void WriteU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  /// Bit-pattern encoding: exact round trip for every double, including
  /// negative zero, infinities, and NaN payloads.
  void WriteDouble(double v);
  void WriteString(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over one payload. Every Read* fails with
/// kParseError instead of reading past the end; decoders propagate the
/// failure so a truncated or garbage payload can never crash a peer.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<bool> ReadBool();
  Result<double> ReadDouble();
  Result<std::string> ReadString();

  /// Bytes not yet consumed. Decoders of complete messages check this
  /// is 0 at the end — trailing garbage is a parse error, not padding.
  size_t remaining() const { return data_.size() - pos_; }

  /// kParseError naming `what` unless exactly everything was consumed.
  Status ExpectFullyConsumed(const char* what) const;

 private:
  Status Need(size_t n, const char* what);

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace comparesets
