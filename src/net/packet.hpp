// The EveryWare packet layer ("lingua franca", paper Section 2.1).
//
// The paper layered "rudimentary packet semantics" over TCP streams "to
// enable message typing and delineate record boundaries", following the
// netperf/NWS packet format. We reproduce that: every message travels as a
// fixed header (magic, version, kind, application message type, sequence
// number, payload length) followed by an opaque payload. FrameParser
// re-assembles packets from an arbitrary-chunked byte stream, which is what
// makes the same protocol code usable over both TCP and the simulated
// transport.
//
// Frame integrity (wire v3): a CRC32C (common/crc32c.hpp) over header bytes
// 4..19 — version, kind, type, seq, length — and the whole payload; only the
// magic and the checksum field itself are left out. v2 summed type, seq and
// payload with a byte-serial FNV-1a, which had two faults: it left the kind
// byte uncovered, so one flipped bit could turn a kRequest into a kOneWay
// (a silently unanswered call), and FNV guarantees nothing about burst
// errors, where CRC32C catches every burst of up to 32 bits. It is also far
// cheaper: where the CPU has SSE4.2 it runs on the crc32 instruction, three
// independent streams at a time on frames of 768 B and more.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/result.hpp"
#include "common/serialize.hpp"

namespace ew {

/// Application-level message type (the "message typing" of Section 2.1).
using MsgType = std::uint16_t;

/// Transport-level packet role.
enum class PacketKind : std::uint8_t {
  kOneWay = 0,    // fire-and-forget message
  kRequest = 1,   // expects a kResponse with the same sequence number
  kResponse = 2,  // reply to a kRequest
};

/// A framed message.
struct Packet {
  PacketKind kind = PacketKind::kOneWay;
  MsgType type = 0;
  std::uint64_t seq = 0;
  Bytes payload;
};

namespace wire {
/// 'EVWR' — rejects cross-talk from non-EveryWare peers on the same port.
constexpr std::uint32_t kMagic = 0x45565752;
/// v2 added the checksum field (and grew the header by 4 bytes); v3 made it
/// a CRC32C over the whole header after the magic, plus the payload.
constexpr std::uint8_t kVersion = 3;
/// Header: magic(4) version(1) kind(1) type(2) seq(8) length(4) checksum(4).
constexpr std::size_t kHeaderSize = 24;
/// Offset of the checksum field, the last header field.
constexpr std::size_t kChecksumOffset = 20;
/// Upper bound on payload size; a stream producing a larger length field is
/// treated as corrupt rather than buffered indefinitely.
constexpr std::size_t kMaxPayload = 16 * 1024 * 1024;

/// CRC32C of a whole frame (header + payload): header bytes 4..19, then
/// the payload; the magic and the checksum field are skipped, so the value
/// is the same before and after the field is patched in. The magic catches
/// cross-talk; this catches bit damage in flight — the paper's streams
/// crossed enough flaky links that trusting TCP's 16-bit sum alone is
/// optimistic for a months-long run.
std::uint32_t checksum(std::span<const std::uint8_t> frame);

/// The one frame writer: header, then the `len` payload bytes `body`
/// writes, then the checksum patched into its placeholder. One allocation,
/// sized exactly.
template <typename Body>
Bytes encode_frame(PacketKind kind, MsgType type, std::uint64_t seq,
                   std::size_t len, Body&& body) {
  Writer w(kHeaderSize + len);
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u16(type);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(len));
  w.u32(0);  // checksum placeholder — covers bytes not yet written
  body(w);
  w.patch_u32(kChecksumOffset, checksum(w.bytes()));
  return w.take();
}
}  // namespace wire

/// Serialize a packet (header + payload) onto a byte buffer.
Bytes encode_packet(const Packet& p);

/// A parsed frame whose payload is a view into the parser's reassembly
/// buffer — no copy. The span is valid only until the parser is touched
/// again (feed / recv_buffer / commit / next / next_view); a handler that
/// retains the payload must copy it out (to_packet does exactly that).
struct FrameView {
  PacketKind kind = PacketKind::kOneWay;
  MsgType type = 0;
  std::uint64_t seq = 0;
  std::span<const std::uint8_t> payload;

  /// Copy-out for handlers that keep the payload past the view's lifetime.
  [[nodiscard]] Packet to_packet() const {
    Packet p;
    p.kind = kind;
    p.type = type;
    p.seq = seq;
    p.payload.assign(payload.begin(), payload.end());
    return p;
  }
};

/// Incremental stream parser: feed arbitrary byte chunks, pop whole packets.
/// After any error the parser is poisoned (the stream framing is lost and the
/// connection must be dropped, as the paper's packet layer does).
///
/// Two input paths and two output paths share one reassembly buffer:
///   * feed() copies a chunk in; recv_buffer()/commit() lets recv(2) write
///     directly into the buffer instead (no intermediate chunk copy).
///   * next() pops an owning Packet; next_view() returns a zero-copy
///     FrameView into the buffer for hot paths that only *look* at the
///     payload before deciding whether to keep it.
class FrameParser {
 public:
  /// Append raw bytes received from the stream.
  void feed(std::span<const std::uint8_t> data);

  /// Writable tail of the reassembly buffer, at least `min_bytes` long —
  /// pass it to recv(2)/recv_into and commit() what actually arrived. Any
  /// outstanding FrameView is invalidated (the buffer may compact or grow).
  [[nodiscard]] std::span<std::uint8_t> recv_buffer(std::size_t min_bytes = 16384);
  /// Declare `n` bytes of the last recv_buffer() span valid stream data.
  void commit(std::size_t n);

  /// Extract the next complete packet, if any.
  /// Returns: packet; or Err::kProtocol if the stream is corrupt; or
  /// Err::kUnavailable, with no message, when more bytes are needed (not an
  /// error condition).
  Result<Packet> next();

  /// Zero-copy variant of next(): the returned view's payload points into
  /// the reassembly buffer and is valid only until the parser is touched
  /// again. Same error contract as next().
  Result<FrameView> next_view();

  [[nodiscard]] bool poisoned() const { return poisoned_; }
  [[nodiscard]] std::size_t buffered() const { return end_ - pos_; }

 private:
  /// Parse+validate the header at pos_ without consuming. On success the
  /// view's payload spans the frame's payload bytes in buf_.
  Result<FrameView> peek_frame();

  Bytes buf_;             // storage; only [pos_, end_) holds stream bytes
  std::size_t pos_ = 0;   // consumed prefix
  std::size_t end_ = 0;   // valid-data end (buf_.size() is raw capacity)
  bool poisoned_ = false;
};

}  // namespace ew
