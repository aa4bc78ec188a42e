#include "net/packet.hpp"

#include <cstring>

#include "common/crc32c.hpp"
#include "obs/registry.hpp"

namespace ew {

namespace wire {

std::uint32_t checksum(std::span<const std::uint8_t> frame) {
  constexpr std::size_t kFirstCovered = 4;  // the version byte; magic skipped
  return crc32c(frame.subspan(kHeaderSize),
                crc32c(frame.subspan(kFirstCovered, kChecksumOffset - kFirstCovered)));
}

}  // namespace wire

namespace {

// Resolved once: frame corruption is detected on the receive path of every
// transport, so the counter lives in the process registry.
obs::Counter& corrupt_frames_counter() {
  static obs::Counter* c =
      &obs::registry().counter(obs::names::kNetFramesCorrupt);
  return *c;
}

}  // namespace

Bytes encode_packet(const Packet& p) {
  return wire::encode_frame(p.kind, p.type, p.seq, p.payload.size(),
                            [&p](Writer& w) { w.raw(p.payload); });
}

std::span<std::uint8_t> FrameParser::recv_buffer(std::size_t min_bytes) {
  if (min_bytes == 0) min_bytes = 1;
  // Compact the consumed prefix when it dominates the buffer, so a
  // long-lived connection cannot pin memory behind pos_. A fully-consumed
  // buffer resets for free.
  if (pos_ == end_) {
    pos_ = 0;
    end_ = 0;
  } else if (pos_ > 4096 && pos_ * 2 > end_) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  // Grow geometrically: resize() zero-fills only the new region and is
  // amortized O(1), so a stream of small reads never re-copies the whole
  // reassembly buffer per read.
  if (buf_.size() - end_ < min_bytes) {
    buf_.resize(std::max(end_ + min_bytes, buf_.size() * 2));
  }
  return std::span<std::uint8_t>(buf_).subspan(end_);
}

void FrameParser::commit(std::size_t n) {
  if (poisoned_) return;
  end_ += n;
}

void FrameParser::feed(std::span<const std::uint8_t> data) {
  if (poisoned_ || data.empty()) return;
  auto dst = recv_buffer(data.size());
  std::memcpy(dst.data(), data.data(), data.size());
  commit(data.size());
}

Result<FrameView> FrameParser::peek_frame() {
  if (poisoned_) return Error{Err::kProtocol, "stream previously poisoned"};
  // Waiting for more bytes is the dispatch loop's normal exit, so it carries
  // no message to build.
  if (buffered() < wire::kHeaderSize) return Error{Err::kUnavailable, {}};
  Reader r(std::span<const std::uint8_t>(buf_).subspan(pos_, end_ - pos_));
  const auto magic = r.u32();
  const auto version = r.u8();
  const auto kind = r.u8();
  const auto type = r.u16();
  const auto seq = r.u64();
  const auto len = r.u32();
  const auto sum = r.u32();
  // Header fits (checked above), so these reads cannot fail.
  if (*magic != wire::kMagic) {
    poisoned_ = true;
    return Error{Err::kProtocol, "bad magic"};
  }
  if (*version != wire::kVersion) {
    poisoned_ = true;
    return Error{Err::kProtocol, "unsupported version " + std::to_string(*version)};
  }
  if (*kind > static_cast<std::uint8_t>(PacketKind::kResponse)) {
    poisoned_ = true;
    return Error{Err::kProtocol, "bad packet kind"};
  }
  if (*len > wire::kMaxPayload) {
    poisoned_ = true;
    return Error{Err::kProtocol, "payload length " + std::to_string(*len) +
                                     " exceeds limit"};
  }
  if (buffered() < wire::kHeaderSize + *len) return Error{Err::kUnavailable, {}};
  const auto frame =
      std::span<const std::uint8_t>(buf_).subspan(pos_, wire::kHeaderSize + *len);
  if (*sum != wire::checksum(frame)) {
    poisoned_ = true;
    corrupt_frames_counter().inc();
    return Error{Err::kProtocol, "checksum mismatch"};
  }
  FrameView v;
  v.kind = static_cast<PacketKind>(*kind);
  v.type = *type;
  v.seq = *seq;
  v.payload = frame.subspan(wire::kHeaderSize);
  return v;
}

Result<FrameView> FrameParser::next_view() {
  auto v = peek_frame();
  if (!v) return v;
  pos_ += wire::kHeaderSize + v->payload.size();
  return v;
}

Result<Packet> FrameParser::next() {
  auto v = peek_frame();
  if (!v) return v.error();
  const std::size_t frame_size = wire::kHeaderSize + v->payload.size();
  Packet p;
  p.kind = v->kind;
  p.type = v->type;
  p.seq = v->seq;
  if (pos_ == 0 && end_ == frame_size) {
    // The frame is exactly the valid data: steal the buffer instead of
    // copying the payload out (the common case — one whole packet per read
    // on request/response traffic). Trimming the header is a memmove within
    // the stolen allocation, not a fresh allocation + copy.
    p.payload = std::move(buf_);
    p.payload.resize(frame_size);  // shrink: drops any uncommitted tail
    p.payload.erase(p.payload.begin(),
                    p.payload.begin() + static_cast<std::ptrdiff_t>(wire::kHeaderSize));
    buf_.clear();
    pos_ = 0;
    end_ = 0;
    return p;
  }
  p.payload.assign(v->payload.begin(), v->payload.end());
  pos_ += frame_size;
  return p;
}

}  // namespace ew
