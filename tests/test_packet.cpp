// Tests for the lingua franca packet layer: framing, typing, stream
// reassembly, and hostile-input handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "net/packet.hpp"
#include "net/tcp_transport.hpp"
#include "obs/registry.hpp"

namespace ew {
namespace {

Packet make_packet(PacketKind kind, MsgType type, std::uint64_t seq,
                   Bytes payload) {
  Packet p;
  p.kind = kind;
  p.type = type;
  p.seq = seq;
  p.payload = std::move(payload);
  return p;
}

TEST(Packet, EncodeHasHeaderAndPayload) {
  const Packet p = make_packet(PacketKind::kRequest, 0x0202, 99, {1, 2, 3});
  const Bytes wire = encode_packet(p);
  EXPECT_EQ(wire.size(), wire::kHeaderSize + 3);
}

TEST(FrameParser, RoundTripSinglePacket) {
  const Packet p = make_packet(PacketKind::kResponse, 7, 12345, {9, 8, 7, 6});
  FrameParser fp;
  fp.feed(encode_packet(p));
  auto out = fp.next();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->kind, PacketKind::kResponse);
  EXPECT_EQ(out->type, 7);
  EXPECT_EQ(out->seq, 12345u);
  EXPECT_EQ(out->payload, (Bytes{9, 8, 7, 6}));
  EXPECT_EQ(fp.next().code(), Err::kUnavailable);
}

TEST(FrameParser, PrefixMoveOutKeepsStreamUsable) {
  // When the buffer holds exactly one whole frame the parser steals the
  // buffer instead of copying the payload; the parser must stay fully
  // usable for subsequent frames afterwards.
  FrameParser fp;
  const Bytes big(100'000, 0x5A);
  fp.feed(encode_packet(make_packet(PacketKind::kRequest, 3, 1, big)));
  auto first = fp.next();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->payload, big);
  EXPECT_EQ(fp.buffered(), 0u);

  // Next frame arrives split across feeds (copy path), then one whole
  // frame again (steal path).
  const Bytes wire2 = encode_packet(make_packet(PacketKind::kResponse, 4, 2, {1, 2}));
  fp.feed(std::span(wire2).subspan(0, 5));
  EXPECT_EQ(fp.next().code(), Err::kUnavailable);
  fp.feed(std::span(wire2).subspan(5));
  auto second = fp.next();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->payload, (Bytes{1, 2}));

  fp.feed(encode_packet(make_packet(PacketKind::kOneWay, 5, 3, {7})));
  auto third = fp.next();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->payload, (Bytes{7}));
  EXPECT_FALSE(fp.poisoned());
}

TEST(FrameParser, EmptyPayload) {
  FrameParser fp;
  fp.feed(encode_packet(make_packet(PacketKind::kOneWay, 1, 0, {})));
  auto out = fp.next();
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->payload.empty());
}

TEST(FrameParser, MultiplePacketsInOneFeed) {
  Bytes wire;
  for (int i = 0; i < 5; ++i) {
    const Bytes one = encode_packet(
        make_packet(PacketKind::kOneWay, static_cast<MsgType>(i), i, {Bytes(i, 0xCC)}));
    wire.insert(wire.end(), one.begin(), one.end());
  }
  FrameParser fp;
  fp.feed(wire);
  for (int i = 0; i < 5; ++i) {
    auto out = fp.next();
    ASSERT_TRUE(out.ok()) << i;
    EXPECT_EQ(out->type, i);
    EXPECT_EQ(out->payload.size(), static_cast<std::size_t>(i));
  }
  EXPECT_EQ(fp.next().code(), Err::kUnavailable);
}

/// The stream may fragment arbitrarily; parameterize over chunk sizes.
class FrameParserChunked : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrameParserChunked, ReassemblesAcrossChunks) {
  Bytes wire;
  const int kPackets = 7;
  for (int i = 0; i < kPackets; ++i) {
    Bytes payload(static_cast<std::size_t>(11 * i + 1), static_cast<std::uint8_t>(i));
    const Bytes one = encode_packet(
        make_packet(PacketKind::kRequest, static_cast<MsgType>(100 + i),
                    static_cast<std::uint64_t>(i), std::move(payload)));
    wire.insert(wire.end(), one.begin(), one.end());
  }
  FrameParser fp;
  std::size_t got = 0;
  const std::size_t chunk = GetParam();
  for (std::size_t off = 0; off < wire.size(); off += chunk) {
    const std::size_t len = std::min(chunk, wire.size() - off);
    fp.feed(std::span(wire).subspan(off, len));
    for (;;) {
      auto out = fp.next();
      if (!out.ok()) {
        ASSERT_EQ(out.code(), Err::kUnavailable);
        break;
      }
      EXPECT_EQ(out->type, 100 + got);
      EXPECT_EQ(out->payload.size(), 11 * got + 1);
      ++got;
    }
  }
  EXPECT_EQ(got, static_cast<std::size_t>(kPackets));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, FrameParserChunked,
                         ::testing::Values(1, 2, 3, 7, 16, 19, 64, 1024));

TEST(FrameParser, BadMagicPoisons) {
  Bytes wire = encode_packet(make_packet(PacketKind::kOneWay, 1, 1, {1}));
  wire[0] ^= 0xFF;
  FrameParser fp;
  fp.feed(wire);
  EXPECT_EQ(fp.next().code(), Err::kProtocol);
  EXPECT_TRUE(fp.poisoned());
  // Further feeds are ignored; parser stays poisoned.
  fp.feed(encode_packet(make_packet(PacketKind::kOneWay, 1, 1, {})));
  EXPECT_EQ(fp.next().code(), Err::kProtocol);
}

TEST(FrameParser, BadVersionPoisons) {
  Bytes wire = encode_packet(make_packet(PacketKind::kOneWay, 1, 1, {}));
  wire[4] = 0x7F;  // version byte
  FrameParser fp;
  fp.feed(wire);
  EXPECT_EQ(fp.next().code(), Err::kProtocol);
  EXPECT_TRUE(fp.poisoned());
}

TEST(FrameParser, BadKindPoisons) {
  Bytes wire = encode_packet(make_packet(PacketKind::kOneWay, 1, 1, {}));
  wire[5] = 9;  // kind byte
  FrameParser fp;
  fp.feed(wire);
  EXPECT_EQ(fp.next().code(), Err::kProtocol);
}

TEST(FrameParser, OversizedLengthPoisons) {
  Bytes wire = encode_packet(make_packet(PacketKind::kOneWay, 1, 1, {}));
  // Length field sits at header bytes 16..19 (before the checksum); claim
  // 512 MiB.
  wire[16] = 0;
  wire[17] = 0;
  wire[18] = 0;
  wire[19] = 0x20;
  FrameParser fp;
  fp.feed(wire);
  EXPECT_EQ(fp.next().code(), Err::kProtocol);
}

TEST(FrameParser, PartialHeaderNeedsMoreBytes) {
  const Bytes wire = encode_packet(make_packet(PacketKind::kOneWay, 1, 1, {1, 2}));
  FrameParser fp;
  fp.feed(std::span(wire).subspan(0, wire::kHeaderSize - 1));
  EXPECT_EQ(fp.next().code(), Err::kUnavailable);
  EXPECT_FALSE(fp.poisoned());
  fp.feed(std::span(wire).subspan(wire::kHeaderSize - 1));
  EXPECT_TRUE(fp.next().ok());
}

TEST(FrameParser, BufferCompactionKeepsParsing) {
  // Feed enough packets to trigger internal compaction, verifying nothing
  // is lost or reordered.
  FrameParser fp;
  std::size_t got = 0;
  for (int round = 0; round < 200; ++round) {
    fp.feed(encode_packet(make_packet(PacketKind::kOneWay,
                                      static_cast<MsgType>(round % 50),
                                      static_cast<std::uint64_t>(round),
                                      Bytes(64, 0xEE))));
    auto out = fp.next();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->seq, static_cast<std::uint64_t>(round));
    ++got;
  }
  EXPECT_EQ(got, 200u);
  EXPECT_EQ(fp.buffered(), 0u);
}

TEST(FrameParser, ChecksumMismatchPoisonsAndCounts) {
  Bytes wire = encode_packet(make_packet(PacketKind::kOneWay, 1, 7, {1, 2, 3}));
  wire.back() ^= 0x01;  // flip one payload bit
  const auto before =
      obs::registry().counter(obs::names::kNetFramesCorrupt).value();
  FrameParser fp;
  fp.feed(wire);
  EXPECT_EQ(fp.next().code(), Err::kProtocol);
  EXPECT_TRUE(fp.poisoned());
  EXPECT_EQ(obs::registry().counter(obs::names::kNetFramesCorrupt).value(),
            before + 1);
}

TEST(FrameParser, ChecksumFieldCorruptionDetected) {
  Bytes wire = encode_packet(make_packet(PacketKind::kOneWay, 1, 7, {}));
  wire[20] ^= 0xFF;  // checksum bytes are 20..23
  FrameParser fp;
  fp.feed(wire);
  EXPECT_EQ(fp.next().code(), Err::kProtocol);
}

TEST(Packet, ChecksumCoversHeaderFieldsAndPayload) {
  // The checksum takes the finished frame; every header field after the
  // magic and every payload byte feeds it.
  const auto sum = [](PacketKind kind, MsgType type, std::uint64_t seq,
                      Bytes payload) {
    return wire::checksum(
        encode_packet(make_packet(kind, type, seq, std::move(payload))));
  };
  const Bytes payload{1, 2, 3};
  const auto base = sum(PacketKind::kRequest, 7, 9, payload);
  EXPECT_EQ(sum(PacketKind::kRequest, 7, 9, payload), base);  // deterministic
  EXPECT_NE(sum(PacketKind::kRequest, 8, 9, payload), base);
  EXPECT_NE(sum(PacketKind::kRequest, 7, 10, payload), base);
  EXPECT_NE(sum(PacketKind::kRequest, 7, 9, Bytes{1, 2, 4}), base);
  EXPECT_NE(sum(PacketKind::kOneWay, 7, 9, payload), base);
  EXPECT_NE(sum(PacketKind::kResponse, 7, 9, payload), base);

  Bytes frame = encode_packet(make_packet(PacketKind::kRequest, 7, 9, payload));
  frame[16] ^= 0x01;  // length field, bytes 16..19
  EXPECT_NE(wire::checksum(frame), base);
  frame[16] ^= 0x01;
  frame[4] ^= 0x01;  // version byte
  EXPECT_NE(wire::checksum(frame), base);
  frame[4] ^= 0x01;
  // The magic and the checksum field itself are outside the sum.
  frame[0] ^= 0xFF;
  frame[wire::kChecksumOffset] ^= 0xFF;
  EXPECT_EQ(wire::checksum(frame), base);
}

TEST(FrameParser, RejectsV2Frames) {
  Bytes frame = encode_packet(make_packet(PacketKind::kOneWay, 1, 1, {1, 2}));
  frame[4] = 2;  // a v2 peer's version byte
  FrameParser fp;
  fp.feed(frame);
  const auto out = fp.next_view();
  ASSERT_EQ(out.code(), Err::kProtocol);
  EXPECT_EQ(out.error().message, "unsupported version 2");
  EXPECT_TRUE(fp.poisoned());
}

TEST(FrameParser, SingleBitFlipNeverDeliversTheDamagedFrame) {
  // Regression: the v2 checksum skipped the kind byte, so flipping bit 0 of
  // byte 5 turned a kRequest into a kOneWay (or a kResponse into a kOneWay)
  // and next_view() accepted it — a silently unanswered call. Now every
  // single-bit flip after the magic must stop the damaged frame, with a
  // valid frame queued behind it so that a length flip cannot simply wait
  // for more bytes.
  const Bytes trailer =
      encode_packet(make_packet(PacketKind::kOneWay, 2, 2, Bytes(40, 0x11)));
  for (PacketKind kind :
       {PacketKind::kOneWay, PacketKind::kRequest, PacketKind::kResponse}) {
    const Bytes frame = encode_packet(make_packet(kind, 0x0203, 77, {9, 8, 7, 6, 5}));
    for (std::size_t bit = 4 * 8; bit < frame.size() * 8; ++bit) {
      Bytes stream = frame;
      stream[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      stream.insert(stream.end(), trailer.begin(), trailer.end());
      FrameParser fp;
      fp.feed(stream);
      EXPECT_FALSE(fp.next_view().ok())
          << "kind " << static_cast<int>(kind) << " bit " << bit;
    }
  }
}

TEST(FrameParser, MaxPayloadBoundaryAccepted) {
  // A payload exactly at the limit parses; one byte over poisons.
  Packet p = make_packet(PacketKind::kOneWay, 1, 1, Bytes(1024, 1));
  Bytes wire = encode_packet(p);
  FrameParser fp;
  fp.feed(wire);
  EXPECT_TRUE(fp.next().ok());
}

// --------------------------------------------------------------------------
// The zero-copy receive path (PR 6): recv_buffer/commit in, next_view out.

TEST(FrameView, NextViewRoundTripsWithoutOwnership) {
  const Packet p = make_packet(PacketKind::kRequest, 21, 777, {4, 5, 6, 7});
  FrameParser fp;
  fp.feed(encode_packet(p));
  auto v = fp.next_view();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->kind, PacketKind::kRequest);
  EXPECT_EQ(v->type, 21);
  EXPECT_EQ(v->seq, 777u);
  ASSERT_EQ(v->payload.size(), 4u);
  EXPECT_EQ(Bytes(v->payload.begin(), v->payload.end()), (Bytes{4, 5, 6, 7}));
  // to_packet materializes an owning copy, equal to the original.
  const Packet owned = v->to_packet();
  EXPECT_EQ(owned.kind, p.kind);
  EXPECT_EQ(owned.type, p.type);
  EXPECT_EQ(owned.seq, p.seq);
  EXPECT_EQ(owned.payload, p.payload);
  EXPECT_EQ(fp.next_view().code(), Err::kUnavailable);
}

TEST(FrameView, RecvBufferCommitReassemblesChunkedStream) {
  // The recv(2) path: ask for buffer space, copy a chunk in, commit — no
  // feed(). Frames must reassemble across arbitrary chunk splits.
  Bytes wire;
  const int kPackets = 5;
  for (int i = 0; i < kPackets; ++i) {
    const Bytes one = encode_packet(make_packet(
        PacketKind::kOneWay, static_cast<MsgType>(i),
        static_cast<std::uint64_t>(i), Bytes(static_cast<std::size_t>(i) * 9, 0xAB)));
    wire.insert(wire.end(), one.begin(), one.end());
  }
  FrameParser fp;
  std::size_t got = 0;
  const std::size_t chunk = 13;
  for (std::size_t off = 0; off < wire.size(); off += chunk) {
    const std::size_t len = std::min(chunk, wire.size() - off);
    auto dst = fp.recv_buffer(len);
    ASSERT_GE(dst.size(), len);
    std::memcpy(dst.data(), wire.data() + off, len);
    fp.commit(len);
    for (;;) {
      auto v = fp.next_view();
      if (!v.ok()) {
        ASSERT_EQ(v.code(), Err::kUnavailable);
        break;
      }
      EXPECT_EQ(v->type, got);
      EXPECT_EQ(v->payload.size(), got * 9);
      ++got;
    }
  }
  EXPECT_EQ(got, static_cast<std::size_t>(kPackets));
  EXPECT_EQ(fp.buffered(), 0u);
}

TEST(FrameView, NextAndNextViewInterleave) {
  // Both pop paths share one cursor; mixing them must walk the stream in
  // order with no frame seen twice.
  FrameParser fp;
  for (int i = 0; i < 4; ++i) {
    fp.feed(encode_packet(make_packet(PacketKind::kOneWay,
                                      static_cast<MsgType>(i),
                                      static_cast<std::uint64_t>(i), {static_cast<std::uint8_t>(i)})));
  }
  auto a = fp.next();        // owning
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->type, 0);
  auto b = fp.next_view();   // view
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->type, 1);
  auto c = fp.next();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->type, 2);
  auto d = fp.next_view();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->type, 3);
  EXPECT_EQ(fp.next().code(), Err::kUnavailable);
}

TEST(FrameView, ChecksumMismatchPoisonsViewPath) {
  Bytes wire = encode_packet(make_packet(PacketKind::kOneWay, 1, 7, {1, 2, 3}));
  wire.back() ^= 0x01;
  FrameParser fp;
  auto dst = fp.recv_buffer(wire.size());
  std::memcpy(dst.data(), wire.data(), wire.size());
  fp.commit(wire.size());
  EXPECT_EQ(fp.next_view().code(), Err::kProtocol);
  EXPECT_TRUE(fp.poisoned());
  // A poisoned parser ignores further commits too.
  fp.commit(0);
  EXPECT_EQ(fp.next_view().code(), Err::kProtocol);
}

TEST(FrameView, RecvBufferGrowsAndCompacts) {
  // Large frame split across many small recv_buffer/commit rounds: the
  // buffer must grow to fit and keep the bytes straight; after consuming,
  // fresh buffers start from a reset cursor.
  const Bytes big(200'000, 0x3C);
  const Bytes wire =
      encode_packet(make_packet(PacketKind::kRequest, 9, 42, big));
  FrameParser fp;
  const std::size_t chunk = 4096;
  for (std::size_t off = 0; off < wire.size(); off += chunk) {
    const std::size_t len = std::min(chunk, wire.size() - off);
    auto dst = fp.recv_buffer(len);
    std::memcpy(dst.data(), wire.data() + off, len);
    fp.commit(len);
  }
  auto v = fp.next_view();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->payload.size(), big.size());
  EXPECT_TRUE(std::equal(v->payload.begin(), v->payload.end(), big.begin()));
  EXPECT_EQ(fp.buffered(), 0u);
  // The parser remains usable on the owning path afterwards.
  fp.feed(encode_packet(make_packet(PacketKind::kOneWay, 2, 43, {1})));
  auto p2 = fp.next();
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->payload, (Bytes{1}));
}

// --------------------------------------------------------------------------
// encode_routed_frame: the transport's single-allocation send-path encoder.

TEST(RoutedFrame, BytesMatchTheTwoPassReference) {
  // The single-pass encoder (header with checksum patched in after the
  // fact) must produce byte-identical wire to the obvious two-pass
  // reference: build the routed payload, then encode_packet it. Peers from
  // before the PR-6 optimization stay interoperable.
  const Packet p = make_packet(PacketKind::kRequest, 33, 991, {10, 20, 30});
  const Endpoint src{"10.1.2.3", 4444};
  const Endpoint dst{"localhost", 5555};

  Writer routed(p.payload.size() + 64);
  routed.str(src.host);
  routed.u16(src.port);
  routed.str(dst.host);
  routed.u16(dst.port);
  routed.raw(p.payload);
  Packet reference;
  reference.kind = p.kind;
  reference.type = p.type;
  reference.seq = p.seq;
  reference.payload = routed.take();

  EXPECT_EQ(encode_routed_frame(p, src, dst), encode_packet(reference));
}

TEST(RoutedFrame, ParsesAndUnroutesThroughTheViewPath) {
  const Packet p = make_packet(PacketKind::kOneWay, 8, 5, {0xDE, 0xAD});
  const Endpoint src{"127.0.0.1", 1000};
  const Endpoint dst{"127.0.0.1", 2000};
  FrameParser fp;
  fp.feed(encode_routed_frame(p, src, dst));
  auto v = fp.next_view();
  ASSERT_TRUE(v.ok());  // checksum over routing + payload verified
  EXPECT_EQ(v->kind, p.kind);
  EXPECT_EQ(v->type, p.type);
  EXPECT_EQ(v->seq, p.seq);
  Reader r(v->payload);
  EXPECT_EQ(*r.str(), src.host);
  EXPECT_EQ(*r.u16(), src.port);
  EXPECT_EQ(*r.str(), dst.host);
  EXPECT_EQ(*r.u16(), dst.port);
  const auto body = r.rest();
  EXPECT_EQ(Bytes(body.begin(), body.end()), p.payload);
}

}  // namespace
}  // namespace ew
