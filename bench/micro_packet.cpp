// Microbenchmark for the wire path (DESIGN.md §3, §11, §16).
//
// encode_packet and encode_routed_frame write each frame with exactly one
// allocation, and FrameParser::next_view() parses with none, including the
// call that finds the buffer drained. This harness
// times the four legs at a small (64 B) and a large (4 KiB) payload and
// *gates* on the allocation counts — counted by a replacement global
// operator new (the micro_obs pattern), so the single-allocation/zero-copy
// claims are asserted, not assumed.
//
// The frame arm repeats the encode, routed-encode and view-parse legs at a
// 384 KiB payload, the size of an everybench sched_batch frame, where the
// frame checksum is most of the cost, under the same allocation gates, and
// times crc32c() alone over that payload (crc32c_gbps_393216). Its legs
// are kept out of `checksum`, so the pinned value predates them.
//
// The codec arm times encode and decode of the three largest payloads the
// message codecs carry: a ReportBatch of 8,192 reports with a 10-vertex
// graph each (the everybench sched_batch shape), a DirectiveBatch of 8,192
// assigns, and a gossip Delta of 1,000 blobs. It gates on their allocations
// per encode and per decode: one per encode (the codec sizes the message
// exactly and reserves once), and per decode the counts the hand-written
// codecs made before the declarative codec (DESIGN.md §16) replaced them.
//
// crc_kernel names the frame-checksum kernel the CPU dispatched to, so lines
// from different machines are compared like for like.
//
// The ns numbers are informational (a loaded CI box must not flake the
// smoke run); the allocation gates are deterministic and always enforced.
// Emits ONE machine-readable JSON line (see EXPERIMENTS.md, "Wire-path
// microbenchmark"):
//
//   {"bench":"micro_packet","iters":...,"crc_kernel":"sse4.2"|"slice8",
//    "ns_encode_64":...,"ns_encode_4096":...,
//    "ns_encode_routed_64":...,"ns_encode_routed_4096":...,
//    "ns_parse_copy_64":...,"ns_parse_copy_4096":...,
//    "ns_parse_view_64":...,"ns_parse_view_4096":...,
//    "ns_encode_393216":...,"ns_encode_routed_393216":...,
//    "ns_parse_view_393216":...,"crc32c_gbps_393216":...,
//    "encode_allocs_per_frame":...,"parse_view_allocs":...,
//    "codec_iters":...,
//    "ns_report_batch_encode":...,"ns_report_batch_decode":...,
//    "allocs_report_batch_encode":...,"allocs_report_batch_decode":...,
//    (the same four for directive_batch and delta),"checksum":...}
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/crc32c.hpp"
#include "core/protocol.hpp"
#include "gossip/protocol.hpp"
#include "net/packet.hpp"
#include "net/tcp_transport.hpp"

// Program-wide allocation counter (replaces the global operator new) so the
// one-allocation-per-encode and zero-copy-parse gates are measured.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ew {
namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

Packet make_packet(std::size_t payload_bytes) {
  Packet p;
  p.kind = PacketKind::kRequest;
  p.type = 7;
  p.seq = 424242;
  p.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    p.payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return p;
}

struct Leg {
  std::size_t iters = 0;
  double ns_per_op = 0;
  double checksum = 0;           // defeats dead-code elimination
  std::uint64_t leg_allocs = 0;  // steady-state allocations across the leg

  /// Allocations per operation, rounded up: any extra allocation shows.
  [[nodiscard]] std::uint64_t allocs_per_op() const {
    return (leg_allocs + iters - 1) / iters;
  }
};

template <typename F>
Leg run_leg(std::size_t iters, F&& op) {
  Leg leg;
  leg.iters = iters;
  (void)op(0);  // warm-up: first-touch buffer growth is not steady state
  const std::uint64_t a0 = allocs();
  const double t0 = now_ns();
  for (std::size_t i = 0; i < iters; ++i) leg.checksum += op(i);
  const double t1 = now_ns();
  leg.leg_allocs = allocs() - a0;
  leg.ns_per_op = (t1 - t0) / static_cast<double>(iters);
  return leg;
}

/// ns/frame to serialize a bare packet (header + payload, one buffer).
Leg bench_encode(std::size_t iters, const Packet& p) {
  return run_leg(iters, [&](std::size_t) {
    Bytes frame = encode_packet(p);
    return static_cast<double>(frame.size() + frame.back());
  });
}

/// ns/frame for the transport's send-path encoder (adds routing + patched
/// checksum — still one allocation).
Leg bench_encode_routed(std::size_t iters, const Packet& p,
                        const Endpoint& src, const Endpoint& dst) {
  return run_leg(iters, [&](std::size_t) {
    Bytes frame = encode_routed_frame(p, src, dst);
    return static_cast<double>(frame.size() + frame.back());
  });
}

/// ns/frame to reparse via next() — the copy-out arm (payload materialized
/// as an owning Packet each iteration).
Leg bench_parse_copy(std::size_t iters, const Bytes& frame) {
  FrameParser parser;
  return run_leg(iters, [&](std::size_t) {
    parser.feed(frame);
    auto pkt = parser.next();
    return pkt ? static_cast<double>(pkt->payload.size()) : -1e9;
  });
}

/// ns/frame via recv_buffer/commit + next_view — the zero-copy arm — then
/// one more next_view() on the drained parser, the dispatch loop's exit.
/// After the parser's reassembly buffer warms up neither may allocate.
Leg bench_parse_view(std::size_t iters, const Bytes& frame) {
  FrameParser parser;
  return run_leg(iters, [&](std::size_t) {
    auto dst = parser.recv_buffer(frame.size());
    std::memcpy(dst.data(), frame.data(), frame.size());
    parser.commit(frame.size());
    auto view = parser.next_view();
    const double got = view ? static_cast<double>(view->payload.size() +
                                                  view->payload.back())
                            : -1e9;
    return parser.next_view().code() == Err::kUnavailable ? got : -1e9;
  });
}

/// Encode/decode costs of one message, averaged over the leg.
struct CodecLegs {
  Leg encode;
  Leg decode;
  std::uint64_t encode_allocs = 0;  // per encode
  std::uint64_t decode_allocs = 0;  // per decode
};

template <typename T>
CodecLegs bench_codec(std::size_t iters, const T& msg) {
  const Bytes wire = msg.serialize();
  CodecLegs out;
  out.encode = run_leg(iters, [&](std::size_t) {
    const Bytes b = msg.serialize();
    return static_cast<double>(b.size() + b.back());
  });
  out.decode = run_leg(iters, [&](std::size_t) {
    return T::deserialize(wire).ok() ? 1.0 : -1e9;
  });
  out.encode_allocs = out.encode.leg_allocs / iters;
  out.decode_allocs = out.decode.leg_allocs / iters;
  return out;
}

core::ReportBatch report_batch() {
  Rng rng(11);
  const Bytes graph = ramsey::ColoredGraph::random(10, rng).serialize();
  core::ReportBatch b;
  b.client = Endpoint{"c17", 2000};
  b.seq = 42;
  b.want_units = 8192;
  b.reports.resize(8192);
  for (std::size_t i = 0; i < b.reports.size(); ++i) {
    b.reports[i].unit_id = 1 + 4 * i;
    b.reports[i].ops_done = 60'000'000;
    b.reports[i].best_energy = 40;
    b.reports[i].best_graph = graph;
  }
  return b;
}

core::DirectiveBatch directive_batch() {
  core::DirectiveBatch d;
  d.assign.resize(8192);
  for (std::size_t i = 0; i < d.assign.size(); ++i) {
    d.assign[i].unit_id = 1 + 4 * i;
    d.assign[i].seed = 1000 + i;
    d.assign[i].kind = static_cast<ramsey::HeuristicKind>(i % 3);
  }
  return d;
}

gossip::Delta delta() {
  gossip::Delta d;
  d.clique = 3;
  d.blobs.resize(1000);
  for (std::size_t i = 0; i < d.blobs.size(); ++i) {
    d.blobs[i].type = static_cast<MsgType>(0x0300 + i % 64);
    d.blobs[i].content.assign(64, static_cast<std::uint8_t>(i));
  }
  return d;
}

}  // namespace
}  // namespace ew

int main(int argc, char** argv) {
  using namespace ew;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t kIters = quick ? 20'000 : 1'000'000;
  const std::size_t kCodecIters = quick ? 3 : 200;
  const std::size_t kFrameIters = quick ? 50 : 5'000;

  const Packet small = make_packet(64);
  const Packet large = make_packet(4096);
  const Endpoint src{"10.0.0.1", 9001};
  const Endpoint dst{"10.0.0.2", 9002};
  const Bytes small_frame = encode_packet(small);
  const Bytes large_frame = encode_packet(large);

  const Leg enc_64 = bench_encode(kIters, small);
  const Leg enc_4096 = bench_encode(kIters, large);
  const Leg encr_64 = bench_encode_routed(kIters, small, src, dst);
  const Leg encr_4096 = bench_encode_routed(kIters, large, src, dst);
  const Leg copy_64 = bench_parse_copy(kIters, small_frame);
  const Leg copy_4096 = bench_parse_copy(kIters, large_frame);
  const Leg view_64 = bench_parse_view(kIters, small_frame);
  const Leg view_4096 = bench_parse_view(kIters, large_frame);

  // The frame arm: a sched_batch-sized 384 KiB payload.
  const Packet frame_packet = make_packet(393216);
  const Bytes frame_bytes = encode_packet(frame_packet);
  const Leg enc_384k = bench_encode(kFrameIters, frame_packet);
  const Leg encr_384k = bench_encode_routed(kFrameIters, frame_packet, src, dst);
  const Leg view_384k = bench_parse_view(kFrameIters, frame_bytes);
  const Leg crc_384k = run_leg(kFrameIters, [&](std::size_t i) {
    return static_cast<double>(crc32c(frame_packet.payload, static_cast<std::uint32_t>(i)));
  });
  volatile double frame_sink = enc_384k.checksum + encr_384k.checksum + crc_384k.checksum;
  (void)frame_sink;

  struct CodecArm {
    const char* name;
    CodecLegs legs;
    std::uint64_t encode_budget;  // allocations per encode
    std::uint64_t decode_budget;  // allocations per decode
  };
  const CodecArm arms[] = {
      {"report_batch", bench_codec(kCodecIters, report_batch()), 1, 8193},
      {"directive_batch", bench_codec(kCodecIters, directive_batch()), 1, 1},
      {"delta", bench_codec(kCodecIters, delta()), 1, 1001},
  };

  double checksum = enc_64.checksum + enc_4096.checksum + encr_64.checksum +
                    encr_4096.checksum + copy_64.checksum + copy_4096.checksum +
                    view_64.checksum + view_4096.checksum;
  for (const auto& arm : arms) checksum += arm.legs.encode.checksum + arm.legs.decode.checksum;

  // Gate 1: encoding is one allocation per frame (the frame buffer itself),
  // for both the bare and the routed encoder, at every payload size.
  std::uint64_t encode_allocs_per_frame = 0;
  for (const Leg* leg : {&enc_64, &enc_4096, &enc_384k, &encr_64, &encr_4096, &encr_384k}) {
    encode_allocs_per_frame = std::max(encode_allocs_per_frame, leg->allocs_per_op());
  }
  // Gate 2: the zero-copy parse arm allocates nothing in steady state (the
  // reassembly buffer was warmed before counting).
  const std::uint64_t parse_view_allocs =
      view_64.leg_allocs + view_4096.leg_allocs + view_384k.leg_allocs;

  bench::JsonWriter line;
  line.u64("iters", kIters)
      .str("crc_kernel", crc32c_kernel())
      .f("ns_encode_64", enc_64.ns_per_op, 2)
      .f("ns_encode_4096", enc_4096.ns_per_op, 2)
      .f("ns_encode_routed_64", encr_64.ns_per_op, 2)
      .f("ns_encode_routed_4096", encr_4096.ns_per_op, 2)
      .f("ns_parse_copy_64", copy_64.ns_per_op, 2)
      .f("ns_parse_copy_4096", copy_4096.ns_per_op, 2)
      .f("ns_parse_view_64", view_64.ns_per_op, 2)
      .f("ns_parse_view_4096", view_4096.ns_per_op, 2)
      .f("ns_encode_393216", enc_384k.ns_per_op, 0)
      .f("ns_encode_routed_393216", encr_384k.ns_per_op, 0)
      .f("ns_parse_view_393216", view_384k.ns_per_op, 0)
      .f("crc32c_gbps_393216", static_cast<double>(frame_packet.payload.size()) /
                                   crc_384k.ns_per_op, 2)
      .u64("encode_allocs_per_frame", encode_allocs_per_frame)
      .u64("parse_view_allocs", parse_view_allocs)
      .u64("codec_iters", kCodecIters);
  for (const auto& arm : arms) {
    const std::string n = arm.name;
    line.f("ns_" + n + "_encode", arm.legs.encode.ns_per_op, 0)
        .f("ns_" + n + "_decode", arm.legs.decode.ns_per_op, 0)
        .u64("allocs_" + n + "_encode", arm.legs.encode_allocs)
        .u64("allocs_" + n + "_decode", arm.legs.decode_allocs);
  }
  line.g("checksum", checksum);
  bench::emit_json("micro_packet", line);

  bool ok = true;
  if (encode_allocs_per_frame != 1) {
    std::fprintf(stderr,
                 "micro_packet: %llu allocations per encoded frame "
                 "(budget: exactly 1)\n",
                 static_cast<unsigned long long>(encode_allocs_per_frame));
    ok = false;
  }
  if (parse_view_allocs != 0) {
    std::fprintf(stderr,
                 "micro_packet: %llu allocations in steady-state zero-copy "
                 "parse (budget: 0)\n",
                 static_cast<unsigned long long>(parse_view_allocs));
    ok = false;
  }
  for (const auto& arm : arms) {
    if (arm.legs.encode_allocs != arm.encode_budget ||
        arm.legs.decode_allocs != arm.decode_budget) {
      std::fprintf(stderr,
                   "micro_packet: %s codec made %llu allocations per encode and "
                   "%llu per decode (budget: exactly %llu and %llu)\n",
                   arm.name, static_cast<unsigned long long>(arm.legs.encode_allocs),
                   static_cast<unsigned long long>(arm.legs.decode_allocs),
                   static_cast<unsigned long long>(arm.encode_budget),
                   static_cast<unsigned long long>(arm.decode_budget));
      ok = false;
    }
    if (arm.legs.decode.checksum < 0) {
      std::fprintf(stderr, "micro_packet: %s failed to decode\n", arm.name);
      ok = false;
    }
  }
  if (copy_64.checksum < 0 || copy_4096.checksum < 0 ||
      view_64.checksum < 0 || view_4096.checksum < 0 || view_384k.checksum < 0) {
    std::fprintf(stderr, "micro_packet: a parse leg failed to round-trip\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
