// Deterministic fuzz tests: every wire decoder must survive arbitrary bytes
// (returning an error or a valid object, never crashing or reading out of
// bounds) — the lingua franca's peers are federated machines the paper's
// toolkit explicitly does not trust to be well-behaved. The codec properties
// run over every message of the non-WISH families (codec_cases.hpp); the
// WISH family runs them in test_wish.
#include <gtest/gtest.h>

#include "codec_cases.hpp"
#include "net/packet.hpp"
#include "ramsey/graph.hpp"

namespace ew {
namespace {

using codec_cases::cases;

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len + 1);
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

TEST(Fuzz, EveryValidEncodingRoundTrips) {
  codec_cases::expect_round_trips(cases(false));
}

TEST(Fuzz, EveryStrictPrefixIsRejected) {
  codec_cases::expect_strict_prefixes_rejected(cases(false));
}

TEST(Fuzz, EnvelopeVersionAndKindAreEnforced) {
  codec_cases::expect_envelope_enforced(cases(false));
}

TEST(Fuzz, HostileCountsCannotDriveAllocation) {
  codec_cases::expect_hostile_counts_rejected(cases(false));
}

TEST(Fuzz, DecodersSurviveRandomBytes) {
  codec_cases::expect_random_bytes_survived(cases(false), 0xF00D);
}

TEST(Fuzz, DecodersSurviveBitflippedValidEncodings) {
  codec_cases::expect_bit_flips_survived(cases(false));
}

TEST(Fuzz, MinWireIsDerivedFromTheFieldLists) {
  // The smallest encoding of each list element, which the count guard
  // divides the remaining bytes by.
  EXPECT_EQ(wire::min_wire<Endpoint>(), 4u + 2);
  EXPECT_EQ(wire::min_wire<gossip::StateBlob>(), 2u + 4);
  EXPECT_EQ(wire::min_wire<gossip::TypeSummary>(), 2u + 8 + 8);
  EXPECT_EQ(wire::min_wire<gossip::Registration>(), 6u + 4);
  EXPECT_EQ(wire::min_wire<gossip::CliqueSummary>(), 4u + 4 * 8);
  EXPECT_EQ(wire::min_wire<ramsey::WorkSpec>(), 8u + 1 + 1 + 1 + 8 + 8 + 1);
  EXPECT_EQ(wire::min_wire<ramsey::WorkReport>(), 8u + 8 + 8 + 1 + 4);
  EXPECT_EQ(wire::min_wire<wish::JobSpec>(), 4u + 8);
  EXPECT_EQ(wire::min_wire<wish::JobStatus>(), 8u + 1 + 8);
}

TEST(Fuzz, WorkReportRejectsOversizedGraphBlob) {
  // The best-graph blob length is bounded by the largest legal ColoredGraph
  // image; a length field beyond that must be rejected before any copy.
  Writer w;
  w.u64(1);             // unit_id
  w.u64(1000);          // ops_done
  w.u64(40);            // best_energy
  w.boolean(false);     // found
  w.u32(1u << 24);      // blob length: 16 MiB of graph that is not there
  EXPECT_FALSE(ramsey::WorkReport::deserialize(w.take()).ok());
  // A blob one byte past the bound is rejected even when it is all there.
  ramsey::WorkReport big;
  big.best_graph.assign(ramsey::kMaxGraphBlob + 1, 0);
  EXPECT_FALSE(ramsey::WorkReport::deserialize(big.serialize()).ok());
}

TEST(Fuzz, WorkSpecRejectsOversizedResumeImage) {
  // A valid graph image padded past the bound: the graph decoder alone would
  // ignore the padding, the image bound must not.
  Rng rng(0x5EC);
  ramsey::WorkSpec spec;
  spec.resume = ramsey::ColoredGraph::random(6, rng);
  const Bytes image = spec.resume->serialize();
  const Bytes valid = spec.serialize();
  // Everything before the image's length prefix.
  const Bytes head(valid.begin(), valid.end() - static_cast<std::ptrdiff_t>(4 + image.size()));
  const auto with_image_of_size = [&](std::size_t size) {
    Bytes padded = image;
    padded.resize(size, 0);
    Writer w;
    w.raw(head);
    w.blob(padded);
    return w.take();
  };
  EXPECT_TRUE(ramsey::WorkSpec::deserialize(with_image_of_size(ramsey::kMaxGraphBlob)).ok());
  EXPECT_FALSE(ramsey::WorkSpec::deserialize(with_image_of_size(ramsey::kMaxGraphBlob + 1)).ok());
}

TEST(Fuzz, FrameParserSurvivesRandomStreams) {
  Rng rng(0xCAFE);
  for (int trial = 0; trial < 200; ++trial) {
    FrameParser fp;
    for (int chunk = 0; chunk < 20 && !fp.poisoned(); ++chunk) {
      fp.feed(random_bytes(rng, 128));
      for (int i = 0; i < 50; ++i) {
        if (!fp.next().ok()) break;
      }
    }
  }
}

TEST(Fuzz, FrameParserSurvivesCorruptedValidStream) {
  Rng rng(0xD00D);
  Bytes wire;
  for (int i = 0; i < 8; ++i) {
    Packet p;
    p.kind = PacketKind::kRequest;
    p.type = static_cast<MsgType>(i);
    p.seq = static_cast<std::uint64_t>(i);
    p.payload = random_bytes(rng, 64);
    const Bytes one = encode_packet(p);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  for (std::size_t pos = 0; pos < wire.size(); pos += 3) {
    Bytes mutated = wire;
    mutated[pos] ^= 0xFF;
    FrameParser fp;
    fp.feed(mutated);
    int parsed = 0;
    for (int i = 0; i < 64; ++i) {
      auto out = fp.next();
      if (!out.ok()) break;
      ++parsed;
    }
    EXPECT_LE(parsed, 8);
  }
}

TEST(Fuzz, GraphDeserializeNeverYieldsInvalidGraph) {
  // Whatever bytes go in, an accepted graph must satisfy the invariants the
  // rest of the system relies on (symmetry, no self-loops, order bounds).
  Rng rng(0x9A9A);
  int accepted = 0;
  for (int i = 0; i < 20'000; ++i) {
    Bytes junk;
    if (i % 50 == 0) {
      // Seed the stream with near-valid inputs: a valid graph with a couple
      // of random byte mutations (some of these will be accepted, which is
      // exactly when the invariant check below matters).
      const int n = static_cast<int>(1 + rng.below(16));
      junk = ramsey::ColoredGraph::random(n, rng).serialize();
      const int mutations = static_cast<int>(rng.below(3));  // 0..2
      for (int m = 0; m < mutations; ++m) {
        junk[rng.below(junk.size())] ^= static_cast<std::uint8_t>(rng.below(256));
      }
    } else {
      junk = random_bytes(rng, 80);
      if (!junk.empty()) junk[0] = static_cast<std::uint8_t>(1 + rng.below(64));
    }
    auto g = ramsey::ColoredGraph::deserialize(junk);
    if (!g.ok()) continue;
    ++accepted;
    for (int v = 0; v < g->order(); ++v) {
      const auto red = g->neighbors(ramsey::Color::kRed, v);
      ASSERT_EQ(red & ~g->vertex_mask(), 0u);
      ASSERT_EQ((red >> v) & 1u, 0u);
      for (int u = 0; u < g->order(); ++u) {
        if (u == v) continue;
        ASSERT_EQ(g->color(u, v), g->color(v, u));
      }
    }
  }
  // Graphs of order 1..2 with correct length are easy to hit; just make
  // sure the check above ran at least once on something.
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace ew
