// Golden pins for every wire codec: the exact bytes of one fixed instance of
// each message, and a digest of what each decoder does with a seeded corpus
// of hostile inputs (random bytes, byte flips and truncations of the golden
// encoding, and hostile u32 counts written at every offset). The digest folds
// in, for each input, whether it was accepted and the bytes the decoded value
// re-encodes to, so it pins the accept/reject set and the decoded values.
// A second digest over the same corpus folds in each rejection's error code
// and message text. A codec rewrite must leave every pin unchanged. The frame that carries
// every message (wire v3 header + CRC32C) is pinned here too.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "common/hash.hpp"
#include "net/packet.hpp"
#include "wire_samples.hpp"

namespace ew {
namespace {

struct Golden {
  const char* hex;
  std::uint64_t digest;
};

// Regenerate only for a deliberate wire-format change: a failing run prints
// the current values in this layout.
const std::map<std::string, Golden>& pins() {
  static const std::map<std::string, Golden> table = {
      {"gossip.Registration",
       {"060000006e6f64652d61591b03000000010302030303",
        0xb66bf9fbafe1fea9ULL}},
      {"gossip.Digest",
       {"0300000002000000010305000000000000000df0fecaefbeadde02030000000000000000010000000000000004000000000000003412000000000000",
        0x5fd153ea74ce673aULL}},
      {"gossip.Delta",
       {"020000000200000001030300000001020302030000000001000000030302000000060000006e6f64652d61591b03000000010302030303060000006e6f64652d625a1b010000000403",
        0x736936a56341da56ULL}},
      {"gossip.ParentDigest",
       {"02000000010000000200000000000000030000000000000004000000000000000500000000000000060000000700000000000000080000000000000009000000000000000a00000000000000",
        0x9f020493ffa71b18ULL}},
      {"gossip.TypeList",
       {"0200000001010203",
        0x9eb4fd55b9103b60ULL}},
      {"gossip.BlobList",
       {"020000000700020000000908080000000000",
        0xdec733c2bb70d064ULL}},
      {"gossip.PollRequest",
       {"02000000010303000000000000000900000000000000020300000000000000000000000000000000",
        0xa78ebac89bcff20dULL}},
      {"gossip.PollReply",
       {"01010000000103020000000405",
        0xc5e764d0b38ac5e3ULL}},
      {"gossip.View",
       {"0900000000000000060000006e6f64652d625a1b02000000060000006e6f64652d61591b060000006e6f64652d625a1b",
        0x585fbd4803922be8ULL}},
      {"gossip.Token",
       {"0b000000000000000900000000000000060000006e6f64652d625a1b02000000060000006e6f64652d61591b060000006e6f64652d625a1b01000000060000006e6f64652d61591b01000000060000006e6f64652d635b1b",
        0x398db1df2af9db65ULL}},
      {"ramsey.WorkSpec",
       {"05000000000000001104024d00000000000000e8030000000000000131000000063c0000000000000038000000000000002900000000000000270000000000000003000000000000000f00000000000000",
        0xe94fef00ccd45368ULL}},
      {"ramsey.WorkReport",
       {"0600000000000000d007000000000000210000000000000001290000000504000000000000001c000000000000000b0000000000000006000000000000000200000000000000",
        0xa4325fecce8222baULL}},
      {"core.ClientHello",
       {"020102060000006e6f64652d61591b0306000000686f73742d3108000000",
        0x3d14797f05c5adb8ULL}},
      {"core.ReportBatch",
       {"020302060000006e6f64652d61591b070000000000000003000000020000000600000000000000d007000000000000210000000000000001290000000504000000000000001c000000000000000b000000000000000600000000000000020000000000000009000000000000000a000000000000000b000000000000000000000000",
        0xc8c7db0060bce2faULL}},
      {"core.DirectiveBatch",
       {"0204020200000009000000000000000b000000000000000200000005000000000000001104024d00000000000000e8030000000000000131000000063c0000000000000038000000000000002900000000000000270000000000000003000000000000000f000000000000000c00000000000000110401010000000000000080f0fa020000000000",
        0x6cbbcdfe1074ec7fULL}},
      {"core.LogRecord",
       {"40e2010000000000060000006e6f64652d625a1b0606000000686f73742d32e803000000000000280000000000000001",
        0xed5a3b45e730c3aaULL}},
      {"core.StoreRequest",
       {"1000000072616d7365792f626573742f31372f3403000000010203",
        0xabf342c2fdda20f2ULL}},
      {"core.ServerList",
       {"02000000060000006e6f64652d61591b0500000000000000060000006e6f64652d635b1b0200000000000000",
        0xd6d74f627024e88fULL}},
      {"nws.NwsMeasurement",
       {"0a0000006370753a686f73742d31000000000000e83f",
        0x90eb6fa6ff25779cULL}},
      {"nws.NwsForecastReply",
       {"000000000000e03f7b14ae47e17a843f0c00000000000000060000006d656469616e",
        0xb390155619539d5dULL}},
      {"wish.SpawnRequest",
       {"010104060000006e6f64652d61591b020000000c000000736f7274202f746d702f696ec0c62d0000000000000000000000000000000000",
        0x2568bef117f291b4ULL}},
      {"wish.SpawnReply",
       {"01010407000000000000000200000001000000070000000200000007000000",
        0xbebb2442e6d8a9b1ULL}},
      {"wish.PollRequest",
       {"01020403000000010000000000000002000000000000006300000000000000",
        0xc7aa8cd0e3580d0eULL}},
      {"wish.PollReply",
       {"010204020000000000000002000000010000000000000002fdffffffffffffff6300000000000000040000000000000000",
        0x335ba214063a5f0cULL}},
      {"wish.SignalRequest",
       {"0103042a0000000000000009",
        0x30cf716a4061a3a0ULL}},
      {"wish.SignalReply",
       {"01030403",
        0x6dd423f5cd670438ULL}},
      {"wish.ReapRequest",
       {"0104040200000001000000000000000500000000000000",
        0xe6964ba90477219eULL}},
      {"wish.ReapReply",
       {"01040402000000",
        0x82273f2df589daa5ULL}},
      {"wish.BarrierEnter",
       {"0107040400000062617230030000000000000008000000060000006e6f64652d625a1b01",
        0xb72a8d97835fdf71ULL}},
      {"wish.BarrierEnterReply",
       {"010704010400000000000000",
        0x750781a091fd9003ULL}},
      {"wish.BarrierRelease",
       {"01080404000000626172300300000000000000",
        0x77f44b4a1bbd0857ULL}},
      {"wish.LeaderClaim",
       {"010904050000006c65616430010000000000000006000000776973682d32",
        0x9c213fadaa9083fbULL}},
      {"wish.LeaderReply",
       {"01090406000000776973682d320900000000000000",
        0x612c60e8c688664bULL}},
      {"wish.ScatterRequest",
       {"010a0403000000736330020000000000000004000000deadbeef02000000060000006e6f64652d625a1b060000006e6f64652d635b1b",
        0xe6d6adcdcd462942ULL}},
      {"wish.ScatterReply",
       {"010a0405000000efcdab9078563412",
        0x413f11e85ee684e6ULL}},
      {"wish.EnvStore",
       {"03000000000000000200000004000000484f4d45050000002f677269640100000000000000ce110a00000000000400000050415448080000002f7573722f62696e0200000000000000ce110a0000000000",
        0x47a488f7c6580f5aULL}},
  };
  return table;
}

std::string to_hex(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t x : b) {
    out += digits[x >> 4];
    out += digits[x & 0xf];
  }
  return out;
}

class Fnv {
 public:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    for (std::uint8_t x : b) byte(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// The seeded corpus for one golden encoding.
std::vector<Bytes> corpus(const std::string& name, const Bytes& valid) {
  std::vector<Bytes> out{valid};
  Rng rng(fnv1a64(name));
  for (int i = 0; i < 64; ++i) {
    Bytes junk(rng.below(valid.size() + 17));
    for (auto& x : junk) x = static_cast<std::uint8_t>(rng.below(256));
    out.push_back(std::move(junk));
  }
  for (std::size_t pos = 0; pos < valid.size(); ++pos) {
    for (std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      Bytes m = valid;
      m[pos] ^= flip;
      out.push_back(std::move(m));
    }
  }
  for (std::size_t len = 0; len < valid.size(); ++len) {
    out.emplace_back(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
  }
  // Hostile counts: one past each family ceiling, and the largest u32.
  for (std::size_t pos = 0; pos + 4 <= valid.size(); ++pos) {
    for (std::uint32_t count : {65'537u, 100'001u, 0xFFFF'FFFFu}) {
      Bytes m = valid;
      for (int i = 0; i < 4; ++i) m[pos + i] = static_cast<std::uint8_t>(count >> (8 * i));
      out.push_back(std::move(m));
    }
  }
  return out;
}

template <class T>
std::optional<Bytes> reencode(const Bytes& data) {
  auto decoded = T::deserialize(data);
  if (!decoded.ok()) return std::nullopt;
  return decoded->serialize();
}

TEST(WireGolden, EncodingsAndDecoderDigestsArePinned) {
  int checked = 0;
  std::string report;
  wire_samples::for_each_sample([&](const char* name, const auto& sample) {
    using T = std::decay_t<decltype(sample)>;
    SCOPED_TRACE(name);
    const Bytes valid = sample.serialize();
    const auto back = reencode<T>(valid);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, valid);

    Fnv digest;
    for (const Bytes& input : corpus(name, valid)) {
      const auto out = reencode<T>(input);
      digest.byte(out ? 1 : 0);
      if (out) digest.bytes(*out);
    }

    const std::string hex = to_hex(valid);
    char line[64];
    std::snprintf(line, sizeof(line), "0x%016llxULL",
                  static_cast<unsigned long long>(digest.value()));
    const auto it = pins().find(name);
    if (it == pins().end() || hex != it->second.hex ||
        digest.value() != it->second.digest) {
      ADD_FAILURE() << "pin mismatch";
      report += std::string("      {\"") + name + "\",\n       {\"" + hex + "\",\n        " +
                line + "}},\n";
    }
    ++checked;
  });
  EXPECT_EQ(checked, static_cast<int>(pins().size()));
  if (!report.empty()) std::printf("Current pins:\n%s", report.c_str());
}

// Digest of the error each decoder returns over the corpus above: for each
// rejected input, its Err code and message text. Regenerate only for a
// deliberate change to a decode error; a failing run prints the current
// values in this layout.
const std::map<std::string, std::uint64_t>& error_pins() {
  static const std::map<std::string, std::uint64_t> table = {
      {"gossip.Registration", 0x2ed8fca12f78e893ULL},
      {"gossip.Digest", 0xd95a3dce20e7ef66ULL},
      {"gossip.Delta", 0xcb76e96f740bacefULL},
      {"gossip.ParentDigest", 0x9872622983c11f48ULL},
      {"gossip.TypeList", 0x3ac54bfbe1922b1aULL},
      {"gossip.BlobList", 0xd4d211e456b4c770ULL},
      {"gossip.PollRequest", 0x4311cf4378aad06cULL},
      {"gossip.PollReply", 0x199b6257fbdf5795ULL},
      {"gossip.View", 0x1a24307f536e66a6ULL},
      {"gossip.Token", 0xbebb2518befbe7cfULL},
      {"ramsey.WorkSpec", 0x201c8ac24bdcb3d2ULL},
      {"ramsey.WorkReport", 0x350d59754c805817ULL},
      {"core.ClientHello", 0x67b0041609e50452ULL},
      {"core.ReportBatch", 0x3b6f90362bc2ef6bULL},
      {"core.DirectiveBatch", 0x61e40428b04e1d9fULL},
      {"core.LogRecord", 0x976c4fa4be1defb1ULL},
      {"core.StoreRequest", 0xef02433e7cf910edULL},
      {"core.ServerList", 0xf827caf759ee9f1aULL},
      {"nws.NwsMeasurement", 0x7c51c176878a5b85ULL},
      {"nws.NwsForecastReply", 0x1b101dbb80541214ULL},
      {"wish.SpawnRequest", 0x4987dc36dc9061f6ULL},
      {"wish.SpawnReply", 0x7ce17eca8884673fULL},
      {"wish.PollRequest", 0x0f0e869e00a68797ULL},
      {"wish.PollReply", 0x72c1d1e78ff02147ULL},
      {"wish.SignalRequest", 0xebd9c10a7505d252ULL},
      {"wish.SignalReply", 0x3dd83ed399bf6ac1ULL},
      {"wish.ReapRequest", 0x1de3b6a7b9a004b7ULL},
      {"wish.ReapReply", 0x10abfc6d59746b97ULL},
      {"wish.BarrierEnter", 0xd7f08e149d25a3b7ULL},
      {"wish.BarrierEnterReply", 0x9293141063ed9243ULL},
      {"wish.BarrierRelease", 0xc963ee47bde2b00aULL},
      {"wish.LeaderClaim", 0x419a03fa6791a777ULL},
      {"wish.LeaderReply", 0x6ff3ca6ca65c3561ULL},
      {"wish.ScatterRequest", 0x2cdcedf0e77dee0bULL},
      {"wish.ScatterReply", 0x968a964c779b32a2ULL},
      {"wish.EnvStore", 0x4e60721c26e1385eULL},
  };
  return table;
}

TEST(WireGolden, DecodeErrorMessagesArePinned) {
  int checked = 0;
  std::string report;
  wire_samples::for_each_sample([&](const char* name, const auto& sample) {
    using T = std::decay_t<decltype(sample)>;
    Fnv digest;
    for (const Bytes& input : corpus(name, sample.serialize())) {
      const auto decoded = T::deserialize(input);
      if (decoded.ok()) continue;
      const Error& e = decoded.error();
      digest.byte(static_cast<std::uint8_t>(e.code));
      digest.bytes(Bytes(e.message.begin(), e.message.end()));
    }
    char line[96];
    std::snprintf(line, sizeof(line), "0x%016llxULL",
                  static_cast<unsigned long long>(digest.value()));
    const auto it = error_pins().find(name);
    if (it == error_pins().end() || digest.value() != it->second) {
      ADD_FAILURE() << "error pin mismatch: " << name;
      report += std::string("      {\"") + name + "\", " + line + "},\n";
    }
    ++checked;
  });
  EXPECT_EQ(checked, static_cast<int>(error_pins().size()));
  if (!report.empty()) std::printf("Current error pins:\n%s", report.c_str());
}

// Every sample the golden pins and the property suite share: a message
// with no image field (an optional<ColoredGraph>, whose size encode cannot
// count ahead) is sized exactly before it is encoded, so its bytes come
// from one reservation that never grew.
TEST(WireGolden, EncodeWithoutAnImageReservesOnce) {
  const std::set<std::string> with_image = {"ramsey.WorkSpec", "core.DirectiveBatch"};
  int checked = 0;
  wire_samples::for_each_sample([&](const char* name, const auto& sample) {
    if (with_image.contains(name)) return;
    const Bytes b = sample.serialize();
    EXPECT_EQ(b.capacity(), b.size()) << name;
    ++checked;
  });
  EXPECT_EQ(checked, static_cast<int>(pins().size() - with_image.size()));
}

/// Bit-at-a-time CRC32C (reflected 0x82F63B78), independent of the kernels
/// behind wire::checksum.
std::uint32_t reference_crc32c(std::span<const std::uint8_t> data,
                               std::uint32_t crc) {
  crc = ~crc;
  for (std::uint8_t b : data) {
    crc ^= b;
    for (int i = 0; i < 8; ++i) crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
  }
  return ~crc;
}

TEST(WireGolden, FrameV3IsPinnedByteForByte) {
  // The frame around every message (net/packet.hpp), pinned the same way.
  const std::string_view text = "EveryWare";
  Packet p;
  p.kind = PacketKind::kRequest;
  p.type = 0x0102;
  p.seq = 0x0807060504030201ull;
  p.payload.assign(text.begin(), text.end());
  const Bytes frame = encode_packet(p);
  EXPECT_EQ(to_hex(frame),
            "52575645"          // magic 'EVWR'
            "03"                // version
            "01"                // kind: request
            "0201"              // type
            "0102030405060708"  // seq
            "09000000"          // length
            "0e078050"          // checksum (little-endian)
            "4576657279576172" "65");
  // The checksum field holds CRC32C over bytes 4..19, then the payload.
  const auto bytes = std::span<const std::uint8_t>(frame);
  const std::uint32_t want = reference_crc32c(
      bytes.subspan(wire::kHeaderSize),
      reference_crc32c(bytes.subspan(4, 16), 0));
  Reader r(bytes.subspan(wire::kChecksumOffset, 4));
  EXPECT_EQ(*r.u32(), want);
  EXPECT_EQ(wire::checksum(frame), want);
}

}  // namespace
}  // namespace ew
