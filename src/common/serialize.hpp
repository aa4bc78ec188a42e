// Byte-order-safe serialization for the lingua franca.
//
// The paper deliberately avoided XDR "for fear that it would not be readily
// available in all environments" (Section 2.1) and hand-rolled a portable
// encoding instead. We do the same: all multi-byte integers are written
// little-endian byte-by-byte, floats travel as IEEE-754 bit patterns, and
// strings/blobs are length-prefixed. Reader performs strict bounds checking
// so malformed packets from the wire can never read out of range.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace ew {

/// Raw byte buffer used throughout the messaging stack.
using Bytes = std::vector<std::uint8_t>;

namespace detail {

/// Little-endian store and load in the byte-order-safe shift form: the
/// bytes are the same on any host. Written out byte by byte (not as a
/// loop, which GCC does not unroll at -O2) so that GCC merges each into a
/// single move.
template <std::unsigned_integral T>
void store_le(std::uint8_t* p, T v) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((p[I] = static_cast<std::uint8_t>(v >> (8 * I))), ...);
  }(std::make_index_sequence<sizeof(T)>{});
}

template <std::unsigned_integral T>
T load_le(const std::uint8_t* p) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return static_cast<T>((static_cast<T>(static_cast<T>(p[I]) << (8 * I)) | ...));
  }(std::make_index_sequence<sizeof(T)>{});
}

}  // namespace detail

/// Appends primitive values to a growing byte buffer in a fixed wire format.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { *grow(1) = v; }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { append_le(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) UTF-8/opaque string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Length-prefixed (u32) opaque byte blob.
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
  }

  /// Raw bytes with no length prefix (caller manages framing).
  void raw(std::span<const std::uint8_t> b) {
    if (buf_.size() - size_ < b.size()) {
      append_past_room(b);
      return;
    }
    std::copy(b.begin(), b.end(), buf_.data() + size_);
    size_ += b.size();
  }

  /// Overwrite 4 already-written bytes at `offset` (little-endian). Lets a
  /// single-pass encoder leave a placeholder for a value — a checksum, a
  /// length — that is only known after the bytes it covers are written.
  void patch_u32(std::size_t offset, std::uint32_t v) {
    detail::store_le(buf_.data() + offset, v);
  }

  /// The bytes written so far (drops the zeroed room after them).
  [[nodiscard]] const Bytes& bytes() {
    buf_.resize(size_);
    return buf_;
  }
  Bytes take() {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// Bytes a Writer zeroes ahead of its writes at a time, within the
  /// capacity it already has.
  static constexpr std::size_t kRoom = 256;

  /// Claims the next n bytes and returns where they start: the buffer
  /// grows at most once per value, then the value is stored through the
  /// pointer.
  std::uint8_t* grow(std::size_t n) {
    if (buf_.size() - size_ < n) [[unlikely]] make_room(n);
    std::uint8_t* p = buf_.data() + size_;
    size_ += n;
    return p;
  }
  void make_room(std::size_t n);
  void append_past_room(std::span<const std::uint8_t> b);

  template <std::unsigned_integral T>
  void append_le(T v) {
    detail::store_le(grow(sizeof(T)), v);
  }

  Bytes buf_;  // [0, size_) is written; the rest is zeroed room for more
  std::size_t size_ = 0;
};

/// Bounds-checked reader over a byte span, so that truncated or malicious
/// packets surface as Err::kProtocol, never UB.
///
/// The get_* primitives are the one implementation of each read. They are
/// inline and build nothing: each returns false on failure and has then
/// consumed nothing, and error() builds the Error that failure reports.
/// The Result accessors (u8() ... raw()) are thin wrappers over them.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  /// A little-endian unsigned integer of its own width.
  template <std::unsigned_integral T>
  bool get_le(T& v) {
    if (remaining() < sizeof(T)) [[unlikely]] return false;
    v = detail::load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  /// A bool: one byte, 0 or 1. Any other byte fails.
  bool get_bool(bool& v) {
    if (remaining() < 1 || data_[pos_] > 1) [[unlikely]] return false;
    v = data_[pos_++] == 1;
    return true;
  }

  /// A view of the next n bytes, valid as long as the bytes the Reader was
  /// constructed over.
  bool get_bytes(std::size_t n, std::span<const std::uint8_t>& out) {
    if (remaining() < n) [[unlikely]] return false;
    out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  /// What a failed primitive was reading.
  enum class Field : std::uint8_t {
    kValue,   // get_le of `need` bytes
    kBool,    // get_bool
    kString,  // get_bytes of a string body of `need` bytes
    kBlob,    // get_bytes of a blob (or raw) body of `need` bytes
  };
  /// The Err::kProtocol error a failed read of `f` reports. Built only on
  /// the failure path; the reader is still where the read started.
  [[gnu::cold]] [[nodiscard]] Error error(Field f, std::size_t need) const;

  Result<std::uint8_t> u8() { return read<std::uint8_t, std::uint8_t>(); }
  Result<std::uint16_t> u16() { return read<std::uint16_t, std::uint16_t>(); }
  Result<std::uint32_t> u32() { return read<std::uint32_t, std::uint32_t>(); }
  Result<std::uint64_t> u64() { return read<std::uint64_t, std::uint64_t>(); }
  Result<std::int32_t> i32() { return read<std::int32_t, std::uint32_t>(); }
  Result<std::int64_t> i64() { return read<std::int64_t, std::uint64_t>(); }
  Result<double> f64() { return read<double, std::uint64_t>(); }
  Result<bool> boolean() {
    bool v = false;
    if (!get_bool(v)) return error(Field::kBool, 1);
    return v;
  }
  /// Length-prefixed string (rejects lengths beyond the remaining bytes).
  Result<std::string> str() {
    std::uint32_t len = 0;
    if (!get_le(len)) return error(Field::kValue, sizeof(len));
    std::span<const std::uint8_t> body;
    if (!get_bytes(len, body)) return error(Field::kString, len);
    return std::string(reinterpret_cast<const char*>(body.data()), body.size());
  }
  /// Length-prefixed blob.
  Result<Bytes> blob() {
    std::uint32_t len = 0;
    if (!get_le(len)) return error(Field::kValue, sizeof(len));
    return raw(len);
  }
  /// Exactly n raw bytes.
  Result<Bytes> raw(std::size_t n) {
    std::span<const std::uint8_t> body;
    if (!get_bytes(n, body)) return error(Field::kBlob, n);
    return Bytes(body.begin(), body.end());
  }

  /// Zero-copy view of the unread tail (does not consume). Valid as long as
  /// the bytes the Reader was constructed over.
  [[nodiscard]] std::span<const std::uint8_t> rest() const {
    return data_.subspan(pos_);
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  /// T carried as the unsigned integer U of its width.
  template <class T, std::unsigned_integral U>
  Result<T> read() {
    U v = 0;
    if (!get_le(v)) return error(Field::kValue, sizeof(U));
    return std::bit_cast<T>(v);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ew
