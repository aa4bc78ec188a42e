// One declarative codec for every lingua franca message.
//
// A message describes its wire layout once, as a field list that a member
// template hands to whichever archive visits it:
//
//   struct ReportBatch {
//     Endpoint client;
//     std::uint64_t seq = 0;
//     std::vector<ramsey::WorkReport> reports;
//
//     static constexpr wire::Format kWire = sched_wire(msgtype::kSchedReportBatch);
//     template <class Ar> void fields(Ar& ar) { ar(client, seq, reports); }
//     Status validate() const;  // optional: semantic checks after decode
//   };
//
// encode() writes the fields in order; decode() reads them back through one
// set of guards. Field kinds and their encodings (integers little-endian, as
// in serialize.hpp):
//   * bool: u8 0/1 (anything else is rejected); integers: their own width;
//     double: its IEEE-754 bits;
//   * wire::as<W>(field): an integer field carried as the narrower W;
//   * enums: their underlying integer, rejected unless below enum_count(E{}),
//     a constexpr function declared next to the enum (found by ADL);
//   * std::string and Bytes: u32 length + bytes;
//   * std::vector<T> and std::map<K, V>: u32 count + elements, a map entry
//     being its key then its value. The count is rejected above the format's
//     max_list, or above remaining bytes / min_wire<T>(), before any memory
//     is reserved;
//   * std::optional<T>: a bool presence flag, then T when present. T may be
//     an image (a type with serialize(), deserialize() and kMaxImage, e.g. a
//     ColoredGraph): a blob of at most kMaxImage bytes, decoded by the
//     type's own deserialize();
//   * nested messages (types with fields()): their fields inline.
// After a message's fields decode, its validate() runs if it has one; it may
// also normalise the value (View sorts its members). Bytes after the last
// field are ignored. Every decode failure is Err::kProtocol.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/serialize.hpp"

namespace ew::wire {

/// How a top-level message travels.
struct Format {
  /// Envelope version written on encode; decode accepts [1, version]. 0 means
  /// the message has no envelope.
  std::uint8_t version = 0;
  /// Envelope kind: the MsgType the payload travels under. A payload decoded
  /// as another kind is rejected instead of misread.
  std::uint16_t kind = 0;
  /// Ceiling on every list count in the message, nested lists included.
  std::uint32_t max_list = 0;
};

/// An integer field carried on the wire as the narrower type W.
template <class W, class T>
struct As {
  using wire_type = W;
  T& value;
};
template <class W, class T>
As<W, T> as(T& value) {
  return {value};
}

/// The result a validate() hook returns: ok, or a protocol error.
inline Status check(bool ok, const char* what) {
  return ok ? Status{} : Status(Err::kProtocol, what);
}

namespace detail {

struct Probe {
  template <class... F>
  void operator()(F&&...) {}
};

template <class T>
concept Message = requires(T& t, Probe& p) { t.fields(p); };
template <class T>
concept Image = requires { T::kMaxImage; };

template <class T>
inline constexpr bool is_as = false;
template <class W, class T>
inline constexpr bool is_as<As<W, T>> = true;
template <class T>
inline constexpr bool is_optional = false;
template <class T>
inline constexpr bool is_optional<std::optional<T>> = true;
template <class T>
inline constexpr bool is_pair = false;
template <class K, class V>
inline constexpr bool is_pair<std::pair<K, V>> = true;
template <class T>
inline constexpr bool is_vector = false;
template <class T>
inline constexpr bool is_vector<std::vector<T>> = !std::is_same_v<T, std::uint8_t>;
template <class T>
inline constexpr bool is_map = false;
template <class K, class V>
inline constexpr bool is_map<std::map<K, V>> = true;

/// The element a list's count counts: a vector's value, a map's entry.
template <class T>
struct element {
  using type = typename T::value_type;
};
template <class K, class V>
struct element<std::map<K, V>> {
  using type = std::pair<K, V>;
};

template <class T>
constexpr Format format_of() {
  if constexpr (requires { T::kWire; }) {
    return T::kWire;
  } else {
    return Format{};
  }
}

/// Wire bytes of a type or value, and whether that size is fixed.
struct Shape {
  std::size_t bytes = 0;
  bool fixed = true;
};

template <class T>
Shape shape();

/// Sums the minimum wire size of the fields of a type: a string, list or
/// optional counts its length, count or flag alone and makes the type not
/// fixed.
class Sizer {
 public:
  template <class... F>
  void operator()(F&&...) {
    (add<std::decay_t<F>>(), ...);
  }

  template <class T>
  void add() {
    if constexpr (is_as<T>) {
      result.bytes += sizeof(typename T::wire_type);
    } else {
      const Shape s = shape<T>();
      result.bytes += s.bytes;
      result.fixed = result.fixed && s.fixed;
    }
  }

  Shape result;
};

template <class T>
Shape shape() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return {sizeof(T), true};
  } else if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, Bytes> ||
                       Image<T>) {
    return {4, false};
  } else if constexpr (is_optional<T>) {
    return {1, false};
  } else if constexpr (is_vector<T> || is_map<T>) {
    return {4, false};
  } else if constexpr (is_pair<T>) {
    const Shape k = shape<typename T::first_type>();
    const Shape v = shape<typename T::second_type>();
    return {k.bytes + v.bytes, k.fixed && v.fixed};
  } else {
    static_assert(Message<T>, "type has no wire encoding");
    static const Shape s = [] {
      T t{};
      Sizer z;
      t.fields(z);
      return z.result;
    }();
    return s;
  }
}

/// Sums the encoded size of the values it visits. An image's size is known
/// only to its serialize(), so a present image clears `exact`.
class ValueSizer {
 public:
  template <class... F>
  void operator()(F&&... f) {
    (add(f), ...);
  }

  template <class T>
  void add(const T& v) {
    if constexpr (is_as<T>) {
      bytes += sizeof(typename T::wire_type);
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      bytes += sizeof(T);
    } else if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, Bytes>) {
      bytes += 4 + v.size();
    } else if constexpr (Image<T>) {
      exact = false;
    } else if constexpr (is_optional<T>) {
      bytes += 1;
      if (v) add(*v);
    } else if constexpr (is_vector<T> || is_map<T>) {
      bytes += 4;
      if (const Shape e = shape<typename element<T>::type>(); e.fixed) {
        bytes += v.size() * e.bytes;
      } else {
        for (const auto& x : v) add(x);
      }
    } else if constexpr (is_pair<T>) {
      add(v.first);
      add(v.second);
    } else {
      const_cast<T&>(v).fields(*this);  // the sizer only reads
    }
  }

  std::size_t bytes = 0;
  bool exact = true;
};

/// Exact encoded size of `v` (no envelope), or nullopt when it holds an
/// image.
template <class T>
std::optional<std::size_t> exact_size(const T& v) {
  ValueSizer s;
  s.add(v);
  if (!s.exact) return std::nullopt;
  return s.bytes;
}

class Encoder {
 public:
  explicit Encoder(Writer& w, std::vector<std::size_t>* counts = nullptr)
      : w_(w), counts_(counts) {}

  template <class... F>
  void operator()(F&&... f) {
    (put(f), ...);
  }

  void envelope(const Format& f) {
    if (f.version == 0) return;
    w_.u8(f.version);
    w_.u16(f.kind);
  }

  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      w_.f64(v);
    } else if constexpr (std::is_integral_v<T>) {
      using U = std::make_unsigned_t<T>;
      if constexpr (sizeof(T) == 1) {
        w_.u8(static_cast<U>(v));
      } else if constexpr (sizeof(T) == 2) {
        w_.u16(static_cast<U>(v));
      } else if constexpr (sizeof(T) == 4) {
        w_.u32(static_cast<U>(v));
      } else {
        w_.u64(static_cast<U>(v));
      }
    } else if constexpr (is_as<T>) {
      put(static_cast<typename T::wire_type>(v.value));
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.str(v);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      w_.blob(v);
    } else if constexpr (Image<T>) {
      w_.blob(v.serialize());
    } else if constexpr (is_optional<T>) {
      w_.boolean(v.has_value());
      if (v) put(*v);
    } else if constexpr (is_vector<T> || is_map<T>) {
      if (counts_ != nullptr) counts_->push_back(w_.size());
      w_.u32(static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) put(e);
    } else if constexpr (is_pair<T>) {
      put(v.first);
      put(v.second);
    } else {
      const_cast<T&>(v).fields(*this);  // the encoder only reads
    }
  }

 private:
  Writer& w_;
  std::vector<std::size_t>* counts_;
};

class Decoder {
 public:
  Decoder(Reader& r, std::uint32_t max_list) : r_(r), max_list_(max_list) {}

  template <class... F>
  void operator()(F&&... f) {
    static_cast<void>((get(f) && ...));  // stops at the first failure
  }

  bool envelope(const Format& f) {
    if (f.version == 0) return true;
    std::uint8_t version = 0;
    std::uint16_t kind = 0;
    if (!get(version)) return false;
    if (version == 0 || version > f.version) return fail("unsupported wire version");
    if (!get(kind)) return false;
    return kind == f.kind || fail("message kind mismatch");
  }

  template <class T>
  bool get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return r_.get_bool(v) || fail(r_.error(Reader::Field::kBool, 1));
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw{};
      if (!get(raw)) return false;
      if (raw >= enum_count(T{})) return fail("enum value out of range");
      v = static_cast<T>(raw);
      return true;
    } else if constexpr (std::is_floating_point_v<T>) {
      std::uint64_t bits = 0;
      if (!scalar(bits)) return false;
      v = std::bit_cast<double>(bits);
      return true;
    } else if constexpr (std::is_integral_v<T>) {
      std::make_unsigned_t<T> u = 0;
      if (!scalar(u)) return false;
      v = static_cast<T>(u);
      return true;
    } else if constexpr (is_as<T>) {
      typename T::wire_type w{};
      if (!get(w)) return false;
      v.value = w;
      return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::span<const std::uint8_t> body;
      if (!body_of(Reader::Field::kString, body)) return false;
      v.assign(reinterpret_cast<const char*>(body.data()), body.size());
      return true;
    } else if constexpr (std::is_same_v<T, Bytes>) {
      std::span<const std::uint8_t> body;
      if (!body_of(Reader::Field::kBlob, body)) return false;
      v.assign(body.begin(), body.end());
      return true;
    } else if constexpr (is_optional<T>) {
      bool present = false;
      if (!get(present)) return false;
      if (!present) {
        v.reset();
        return true;
      }
      using U = typename T::value_type;
      if constexpr (Image<U>) {
        return get_image(v);
      } else {
        return get(v.emplace());
      }
    } else if constexpr (is_vector<T>) {
      std::uint32_t n = 0;
      if (!count<typename T::value_type>(n)) return false;
      v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!get(v.emplace_back())) return false;
      }
      return true;
    } else if constexpr (is_map<T>) {
      std::uint32_t n = 0;
      if (!count<typename element<T>::type>(n)) return false;
      for (std::uint32_t i = 0; i < n; ++i) {
        typename element<T>::type e{};
        if (!get(e)) return false;
        v.insert_or_assign(std::move(e.first), std::move(e.second));
      }
      return true;
    } else if constexpr (is_pair<T>) {
      return get(v.first) && get(v.second);
    } else {
      v.fields(*this);
      if (!ok_) return false;
      if constexpr (requires { v.validate(); }) {
        if (Status s = v.validate(); !s.ok()) return fail(s.error());
      }
      return true;
    }
  }

  [[nodiscard]] const Error& error() const { return error_; }

 private:
  bool fail(Error e) {
    ok_ = false;
    error_ = std::move(e);
    return false;
  }
  bool fail(const char* what) { return fail(Error{Err::kProtocol, what}); }

  /// An unsigned integer of its own width.
  template <std::unsigned_integral U>
  bool scalar(U& u) {
    return r_.get_le(u) || fail(r_.error(Reader::Field::kValue, sizeof(U)));
  }

  /// A u32 length, then a view of that many bytes (a string's or a blob's).
  bool body_of(Reader::Field f, std::span<const std::uint8_t>& body) {
    std::uint32_t len = 0;
    if (!scalar(len)) return false;
    return r_.get_bytes(len, body) || fail(r_.error(f, len));
  }

  /// The guard every list shares: the family ceiling, then the bytes left.
  template <class E>
  bool count(std::uint32_t& n) {
    if (!get(n)) return false;
    if (n > max_list_) return fail("list count above ceiling");
    if (n > r_.remaining() / shape<E>().bytes) return fail("list count exceeds payload");
    return true;
  }

  template <class U>
  bool get_image(std::optional<U>& dst) {
    std::uint32_t len = 0;
    if (!get(len)) return false;
    if (len > U::kMaxImage) return fail("oversized image");
    auto raw = r_.raw(len);
    if (!raw) return fail(raw.error());
    auto image = U::deserialize(*raw);
    if (!image) return fail(image.error());
    dst = std::move(*image);
    return true;
  }

  Reader& r_;
  std::uint32_t max_list_;
  bool ok_ = true;
  Error error_;
};

}  // namespace detail

/// Minimum wire size of one T: what a list count is checked against.
template <class T>
std::size_t min_wire() {
  return detail::shape<T>().bytes;
}

/// Appends v's fields to w (no envelope).
template <class T>
void write(Writer& w, const T& v) {
  detail::Encoder(w).put(v);
}

/// Encodes v: the envelope of `f`, then the fields.
template <class T>
Bytes encode(const T& v, const Format& f = detail::format_of<T>()) {
  const std::optional<std::size_t> exact = detail::exact_size(v);
  Writer w(exact ? *exact + (f.version != 0 ? 3 : 0) : 0);
  detail::Encoder e(w);
  e.envelope(f);
  e.put(v);
  return w.take();
}

/// Decodes a T from data through the guards of `f`.
template <class T>
Result<T> decode(std::span<const std::uint8_t> data,
                 const Format& f = detail::format_of<T>()) {
  Reader r(data);
  detail::Decoder d(r, f.max_list);
  T v{};
  if (!d.envelope(f) || !d.get(v)) return d.error();
  return v;
}

/// Byte offsets of every list count in encode(v, f), in encoding order.
template <class T>
std::vector<std::size_t> count_offsets(const T& v, const Format& f = detail::format_of<T>()) {
  std::vector<std::size_t> out;
  Writer w;
  detail::Encoder e(w, &out);
  e.envelope(f);
  e.put(v);
  return out;
}

}  // namespace ew::wire
