#include "common/serialize.hpp"

namespace ew {

void Writer::make_room(std::size_t n) {
  // Within the capacity the buffer has, zero a bounded stretch ahead of the
  // writes; past it, the vector grows geometrically.
  buf_.resize(std::max(size_ + n, std::min(buf_.capacity(), size_ + kRoom)));
}

void Writer::append_past_room(std::span<const std::uint8_t> b) {
  // A span longer than the room is copied in without zeroing first.
  buf_.resize(size_);
  buf_.insert(buf_.end(), b.begin(), b.end());
  size_ = buf_.size();
}

Error Reader::error(Field f, std::size_t need) const {
  switch (f) {
    case Field::kBool:
      if (remaining() >= 1) return Error{Err::kProtocol, "bad boolean encoding"};
      break;
    case Field::kString:
      return Error{Err::kProtocol, "string length " + std::to_string(need) +
                                       " exceeds remaining " + std::to_string(remaining())};
    case Field::kBlob:
      return Error{Err::kProtocol, "blob length " + std::to_string(need) +
                                       " exceeds remaining " + std::to_string(remaining())};
    case Field::kValue:
      break;
  }
  return Error{Err::kProtocol, "truncated: need " + std::to_string(need) +
                                   " bytes, have " + std::to_string(remaining())};
}

}  // namespace ew
