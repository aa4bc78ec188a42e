#include "wish/protocol.hpp"

#include "common/hash.hpp"

namespace ew::wish {

std::uint64_t scatter_fold(const Endpoint& self, const Bytes& payload) {
  std::uint64_t h = fnv1a64(self.to_string());
  h ^= fnv1a64(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
  return h;
}

}  // namespace ew::wish
