#include "gossip/protocol.hpp"

#include <algorithm>

namespace ew::gossip {

bool View::contains(const Endpoint& e) const {
  return std::binary_search(members.begin(), members.end(), e);
}

bool View::newer_than(const View& other) const {
  if (generation != other.generation) return generation > other.generation;
  return leader < other.leader;
}

Status View::validate() {
  std::sort(members.begin(), members.end());
  return {};
}

}  // namespace ew::gossip
