// Two-colored complete graphs for Ramsey counter-example search (paper §3).
//
// A counter-example for the n-th Ramsey number on j vertices is a
// two-coloring of the complete graph K_j with no monochromatic K_n. Vertices
// are limited to 64 so a color class's neighbourhood is one machine word;
// the clique-counting kernels (clique.hpp) are bitmask intersections, which
// is also what makes the integer-operation instrumentation of Section 4
// meaningful (the work really is "integer test and arithmetic").
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace ew::ramsey {

/// Edge colors. A complete graph stores one bit per edge: set = red.
enum class Color : std::uint8_t { kRed = 0, kBlue = 1 };

constexpr Color other(Color c) {
  return c == Color::kRed ? Color::kBlue : Color::kRed;
}

/// A two-colored complete graph on up to 64 vertices.
class ColoredGraph {
 public:
  static constexpr int kMaxVertices = 64;

  /// All edges blue initially.
  explicit ColoredGraph(int n);

  [[nodiscard]] int order() const { return n_; }
  [[nodiscard]] int edge_count() const { return n_ * (n_ - 1) / 2; }

  [[nodiscard]] Color color(int i, int j) const;
  void set_color(int i, int j, Color c);
  void flip(int i, int j) { set_color(i, j, other(color(i, j))); }

  /// Bitmask of vertices adjacent to v by an edge of color c (excludes v).
  [[nodiscard]] std::uint64_t neighbors(Color c, int v) const;

  /// Mask with bits [0, order) set.
  [[nodiscard]] std::uint64_t vertex_mask() const;

  /// Uniformly random coloring.
  static ColoredGraph random(int n, Rng& rng);

  /// Circulant coloring: edge (i, j) is red iff |i - j| mod n is in
  /// `red_offsets` (the set must be closed under negation mod n; this is
  /// checked). The classical small-Ramsey counter-examples are circulant.
  static Result<ColoredGraph> circulant(int n,
                                        const std::vector<int>& red_offsets);

  /// The Paley graph of prime order q ≡ 1 (mod 4): edge (i, j) red iff
  /// i - j is a nonzero quadratic residue mod q. Paley(17) is the unique
  /// counter-example proving R(4,4) > 17.
  static Result<ColoredGraph> paley(int q);

  /// Wire encoding (order + packed red bitmap) for gossip / persistent state.
  /// An image is at most kMaxImage bytes.
  static constexpr std::size_t kMaxImage = 1 + kMaxVertices * 8;
  [[nodiscard]] Bytes serialize() const;
  static Result<ColoredGraph> deserialize(const Bytes& data);

  /// Number of red edges (sanity metric).
  [[nodiscard]] int red_edge_count() const;

  friend bool operator==(const ColoredGraph& a, const ColoredGraph& b);

 private:
  void check_pair(int i, int j) const;
  int n_;
  // red_[i] bit j set <=> edge (i, j) exists and is red. Symmetric.
  std::array<std::uint64_t, kMaxVertices> red_{};
};

}  // namespace ew::ramsey
