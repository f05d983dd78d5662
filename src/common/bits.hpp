// Prefix/bit helpers for m-bit identifiers.
//
// The locality-preserving hash and the query-routing algorithms index
// bits *from the left* (most significant first), 1-based, exactly as the
// paper's pseudocode does: "the i-th bit is the one in the i-th position
// (from the left) of the m bits identifier".
#pragma once

#include <bit>
#include <cstdint>

#include "common/check.hpp"
#include "common/ring_math.hpp"

namespace lmk {

/// Bit i (1-based from the most significant bit) of the m-bit id x.
[[nodiscard]] constexpr int get_bit(Id x, int i) {
  LMK_DCHECK(i >= 1 && i <= kIdBits);
  return static_cast<int>((x >> (kIdBits - i)) & 1u);
}

/// Return x with bit i (1-based from the MSB) set to 1.
[[nodiscard]] constexpr Id set_bit(Id x, int i) {
  LMK_DCHECK(i >= 1 && i <= kIdBits);
  return x | (Id{1} << (kIdBits - i));
}

/// Return x with bit i (1-based from the MSB) cleared.
[[nodiscard]] constexpr Id clear_bit(Id x, int i) {
  LMK_DCHECK(i >= 1 && i <= kIdBits);
  return x & ~(Id{1} << (kIdBits - i));
}

/// The first `len` bits of x, kept in place (remaining bits zeroed).
/// prefix(x, 0) == 0; prefix(x, 64) == x.
[[nodiscard]] constexpr Id prefix(Id x, int len) {
  LMK_DCHECK(len >= 0 && len <= kIdBits);
  if (len == 0) return 0;
  return x & (~Id{0} << (kIdBits - len));
}

/// True when x and y agree on their first `len` bits.
[[nodiscard]] constexpr bool same_prefix(Id x, Id y, int len) {
  return prefix(x, len) == prefix(y, len);
}

/// Length of the longest common prefix of x and y, in bits (0..64).
[[nodiscard]] constexpr int common_prefix_length(Id x, Id y) {
  Id diff = x ^ y;
  return diff == 0 ? kIdBits : std::countl_zero(diff);
}

/// Position (1-based from the MSB) of the first 0 bit of x in bit
/// positions [from, to], or 0 when every bit in the range is 1.
/// This is the scan used by SurrogateRefine (Alg. 5, line 5).
[[nodiscard]] constexpr int first_zero_bit(Id x, int from, int to) {
  LMK_DCHECK(from >= 1 && to <= kIdBits);
  for (int i = from; i <= to; ++i) {
    if (get_bit(x, i) == 0) return i;
  }
  return 0;
}

/// Inclusive key span [lo, hi] of the cuboid identified by a prefix of
/// `len` bits (stored left-aligned in `prefix_key`). A depth-len cuboid
/// owns the 2^(64-len) keys sharing its prefix.
struct KeySpan {
  Id lo;
  Id hi;
};

[[nodiscard]] constexpr KeySpan prefix_span(Id prefix_key, int len) {
  LMK_DCHECK(len >= 0 && len <= kIdBits);
  Id lo = prefix(prefix_key, len);
  // A shift by the full width is undefined, so a leaf (len == 64) spans
  // its own key alone.
  Id hi = len == kIdBits ? lo : (lo | (~Id{0} >> len));
  return {lo, hi};
}

}  // namespace lmk
