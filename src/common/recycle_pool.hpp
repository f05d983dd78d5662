// Recycle pool for in-flight buffers.
//
// RecyclePool<T> is a free list of cleared containers that keep their
// capacity across uses (acquire/release), for buffers whose lifetime is
// one message — the platform's per-(query, node) reply accumulators.
// Once the pool has reached its high-water mark, steady-state query
// traffic takes every buffer from the free list and allocates nothing.
// RecyclePoolStats makes that traffic a reported bench number.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace lmk {

/// Counter snapshot for one RecyclePool.
struct RecyclePoolStats {
  std::uint64_t acquires = 0;    ///< acquire() calls ever
  std::uint64_t hits = 0;        ///< acquires served from the free list
  std::uint64_t live = 0;        ///< buffers currently checked out
  std::uint64_t high_water = 0;  ///< max simultaneously checked out
  std::uint64_t pooled = 0;      ///< buffers parked on the free list
};

/// Free list of containers that keep their capacity between uses. T
/// must be default-constructible, movable, and have clear(). Used for
/// in-flight buffers (e.g. per-query reply accumulators) whose churn
/// would otherwise be one heap allocation per message.
template <typename T>
class RecyclePool {
 public:
  /// Hand out a cleared container, reusing a parked one when possible.
  T acquire() {
    ++stats_.acquires;
    ++stats_.live;
    stats_.high_water = std::max(stats_.high_water, stats_.live);
    if (free_.empty()) return T{};
    ++stats_.hits;
    T out = std::move(free_.back());
    free_.pop_back();
    --stats_.pooled;
    return out;
  }

  /// Park a container for reuse; its contents are cleared, its
  /// capacity is retained.
  void release(T&& v) {
    LMK_CHECK(stats_.live > 0);
    --stats_.live;
    v.clear();
    free_.push_back(std::move(v));
    ++stats_.pooled;
  }

  const RecyclePoolStats& stats() const { return stats_; }

 private:
  std::vector<T> free_;
  RecyclePoolStats stats_;
};

}  // namespace lmk
