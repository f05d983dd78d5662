// Per-(node, scheme) hot-result cache for the serving layer (ROADMAP
// item 4). Caches the solved hit-list of a canonicalized subquery
// region so repeated probes of a Zipf-hot hypercuboid skip the local
// store entirely.
//
// Correctness model: a cached hit-list is valid exactly as long as no
// entry whose point *covers* the cached region (L∞ point-to-box
// distance zero, i.e. the point lies inside the region) has been
// inserted into or removed from the node since the fill. Every
// mutation path in IndexPlatform therefore either reports the affected
// points (`invalidate_point`) or, for bulk moves where per-point
// reporting would cost more than refilling (drain, transfer, scheme
// clear, replication repair), wipes the whole per-scheme cache
// (`invalidate_all`). Stale hits are a correctness bug, not a quality
// knob: serve_test.cpp cross-checks every cached answer against a
// brute-force oracle, and LMK_SERVE_VERIFY re-solves hits in-line.
//
// Determinism: fixed slot budget, linear probe (slot order never
// depends on pointer values or hash-map iteration), LRU by a local
// uint64 tick. All state is per-node and only touched from events
// tagged with that node's host, so runs are byte-identical at any
// LMK_THREADS.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lph/lph.hpp"

namespace lmk {

/// Aggregated counters, exposed per node and summed by ServeState.
struct CacheStats {
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t point_invalidations = 0;  // slots dropped by cover test
  std::uint64_t wipes = 0;                // invalidate_all calls
  std::uint64_t oversize_skips = 0;       // hit-lists too big to cache

  void add(const CacheStats& o) {
    probes += o.probes;
    hits += o.hits;
    misses += o.misses;
    insertions += o.insertions;
    evictions += o.evictions;
    point_invalidations += o.point_invalidations;
    wipes += o.wipes;
    oversize_skips += o.oversize_skips;
  }
};

/// One cached subquery result: the canonical (clamped) region it
/// answers plus copies of the matching entries. Copies, not EntryStore
/// indices — extract_if compacts the SoA store, so indices held across
/// mutations dangle even when the cached region itself stays valid.
class ResultCache {
 public:
  /// `slots`: fixed LRU budget (0 disables). `max_entries`: hit-lists
  /// larger than this are not cached (0 = unlimited). `ttl`: virtual-
  /// time expiry in simulator ticks (0 = no TTL).
  ResultCache(std::size_t slots, std::size_t max_entries, std::int64_t ttl);

  /// Probe for a region filled at or after `now - ttl`. On hit, bumps
  /// LRU and returns the slot's hits via the out spans; on miss (or
  /// expired slot) returns false. The returned spans are valid until
  /// the next non-const call.
  [[nodiscard]] bool probe(const Region& region, std::int64_t now,
                           std::span<const std::uint64_t>* objects,
                           std::span<const double>* coords,
                           std::size_t* dims);

  /// Cache `region -> (objects, flat coords)` at time `now`, evicting
  /// the least-recently-used valid slot when full. Skips (and counts)
  /// hit-lists larger than max_entries. Replaces an existing slot for
  /// the same region instead of duplicating it.
  void insert(const Region& region, std::int64_t now,
              std::span<const std::uint64_t> objects,
              std::span<const double> coords, std::size_t dims);

  /// Coverage-based invalidation: drop every slot whose cached region
  /// contains `point` (linf_box_distance == 0). Called for each point
  /// an insert/remove touches, per replica node.
  void invalidate_point(std::span<const double> point);

  /// Conservative invalidation for bulk mutations (drain, transfer,
  /// clear, replication repair, store rebuild): drop everything.
  void invalidate_all();

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t live_slots() const;

 private:
  struct Slot {
    Region region;
    std::vector<std::uint64_t> objects;
    std::vector<double> coords;  // flat, dims doubles per object
    std::size_t dims = 0;
    std::int64_t filled_at = 0;
    std::uint64_t last_used = 0;
    bool valid = false;
  };

  [[nodiscard]] static std::uint64_t region_digest(const Region& region);
  [[nodiscard]] static bool region_equal(const Region& a, const Region& b);

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> digests_;  // parallel to slots_
  std::size_t budget_;
  std::size_t max_entries_;
  std::int64_t ttl_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace lmk
