// Per-node local store. Each (node, scheme) pair owns an EntryStore (the
// SoA rows) plus a LocalStore: per-dimension sorted order indices over
// those rows that answer the solver's box probes (paper Alg. 5) without
// a full scan. Exact: a probe returns every entry inside the closed
// region and nothing else.
//
// Rebuild rule. The first build is eager: a store that was never built
// builds on its first probe. A mutation (`invalidate`) leaves the indices
// stale and zeroes a charge; each probe then scans the n rows linearly,
// reports `scanned = n` and adds n to the charge. The first probe that
// finds the charge at or above n * dims * ceil(log2(n + 1)) — the sort a
// rebuild takes — rebuilds the indices and probes them. This is ski
// rental between two writes: the scans since the last write are the
// rent, the sort is the purchase, and the cost is never more than twice
// the better of scanning throughout and rebuilding at once. A store
// written between most probes keeps scanning instead of re-sorting on
// every write; a store that settles goes sub-linear again after one
// rebuild's worth of scans.
//
// Determinism contract: both the scan and the indexed probe append hits
// in ascending entry index, so results are a pure function of the rows
// and the region — independent of the store's build history, of
// LMK_THREADS and of node identity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/entry_store.hpp"
#include "lph/lph.hpp"

namespace lmk {

/// Local-store configuration. The one store has no knobs; the type and
/// make_local_store remain only because perfbench/program.hpp still
/// passes a configuration through them.
struct LocalStoreOptions {};

/// Cumulative build accounting: how many times the order indices were
/// built and how many entries those builds indexed.
struct LocalStoreBuildStats {
  std::uint64_t rebuilds = 0;
  std::uint64_t rebuilt_entries = 0;
};

/// Sorted order indices over one EntryStore, with the deferred rebuild
/// rule above. Probes report `scanned` — the number of stored entries
/// whose coordinates were examined.
class LocalStore {
 public:
  /// Index the store's current rows now and reset the charge. Reads
  /// coordinates through EntryStore spans only; leaves the structure
  /// probe-ready even for an empty store.
  void build(const EntryStore& entries);

  /// The rows changed: probes scan until the scans since this call have
  /// paid for a rebuild. A never-built store stays unbuilt.
  void invalidate() {
    stale_ = built_;
    charge_ = 0;
  }

  /// Append the indices of entries whose point lies in the closed region
  /// to `out` (not cleared), in ascending entry index. Builds first when
  /// the store was never built or the rebuild rule fires. Returns the
  /// number of entries scanned.
  std::size_t range(const EntryStore& entries, const Region& region,
                    std::vector<std::uint32_t>& out);

  /// Builds this store performed (eager and deferred).
  [[nodiscard]] const LocalStoreBuildStats& stats() const { return stats_; }

  /// Resident heap bytes of the order indices (excluding the EntryStore).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  // order_[d] holds (coordinate d, entry index) sorted ascending; the
  // pair order breaks value ties by entry index, so the scan order — and
  // therefore the whole simulation — is independent of the sort
  // algorithm's handling of equal values.
  std::vector<std::vector<std::pair<double, std::uint32_t>>> order_;
  LocalStoreBuildStats stats_;
  std::uint64_t charge_ = 0;  ///< entries scanned since the last invalidate
  bool built_ = false;
  bool stale_ = false;
};

/// A fresh, unbuilt store.
[[nodiscard]] std::unique_ptr<LocalStore> make_local_store(
    const LocalStoreOptions& opts);

}  // namespace lmk
