// Per-node local store. Each (node, scheme) pair owns an EntryStore (the
// SoA rows) plus a LocalStore: one flat, dimension-major order index over
// those rows that answers the solver's box probes (paper Alg. 5) without
// a full scan. Exact: a probe returns every entry inside the closed
// region and nothing else.
//
// Probe. All 2 * dims lower and upper bounds advance together, one
// branchless halving step at a time, so their loads overlap; the probe
// then walks the dimension with the fewest in-range entries (the first
// such dimension on a tie), prefetching rows ahead, and marks hits in a
// bitmap that it reads back in entry order.
//
// Rebuild rule. The first build is eager: a store that was never built
// builds on its first probe. Each probe compares the EntryStore's write
// count (EntryStore::writes) with the one it saw last; a write since
// then leaves the indices stale and zeroes a charge, and each probe then
// scans the n rows linearly, reports `scanned = n` and adds n to the
// charge. The first probe that finds the charge at or above
// n * dims * ceil(log2(n + 1)) — the sort a rebuild takes — rebuilds the
// indices and probes them. This is ski rental between two writes: the
// scans since the last write are the rent, the sort is the purchase, and
// the cost is never more than twice the better of scanning throughout
// and rebuilding at once. A store written between most probes keeps
// scanning instead of re-sorting on every write; a store that settles
// goes sub-linear again after one rebuild's worth of scans.
//
// Writers need no protocol: the store sees its own writes. A probe on
// fresh indices still checks that the rows hold as many entries as it
// indexed and aborts otherwise, so a probe handed rows other than the
// indexed ones fails loudly instead of reading rows that are not there.
//
// Determinism contract: both the scan and the indexed probe append hits
// in ascending entry index, so results are a pure function of the rows
// and the region — independent of the store's build history, of
// LMK_THREADS and of node identity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// A flat order index over one EntryStore, with the deferred rebuild
/// rule above. Probes report `scanned` — the number of stored entries
/// whose coordinates were examined.
class LocalStore {
 public:
  /// Index the store's current rows now and reset the charge. Reads
  /// coordinates through EntryStore spans only; leaves the structure
  /// probe-ready even for an empty store.
  void build(const EntryStore& entries);

  /// Append the indices of entries whose point lies in the closed region
  /// to `out` (not cleared), in ascending entry index. A write since the
  /// last build or probe makes the indices stale (a never-built store
  /// stays unbuilt). Builds first when the store was never built or the
  /// rebuild rule fires. Returns the number of entries scanned.
  std::size_t range(const EntryStore& entries, const Region& region,
                    std::vector<std::uint32_t>& out);

  /// Builds this store performed (eager and deferred).
  [[nodiscard]] const LocalStoreBuildStats& stats() const { return stats_; }

  /// Resident heap bytes of the order index and its probe buffers
  /// (excluding the EntryStore).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  // The order index over the rows of the last build, n = indexed_rows_:
  // vals_[d * n + k] is the k-th smallest coordinate d and
  // ids_[d * n + k] its entry index. Ties go by entry index, so the
  // slice order is independent of the sort algorithm.
  std::vector<double> vals_;
  std::vector<std::uint32_t> ids_;
  // Probe buffers sized at build: a lower and an upper cursor per
  // dimension, and one hit bit per row, all zero between probes.
  std::vector<std::uint32_t> bounds_;
  std::vector<std::uint64_t> hits_;
  LocalStoreBuildStats stats_;
  std::size_t indexed_rows_ = 0;  ///< entries.size() at the last build
  std::uint64_t seen_writes_ = 0;  ///< entries.writes() at the last look
  std::uint64_t charge_ = 0;  ///< entries scanned since the last write
  bool built_ = false;
  bool stale_ = false;
};

/// A fresh, unbuilt store.
[[nodiscard]] std::unique_ptr<LocalStore> make_local_store(
    const LocalStoreOptions& opts);

}  // namespace lmk
