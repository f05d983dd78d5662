#include "store/local_store.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.hpp"

namespace lmk {
namespace {

// True when `pt` lies in the closed region on every dimension but `skip`.
bool inside(std::span<const double> pt, const Region& region,
            std::size_t skip) {
  for (std::size_t d = 0; d < pt.size(); ++d) {
    if (d == skip) continue;
    const Interval& r = region.ranges[d];
    if (pt[d] < r.lo || pt[d] > r.hi) return false;
  }
  return true;
}

// How many slice entries ahead the walk prefetches a row: far enough to
// cover a cache miss at the walk's few nanoseconds per entry.
constexpr std::size_t kPrefetchAhead = 16;

// Prefetch a row's first and last coordinate: a row of more than eight
// coordinates, or one that starts mid-line, spans two cache lines.
void prefetch_row(std::span<const double> pt) {
  __builtin_prefetch(pt.data());
  __builtin_prefetch(pt.data() + pt.size() - 1);
}

}  // namespace

void LocalStore::build(const EntryStore& entries) {
  const std::size_t dims = entries.dims();
  const auto n = static_cast<std::uint32_t>(entries.size());
  // Free the old index before sizing the new one: a rebuild never holds
  // both, and a store that shrank does not keep its old capacity.
  vals_ = std::vector<double>();
  ids_ = std::vector<std::uint32_t>();
  vals_.resize(dims * n);
  ids_.resize(dims * n);
  // One pass over the rows lays the coordinates out dimension-major;
  // each dimension then sorts through one reused column of (value,
  // index) pairs, which break ties by entry index, so the slice order —
  // and therefore the whole simulation — does not depend on how the
  // sort treats equal values.
  for (std::uint32_t i = 0; i < n; ++i) {
    std::span<const double> p = entries.point(i);
    for (std::size_t d = 0; d < dims; ++d) vals_[d * n + i] = p[d];
  }
  std::vector<std::pair<double, std::uint32_t>> column(n);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::uint32_t i = 0; i < n; ++i) column[i] = {vals_[d * n + i], i};
    std::sort(column.begin(), column.end());
    for (std::uint32_t k = 0; k < n; ++k) {
      vals_[d * n + k] = column[k].first;
      ids_[d * n + k] = column[k].second;
    }
  }
  bounds_.assign(2 * dims, 0);
  hits_.assign((n + 63) / 64, 0);
  built_ = true;
  stale_ = false;
  indexed_rows_ = n;
  seen_writes_ = entries.writes();
  charge_ = 0;
  ++stats_.rebuilds;
  stats_.rebuilt_entries += n;
}

// lmk-hot-path: range runs once per subquery per index node — the
// per-event cost of the whole query storm. lmk-lint's hot-alloc rule
// checks the solver path statically for owning allocations.
std::size_t LocalStore::range(const EntryStore& entries, const Region& region,
                              std::vector<std::uint32_t>& out) {
  const std::size_t n = entries.size();
  if (entries.writes() != seen_writes_) {
    seen_writes_ = entries.writes();
    stale_ = built_;
    charge_ = 0;
  }
  // A rebuild sorts every dimension: about n * dims * ceil(log2(n + 1))
  // comparisons, charged against the rows stale probes have scanned.
  const auto rebuild_cost =
      n * entries.dims() * static_cast<std::size_t>(std::bit_width(n));
  if (!built_ || (stale_ && charge_ >= rebuild_cost)) build(entries);
  if (stale_) {
    charge_ += n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!inside(entries.point(i), region, entries.dims())) continue;
      // Caller-owned hit buffer; capacity survives across probes.
      // lmk-lint: allow(hot-alloc) pooled-buffer capacity warmup
      out.push_back(static_cast<std::uint32_t>(i));
    }
    return n;
  }
  LMK_CHECK_MSG(n == indexed_rows_,
                "local store probed on fresh indices over %zu rows but the "
                "rows handed in hold %zu: not the rows it indexed",
                indexed_rows_, n);
  // No rows, or rows of zero dimensions: nothing indexed, nothing can
  // match.
  if (vals_.empty()) return 0;
  const std::size_t dims = bounds_.size() / 2;
  // bounds_[2d] converges on the first slot of dimension d's order whose
  // value is >= lo, bounds_[2d + 1] on the first whose value is > hi
  // (std::lower_bound and std::upper_bound). Every search spans the same
  // n slots, so all 2 * dims of them halve in lockstep, one conditional
  // add each per step: their loads overlap instead of forming dependent,
  // mispredicted chains (Khuong and Morin, "Array Layouts for
  // Comparison-Based Searching", 2017). A cursor only ever moves past
  // slots that are below its bound, and the answer stays within
  // [cursor, cursor + len].
  std::uint32_t* const b = bounds_.data();
  std::fill(b, b + 2 * dims, 0);
  const double* const vals = vals_.data();
  for (std::size_t len = n; len > 1;) {
    const auto half = static_cast<std::uint32_t>(len / 2);
    for (std::size_t d = 0; d < dims; ++d) {
      const double* const v = vals + d * n + half - 1;
      const Interval& r = region.ranges[d];
      std::uint32_t& lo = b[2 * d];
      std::uint32_t& hi = b[2 * d + 1];
      lo += half & -std::uint32_t{v[lo] < r.lo};
      hi += half & -std::uint32_t{!(r.hi < v[hi])};
    }
    len -= half;
  }
  // One candidate slot left per search: step past it if it is below too.
  std::size_t best_d = 0;
  std::size_t best_count = n + 1;
  for (std::size_t d = 0; d < dims; ++d) {
    const double* const v = vals + d * n;
    const Interval& r = region.ranges[d];
    std::uint32_t& lo = b[2 * d];
    std::uint32_t& hi = b[2 * d + 1];
    lo += std::uint32_t{v[lo] < r.lo};
    hi += std::uint32_t{!(r.hi < v[hi])};
    // An inverted interval (lo > hi) leaves the upper cursor at or below
    // the lower one: an empty slice.
    const std::size_t count = hi > lo ? hi - lo : 0;
    if (count < best_count) {
      best_count = count;
      best_d = d;
    }
  }
  // Walk the smallest slice, prefetching rows ahead of the inside test
  // (the slice's first rows before the walk starts), and mark hits in
  // the bitmap: reading it back yields them in entry order, the same
  // order the stale scan produces, without a sort.
  const std::uint32_t* const ids = ids_.data() + best_d * n;
  const std::size_t first = b[2 * best_d];
  const std::size_t last = first + best_count;
  for (std::size_t k = first; k < std::min(last, first + kPrefetchAhead);
       ++k) {
    prefetch_row(entries.point(ids[k]));
  }
  // Hit words span [lo_word, hi_word]; none when lo_word > hi_word.
  std::uint32_t lo_word = UINT32_MAX;
  std::uint32_t hi_word = 0;
  for (std::size_t k = first; k < last; ++k) {
    if (k + kPrefetchAhead < last) {
      prefetch_row(entries.point(ids[k + kPrefetchAhead]));
    }
    const std::uint32_t ei = ids[k];
    // The slice already satisfies best_d.
    if (!inside(entries.point(ei), region, best_d)) continue;
    hits_[ei / 64] |= std::uint64_t{1} << (ei % 64);
    lo_word = std::min(lo_word, ei / 64);
    hi_word = std::max(hi_word, ei / 64);
  }
  // Clear each word as it is read: the bitmap is all zero between probes.
  for (std::uint32_t w = lo_word; w <= hi_word; ++w) {
    for (std::uint64_t bits = hits_[w]; bits != 0; bits &= bits - 1) {
      // lmk-lint: allow(hot-alloc) pooled-buffer capacity warmup
      out.push_back(w * 64 +
                    static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
    hits_[w] = 0;
  }
  return best_count;
}
// lmk-hot-path-end

std::size_t LocalStore::memory_bytes() const {
  return vals_.capacity() * sizeof(double) +
         ids_.capacity() * sizeof(std::uint32_t) +
         bounds_.capacity() * sizeof(std::uint32_t) +
         hits_.capacity() * sizeof(std::uint64_t);
}

std::unique_ptr<LocalStore> make_local_store(const LocalStoreOptions&) {
  return std::make_unique<LocalStore>();
}

}  // namespace lmk
