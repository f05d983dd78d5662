#include "store/local_store.hpp"

#include <algorithm>
#include <bit>

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

}  // namespace

void LocalStore::build(const EntryStore& entries) {
  const std::size_t dims = entries.dims();
  order_.assign(dims, {});
  const auto n = static_cast<std::uint32_t>(entries.size());
  for (std::size_t d = 0; d < dims; ++d) order_[d].reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::span<const double> p = entries.point(i);
    for (std::size_t d = 0; d < dims; ++d) {
      order_[d].emplace_back(p[d], i);
    }
  }
  for (std::size_t d = 0; d < dims; ++d) {
    std::sort(order_[d].begin(), order_[d].end());
  }
  built_ = true;
  stale_ = false;
  charge_ = 0;
  ++stats_.rebuilds;
  stats_.rebuilt_entries += n;
}

// lmk-hot-path: range runs once per subquery per index node — the
// per-event cost of the whole query storm. The alloc-guard bench gate
// holds the solver path to zero steady-state allocations.
std::size_t LocalStore::range(const EntryStore& entries, const Region& region,
                              std::vector<std::uint32_t>& out) {
  const std::size_t n = entries.size();
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
  // An empty store indexes zero dimensions; nothing can match.
  if (order_.empty()) return 0;
  const std::size_t dims = order_.size();
  std::size_t best_d = 0;
  std::size_t best_lo = 0;
  std::size_t best_hi = 0;
  std::size_t best_count = n + 1;
  for (std::size_t d = 0; d < dims; ++d) {
    const auto& ord = order_[d];
    const Interval& r = region.ranges[d];
    auto lo = std::lower_bound(
        ord.begin(), ord.end(), r.lo,
        [](const std::pair<double, std::uint32_t>& p, double v) {
          return p.first < v;
        });
    auto hi = std::upper_bound(
        lo, ord.end(), r.hi,
        [](double v, const std::pair<double, std::uint32_t>& p) {
          return v < p.first;
        });
    auto count = static_cast<std::size_t>(hi - lo);
    if (count < best_count) {
      best_count = count;
      best_d = d;
      best_lo = static_cast<std::size_t>(lo - ord.begin());
      best_hi = static_cast<std::size_t>(hi - ord.begin());
    }
  }
  const std::size_t first = out.size();
  const auto& ord = order_[best_d];
  for (std::size_t k = best_lo; k < best_hi; ++k) {
    const std::uint32_t ei = ord[k].second;
    // The slice already satisfies best_d.
    if (!inside(entries.point(ei), region, best_d)) continue;
    // lmk-lint: allow(hot-alloc) pooled-buffer capacity warmup
    out.push_back(ei);
  }
  // The slice runs in coordinate order; hand hits back in entry order,
  // the same order the stale scan produces.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  return best_count;
}
// lmk-hot-path-end

std::size_t LocalStore::memory_bytes() const {
  std::size_t bytes = order_.capacity() * sizeof(order_[0]);
  for (const auto& ord : order_) {
    bytes += ord.capacity() * sizeof(std::pair<double, std::uint32_t>);
  }
  return bytes;
}

std::unique_ptr<LocalStore> make_local_store(const LocalStoreOptions&) {
  return std::make_unique<LocalStore>();
}

}  // namespace lmk
