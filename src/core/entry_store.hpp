// Struct-of-arrays storage for index entries.
//
// The platform's per-(node, scheme) stores used to hold
// std::vector<IndexEntry>, where every entry carried its own
// heap-allocated IndexPoint. At flagship scale (1M+ entries) that is
// one allocation and one pointer chase per entry; the solver's range
// scans walk point coordinates, so the layout matters. EntryStore keeps
// the same logical content in three parallel arrays — keys, object
// ids, and a single flat coordinate buffer — so a store of n k-dim
// entries is three allocations total and point data is contiguous.
//
// The store preserves entry order exactly like the vector it replaces:
// push_back appends, erase_at shifts, extract_if/append keep relative
// order. Entry order never leaks into query results (replies are
// sorted and deduped downstream), but keeping the semantics simple
// keeps the equivalence argument simple too.
//
// Every public mutator counts one write per store it touches, whether
// or not it changed a row (erase_first counts through erase_at, so only
// when it erases). The LocalStore indexing a store compares that count
// at each probe, so it sees every write without the writer's help.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/ring_math.hpp"
#include "landmark/mapper.hpp"

namespace lmk {

/// One stored index entry: the (rotated) placement key, the landmark
/// index point, and the application object id it stands for. The
/// materialized (owning) form; EntryStore keeps entries unpacked and
/// hands out EntryView for iteration.
struct IndexEntry {
  Id key = 0;
  std::uint64_t object = 0;
  IndexPoint point;
};

/// Non-owning view of one entry inside an EntryStore. The point span
/// is invalidated by any mutation of the underlying store.
struct EntryView {
  Id key = 0;
  std::uint64_t object = 0;
  std::span<const double> point;
};

/// SoA entry container. Dimensionality is fixed by the first push and
/// checked on every subsequent one; an empty store accepts any.
class EntryStore {
 public:
  EntryStore() = default;

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::size_t dims() const { return dims_; }
  /// Mutating calls made on this store so far.
  [[nodiscard]] std::uint64_t writes() const { return writes_; }

  // lmk-hot-path: solver range scans call these per candidate entry.
  [[nodiscard]] Id key(std::size_t i) const { return keys_[i]; }
  [[nodiscard]] std::uint64_t object(std::size_t i) const {
    return objects_[i];
  }
  [[nodiscard]] std::span<const double> point(std::size_t i) const {
    return {coords_.data() + i * dims_, dims_};
  }

  [[nodiscard]] EntryView operator[](std::size_t i) const {
    return {keys_[i], objects_[i], point(i)};
  }
  [[nodiscard]] EntryView front() const { return (*this)[0]; }
  [[nodiscard]] EntryView back() const { return (*this)[size() - 1]; }
  // lmk-hot-path-end

  /// Materialize one entry into the owning form (repair/test paths).
  [[nodiscard]] IndexEntry entry(std::size_t i) const {
    return {keys_[i], objects_[i],
            IndexPoint(point(i).begin(), point(i).end())};
  }

  /// Append an entry. `pt` must not alias this store's own coordinate
  /// buffer (use the EntryView overload for self-copies).
  void push_back(Id key, std::uint64_t object, std::span<const double> pt);
  void push_back(const IndexEntry& e) { push_back(e.key, e.object, e.point); }
  /// Append a copy of a view — safe even when the view points into
  /// this store (the coordinates are staged through scratch space).
  void push_back(const EntryView& v);

  void pop_back();
  /// Remove entry i, shifting later entries down (order-preserving,
  /// like vector::erase).
  void erase_at(std::size_t i);
  /// Remove the first entry matching (object, key); false if absent.
  bool erase_first(std::uint64_t object, Id key);
  void set_key(std::size_t i, Id k) {
    ++writes_;
    keys_[i] = k;
  }
  void clear();

  /// Append copies of all of src's entries, in order.
  void append(const EntryStore& src);
  /// Move src's entries onto the end of this store; src is left empty
  /// (capacity retained). When this store is empty the buffers are
  /// swapped outright.
  void append_moved(EntryStore& src);

  /// Move every entry whose key satisfies `pred` to the end of `dst`,
  /// compacting the survivors in place. Both sides keep relative
  /// order.
  template <typename Pred>
  void extract_if(Pred pred, EntryStore& dst) {
    ++writes_;
    ++dst.writes_;
    std::size_t w = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      if (pred(keys_[i])) {
        dst.push_row(keys_[i], objects_[i], point(i));
        continue;
      }
      if (w != i) {
        keys_[w] = keys_[i];
        objects_[w] = objects_[i];
        for (std::size_t d = 0; d < dims_; ++d) {
          coords_[w * dims_ + d] = coords_[i * dims_ + d];
        }
      }
      ++w;
    }
    truncate(w);
  }

  /// Resident heap bytes of the three arrays (capacity, not size).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Forward iteration over views (range-for support).
  class const_iterator {
   public:
    const_iterator(const EntryStore* s, std::size_t i) : s_(s), i_(i) {}
    EntryView operator*() const { return (*s_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const EntryStore* s_;
    std::size_t i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

 private:
  // Row primitives behind the public mutators; they count no writes.
  void adopt_dims(std::size_t dims);
  void push_row(Id key, std::uint64_t object, std::span<const double> pt);
  void append_rows(const EntryStore& src);
  void truncate(std::size_t n);

  std::vector<Id> keys_;
  std::vector<std::uint64_t> objects_;
  std::vector<double> coords_;  ///< size() * dims_ doubles, row-major
  std::vector<double> scratch_; ///< staging for self-aliasing pushes
  std::size_t dims_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace lmk
