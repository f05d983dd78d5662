#include "core/entry_store.hpp"

#include <algorithm>

namespace lmk {

void EntryStore::adopt_dims(std::size_t dims) {
  if (empty()) {
    dims_ = dims;
  } else {
    LMK_CHECK(dims == dims_);
  }
}

void EntryStore::push_row(Id key, std::uint64_t object,
                          std::span<const double> pt) {
  adopt_dims(pt.size());
  keys_.push_back(key);
  objects_.push_back(object);
  coords_.insert(coords_.end(), pt.begin(), pt.end());
}

void EntryStore::push_back(Id key, std::uint64_t object,
                           std::span<const double> pt) {
  ++writes_;
  push_row(key, object, pt);
}

void EntryStore::push_back(const EntryView& v) {
  scratch_.assign(v.point.begin(), v.point.end());
  push_back(v.key, v.object, scratch_);
}

void EntryStore::pop_back() {
  LMK_CHECK(!empty());
  ++writes_;
  truncate(size() - 1);
}

void EntryStore::erase_at(std::size_t i) {
  LMK_CHECK(i < size());
  ++writes_;
  keys_.erase(keys_.begin() + static_cast<long>(i));
  objects_.erase(objects_.begin() + static_cast<long>(i));
  coords_.erase(coords_.begin() + static_cast<long>(i * dims_),
                coords_.begin() + static_cast<long>((i + 1) * dims_));
}

bool EntryStore::erase_first(std::uint64_t object, Id key) {
  for (std::size_t i = 0; i < size(); ++i) {
    if (objects_[i] == object && keys_[i] == key) {
      erase_at(i);
      return true;
    }
  }
  return false;
}

void EntryStore::clear() {
  ++writes_;
  truncate(0);
}

void EntryStore::append_rows(const EntryStore& src) {
  if (src.empty()) return;
  adopt_dims(src.dims_);
  keys_.insert(keys_.end(), src.keys_.begin(), src.keys_.end());
  objects_.insert(objects_.end(), src.objects_.begin(), src.objects_.end());
  coords_.insert(coords_.end(), src.coords_.begin(), src.coords_.end());
}

void EntryStore::append(const EntryStore& src) {
  ++writes_;
  append_rows(src);
}

void EntryStore::append_moved(EntryStore& src) {
  ++writes_;
  ++src.writes_;
  if (src.empty()) return;
  if (empty()) {
    // Swap the rows only: each store keeps its own write count.
    dims_ = src.dims_;
    keys_.swap(src.keys_);
    objects_.swap(src.objects_);
    coords_.swap(src.coords_);
  } else {
    append_rows(src);
  }
  src.truncate(0);
}

void EntryStore::truncate(std::size_t n) {
  keys_.resize(n);
  objects_.resize(n);
  coords_.resize(n * dims_);
}

std::size_t EntryStore::memory_bytes() const {
  return keys_.capacity() * sizeof(Id) +
         objects_.capacity() * sizeof(std::uint64_t) +
         (coords_.capacity() + scratch_.capacity()) * sizeof(double);
}

}  // namespace lmk
