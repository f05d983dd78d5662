#include "common/alloc_guard.hpp"

#ifdef LMK_ALLOC_GUARD
#include <cstddef>
#include <cstdlib>
#include <new>
#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#define LMK_HAVE_MALLOC_USABLE_SIZE 1
#endif
#endif

namespace lmk {
namespace {

// Per-thread counters. Zero-initialized (a trivial type), so touching
// them from inside operator new cannot recurse into dynamic TLS
// construction.
// lmk-lint: allow(mutable-global) per-thread counters, never shared across threads
thread_local AllocCounters g_counters;

}  // namespace

bool alloc_guard_enabled() {
#ifdef LMK_ALLOC_GUARD
  return true;
#else
  return false;
#endif
}

AllocCounters alloc_counters() { return g_counters; }

#ifdef LMK_ALLOC_GUARD
namespace detail {

void* guarded_alloc(std::size_t size, std::size_t align) {
  void* p;
  if (align > alignof(std::max_align_t)) {
    // aligned_alloc requires size to be a multiple of the alignment.
    std::size_t padded = (size + align - 1) / align * align;
    p = std::aligned_alloc(align, padded);
  } else {
    p = std::malloc(size == 0 ? 1 : size);
  }
  if (p != nullptr) {
    ++g_counters.allocs;
#ifdef LMK_HAVE_MALLOC_USABLE_SIZE
    g_counters.alloc_bytes += malloc_usable_size(p);
#else
    g_counters.alloc_bytes += size;
#endif
  }
  return p;
}

void guarded_free(void* p) noexcept {
  if (p == nullptr) return;
  ++g_counters.frees;
#ifdef LMK_HAVE_MALLOC_USABLE_SIZE
  g_counters.free_bytes += malloc_usable_size(p);
#endif
  std::free(p);
}

}  // namespace detail
#endif  // LMK_ALLOC_GUARD

}  // namespace lmk

#ifdef LMK_ALLOC_GUARD
// Global replacement of the allocation functions ([new.delete]): every
// operator new in the process — library, tests, benches — is counted on
// the calling thread. The replacements live in exactly one TU, so the
// one-definition rule holds for any link order.

void* operator new(std::size_t size) {
  void* p = lmk::detail::guarded_alloc(size, alignof(std::max_align_t));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = lmk::detail::guarded_alloc(size, alignof(std::max_align_t));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p =
      lmk::detail::guarded_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p =
      lmk::detail::guarded_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return lmk::detail::guarded_alloc(size, alignof(std::max_align_t));
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return lmk::detail::guarded_alloc(size, alignof(std::max_align_t));
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return lmk::detail::guarded_alloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return lmk::detail::guarded_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { lmk::detail::guarded_free(p); }
void operator delete[](void* p) noexcept { lmk::detail::guarded_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  lmk::detail::guarded_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  lmk::detail::guarded_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  lmk::detail::guarded_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  lmk::detail::guarded_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  lmk::detail::guarded_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  lmk::detail::guarded_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  lmk::detail::guarded_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  lmk::detail::guarded_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  lmk::detail::guarded_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  lmk::detail::guarded_free(p);
}
#endif  // LMK_ALLOC_GUARD
