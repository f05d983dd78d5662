// Move-only type-erased `void()` callable for the event engine.
//
// std::function is the wrong tool for a discrete-event hot path: its
// small-buffer window (16 bytes in libstdc++) spills almost every
// protocol continuation to the heap, it drags copy machinery along that
// the queue never uses, and every heap sift moves the full callable.
// EventClosure fixes the first two: a 64-byte inline buffer holds every
// routine simulator continuation (message deliveries capture `this`,
// ids, incarnations and a vector handle — about 56 bytes for the tree
// router's batched delivery), larger captures fall back to one heap
// allocation, and the type is move-only so move-only captures work too.
// The third is fixed by the queue itself, which sifts (time, tie, slot)
// keys and leaves closures parked in a slot pool (see event_queue.hpp).
//
// The dispatch table is a static per-type Ops vtable (invoke /
// relocate / destroy); relocation is what the slot pool needs when its
// backing vector grows, so stored callables must be nothrow move
// constructible (every lambda over movable captures is).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lmk {

/// Move-only `void()` callable with a 64-byte inline buffer.
class EventClosure {
 public:
  /// Inline capture capacity. Callables up to this size (and
  /// max_align_t alignment) are stored in place; larger ones cost one
  /// heap allocation.
  static constexpr std::size_t kInlineBytes = 64;

  EventClosure() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventClosure> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for EventFn.
  EventClosure(F&& f) {  // NOLINT(bugprone-forwarding-reference-overload)
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event callables must be nothrow move constructible "
                  "(the slot pool relocates them when it grows)");
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      // Cold fallback: only captures over 64 bytes land here, and the
      // engine's routine continuations all fit inline (the alloc-guard
      // build's AllocGuard.EngineSteadyStateDispatchAllocatesNothing
      // proves the steady state is allocation-free).
      // lmk-lint: allow(hot-alloc) oversized-capture cold fallback
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  EventClosure(EventClosure&& other) noexcept { steal(other); }

  EventClosure& operator=(EventClosure&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  EventClosure(const EventClosure&) = delete;
  EventClosure& operator=(const EventClosure&) = delete;

  ~EventClosure() { reset(); }

  /// Invoke the stored callable. Requires a non-empty closure.
  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroy the stored callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// True when the stored callable lives in the inline buffer (tests).
  [[nodiscard]] bool is_inline() const {
    return ops_ != nullptr && ops_->inline_storage;
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move the callable from `src`'s buffer into `dst`'s and destroy
    /// the source — the slot pool's relocation primitive.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* buf) noexcept;
    bool inline_storage;
  };

  template <typename D>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t);
  }

  template <typename D>
  static D* inline_ptr(void* buf) {
    return std::launder(reinterpret_cast<D*>(buf));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      /*invoke=*/[](void* buf) { (*inline_ptr<D>(buf))(); },
      /*relocate=*/
      [](void* src, void* dst) noexcept {
        D* from = inline_ptr<D>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      /*destroy=*/[](void* buf) noexcept { inline_ptr<D>(buf)->~D(); },
      /*inline_storage=*/true,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      /*invoke=*/[](void* buf) { (**reinterpret_cast<D**>(buf))(); },
      /*relocate=*/
      [](void* src, void* dst) noexcept {
        *reinterpret_cast<D**>(dst) = *reinterpret_cast<D**>(src);
      },
      /*destroy=*/[](void* buf) noexcept { delete *reinterpret_cast<D**>(buf); },
      /*inline_storage=*/false,
  };

  void steal(EventClosure& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace lmk
