// Priority queue of timestamped events for the discrete-event simulator.
//
// Ties are broken by insertion sequence number so that two events
// scheduled for the same instant run in schedule order — this makes the
// whole simulation deterministic, which the reproduction relies on.
//
// Hot-path layout: a flat 4-ary min-heap of 24-byte (at, tie, slot)
// keys. The closures stay parked in a slot pool and never move during
// sifts; a popped slot goes onto a free list and the next push reuses
// it, so the pool stops growing at the high-water count of pending
// events. Callables are EventClosure (event_closure.hpp): 64-byte
// inline storage, heap fallback, move-only.
//
// Determinism: pop order is (at, tie). The tie key is fixed at push
// time: seq under kFifo, ~seq under kReversed, and under kShuffled a
// splitmix64 finalizer of (shuffle seed ^ seq). The finalizer is a
// bijection, so no two keys compare equal and the comparator is a
// strict total order in every mode.
//
// For the audit subsystem the queue additionally supports:
//  - perturbed (but still deterministic) tie-break modes, used by the
//    event-tie race detector and the schedule explorer to re-run a
//    scenario with same-timestamp events reordered;
//  - an optional per-event actor tag (the node/host the event acts on),
//    so the queue can record same-(timestamp, actor) tie groups — the
//    places where tie-break order could matter at all.
#pragma once

#include <cstdint>
#include <vector>

#include "net/latency_model.hpp"
#include "sim/event_closure.hpp"

namespace lmk {

/// Callback invoked when an event fires.
using EventFn = EventClosure;

/// Actor tag for events not attributed to any node.
inline constexpr std::uint64_t kNoActor = ~std::uint64_t{0};

/// How same-timestamp events are ordered. All modes are fully
/// deterministic; kReversed and kShuffled exist only to perturb tie
/// order for the race detector and the schedule explorer.
enum class TieBreak : std::uint8_t {
  kFifo,      // insertion order (the default)
  kReversed,  // reverse insertion order among equal timestamps
  kShuffled,  // seeded permutation among equal timestamps (set_shuffle_seed)
};

/// Counters over same-(timestamp, actor) event groups observed at pop
/// time. A "group" is >= 2 events sharing both the timestamp and a
/// non-kNoActor actor tag — exactly the events whose relative order is
/// decided by the tie-break policy rather than by virtual time.
struct TieStats {
  std::uint64_t groups = 0;  // distinct (timestamp, actor) groups
  std::uint64_t events = 0;  // events inside those groups
};

/// Min-heap of (time, tie-key) ordered events.
class EventQueue {
 public:
  /// Enqueue `fn` to run at absolute time `at`. `actor` optionally names
  /// the node/host the event acts on (for tie-group accounting).
  void push(SimTime at, EventFn fn, std::uint64_t actor = kNoActor);

  /// True when no events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest pending event. Requires !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Remove and return the earliest pending event. Requires !empty().
  EventFn pop(SimTime* at);

  /// Drop all pending events and reset the tie sequence.
  void clear();

  /// Select the tie-break policy. Must be called while the queue is
  /// empty (pending keys were drawn under the old policy).
  void set_tie_break(TieBreak mode);

  /// Seed for kShuffled tie keys. Must be called while the queue is
  /// empty (pending keys were drawn under the old seed).
  void set_shuffle_seed(std::uint64_t seed);

  /// Tie-group counters accumulated so far. Flushes the group forming
  /// at the current head timestamp, so call at quiescence for exact
  /// totals (mid-timestamp calls may split one group into two).
  TieStats tie_stats();

 private:
  /// Pool slot: one pending event.
  struct Slot {
    std::uint64_t actor = kNoActor;
    EventClosure fn;
  };
  /// Heap key: the event's time, its tie key and its pool slot.
  struct Key {
    SimTime at;
    std::uint64_t tie;
    std::uint32_t slot;
  };

  [[nodiscard]] static bool before(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.tie < b.tie;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  void note_pop(SimTime at, std::uint64_t actor);
  void flush_tie_group();

  std::vector<Key> heap_;            // flat 4-ary min-heap
  std::vector<Slot> slots_;          // slot pool
  std::vector<std::uint32_t> free_;  // recycled pool indices
  std::uint64_t next_seq_ = 0;
  TieBreak mode_ = TieBreak::kFifo;
  std::uint64_t shuffle_seed_ = 0;   // keys kShuffled ties
  TieStats stats_;
  // Actors of events popped at the head timestamp, in pop order. The
  // flush sorts and counts runs — O(1) append per pop, and the
  // flush-time sort keeps busy timestamps (many actors) linearithmic.
  SimTime group_at_ = -1;
  std::vector<std::uint64_t> group_actors_;
};

}  // namespace lmk
