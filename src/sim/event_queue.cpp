#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace lmk {
namespace {

/// The splitmix64 finalizer: a bijection on 64-bit words, so distinct
/// sequence numbers draw distinct kShuffled tie keys.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

void EventQueue::push(SimTime at, EventFn fn, std::uint64_t actor) {
  const std::uint64_t seq = next_seq_++;
  std::uint64_t tie = seq;
  if (mode_ == TieBreak::kReversed) tie = ~seq;
  if (mode_ == TieBreak::kShuffled) tie = mix(shuffle_seed_ ^ seq);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = Slot{actor, std::move(fn)};
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    // Popped slots recycle through free_, so the pool stops growing at
    // the high-water count of pending events.
    // lmk-lint: allow(hot-alloc) slot-pool warmup, amortizes to zero
    slots_.push_back(Slot{actor, std::move(fn)});
    // At most one free-list entry can exist per pool slot, so sizing
    // free_ with the pool keeps the push_back in pop() from ever
    // reallocating.
    free_.reserve(slots_.capacity());
  }
  // lmk-lint: allow(hot-alloc) heap capacity warmup, amortizes to zero
  heap_.push_back(Key{at, tie, slot});
  sift_up(heap_.size() - 1);
}

SimTime EventQueue::next_time() const {
  LMK_CHECK(!heap_.empty());
  return heap_.front().at;
}

EventFn EventQueue::pop(SimTime* at) {
  LMK_CHECK(!heap_.empty());
  const Key top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  Slot& s = slots_[top.slot];
  note_pop(top.at, s.actor);
  if (at != nullptr) *at = top.at;
  EventFn fn = std::move(s.fn);
  free_.push_back(top.slot);  // within the capacity push() reserved
  return fn;
}

void EventQueue::clear() {
  heap_.clear();
  slots_.clear();
  free_.clear();
  next_seq_ = 0;
  flush_tie_group();
}

void EventQueue::set_tie_break(TieBreak mode) {
  LMK_CHECK(empty());
  mode_ = mode;
}

void EventQueue::set_shuffle_seed(std::uint64_t seed) {
  LMK_CHECK(empty());
  shuffle_seed_ = seed;
}

TieStats EventQueue::tie_stats() {
  flush_tie_group();
  return stats_;
}

void EventQueue::sift_up(std::size_t i) {
  const Key key = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::sift_down(std::size_t i) {
  const Key key = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t first = i * 4 + 1;
    if (first >= n) break;
    std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], key)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = key;
}

void EventQueue::note_pop(SimTime at, std::uint64_t actor) {
  if (at != group_at_) {
    flush_tie_group();
    group_at_ = at;
  }
  if (actor == kNoActor) return;
  // Cleared (not shrunk) per tie group, so capacity stops at the
  // largest same-instant group.
  // lmk-lint: allow(hot-alloc) tie-group capacity warmup
  group_actors_.push_back(actor);
}

void EventQueue::flush_tie_group() {
  if (!group_actors_.empty()) {
    std::sort(group_actors_.begin(), group_actors_.end());
    std::size_t run = 1;
    for (std::size_t i = 1; i <= group_actors_.size(); ++i) {
      if (i < group_actors_.size() &&
          group_actors_[i] == group_actors_[i - 1]) {
        ++run;
        continue;
      }
      if (run >= 2) {
        ++stats_.groups;
        stats_.events += run;
      }
      run = 1;
    }
    group_actors_.clear();  // keeps capacity; groups re-form each timestamp
  }
  group_at_ = -1;
}

}  // namespace lmk
