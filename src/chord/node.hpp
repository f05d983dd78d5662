// A Chord node: identifier, finger table, successor list, predecessor.
//
// The node owns only routing *state*; message-driven behaviour (lookups,
// stabilization, joins) lives in Ring, which owns every node of the
// overlay. This split keeps the state machine unit-testable without a
// simulator.
//
// Parameters match the paper's setup: base-2 fingers, a 16-entry
// successor list, 64-bit identifiers.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "chord/id.hpp"

namespace lmk {

class ChordNode;

/// A routing-table entry: a pointer to the referenced node plus the
/// identifier it had when the entry was installed. Entries go stale when
/// the node dies or rejoins under a new identifier; `valid()` detects
/// both, so scans can skip (and later repair) stale entries instead of
/// routing on wrong information.
struct NodeRef {
  ChordNode* node = nullptr;
  Id id = 0;

  [[nodiscard]] bool valid() const;
  [[nodiscard]] explicit operator bool() const { return node != nullptr; }
};

/// Chord routing state for one overlay node.
class ChordNode {
 public:
  /// Successor-list length (paper: "successors=16").
  static constexpr std::size_t kSuccessors = 16;

  ChordNode(HostId host, Id id) : host_(host), id_(id) {}

  ChordNode(const ChordNode&) = delete;
  ChordNode& operator=(const ChordNode&) = delete;

  [[nodiscard]] HostId host() const { return host_; }
  [[nodiscard]] Id id() const { return id_; }
  [[nodiscard]] bool alive() const { return alive_; }

  /// Incarnation number: bumped on every (re)join so in-flight messages
  /// addressed to a previous life can be recognized and dropped.
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }

  /// Reference to this node under its current identifier.
  [[nodiscard]] NodeRef self_ref() { return NodeRef{this, id_}; }

  /// First valid successor (the ring neighbour). Never invalid: when no
  /// successor is live (singleton ring, or a fully stale list), it is a
  /// ref to this node itself.
  [[nodiscard]] NodeRef successor() const;

  [[nodiscard]] const NodeRef& predecessor() const { return predecessor_; }

  [[nodiscard]] std::span<const NodeRef> successor_list() const {
    return successors_;
  }
  [[nodiscard]] std::span<const NodeRef> finger_table() const {
    return fingers_;
  }

  /// True when this node owns `key`: key ∈ (predecessor, me]. Uses the
  /// predecessor's identifier as installed even if that node has since
  /// died — until stabilization repairs the pointer, the range the dead
  /// predecessor covered is genuinely unowned.
  [[nodiscard]] bool owns(Id key) const;

  /// The routing table both query routing and the load prober read: the
  /// distinct non-null successor-list and finger refs, minus refs at this
  /// node's own id, sorted by clockwise distance from id() with ties
  /// broken by host (distinct as long as no two nodes share a host, which
  /// Ring enforces). Entries may be stale; readers test valid(). Derived
  /// state: rebuilt lazily on the first read after a set_finger that
  /// changed a finger, set_successors, kill or revive. A node is only
  /// ever touched by its ring's single simulation thread, so the rebuild
  /// takes no lock.
  [[nodiscard]] std::span<const NodeRef> routing_table() const;

  /// The paper's next_hop (footnote 4): the routing-table entry — finger
  /// table, successor list, or this node itself — whose identifier is
  /// immediately before `key` on the ring. Returns self when no valid
  /// entry lies in (me, key), i.e. when this node believes it is the
  /// predecessor of `key`. Binary-searches the key's clockwise distance
  /// in routing_table() (key == id admits every entry), then walks down
  /// to the first valid entry.
  [[nodiscard]] NodeRef next_hop(Id key) const;

  // --- Overlay-maintenance API (used by Ring, joins, stabilization) ---

  /// Replace the successor list (index 0 is the immediate successor).
  void set_successors(std::vector<NodeRef> list);

  void set_predecessor(NodeRef p) { predecessor_ = p; }

  /// Install finger i (finger i targets id + 2^i, i ∈ [0, 64)). The
  /// routing table goes stale only when the finger changes.
  void set_finger(int i, NodeRef f);

  /// The identifier finger i targets: id + 2^i (mod 2^64).
  [[nodiscard]] Id finger_start(int i) const {
    return id_ + (Id{1} << i);
  }

  /// Round-robin index for periodic finger refresh: returns the next
  /// finger to fix and advances (each node cycles through all of its own
  /// fingers regardless of how many peers stabilize concurrently).
  [[nodiscard]] int take_next_finger_to_fix() {
    int i = next_finger_refresh_;
    next_finger_refresh_ = (next_finger_refresh_ + 1) % kIdBits;
    return i;
  }

  /// Mark dead: entries pointing here become invalid; pending messages
  /// addressed to this incarnation are dropped by their guards.
  void kill();

  /// Revive under a (possibly new) identifier with empty tables.
  void revive(Id new_id);

 private:
  HostId host_;
  Id id_;
  bool alive_ = true;
  std::uint32_t incarnation_ = 0;
  NodeRef predecessor_;
  std::vector<NodeRef> successors_;
  std::array<NodeRef, kIdBits> fingers_{};
  int next_finger_refresh_ = 0;
  // routing_table()'s cache and its staleness flag.
  mutable std::vector<NodeRef> table_;
  mutable bool table_stale_ = false;
};

inline bool NodeRef::valid() const {
  return node != nullptr && node->alive() && node->id() == id;
}

}  // namespace lmk
