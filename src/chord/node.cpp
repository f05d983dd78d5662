#include "chord/node.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace lmk {

NodeRef ChordNode::successor() const {
  for (const NodeRef& s : successors_) {
    if (s.valid()) return s;
  }
  // Singleton ring (or fully stale list): a node is its own successor.
  return NodeRef{const_cast<ChordNode*>(this), id_};
}

bool ChordNode::owns(Id key) const {
  LMK_DCHECK(predecessor_.node != nullptr);
  return in_open_closed(key, predecessor_.id, id_);
}

std::span<const NodeRef> ChordNode::routing_table() const {
  if (!table_stale_) return table_;
  std::array<NodeRef, kIdBits + kSuccessors> scratch;
  std::size_t n = 0;
  for (const NodeRef& r : successors_) {
    if (r.node != nullptr && r.id != id_) scratch[n++] = r;
  }
  for (const NodeRef& r : fingers_) {
    // Neighbouring fingers often share one ref (every finger whose
    // interval ends before the successor holds the successor), so drop
    // repeats before the sort.
    if (r.node != nullptr && r.id != id_ && (n == 0 || r != scratch[n - 1])) {
      scratch[n++] = r;
    }
  }
  auto order = [this](const NodeRef& a, const NodeRef& b) {
    const Id da = a.id - id_, db = b.id - id_;
    return da != db ? da < db : a.node->host() < b.node->host();
  };
  const auto end = scratch.begin() + static_cast<std::ptrdiff_t>(n);
  std::sort(scratch.begin(), end, order);
  // Equal refs share a sort key, and a key's run holds one node when no
  // two nodes share a host, so the copies are adjacent.
  table_.assign(scratch.begin(), std::unique(scratch.begin(), end));
  table_stale_ = false;
  return table_;
}

NodeRef ChordNode::next_hop(Id key) const {
  // Entries strictly before `key` have clockwise distance in (0, key - me);
  // key == me leaves the whole ring minus me, so every entry qualifies.
  const std::span<const NodeRef> table = routing_table();
  const Id limit = key - id_;
  auto it = table.end();
  if (limit != 0) {
    it = std::partition_point(
        table.begin(), table.end(),
        [&](const NodeRef& r) { return r.id - id_ < limit; });
  }
  // Two valid refs with equal ids point to the same node, so the first
  // valid entry below the bound is the closest preceding one.
  while (it != table.begin()) {
    --it;
    if (it->valid()) return *it;
  }
  return NodeRef{const_cast<ChordNode*>(this), id_};
}

void ChordNode::set_successors(std::vector<NodeRef> list) {
  if (list.size() > kSuccessors) list.resize(kSuccessors);
  if (list != successors_) table_stale_ = true;
  successors_ = std::move(list);
}

void ChordNode::set_finger(int i, NodeRef f) {
  LMK_CHECK(i >= 0 && i < kIdBits);
  NodeRef& slot = fingers_[static_cast<std::size_t>(i)];
  if (slot == f) return;
  slot = f;
  table_stale_ = true;
}

void ChordNode::kill() {
  alive_ = false;
  ++incarnation_;
  predecessor_ = NodeRef{};
  successors_.clear();
  fingers_.fill(NodeRef{});
  table_stale_ = true;
}

void ChordNode::revive(Id new_id) {
  LMK_CHECK(!alive_);
  alive_ = true;
  ++incarnation_;
  id_ = new_id;
  predecessor_ = NodeRef{};
  successors_.clear();
  fingers_.fill(NodeRef{});
  table_stale_ = true;
}

}  // namespace lmk
