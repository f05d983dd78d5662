#include "chord/node.hpp"

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

NodeRef ChordNode::next_hop(Id key) const {
  // Best = entry in (me, key) closest to key; default = self.
  NodeRef best{const_cast<ChordNode*>(this), id_};
  bool have = false;
  auto consider = [&](const NodeRef& r) {
    if (!r.valid()) return;
    if (!in_open(r.id, id_, key)) return;
    if (!have || in_open(r.id, best.id, key)) {
      best = r;
      have = true;
    }
  };
  for (const NodeRef& f : fingers_) consider(f);
  for (const NodeRef& s : successors_) consider(s);
  return best;
}

void ChordNode::set_successors(std::vector<NodeRef> list) {
  if (list.size() > kSuccessors) list.resize(kSuccessors);
  successors_ = std::move(list);
}

void ChordNode::set_finger(int i, NodeRef f) {
  LMK_CHECK(i >= 0 && i < kIdBits);
  fingers_[static_cast<std::size_t>(i)] = f;
}

void ChordNode::kill() {
  alive_ = false;
  ++incarnation_;
  predecessor_ = NodeRef{};
  successors_.clear();
  fingers_.fill(NodeRef{});
}

void ChordNode::revive(Id new_id) {
  LMK_CHECK(!alive_);
  alive_ = true;
  ++incarnation_;
  id_ = new_id;
  predecessor_ = NodeRef{};
  successors_.clear();
  fingers_.fill(NodeRef{});
}

}  // namespace lmk
