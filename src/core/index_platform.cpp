#include "core/index_platform.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>
#ifdef LMK_SCHED_MUTATION
#include <map>
#endif

#include "balance/rotation.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"

namespace lmk {

IndexPlatform::IndexPlatform(Ring& ring, Options opts)
    : ring_(ring),
      opts_(opts),
      router_(
          ring,
          [this](std::span<const RangeQuery> pieces, ChordNode& n) {
            on_solve(pieces, n);
          },
          [this](std::uint64_t qid, int d) { on_fanout(qid, d); },
          [this](std::uint64_t qid, std::uint64_t b) { on_sent(qid, b); }),
      naive_(
          ring,
          [this](const RangeQuery& q, ChordNode& n) {
            on_solve(std::span(&q, 1), n);
          },
          [this](std::uint64_t qid, int d) { on_fanout(qid, d); },
          opts.naive_split_depth,
          [this](std::uint64_t qid, std::uint64_t b) { on_sent(qid, b); }) {}

std::uint32_t IndexPlatform::register_scheme(const std::string& name,
                                             Boundary boundary, bool rotate) {
  LMK_CHECK(!boundary.empty());
  auto scheme = std::make_unique<SchemeRouting>();
  scheme->scheme_id = static_cast<std::uint32_t>(schemes_.size());
  scheme->boundary = std::move(boundary);
  scheme->rotation = rotate ? rotation_offset(name) : 0;
  scheme->query_message_bytes = query_message_size(scheme->boundary.size());
  schemes_.push_back(std::move(scheme));
  scheme_names_.push_back(name);
  // Existing stores grow a slot for the new scheme lazily via entries().
  return schemes_.back()->scheme_id;
}

const LocalStoreOptions& IndexPlatform::local_store_options(
    std::uint32_t id) const {
  LMK_CHECK(id < schemes_.size());
  static constexpr LocalStoreOptions kOptions{};
  return kOptions;
}

LocalStoreBuildStats IndexPlatform::local_store_stats() const {
  LocalStoreBuildStats total;
  // Integer sums over disjoint stores: commutative, order-free.
  // lmk-lint: iteration-order-independent
  for (const auto& [node, store] : stores_) {
    for (const auto& ss : store.per_scheme) {
      total.rebuilds += ss.local.stats().rebuilds;
      total.rebuilt_entries += ss.local.stats().rebuilt_entries;
    }
  }
  return total;
}

void IndexPlatform::update_scheme_boundary(std::uint32_t id,
                                           Boundary boundary) {
  LMK_CHECK(id < schemes_.size());
  LMK_CHECK(boundary.size() == schemes_[id]->boundary.size());
  LMK_CHECK(scheme_entries(id) == 0);
  schemes_[id]->boundary = std::move(boundary);
}

const SchemeRouting& IndexPlatform::scheme(std::uint32_t id) const {
  LMK_CHECK(id < schemes_.size());
  return *schemes_[id];
}

const std::string& IndexPlatform::scheme_name(std::uint32_t id) const {
  LMK_CHECK(id < scheme_names_.size());
  return scheme_names_[id];
}

IndexPlatform::NodeStore& IndexPlatform::store_of(const ChordNode& n) {
  NodeStore& s = stores_[&n];
  if (s.per_scheme.size() < schemes_.size()) {
    s.per_scheme.resize(schemes_.size());
  }
  return s;
}

IndexPlatform::SchemeStore& IndexPlatform::scheme_store(const ChordNode& n,
                                                        std::uint32_t scheme) {
  LMK_CHECK(scheme < schemes_.size());
  return store_of(n).per_scheme[scheme];
}

EntryStore& IndexPlatform::entries(const ChordNode& n, std::uint32_t scheme) {
  return scheme_store(n, scheme).entries;
}

std::vector<ChordNode*> IndexPlatform::replica_nodes(Id key) const {
  std::vector<ChordNode*> out;
  ChordNode* owner = ring_.oracle_successor(key);
  out.push_back(owner);
  // Walk the successor chain for the remaining copies (distinct nodes).
  ChordNode* cur = owner;
  while (out.size() < opts_.replication) {
    cur = ring_.oracle_successor(cur->id() + 1);
    if (cur == owner) break;  // ring smaller than the replication degree
    out.push_back(cur);
  }
  return out;
}

void IndexPlatform::place(ChordNode& primary, std::uint32_t scheme_id,
                          Id key, std::uint64_t object,
                          std::span<const double> point) {
  entries(primary, scheme_id).push_back(key, object, point);
  if (opts_.replication <= 1) return;
  for (ChordNode* replica : replica_nodes(key)) {
    if (replica == &primary) continue;
    entries(*replica, scheme_id).push_back(key, object, point);
  }
}

void IndexPlatform::insert(std::uint32_t scheme_id, std::uint64_t object,
                           const IndexPoint& point) {
  const SchemeRouting& sch = scheme(scheme_id);
  Id key = lph_hash(point, sch.boundary) + sch.rotation;
  place(*ring_.oracle_successor(key), scheme_id, key, object, point);
}

void IndexPlatform::bulk_insert_flat(std::uint32_t scheme_id,
                                     std::span<const double> coords,
                                     std::size_t dims,
                                     std::uint64_t first_object) {
  const SchemeRouting& sch = scheme(scheme_id);
  LMK_CHECK(dims > 0 && coords.size() % dims == 0);
  LMK_CHECK(dims == sch.boundary.size());
  const std::size_t n = coords.size() / dims;
  // Phase 1 (parallel, read-only): hash every row to its placement key.
  // Phase 2 (sequential, row order): mutate the node stores — identical
  // entry order to a plain insert() loop.
  std::vector<Id> keys(n);
  parallel_for(n, [&](std::size_t i) {
    keys[i] =
        lph_hash(coords.subspan(i * dims, dims), sch.boundary) + sch.rotation;
  });
  for (std::size_t i = 0; i < n; ++i) {
    place(*ring_.oracle_successor(keys[i]), scheme_id, keys[i],
          first_object + i, coords.subspan(i * dims, dims));
  }
}

void IndexPlatform::insert_via_network(ChordNode& origin,
                                       std::uint32_t scheme_id,
                                       std::uint64_t object, IndexPoint point,
                                       std::function<void(int hops)> done) {
  const SchemeRouting& sch = scheme(scheme_id);
  Id key = lph_hash(point, sch.boundary) + sch.rotation;
  ring_.find_successor(
      origin, key,
      [this, scheme_id, object, key, point = std::move(point),
       done = std::move(done)](NodeRef owner, int hops) {
        // The owner pushes copies down its successor chain (modeled as
        // oracle placement; the one-hop store messages are not part of
        // the paper's cost model).
        place(*owner.node, scheme_id, key, object, point);
        if (done) done(hops);
      });
}

bool IndexPlatform::remove(std::uint32_t scheme_id, std::uint64_t object,
                           const IndexPoint& point) {
  const SchemeRouting& sch = scheme(scheme_id);
  Id key = lph_hash(point, sch.boundary) + sch.rotation;
  bool removed = false;
  for (ChordNode* node : replica_nodes(key)) {
    removed |= entries(*node, scheme_id).erase_first(object, key);
  }
  return removed;
}

void IndexPlatform::remove_via_network(
    ChordNode& origin, std::uint32_t scheme_id, std::uint64_t object,
    IndexPoint point, std::function<void(bool removed, int hops)> done) {
  const SchemeRouting& sch = scheme(scheme_id);
  Id key = lph_hash(point, sch.boundary) + sch.rotation;
  ring_.find_successor(
      origin, key,
      [this, scheme_id, object, key, done = std::move(done)](NodeRef owner,
                                                             int hops) {
        (void)owner;  // replica_nodes(key) starts at the owner
        bool removed = false;
        for (ChordNode* replica : replica_nodes(key)) {
          removed |= entries(*replica, scheme_id).erase_first(object, key);
        }
        if (done) done(removed, hops);
      });
}

void IndexPlatform::clear_scheme(std::uint32_t scheme_id) {
  LMK_CHECK(scheme_id < schemes_.size());
  // Every store is cleared unconditionally; order cannot matter.
  // lmk-lint: iteration-order-independent
  for (auto& [node, store] : stores_) {
    if (scheme_id < store.per_scheme.size()) {
      store.per_scheme[scheme_id].entries.clear();
    }
  }
}

std::size_t IndexPlatform::scheme_entries(std::uint32_t scheme_id) const {
  std::size_t total = 0;
  // Integer sum over disjoint stores: commutative, order-free.
  // lmk-lint: iteration-order-independent
  for (const auto& [node, store] : stores_) {
    if (!node->alive()) continue;  // crashed copies are lost
    if (scheme_id < store.per_scheme.size()) {
      total += store.per_scheme[scheme_id].entries.size();
    }
  }
  return total;
}

std::size_t IndexPlatform::total_entries() const {
  std::size_t total = 0;
  // Integer sum over disjoint stores: commutative, order-free.
  // lmk-lint: iteration-order-independent
  for (const auto& [node, store] : stores_) {
    if (!node->alive()) continue;  // crashed copies are lost
    for (const auto& ss : store.per_scheme) total += ss.entries.size();
  }
  return total;
}

void IndexPlatform::range_query(ChordNode& origin, std::uint32_t scheme_id,
                                const IndexPoint& center, double radius,
                                ReplyMode mode, QueryCallback done,
                                DistanceFn rank) {
  region_query(origin, scheme_id, query_region(center, radius), center, mode,
               std::move(done), std::move(rank));
}

void IndexPlatform::region_query(ChordNode& origin, std::uint32_t scheme_id,
                                 Region region, IndexPoint focus,
                                 ReplyMode mode, QueryCallback done,
                                 DistanceFn rank) {
  LMK_CHECK(done != nullptr);
  const SchemeRouting& sch = scheme(scheme_id);
  std::uint64_t qid = next_qid_++;
  RangeQuery q;
  make_query(sch, qid, origin.host(), std::move(region), std::move(focus),
             &q);
  ActiveQuery aq;
  aq.scheme = scheme_id;
  aq.origin = origin.host();
  aq.mode = mode;
  aq.t0 = ring_.sim().now();
  aq.outstanding = 1;
  aq.done = std::move(done);
  aq.rank = std::move(rank);
  active_.emplace(qid, std::move(aq));
  if (opts_.routing == RoutingMode::kTree) {
    router_.start(origin, std::move(q));
  } else {
    naive_.start(origin, std::move(q));
  }
}

void IndexPlatform::on_fanout(std::uint64_t qid, int delta) {
  auto it = active_.find(qid);
  LMK_CHECK(it != active_.end());
  it->second.outstanding += delta;
  LMK_CHECK(it->second.outstanding >= 0);
  // A split leaves the query outstanding; only a loss can finish it.
  if (delta < 0) {
    it->second.outcome.lost_subqueries += -delta;
    maybe_complete(qid);
  }
}

void IndexPlatform::on_sent(std::uint64_t qid, std::uint64_t bytes) {
  auto it = active_.find(qid);
  LMK_CHECK(it != active_.end());
  ++it->second.outcome.query_messages;
  it->second.outcome.query_bytes += bytes;
}

// lmk-hot-path: on_solve runs once per routing episode that solves
// anything, flush_reply once per (query, node, step) — the per-event
// cost of the whole query storm. lmk-lint's hot-alloc rule checks this
// region statically for owning allocations.
void IndexPlatform::on_solve(std::span<const RangeQuery> pieces,
                             ChordNode& node) {
  LMK_CHECK(!pieces.empty());
  const RangeQuery& first = pieces.front();
  auto it = active_.find(first.qid);
  LMK_CHECK(it != active_.end());
  ActiveQuery& aq = it->second;
  NodeReply* found = aq.find(node);
  if (found == nullptr) {
    // A query's first solve at a node adds the node's record.
    // lmk-lint: allow(hot-alloc) per-query node records
    found = &aq.nodes.emplace_back();
    found->node = &node;
  }
  NodeReply& reply = *found;

  // Collect the local matches: stored entries whose index point lies in
  // the (closed) region of some piece, scored for the per-node top-k
  // cut — by true metric distance when the query carries a ranking
  // function (distributed refinement), else by the contractive L-inf
  // lower bound. Every piece carries the query's focus.
  //
  // One probe answers all the pieces: the node's LocalStore (see
  // src/store/) surfaces the rows inside the pieces' bounding box, in
  // ascending entry index whether it probes its order index or scans
  // stale rows, and the rows inside no piece are dropped. A row on the
  // plane between two pieces is kept once. The reply assembly
  // downstream sorts and dedups by (object, score) anyway, so results
  // stay byte-identical at any thread count.
  const Region* box = &first.region;
  int hops = first.hops;
  if (pieces.size() > 1) {
    solve_box_.ranges = first.region.ranges;  // reuses the capacity
    for (const RangeQuery& q : pieces.subspan(1)) {
      LMK_CHECK(q.qid == first.qid);
      hops = std::max(hops, q.hops);
      for (std::size_t d = 0; d < solve_box_.ranges.size(); ++d) {
        Interval& r = solve_box_.ranges[d];
        r.lo = std::min(r.lo, q.region.ranges[d].lo);
        r.hi = std::max(r.hi, q.region.ranges[d].hi);
      }
    }
    box = &solve_box_;
  }
  SchemeStore& ss = scheme_store(node, aq.scheme);
  solve_hits_.clear();
  aq.outcome.scanned += ss.local.range(ss.entries, *box, solve_hits_);
  // Reserve for a fresh reply only: an exact reserve on every later
  // solve of the step would reallocate each time.
  if (!reply.flush_scheduled) reply.scored.reserve(solve_hits_.size());
  std::uint64_t evaluated = 0;
  for (const std::uint32_t ei : solve_hits_) {
    std::span<const double> pt = ss.entries.point(ei);
    if (pieces.size() > 1 &&
        std::none_of(pieces.begin(), pieces.end(),
                     [pt](const RangeQuery& q) {
                       return linf_box_distance(pt, q.region) <= 0.0;
                     })) {
      continue;  // in the box, between the pieces
    }
    std::uint64_t object = ss.entries.object(ei);
    double score =
        aq.rank ? aq.rank(object) : index_lower_bound(pt, *first.focus);
    reply.scored.emplace_back(score, object);
    ++evaluated;
  }

  const int n = static_cast<int>(pieces.size());
  aq.outcome.subqueries += n;
  aq.outcome.hops = std::max(aq.outcome.hops, hops);
  aq.outcome.candidates += evaluated;
  reply.candidates += evaluated;
  aq.outcome.max_node_candidates =
      std::max(aq.outcome.max_node_candidates, reply.candidates);
  aq.outcome.index_nodes = static_cast<int>(aq.nodes.size());
  aq.outstanding -= n;
  LMK_CHECK(aq.outstanding >= 0);

  if (!reply.flush_scheduled) {
    // One reply per (query, node) per processing step: keep it pending
    // until a zero-delay self event fires, so every piece this node
    // solves in the same step lands in the same result message.
    reply.flush_scheduled = true;
    aq.replies_pending += 1;
    std::uint64_t qid = first.qid;
    ChordNode* node_ptr = &node;
    // Tagged with the node's host so the event queue can account for
    // same-(timestamp, node) tie groups (audit race detector).
    ring_.sim().schedule_after(0, [this, qid, node_ptr]() {
      flush_reply(qid, *node_ptr);
    }, node.host());
  }
}

void IndexPlatform::flush_reply(std::uint64_t qid, ChordNode& node) {
  auto it = active_.find(qid);
  LMK_CHECK(it != active_.end());
  ActiveQuery& aq = it->second;
  NodeReply* found = aq.find(node);
  LMK_CHECK(found != nullptr && found->flush_scheduled);
  NodeReply& reply = *found;
  reply.flush_scheduled = false;
  auto& scored = reply.scored;

  // An entry lying exactly on a split plane belongs to both sibling
  // pieces (closed regions). One episode's probe keeps it once, but two
  // episodes at this node in one step (two messages of the query
  // arriving at the same instant) each score it; drop duplicates
  // before the cut or they crowd out distinct candidates.
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  scored.erase(std::unique(scored.begin(), scored.end(),
                           [](const auto& a, const auto& b) {
                             return a.second == b.second;
                           }),
               scored.end());
  // Per-node top-k cut (paper: "the 10-nearest local results").
  if (aq.mode == ReplyMode::kTopK && scored.size() > opts_.top_k) {
    auto cut = scored.begin() + static_cast<std::ptrdiff_t>(opts_.top_k);
    std::nth_element(scored.begin(), cut, scored.end());
    scored.resize(opts_.top_k);
    // The reply stays in flight for a network delay: ship top_k pairs,
    // not the capacity of every candidate the node scored.
    scored.shrink_to_fit();
  }

  const SchemeRouting& sch = scheme(aq.scheme);
  std::uint64_t bytes =
      sch.result_header_bytes + sch.result_entry_bytes * scored.size();
  aq.outcome.result_messages += 1;
  aq.outcome.result_bytes += bytes;

  // Ship the reply to the querying host, leaving the node's buffer
  // empty for its next step.
  ring_.net().send(node.host(), aq.origin, bytes,
                   [this, qid, shipped = std::exchange(scored, {})]() {
                     auto it2 = active_.find(qid);
                     if (it2 == active_.end()) return;
                     ActiveQuery& a = it2->second;
                     SimTime now = ring_.sim().now();
                     if (!a.got_first_reply) {
                       a.got_first_reply = true;
                       a.outcome.response_time = now - a.t0;
                     }
                     a.outcome.max_latency = now - a.t0;
                     // Repeats are dropped at completion.
                     for (const auto& [score, id] : shipped) {
                       // Per-query result accumulation, freed with the
                       // query — not engine steady state.
                       // lmk-lint: allow(hot-alloc) per-query result list
                       a.outcome.results.push_back(id);
                     }
                     a.replies_pending -= 1;
                     maybe_complete(qid);
                   },
                   &result_traffic_);
}
// lmk-hot-path-end

void IndexPlatform::maybe_complete(std::uint64_t qid) {
  auto it = active_.find(qid);
  if (it == active_.end()) return;
  ActiveQuery& aq = it->second;
  if (aq.outstanding != 0 || aq.replies_pending != 0) return;
  QueryOutcome outcome = std::move(aq.outcome);
  // Sorted (id, arrival) pairs put each id's first arrival first in its
  // run; keep those, back in arrival order.
  std::vector<std::uint64_t>& ids = outcome.results;
  merge_.clear();
  for (std::size_t i = 0; i < ids.size(); ++i) merge_.emplace_back(ids[i], i);
  std::sort(merge_.begin(), merge_.end());
  merge_.erase(std::unique(merge_.begin(), merge_.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               merge_.end());
  if (merge_.size() < ids.size()) {
    std::sort(merge_.begin(), merge_.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    ids.resize(merge_.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = merge_[i].first;
  }
  outcome.complete = true;
  QueryCallback done = std::move(aq.done);
  active_.erase(it);
  done(outcome);
}

std::size_t IndexPlatform::entries_on(const ChordNode& n) const {
  auto it = stores_.find(&n);
  if (it == stores_.end()) return 0;
  std::size_t total = 0;
  for (const auto& ss : it->second.per_scheme) total += ss.entries.size();
  return total;
}

std::vector<std::size_t> IndexPlatform::load_distribution() const {
  std::vector<std::size_t> out;
  for (const ChordNode* n : ring_.alive_nodes()) {
    out.push_back(entries_on(*n));
  }
  return out;
}

void IndexPlatform::drain_all(ChordNode& from, ChordNode& to) {
  NodeStore& src = store_of(from);
  NodeStore& dst = store_of(to);
  for (std::size_t s = 0; s < src.per_scheme.size(); ++s) {
    dst.per_scheme[s].entries.append_moved(src.per_scheme[s].entries);
  }
}

void IndexPlatform::transfer_owned(ChordNode& from, ChordNode& to) {
  LMK_CHECK(to.predecessor().valid());
  Id lo = to.predecessor().id;
  Id hi = to.id();
  NodeStore& src = store_of(from);
  NodeStore& dst = store_of(to);
  for (std::size_t s = 0; s < src.per_scheme.size(); ++s) {
    // Stable extraction: entries `to` now owns move over in store
    // order, survivors compact in place. (The old vector store used an
    // unstable std::partition here; store order never reaches query
    // results — replies are sorted and deduped downstream — so the
    // simpler stable order is observably identical.)
    src.per_scheme[s].entries.extract_if(
        [lo, hi](Id key) { return in_open_closed(key, lo, hi); },
        dst.per_scheme[s].entries);
  }
}

Id IndexPlatform::median_key(const ChordNode& n) const {
  LMK_CHECK(n.predecessor().valid());
  Id pred = n.predecessor().id;
  auto it = stores_.find(&n);
  if (it == stores_.end()) return pred;
  // Collect keys in ring order from the predecessor.
  std::vector<Id> offsets;
  for (const auto& ss : it->second.per_scheme) {
    for (std::size_t i = 0; i < ss.entries.size(); ++i) {
      offsets.push_back(clockwise_distance(pred, ss.entries.key(i)));
    }
  }
  if (offsets.empty()) return pred;
  std::sort(offsets.begin(), offsets.end());
  // The split key: the largest entry key in the first half. A node
  // rejoining at pred + offset takes every entry at or below it.
  std::size_t half = offsets.size() / 2;
  if (half == 0) return pred;
  Id split_offset = offsets[half - 1];
  // All entries on one key: the load cannot be divided (paper §4.3).
  if (split_offset == offsets.back() && offsets.front() == offsets.back()) {
    return pred;
  }
  // If the nominal split would take everything, back off to the largest
  // strictly smaller key so the heavy node keeps the top cluster.
  if (split_offset == offsets.back()) {
    auto lower = std::lower_bound(offsets.begin(), offsets.end(),
                                  split_offset);
    LMK_CHECK(lower != offsets.begin());
    split_offset = *(lower - 1);
  }
  return pred + split_offset;
}

LoadBalancer::Hooks IndexPlatform::balancer_hooks() {
  LoadBalancer::Hooks hooks;
  hooks.load = [this](const ChordNode& n) {
    return static_cast<double>(entries_on(n));
  };
  hooks.split_key = [this](const ChordNode& n) { return median_key(n); };
  hooks.drain_to = [this](ChordNode& from, ChordNode& to) {
    drain_all(from, to);
  };
  hooks.pull_owned = [this](ChordNode& from, ChordNode& to) {
    transfer_owned(from, to);
  };
  return hooks;
}

const TrafficCounter& IndexPlatform::query_traffic() const {
  return opts_.routing == RoutingMode::kTree ? router_.traffic()
                                             : naive_.traffic();
}

const EntryStore& IndexPlatform::store(const ChordNode& n,
                                       std::uint32_t scheme) const {
  static const EntryStore kEmpty;
  auto it = stores_.find(&n);
  if (it == stores_.end() || scheme >= it->second.per_scheme.size()) {
    return kEmpty;
  }
  return it->second.per_scheme[scheme].entries;
}

std::uint64_t IndexPlatform::store_bytes() const {
  std::uint64_t total = 0;
  // Integer sum over disjoint stores: commutative, order-free.
  // lmk-lint: iteration-order-independent
  for (const auto& [node, store] : stores_) {
    for (const auto& ss : store.per_scheme) {
      total += ss.entries.memory_bytes() + ss.local.memory_bytes();
    }
  }
  return total;
}

void IndexPlatform::check_placement_invariant() const {
  // Pure assertion sweep: every entry is checked, nothing accumulated.
  // lmk-lint: iteration-order-independent
  for (const auto& [node, store] : stores_) {
    // Dead nodes are skipped: graceful leavers drained to empty, and a
    // crashed node's copies are simply lost (wiped by the next repair).
    if (!node->alive()) continue;
    for (const auto& ss : store.per_scheme) {
      for (std::size_t i = 0; i < ss.entries.size(); ++i) {
        Id key = ss.entries.key(i);
        if (opts_.replication <= 1) {
          LMK_CHECK(node->owns(key));
        } else {
          auto replicas = replica_nodes(key);
          bool member = false;
          for (ChordNode* r : replicas) member |= (r == node);
          LMK_CHECK(member);
        }
      }
    }
  }
}

void IndexPlatform::repair_replication() {
  // Gather the distinct logical entries per scheme, then rebuild every
  // store with oracle-correct replicated placement. O(total entries);
  // a deployment would repair incrementally, but the end state is the
  // same and this keeps the simulator honest after arbitrary churn.
  struct Logical {
    Id key;
    std::uint64_t object;
    IndexPoint point;
  };
  std::vector<std::vector<Logical>> per_scheme(schemes_.size());
  std::vector<std::unordered_map<std::uint64_t, std::unordered_set<Id>>>
      seen(schemes_.size());
#ifdef LMK_SCHED_MUTATION
  // Mutation-gate bookkeeping (see below): which live nodes held a copy
  // of each logical entry before the rebuild.
  std::vector<std::map<std::pair<std::uint64_t, Id>,
                       std::vector<const ChordNode*>>>
      holders(schemes_.size());
#endif
  // The sweep order decides which replica's copy survives dedup and in
  // what order the rebuilt stores are filled — iterating the
  // pointer-keyed hash map directly would tie both to allocation
  // addresses (ASLR), breaking run-to-run determinism. Sweep in node-id
  // order instead.
  std::vector<std::pair<const ChordNode*, NodeStore*>> sweep;
  sweep.reserve(stores_.size());
  // Collection into the sorted sweep list is order-free.
  // lmk-lint: iteration-order-independent
  for (auto& [node, store] : stores_) {
    sweep.emplace_back(node, &store);
  }
  std::sort(sweep.begin(), sweep.end(),
            [](const auto& a, const auto& b) {
              if (a.first->id() != b.first->id()) {
                return a.first->id() < b.first->id();
              }
              return a.first->host() < b.first->host();
            });
  for (auto& [node, store_ptr] : sweep) {
    NodeStore& store = *store_ptr;
    bool dead = !node->alive();
    for (std::size_t sc = 0; sc < store.per_scheme.size(); ++sc) {
      if (!dead) {
        const EntryStore& es = store.per_scheme[sc].entries;
        for (std::size_t i = 0; i < es.size(); ++i) {
#ifdef LMK_SCHED_MUTATION
          holders[sc][{es.object(i), es.key(i)}].push_back(node);
#endif
          if (seen[sc][es.object(i)].insert(es.key(i)).second) {
            IndexEntry e = es.entry(i);
            per_scheme[sc].push_back(
                Logical{e.key, e.object, std::move(e.point)});
          }
        }
      }
      // Dead stores are purged either way: their copies are lost, and a
      // node reviving later must not resurrect stale data.
      store.per_scheme[sc].entries.clear();
    }
  }
  for (std::size_t sc = 0; sc < per_scheme.size(); ++sc) {
    for (Logical& l : per_scheme[sc]) {
      for (ChordNode* node : replica_nodes(l.key)) {
#ifdef LMK_SCHED_MUTATION
        // Deliberately broken repair, compiled in only for the
        // lmk-sched mutation gate (scripts/check.sh --sched-smoke):
        // copies are refreshed solely on nodes that already held one,
        // never re-replicated onto a replacement successor. Invisible
        // on a fault-free run (every replica already holds its copy);
        // after a crash the entry silently stays under-replicated,
        // which the explorer must catch as a conservation violation
        // and shrink to a minimal fault plan.
        const auto& held = holders[sc][{l.object, l.key}];
        if (std::find(held.begin(), held.end(), node) == held.end()) {
          continue;
        }
#endif
        entries(*node, static_cast<std::uint32_t>(sc))
            .push_back(l.key, l.object, l.point);
      }
    }
  }
}

}  // namespace lmk
