// The index platform: the paper's primary contribution assembled.
//
// One platform sits on one Chord overlay and simultaneously hosts any
// number of index schemes (§1: "a general platform to support arbitrary
// number of indexes on different data types") — each scheme being a
// landmark index space with its own dimensionality, boundary and
// optional rotation offset. The platform owns the distributed entry
// stores, drives the query router, models the paper's message sizes, and
// produces the per-query cost metrics of §4.1 (hops, response time,
// maximum latency, bandwidth).
//
// The platform is deliberately type-erased: it deals in IndexPoints
// (already-mapped landmark coordinates) and opaque object ids. The typed
// facade LandmarkIndex<Space> in core/typed_index.hpp performs the
// metric-space mapping and final true-distance refinement.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "balance/migration.hpp"
#include "common/arena.hpp"
#include "core/entry_store.hpp"
#include "routing/naive.hpp"
#include "routing/router.hpp"
#include "serve/serve.hpp"
#include "store/local_store.hpp"

namespace lmk {

/// What an index node sends back for a subquery.
enum class ReplyMode {
  kAllMatches,  ///< every stored entry inside the query region
  kTopK,        ///< the top_k entries nearest the focus (paper's recall
                ///< model: "each queried index node returns the 10-nearest
                ///< local results")
};

/// Which delivery engine resolves range queries.
enum class RoutingMode {
  kTree,   ///< embedded-tree routing (Algorithms 3-5)
  kNaive,  ///< client-side decomposition baseline
};

/// Multi-index platform over one Chord ring.
class IndexPlatform {
 public:
  struct Options {
    std::size_t top_k = 10;  ///< local candidates per node in kTopK mode
    RoutingMode routing = RoutingMode::kTree;
    int naive_split_depth = 10;  ///< client decomposition depth (naive)
    /// Entry replication degree: each entry is stored on its owner and
    /// the next (replication - 1) distinct successors, so crash
    /// failures lose no data until `replication` consecutive nodes die
    /// between repair rounds. Queries deduplicate replica hits. 1 = the
    /// paper's unreplicated setup.
    std::size_t replication = 1;
  };

  /// Everything the caller learns about one finished query — the paper's
  /// cost metrics (§4.1) plus bookkeeping for the analysis scripts.
  struct QueryOutcome {
    std::vector<std::uint64_t> results;  ///< merged object ids
    int hops = 0;                ///< max path length to any index node
    SimTime response_time = 0;   ///< first reply arrival - injection
    SimTime max_latency = 0;     ///< last reply arrival - injection
    std::uint64_t query_messages = 0;  ///< query-delivery messages
    std::uint64_t query_bytes = 0;     ///< query-delivery bandwidth
    std::uint64_t result_messages = 0;
    std::uint64_t result_bytes = 0;    ///< results-delivery bandwidth
    int index_nodes = 0;         ///< distinct nodes that answered
    int subqueries = 0;          ///< local solves performed
    /// Candidates evaluated during distributed refinement: total across
    /// all index nodes, and the busiest single node's share (the
    /// "query processing overhead" the paper charges against greedy
    /// landmark hotspots in §4.3).
    std::uint64_t candidates = 0;
    std::uint64_t max_node_candidates = 0;
    /// Stored entries *examined* across all local solves (the per-node
    /// scan cost). A fresh local store examines only the entries inside
    /// its most selective dimension's range, not the node's whole store
    /// — the online-path pruning the perf bench regresses against; a
    /// stale one scans every row (src/store/local_store.hpp).
    std::uint64_t scanned = 0;
    int lost_subqueries = 0;     ///< dropped by churn (0 in steady state)
    /// Serving-layer accounting (0 with the serving tier off): subquery
    /// solves answered from a node's hot-result cache, and admission-
    /// control bounces this query absorbed before completing.
    std::uint64_t cache_hits = 0;
    std::uint64_t shed = 0;
    bool complete = false;
  };

  using QueryCallback = std::function<void(const QueryOutcome&)>;

  /// True metric distance from the query object to a stored object —
  /// used by index nodes to rank their local candidates in kTopK mode
  /// (the paper's distributed refinement: index nodes evaluate the
  /// metric on their local candidates; §4.3 attributes the greedy
  /// scheme's hotspot cost to exactly this per-node query processing).
  /// When absent, nodes fall back to the index-space L∞ lower bound.
  using DistanceFn = std::function<double(std::uint64_t object)>;

  IndexPlatform(Ring& ring, Options opts);
  explicit IndexPlatform(Ring& ring) : IndexPlatform(ring, Options{}) {}

  // ----- scheme registry -----

  /// Register an index scheme; returns its id. `rotate` applies the
  /// static space-mapping rotation φ = hash(name) (§3.4).
  std::uint32_t register_scheme(const std::string& name, Boundary boundary,
                                bool rotate);

  /// Replace a scheme's index-space boundary (same dimensionality) —
  /// part of re-indexing against a refreshed landmark set. The scheme's
  /// store must be empty (clear_scheme first): existing keys were
  /// hashed against the old boundary.
  void update_scheme_boundary(std::uint32_t id, Boundary boundary);

  [[nodiscard]] const SchemeRouting& scheme(std::uint32_t id) const;
  [[nodiscard]] const std::string& scheme_name(std::uint32_t id) const;
  [[nodiscard]] std::size_t scheme_count() const { return schemes_.size(); }

  [[nodiscard]] const Options& options() const { return opts_; }

  // ----- data -----

  /// Bulk-load one entry at its owner (oracle placement; no messages).
  /// Used to initialize experiments, mirroring the paper's setup phase.
  void insert(std::uint32_t scheme, std::uint64_t object,
              const IndexPoint& point);

  /// Bulk-load a whole batch: points[i] is stored for object id
  /// first_object + i. The LPH key computation fans out over the
  /// deterministic thread pool; store mutation stays sequential in
  /// index order, so the resulting placement is byte-identical to
  /// calling insert() in a loop (for any thread count).
  void bulk_insert(std::uint32_t scheme, std::span<const IndexPoint> points,
                   std::uint64_t first_object = 0);

  /// Flat-buffer bulk load: `coords` holds size/dims row-major index
  /// points (row i is stored for object first_object + i). This is the
  /// streaming-construction path — batches of mapped points live in
  /// arena scratch and flow straight into the SoA stores without ever
  /// materializing per-point heap vectors. Placement order is identical
  /// to insert() in a loop for any thread count.
  void bulk_insert_flat(std::uint32_t scheme, std::span<const double> coords,
                        std::size_t dims, std::uint64_t first_object = 0);

  /// Costed insertion: route a store request from `origin` through Chord
  /// to the owner. `done(hops)` fires when stored.
  void insert_via_network(ChordNode& origin, std::uint32_t scheme,
                          std::uint64_t object, IndexPoint point,
                          std::function<void(int hops)> done = {});

  /// Remove one entry (bulk/oracle path): finds the owner by the
  /// entry's index point and erases it. Returns false when the object
  /// was not indexed (or the point does not match what was inserted).
  bool remove(std::uint32_t scheme, std::uint64_t object,
              const IndexPoint& point);

  /// Costed removal routed through Chord from `origin`.
  void remove_via_network(ChordNode& origin, std::uint32_t scheme,
                          std::uint64_t object, IndexPoint point,
                          std::function<void(bool removed, int hops)> done =
                              {});

  /// Drop every entry of one scheme (used when re-indexing against a
  /// new landmark set — the paper's dynamic-dataset future work).
  void clear_scheme(std::uint32_t scheme);

  /// Entries currently stored for one scheme across all nodes.
  [[nodiscard]] std::size_t scheme_entries(std::uint32_t scheme) const;

  /// Total entries across all nodes and schemes.
  [[nodiscard]] std::size_t total_entries() const;

  // ----- queries -----

  /// Near-neighbour query (center, radius): searches the k-cube of edge
  /// 2*radius around `center` (§3.1). Completion fires when replies from
  /// every contacted index node have arrived.
  void range_query(ChordNode& origin, std::uint32_t scheme,
                   const IndexPoint& center, double radius, ReplyMode mode,
                   QueryCallback done, DistanceFn rank = {});

  /// General region query (arbitrary box); `focus` seeds the fallback
  /// top-k ranking when no DistanceFn is supplied.
  void region_query(ChordNode& origin, std::uint32_t scheme, Region region,
                    IndexPoint focus, ReplyMode mode, QueryCallback done,
                    DistanceFn rank = {});

  /// Queries injected but not yet completed.
  [[nodiscard]] std::size_t active_queries() const { return active_.size(); }

  /// Reply messages `n` has accumulated but not yet flushed — the
  /// per-node queue depth the flagship bench samples while the
  /// open-loop workload runs.
  [[nodiscard]] std::size_t pending_reply_depth(const ChordNode& n) const;

  // ----- memory accounting -----

  /// Resident heap bytes of all entry stores plus their local stores'
  /// order indices (the payload the flagship bench reports).
  [[nodiscard]] std::uint64_t store_bytes() const;

  // ----- local stores -----

  /// The local-store configuration of scheme `id`. There are no knobs:
  /// every scheme runs the one store. This and local_store_name remain
  /// for perfbench/program.hpp and the flagship JSON.
  [[nodiscard]] const LocalStoreOptions& local_store_options(
      std::uint32_t id) const;

  /// Name of scheme `id`'s local store, for logs and JSON.
  [[nodiscard]] const char* local_store_name(std::uint32_t id) const {
    (void)local_store_options(id);
    return "sorted";
  }

  /// Cumulative local-store builds across all nodes and schemes: only
  /// builds actually performed count, so churn shows up as extra
  /// rebuilds once the probes after it have paid for them.
  [[nodiscard]] LocalStoreBuildStats local_store_stats() const;

  /// Counters of the in-flight reply-buffer pool (one buffer per
  /// (query, node) reply under construction).
  [[nodiscard]] const RecyclePoolStats& reply_pool_stats() const {
    return reply_pool_.stats();
  }

  // ----- serving layer (src/serve/) -----

  /// Reconfigure the serving tier: result caches, router coalescing
  /// window, and admission control. Enabling any knob instantiates the
  /// per-node ServeState; a fully-disabled options struct tears it down
  /// (dropping caches and counters — benches use this between rungs).
  /// The constructor applies ServeOptions::from_env(), so the LMK_SERVE_*
  /// environment switches the tier on without code changes.
  void set_serve_options(const ServeOptions& opts);

  /// The live serving state, or nullptr with the tier off.
  [[nodiscard]] const ServeState* serve_state() const { return serve_.get(); }

  /// Cross-query batching gauge: episodes merged into an already-open
  /// coalescing window (each one a message the per-episode flush would
  /// have sent on its own).
  [[nodiscard]] std::uint64_t coalesced_messages() const {
    return router_.coalesced_messages();
  }

  // ----- load & migration (used by LoadBalancer and benches) -----

  /// Entries stored on `n` summed over schemes (the paper's load value).
  [[nodiscard]] std::size_t entries_on(const ChordNode& n) const;

  /// Loads of all alive nodes, unsorted.
  [[nodiscard]] std::vector<std::size_t> load_distribution() const;

  /// Move every entry from `from` to `to` (graceful departure).
  void drain_all(ChordNode& from, ChordNode& to);

  /// Move the entries `to` now owns (keys in (to.predecessor, to]) from
  /// `from` to `to` (post-rejoin pull).
  void transfer_owned(ChordNode& from, ChordNode& to);

  /// The split point dividing `n`'s stored entries in half along the
  /// ring, in ring order from its predecessor. Returns n.predecessor().id
  /// when no useful split exists (empty store, or all entries share one
  /// key — the paper notes single-key load cannot be divided).
  [[nodiscard]] Id median_key(const ChordNode& n) const;

  /// Ready-made hooks wiring this platform to a LoadBalancer: load =
  /// entries_on, split = median_key, drain/pull = the transfer methods.
  [[nodiscard]] LoadBalancer::Hooks balancer_hooks();

  // ----- traffic -----

  [[nodiscard]] const TrafficCounter& query_traffic() const;
  [[nodiscard]] const TrafficCounter& result_traffic() const {
    return result_traffic_;
  }

  // ----- introspection (tests, invariants) -----

  /// The entries of one scheme stored on `n`.
  [[nodiscard]] const EntryStore& store(const ChordNode& n,
                                        std::uint32_t scheme) const;

  /// Mutable access to a node's store, bypassing placement. Exists so
  /// the audit mutation tests can inject protocol faults (misplaced,
  /// dropped or duplicated entries) behind the platform's back; regular
  /// code must go through insert/remove/transfer.
  [[nodiscard]] EntryStore& mutable_store(const ChordNode& n,
                                          std::uint32_t scheme) {
    // Out-of-band mutation: nothing reports the touched points, so the
    // node's result cache can only be wiped wholesale.
    serve_wipe(n, scheme);
    return entries(n, scheme);
  }

  /// Verify placement: with replication = 1, every stored entry sits on
  /// the node owning its key; with replication r, each copy sits on the
  /// owner or one of its r-1 successors, and the owner holds a copy.
  /// Aborts on violation.
  void check_placement_invariant() const;

  /// Re-establish the replication invariant after membership changes:
  /// re-replicates under-replicated entries, pulls entries to their
  /// owner, and drops surplus copies. Call after crashes/migrations
  /// when replication > 1 (a deployment would run this periodically).
  void repair_replication();

 private:
  /// One scheme's entries on one node, plus the LocalStore indexing
  /// them. on_solve probes the LocalStore instead of scanning the whole
  /// store. Every writer invalidates it; the store then decides when a
  /// rebuild has paid for itself (see src/store/local_store.hpp), which
  /// is also what keeps migration and rotation working unchanged.
  struct SchemeStore {
    EntryStore entries;
    LocalStore local;
  };
  struct NodeStore {
    std::vector<SchemeStore> per_scheme;
    /// Reply flushes scheduled but not yet fired on this node — the
    /// queue-depth gauge behind pending_reply_depth().
    std::uint32_t pending_replies = 0;
  };
  struct ActiveQuery {
    std::uint32_t scheme = 0;
    HostId origin = 0;
    /// The issuing node, pinned by incarnation — the admission
    /// controller's shed/retry protocol re-injects bounced subqueries
    /// here (and drops them if the origin departed).
    ChordNode* origin_node = nullptr;
    std::uint32_t origin_inc = 0;
    ReplyMode mode = ReplyMode::kAllMatches;
    SimTime t0 = 0;
    int outstanding = 0;
    int replies_pending = 0;
    bool got_first_reply = false;
    QueryOutcome outcome;
    QueryCallback done;
    DistanceFn rank;
    // Per-node tally bumped on solve and read back per node at reply
    // flush; never iterated.
    // lmk-lint: allow(pointer-key-unordered)
    std::unordered_map<const ChordNode*, std::uint64_t> node_candidates;
    std::unordered_set<std::uint64_t> seen;
  };

  /// Reply under construction: candidates a node accumulated for one
  /// query across the subqueries it solved in one processing step. The
  /// flush (a zero-delay self event) applies the per-node top-k cut and
  /// ships ONE result message — the paper's "each queried index node
  /// returns the 10-nearest local results".
  struct PendingReply {
    std::vector<std::pair<double, std::uint64_t>> scored;
    bool flush_scheduled = false;
    bool pooled = false;  ///< scored came from reply_pool_
  };

  [[nodiscard]] std::vector<ChordNode*> replica_nodes(Id key) const;
  NodeStore& store_of(const ChordNode& n);
  SchemeStore& scheme_store(const ChordNode& n, std::uint32_t scheme);
  /// Mutable entry store; invalidates the local store. All writers must
  /// come through here, or invalidate it themselves.
  EntryStore& entries(const ChordNode& n, std::uint32_t scheme);
  /// Erase one copy of (object, key) from `n`'s store. Only a successful
  /// erase invalidates the local store and the result cache.
  bool erase_entry(const ChordNode& n, std::uint32_t scheme,
                   std::uint64_t object, Id key, const IndexPoint& point);
  /// Serving-tier dispatcher: admission control and queueing in front
  /// of the actual solve. With the tier off it is a tail call into
  /// solve_subquery — byte-identical to the pre-serve behavior.
  void on_solve(const RangeQuery& q, ChordNode& node);
  /// The local solve proper (cache probe, store probe, reply staging).
  void solve_subquery(const RangeQuery& q, ChordNode& node);
  /// Bounce an over-admission subquery back to its origin for a
  /// backed-off retry (deterministic exponential backoff).
  void shed_subquery(const RangeQuery& q, ChordNode& node);
  /// Coverage invalidation fan-in for one (node, scheme, point) insert
  /// or removal; no-op with the serving tier off (inline so the bulk
  /// load paths pay one predictable branch).
  void serve_invalidate(const ChordNode& n, std::uint32_t scheme,
                        std::span<const double> point) {
    if (serve_ != nullptr) serve_->invalidate_point(n.host(), scheme, point);
  }
  /// Conservative per-(node, scheme) cache wipe for bulk mutations
  /// (drain, transfer, clear, replication repair, fault injection).
  void serve_wipe(const ChordNode& n, std::uint32_t scheme) {
    if (serve_ != nullptr) serve_->invalidate_scheme(n.host(), scheme);
  }
  void flush_reply(std::uint64_t qid, ChordNode& node);
  void on_fanout(std::uint64_t qid, int delta);
  void on_sent(std::uint64_t qid, std::uint64_t bytes);
  void maybe_complete(std::uint64_t qid);

  Ring& ring_;
  Options opts_;
  std::vector<std::unique_ptr<SchemeRouting>> schemes_;
  std::vector<std::string> scheme_names_;
  /// on_solve scratch: entry indices the local store surfaced for the
  /// current subquery. One buffer suffices — solves never nest.
  std::vector<std::uint32_t> solve_hits_;
  // Lookup-only store map: every cross-node walk goes through ring
  // order (Ring::nodes), not this map.
  // lmk-lint: allow(pointer-key-unordered)
  std::unordered_map<const ChordNode*, NodeStore> stores_;
  std::unordered_map<std::uint64_t, ActiveQuery> active_;
  // The inner map is looked up by the solving node only; reply flushes
  // are per-(qid, node) events, so no code path iterates it.
  std::unordered_map<std::uint64_t,
                     // lmk-lint: allow(pointer-key-unordered) see above
                     std::unordered_map<const ChordNode*, PendingReply>>
      pending_replies_;
  std::uint64_t next_qid_ = 1;
  QueryRouter router_;
  NaiveRouter naive_;
  TrafficCounter result_traffic_;
  /// Serving tier (nullptr = off, the default: fig pipelines must stay
  /// byte-identical). See src/serve/serve.hpp for the knobs.
  std::unique_ptr<ServeState> serve_;
  /// Gather scratch for cache fills (object ids + flat coords of the
  /// current solve's hits) and for LMK_SERVE_VERIFY re-solves.
  std::vector<std::uint64_t> cache_objs_;
  std::vector<double> cache_coords_;
  std::vector<std::uint64_t> verify_objs_;
  /// Recycles the scored-candidate buffers of in-flight replies: one
  /// acquire per (query, node) reply, released when the reply ships.
  RecyclePool<std::vector<std::pair<double, std::uint64_t>>> reply_pool_;
};

}  // namespace lmk
