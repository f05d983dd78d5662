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
#include "core/entry_store.hpp"
#include "routing/naive.hpp"
#include "routing/router.hpp"
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
    /// Pieces solved locally: the sub-cuboids surrogate refinement (or
    /// the naive walk) covered. The pieces one node solves in one
    /// routing episode share one store probe, so this counts pieces,
    /// not probes.
    int subqueries = 0;
    /// Candidates evaluated during distributed refinement: total across
    /// all index nodes, and the busiest single node's share (the
    /// "query processing overhead" the paper charges against greedy
    /// landmark hotspots in §4.3).
    std::uint64_t candidates = 0;
    std::uint64_t max_node_candidates = 0;
    /// Stored entries *examined* across all store probes (the per-node
    /// scan cost). A node probes once per routing episode, over the
    /// bounding box of the pieces it solves in that episode. A fresh
    /// local store examines only the entries inside the box's most
    /// selective dimension's range, not the node's whole store — the
    /// online-path pruning the perf bench regresses against; a stale
    /// one scans every row (src/store/local_store.hpp).
    std::uint64_t scanned = 0;
    int lost_subqueries = 0;     ///< dropped by churn (0 in steady state)
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

  /// Bulk-load a batch: `coords` holds size/dims row-major index points
  /// (row i is stored for object first_object + i), so mapped rows flow
  /// straight into the SoA stores without per-point heap vectors. The
  /// LPH key computation fans out over the deterministic thread pool;
  /// store mutation stays sequential in row order, so the placement is
  /// byte-identical to calling insert() in a loop (for any thread
  /// count).
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

  // ----- memory accounting -----

  /// Resident heap bytes of all entry stores plus their local stores'
  /// order index and probe buffers (the payload the flagship bench
  /// reports).
  [[nodiscard]] std::uint64_t store_bytes() const;

  // ----- local stores -----

  /// The local-store configuration of scheme `id`. There are no knobs:
  /// every scheme runs the one store. This and local_store_name remain
  /// only for perfbench/program.hpp.
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
  };
  /// One index node's part in one query. `candidates` tallies what the
  /// node evaluated over the whole query. `scored` stages the reply to
  /// the pieces it solved in the current processing step; the flush
  /// (a zero-delay self event) applies the per-node top-k cut and ships
  /// it as ONE result message — the paper's "each queried index node
  /// returns the 10-nearest local results".
  struct NodeReply {
    std::uint64_t candidates = 0;
    std::vector<std::pair<double, std::uint64_t>> scored;
    bool flush_scheduled = false;
  };
  /// Everything the platform knows about one in-flight query; erased
  /// when the query completes.
  struct ActiveQuery {
    std::uint32_t scheme = 0;
    HostId origin = 0;
    ReplyMode mode = ReplyMode::kAllMatches;
    SimTime t0 = 0;
    int outstanding = 0;
    int replies_pending = 0;
    bool got_first_reply = false;
    QueryOutcome outcome;
    QueryCallback done;
    DistanceFn rank;
    // Found by the solving and the flushing node only; its size is the
    // only aggregate read, so no code path iterates it.
    // lmk-lint: allow(pointer-key-unordered) lookup-only per-node records
    std::unordered_map<const ChordNode*, NodeReply> nodes;
    std::unordered_set<std::uint64_t> seen;
  };

  [[nodiscard]] std::vector<ChordNode*> replica_nodes(Id key) const;
  /// Store one entry on `primary`, then on the key's other replicas in
  /// successor order. The unreplicated path allocates nothing.
  void place(ChordNode& primary, std::uint32_t scheme, Id key,
             std::uint64_t object, std::span<const double> point);
  NodeStore& store_of(const ChordNode& n);
  SchemeStore& scheme_store(const ChordNode& n, std::uint32_t scheme);
  /// Mutable entry store; invalidates the local store. All writers must
  /// come through here, or invalidate it themselves.
  EntryStore& entries(const ChordNode& n, std::uint32_t scheme);
  /// Erase one copy of (object, key) from `n`'s store. Only a successful
  /// erase invalidates the local store.
  bool erase_entry(const ChordNode& n, std::uint32_t scheme,
                   std::uint64_t object, Id key);
  /// The local solve of one routing episode's pieces at `node` (all of
  /// one query): one store probe over their bounding box, keeping the
  /// rows inside any piece, then scoring and reply staging. The naive
  /// router hands its pieces over one at a time.
  void on_solve(std::span<const RangeQuery> pieces, ChordNode& node);
  void flush_reply(std::uint64_t qid, ChordNode& node);
  void on_fanout(std::uint64_t qid, int delta);
  void on_sent(std::uint64_t qid, std::uint64_t bytes);
  void maybe_complete(std::uint64_t qid);

  Ring& ring_;
  Options opts_;
  std::vector<std::unique_ptr<SchemeRouting>> schemes_;
  std::vector<std::string> scheme_names_;
  /// on_solve scratch: the bounding box of the current pieces and the
  /// entry indices the local store surfaced for it. One of each
  /// suffices — solves never nest.
  Region solve_box_;
  std::vector<std::uint32_t> solve_hits_;
  // Lookup-only store map: every cross-node walk goes through ring
  // order (Ring::nodes), not this map.
  // lmk-lint: allow(pointer-key-unordered)
  std::unordered_map<const ChordNode*, NodeStore> stores_;
  std::unordered_map<std::uint64_t, ActiveQuery> active_;
  std::uint64_t next_qid_ = 1;
  QueryRouter router_;
  NaiveRouter naive_;
  TrafficCounter result_traffic_;
};

}  // namespace lmk
