// The Chord overlay: node ownership, oracle construction, protocol
// operations (lookup, join, stabilization), and dynamic membership.
//
// Two construction modes are provided:
//
//  * bootstrap() installs the routing state a fully converged
//    stabilization would produce — correct predecessor/successor lists
//    and (optionally PNS-optimized) finger tables — directly from global
//    knowledge. Experiments start from this state, as the paper measures
//    query performance "after system stabilization".
//
//  * protocol_join() + stabilization rounds implement the actual Chord
//    maintenance protocol over simulated messages; tests verify that it
//    converges to the oracle state, and dynamic load migration uses the
//    same local-repair primitives.
//
// Proximity Neighbour Selection (PNS, per Dabek et al. NSDI'04, used by
// the paper as "Chord-PNS") picks each finger among the candidate nodes
// in the finger's identifier interval by lowest network latency, sampling
// at most `pns_samples` candidates.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "chord/node.hpp"
#include "sim/network.hpp"

namespace lmk {

/// Continuation for lookups: resolved node reference + overlay hop count.
using LookupCallback = std::function<void(NodeRef, int hops)>;

/// Chord overlay container.
class Ring {
 public:
  struct Options {
    bool pns = true;          ///< proximity neighbour selection for fingers
    int pns_samples = 16;     ///< candidates examined per finger
    std::uint64_t seed = 1;   ///< id-assignment seed
    /// Modeled size of one maintenance/control message in bytes
    /// (header + one node reference). Maintenance traffic is counted
    /// separately from query traffic.
    std::uint64_t control_message_bytes = 32;
  };

  Ring(Network& net, Options opts);

  // ----- population -----

  /// Create a node for `host` with id = consistent hash of the host.
  ChordNode& create_node(HostId host);

  /// Create a node with an explicit identifier (tests, load migration).
  /// A host runs at most one node: the load prober marks visits by host.
  ChordNode& create_node_with_id(HostId host, Id id);

  /// Number of nodes ever created (alive or dead).
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// All currently alive nodes (unsorted, stable order of creation).
  [[nodiscard]] std::vector<ChordNode*> alive_nodes() const;

  /// Number of alive nodes.
  [[nodiscard]] std::size_t alive_count() const { return sorted_.size(); }

  ChordNode& node(std::size_t index) { return *nodes_[index]; }

  // ----- oracle (global-knowledge) operations -----

  /// Install converged routing state on every alive node.
  void bootstrap();

  /// Successor of `key`: the alive node owning it. Requires >= 1 node.
  [[nodiscard]] ChordNode* oracle_successor(Id key) const;

  /// The alive node immediately preceding `key` (id strictly before it).
  [[nodiscard]] ChordNode* oracle_predecessor(Id key) const;

  /// Oracle-correct successor list / predecessor for one node.
  void fix_neighbors(ChordNode& n);

  /// Oracle-correct finger table for one node (with PNS if enabled).
  void fix_fingers(ChordNode& n);

  // ----- protocol operations (message-driven) -----

  /// Resolve the predecessor of `key` starting at `from`, following
  /// next_hop links; cost: one control message per hop.
  void find_predecessor(ChordNode& from, Id key, LookupCallback done);

  /// Resolve the successor (owner) of `key` starting at `from`.
  void find_successor(ChordNode& from, Id key, LookupCallback done);

  /// Join `n` into the overlay through `gateway` using protocol messages;
  /// `done` fires when the join completes (successor installed,
  /// neighbours notified). Stabilization then refines the state.
  void protocol_join(ChordNode& n, ChordNode& gateway,
                     std::function<void()> done);

  /// One stabilization round for `n`: verify successor, notify, pull the
  /// successor list, refresh one finger (protocol messages).
  void stabilize(ChordNode& n);

  /// Run `rounds` full stabilization sweeps over all alive nodes, spaced
  /// `period` apart in virtual time, then drain the simulator.
  void run_stabilization(int rounds, SimTime period);

  // ----- dynamic membership (load migration building blocks) -----

  /// Graceful departure: the node leaves, neighbours are repaired
  /// immediately (successor lists / predecessors), fingers elsewhere go
  /// stale and are repaired on use / by stabilization.
  void leave(ChordNode& n);

  /// Crash failure: the node dies with NO repair — every reference to
  /// it (successor lists, predecessors, fingers) goes stale and must be
  /// healed by stabilization. In-flight messages to it are dropped by
  /// their incarnation guards. Its stored entries are lost (no
  /// replication, as in the paper).
  void fail(ChordNode& n);

  /// Rejoin a departed node under a new identifier; local neighbourhood
  /// is repaired immediately.
  void rejoin(ChordNode& n, Id new_id);

  /// Refresh every alive node's finger table from the oracle (cheap
  /// stand-in for letting many fix-finger rounds run between migrations).
  void refresh_all_fingers();

  // ----- plumbing -----

  Network& net() { return net_; }
  Simulator& sim() { return net_.sim(); }
  const Options& options() const { return opts_; }

  /// Maintenance traffic accumulated by protocol operations.
  [[nodiscard]] const TrafficCounter& maintenance_traffic() const {
    return maintenance_;
  }

  /// Send a control RPC to `to`; the handler runs only if `to` is still
  /// alive in the same incarnation when the message arrives.
  void rpc(HostId from, ChordNode& to, std::function<void(ChordNode&)> fn);

 private:
  void insert_sorted(ChordNode& n);
  void remove_sorted(ChordNode& n);
  [[nodiscard]] std::size_t sorted_index_of_successor(Id key) const;
  [[nodiscard]] std::vector<NodeRef> successor_list_from(std::size_t idx,
                                                         ChordNode* skip) const;

  Network& net_;
  Options opts_;
  std::vector<std::unique_ptr<ChordNode>> nodes_;
  std::vector<ChordNode*> sorted_;  // alive nodes, ascending id
  std::vector<bool> host_taken_;    // hosts that run a node, alive or dead
  TrafficCounter maintenance_;
};

}  // namespace lmk
