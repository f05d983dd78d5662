// Dynamic load migration (paper §3.4).
//
// Each node periodically samples the load of its neighbours (routing
// table entries, expanded transitively to probing level P_l). A node N
// is heavily loaded when L_N > avg * (1 + δ_N). A heavy node finds the
// lightest probed node and asks it to leave and rejoin at a chosen split
// point — the key that divides the heavy node's stored entries in
// halves — so the rejoined node takes over half of N's load. Departing
// nodes hand their entries to their successor; rejoined nodes pull the
// entries they now own from their new successor.
//
// Load is measured in stored index entries, as in the paper; the LoadFn
// hook lets callers fold in other signals (message counts etc.).
#pragma once

#include <functional>

#include "chord/ring.hpp"

namespace lmk {

/// Orchestrates leave/rejoin load migrations over a Ring. Storage stays
/// with the index platform; the balancer drives it through hooks.
class LoadBalancer {
 public:
  /// Upper bound on probed nodes per round per node (keeps P_l=4
  /// neighbourhoods from degenerating into global knowledge).
  static constexpr std::size_t kMaxProbeSet = 256;

  struct Options {
    /// Threshold factor δ: heavy when load > neighbourhood avg * (1+δ).
    double delta = 0.0;
    /// Probing level P_l: how many routing-table hops the neighbourhood
    /// sample expands through.
    int probe_level = 4;
  };

  /// During a round, a node's `load` may change only through `drain_to`
  /// and `pull_owned`: run_round reads every load once and re-reads just
  /// the nodes a migration touched. The platform's hooks (entries
  /// stored) meet this.
  struct Hooks {
    /// Current load of a node (index entries stored).
    std::function<double(const ChordNode&)> load;
    /// The split point of a heavy node's key range: an id such that the
    /// entries with (rotated) keys at or below it are half the load.
    std::function<Id(const ChordNode&)> split_key;
    /// Move every entry from `from` to `to` (graceful departure).
    std::function<void(ChordNode& from, ChordNode& to)> drain_to;
    /// After `to` rejoined as `from`'s predecessor: move the entries
    /// `to` now owns (keys in (to's predecessor, to]) from `from`.
    std::function<void(ChordNode& from, ChordNode& to)> pull_owned;
  };

  LoadBalancer(Ring& ring, Options opts, Hooks hooks);

  /// One probing round over every alive node (deterministic order).
  /// Returns the number of migrations performed. A node moves load only
  /// when its lightest probe holds under half its load, and every probe
  /// is another alive node; so a node that no alive node undercuts by
  /// that much is skipped without a probe walk. The round reads every
  /// alive node's load once into a table indexed by host that keeps its
  /// two smallest entries, and re-reads the three nodes each migration
  /// touches (victim, victim's successor, heavy node). The skip returns
  /// exactly the `false` the walk would have, so migrations, their order
  /// and the final layout do not change.
  int run_round();

  /// Rounds until a round performs no migration (or max_rounds).
  /// Returns total migrations.
  int run_until_stable(int max_rounds = 50);

  /// Number of migrations performed so far.
  [[nodiscard]] int migrations() const { return migrations_; }

  /// The probe set of `n`: routing-table neighbours expanded to
  /// probe_level hops (n excluded), at most kMaxProbeSet nodes. A
  /// breadth-first walk that visits each frontier node's valid
  /// routing_table() entries in order, then its predecessor, and stops
  /// once the set is full. Visits are marked by host, so it relies on
  /// Ring's one-node-per-host rule. Exposed for tests/diagnostics.
  [[nodiscard]] std::vector<ChordNode*> probe_set(ChordNode& n) const;

 private:
  struct LoadTable;  // one round's loads by host (migration.cpp)
  bool try_migrate(ChordNode& heavy, LoadTable& loads);

  Ring& ring_;
  Options opts_;
  Hooks hooks_;
  int migrations_ = 0;
};

}  // namespace lmk
