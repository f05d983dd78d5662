#include "balance/migration.hpp"

#include <cstdint>
#include <limits>
#include <span>

#include "common/check.hpp"

namespace lmk {

// One round's load of every alive node, indexed by host (+inf where no
// alive node runs), and its two smallest entries. Exact for the round
// as long as the nodes each migration touches are re-read (see Hooks).
struct LoadBalancer::LoadTable {
  static constexpr double kNone = std::numeric_limits<double>::infinity();

  LoadTable(std::size_t hosts,
            const std::function<double(const ChordNode&)>& load_fn)
      : load(load_fn), by_host(hosts, kNone) {}

  /// (Re-)read the loads of `nodes`, then re-rank.
  void read(std::span<ChordNode* const> nodes) {
    for (const ChordNode* n : nodes) by_host[n->host()] = load(*n);
    rank();
  }

  [[nodiscard]] double of(const ChordNode& n) const {
    // Only alive nodes probe or are probed, and none joins mid-round.
    LMK_CHECK(by_host[n.host()] != kNone);
    return by_host[n.host()];
  }

  /// The smallest load among the alive nodes other than `n`.
  [[nodiscard]] double floor_without(const ChordNode& n) const {
    return n.host() == min_host ? second : min;
  }

 private:
  void rank() {
    min = second = kNone;
    for (HostId h = 0; h < by_host.size(); ++h) {
      const double l = by_host[h];
      if (l < min) {
        second = min;
        min = l;
        min_host = h;
      } else if (l < second) {
        second = l;
      }
    }
  }

  const std::function<double(const ChordNode&)>& load;
  std::vector<double> by_host;
  HostId min_host = 0;
  double min = kNone;
  double second = kNone;
};

LoadBalancer::LoadBalancer(Ring& ring, Options opts, Hooks hooks)
    : ring_(ring), opts_(opts), hooks_(std::move(hooks)) {
  LMK_CHECK_MSG(hooks_.load != nullptr, "load hook not supplied");
  LMK_CHECK_MSG(hooks_.split_key != nullptr, "split_key hook not supplied");
  LMK_CHECK_MSG(hooks_.drain_to != nullptr, "drain_to hook not supplied");
  LMK_CHECK_MSG(hooks_.pull_owned != nullptr, "pull_owned hook not supplied");
  LMK_CHECK_MSG(opts_.probe_level >= 1, "probe_level %d must be >= 1",
                opts_.probe_level);
}

std::vector<ChordNode*> LoadBalancer::probe_set(ChordNode& n) const {
  std::vector<std::uint8_t> seen(ring_.net().hosts(), 0);
  seen[n.host()] = 1;
  std::vector<ChordNode*> out;
  auto visit = [&](const NodeRef& r) {
    if (out.size() >= kMaxProbeSet || !r.valid()) return;
    if (seen[r.node->host()] != 0) return;
    seen[r.node->host()] = 1;
    out.push_back(r.node);
  };
  auto expand = [&](const ChordNode& cur) {
    for (const NodeRef& r : cur.routing_table()) visit(r);
    visit(cur.predecessor());
  };
  // Level 1 expands n; level l + 1 expands the nodes level l added.
  expand(n);
  std::size_t level_begin = 0;
  for (int level = 1; level < opts_.probe_level; ++level) {
    const std::size_t level_end = out.size();
    for (std::size_t i = level_begin;
         i < level_end && out.size() < kMaxProbeSet; ++i) {
      expand(*out[i]);
    }
    level_begin = level_end;
  }
  return out;
}

bool LoadBalancer::try_migrate(ChordNode& heavy, LoadTable& loads) {
  const double my_load = loads.of(heavy);
  // Every probe is another alive node: if none of those holds under
  // half of my_load, the walk would end in the victim test's `false`.
  if (loads.floor_without(heavy) >= my_load / 2.0) return false;
  std::vector<ChordNode*> probes = probe_set(heavy);
  if (probes.empty()) return false;
  double total = 0;
  ChordNode* lightest = nullptr;
  double lightest_load = 0;
  for (ChordNode* p : probes) {
    double l = loads.of(*p);
    total += l;
    if (lightest == nullptr || l < lightest_load) {
      lightest = p;
      lightest_load = l;
    }
  }
  double avg = total / static_cast<double>(probes.size());
  if (my_load <= avg * (1.0 + opts_.delta)) return false;
  // Migrating is only useful if the victim ends up with less than half
  // of the heavy node's load; otherwise we would just swap the hotspot.
  if (lightest_load >= my_load / 2.0) return false;
  LMK_CHECK_MSG(lightest != nullptr,
                "no migration victim among %zu probes of node %016llx "
                "at t=%lld",
                probes.size(),
                static_cast<unsigned long long>(heavy.id()),
                static_cast<long long>(ring_.sim().now()));
  if (lightest == &heavy) return false;
  // The victim must not be the heavy node's current predecessor with no
  // load to shed, and a split key equal to an existing id is nudged.
  Id split = hooks_.split_key(heavy);
  if (!in_open(split, heavy.predecessor().id, heavy.id())) {
    return false;  // degenerate range (e.g. all entries on one key)
  }
  // Collision probe stands in for the paper's out-of-band lookup
  // before the victim rejoins at the split point.
  // lmk-lint: allow(cross-node-touch) modeled out-of-band control plane
  ChordNode* occupied = ring_.oracle_successor(split);
  while (occupied->id() == split) {
    ++split;  // avoid identifier collisions with existing nodes
    if (!in_open(split, heavy.predecessor().id, heavy.id())) return false;
    // lmk-lint: allow(cross-node-touch) same collision probe, next id
    occupied = ring_.oracle_successor(split);
  }
  // Victim leaves: its entries drain to its successor. Draining into
  // the heavy node would defeat the purpose unless the victim is empty.
  ChordNode* victim_succ = lightest->successor().node;
  if (victim_succ == &heavy && lightest_load > 0) return false;
  hooks_.drain_to(*lightest, *victim_succ);
  ring_.leave(*lightest);
  // ...and rejoins as the heavy node's predecessor at the split point.
  ring_.rejoin(*lightest, split);
  hooks_.pull_owned(heavy, *lightest);
  ChordNode* const touched[] = {lightest, victim_succ, &heavy};
  loads.read(touched);
  ++migrations_;
  return true;
}

int LoadBalancer::run_round() {
  int migrated = 0;
  // Deterministic sweep; each migration immediately repairs the local
  // neighbourhood, so later nodes in the sweep see fresh state.
  // The round driver models the balancer's global probe schedule,
  // not a single node's handler.
  // lmk-lint: allow(cross-node-touch) round driver, not a handler
  const std::vector<ChordNode*> sweep = ring_.alive_nodes();
  LoadTable loads(ring_.net().hosts(), hooks_.load);
  loads.read(sweep);
  for (ChordNode* n : sweep) {
    if (!n->alive()) continue;  // may have migrated earlier this round
    if (try_migrate(*n, loads)) ++migrated;
  }
  // Let finger tables catch up with the membership changes (stand-in
  // for the background fix-finger rounds that would run between probes).
  // lmk-lint: allow(cross-node-touch) stand-in for fix-finger rounds
  if (migrated > 0) ring_.refresh_all_fingers();
  return migrated;
}

int LoadBalancer::run_until_stable(int max_rounds) {
  int total = 0;
  for (int r = 0; r < max_rounds; ++r) {
    int m = run_round();
    total += m;
    if (m == 0) break;
  }
  return total;
}

}  // namespace lmk
