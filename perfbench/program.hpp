// The benchmark's one point of contact with the program.
//
// Every call into a layer's API — set-up, injection, read-outs and the
// per-layer replays — is in this file; main.cpp only generates inputs,
// checks outputs and reports. A change that deletes or renames a piece
// of the program (a LocalStore backend, LocalStore::knn, the serve tier,
// a stats struct) therefore touches the benchmark here and nowhere else.
// End-to-end metrics are read only from QueryOutcome, the Simulator and
// the benchmark's own callbacks; the stats structs feed per-layer
// metrics only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "balance/migration.hpp"
#include "chord/ring.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "core/index_platform.hpp"
#include "core/typed_index.hpp"
#include "landmark/mapper.hpp"
#include "landmark/selection.hpp"
#include "metric/dense.hpp"
#include "net/latency_model.hpp"
#include "routing/router.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "store/local_store.hpp"
#include "trace.hpp"

namespace perfbench {

using lmk::ChordNode;
using lmk::DenseVector;
using lmk::HostId;
using lmk::Id;
using lmk::IndexPoint;
using lmk::SimTime;
using QueryOutcome = lmk::IndexPlatform::QueryOutcome;

/// Forwarding latency model: counts every lookup (one per Network::send
/// once set-up is over) and can record the (from, to) pairs for the
/// net-layer replay.
class CountingLatency final : public lmk::LatencyModel {
 public:
  explicit CountingLatency(const lmk::LatencyModel& inner) : inner_(inner) {}

  SimTime latency(HostId a, HostId b) const override {
    ++lookups_;
    if (record_ != nullptr && record_->size() < kMaxRecorded) {
      record_->emplace_back(a, b);
    }
    return inner_.latency(a, b);
  }
  std::size_t size() const override { return inner_.size(); }

  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  void record_into(std::vector<std::pair<HostId, HostId>>* sink) {
    record_ = sink;
  }
  [[nodiscard]] const lmk::LatencyModel& inner() const { return inner_; }

 private:
  static constexpr std::size_t kMaxRecorded = 200000;
  const lmk::LatencyModel& inner_;
  mutable std::uint64_t lookups_ = 0;
  std::vector<std::pair<HostId, HostId>>* record_ = nullptr;
};

struct StackShape {
  std::size_t nodes = 0;
  std::size_t landmarks = 10;
  std::size_t kmeans_sample = 1000;
  double boundary_hi = 0;  ///< index-space boundary: [0, max distance]
  bool balance = false;    ///< dynamic load migration to stability
  std::uint64_t seed = 1;
};

/// Seconds of each set-up step (one set-up), as CPU time of the whole
/// process: the work a step does, whatever share of the machine's cores
/// other tenants leave to the thread pool. `wall` is the whole set-up's
/// wall time.
struct SetupTimes {
  double topology = 0, bootstrap = 0, select = 0, map = 0, load = 0,
         migrate = 0;
  double wall = 0;
  [[nodiscard]] double total() const {
    return topology + bootstrap + select + map + load + migrate;
  }
};

/// One complete program instance: simulator, overlay, platform, index.
struct Stack {
  lmk::L2Space space;
  lmk::Simulator sim;
  std::unique_ptr<lmk::DelaySpaceModel> topology;
  std::unique_ptr<CountingLatency> latency;
  std::unique_ptr<lmk::Network> net;
  std::unique_ptr<lmk::Ring> ring;
  std::unique_ptr<lmk::IndexPlatform> platform;
  std::unique_ptr<lmk::LandmarkIndex<lmk::L2Space>> index;
  std::vector<ChordNode*> alive;
  std::vector<double> coords;  ///< mapped corpus, row-major
  int migrations = 0;
  SetupTimes times;

  [[nodiscard]] std::uint32_t scheme() const { return index->scheme_id(); }
  [[nodiscard]] std::size_t dims() const { return index->mapper().dims(); }
};

inline void pin_threads(std::size_t cap) {
  lmk::set_threads(std::min(lmk::thread_count(), cap));
}
inline std::size_t pool_threads() { return lmk::thread_count(); }

template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  lmk::parallel_for(n, std::forward<Fn>(fn));
}

/// Build the stack from empty state: topology, Chord bootstrap, landmark
/// selection, mapping, bulk load and (optionally) migration to
/// stability. `trace_setup` records each step as a span.
inline std::unique_ptr<Stack> build_stack(
    const StackShape& shape, const std::vector<DenseVector>& corpus,
    bool trace_setup) {
  const std::int64_t wall0 = now_ns();
  auto s = std::make_unique<Stack>();
  auto timed = [&](SpanName name, double& slot, auto&& fn) {
    Span span(name, trace_setup);
    const std::int64_t t0 = cpu_ns();
    fn();
    slot = static_cast<double>(cpu_ns() - t0) / 1e9;
  };
  lmk::Rng rng(shape.seed);
  timed(kSetupTopology, s->times.topology, [&] {
    lmk::DelaySpaceModel::Options topo;
    topo.hosts = shape.nodes;
    topo.seed = rng.fork().next();
    s->topology = std::make_unique<lmk::DelaySpaceModel>(topo);
    s->latency = std::make_unique<CountingLatency>(*s->topology);
    s->net = std::make_unique<lmk::Network>(s->sim, *s->latency);
  });
  timed(kSetupBootstrap, s->times.bootstrap, [&] {
    lmk::Ring::Options ropts;
    ropts.seed = rng.fork().next();
    s->ring = std::make_unique<lmk::Ring>(*s->net, ropts);
    for (std::size_t h = 0; h < shape.nodes; ++h) {
      s->ring->create_node(static_cast<HostId>(h));
    }
    s->ring->bootstrap();
    s->alive = s->ring->alive_nodes();
  });
  std::vector<DenseVector> landmarks;
  timed(kSetupSelect, s->times.select, [&] {
    lmk::Rng pick(shape.seed + 7);
    auto idx = pick.sample_indices(
        corpus.size(), std::min(shape.kmeans_sample, corpus.size()));
    std::vector<DenseVector> sample;
    sample.reserve(idx.size());
    for (std::size_t i : idx) sample.push_back(corpus[i]);
    lmk::Rng km(shape.seed + 8);
    landmarks = lmk::kmeans_dense(std::span<const DenseVector>(sample),
                                  shape.landmarks, km);
  });
  s->platform = std::make_unique<lmk::IndexPlatform>(*s->ring);
  s->index = std::make_unique<lmk::LandmarkIndex<lmk::L2Space>>(
      *s->platform, s->space,
      lmk::LandmarkMapper<lmk::L2Space>(
          s->space, std::move(landmarks),
          lmk::uniform_boundary(shape.landmarks, 0, shape.boundary_hi)),
      "perfbench");
  const std::size_t k = s->dims();
  timed(kSetupMap, s->times.map, [&] {
    s->coords.assign(corpus.size() * k, 0.0);
    const auto& mapper = s->index->mapper();
    lmk::parallel_for(corpus.size(), [&](std::size_t i) {
      mapper.map_into(corpus[i],
                      std::span<double>(s->coords).subspan(i * k, k));
    });
  });
  timed(kSetupLoad, s->times.load, [&] {
    s->platform->bulk_insert_flat(s->scheme(), s->coords, k, 0);
  });
  timed(kSetupMigrate, s->times.migrate, [&] {
    if (!shape.balance) return;
    lmk::LoadBalancer::Options bopts;
    bopts.delta = 0.0;
    bopts.probe_level = 4;
    lmk::LoadBalancer balancer(*s->ring, bopts, s->platform->balancer_hooks());
    s->migrations = balancer.run_until_stable();
  });
  s->times.wall = static_cast<double>(now_ns() - wall0) / 1e9;
  return s;
}

// ----- metric and byte model -----

/// The metric the corpus lives in (ranking callback and oracle).
inline double true_distance(const DenseVector& a, const DenseVector& b) {
  return lmk::l2_distance(a, b);
}

/// Subqueries carried by `messages` query messages of `bytes` in total,
/// under the paper's byte model (header + n subqueries per message).
inline std::uint64_t parcels_of(std::uint64_t bytes, std::uint64_t messages,
                                std::size_t dims) {
  const std::uint64_t header = lmk::query_message_size(dims, 0);
  const std::uint64_t per = lmk::query_message_size(dims, 1) - header;
  return bytes > messages * header ? (bytes - messages * header) / per : 0;
}

// ----- landmark layer at injection time -----

inline IndexPoint map_query(const Stack& s, const DenseVector& q) {
  return s.index->mapper().map_unclamped(q);
}
inline IndexPoint map_object(const Stack& s, const DenseVector& x) {
  return s.index->mapper().map(x);
}
[[nodiscard]] inline const lmk::Boundary& boundary(const Stack& s) {
  return s.index->mapper().boundary();
}

// ----- injection -----

using QueryDone = lmk::IndexPlatform::QueryCallback;
using RankFn = lmk::IndexPlatform::DistanceFn;

inline void inject_query(Stack& s, ChordNode& origin, const IndexPoint& center,
                         double radius, bool topk, QueryDone done,
                         RankFn rank) {
  s.platform->range_query(
      origin, s.scheme(), center, radius,
      topk ? lmk::ReplyMode::kTopK : lmk::ReplyMode::kAllMatches,
      std::move(done), std::move(rank));
}

inline void inject_insert(Stack& s, ChordNode& origin, std::uint64_t object,
                          IndexPoint point, std::function<void(int)> done) {
  s.platform->insert_via_network(origin, s.scheme(), object, std::move(point),
                                 std::move(done));
}

inline void inject_remove(Stack& s, ChordNode& origin, std::uint64_t object,
                          IndexPoint point,
                          std::function<void(bool, int)> done) {
  s.platform->remove_via_network(origin, s.scheme(), object, std::move(point),
                                 std::move(done));
}

// ----- read-outs -----

struct Counters {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t lookups = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t rebuilt_entries = 0;
};

inline Counters counters(const Stack& s) {
  Counters c;
  c.events = s.sim.events_executed();
  c.messages = s.net->total_traffic().messages;
  c.lookups = s.latency->lookups();
  c.rebuilds = s.platform->local_store_stats().rebuilds;
  c.rebuilt_entries = s.platform->local_store_stats().rebuilt_entries;
  return c;
}

inline std::size_t active_queries(const Stack& s) {
  return s.platform->active_queries();
}
inline std::size_t scheme_entries(const Stack& s) {
  return s.platform->scheme_entries(s.scheme());
}
inline std::uint64_t store_bytes(const Stack& s) {
  return s.platform->store_bytes();
}
inline std::vector<std::size_t> load_distribution(const Stack& s) {
  return s.platform->load_distribution();
}
inline const char* local_store_name(const Stack& s) {
  return s.platform->local_store_name(s.scheme());
}

/// Placement check that counts instead of aborting (the platform's own
/// check_placement_invariant aborts): every stored entry of the scheme
/// must sit on the alive node that owns its key. Returns misplaced
/// entries.
inline std::uint64_t misplaced_entries(const Stack& s) {
  std::uint64_t bad = 0;
  for (ChordNode* n : s.ring->alive_nodes()) {
    const lmk::EntryStore& es = s.platform->store(*n, s.scheme());
    for (std::size_t i = 0; i < es.size(); ++i) {
      if (s.ring->oracle_successor(es.key(i)) != n) ++bad;
    }
  }
  return bad;
}

// ----- per-layer replays (traced run only) -----

/// Makes a replay's results observable so the timed loop is not elided.
template <typename T>
void keep(T value) {
  volatile T sink = value;
  (void)sink;
}

/// Each replay is timed this many times and its median kept, so a burst
/// of load from other tenants of the machine during one repetition does
/// not skew the per-layer split.
constexpr int kReplayReps = 5;

/// Median wall nanoseconds of kReplayReps calls of `fn(rep)`.
template <typename Fn>
double median_wall_ns(Fn&& fn) {
  std::vector<double> t;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    const std::int64_t t0 = now_ns();
    fn(rep);
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return lmk::percentile_nth(t, 50);
}

/// One local solve the replayed router asked for.
struct SolveRecord {
  ChordNode* node = nullptr;
  lmk::Region region;
  Id key = 0;
  HostId origin = 0;
};

struct RoutingReplay {
  double wall_ns = 0;
  std::uint64_t queries = 0;
  std::uint64_t events = 0;
  std::uint64_t lookups = 0;
  std::uint64_t messages = 0;
  std::uint64_t parcels = 0;
  std::uint64_t splits = 0;
  std::vector<SolveRecord> solves;
};

struct ReplayQuery {
  ChordNode* origin = nullptr;
  IndexPoint center;
  double radius = 0;
};

/// Routing with the solve stubbed out: a benchmark-owned QueryRouter over
/// the same Ring delivers each query (Algorithms 3-5, Chord next_hop,
/// message sends, event engine) and records every (node, region) solve.
inline RoutingReplay replay_routing(Stack& s,
                                    const std::vector<ReplayQuery>& queries) {
  RoutingReplay r;
  const lmk::SchemeRouting& sch = s.platform->scheme(s.scheme());
  std::uint64_t bytes = 0;
  std::int64_t outstanding = 0;
  bool record = true;
  lmk::QueryRouter router(
      *s.ring,
      [&](const lmk::RangeQuery& q, ChordNode& node) {
        if (record) {
          r.solves.push_back({&node, q.region, q.routing_key(), q.origin});
        }
        --outstanding;
      },
      [&](std::uint64_t, int delta) {
        outstanding += delta;
        if (delta > 0) r.splits += static_cast<std::uint64_t>(delta);
      },
      [&](std::uint64_t, std::uint64_t b) { bytes += b; });
  // Regions are built before the clock starts; the router's work is not.
  std::vector<std::vector<lmk::RangeQuery>> built(
      kReplayReps, std::vector<lmk::RangeQuery>(queries.size()));
  for (auto& rep : built) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      (void)lmk::make_query(
          sch, 0x7000000000000000ull + i, queries[i].origin->host(),
          lmk::query_region(queries[i].center, queries[i].radius),
          queries[i].center, &rep[i]);
    }
  }
  const std::uint64_t ev0 = s.sim.events_executed();
  const std::uint64_t lk0 = s.latency->lookups();
  const std::uint64_t m0 = router.traffic().messages;
  Span span(kReplayRouting, true);
  r.wall_ns = median_wall_ns([&](int rep) {
    record = rep == 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      outstanding += 1;
      router.start(*queries[i].origin, std::move(built[rep][i]));
      s.sim.run();
    }
  });
  // Counts of one repetition (every repetition does the same work).
  r.queries = queries.size();
  r.events = (s.sim.events_executed() - ev0) / kReplayReps;
  r.lookups = (s.latency->lookups() - lk0) / kReplayReps;
  r.messages = (router.traffic().messages - m0) / kReplayReps;
  r.splits /= kReplayReps;
  r.parcels = parcels_of(bytes / kReplayReps, r.messages, sch.dims());
  return r;
}

struct NextHopReplay {
  double ns_per_call = 0;
  std::uint64_t calls = 0;
};

/// ChordNode::next_hop on the recorded routing keys: a greedy walk from
/// each query's origin to the key's predecessor, every step timed.
inline NextHopReplay replay_next_hop(Stack& s,
                                     const std::vector<SolveRecord>& solves) {
  NextHopReplay r;
  std::vector<ChordNode*> by_host(s.ring->node_count(), nullptr);
  for (ChordNode* n : s.ring->alive_nodes()) by_host[n->host()] = n;
  Span span(kReplayNextHop, true);
  std::uint64_t sink = 0;
  const double wall = median_wall_ns([&](int rep) {
    for (const SolveRecord& rec : solves) {
      const ChordNode* at = by_host[rec.origin];
      for (int step = 0; step < 512 && at != nullptr; ++step) {
        const lmk::NodeRef next = at->next_hop(rec.key);
        if (rep == 0) ++r.calls;
        sink += next.id;
        if (next.node == at) break;
        at = next.node;
      }
    }
  });
  r.ns_per_call = r.calls > 0 ? wall / static_cast<double>(r.calls) : 0;
  keep(sink);
  return r;
}

struct StoreReplay {
  double build_ns_per_entry = 0;
  double ns_per_probe = 0;
  std::uint64_t probes = 0;
  std::uint64_t scanned = 0;
  std::uint64_t hits = 0;
  std::uint64_t built_entries = 0;
};

/// LocalStore::build on the solving nodes' rows, then LocalStore::range
/// on every recorded (node, region) solve.
inline StoreReplay replay_store(const Stack& s,
                                const std::vector<SolveRecord>& solves) {
  StoreReplay r;
  const lmk::LocalStoreOptions& opts =
      s.platform->local_store_options(s.scheme());
  std::vector<const ChordNode*> nodes;
  for (const SolveRecord& rec : solves) nodes.push_back(rec.node);
  std::sort(nodes.begin(), nodes.end(),
            [](const ChordNode* a, const ChordNode* b) {
              return a->host() < b->host();
            });
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::vector<std::unique_ptr<lmk::LocalStore>> stores(nodes.size());
  for (const ChordNode* n : nodes) {
    r.built_entries += s.platform->store(*n, s.scheme()).size();
  }
  double build_ns = 0;
  {
    Span span(kReplayStoreBuild, true);
    build_ns = median_wall_ns([&](int) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        stores[i] = lmk::make_local_store(opts);
        stores[i]->build(s.platform->store(*nodes[i], s.scheme()));
      }
    });
  }
  r.build_ns_per_entry =
      r.built_entries > 0 ? build_ns / static_cast<double>(r.built_entries) : 0;
  std::vector<std::uint32_t> hits;
  hits.reserve(4096);
  Span span(kReplayStoreProbe, true);
  const double wall = median_wall_ns([&](int rep) {
    for (const SolveRecord& rec : solves) {
      const auto it = std::lower_bound(
          nodes.begin(), nodes.end(), rec.node,
          [](const ChordNode* a, const ChordNode* b) {
            return a->host() < b->host();
          });
      const std::size_t i = static_cast<std::size_t>(it - nodes.begin());
      hits.clear();
      const std::uint64_t scanned = stores[i]->range(
          s.platform->store(*rec.node, s.scheme()), rec.region, hits);
      if (rep == 0) {
        r.scanned += scanned;
        r.hits += hits.size();
        ++r.probes;
      }
    }
  });
  r.ns_per_probe = r.probes > 0 ? wall / static_cast<double>(r.probes) : 0;
  return r;
}

/// Event-engine cost per event: a fresh Simulator drains `events` events,
/// each scheduling its successor, with `depth` of them pending at once.
inline double replay_engine_ns_per_event(std::uint64_t events,
                                         std::size_t depth,
                                         std::uint64_t seed) {
  struct Hop {
    lmk::Simulator* sim;
    lmk::Rng* rng;
    std::uint64_t* budget;
    std::uint64_t* sink;
    std::uint64_t payload[3];
    void operator()() const {
      *sink += payload[0];
      if (*budget == 0) return;
      --*budget;
      sim->schedule_after(static_cast<SimTime>(rng->below(200000)),
                          Hop{sim, rng, budget, sink, {payload[0] + 1, 0, 0}});
    }
  };
  // One primed simulator per repetition; every repetition runs the same
  // events.
  std::vector<lmk::Simulator> sims(kReplayReps);
  std::vector<lmk::Rng> rngs(kReplayReps, lmk::Rng(seed));
  std::vector<std::uint64_t> budgets(kReplayReps, events);
  std::uint64_t sink = 0;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    for (std::size_t i = 0; i < depth && budgets[rep] > 0; ++i) {
      --budgets[rep];
      sims[rep].schedule_after(
          static_cast<SimTime>(rngs[rep].below(200000)),
          Hop{&sims[rep], &rngs[rep], &budgets[rep], &sink, {i, 0, 0}});
    }
  }
  Span span(kReplayEngine, true);
  std::uint64_t ran = 0;
  const double wall = median_wall_ns([&](int rep) { ran = sims[rep].run(); });
  keep(sink);
  return ran > 0 ? wall / static_cast<double>(ran) : 0;
}

/// Latency-model cost per lookup on the recorded send pairs.
inline double replay_latency_ns(
    const Stack& s, const std::vector<std::pair<HostId, HostId>>& pairs) {
  if (pairs.empty()) return 0;
  const lmk::LatencyModel& model = s.latency->inner();
  SimTime sink = 0;
  Span span(kReplayLatency, true);
  const double wall = median_wall_ns([&](int) {
    for (const auto& [a, b] : pairs) sink += model.latency(a, b);
  });
  keep(sink);
  return wall / static_cast<double>(pairs.size());
}

}  // namespace perfbench
