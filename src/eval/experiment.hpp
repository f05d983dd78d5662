// Shared experiment driver: assembles the full stack (topology →
// simulator → Chord → platform → typed index), loads a dataset, applies
// optional load balancing, and replays query batches with the paper's
// arrival process, collecting QueryStats. Every figure bench is a thin
// parameter sweep over this driver.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "balance/migration.hpp"
#include "core/typed_index.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"

namespace lmk {

/// Stack-wide experiment configuration (defaults follow §4.1).
struct ExperimentConfig {
  std::size_t nodes = 256;           ///< overlay size (paper topology: 1740)
  std::uint64_t seed = 42;
  SimTime target_mean_rtt = 180 * kMillisecond;
  SimTime mean_interarrival = 150 * kSecond;  ///< exp. query arrivals
  std::size_t top_k = 10;            ///< per-node local results & recall k
  bool pns = true;                   ///< Chord-PNS (paper default)
  bool rotate = false;               ///< static space-mapping rotation
  bool load_balance = false;         ///< dynamic load migration
  double delta = 0.0;                ///< balancing threshold factor δ
  int probe_level = 4;               ///< balancing probing level P_l
  RoutingMode routing = RoutingMode::kTree;
  int naive_split_depth = 10;        ///< client decomposition (naive mode)
};

/// A delay-space topology built once and shared read-only across
/// concurrently running experiment cells (DelaySpaceModel is immutable
/// after construction). The build options ride along so an experiment
/// can verify the handle matches what it would have built itself.
struct SharedTopology {
  DelaySpaceModel::Options opts;
  DelaySpaceModel model;

  explicit SharedTopology(const DelaySpaceModel::Options& o)
      : opts(o), model(o) {}
};

/// End-to-end experiment over one metric space / one index scheme.
///
/// Sweep-cell contract (src/eval/sweep.hpp): the heavyweight inputs —
/// dataset, query set, precomputed ground truth, topology — are held
/// behind shared_ptr-to-const handles, so N concurrent cells over the
/// same corpus keep one copy, not N. All mutable state (simulator,
/// ring, platform, index, RNG) is per-instance; two instances never
/// share mutable state, which is what makes interleaved and concurrent
/// cells produce stats identical to isolated runs.
template <MetricSpace S>
class SimilarityExperiment {
 public:
  using Point = typename S::Point;
  using DatasetHandle = std::shared_ptr<const std::vector<Point>>;
  using TruthHandle =
      std::shared_ptr<const std::vector<std::vector<std::uint64_t>>>;

  /// The topology this config would build: options identical to the
  /// constructor's own derivation (seed from the first fork of the
  /// config-seeded RNG), so cells with equal (nodes, rtt, seed) can
  /// share one instance.
  [[nodiscard]] static std::shared_ptr<const SharedTopology> make_topology(
      const ExperimentConfig& cfg) {
    DelaySpaceModel::Options topo;
    topo.hosts = cfg.nodes;
    topo.target_mean_rtt = cfg.target_mean_rtt;
    topo.seed = Rng(cfg.seed).fork().next();
    return std::make_shared<const SharedTopology>(topo);
  }

  /// Builds the whole stack and bulk-loads `dataset`. The mapper (and
  /// thus the landmark selection) is provided by the caller so benches
  /// can sweep selection schemes. If cfg.load_balance is set, dynamic
  /// migration runs to stability before any queries. `topology` (from
  /// make_topology) is used when its options match what this config
  /// derives — the experiment's own random draws are identical either
  /// way — and silently rebuilt per-instance when they do not.
  SimilarityExperiment(
      ExperimentConfig cfg, const S& space, DatasetHandle dataset,
      LandmarkMapper<S> mapper, const std::string& scheme_name,
      std::shared_ptr<const SharedTopology> topology = nullptr)
      : cfg_(cfg),
        space_(space),
        dataset_(std::move(dataset)),
        rng_(cfg.seed) {
    DelaySpaceModel::Options topo;
    topo.hosts = cfg.nodes;
    topo.target_mean_rtt = cfg.target_mean_rtt;
    topo.seed = rng_.fork().next();  // always drawn: draws stay identical
    if (topology != nullptr && topology->opts.hosts == topo.hosts &&
        topology->opts.target_mean_rtt == topo.target_mean_rtt &&
        topology->opts.seed == topo.seed &&
        topology->opts.access_delay_fraction ==
            topo.access_delay_fraction) {
      topology_ = std::shared_ptr<const DelaySpaceModel>(topology,
                                                         &topology->model);
    } else {
      topology_ = std::make_shared<const DelaySpaceModel>(topo);
    }
    net_ = std::make_unique<Network>(sim_, *topology_);
    Ring::Options ring_opts;
    ring_opts.pns = cfg.pns;
    ring_opts.seed = rng_.fork().next();
    ring_ = std::make_unique<Ring>(*net_, ring_opts);
    for (std::size_t h = 0; h < cfg.nodes; ++h) {
      ring_->create_node(static_cast<HostId>(h));
    }
    ring_->bootstrap();
    IndexPlatform::Options popts;
    popts.top_k = cfg.top_k;
    popts.routing = cfg.routing;
    popts.naive_split_depth = cfg.naive_split_depth;
    platform_ = std::make_unique<IndexPlatform>(*ring_, popts);
    index_ = std::make_unique<LandmarkIndex<S>>(*platform_, space_,
                                                std::move(mapper), scheme_name,
                                                cfg.rotate);
    index_->bind_objects([this](std::uint64_t id) -> const Point& {
      return (*dataset_)[static_cast<std::size_t>(id)];
    });
    // Parallel offline build: landmark mapping + LPH hashing fan out
    // over the pool; placement is identical to a per-object insert loop.
    index_->bulk_load(*dataset_);
    if (cfg.load_balance) {
      LoadBalancer::Options bopts;
      bopts.delta = cfg.delta;
      bopts.probe_level = cfg.probe_level;
      balancer_ = std::make_unique<LoadBalancer>(*ring_, bopts,
                                                 platform_->balancer_hooks());
      balancer_->run_until_stable();
      platform_->check_placement_invariant();
    }
    // Audit-enabled runs (LMK_AUDIT=1; the scripts/check.sh --audit
    // leg): verify the full invariant catalogue on a virtual-time
    // cadence while batches run, plus sampled query-completeness
    // cross-checks after each batch. fail_fast aborts with the
    // violation diagnostics, failing the test that drove the run.
    if (audit::audit_env_enabled()) {
      audit::Auditor::Options aopts;
      // Query batches span hours of virtual time (mean interarrival is
      // minutes); a 10-minute cadence still yields dozens of mid-run
      // passes per batch while keeping the audited suite within ~2x of
      // the unaudited wall-clock (full passes are O(nodes * fingers)).
      aopts.cadence = 600 * kSecond;
      aopts.fail_fast = true;
      // Derived from the config seed, not rng_, so the experiment's own
      // random draws are identical with and without auditing.
      aopts.seed = cfg.seed ^ 0xa0d17a0d17ull;
      auditor_ = std::make_unique<audit::Auditor>(*ring_, platform_.get(),
                                                  aopts);
      auditor_->install_standard_checkers();
      auditor_->capture_baseline();
      auditor_->attach();
    }
  }

  /// Convenience overload: takes the dataset by value and wraps it in a
  /// private handle (tests and single-cell callers that do not share).
  SimilarityExperiment(ExperimentConfig cfg, const S& space,
                       std::vector<Point> dataset, LandmarkMapper<S> mapper,
                       const std::string& scheme_name)
      : SimilarityExperiment(
            cfg, space,
            std::make_shared<const std::vector<Point>>(std::move(dataset)),
            std::move(mapper), scheme_name) {}

  /// Install a shared query workload; ground-truth k-NN sets are
  /// computed lazily per query and cached across batches (they do not
  /// depend on the radius).
  void set_queries(std::shared_ptr<const std::vector<Point>> queries) {
    queries_ = std::move(queries);
    shared_truth_ = nullptr;
    truth_cache_.assign(queries_->size(), std::nullopt);
  }

  /// Shared queries plus shared precomputed ground truth: N sweep cells
  /// over the same corpus hold one truth table, not N copies.
  void set_queries(std::shared_ptr<const std::vector<Point>> queries,
                   TruthHandle truth) {
    LMK_CHECK(truth != nullptr && truth->size() == queries->size());
    queries_ = std::move(queries);
    shared_truth_ = std::move(truth);
    truth_cache_.clear();
  }

  /// By-value conveniences (wrap into private handles).
  void set_queries(std::vector<Point> queries) {
    set_queries(
        std::make_shared<const std::vector<Point>>(std::move(queries)));
  }
  void set_queries(std::vector<Point> queries,
                   std::vector<std::vector<std::uint64_t>> truth) {
    set_queries(
        std::make_shared<const std::vector<Point>>(std::move(queries)),
        std::make_shared<const std::vector<std::vector<std::uint64_t>>>(
            std::move(truth)));
  }

  /// Compute the brute-force k-NN truth for a query set over a dataset
  /// (shareable across experiments; see set_queries overload). The
  /// oracle fans out per query over the deterministic thread pool.
  static std::vector<std::vector<std::uint64_t>> compute_truth(
      const S& space, const std::vector<Point>& dataset,
      const std::vector<Point>& queries, std::size_t k) {
    return knn_bruteforce_batch(space, dataset, queries, k);
  }

  /// Run every installed query once as a range query of the given
  /// radius: exponential interarrivals, random origin nodes, per-node
  /// top-k replies, querier-side true-distance refinement, recall@k
  /// against brute force.
  [[nodiscard]] QueryStats run_batch(double radius) {
    QueryStats stats;
    std::vector<ChordNode*> nodes = ring_->alive_nodes();
    Rng arrivals = rng_.fork();
    SimTime t = sim_.now();
    for (std::size_t i = 0; i < queries_->size(); ++i) {
      t += static_cast<SimTime>(
          arrivals.exponential(static_cast<double>(cfg_.mean_interarrival)));
      ChordNode* origin = nodes[arrivals.below(nodes.size())];
      sim_.schedule_at(t, [this, i, radius, origin, &stats]() {
        index_->range_query(
            *origin, (*queries_)[i], radius, ReplyMode::kTopK,
            [this, i, &stats](const IndexPlatform::QueryOutcome& outcome) {
              auto object = [this](std::uint64_t id) -> const Point& {
                return (*dataset_)[static_cast<std::size_t>(id)];
              };
              std::vector<std::uint64_t> retrieved = index_->refine_knn(
                  (*queries_)[i], outcome.results, object, cfg_.top_k);
              stats.add(outcome, recall(truth(i), retrieved));
            });
      });
    }
    sim_.run();
    if (auditor_) {
      auditor_->audit_queries(index_->scheme_id());
    }
    return stats;
  }

  /// The auditor driving LMK_AUDIT runs (null otherwise).
  [[nodiscard]] audit::Auditor* auditor() { return auditor_.get(); }

  /// Node loads (index entries), sorted descending — the paper's load
  /// distribution figures (4 and 6).
  [[nodiscard]] std::vector<std::size_t> load_curve() const {
    std::vector<std::size_t> loads = platform_->load_distribution();
    std::sort(loads.begin(), loads.end(), std::greater<>());
    return loads;
  }

  [[nodiscard]] const std::vector<Point>& dataset() const {
    return *dataset_;
  }
  [[nodiscard]] const std::vector<Point>& queries() const {
    return *queries_;
  }
  IndexPlatform& platform() { return *platform_; }
  Ring& ring() { return *ring_; }
  Simulator& sim() { return sim_; }
  LandmarkIndex<S>& index() { return *index_; }
  [[nodiscard]] int migrations() const {
    return balancer_ ? balancer_->migrations() : 0;
  }

 private:
  [[nodiscard]] const std::vector<std::uint64_t>& truth(std::size_t qi) {
    if (shared_truth_ != nullptr) return (*shared_truth_)[qi];
    auto& slot = truth_cache_[qi];
    if (!slot.has_value()) {
      const Point& q = (*queries_)[qi];
      slot = knn_bruteforce_with(
          dataset_->size(),
          [this, &q](std::size_t j) {
            return space_.distance(q, (*dataset_)[j]);
          },
          cfg_.top_k);
    }
    return *slot;
  }

  ExperimentConfig cfg_;
  const S& space_;
  DatasetHandle dataset_;
  std::shared_ptr<const std::vector<Point>> queries_ =
      std::make_shared<const std::vector<Point>>();
  TruthHandle shared_truth_;
  std::vector<std::optional<std::vector<std::uint64_t>>> truth_cache_;
  Rng rng_;
  Simulator sim_;
  std::shared_ptr<const DelaySpaceModel> topology_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Ring> ring_;
  std::unique_ptr<IndexPlatform> platform_;
  std::unique_ptr<LandmarkIndex<S>> index_;
  std::unique_ptr<LoadBalancer> balancer_;
  std::unique_ptr<audit::Auditor> auditor_;
};

}  // namespace lmk
