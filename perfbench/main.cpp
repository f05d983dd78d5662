// Repository benchmark: the paper's metrics (virtual-time latency,
// recall@10, bytes per query) and their wall-clock cost, on three
// open-loop workloads, plus a traced run that splits the query-phase
// wall time over the program's layers.
//
//   lmk_perfbench --workload topk-recall|balanced-range|mixed-rw
//                 --seed N --seconds S --trace 0|1 [--out DIR]
//
// A run: generate the inputs from the seed (untimed); set the program up
// from empty state several times (setup_s is their median CPU time);
// drain the pre-generated open-loop schedule on one thread in rounds
// until S wall seconds have passed; check every answer; report.
// Virtual-time metrics come from the first pass over the schedule only, so
// they are a function of (workload, seed) and not of machine speed. The
// last stdout line is the JSON result; a full artifact with the effective
// configuration goes to DIR.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "program.hpp"
#include "trace.hpp"
#include "workload/open_loop.hpp"
#include "workload/synthetic.hpp"

extern char** environ;

namespace perfbench {
namespace {

// ---------------------------------------------------------------- workloads

struct Spec {
  const char* name;
  std::size_t nodes;
  std::size_t objects;
  std::size_t dims;
  bool balance;        ///< migrate to stability during set-up
  bool topk;           ///< kTopK + true-distance ranking, else kAllMatches
  double range_factor; ///< query radius / maximum theoretical distance
  std::size_t ops;     ///< operations in one pass of the schedule
  double write_share;  ///< share of operations that are writes
  std::size_t focus_pool;  ///< foci per topic (0 = unique focus per query)
  std::size_t recall_sample;  ///< topk: queries scored against the oracle
  std::size_t verify_queries; ///< post-quiescence oracle queries
  std::size_t round_ops;      ///< operations per timed round
};

// Why each workload exists is documented in perfbench/README.md.
constexpr Spec kSpecs[] = {
    {"topk-recall", 1024, 100000, 32, false, true, 0.05, 5000, 0.0, 0, 600,
     0, 50},
    {"balanced-range", 256, 20000, 100, true, false, 0.02, 4000, 0.0, 8, 0,
     0, 100},
    {"mixed-rw", 512, 50000, 32, false, false, 0.02, 2400, 0.1, 0, 0, 200,
     50},
};

constexpr std::size_t kLandmarks = 10;
constexpr std::size_t kClusters = 10;
constexpr double kZipf = 0.9;
constexpr double kRate = 20.0;  ///< virtual arrivals per second
constexpr int kSetupReps = 3;
/// The dataset (corpus, landmark sample) and the deployment (topology,
/// Chord identifiers) are a fixed part of each workload, like a standard
/// benchmark dataset; --seed draws the operation stream: arrival times,
/// topics, foci, origins, write targets and the recall sample. Seeding
/// the dataset per run made the throughput of one workload differ by
/// 40% between two seeds, which no run length averages away.
constexpr std::uint64_t kDatasetSeed = 2007;
constexpr std::size_t kRecallK = 10;
constexpr double kMinSetupSeconds = 1.5;  ///< wall time to keep setting up
constexpr int kMaxSetupReps = 25;
constexpr std::size_t kWarmupRounds = 4;  ///< mixed-rw warm-up

enum class Kind : std::uint8_t { kQuery, kInsert, kRemove };

struct Op {
  SimTime at = 0;            ///< virtual offset from the pass start
  Kind kind = Kind::kQuery;
  std::uint32_t topic = 0;
  std::uint32_t origin = 0;  ///< index into the alive-node list
  std::uint32_t point = 0;   ///< query point index (queries)
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}
constexpr std::uint64_t kFnvSeed = 1469598103934665603ULL;

double mean_of(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double median_of(std::vector<double> v) {
  return v.empty() ? 0 : lmk::percentile_nth(v, 50);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Ordered JSON object (values are pre-rendered JSON).
struct Json {
  std::vector<std::pair<std::string, std::string>> kv;
  Json& num(const std::string& k, double v) {
    kv.emplace_back(k, fmt(v));
    return *this;
  }
  Json& str(const std::string& k, const std::string& v) {
    kv.emplace_back(k, quote(v));
    return *this;
  }
  Json& raw(const std::string& k, const std::string& v) {
    kv.emplace_back(k, v);
    return *this;
  }
  [[nodiscard]] std::string dump() const {
    std::string s = "{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
      s += (i ? ", " : "") + quote(kv[i].first) + ": " + kv[i].second;
    }
    return s + "}";
  }
};

// ------------------------------------------------------------------ inputs

/// `n` topics whose counts are the Zipf(s) expectation over `topics`
/// ranks (largest remainders round), in a seeded order.
std::vector<std::uint32_t> zipf_quotas(std::size_t n, std::size_t topics,
                                       double s, std::uint64_t seed) {
  std::vector<double> w(topics);
  double total = 0;
  for (std::size_t t = 0; t < topics; ++t) {
    w[t] = 1.0 / std::pow(static_cast<double>(t + 1), s);
    total += w[t];
  }
  std::vector<std::size_t> count(topics);
  std::vector<std::pair<double, std::size_t>> rest;
  std::size_t assigned = 0;
  for (std::size_t t = 0; t < topics; ++t) {
    const double exact = static_cast<double>(n) * w[t] / total;
    count[t] = static_cast<std::size_t>(exact);
    assigned += count[t];
    rest.emplace_back(-(exact - static_cast<double>(count[t])), t);
  }
  std::sort(rest.begin(), rest.end());
  for (std::size_t j = 0; assigned < n; ++j, ++assigned) {
    count[rest[j % topics].second] += 1;
  }
  std::vector<std::uint32_t> out;
  for (std::size_t t = 0; t < topics; ++t) {
    out.insert(out.end(), count[t], static_cast<std::uint32_t>(t));
  }
  lmk::Rng order(seed);
  order.shuffle(out);
  return out;
}

/// Everything generated from the seed before the program sees anything.
struct Inputs {
  std::unique_ptr<lmk::SyntheticStream> stream;
  std::vector<DenseVector> corpus;  ///< objects 0..N-1
  double max_dist = 0;
  double radius = 0;
  std::vector<Op> ops;                ///< one pass
  std::vector<DenseVector> qpoints;   ///< query points by Op::point
  double repeat_share = 0;            ///< queries repeating an earlier focus
  std::uint64_t salt = 0;             ///< seed-keyed base of every focus salt
  std::vector<std::vector<std::uint64_t>> removable;  ///< per topic
};

Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  lmk::SyntheticConfig cfg;
  cfg.objects = spec.objects;
  cfg.dims = spec.dims;
  cfg.range_lo = 0;
  cfg.range_hi = 100;
  cfg.clusters = kClusters;
  cfg.deviation = 20;
  in.stream = std::make_unique<lmk::SyntheticStream>(cfg, kDatasetSeed);
  in.max_dist = lmk::max_theoretical_distance(cfg);
  in.radius = spec.range_factor * in.max_dist;
  in.corpus.resize(spec.objects);
  parallel_for(spec.objects, [&](std::size_t i) {
    in.corpus[i].resize(spec.dims);
    in.stream->point_into(i, in.corpus[i]);
  });

  lmk::OpenLoopConfig ocfg;
  ocfg.arrivals_per_sec = kRate;
  ocfg.topics = kClusters;
  ocfg.zipf_s = kZipf;
  ocfg.count = spec.ops;
  ocfg.seed = seed + 21;
  const std::vector<lmk::Arrival> arrivals = lmk::open_loop_schedule(ocfg);
  // Stratified inputs: topics follow the exact Zipf quotas in a seeded
  // order, and writes take exactly one slot, at a seeded offset, in each
  // block of 1/write_share operations. Both keep a run's mix of work
  // equal to its expectation, so runs differ by arrangement, not by how
  // much of each kind of work they contain.
  const std::vector<std::uint32_t> topics =
      zipf_quotas(spec.ops, kClusters, kZipf, seed + 22);
  lmk::Rng origins(seed + 25), foci(seed + 27), writes(seed + 23);
  in.salt = lmk::mix64(seed);
  const std::size_t write_every =
      spec.write_share > 0
          ? static_cast<std::size_t>(std::lround(1.0 / spec.write_share))
          : 0;
  std::size_t write_slot = 0;
  bool insert_next = writes.uniform() < 0.5;
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
  std::size_t queries = 0, repeats = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Op op;
    op.at = static_cast<SimTime>(arrivals[i].at_sec * 1e6);
    op.topic = topics[i];
    op.origin = static_cast<std::uint32_t>(origins.below(spec.nodes));
    if (write_every > 0 && i % write_every == 0) {
      write_slot = i + writes.below(write_every);
    }
    if (write_every > 0 && i == write_slot) {
      op.kind = insert_next ? Kind::kInsert : Kind::kRemove;
      insert_next = !insert_next;
    } else {
      // Unique foci are keyed by the seed; a focus pool is part of the
      // workload (its hot regions), and the seed picks from it.
      std::uint64_t salt = in.salt + i;
      if (spec.focus_pool > 0) {
        salt = op.topic * spec.focus_pool + foci.below(spec.focus_pool);
        if (!seen.insert({op.topic, salt}).second) ++repeats;
      }
      op.point = static_cast<std::uint32_t>(in.qpoints.size());
      in.qpoints.push_back(in.stream->query_near(op.topic, salt));
      ++queries;
    }
    in.ops.push_back(op);
  }
  in.repeat_share =
      queries ? static_cast<double>(repeats) / static_cast<double>(queries) : 0;

  if (spec.write_share > 0) {
    in.removable.resize(kClusters);
    for (std::uint64_t i = 0; i < spec.objects; ++i) {
      in.removable[in.stream->cluster_of(i)].push_back(i);
    }
    lmk::Rng shuffle(seed + 29);
    for (auto& list : in.removable) shuffle.shuffle(list);
  }
  return in;
}

// ------------------------------------------------------------------ oracle

/// Objects whose stored (clamped) index point lies in the clamped query
/// cube — the exact kAllMatches answer.
std::vector<std::uint64_t> in_box(const IndexPoint& center, double radius,
                                  const lmk::Boundary& b,
                                  const std::vector<double>& coords,
                                  const std::vector<std::uint64_t>& ids,
                                  std::size_t k) {
  std::vector<double> lo(k), hi(k);
  for (std::size_t d = 0; d < k; ++d) {
    lo[d] = std::clamp(center[d] - radius, b[d].lo, b[d].hi);
    hi[d] = std::clamp(center[d] + radius, b[d].lo, b[d].hi);
  }
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double* p = &coords[i * k];
    bool inside = true;
    for (std::size_t d = 0; d < k && inside; ++d) {
      inside = p[d] >= lo[d] && p[d] <= hi[d];
    }
    if (inside) out.push_back(ids[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The k ids nearest `q` by true distance among `ids` (ties by id).
std::vector<std::uint64_t> nearest(const DenseVector& q,
                                   const std::vector<std::uint64_t>& ids,
                                   const std::function<const DenseVector&(
                                       std::uint64_t)>& point,
                                   std::size_t k) {
  std::vector<std::pair<double, std::uint64_t>> scored;
  scored.reserve(ids.size());
  for (std::uint64_t id : ids) {
    scored.emplace_back(true_distance(q, point(id)), id);
  }
  std::sort(scored.begin(), scored.end());
  scored.erase(std::unique(scored.begin(), scored.end(),
                           [](const auto& a, const auto& b) {
                             return a.second == b.second;
                           }),
               scored.end());
  if (scored.size() > k) scored.resize(k);
  std::vector<std::uint64_t> out;
  for (const auto& [d, id] : scored) out.push_back(id);
  return out;
}

double recall_of(const std::vector<std::uint64_t>& truth,
                 std::vector<std::uint64_t> got) {
  if (truth.empty()) return 1.0;
  std::sort(got.begin(), got.end());
  std::size_t hit = 0;
  for (std::uint64_t id : truth) {
    hit += std::binary_search(got.begin(), got.end(), id) ? 1 : 0;
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

// ------------------------------------------------------------------ runner

/// The QueryOutcome fields the benchmark reads, without the result ids.
struct Counts {
  std::uint64_t query_messages = 0, query_bytes = 0, result_messages = 0,
                result_bytes = 0, candidates = 0, scanned = 0;
  int subqueries = 0, index_nodes = 0;
};

struct OpState {
  int callbacks = 0;
  bool fired = false;
  bool complete = false;
  bool removed = true;
  double lat_ms = 0;
  int hops = 0;
  std::uint32_t round = 0;
  std::uint64_t digest = 0;  ///< order-independent digest of the ids
  std::vector<std::uint64_t> results;  ///< sorted; first pass only
  Counts counts;
};

struct Round {
  double wall_ns = 0;
  std::uint64_t ops = 0, queries = 0, writes = 0;
  bool traced = false;
  bool warmup = false;  ///< first pass: lazy store builds, cold caches
  Counters delta;
  std::uint64_t subqueries = 0, parcels = 0, write_hops = 0;
};

struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  ///< check name -> count
  void add(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++failures[what];
    }
  }
};

class Runner {
 public:
  Runner(const Spec& spec, const Args& args)
      : spec_(spec), args_(args), in_(make_inputs(spec, args.seed)) {}

  int run();

 private:
  void setup();
  void run_pass(std::size_t pass);
  void inject(std::size_t i);
  void on_query(std::size_t i, const QueryOutcome& o);
  void check_pass(std::size_t pass);
  void verify_final();
  void compute_recall();
  void layer_metrics(Json& m);
  [[nodiscard]] const DenseVector& object(std::uint64_t id) const {
    return id < in_.corpus.size() ? in_.corpus[id]
                                  : inserted_[id - in_.corpus.size()];
  }

  const Spec& spec_;
  const Args& args_;
  Inputs in_;
  std::unique_ptr<Stack> stack_;
  std::vector<double> setup_totals_;  ///< CPU seconds of each set-up
  std::vector<double> setup_walls_;   ///< wall seconds of each set-up
  SetupTimes setup_times_;  ///< of the set-up the query phase runs on

  // Write targets of the current pass (index parallel to ops).
  std::vector<std::uint64_t> write_object_;
  std::vector<DenseVector> inserted_;  ///< objects N.. inserted so far
  std::vector<std::size_t> remove_cursor_;
  std::vector<std::uint64_t> removed_;
  std::uint64_t inserts_done_ = 0, removes_done_ = 0;

  std::size_t pass_ = 0;
  std::vector<OpState> state_;
  std::vector<OpState> first_;  ///< pass-1 state (virtual metrics)
  std::vector<Round> rounds_;
  std::uint64_t rank_calls_ = 0;
  std::uint64_t pass1_rank_calls_ = 0;
  Counters pass1_counters_;
  double elapsed_ns_ = 0;
  double elapsed_cpu_ns_ = 0;  ///< process CPU time of the same rounds
  bool stop_ = false;
  std::size_t passes_ = 0;
  Check check_;
  double recall_ = 0;
  std::uint64_t recall_scored_ = 0;
  std::uint64_t verify_digest_ = kFnvSeed;
  std::vector<std::pair<HostId, HostId>> sends_;
};

void Runner::setup() {
  StackShape shape;
  shape.nodes = spec_.nodes;
  shape.landmarks = kLandmarks;
  shape.boundary_hi = in_.max_dist;
  shape.balance = spec_.balance;
  shape.seed = kDatasetSeed;
  // At least kSetupReps set-ups, more while they are cheap, so the
  // median of a fast set-up rests on enough samples.
  double spent = 0;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kSetupReps || spent < kMinSetupSeconds);
       ++rep) {
    stack_.reset();  // from empty state every time
    stack_ = build_stack(shape, in_.corpus, args_.trace && rep == 0);
    setup_totals_.push_back(stack_->times.total());
    setup_walls_.push_back(stack_->times.wall);
    spent += stack_->times.wall;
  }
  setup_times_ = stack_->times;
}

void Runner::inject(std::size_t i) {
  const Op& op = in_.ops[i];
  OpState& st = state_[i];
  st.fired = true;
  st.round = static_cast<std::uint32_t>(rounds_.size() - 1);
  g_trace.op = i;
  Stack& s = *stack_;
  ChordNode& origin = *s.alive[op.origin];
  if (op.kind == Kind::kQuery) {
    const DenseVector& q = in_.qpoints[op.point];
    IndexPoint center;
    {
      Span span(kMap);
      center = map_query(s, q);
    }
    RankFn rank;
    if (spec_.topk) {
      rank = [this, &q, i](std::uint64_t id) {
        Span span(kRank);
        if (g_trace.on) g_trace.op = i;
        ++rank_calls_;
        return true_distance(q, in_.corpus[id]);
      };
    }
    Span span(kInject);
    inject_query(s, origin, center, in_.radius, spec_.topk,
                 [this, i](const QueryOutcome& o) { on_query(i, o); },
                 std::move(rank));
    return;
  }
  const std::uint64_t id = write_object_[i];
  IndexPoint point;
  {
    Span span(kMap);
    point = map_object(s, object(id));
  }
  Span span(kInject);
  if (op.kind == Kind::kInsert) {
    inject_insert(s, origin, id, std::move(point), [this, i](int hops) {
      Span cb(kCallback);
      OpState& w = state_[i];
      w.callbacks += 1;
      w.complete = true;
      w.hops = hops;
      ++inserts_done_;
    });
  } else {
    inject_remove(s, origin, id, std::move(point),
                  [this, i, id](bool removed, int hops) {
                    Span cb(kCallback);
                    OpState& w = state_[i];
                    w.callbacks += 1;
                    w.complete = true;
                    w.removed = removed;
                    w.hops = hops;
                    if (removed) {
                      ++removes_done_;
                      removed_.push_back(id);
                    }
                  });
  }
}

void Runner::on_query(std::size_t i, const QueryOutcome& o) {
  Span span(kCallback);
  if (g_trace.on) g_trace.op = i;
  OpState& st = state_[i];
  st.callbacks += 1;
  st.complete = o.complete;
  st.lat_ms = static_cast<double>(o.max_latency) / 1000.0;
  st.hops = o.hops;
  std::uint64_t h = o.results.size();
  for (std::uint64_t id : o.results) h += lmk::mix64(id);
  st.digest = h;
  if (pass_ == 0) {
    st.results.assign(o.results.begin(), o.results.end());
    std::sort(st.results.begin(), st.results.end());
  }
  st.counts = {o.query_messages, o.query_bytes,  o.result_messages,
               o.result_bytes,   o.candidates,   o.scanned,
               o.subqueries,     o.index_nodes};
}

void Runner::run_pass(std::size_t pass) {
  Stack& s = *stack_;
  pass_ = pass;
  const std::size_t n = in_.ops.size();
  state_.assign(n, OpState{});
  // Write targets for this pass (input generation, untimed): inserts
  // are fresh objects near the op's topic centre, removals take initial
  // objects of that topic in a seeded order, never the same one twice.
  write_object_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = in_.ops[i];
    if (op.kind == Kind::kInsert) {
      write_object_[i] = in_.corpus.size() + inserted_.size();
      inserted_.push_back(
          in_.stream->query_near(op.topic,
                                 in_.salt + (1ull << 40) + write_object_[i]));
    } else if (op.kind == Kind::kRemove) {
      auto& list = in_.removable[op.topic];
      write_object_[i] = list[remove_cursor_[op.topic]++ % list.size()];
    }
  }
  const SimTime base = s.sim.now() + 1;
  for (std::size_t r0 = 0; r0 < n; r0 += spec_.round_ops) {
    // After the first pass the run ends as soon as the window is full;
    // operations still in flight drain untimed.
    if (pass > 0 && elapsed_ns_ >= args_.seconds * 1e9) {
      stop_ = true;
      s.sim.run();
      break;
    }
    const std::size_t r1 = std::min(n, r0 + spec_.round_ops);
    for (std::size_t i = r0; i < r1; ++i) {
      s.sim.schedule_at(base + in_.ops[i].at, [this, i] { inject(i); });
    }
    Round round;
    // The traced run alternates traced and plain rounds after a warm-up
    // that builds the lazily built local stores: the whole first pass of
    // a read-only workload, the first rounds where writes keep rebuilding.
    round.warmup = pass == 0 && (spec_.write_share == 0 ||
                                 r0 < kWarmupRounds * spec_.round_ops);
    round.traced = args_.trace && !round.warmup && rounds_.size() % 2 == 0;
    round.ops = r1 - r0;
    for (std::size_t i = r0; i < r1; ++i) {
      (in_.ops[i].kind == Kind::kQuery ? round.queries : round.writes) += 1;
    }
    rounds_.push_back(round);
    const Counters c0 = counters(s);
    s.latency->record_into(round.traced ? &sends_ : nullptr);
    g_trace.on = round.traced;
    const std::int64_t t0 = now_ns();
    const std::int64_t cpu0 = cpu_ns();
    {
      Span root(kQueryRound);
      if (r1 < n) {
        s.sim.run_until(base + in_.ops[r1].at - 1);
      } else {
        s.sim.run();
      }
    }
    const double wall = static_cast<double>(now_ns() - t0);
    g_trace.on = false;
    s.latency->record_into(nullptr);
    const Counters c1 = counters(s);
    Round& done = rounds_.back();
    done.wall_ns = wall;
    done.delta = {c1.events - c0.events, c1.messages - c0.messages,
                  c1.lookups - c0.lookups, c1.rebuilds - c0.rebuilds,
                  c1.rebuilt_entries - c0.rebuilt_entries};
    elapsed_ns_ += wall;
    elapsed_cpu_ns_ += static_cast<double>(cpu_ns() - cpu0);
  }
  if (pass == 0) {
    pass1_rank_calls_ = rank_calls_;
    pass1_counters_ = counters(s);
  }
  // Attribute per-query counts to the round that injected them.
  for (std::size_t i = 0; i < n; ++i) {
    const OpState& st = state_[i];
    if (!st.fired || st.callbacks == 0) continue;
    Round& r = rounds_[st.round];
    if (in_.ops[i].kind == Kind::kQuery) {
      r.subqueries += static_cast<std::uint64_t>(st.counts.subqueries);
      r.parcels += parcels_of(st.counts.query_bytes, st.counts.query_messages,
                              kLandmarks);
    } else {
      r.write_hops += static_cast<std::uint64_t>(st.hops);
    }
  }
  check_pass(pass);
  if (pass == 0) first_ = state_;
  ++passes_;
}

void Runner::check_pass(std::size_t pass) {
  const Stack& s = *stack_;
  check_.add(active_queries(s) == 0, "active_queries_zero_at_quiescence");
  const bool reads_only = spec_.write_share == 0;
  std::vector<std::uint64_t> all_ids;
  if (pass == 0 && !spec_.topk && reads_only) {
    all_ids.resize(in_.corpus.size());
    for (std::size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
  }
  for (std::size_t i = 0; i < in_.ops.size(); ++i) {
    const OpState& st = state_[i];
    if (!st.fired) continue;
    const Op& op = in_.ops[i];
    const bool once = st.callbacks == 1 && st.complete;
    if (op.kind != Kind::kQuery) {
      check_.add(once && st.removed, op.kind == Kind::kInsert
                                         ? "insert_completes"
                                         : "remove_completes_and_removes");
      continue;
    }
    bool ok = once;
    if (pass > 0 && reads_only) {
      ok = ok && st.digest == first_[i].digest;
    } else if (pass == 0 && !spec_.topk && reads_only) {
      const IndexPoint center = map_query(s, in_.qpoints[op.point]);
      ok = ok && st.results == in_box(center, in_.radius, boundary(s),
                                      s.coords, all_ids, s.dims());
    } else if (spec_.topk) {
      for (std::uint64_t id : st.results) ok = ok && id < in_.corpus.size();
    }
    check_.add(ok, pass > 0 && reads_only ? "repeat_pass_answer_matches"
                   : spec_.topk           ? "topk_query_completes"
                   : reads_only           ? "all_matches_equals_oracle"
                                          : "query_completes");
  }
}

/// mixed-rw: entry conservation, placement, and oracle queries over the
/// final corpus once every write has landed.
void Runner::verify_final() {
  Stack& s = *stack_;
  check_.add(scheme_entries(s) == in_.corpus.size() + inserts_done_ -
                                      removes_done_,
             "entries_conserved");
  check_.add(misplaced_entries(s) == 0, "placement_invariant");

  std::vector<bool> gone(in_.corpus.size() + inserted_.size(), false);
  for (std::uint64_t id : removed_) gone[id] = true;
  std::vector<std::uint64_t> live;
  for (std::uint64_t id = 0; id < in_.corpus.size() + inserts_done_; ++id) {
    if (!gone[id]) live.push_back(id);
  }
  const std::size_t k = s.dims();
  std::vector<double> coords(live.size() * k);
  parallel_for(live.size(), [&](std::size_t j) {
    const std::uint64_t id = live[j];
    if (id < in_.corpus.size()) {
      std::copy_n(&s.coords[id * k], k, &coords[j * k]);
    } else {
      const IndexPoint p = map_object(s, object(id));
      std::copy(p.begin(), p.end(), &coords[j * k]);
    }
  });

  lmk::OpenLoopConfig ocfg;
  ocfg.arrivals_per_sec = kRate;
  ocfg.topics = kClusters;
  ocfg.zipf_s = kZipf;
  ocfg.count = spec_.verify_queries;
  ocfg.seed = args_.seed + 31;
  const auto arrivals = lmk::open_loop_schedule(ocfg);
  std::vector<DenseVector> qs;
  std::vector<QueryOutcome> got(arrivals.size());
  std::vector<int> calls(arrivals.size(), 0);
  const SimTime base = s.sim.now() + 1;
  lmk::Rng origins(args_.seed + 33);
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    qs.push_back(
        in_.stream->query_near(arrivals[j].topic, in_.salt + (1ull << 41) + j));
  }
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    ChordNode* origin = s.alive[origins.below(s.alive.size())];
    s.sim.schedule_at(
        base + static_cast<SimTime>(arrivals[j].at_sec * 1e6),
        [this, &s, &qs, &got, &calls, j, origin] {
          inject_query(s, *origin, map_query(s, qs[j]), in_.radius, false,
                       [&got, &calls, j](const QueryOutcome& o) {
                         got[j] = o;
                         calls[j] += 1;
                       },
                       {});
        });
  }
  s.sim.run();
  check_.add(active_queries(s) == 0, "active_queries_zero_at_quiescence");
  double recall_sum = 0;
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    std::vector<std::uint64_t> ids = got[j].results;
    std::sort(ids.begin(), ids.end());
    const auto truth =
        in_box(map_query(s, qs[j]), in_.radius, boundary(s), coords, live, k);
    check_.add(calls[j] == 1 && got[j].complete && ids == truth,
               "final_corpus_query_equals_oracle");
    const auto pt = [this](std::uint64_t id) -> const DenseVector& {
      return object(id);
    };
    recall_sum += recall_of(nearest(qs[j], truth, pt, kRecallK),
                            nearest(qs[j], ids, pt, kRecallK));
    for (std::uint64_t id : ids) verify_digest_ = fnv(verify_digest_, id);
    verify_digest_ = fnv(verify_digest_, ~0ull);
  }
  recall_ = arrivals.empty()
                ? 0
                : recall_sum / static_cast<double>(arrivals.size());
  recall_scored_ = arrivals.size();
}

/// Recall@10 of the first pass: topk-recall against the exact 10-NN of a
/// seeded sample of queries; balanced-range against the 10 nearest
/// objects of each query's exact in-box set.
void Runner::compute_recall() {
  const Stack& s = *stack_;
  const auto pt = [this](std::uint64_t id) -> const DenseVector& {
    return in_.corpus[id];
  };
  std::vector<std::size_t> queries;
  for (std::size_t i = 0; i < in_.ops.size(); ++i) {
    if (in_.ops[i].kind == Kind::kQuery) queries.push_back(i);
  }
  if (spec_.topk) {
    lmk::Rng pick(args_.seed + 13);
    auto idx = pick.sample_indices(
        queries.size(), std::min(spec_.recall_sample, queries.size()));
    std::sort(idx.begin(), idx.end());
    std::vector<double> r(idx.size());
    parallel_for(idx.size(), [&](std::size_t j) {
      const std::size_t i = queries[idx[j]];
      const DenseVector& q = in_.qpoints[in_.ops[i].point];
      // Exact 10-NN by brute force over the whole corpus.
      std::vector<std::pair<double, std::uint64_t>> best;
      for (std::uint64_t id = 0; id < in_.corpus.size(); ++id) {
        const double d = true_distance(q, in_.corpus[id]);
        if (best.size() < kRecallK || d < best.back().first ||
            (d == best.back().first && id < best.back().second)) {
          best.emplace_back(d, id);
          std::sort(best.begin(), best.end());
          if (best.size() > kRecallK) best.pop_back();
        }
      }
      std::vector<std::uint64_t> truth;
      for (const auto& [d, id] : best) truth.push_back(id);
      r[j] = recall_of(truth, nearest(q, first_[i].results, pt, kRecallK));
    });
    recall_ = mean_of(r);
    recall_scored_ = idx.size();
    return;
  }
  std::vector<std::uint64_t> all_ids(in_.corpus.size());
  for (std::size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
  std::vector<double> r(queries.size());
  parallel_for(queries.size(), [&](std::size_t j) {
    const std::size_t i = queries[j];
    const DenseVector& q = in_.qpoints[in_.ops[i].point];
    const auto truth = in_box(map_query(s, q), in_.radius, boundary(s),
                              s.coords, all_ids, s.dims());
    r[j] = recall_of(nearest(q, truth, pt, kRecallK),
                     nearest(q, first_[i].results, pt, kRecallK));
  });
  recall_ = mean_of(r);
  recall_scored_ = queries.size();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Per-layer attribution of the traced rounds' wall time. Spans measure
// the benchmark's own calls directly (inject, map, rank, callbacks); the
// layers reachable only from inside the program are priced by replays
// on this run's own inputs and multiplied by the traced rounds' exact
// counts; core.self is what neither accounts for.
void Runner::layer_metrics(Json& m) {
  Stack& s = *stack_;
  Round t{}, u{};
  for (const Round& r : rounds_) {
    if (r.warmup) continue;
    Round& a = r.traced ? t : u;
    a.wall_ns += r.wall_ns;
    a.ops += r.ops;
    a.queries += r.queries;
    a.writes += r.writes;
    a.delta.events += r.delta.events;
    a.delta.messages += r.delta.messages;
    a.delta.lookups += r.delta.lookups;
    a.delta.rebuilds += r.delta.rebuilds;
    a.delta.rebuilt_entries += r.delta.rebuilt_entries;
    a.subqueries += r.subqueries;
    a.parcels += r.parcels;
    a.write_hops += r.write_hops;
  }
  std::vector<double> traced_rate, plain_rate;
  for (const Round& r : rounds_) {
    if (r.warmup || r.ops == 0 || r.wall_ns <= 0) continue;
    (r.traced ? traced_rate : plain_rate).push_back(r.wall_ns / r.ops);
  }
  const double ops = std::max<double>(1, static_cast<double>(t.ops));
  // Tracing overhead: median traced round cost per op over the median
  // plain round cost per op, minus one.
  const double overhead =
      plain_rate.empty() || traced_rate.empty()
          ? 0
          : median_of(traced_rate) / median_of(plain_rate) - 1;

  // Replays on the first pass's queries.
  std::vector<ReplayQuery> rq;
  for (std::size_t i = 0; i < in_.ops.size() && rq.size() < 400; ++i) {
    const Op& op = in_.ops[i];
    if (op.kind != Kind::kQuery) continue;
    rq.push_back({s.alive[op.origin], map_query(s, in_.qpoints[op.point]),
                  in_.radius});
  }
  const RoutingReplay route = replay_routing(s, rq);
  const NextHopReplay hop = replay_next_hop(s, route.solves);
  const StoreReplay store = replay_store(s, route.solves);
  const double ns_event =
      replay_engine_ns_per_event(400000, 4096, args_.seed + 41);
  const double ns_lookup = replay_latency_ns(s, sends_);

  // Chord next_hop calls: one per dispatched parcel plus two per split
  // considered (query_routing evaluates both halves' next hops), plus one
  // per hop of each costed write lookup.
  const auto chord_calls = [](double parcels, double splits, double writes,
                              double write_hops) {
    return parcels + 2 * splits + writes + write_hops;
  };
  const double replay_chord_calls =
      chord_calls(static_cast<double>(route.parcels),
                  static_cast<double>(route.splits), 0, 0);
  // routing.ns_per_query is the whole replay (router, next_hop, sends,
  // engine) per query. The router's self time is what remains after the
  // replay's sim, net and chord estimates; those estimates can exceed the
  // whole replay, and the remainder then reads 0 rather than negative.
  const double queries_r = std::max<double>(1, route.queries);
  const double routing_ns_per_query = route.wall_ns / queries_r;
  const double routing_self_per_query = std::max(
      0.0, (route.wall_ns - static_cast<double>(route.events) * ns_event -
            static_cast<double>(route.lookups) * ns_lookup -
            replay_chord_calls * hop.ns_per_call) /
               queries_r);
  const double splits_t =
      static_cast<double>(t.subqueries) - static_cast<double>(t.queries);

  const double w = t.wall_ns;
  const auto self = [](SpanName n) {
    return static_cast<double>(g_trace.aggregate(n).self_ns);
  };
  const double sim_ns = static_cast<double>(t.delta.events) * ns_event;
  const double net_ns = static_cast<double>(t.delta.lookups) * ns_lookup;
  const double chord_ns =
      chord_calls(static_cast<double>(t.parcels), std::max(0.0, splits_t),
                  static_cast<double>(t.writes),
                  static_cast<double>(t.write_hops)) *
      hop.ns_per_call;
  const double routing_ns =
      static_cast<double>(t.queries) * routing_self_per_query;
  const double store_ns =
      static_cast<double>(t.subqueries) * store.ns_per_probe +
      static_cast<double>(t.delta.rebuilt_entries) * store.build_ns_per_entry;
  const double metric_ns = self(kRank);
  const double landmark_ns = self(kMap);
  const double inject_ns = self(kInject);
  const double callback_ns = self(kCallback);
  const double core_self = w - sim_ns - net_ns - chord_ns - routing_ns -
                           store_ns - metric_ns - landmark_ns - inject_ns -
                           callback_ns;

  // First-pass (deterministic) per-query counts.
  std::vector<double> hops;
  double q = 0, subq = 0, qmsgs = 0, cands = 0, replies = 0, nodes = 0,
         scanned = 0;
  for (std::size_t i = 0; i < in_.ops.size(); ++i) {
    if (in_.ops[i].kind != Kind::kQuery || first_[i].callbacks == 0) continue;
    const Counts& o = first_[i].counts;
    q += 1;
    hops.push_back(first_[i].hops);
    subq += o.subqueries;
    qmsgs += static_cast<double>(o.query_messages);
    cands += static_cast<double>(o.candidates);
    replies += static_cast<double>(o.result_messages);
    nodes += o.index_nodes;
    scanned += static_cast<double>(o.scanned);
  }
  q = std::max(1.0, q);
  std::vector<std::size_t> loads = load_distribution(s);
  double load_sum = 0, load_max = 0;
  for (std::size_t l : loads) {
    load_sum += static_cast<double>(l);
    load_max = std::max(load_max, static_cast<double>(l));
  }
  const double load_mean = loads.empty() ? 1 : load_sum / loads.size();
  std::vector<double> hops_copy = hops;
  const double map_count =
      static_cast<double>(g_trace.aggregate(kMap).count);
  const double rank_count = static_cast<double>(g_trace.aggregate(kRank).count);

  m.num("sim.events_per_op", t.delta.events / ops)
      .num("sim.events_per_s",
           u.wall_ns > 0
               ? static_cast<double>(u.delta.events) / (u.wall_ns / 1e9)
               : 0)
      .num("sim.ns_per_event", ns_event)
      .num("sim.self_ns_per_op", sim_ns / ops)
      .num("net.msgs_per_op", t.delta.messages / ops)
      .num("net.latency_lookups_per_op", t.delta.lookups / ops)
      .num("net.self_ns_per_op", net_ns / ops)
      .num("chord.hops_p50", hops.empty() ? 0 : lmk::percentile_nth(hops, 50))
      .num("chord.hops_p99",
           hops_copy.empty() ? 0 : lmk::percentile_nth(hops_copy, 99))
      .num("chord.next_hop_ns", hop.ns_per_call)
      .num("chord.bootstrap_s", setup_times_.bootstrap)
      .num("chord.self_ns_per_op", chord_ns / ops)
      .num("routing.subqueries_per_query", subq / q)
      .num("routing.query_msgs_per_query", qmsgs / q)
      .num("routing.ns_per_query", routing_ns_per_query)
      .num("routing.self_ns_per_op", routing_ns / ops)
      .num("store.scanned_per_probe", subq > 0 ? scanned / subq : 0)
      .num("store.hit_ratio", scanned > 0 ? cands / scanned : 0)
      .num("store.ns_per_probe", store.ns_per_probe)
      .num("store.rebuilds_per_op", t.delta.rebuilds / ops)
      .num("store.rebuilt_entries_per_op", t.delta.rebuilt_entries / ops)
      .num("store.build_ns_per_entry", store.build_ns_per_entry)
      .num("store.bytes", static_cast<double>(store_bytes(s)))
      .num("store.self_ns_per_op", store_ns / ops)
      .num("core.candidates_per_query", cands / q)
      .num("core.replies_per_query", replies / q)
      .num("core.index_nodes_per_query", nodes / q)
      .num("core.inject_ns_per_op", inject_ns / ops)
      .num("core.self_ns_per_op", core_self / ops)
      .num("core.load_s", setup_times_.load)
      .num("metric.rank_calls_per_query",
           static_cast<double>(pass1_rank_calls_) / q)
      .num("metric.rank_ns_per_call",
           rank_count > 0 ? metric_ns / rank_count : 0)
      .num("metric.self_ns_per_op", metric_ns / ops)
      .num("landmark.select_s", setup_times_.select)
      .num("landmark.map_ns_per_object",
           map_count > 0 ? landmark_ns / map_count : 0)
      .num("landmark.self_ns_per_op", landmark_ns / ops)
      .num("balance.migrations", stack_->migrations)
      .num("balance.migrate_s", setup_times_.migrate)
      .num("balance.max_over_mean_load",
           load_mean > 0 ? load_max / load_mean : 0)
      .num("trace.overhead", overhead)
      .num("trace.query_ns_per_op", w / ops)
      .num("trace.callback_ns_per_op", callback_ns / ops);

  // Self-time table.
  struct Row {
    const char* layer;
    const char* source;
    double ns;
  };
  const Row rows[] = {
      {"sim", "replay: events x engine ns/event", sim_ns},
      {"net", "replay: latency lookups x ns/lookup", net_ns},
      {"chord", "replay: est. next_hop calls x ns/call", chord_ns},
      {"routing", "replay: router wall minus sim/net/chord", routing_ns},
      {"store", "replay: probes x ns/probe + rebuilt entries x ns/entry",
       store_ns},
      {"metric", "span: ranking DistanceFn", metric_ns},
      {"landmark", "span: mapper at injection", landmark_ns},
      {"core.inject", "span: injection call self time", inject_ns},
      {"trace.callback", "span: completion callbacks", callback_ns},
      {"core.self", "residual: wall minus every row above", core_self},
  };
  std::string path = args_.out + "/" + spec_.name + "-seed" +
                     std::to_string(args_.seed) + ".selftime.txt";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "# %s seed=%llu: self time of each layer over %llu traced "
                 "operations (%zu traced rounds), query-phase wall %.3f ms\n",
                 spec_.name, static_cast<unsigned long long>(args_.seed),
                 static_cast<unsigned long long>(t.ops),
                 static_cast<std::size_t>(std::count_if(
                     rounds_.begin(), rounds_.end(),
                     [](const Round& r) { return r.traced; })),
                 w / 1e6);
    std::fprintf(f, "%-16s %14s %8s  %s\n", "layer", "ns/op", "share",
                 "source");
    double sum = 0;
    for (const Row& r : rows) {
      sum += r.ns;
      std::fprintf(f, "%-16s %14.1f %7.2f%%  %s\n", r.layer, r.ns / ops,
                   w > 0 ? 100.0 * r.ns / w : 0.0, r.source);
    }
    std::fprintf(f, "%-16s %14.1f %7.2f%%  %s\n", "sum", sum / ops,
                 w > 0 ? 100.0 * sum / w : 0.0, "equals the traced wall");
    std::fprintf(f, "%-16s %14.1f\n", "traced wall", w / ops);
    std::fprintf(f, "%-16s %14.4f\n", "trace.overhead", overhead);
    std::fclose(f);
  }
  std::printf("self-time table: %s\n", path.c_str());
}

/// Unit of each per-layer metric, as BENCHMARK.json lists it.
const char* layer_unit(const std::string& name) {
  static const std::map<std::string, const char*> units = {
      {"sim.events_per_op", "events/op"},
      {"sim.events_per_s", "events/s"},
      {"sim.ns_per_event", "ns"},
      {"net.msgs_per_op", "msgs/op"},
      {"net.latency_lookups_per_op", "lookups/op"},
      {"chord.hops_p50", "hops"},
      {"chord.hops_p99", "hops"},
      {"chord.next_hop_ns", "ns"},
      {"chord.bootstrap_s", "s"},
      {"routing.subqueries_per_query", "subq/query"},
      {"routing.query_msgs_per_query", "msgs/query"},
      {"routing.ns_per_query", "ns"},
      {"store.scanned_per_probe", "entries/probe"},
      {"store.hit_ratio", "ratio"},
      {"store.ns_per_probe", "ns"},
      {"store.rebuilds_per_op", "rebuilds/op"},
      {"store.rebuilt_entries_per_op", "entries/op"},
      {"store.build_ns_per_entry", "ns"},
      {"store.bytes", "B"},
      {"core.candidates_per_query", "cands/query"},
      {"core.replies_per_query", "replies/query"},
      {"core.index_nodes_per_query", "nodes/query"},
      {"core.load_s", "s"},
      {"metric.rank_calls_per_query", "calls/query"},
      {"metric.rank_ns_per_call", "ns"},
      {"landmark.select_s", "s"},
      {"landmark.map_ns_per_object", "ns"},
      {"balance.migrations", "count"},
      {"balance.migrate_s", "s"},
      {"balance.max_over_mean_load", "ratio"},
      {"trace.overhead", "ratio"},
  };
  const auto it = units.find(name);
  if (it != units.end()) return it->second;
  return "ns/op";  // every *_ns_per_op self-time metric
}

std::string env_json() {
  Json env;
  std::vector<std::string> vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LMK_", 4) == 0) vars.emplace_back(*e);
  }
  std::sort(vars.begin(), vars.end());
  for (const std::string& v : vars) {
    const std::size_t eq = v.find('=');
    env.str(v.substr(0, eq), eq == std::string::npos ? "" : v.substr(eq + 1));
  }
  return env.dump();
}

int Runner::run() {
  const std::int64_t t_start = now_ns();
  remove_cursor_.assign(kClusters, 0);
  setup();
  Stack& s = *stack_;
  const std::size_t initial_entries = scheme_entries(s);
  check_.add(initial_entries == in_.corpus.size(), "bulk_load_complete");
  if (spec_.balance) {
    check_.add(misplaced_entries(s) == 0, "placement_after_migration");
  }

  // Set-up read-outs before the query phase mutates anything.
  std::vector<std::size_t> loads = load_distribution(s);
  double load_sum = 0, load_max = 0;
  for (std::size_t l : loads) {
    load_sum += static_cast<double>(l);
    load_max = std::max(load_max, static_cast<double>(l));
  }
  const double load_mean = loads.empty() ? 0 : load_sum / loads.size();

  const Counters c0 = counters(s);
  for (std::size_t pass = 0; !stop_; ++pass) {
    if (pass > 0 && elapsed_ns_ >= args_.seconds * 1e9) break;
    run_pass(pass);
  }
  if (spec_.write_share > 0) {
    verify_final();
  } else {
    compute_recall();
  }

  // ---- end-to-end metrics (first pass for virtual time)
  std::vector<double> lat;
  double bytes = 0;
  std::uint64_t digest = kFnvSeed;
  std::uint64_t subq = 0, cands = 0, scanned = 0, qmsgs = 0;
  for (std::size_t i = 0; i < in_.ops.size(); ++i) {
    const OpState& st = first_[i];
    digest = fnv(digest, st.digest);
    if (in_.ops[i].kind != Kind::kQuery || st.callbacks == 0) continue;
    lat.push_back(st.lat_ms);
    bytes +=
        static_cast<double>(st.counts.query_bytes + st.counts.result_bytes);
    subq += static_cast<std::uint64_t>(st.counts.subqueries);
    cands += st.counts.candidates;
    scanned += st.counts.scanned;
    qmsgs += st.counts.query_messages;
  }
  const std::size_t samples = lat.size();
  std::vector<double> lat99 = lat;
  const double p50 = samples ? lmk::percentile_nth(lat, 50) : 0;
  const double p99 = samples ? lmk::percentile_nth(lat99, 99) : 0;
  check_.add(samples >= 1000, "p99_has_10_samples_beyond_it");
  // Throughput over the whole window: other tenants of the machine
  // slow it down for seconds at a time, which a per-round median turns
  // into a step between runs while the window total averages it.
  double timed_ops = 0, timed_wall_ns = 0;
  for (const Round& r : rounds_) {
    if (r.traced) continue;
    timed_ops += static_cast<double>(r.ops);
    timed_wall_ns += r.wall_ns;
  }
  const double ops_per_s =
      timed_wall_ns > 0 ? timed_ops / (timed_wall_ns / 1e9) : 0;
  std::vector<double> setups = setup_totals_;
  const double setup_s = median_of(setups);
  const double success =
      check_.attempted
          ? 1.0 - static_cast<double>(check_.failed) /
                      static_cast<double>(check_.attempted)
          : 0;

  Json e2e;
  e2e.raw("setup_s", Json().num("value", setup_s).str("unit", "s").dump())
      .raw("ops_per_s",
           Json().num("value", ops_per_s).str("unit", "ops/s").dump())
      .raw("peak_rss_mib",
           Json().num("value", peak_rss_mib()).str("unit", "MiB").dump())
      .raw("vlat_p50_ms", Json().num("value", p50).str("unit", "ms").dump())
      .raw("vlat_p99_ms", Json().num("value", p99).str("unit", "ms").dump())
      .raw("recall_at_10",
           Json().num("value", recall_).str("unit", "ratio").dump())
      .raw("bytes_per_query",
           Json()
               .num("value", samples ? bytes / samples : 0)
               .str("unit", "B")
               .dump())
      .raw("success_rate",
           Json().num("value", success).str("unit", "ratio").dump());

  Json layers;
  if (args_.trace) layer_metrics(layers);

  // ---- report
  std::uint64_t ops_done = 0;
  for (const Round& r : rounds_) ops_done += r.ops;
  std::printf("workload %s seed %llu: %zu nodes, %zu objects, %zu dims, "
              "entries/node max %.0f mean %.1f, repeat share %.3f, write "
              "share %.3f\n",
              spec_.name, static_cast<unsigned long long>(args_.seed),
              spec_.nodes, spec_.objects, spec_.dims, load_max, load_mean,
              in_.repeat_share, spec_.write_share);
  std::printf("timed phase: %zu passes, %zu rounds, %llu ops in %.3f s; "
              "vlat samples %zu (p99 valid: %s)\n",
              passes_, rounds_.size(),
              static_cast<unsigned long long>(ops_done),
              elapsed_ns_ / 1e9, samples, samples >= 1000 ? "yes" : "no");
  for (const auto& [name, value] : e2e.kv) {
    std::printf("  %-16s %s\n", name.c_str(), value.c_str());
  }
  for (const auto& [name, count] : check_.failures) {
    std::printf("FAILED check %s: %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }

  Json det;
  det.num("vlat_p50_ms", p50)
      .num("vlat_p99_ms", p99)
      .num("vlat_samples", static_cast<double>(samples))
      .num("recall_at_10", recall_)
      .num("recall_scored", static_cast<double>(recall_scored_))
      .num("bytes_per_query", samples ? bytes / samples : 0)
      .str("results_digest", std::to_string(digest))
      .str("verify_digest", std::to_string(verify_digest_))
      .num("pass1_events",
           static_cast<double>(pass1_counters_.events - c0.events))
      .num("pass1_messages",
           static_cast<double>(pass1_counters_.messages - c0.messages))
      .num("pass1_subqueries", static_cast<double>(subq))
      .num("pass1_query_messages", static_cast<double>(qmsgs))
      .num("pass1_candidates", static_cast<double>(cands))
      .num("pass1_scanned", static_cast<double>(scanned))
      .num("migrations", stack_->migrations)
      .num("entries_max", load_max)
      .num("entries_mean", load_mean)
      .num("repeat_share", in_.repeat_share);
  if (args_.seconds <= 0) {
    // Single-pass runs (the determinism check) end in a state that is a
    // function of the seed alone.
    det.num("final_entries", static_cast<double>(scheme_entries(s)))
        .num("attempted", static_cast<double>(check_.attempted))
        .num("failed", static_cast<double>(check_.failed));
  }

  const char* threads_env = std::getenv("LMK_THREADS");
  Json cfg;
  cfg.str("workload", spec_.name)
      .num("seed", static_cast<double>(args_.seed))
      .num("seconds", args_.seconds)
      .num("trace", args_.trace ? 1 : 0)
      .raw("scale", Json()
                        .num("nodes", static_cast<double>(spec_.nodes))
                        .num("objects", static_cast<double>(spec_.objects))
                        .num("dims", static_cast<double>(spec_.dims))
                        .num("landmarks", static_cast<double>(kLandmarks))
                        .num("clusters", static_cast<double>(kClusters))
                        .num("zipf_s", kZipf)
                        .num("virtual_rate_per_s", kRate)
                        .num("range_factor", spec_.range_factor)
                        .num("radius", in_.radius)
                        .num("ops_per_pass", static_cast<double>(spec_.ops))
                        .num("write_share", spec_.write_share)
                        .num("focus_pool",
                             static_cast<double>(spec_.focus_pool))
                        .str("reply_mode", spec_.topk ? "kTopK" : "kAllMatches")
                        .num("load_balance", spec_.balance ? 1 : 0)
                        .num("setup_reps",
                             static_cast<double>(setup_totals_.size()))
                        .num("round_ops", static_cast<double>(spec_.round_ops))
                        .dump())
      .str("LMK_THREADS", threads_env != nullptr ? threads_env : "")
      .num("pool_threads", static_cast<double>(pool_threads()))
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .str("local_store", local_store_name(s))
      .str("build_type", LMK_BENCH_BUILD_TYPE)
      .str("compiler", LMK_BENCH_COMPILER)
      .str("git_commit", args_.git_commit)
      .str("source_digest", args_.source_digest)
      .raw("lmk_env", env_json());

  Json fails;
  for (const auto& [name, count] : check_.failures) {
    fails.num(name, static_cast<double>(count));
  }
  Json wall;
  wall.num("run_s", static_cast<double>(now_ns() - t_start) / 1e9)
      .num("timed_s", elapsed_ns_ / 1e9)
      .num("timed_cpu_s", elapsed_cpu_ns_ / 1e9)
      .num("ops_timed", static_cast<double>(ops_done))
      .num("passes", static_cast<double>(passes_))
      .num("rounds", static_cast<double>(rounds_.size()));
  Json setup_json;
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + fmt(v[i]);
    }
    return out + "]";
  };
  setup_json.raw("reps_cpu_s", list(setup_totals_))
      .raw("reps_wall_s", list(setup_walls_))
      .num("topology_s", setup_times_.topology)
      .num("bootstrap_s", setup_times_.bootstrap)
      .num("select_s", setup_times_.select)
      .num("map_s", setup_times_.map)
      .num("load_s", setup_times_.load)
      .num("migrate_s", setup_times_.migrate);

  Json artifact;
  artifact.raw("config", cfg.dump())
      .raw("deterministic", det.dump())
      .raw("end_to_end", e2e.dump())
      .raw("setup", setup_json.dump())
      .raw("wallclock", wall.dump())
      .raw("checks", Json()
                         .num("attempted",
                              static_cast<double>(check_.attempted))
                         .num("failed", static_cast<double>(check_.failed))
                         .raw("failures", fails.dump())
                         .dump());
  if (args_.trace) artifact.raw("per_layer", layers.dump());
  const std::string stem = args_.out + "/" + spec_.name + "-seed" +
                           std::to_string(args_.seed) +
                           (args_.trace ? "-trace" : "");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "%s\n", artifact.dump().c_str());
    std::fclose(f);
  }
  if (args_.trace) {
    g_trace.write_chrome(stem + ".chrome.json");
    std::printf("chrome trace: %s.chrome.json\n", stem.c_str());
  }
  std::printf("artifact: %s.json\n", stem.c_str());

  Json result;
  Json metrics;
  for (const auto& [name, value] : (args_.trace ? layers : e2e).kv) {
    metrics.raw(name, args_.trace ? Json()
                                        .raw("value", value)
                                        .str("unit", layer_unit(name))
                                        .dump()
                                  : value);
  }
  result.raw("correct", check_.failed == 0 ? "true" : "false")
      .num("attempted", static_cast<double>(check_.attempted))
      .num("failed", static_cast<double>(check_.failed))
      .raw("metrics", metrics.dump());
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--git-commit") {
      a.git_commit = v;
    } else if (k == "--source-digest") {
      a.source_digest = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: lmk_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  pin_threads(std::max(1u, std::thread::hardware_concurrency()));
  Runner runner(*spec, args);
  return runner.run();
}
