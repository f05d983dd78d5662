// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed only in the benchmark's own code, around
// the calls it makes into the program (or hands to it as callbacks).
// Every span feeds a per-name aggregate (count and self time, where
// self = duration minus the time covered by child spans); the first
// `kMaxRecords` spans are also kept verbatim and written, when the run
// ends, as Chrome trace-event JSON that Perfetto and chrome://tracing
// load. With tracing off a span costs one predictable branch.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

enum SpanName : int {
  kQueryRound,   // one timed round of the open-loop drain (root)
  kInject,       // IndexPlatform injection call
  kMap,          // LandmarkMapper call at injection time
  kRank,         // the ranking DistanceFn handed to the platform
  kCallback,     // the completion callbacks handed to the platform
  kSetupTopology,
  kSetupBootstrap,
  kSetupSelect,
  kSetupMap,
  kSetupLoad,
  kSetupMigrate,
  kReplayRouting,
  kReplayNextHop,
  kReplayStoreBuild,
  kReplayStoreProbe,
  kReplayEngine,
  kReplayLatency,
  kSpanNames
};

inline constexpr std::array<const char*, kSpanNames> kSpanLabel = {
    "query.round",          "core.inject",          "landmark.map",
    "metric.rank",          "trace.callback",       "net.topology",
    "chord.bootstrap",      "landmark.select",      "landmark.map_corpus",
    "core.load",            "balance.migrate",      "replay.routing",
    "replay.chord_next_hop", "replay.store_build",  "replay.store_probe",
    "replay.sim_engine",    "replay.net_latency"};

/// Chrome trace "thread" a span is drawn on: query phase, set-up, replays.
inline constexpr std::array<int, kSpanNames> kSpanTrack = {
    1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process, summed over its threads.
inline std::int64_t cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return std::int64_t{t.tv_sec} * 1000000000 + t.tv_nsec;
}

class Tracer {
 public:
  static constexpr std::size_t kMaxRecords = 50000;

  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t self_ns = 0;
  };

  bool on = false;
  /// Operation the spans being opened belong to (Chrome "args.op").
  std::uint64_t op = 0;

  void begin(SpanName name) { open_.push_back({name, now_ns(), 0, op}); }

  void end() {
    const std::int64_t t = now_ns();
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t d = t - o.start;
    Aggregate& a = agg_[o.name];
    a.count += 1;
    a.self_ns += d - o.child;
    if (!open_.empty()) open_.back().child += d;
    if (records_.size() < kMaxRecords) {
      records_.push_back({o.name, o.start, d, o.op, open_.size()});
    }
  }

  [[nodiscard]] const Aggregate& aggregate(SpanName n) const {
    return agg_[n];
  }

  /// Write every kept span as Chrome trace-event JSON ("X" events).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t epoch = records_.empty() ? 0 : records_.front().start;
    for (const Record& r : records_) epoch = std::min(epoch, r.start);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    const char* tracks[] = {"", "query phase", "set-up", "replays"};
    for (int t = 1; t <= 3; ++t) {
      std::fprintf(f,
                   "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n",
                   t, tracks[t]);
    }
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%llu,\"depth\":%zu}}%s\n",
                   kSpanLabel[r.name], layer_of(r.name).c_str(),
                   kSpanTrack[r.name],
                   static_cast<double>(r.start - epoch) / 1e3,
                   static_cast<double>(r.dur) / 1e3,
                   static_cast<unsigned long long>(r.op), r.depth,
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    SpanName name;
    std::int64_t start;
    std::int64_t child;
    std::uint64_t op;
  };
  struct Record {
    SpanName name;
    std::int64_t start;
    std::int64_t dur;
    std::uint64_t op;
    std::size_t depth;
  };

  static std::string layer_of(SpanName n) {
    const std::string label = kSpanLabel[n];
    return label.substr(0, label.find('.'));
  }

  std::vector<Open> open_;
  std::array<Aggregate, kSpanNames> agg_{};
  std::vector<Record> records_;
};

/// The process-wide recorder (the simulator is single-threaded, so spans
/// never interleave across threads).
inline Tracer g_trace;

/// RAII span. By default it records only while g_trace.on is set (the
/// traced rounds); set-up and replay spans of the traced run pass
/// `live` explicitly.
class Span {
 public:
  explicit Span(SpanName name, bool live = g_trace.on) : live_(live) {
    if (live_) g_trace.begin(name);
  }
  ~Span() {
    if (live_) g_trace.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool live_;
};

}  // namespace perfbench
