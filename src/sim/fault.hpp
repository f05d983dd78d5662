// Deterministic network fault injection for the schedule explorer.
//
// A FaultPlan is a small list of directives — message drops, duplicate
// deliveries, delay spikes, reorderings, link partitions, and
// crash-stop / crash-rejoin churn — either generated from a single
// seed (FaultPlan::generate) or parsed from a `.sched` text file. The
// FaultInjector executes a plan against Network::send: every message
// the network would schedule passes through on_send(), which matches
// directives by the global send sequence number (message faults) or by
// virtual time (partitions), and arm() schedules the timed churn
// directives through harness-provided hooks. Everything the injector
// does is a pure function of the plan and the simulation, so a failing
// run replays bit-for-bit from its `.sched` file — and with no
// injector installed Network::send is byte-identical to before.
//
// Known modelling limit: EventClosure is move-only, so a duplicated
// message cannot re-run its handler. kDuplicate instead delivers the
// original normally plus a no-op arrival event at a second, offset
// time — it perturbs same-instant tie groups and event interleaving
// the way a duplicate would, without re-applying the payload. True
// payload re-delivery arrives with the wire protocol (ROADMAP, "Query
// liveness under loss").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/latency_model.hpp"
#include "sim/event_queue.hpp"

namespace lmk {

class Simulator;

/// One kind of injected fault.
enum class FaultKind : std::uint8_t {
  kDrop,       ///< message `seq` is never delivered
  kDuplicate,  ///< message `seq` also triggers a no-op arrival `extra` later
  kDelay,      ///< message `seq` takes `extra` additional microseconds
  kReorder,    ///< message `seq` is held until the next send to the same host
  kPartition,  ///< link a<->b (a==b: all links of a) drops in [at, until)
  kCrash,      ///< host `a` crash-stops at virtual time `at`
  kRejoin,     ///< host `a` rejoins at virtual time `at`
};

/// One fault directive. Which fields matter depends on `kind` (see
/// FaultKind); unused fields stay zero so plans print compactly.
struct FaultDirective {
  FaultKind kind = FaultKind::kDrop;
  std::uint64_t seq = 0;  ///< message faults: global send sequence number
  SimTime extra = 0;      ///< kDelay: added latency; kDuplicate: echo offset
  HostId a = 0;           ///< kPartition endpoint / churn target
  HostId b = 0;           ///< kPartition other endpoint (== a: isolate a)
  SimTime at = 0;         ///< kPartition window start / churn time
  SimTime until = 0;      ///< kPartition window end (exclusive)

  [[nodiscard]] std::string to_string() const;
};

/// A complete exploration schedule: the tie-break policy for
/// same-instant events plus the fault directives. Serializes to the
/// `.sched` text format (one directive per line) so minimized failing
/// plans can be committed and replayed via LMK_SCHED_REPLAY.
struct FaultPlan {
  TieBreak tie = TieBreak::kFifo;
  std::uint64_t shuffle_seed = 0;  ///< used when tie == kShuffled
  std::vector<FaultDirective> directives;

  /// Bounds for seeded plan generation. Sequence numbers are drawn
  /// below `sends`, fault windows and churn times inside
  /// [0, horizon), endpoints below `hosts`. At most `max_crashes`
  /// crash directives are emitted and every crash is paired with a
  /// rejoin of the same host later in the run — callers set
  /// max_crashes below the replication factor so a conforming plan
  /// can never lose every copy of an entry.
  struct GenOptions {
    std::size_t hosts = 0;
    std::uint64_t sends = 0;
    SimTime horizon = 0;
    std::size_t directives = 8;
    std::size_t max_crashes = 1;
  };

  /// Deterministic plan from one seed (the explorer's swarm unit).
  [[nodiscard]] static FaultPlan generate(std::uint64_t seed,
                                          const GenOptions& opts);

  /// `.sched` text round-trip.
  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] static bool parse(const std::string& text, FaultPlan* out,
                                  std::string* error);
};

/// Executes a FaultPlan against a Network (install via
/// Network::set_fault_injector). Passive until arm(); after disarm()
/// messages flow untouched again (held reordered messages are
/// released), so a scenario can measure fault-free recovery.
class FaultInjector {
 public:
  /// Churn callbacks, supplied by the harness (typically Ring::fail and
  /// Ring::rejoin plus index-layer repair). Invoked from scheduled
  /// events at each directive's virtual time.
  /// lmk-lint: allow(hot-std-function) install-time only, not per-event
  struct Hooks {
    std::function<void(HostId)> crash;
    std::function<void(HostId)> rejoin;
  };

  FaultInjector(Simulator& sim, FaultPlan plan);

  /// Activate message faults and schedule the churn directives.
  void arm(Hooks hooks);

  /// Stop affecting traffic. Held kReorder messages are rescheduled for
  /// immediate delivery so no payload is silently lost; already-elapsed
  /// churn directives have fired, pending ones become no-ops.
  void disarm();

  [[nodiscard]] bool armed() const { return armed_; }

  /// Counters for reporting/tests.
  struct Stats {
    std::uint64_t sends = 0;      ///< messages observed while armed
    std::uint64_t dropped = 0;    ///< kDrop + kPartition discards
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t reordered = 0;  ///< messages held by kReorder
    std::uint64_t crashes = 0;
    std::uint64_t rejoins = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Network::send interception. Returns true when the injector
  /// consumed the message (dropped or held); otherwise the caller
  /// schedules `handler` with the (possibly adjusted) `delay`.
  bool on_send(HostId from, HostId to, SimTime& delay, EventFn& handler);

 private:
  struct Held {
    HostId to = 0;
    EventFn fn;
  };

  Simulator& sim_;
  FaultPlan plan_;
  Hooks hooks_;
  Stats stats_;
  std::vector<Held> held_;  ///< kReorder messages awaiting a release
  std::uint64_t next_seq_ = 0;
  std::uint64_t armed_epoch_ = 0;  ///< invalidates scheduled churn on disarm
  bool armed_ = false;
};

}  // namespace lmk
