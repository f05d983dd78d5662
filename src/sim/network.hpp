// Packet-level message delivery between simulated hosts.
//
// Messages are delivered as scheduled callbacks after the one-way latency
// given by the topology's LatencyModel. Every message carries a byte size
// so the harness can account bandwidth with the paper's cost model; the
// network keeps global counters and supports per-category accounting via
// TrafficCounter hooks.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "net/latency_model.hpp"
#include "sim/simulator.hpp"

namespace lmk {

class FaultInjector;

/// Byte/message counters for one traffic category (e.g. one query, or
/// all maintenance traffic).
struct TrafficCounter {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  void add(std::uint64_t sz) {
    ++messages;
    bytes += sz;
  }
};

/// Simulated network: schedules sized messages with topology latency.
class Network {
 public:
  Network(Simulator& sim, const LatencyModel& topology)
      : sim_(sim), topology_(topology) {}

  /// Enable per-message delay jitter: each delivery takes
  /// latency * (1 + U[0, fraction)). Deterministic for a given seed.
  void set_jitter(double fraction, std::uint64_t seed);

  /// Install (or, with nullptr, remove) a fault injector (sim/fault.hpp):
  /// every send is offered to it before scheduling, so an armed injector
  /// can drop, hold, or retime messages. The network does not own the
  /// injector; with none installed send() behaves exactly as before.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }

  /// Deliver `handler` at `to` after the one-way latency from `from`.
  /// `bytes` is the modeled message size; `counter` (optional) receives
  /// the per-category accounting in addition to the global counters.
  void send(HostId from, HostId to, std::uint64_t bytes, EventFn handler,
            TrafficCounter* counter = nullptr);

  /// One-way latency lookup (used by PNS and by tests).
  [[nodiscard]] SimTime latency(HostId a, HostId b) const {
    return topology_.latency(a, b);
  }

  /// Number of hosts in the topology.
  [[nodiscard]] std::size_t hosts() const { return topology_.size(); }

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  /// All traffic since construction.
  [[nodiscard]] const TrafficCounter& total_traffic() const { return total_; }

 private:
  Simulator& sim_;
  const LatencyModel& topology_;
  TrafficCounter total_;
  double jitter_ = 0;
  Rng jitter_rng_{0};
  FaultInjector* faults_ = nullptr;
};

}  // namespace lmk
