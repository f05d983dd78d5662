// The standard invariant checkers (see audit.hpp for the framework).
//
//  * RingChecker      — Chord routing state vs. the converged oracle:
//                       successors, successor-list prefixes, predecessor
//                       symmetry, finger intervals.
//  * PartitionChecker — live nodes' key arcs (equivalently, their LPH
//                       hypercuboid sets) tile the ring with no gap or
//                       overlap; every stored entry lies inside its
//                       owner's arc and carries the key its point hashes
//                       to under the scheme's boundary + rotation.
//  * ConservationChecker — the multiset of (scheme, object, key) triples
//                       is preserved across migration/rotation: capture a
//                       baseline, then every later pass reports entries
//                       lost or duplicated since.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "audit/audit.hpp"

namespace lmk::audit {

class RingChecker : public Checker {
 public:
  [[nodiscard]] std::string_view name() const override { return "ring"; }
  void check(const AuditContext& ctx, AuditReport* out) override;
};

class PartitionChecker : public Checker {
 public:
  /// `tiling_samples` random keys are tested for exactly-one-owner per
  /// pass (a probabilistic whole-space tiling probe on top of the exact
  /// per-arc comparison).
  explicit PartitionChecker(std::size_t tiling_samples = 64)
      : tiling_samples_(tiling_samples) {}

  [[nodiscard]] std::string_view name() const override { return "partition"; }
  void check(const AuditContext& ctx, AuditReport* out) override;

 private:
  std::size_t tiling_samples_;
};

class ConservationChecker : public Checker {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "conservation";
  }

  /// Record the current multiset of indexed entries as the baseline all
  /// later passes compare against. Call after bulk load / balancing,
  /// before the events that must conserve the index.
  void capture(const AuditContext& ctx);

  void check(const AuditContext& ctx, AuditReport* out) override;

 private:
  // (scheme, object, key): the identity of one stored copy.
  using Item = std::tuple<std::uint32_t, std::uint64_t, Id>;
  [[nodiscard]] static std::vector<Item> collect(const AuditContext& ctx);

  std::vector<Item> baseline_;
  bool captured_ = false;
};

}  // namespace lmk::audit
