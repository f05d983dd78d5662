// Deterministic parallel sweep engine (see DESIGN.md, "Sweep engine").
//
// Every figure/table bench is a loop over mutually independent sweep
// cells — one (scheme × config) experiment stack each, sharing only
// immutable inputs (dataset, query set, precomputed ground truth,
// topology). SweepDriver runs those cells concurrently on the chunked
// thread pool (common/parallel, parallel_tasks) while keeping the
// emitted output byte-identical to the serial loop it replaced:
//
//  * Cells never print. Everything a cell would have written to stdout
//    goes into its CellOutput, and the driver emits the outputs in
//    declaration order after every cell finished.
//  * Cells derive all randomness from seeds baked into their config at
//    add_cell time — never from RNG state shared across cells — so a
//    cell's result does not depend on which cells ran before or beside
//    it.
//  * Nested parallel_for calls inside a cell (bulk load, oracle) run
//    inline on the cell's worker with unchanged chunk boundaries, so
//    intra-cell results are bit-identical at any LMK_THREADS.
//  * At most `resident_cap()` cells are resident (constructed, running,
//    not yet destroyed) at once, bounding peak memory to
//    cap × stack-size even at full paper scale. The cap is the pool
//    thread count (LMK_THREADS): one cell per pool thread.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace lmk {

/// Everything one sweep cell would have printed, in print order.
struct CellOutput {
  /// Free-form lines (e.g. "## scheme: N migrations"), emitted before
  /// any table rows, each followed by a newline.
  std::vector<std::string> lines;
  /// Rows appended to the bench's TablePrinter in declaration order.
  std::vector<std::vector<std::string>> rows;
};

/// Runs registered cells concurrently, collects outputs in declaration
/// order. A driver is single-use: add cells, run once.
class SweepDriver {
 public:
  using Cell = std::function<CellOutput()>;

  /// Register a cell. The callable must own (or share immutably) every
  /// input it touches and derive its seeds from its own config.
  void add_cell(Cell fn) { cells_.push_back(std::move(fn)); }

  /// Run every cell (bounded-concurrency, see resident_cap) and return
  /// the outputs in declaration order.
  [[nodiscard]] std::vector<CellOutput> run();

  /// run(), then print every cell's lines in declaration order followed
  /// by every cell's rows appended to `table` (the bench prints the
  /// table afterwards) — the exact emission order of the serial loop.
  void run_into(TablePrinter& table);

  [[nodiscard]] std::size_t cells() const { return cells_.size(); }

  /// Resident-cell cap this driver will run with: the pool width.
  [[nodiscard]] std::size_t resident_cap() const;

  /// Highest number of cells simultaneously resident during the last
  /// run() (<= resident_cap()).
  [[nodiscard]] std::size_t peak_resident() const { return peak_resident_; }

 private:
  std::vector<Cell> cells_;
  std::size_t peak_resident_ = 0;
};

}  // namespace lmk
