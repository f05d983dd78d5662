#include "eval/sweep.hpp"

#include <atomic>
#include <cstdio>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace lmk {

std::size_t SweepDriver::resident_cap() const { return thread_count(); }

std::vector<CellOutput> SweepDriver::run() {
  std::vector<CellOutput> outputs(cells_.size());
  std::atomic<std::size_t> resident{0};
  std::atomic<std::size_t> peak{0};
  parallel_tasks(
      cells_.size(),
      [&](std::size_t i) {
        std::size_t now = resident.fetch_add(1, std::memory_order_acq_rel) + 1;
        std::size_t seen = peak.load(std::memory_order_relaxed);
        while (now > seen &&
               !peak.compare_exchange_weak(seen, now,
                                           std::memory_order_relaxed)) {
        }
        outputs[i] = cells_[i]();
        resident.fetch_sub(1, std::memory_order_acq_rel);
      });
  peak_resident_ = peak.load(std::memory_order_relaxed);
  LMK_CHECK(peak_resident_ <= resident_cap());
  return outputs;
}

void SweepDriver::run_into(TablePrinter& table) {
  std::vector<CellOutput> outputs = run();
  for (const CellOutput& out : outputs) {
    for (const std::string& line : out.lines) {
      std::printf("%s\n", line.c_str());
    }
  }
  for (CellOutput& out : outputs) {
    for (auto& row : out.rows) table.add_row(std::move(row));
  }
}

}  // namespace lmk
