#include "eval/ground_truth.hpp"

#include <unordered_set>

#include "common/rng.hpp"

namespace lmk {

std::vector<std::size_t> sample_query_indices(std::size_t n_queries,
                                              std::size_t sample,
                                              std::uint64_t seed) {
  LMK_CHECK(sample <= n_queries);
  Rng rng(seed);
  std::vector<std::size_t> out = rng.sample_indices(n_queries, sample);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> range_bruteforce(
    std::size_t n, const std::function<double(std::size_t)>& distance_to,
    double radius) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (distance_to(i) <= radius) out.push_back(static_cast<std::uint64_t>(i));
  }
  return out;
}

double recall(std::span<const std::uint64_t> truth,
              std::span<const std::uint64_t> retrieved) {
  if (truth.empty()) return 1.0;
  std::unordered_set<std::uint64_t> got(retrieved.begin(), retrieved.end());
  std::size_t hit = 0;
  for (std::uint64_t t : truth) {
    if (got.count(t) != 0) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

}  // namespace lmk
