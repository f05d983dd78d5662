#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lmk {
namespace {

/// One fan-out of chunks over [0, n). Heap-allocated and shared with the
/// workers so a straggler waking after completion still reads valid
/// state.
struct Job {
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};   ///< next chunk to claim
  std::atomic<std::size_t> done{0};   ///< chunks completed
  std::mutex err_mu;
  std::exception_ptr error;
};

/// Set while a thread is executing chunks, so nested parallel_for calls
/// degrade to inline execution instead of deadlocking on the pool.
/// Never crosses threads and carries no cross-run state.
// lmk-lint: allow(mutable-global) per-thread nesting flag
thread_local bool g_in_job = false;

class Pool {
 public:
  explicit Pool(std::size_t threads) {
    // The calling thread always participates, so spawn threads - 1.
    for (std::size_t i = 1; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  [[nodiscard]] std::size_t threads() const { return workers_.size() + 1; }

  void run(const std::shared_ptr<Job>& job) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = job;
      ++epoch_;
    }
    cv_.notify_all();
    execute(*job);  // the caller works too
    // Wait for straggler chunks still running on workers.
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] {
      return job->done.load(std::memory_order_acquire) >= job->chunks;
    });
    job_ = nullptr;
  }

 private:
  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
        job = job_;
      }
      if (job) execute(*job);
    }
  }

  void execute(Job& job) {
    g_in_job = true;
    for (;;) {
      std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.chunks) break;
      std::size_t begin = c * job.grain;
      std::size_t end = std::min(job.n, begin + job.grain);
      try {
        (*job.fn)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lk(job.err_mu);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          job.chunks) {
        std::lock_guard<std::mutex> lk(mu_);
        done_cv_.notify_all();
      }
    }
    g_in_job = false;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

std::size_t env_threads() {
  const char* v = std::getenv("LMK_THREADS");
  if (v != nullptr && *v != '\0') {
    long n = std::strtol(v, nullptr, 10);
    if (n >= 1) return static_cast<std::size_t>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Protects the process-wide worker pool; holds no experiment state.
// lmk-lint: allow(mutable-global) pool singleton guard
std::mutex g_pool_mu;
/// The process-wide worker pool itself (lazily sized); work
/// distribution is chunk-deterministic by contract.
// lmk-lint: allow(mutable-global) pool singleton
std::unique_ptr<Pool> g_pool;
/// set_threads override (0 = auto); written only by test/bench
/// harnesses between parallel regions.
// lmk-lint: allow(mutable-global) thread-count override
std::size_t g_override = 0;

Pool& pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  std::size_t want = g_override != 0 ? g_override : env_threads();
  if (!g_pool || g_pool->threads() != want) {
    g_pool.reset();  // join the old workers before replacing
    g_pool = std::make_unique<Pool>(want);
  }
  return *g_pool;
}

}  // namespace

std::size_t thread_count() {
  return g_override != 0 ? g_override : env_threads();
}

void set_threads(std::size_t n) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_override = n;
}

void parallel_tasks(std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::function<void(std::size_t, std::size_t)> wrapper =
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      };
  detail::run_chunks(n, /*grain=*/1, wrapper);
}

namespace detail {

std::size_t default_grain(std::size_t n) {
  // A fixed target chunk count keeps boundaries a pure function of n
  // while leaving enough chunks for any plausible thread count to
  // load-balance; a floor keeps tiny work items from over-fragmenting.
  constexpr std::size_t kTargetChunks = 256;
  constexpr std::size_t kMinGrain = 16;
  return std::max(kMinGrain, (n + kTargetChunks - 1) / kTargetChunks);
}

void run_chunks(std::size_t n, std::size_t grain,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  std::size_t chunks = (n + grain - 1) / grain;
  if (g_in_job || chunks <= 1 || thread_count() <= 1) {
    // Inline: single chunk, single-threaded config, or a nested call
    // from inside a pool worker. Same chunk boundaries, same results.
    for (std::size_t c = 0; c < chunks; ++c) {
      std::size_t begin = c * grain;
      fn(begin, std::min(n, begin + grain));
    }
    return;
  }
  auto job = std::make_shared<Job>();
  job->n = n;
  job->grain = grain;
  job->chunks = chunks;
  job->fn = &fn;
  pool().run(job);
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace detail
}  // namespace lmk
