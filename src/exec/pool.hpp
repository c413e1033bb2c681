#pragma once
// f3d::exec — the shared-memory execution layer. A dependency-free C++20
// thread pool with persistent workers and statically chunked parallel_for,
// the substrate for node-level threading of the ψNKS hot path (the
// paper's §2.5 hybrid experiment, generalized): owner-computes edge
// kernels over contiguous vertex ranges, row-parallel SpMV, level-
// scheduled triangular solves, and the deterministic reductions of
// reduce.hpp all run on this pool.
//
// Determinism contract: parallel_for partitions [begin, end) into
// contiguous chunks whose boundaries depend only on the range and the
// participant count — never on scheduling or timing. Kernels built on it
// stay bit-identical for ANY thread count as long as each index's work is
// independent (disjoint writes, or exact ops like min/max); reductions
// additionally need the fixed-block tree of reduce.hpp. This is what
// preserves the resilience subsystem's byte-identical checkpoint/replay
// guarantee under threading.

#include <cstdint>
#include <functional>

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace f3d::guard {
class SolveGuard;
}

namespace f3d::exec {

class ThreadPool {
public:
  /// Spawns num_threads - 1 persistent workers (the caller participates).
  explicit ThreadPool(int num_threads = 1);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Join all workers and respawn with the new count. Must not be called
  /// from inside a parallel_for body.
  void resize(int num_threads);
  [[nodiscard]] int num_threads() const { return nt_; }

  /// Run body(lo, hi) over a static contiguous chunking of [begin, end).
  /// The participant count is min(num_threads, ceil(n / grain)), so short
  /// ranges run inline with zero synchronization. Calls from inside a
  /// worker (nested parallelism) run the whole range inline. Exceptions
  /// thrown by the body are rethrown on the calling thread.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>& body,
                    std::int64_t grain = 1024);

private:
  void spawn(int num_threads);
  void shutdown();
  void worker_loop(int id);
  void run_chunk(int id);

  int nt_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;

  // Published job (valid while a parallel_for is in flight). job_guard_
  // is the dispatching thread's active SolveGuard, installed thread-
  // locally on each worker for the duration of its chunk so cancellation
  // polls inside the body observe the driver's guard (guard/guard.hpp).
  const std::function<void(std::int64_t, std::int64_t)>* body_ = nullptr;
  std::int64_t begin_ = 0, end_ = 0;
  int participants_ = 0;
  guard::SolveGuard* job_guard_ = nullptr;
  std::exception_ptr error_;
};

/// The process-wide pool every kernel uses. Starts with 1 thread (serial)
/// unless the F3D_THREADS environment variable requests more.
ThreadPool& pool();

/// Resize the global pool.
void set_threads(int num_threads);
[[nodiscard]] int num_threads();

/// RAII thread-count override for benches and tests.
class ThreadScope {
public:
  explicit ThreadScope(int num_threads) : prev_(num_threads_saved()) {
    set_threads(num_threads);
  }
  ~ThreadScope() { set_threads(prev_); }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

private:
  static int num_threads_saved() { return num_threads(); }
  int prev_;
};

}  // namespace f3d::exec
