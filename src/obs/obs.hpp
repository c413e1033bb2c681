#pragma once
// f3d::obs — the unified observability layer of the ψNKS stack: an RAII
// hierarchical span tracer and a thread-safe counter/gauge registry.
// Every other instrumentation surface in the repo (BENCH_*.json
// artifacts, the recovery log's tallies) drains into this layer. See
// docs/OBSERVABILITY.md.
//
// Design constraints, in order:
//  * Dependency-free. obs sits BELOW f3d_common (whose table sink renders
//    obs snapshots), so it may not include any other f3d header.
//  * Near-zero cost when disabled: a Span construction is one relaxed
//    atomic load and nothing else — no clock read, no allocation. The
//    F3D_OBS_SPAN macro additionally compiles to nothing when
//    F3D_OBS_DISABLE is defined.
//  * Lock-free hot path when enabled: spans append to a per-thread
//    buffer owned by the tracer; the only lock is taken once per
//    (thread, tracer) pair at first use, and again at flush when the
//    buffers are merged.
//
// Span names must be string literals (or otherwise outlive the tracer) —
// the tracer stores the pointer, never copies the text.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace f3d::obs {

namespace detail {
extern std::atomic<bool> g_tracing;
/// Per-thread span nesting depth (shared across tracers; in practice a
/// thread records into one tracer at a time).
int& thread_depth();
}  // namespace detail

/// Runtime master switch for span recording. Initialized from the
/// F3D_TRACE environment variable (unset/"0" = off).
inline bool tracing_enabled() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}
void set_tracing(bool on);

/// True when the F3D_TRACE environment variable requested tracing at
/// process start (flush_env_trace only writes in that case, so tests
/// toggling set_tracing don't spray trace files).
bool trace_env_requested();
/// F3D_TRACE_OUT, defaulting to "trace.json".
std::string trace_env_path();

/// One completed span: [t0, t1) nanoseconds since the tracer's epoch, on
/// tracer-thread `tid`, at per-thread nesting `depth` (0 = outermost).
struct SpanEvent {
  const char* name = nullptr;
  int tid = 0;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  int depth = 0;
  [[nodiscard]] double duration_us() const {
    return static_cast<double>(t1_ns - t0_ns) * 1e-3;
  }
};

/// Collects SpanEvents into per-thread buffers; merge happens only at
/// drain(). Thread ids are assigned in first-record order (the main
/// thread of a solve is tid 0 in practice).
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer every Span uses by default.
  static Tracer& global();

  /// Monotonic nanoseconds since this tracer's construction.
  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Append one completed span to the calling thread's buffer (lock-free
  /// after the thread's first record). Events beyond the per-thread cap
  /// are dropped and counted.
  void record(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns,
              int depth);

  /// Merge every thread's buffer, clear them, and return the events
  /// sorted by (t0, tid, depth): deterministic for a fixed event set.
  std::vector<SpanEvent> drain();
  /// Discard all buffered events.
  void clear();
  /// Events dropped by the per-thread buffer cap since construction.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Per-thread buffer cap; generous (a span is 40 bytes) but bounded so
  /// a pathological loop with tracing on cannot eat the machine.
  static constexpr std::size_t kMaxEventsPerThread = 1u << 22;

 private:
  struct Buffer {
    int tid = 0;
    std::vector<SpanEvent> events;
  };
  Buffer* local_buffer();

  std::uint64_t id_;  ///< process-unique, keys the thread-local cache
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards buffers_ registration and merge
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII hierarchical span. When tracing is disabled construction and
/// destruction are a single relaxed load each — no clock, no allocation.
class Span {
 public:
  Span(Tracer& tracer, const char* name) {
    if (!tracing_enabled()) return;
    tracer_ = &tracer;
    name_ = name;
    depth_ = detail::thread_depth()++;
    t0_ = tracer.now_ns();
  }
  explicit Span(const char* name) : Span(Tracer::global(), name) {}
  ~Span() {
    if (tracer_ == nullptr) return;
    const std::uint64_t t1 = tracer_->now_ns();
    --detail::thread_depth();
    tracer_->record(name_, t0_, t1, depth_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  int depth_ = 0;
};

// Compile-time no-op gate: define F3D_OBS_DISABLE to strip every
// F3D_OBS_SPAN site from the binary.
#define F3D_OBS_CAT2(a, b) a##b
#define F3D_OBS_CAT(a, b) F3D_OBS_CAT2(a, b)
#if defined(F3D_OBS_DISABLE)
#define F3D_OBS_SPAN(name) \
  do {                     \
  } while (0)
#else
#define F3D_OBS_SPAN(name) \
  ::f3d::obs::Span F3D_OBS_CAT(f3d_obs_span_, __LINE__)(name)
#endif

/// Merged view of a Registry at one instant.
struct Snapshot {
  std::map<std::string, long long> counters;
  std::map<std::string, double> gauges;
  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty();
  }
};

/// Thread-safe named counters (exact integers) and gauges
/// (last-write-wins). Counters accumulate into per-thread-striped shards
/// so concurrent increments from pool workers never contend on one lock;
/// reads merge the shards. Counter totals are exact for any thread count
/// (integer addition commutes). Time is measured by spans, not here.
class Registry {
 public:
  Registry() = default;

  /// The process-wide registry the instrumented layers tally into.
  static Registry& global();

  void count(const std::string& name, long long delta = 1);
  void set_gauge(const std::string& name, double value);

  [[nodiscard]] long long counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;

  [[nodiscard]] Snapshot snapshot() const;
  void clear();

 private:
  static constexpr int kShards = 16;  // power of two
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, long long> counters;
  };
  static int thread_slot();
  Shard& my_shard() { return shards_[thread_slot() & (kShards - 1)]; }

  Shard shards_[kShards];
  mutable std::mutex gauge_mu_;
  std::map<std::string, double> gauges_;
};

}  // namespace f3d::obs
