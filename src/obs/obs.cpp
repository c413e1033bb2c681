#include "obs/obs.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace f3d::obs {

namespace {

bool env_tracing_requested() {
  const char* e = std::getenv("F3D_TRACE");
  return e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0;
}

}  // namespace

namespace detail {

std::atomic<bool> g_tracing{env_tracing_requested()};

int& thread_depth() {
  thread_local int depth = 0;
  return depth;
}

}  // namespace detail

void set_tracing(bool on) {
  detail::g_tracing.store(on, std::memory_order_relaxed);
}

bool trace_env_requested() {
  static const bool requested = env_tracing_requested();
  return requested;
}

std::string trace_env_path() {
  const char* e = std::getenv("F3D_TRACE_OUT");
  return e != nullptr && *e != '\0' ? std::string(e) : std::string("trace.json");
}

// --- Tracer ---------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_next_tracer_id{1};

// Thread-local cache of (tracer id -> buffer). Keyed by a process-unique
// id, never a pointer, so a destroyed tracer's entries can never be
// matched again (stale pointers are unreachable, not dangling-deref'd).
struct TlsEntry {
  std::uint64_t tracer_id;
  void* buffer;
};
thread_local std::vector<TlsEntry> tl_buffers;
}  // namespace

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

Tracer::Buffer* Tracer::local_buffer() {
  for (const TlsEntry& e : tl_buffers)
    if (e.tracer_id == id_) return static_cast<Buffer*>(e.buffer);
  auto owned = std::make_unique<Buffer>();
  Buffer* raw = owned.get();
  {
    std::lock_guard<std::mutex> lk(mu_);
    raw->tid = static_cast<int>(buffers_.size());
    buffers_.push_back(std::move(owned));
  }
  tl_buffers.push_back({id_, raw});
  return raw;
}

void Tracer::record(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns,
                    int depth) {
  Buffer* b = local_buffer();
  if (b->events.size() >= kMaxEventsPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b->events.push_back({name, b->tid, t0_ns, t1_ns, depth});
}

std::vector<SpanEvent> Tracer::drain() {
  std::vector<SpanEvent> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& b : buffers_) {
      out.insert(out.end(), b->events.begin(), b->events.end());
      b->events.clear();
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.depth < b.depth;
                   });
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& b : buffers_) b->events.clear();
}

// --- Registry -------------------------------------------------------------

Registry& Registry::global() {
  static Registry r;
  return r;
}

int Registry::thread_slot() {
  static std::atomic<int> next{0};
  thread_local int slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void Registry::count(const std::string& name, long long delta) {
  Shard& sh = my_shard();
  std::lock_guard<std::mutex> lk(sh.mu);
  sh.counters[name] += delta;
}

void Registry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(gauge_mu_);
  gauges_[name] = value;
}

long long Registry::counter(const std::string& name) const {
  long long total = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.counters.find(name);
    if (it != sh.counters.end()) total += it->second;
  }
  return total;
}

double Registry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lk(gauge_mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

Snapshot Registry::snapshot() const {
  Snapshot s;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    for (const auto& [k, v] : sh.counters) s.counters[k] += v;
  }
  std::lock_guard<std::mutex> lk(gauge_mu_);
  s.gauges = gauges_;
  return s;
}

void Registry::clear() {
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.counters.clear();
  }
  std::lock_guard<std::mutex> lk(gauge_mu_);
  gauges_.clear();
}

}  // namespace f3d::obs
