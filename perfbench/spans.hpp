#pragma once
// Benchmark-side span recorder. The traced run brackets every call the
// harness makes into a library module (mesh generation, the residual the
// ψNKS solver asks for, a preconditioner apply, ...) with a Span; nothing
// inside src/ is instrumented. Each span keeps its name, start, end, the
// id of the span open around it (its parent, -1 at the root) and belongs
// to one run id. Spans stay in memory and are written once, when the run
// ends; run.py turns them into per-layer busy and self times.
//
// Single-threaded by design: spans are opened and closed on the thread
// that drives the workload (ptc_solve calls the problem on its
// calling thread; exec pool workers and fleet workers are never traced
// from here). A disabled log records nothing and reads no clock.

#include <chrono>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< string literal
  int id = 0;
  int parent = -1;
  double t0_s = 0;  ///< seconds since the log's epoch
  double t1_s = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one; returns its id (-1 when
  /// the log is disabled).
  int open(const char* name);
  /// Close span `id`, which must be the innermost open span.
  void close(int id);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// {"run": run_id, "spans": [{name, id, parent, t0, t1, run}, ...]}.
  [[nodiscard]] f3d::obs::Json to_json(const std::string& run_id) const;

 private:
  [[nodiscard]] double now_s() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  ///< ids of the open spans, innermost last
};

/// RAII span on a SpanLog.
class Span {
 public:
  Span(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Span() { log_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
