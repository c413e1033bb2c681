#pragma once
// fleet::Service — the resident multi-scenario serving layer: accept a
// BatchSpec, share the immutable per-mesh-class artifacts (mesh,
// ordering, dual metrics / stencil, partition) across scenarios, and
// drain the scenario queue with fault isolation:
//
//  * journaled exactly-once commits — every terminal decision is a
//    CRC-framed frame in the scenario journal (fleet/journal.hpp); a
//    kill-and-restart resumes exactly the pending set;
//  * a retry/backoff ladder with poison quarantine — a failed scenario
//    is retried under progressively safer knob configurations (attempt
//    1 drops the scenario's own knobs and any tuning-DB entry, attempt
//    2 adds conservative solver settings); after max_attempts strikes
//    it is quarantined with a structured post-mortem rather than being
//    allowed to wedge the batch;
//  * overload control — admission by aggregate work budget processed in
//    scheduling order (priority desc, id asc), load-shedding verdicts
//    for scenarios that do not fit, and supersede-cancellation that
//    releases a cancelled scenario's admitted budget immediately so a
//    later admission sees the headroom (fleet.budget_reclaimed_units).
//
// Concurrency model: scenario workers are plain threads owned by the
// service; each solve runs single-threaded on its worker (the global
// exec pool must be 1 thread when workers > 1 — enforced — because the
// pool has a single job slot and does not accept concurrent external
// dispatch). Guards are thread-local, so concurrent guarded solves are
// isolated. Determinism: for a fixed (spec, seed) every scenario's
// solve is bit-identical regardless of worker count or interleaving,
// because scenarios never share mutable state — only the immutable
// artifacts.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/journal.hpp"
#include "fleet/spec.hpp"
#include "obs/json.hpp"

namespace f3d::fleet {

/// How one scenario left the fleet.
enum class ScenarioStatus : int {
  kCommitted = 0,   ///< solved, result durable in the journal
  kQuarantined,     ///< declared poison after the retry ladder
  kShed,            ///< rejected by admission control
  kCancelled,       ///< superseded while still queued
  kPending,         ///< run stopped (kill hook) before a decision
};
[[nodiscard]] const char* scenario_status_name(ScenarioStatus s);

struct ScenarioResult {
  int id = -1;
  std::string name;
  ScenarioStatus status = ScenarioStatus::kPending;
  int attempts = 0;            ///< solve attempts consumed (this run + prior)
  std::string verdict;         ///< guard verdict name of the last attempt
  long long work_units = 0;    ///< last attempt's deterministic work
  double residual_drop_orders = 0;
  std::uint32_t solution_crc = 0;  ///< CRC-32 of the committed state bytes
  double wall_s = 0;           ///< wall time across this run's attempts
  bool replayed = false;       ///< decision came from the journal, not a solve
  std::string detail;          ///< post-mortem / shed / cancel reason
};

struct BatchResult {
  std::vector<ScenarioResult> scenarios;  ///< index == scenario id
  int committed = 0;
  int quarantined = 0;
  int shed = 0;
  int cancelled = 0;
  int pending = 0;          ///< nonzero only after a kill-hook stop
  int retries = 0;          ///< extra attempts beyond the first, this run
  bool killed = false;      ///< the kill_after_commits hook fired
  long long budget_reclaimed_units = 0;
  double wall_s = 0;

  [[nodiscard]] obs::Json to_json() const;  ///< f3d-fleet-dash-v1 document
};

struct FleetOptions {
  int workers = 1;             ///< scenario worker threads
  std::string journal_path;    ///< empty = run without a journal
  bool resume = false;         ///< replay journal_path and continue it
  int max_attempts = 3;        ///< retry-ladder strikes before quarantine
  double backoff_base_ms = 0;  ///< retry backoff base (0 = no backoff sleep)
  /// Aggregate admission capacity in guard work units (0 = unlimited).
  /// Scenarios whose work_units do not fit the remaining capacity are
  /// shed, in scheduling order.
  long long admission_capacity_units = 0;
  std::string tune_db_path;    ///< consult f3d-tunedb-v1 on attempt 0
  /// Test hook: stop the whole service abruptly after this many commits
  /// (0 = off). Emulates a mid-batch crash — the journal is left exactly
  /// as written, undecided scenarios stay pending.
  int kill_after_commits = 0;
};

class Service {
public:
  explicit Service(FleetOptions opts);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Serve one batch to completion (or to the kill hook). Builds or
  /// resumes the journal, runs admission, drains the queue with the
  /// configured workers, and returns the per-scenario outcomes.
  BatchResult serve(const BatchSpec& spec);

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace f3d::fleet
