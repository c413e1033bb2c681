#include "fleet/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "cfd/problem.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "exec/pool.hpp"
#include "mesh/generator.hpp"
#include "mesh/graph.hpp"
#include "mesh/ordering.hpp"
#include "obs/obs.hpp"
#include "partition/partition.hpp"
#include "solver/newton.hpp"
#include "tune/db.hpp"
#include "tune/registry.hpp"

namespace f3d::fleet {

const char* scenario_status_name(ScenarioStatus s) {
  switch (s) {
    case ScenarioStatus::kCommitted: return "committed";
    case ScenarioStatus::kQuarantined: return "quarantined";
    case ScenarioStatus::kShed: return "shed";
    case ScenarioStatus::kCancelled: return "cancelled";
    case ScenarioStatus::kPending: return "pending";
  }
  return "?";
}

namespace {

/// Fixed subdomain count of the shared partition artifact. A scenario
/// knob cannot change it: the partition is computed once per mesh class
/// and shared immutably, which is the whole point of the fleet.
constexpr int kSubdomains = 2;

/// Immutable per-mesh-class artifacts, computed once and shared by every
/// scenario of that class. The mesh lives behind a unique_ptr so the
/// references EulerDiscretization borrows stay stable in the map.
struct Artifact {
  std::unique_ptr<mesh::UnstructuredMesh> mesh;
  std::shared_ptr<const cfd::SharedGeometry> geometry;
  part::Partition partition;
};

Artifact build_artifact(int vertices, unsigned seed) {
  F3D_OBS_SPAN("fleet.artifact");
  Artifact art;
  art.mesh = std::make_unique<mesh::UnstructuredMesh>(
      mesh::generate_wing_mesh_with_size(vertices));
  mesh::shuffle_mesh(*art.mesh, seed);
  mesh::apply_best_ordering(*art.mesh);
  art.geometry = cfd::SharedGeometry::compute(*art.mesh);
  art.partition = part::kway_grow(
      mesh::build_graph(art.mesh->num_vertices(), art.mesh->edges()),
      kSubdomains, seed);
  return art;
}

/// Scheduling order: priority descending, then id ascending. Admission,
/// queue drain, and the supersede pass all use this one order, so every
/// overload decision is deterministic for a fixed spec.
std::vector<int> schedule_order(const BatchSpec& spec) {
  std::vector<int> order(spec.scenarios.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (spec.scenarios[a].priority != spec.scenarios[b].priority)
      return spec.scenarios[a].priority > spec.scenarios[b].priority;
    return a < b;
  });
  return order;
}

/// Admission charge for a scenario with work_units == 0 (an unbounded
/// solve still occupies the fleet).
constexpr long long kDefaultAdmitUnits = 50000;

long long admit_units(const ScenarioSpec& sc) {
  return sc.work_units > 0 ? sc.work_units : kDefaultAdmitUnits;
}

constexpr unsigned kBackoffSeed = 1;  ///< jitter stream seed

/// Deterministic backoff jitter in [0.5, 1.5): one draw per
/// (scenario, attempt), independent of timing and worker identity.
double backoff_jitter(int id, int attempt) {
  Rng rng(kBackoffSeed ^ (static_cast<unsigned>(id) * 2654435761u) ^
          (static_cast<unsigned>(attempt) << 20));
  return 0.5 + rng.uniform();
}

std::string commit_detail(guard::SolveVerdict verdict, std::uint32_t crc,
                          long long units, double orders) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "verdict=%s crc=%08x units=%lld orders=%.2f",
                guard::verdict_name(verdict), crc, units, orders);
  return buf;
}

}  // namespace

obs::Json BatchResult::to_json() const {
  obs::Json doc = obs::Json::object();
  doc.set("schema", "f3d-fleet-dash-v1")
      .set("committed", static_cast<long long>(committed))
      .set("quarantined", static_cast<long long>(quarantined))
      .set("shed", static_cast<long long>(shed))
      .set("cancelled", static_cast<long long>(cancelled))
      .set("pending", static_cast<long long>(pending))
      .set("retries", static_cast<long long>(retries))
      .set("killed", killed)
      .set("budget_reclaimed_units", budget_reclaimed_units)
      .set("wall_s", wall_s);
  obs::Json arr = obs::Json::array();
  for (const auto& sc : scenarios) {
    obs::Json row = obs::Json::object();
    row.set("id", static_cast<long long>(sc.id))
        .set("name", sc.name)
        .set("status", scenario_status_name(sc.status))
        .set("attempts", static_cast<long long>(sc.attempts))
        .set("verdict", sc.verdict)
        .set("work_units", sc.work_units)
        .set("residual_drop_orders", sc.residual_drop_orders)
        .set("solution_crc", static_cast<long long>(sc.solution_crc))
        .set("wall_s", sc.wall_s)
        .set("replayed", sc.replayed)
        .set("detail", sc.detail);
    arr.push(std::move(row));
  }
  doc.set("scenarios", std::move(arr));
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  obs::Json counters = obs::Json::object();
  for (const auto& [name, value] : snap.counters)
    if (name.rfind("fleet.", 0) == 0) counters.set(name, value);
  doc.set("counters", std::move(counters));
  return doc;
}

struct Service::Impl {
  FleetOptions opts;

  const BatchSpec* spec = nullptr;
  std::map<int, Artifact> artifacts;  ///< vertex class -> shared artifacts
  unsigned artifact_seed = 0;         ///< seed the cache was built with
  tune::Db db;
  bool db_loaded = false;

  std::optional<Journal> journal;
  JournalState replayed;   ///< prior-run decisions (resume only)
  bool resumed = false;

  std::mutex mu;           ///< queue + result aggregation
  std::vector<int> queue;  ///< admitted ids, scheduling order; next_ indexes
  std::size_t next = 0;
  BatchResult result;
  std::atomic<bool> stop{false};
  std::atomic<int> commits{0};

  // ---- per-attempt solve --------------------------------------------------

  struct Attempt {
    bool success = false;
    guard::SolveVerdict verdict = guard::SolveVerdict::kMaxIters;
    long long work_units = 0;
    double drop_orders = 0;
    std::uint32_t crc = 0;
    std::string detail;
  };

  /// Knob configuration of a ladder rung. Rung 0 trusts the scenario:
  /// tuning-DB entry (filtered to the knobs this solve binds) plus the
  /// scenario's own overrides. Rung 1 drops both — safe compiled
  /// defaults, which clears "fragile" scenarios whose own knobs are the
  /// problem. Rung 2 adds conservative settings: timid CFL, more ILU
  /// fill, longer restart — slower, harder to break.
  void configure_rung(tune::Registry& reg, const ScenarioSpec& sc,
                      int attempt, int vertices, std::string* rejected) {
    if (attempt == 0) {
      if (db_loaded && db.ok()) {
        const tune::DbKey key{tune::mesh_class_of(vertices), simd::isa_name(),
                              "double"};
        if (const tune::DbEntry* entry = db.lookup(key)) {
          obs::Json filtered = obs::Json::object();
          for (const auto& [name, value] : entry->config.members)
            if (reg.find(name) != nullptr) filtered.set(name, value);
          try {
            reg.from_json(filtered);
            obs::Registry::global().count("fleet.tunedb_applied");
          } catch (const Error&) {
            // A stale DB never poisons a solve: fall through to defaults.
            obs::Registry::global().count("fleet.tunedb_rejected");
          }
        }
      }
      if (sc.knobs.is_object()) {
        try {
          reg.from_json(sc.knobs);
        } catch (const Error& e) {
          *rejected = e.what();
        }
      }
    } else if (attempt >= 2) {
      reg.set_number("ptc.cfl0", 2.0);
      reg.set_number("schwarz.fill_level", 2);
      reg.set_number("gmres.restart", 60);
    }
  }

  Attempt run_attempt(const ScenarioSpec& sc, int attempt) {
    F3D_OBS_SPAN("fleet.attempt");
    const Artifact& art = artifacts.at(sc.vertices);

    cfd::FlowConfig cfg;
    cfg.model = cfd::Model::kCompressible;
    cfg.order = 1;
    cfg.mach = sc.mach;
    cfg.alpha_deg = sc.alpha_deg;

    solver::PtcOptions o;
    o.rtol = sc.rtol;
    o.max_steps = sc.max_steps;
    o.recovery.enabled = true;
    o.guard.capture_faults = true;
    o.guard.budget.max_work_units = sc.work_units;
    o.guard.budget.wall_deadline_s = sc.wall_deadline_s;

    tune::Registry reg;
    o.bind(reg);
    Attempt out;
    std::string rejected;
    configure_rung(reg, sc, attempt, sc.vertices, &rejected);
    if (!rejected.empty()) {
      // A knob set the registry refuses is a failed attempt, not a
      // solve: rung 1 retries without it.
      out.verdict = guard::SolveVerdict::kFaultUnrecoverable;
      out.detail = "rejected knobs: " + rejected;
      return out;
    }
    // The shared partition is an artifact, not a knob: pin it after knob
    // application (ptc.num_subdomains has no effect under the fleet).
    o.num_subdomains = art.partition.nparts;
    o.partition = art.partition;

    cfd::EulerDiscretization disc(*art.mesh, cfg, art.geometry);
    cfd::EulerProblem prob(disc, -1.0);
    std::vector<double> x = prob.initial_state();
    try {
      const solver::PtcResult res = solver::ptc_solve(prob, x, o);
      out.verdict = res.verdict;
      out.work_units = res.work_units;
      out.drop_orders = res.residual_drop_orders;
      out.success = res.converged &&
                    res.verdict == guard::SolveVerdict::kConverged;
      if (out.success)
        out.crc = crc32(x.data(), x.size() * sizeof(double));
      else
        out.detail = std::string("verdict=") + guard::verdict_name(res.verdict);
    } catch (const Error& e) {
      out.verdict = guard::SolveVerdict::kFaultUnrecoverable;
      out.detail = e.what();
    }
    return out;
  }

  // ---- scenario lifecycle -------------------------------------------------

  void journal_append(RecordType type, int id, int attempt,
                      const std::string& detail) {
    if (!journal.has_value()) return;
    JournalRecord rec;
    rec.type = type;
    rec.scenario_id = id;
    rec.attempt = attempt;
    rec.detail = detail;
    journal->append(rec);
    obs::Registry::global().count("fleet.journal_frames");
  }

  void run_scenario(const ScenarioSpec& sc) {
    F3D_OBS_SPAN("fleet.scenario");
    Timer timer;
    ScenarioResult& slot = result.scenarios[static_cast<std::size_t>(sc.id)];
    int attempt = 0;
    if (auto it = replayed.attempts_started.find(sc.id);
        it != replayed.attempts_started.end())
      attempt = std::min(it->second, opts.max_attempts - 1);

    std::string last_detail;
    const int first_attempt = attempt;
    int extra_attempts = 0;
    for (; attempt < opts.max_attempts; ++attempt) {
      journal_append(RecordType::kStart, sc.id, attempt, {});
      if (attempt > first_attempt) {
        ++extra_attempts;
        obs::Registry::global().count("fleet.retries");
        if (opts.backoff_base_ms > 0) {
          const double ms = opts.backoff_base_ms *
                            static_cast<double>(1 << attempt) *
                            backoff_jitter(sc.id, attempt);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(ms));
        }
      }
      if (sc.delay_ms > 0)  // injected straggle (fault storms)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sc.delay_ms));

      const Attempt a = run_attempt(sc, attempt);
      last_detail = a.detail;
      std::lock_guard<std::mutex> lk(mu);
      slot.attempts = attempt + 1;
      slot.verdict = guard::verdict_name(a.verdict);
      slot.work_units = a.work_units;
      slot.residual_drop_orders = a.drop_orders;
      if (a.success) {
        slot.status = ScenarioStatus::kCommitted;
        slot.solution_crc = a.crc;
        slot.wall_s = timer.seconds();
        journal_append(RecordType::kCommit, sc.id, attempt,
                       commit_detail(a.verdict, a.crc, a.work_units,
                                     a.drop_orders));
        ++result.committed;
        result.retries += extra_attempts;
        obs::Registry::global().count("fleet.committed");
        const int done = commits.fetch_add(1) + 1;
        if (opts.kill_after_commits > 0 && done >= opts.kill_after_commits) {
          stop.store(true);
          result.killed = true;
        }
        return;
      }
    }

    // Strikes exhausted: quarantine with a structured post-mortem so the
    // operator can triage without re-running anything.
    std::lock_guard<std::mutex> lk(mu);
    result.retries += extra_attempts;
    slot.status = ScenarioStatus::kQuarantined;
    slot.wall_s = timer.seconds();
    slot.detail = "poison after " + std::to_string(opts.max_attempts) +
                  " attempts; last: " + last_detail;
    journal_append(RecordType::kQuarantine, sc.id, opts.max_attempts - 1,
                   slot.detail);
    ++result.quarantined;
    obs::Registry::global().count("fleet.quarantined");
  }

  void worker_loop() {
    for (;;) {
      int id;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (stop.load() || next >= queue.size()) return;
        id = queue[next++];
      }
      run_scenario(spec->scenarios[static_cast<std::size_t>(id)]);
    }
  }
};

Service::Service(FleetOptions opts) : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(opts);
  F3D_CHECK_MSG(impl_->opts.workers >= 1, "fleet needs at least one worker");
  F3D_CHECK_MSG(impl_->opts.max_attempts >= 1,
                "fleet needs at least one attempt");
}

Service::~Service() = default;

BatchResult Service::serve(const BatchSpec& spec) {
  F3D_OBS_SPAN("fleet.serve");
  Impl& im = *impl_;
  // The exec pool has one job slot; concurrent scenario solves would
  // race on it, so multi-worker fleets require single-threaded solves.
  F3D_CHECK_MSG(im.opts.workers == 1 || exec::num_threads() == 1,
                "fleet workers > 1 requires a 1-thread exec pool");
  Timer timer;
  auto& obsr = obs::Registry::global();

  im.spec = &spec;
  im.result = BatchResult{};
  im.result.scenarios.resize(spec.scenarios.size());
  for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
    im.result.scenarios[i].id = static_cast<int>(i);
    im.result.scenarios[i].name = spec.scenarios[i].name;
  }
  im.queue.clear();
  im.next = 0;
  im.stop.store(false);
  im.commits.store(0);
  im.replayed = JournalState{};

  if (!im.opts.tune_db_path.empty()) {
    im.db = tune::Db::load(im.opts.tune_db_path);
    im.db_loaded = true;
  }

  // ---- journal open / resume ----------------------------------------------
  const std::uint32_t hash = spec.content_hash();
  if (!im.opts.journal_path.empty()) {
    if (im.opts.resume) {
      im.replayed = Journal::replay(im.opts.journal_path);
      if (im.replayed.batch_hash != hash)
        throw Error("fleet: journal " + im.opts.journal_path +
                    " belongs to a different batch spec");
      im.journal.emplace(Journal::append_to(im.opts.journal_path, hash));
      im.resumed = true;
      obsr.count("fleet.resumed_pending",
                 static_cast<long long>(
                     im.replayed.pending(static_cast<int>(spec.scenarios.size()))
                         .size()));
    } else {
      im.journal.emplace(Journal::create(im.opts.journal_path, hash, spec.name));
    }
  }

  // Prior-run terminal decisions become replayed results, never re-runs —
  // the exactly-once half of the journal contract.
  for (const int id : im.replayed.committed) {
    auto& slot = im.result.scenarios[static_cast<std::size_t>(id)];
    slot.status = ScenarioStatus::kCommitted;
    slot.replayed = true;
    if (auto it = im.replayed.terminal_detail.find(id);
        it != im.replayed.terminal_detail.end()) {
      slot.detail = it->second;
      unsigned crc = 0;
      if (std::sscanf(it->second.c_str(), "verdict=%*s crc=%x", &crc) == 1)
        slot.solution_crc = crc;
    }
    ++im.result.committed;
  }
  auto replay_terminal = [&](const std::set<int>& ids, ScenarioStatus status,
                             int* tally) {
    for (const int id : ids) {
      auto& slot = im.result.scenarios[static_cast<std::size_t>(id)];
      slot.status = status;
      slot.replayed = true;
      if (auto it = im.replayed.terminal_detail.find(id);
          it != im.replayed.terminal_detail.end())
        slot.detail = it->second;
      ++*tally;
    }
  };
  replay_terminal(im.replayed.quarantined, ScenarioStatus::kQuarantined,
                  &im.result.quarantined);
  replay_terminal(im.replayed.shed, ScenarioStatus::kShed, &im.result.shed);
  replay_terminal(im.replayed.cancelled, ScenarioStatus::kCancelled,
                  &im.result.cancelled);

  // ---- shared artifacts ---------------------------------------------------
  // The cache survives across batches (the service is resident), but only
  // for one mesh-shuffle seed: a different seed is a different mesh.
  if (!im.artifacts.empty() && im.artifact_seed != spec.seed)
    im.artifacts.clear();
  im.artifact_seed = spec.seed;
  for (const auto& sc : spec.scenarios) {
    if (im.replayed.is_terminal(sc.id)) continue;
    if (im.artifacts.find(sc.vertices) == im.artifacts.end()) {
      im.artifacts.emplace(sc.vertices, build_artifact(sc.vertices, spec.seed));
      obsr.count("fleet.artifacts_built");
    } else {
      obsr.count("fleet.artifacts_shared");
    }
  }

  // ---- supersede + admission (one pass, scheduling order) -----------------
  // Processing order IS the decision order: when a scenario carrying a
  // supersede directive is reached, its target — necessarily still
  // queued, since no worker has started — is cancelled on the spot, and
  // if the target had already been admitted its work budget is released
  // immediately, so every later admission in this same pass sees the
  // reclaimed headroom (the fleet.budget_reclaimed_units contract).
  const std::vector<int> order = schedule_order(spec);
  std::set<int> cancelled_ids;
  long long used_units = 0;
  std::map<int, long long> admitted_units;
  auto cancel_queued = [&](int id, const std::string& why) {
    auto& slot = im.result.scenarios[static_cast<std::size_t>(id)];
    if (auto it = admitted_units.find(id); it != admitted_units.end()) {
      used_units -= it->second;
      im.result.budget_reclaimed_units += it->second;
      obsr.count("fleet.budget_reclaimed_units", it->second);
      admitted_units.erase(it);
      im.queue.erase(std::remove(im.queue.begin(), im.queue.end(), id),
                     im.queue.end());
    }
    slot.status = ScenarioStatus::kCancelled;
    slot.detail = why;
    im.journal_append(RecordType::kCancel, id, 0, why);
    ++im.result.cancelled;
    obsr.count("fleet.cancelled");
  };
  for (const int id : order) {
    const ScenarioSpec& sc = spec.scenarios[static_cast<std::size_t>(id)];
    if (im.replayed.is_terminal(id) || cancelled_ids.count(id) != 0) continue;
    auto& slot = im.result.scenarios[static_cast<std::size_t>(id)];
    if (sc.supersedes >= 0 && !im.replayed.is_terminal(sc.supersedes) &&
        cancelled_ids.insert(sc.supersedes).second)
      cancel_queued(sc.supersedes, "superseded by scenario " +
                                       std::to_string(id) + " while queued");
    const long long units = admit_units(sc);
    if (im.opts.admission_capacity_units > 0 &&
        used_units + units > im.opts.admission_capacity_units) {
      slot.status = ScenarioStatus::kShed;
      slot.detail = "admission: " + std::to_string(units) + " units over " +
                    std::to_string(im.opts.admission_capacity_units -
                                   used_units) +
                    " remaining";
      im.journal_append(RecordType::kShed, id, 0, slot.detail);
      ++im.result.shed;
      obsr.count("fleet.shed");
      continue;
    }
    used_units += units;
    admitted_units[id] = units;
    im.queue.push_back(id);
    obsr.count("fleet.admitted");
  }

  // ---- drain --------------------------------------------------------------
  {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(im.opts.workers));
    for (int w = 0; w < im.opts.workers; ++w)
      workers.emplace_back([&im] { im.worker_loop(); });
    for (auto& w : workers) w.join();
  }

  for (auto& slot : im.result.scenarios)
    if (slot.status == ScenarioStatus::kPending &&
        !im.replayed.is_terminal(slot.id))
      ++im.result.pending;
  im.result.wall_s = timer.seconds();
  im.spec = nullptr;
  return im.result;
}

}  // namespace f3d::fleet
