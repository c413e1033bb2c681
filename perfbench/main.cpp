// perfbench — the measuring half of the repository benchmark. run.py
// builds this binary, runs it once per benchmark run, and turns the JSON
// document it writes into the end-to-end and per-layer metrics.
//
//   perfbench --workload wing22k_1t|fleet_sweep --seed N
//             --seconds S --trace 0|1 --out result.json --workdir DIR
//
// Every run measures set-up kSetupReps times (for the fleet, set-up ends
// with a priming serve). Untraced runs (--trace 0) then time whole ψNKS
// wing solves or whole fleet batches, at least kMinWingSolves or
// kMinFleetBatches of them and until --seconds have passed. Traced runs
// (--trace 1) instead solve once through a pass-through problem wrapper
// whose spans time every call ptc_solve makes into cfd, once
// untraced, and once on kWideThreads exec threads (bit-identity check
// and the multi-threaded solve time); then they replay single kernels
// (cfd, sparse, exec) at the converged state and measure STREAM, so that
// no replay perturbs the traced solve. The document holds raw samples,
// counters and spans; run.py derives every figure.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cfd/problem.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "exec/pool.hpp"
#include "exec/reduce.hpp"
#include "fleet/service.hpp"
#include "fleet/spec.hpp"
#include "mesh/generator.hpp"
#include "mesh/graph.hpp"
#include "mesh/ordering.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "partition/partition.hpp"
#include "perf/models.hpp"
#include "perf/stream.hpp"
#include "solver/newton.hpp"
#include "solver/precond.hpp"
#include "spans.hpp"
#include "tune/registry.hpp"

namespace {

using namespace f3d;
using obs::Json;
using perfbench::Span;
using perfbench::SpanLog;

// ---- workload constants ---------------------------------------------------

/// The paper's 22,677-vertex ONERA M6 size, realized as 43 x 23 x 23 =
/// 22,747 vertices (generate_wing_mesh_with_size(22677) stops at 20,812).
mesh::WingMeshConfig wing_mesh_config() {
  mesh::WingMeshConfig cfg;
  cfg.nx = 42;
  cfg.ny = 22;
  cfg.nz = 22;
  return cfg;
}
constexpr double kWingRtol = 1e-8;
/// Timed units per untraced run, at least; the median is reported.
constexpr int kMinWingSolves = 3;
constexpr int kMinFleetBatches = 2;
/// Thread count of the traced runs' multi-threaded solve and dispatch
/// replay. Not a workload of its own: its solve time follows the host's
/// CPU contention too closely for a bounded end-to-end metric.
constexpr int kWideThreads = 4;

/// Fleet sweep: 2 mesh classes x 6 Mach x 10 AoA = 120 scenarios, so the
/// nearest-rank p90 of one batch's latencies has 12 samples beyond it.
/// generate_wing_mesh_with_size gives 1,900 and 2,541 vertices: adjacent
/// sizes, whose latency ranges overlap, so the p50 does not fall in the
/// gap between two classes.
constexpr std::array<int, 2> kFleetClasses = {2000, 3000};
constexpr int kFleetWorkers = 4;
constexpr const char* kFleetMach = "[0.2, 0.24, 0.28, 0.32, 0.36, 0.4]";
constexpr const char* kFleetAlpha =
    "[0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]";
constexpr double kFleetRtol = 1e-6;
constexpr int kFleetMaxSteps = 80;

constexpr int kSetupReps = 5;  // set-up is timed this often; median reported

// Replay repetitions (each replay reports the median over its reps).
constexpr int kKernelReps = 10;
constexpr int kIluSetupReps = 3;
constexpr int kRefactorReps = 5;
constexpr int kApplyReps = 20;
constexpr int kSpmvReps = 50;
constexpr int kDotReps = 50;
constexpr int kDispatchBatches = 20;
constexpr int kDispatchPerBatch = 256;
constexpr int kDispatchElems = 8192;
constexpr std::size_t kStreamElems = std::size_t{16} << 20;  // 128 MiB/array
constexpr int kGmresVectors = 20 + 8;  // restart basis + ptc_solve work vectors

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 1;
  bool trace = false;
  std::string out;
  std::string workdir;
};

Args parse_args(int argc, char** argv) {
  Options o(argc, argv);
  Args a;
  a.workload = o.get_string("workload", "");
  a.seed = static_cast<unsigned>(o.get_uint64("seed", 1) % 2147483647ULL);
  a.seconds = o.get_double("seconds", 1.0);
  a.trace = o.get_int("trace", 0) != 0;
  a.out = o.get_string("out", "");
  a.workdir = o.get_string("workdir", ".");
  F3D_CHECK_MSG(!a.out.empty(), "perfbench: --out is required");
  return a;
}

/// Whether to time another unit after `done`: untraced runs time at least
/// `min_units` and until --seconds have passed; traced runs time one.
bool more_units(const Args& a, int done, int min_units, const Timer& window) {
  if (a.trace) return done < 1;
  return done < min_units || window.seconds() < a.seconds;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Registry counter delta between two snapshots; null when the counter
/// was never registered (reported as absent, not as a failure).
Json counter_delta(const obs::Snapshot& before, const obs::Snapshot& after,
                   const std::string& name) {
  const auto it = after.counters.find(name);
  if (it == after.counters.end()) return Json();
  const auto b = before.counters.find(name);
  return Json(it->second - (b == before.counters.end() ? 0 : b->second));
}

Json host_json() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return Json::object()
      .set("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .set("isa", simd::isa_name())
      .set("build_type", F3D_BENCH_BUILD_TYPE)
      .set("cxx_flags", F3D_BENCH_CXX_FLAGS)
      .set("llc_bytes", static_cast<long long>(std::max(0L, llc)));
}

// ---- pass-through timing wrapper ------------------------------------------

/// Forwards every NonlinearProblem call to `inner` unchanged, with a span
/// around each call that does work. Transparent by construction; the
/// traced run checks that the wrapped solve's solution CRC equals the
/// unwrapped one.
class TimedProblem final : public solver::NonlinearProblem {
 public:
  TimedProblem(solver::NonlinearProblem& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] int num_vertices() const override {
    return inner_.num_vertices();
  }
  [[nodiscard]] int nb() const override { return inner_.nb(); }
  void residual(const std::vector<double>& x, std::vector<double>& r) override {
    Span s(log_, "cfd.residual");
    inner_.residual(x, r);
  }
  [[nodiscard]] sparse::Bcsr<double> allocate_jacobian() const override {
    return inner_.allocate_jacobian();
  }
  void jacobian(const std::vector<double>& x,
                sparse::Bcsr<double>& jac) override {
    Span s(log_, "cfd.jacobian");
    inner_.jacobian(x, jac);
  }
  void timestep_scale(const std::vector<double>& x,
                      std::vector<double>& vol_over_sr) override {
    Span s(log_, "cfd.timestep_scale");
    inner_.timestep_scale(x, vol_over_sr);
  }
  void cell_volumes(std::vector<double>& vol) const override {
    inner_.cell_volumes(vol);
  }
  void on_step(int step, double residual_ratio) override {
    inner_.on_step(step, residual_ratio);
  }
  [[nodiscard]] bool admissible(const std::vector<double>& x) const override {
    return inner_.admissible(x);
  }

 private:
  solver::NonlinearProblem& inner_;
  SpanLog& log_;
};

// ---- solves ---------------------------------------------------------------

struct Solve {
  solver::PtcResult res;
  double wall_s = 0;
  std::uint32_t crc = 0;
  std::vector<double> x;
  Json precond_applies;
  Json gmres_restart_cycles;
};

/// One ψNKS solve from x0; `root` names the span around ptc_solve.
Solve run_solve(solver::NonlinearProblem& problem,
                const std::vector<double>& x0, const solver::PtcOptions& o,
                SpanLog& log, const char* root) {
  Solve s;
  s.x = x0;
  const obs::Snapshot before = obs::Registry::global().snapshot();
  {
    Span span(log, root);
    Timer t;
    s.res = solver::ptc_solve(problem, s.x, o);
    s.wall_s = t.seconds();
  }
  const obs::Snapshot after = obs::Registry::global().snapshot();
  s.crc = crc32(s.x.data(), s.x.size() * sizeof(double));
  s.precond_applies = counter_delta(before, after, "solver.precond.applies");
  s.gmres_restart_cycles =
      counter_delta(before, after, "solver.gmres.restart_cycles");
  return s;
}

Json solve_json(const char* label, int threads, const Solve& s) {
  const solver::PtcResult& r = s.res;
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", s.crc);
  return Json::object()
      .set("label", label)
      .set("threads", threads)
      .set("wall_s", s.wall_s)
      .set("converged", r.converged)
      .set("verdict", guard::verdict_name(r.verdict))
      .set("steps", r.steps)
      .set("linear_iterations", r.total_linear_iterations)
      .set("residual_evals", r.function_evaluations)
      .set("initial_residual", r.initial_residual)
      .set("final_residual", r.final_residual)
      .set("final_cfl", r.history.empty() ? 0.0 : r.history.back().cfl)
      .set("crc", crc)
      .set("precond_applies", s.precond_applies)
      .set("gmres_restart_cycles", s.gmres_restart_cycles);
}

/// Integrated pressure force p n over the wall faces (incompressible
/// state: component 0 is the pressure), as in examples/quickstart.
std::array<double, 3> wall_force(const cfd::EulerDiscretization& disc,
                                 const std::vector<double>& x) {
  std::array<double, 3> f = {0, 0, 0};
  const auto& bfaces = disc.mesh().boundary_faces();
  const int nb = disc.nb();
  for (std::size_t k = 0; k < bfaces.size(); ++k) {
    if (bfaces[k].tag != mesh::BoundaryTag::kWall) continue;
    for (const int v : bfaces[k].v) {
      const double p = x[static_cast<std::size_t>(v) * nb];
      for (int d = 0; d < 3; ++d)
        f[d] += p * disc.dual().bface_normal[k][d] / 3.0;
    }
  }
  return f;
}

// ---- kernel replays at a converged state ----------------------------------

/// Bytes one residual evaluation moves, computed from array sizes with
/// every array streamed once per pass (perfect cache reuse — a lower
/// bound, not a measurement). Passes: gradient, limiter (min/max + phi)
/// and flux for second order; flux only for first order.
double residual_bytes(const cfd::EulerDiscretization& disc) {
  const double nv = disc.num_vertices(), ne = disc.mesh().num_edges();
  const double nb = disc.nb(), d = sizeof(double);
  const double edges = ne * (2 * sizeof(int) + 3 * d);  // endpoints + normal
  const double q = nv * nb * d, r = nv * nb * d;
  if (disc.config().order == 1) return edges + q + r;
  const double grad = 3 * q, phi = q, minmax = 2 * q;
  return (edges + q + grad) +                   // gradient pass
         (2 * edges + q + grad + minmax + phi) +  // limiter passes
         (edges + q + grad + phi + r);          // flux scatter
}

template <class F>
void repeat(SpanLog& log, const char* name, int reps, F&& body) {
  for (int k = 0; k < reps; ++k) {
    Span s(log, name);
    body();
  }
}

/// Replays each cfd and sparse kernel the solve used at state x, under
/// spans named replay.<module>.<kernel>; returns the computed model
/// figures (flops, bytes) next to them.
Json replay_kernels(const cfd::EulerDiscretization& disc,
                    solver::NonlinearProblem& problem,
                    const std::vector<double>& x,
                    const part::Partition& partition,
                    const solver::SchwarzOptions& sopts, double cfl,
                    SpanLog& log) {
  const int nv = disc.num_vertices(), nb = disc.nb();
  cfd::FlowField q(nv, nb, sparse::FieldLayout::kInterlaced);
  q.data() = x;
  std::vector<double> grad, phi, r, sr;
  repeat(log, "replay.cfd.gradients", kKernelReps,
         [&] { disc.gradients(q, grad); });
  repeat(log, "replay.cfd.limiters", kKernelReps,
         [&] { disc.limiters(q, grad, phi); });
  repeat(log, "replay.cfd.residual", kKernelReps,
         [&] { disc.residual(q, r); });
  repeat(log, "replay.cfd.spectral_radius", kKernelReps,
         [&] { disc.spectral_radius(q, sr); });
  sparse::Bcsr<double> jac = disc.allocate_jacobian();
  repeat(log, "replay.cfd.jacobian", kKernelReps,
         [&] { disc.jacobian(q, jac); });

  // The preconditioned operator the solve factors: first-order Jacobian
  // plus the pseudo-time diagonal V_i / (CFL dt-scale_i) at the final CFL.
  std::vector<double> scale, vol;
  problem.timestep_scale(x, scale);
  problem.cell_volumes(vol);
  for (int v = 0; v < nv; ++v) {
    double* blk = jac.find_block(v, v);
    F3D_CHECK(blk != nullptr);
    for (int c = 0; c < nb; ++c) blk[c * nb + c] += vol[v] / (cfl * scale[v]);
  }
  std::unique_ptr<solver::SchwarzPreconditioner> prec;
  repeat(log, "replay.sparse.ilu_setup", kIluSetupReps, [&] {
    prec = std::make_unique<solver::SchwarzPreconditioner>(jac, partition,
                                                           sopts);
  });
  repeat(log, "replay.sparse.ilu_refactor", kRefactorReps,
         [&] { prec->refactor(jac); });
  std::vector<double> z(x.size()), y(x.size());
  repeat(log, "replay.sparse.precond_apply", kApplyReps,
         [&] { prec->apply(x.data(), z.data()); });
  repeat(log, "replay.sparse.spmv", kSpmvReps,
         [&] { jac.spmv(x.data(), y.data()); });

  perf::SpmvShape shape;
  shape.block_rows = static_cast<std::uint64_t>(nv);
  shape.blocks = jac.nblocks();
  shape.nb = nb;
  const double spmv_bytes = perf::spmv_traffic(shape).total();
  const double jac_bytes =
      static_cast<double>(jac.val.size() * sizeof(double) +
                          jac.col.size() * sizeof(int) +
                          jac.ptr.size() * sizeof(int));
  const double factor_bytes = static_cast<double>(prec->factor_bytes());
  const double vec_bytes =
      static_cast<double>(kGmresVectors) * x.size() * sizeof(double);
  return Json::object()
      .set("residual_flops", disc.residual_flops())
      .set("residual_bytes", residual_bytes(disc))
      .set("spmv_bytes", spmv_bytes)
      .set("factor_bytes", factor_bytes)
      .set("jacobian_bytes", jac_bytes)
      .set("vector_bytes", vec_bytes)
      .set("working_set_bytes", jac_bytes + factor_bytes + vec_bytes)
      .set("subdomains", partition.nparts);
}

/// exec dispatch and reduction cost at the current pool size, plus
/// single-threaded STREAM triad.
Json replay_exec_and_stream(std::int64_t unknowns, SpanLog& log) {
  std::vector<double> sink(kDispatchElems, 0.0);
  const std::function<void(std::int64_t, std::int64_t)> body =
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) sink[i] += 1.0;
      };
  auto dispatch = [&] {
    for (int k = 0; k < kDispatchPerBatch; ++k)
      exec::pool().parallel_for(0, kDispatchElems, body);
  };
  repeat(log, "replay.exec.dispatch", kDispatchBatches, dispatch);
  {
    exec::ThreadScope wide(kWideThreads);
    repeat(log, "replay.exec.dispatch_wide", kDispatchBatches, dispatch);
  }
  std::vector<double> a(static_cast<std::size_t>(unknowns), 1.0),
      b(static_cast<std::size_t>(unknowns), 0.5);
  double dot = 0;
  repeat(log, "replay.exec.dot", kDotReps,
         [&] { dot += exec::dot(unknowns, a.data(), b.data()); });
  F3D_CHECK(dot > 0 && sink[0] > 0);

  perf::StreamResult stream;
  repeat(log, "replay.perf.stream", 1,
         [&] { stream = perf::run_stream(kStreamElems, 3); });
  return Json::object()
      .set("dispatch_per_batch", kDispatchPerBatch)
      .set("dispatch_elems", kDispatchElems)
      .set("threads", exec::num_threads())
      .set("wide_threads", kWideThreads)
      .set("dot_elems", static_cast<long long>(unknowns))
      .set("stream_triad_mbs", stream.triad_mbs)
      .set("stream_array_bytes",
           static_cast<long long>(kStreamElems * sizeof(double)))
      .set("stream_threads", 1);
}

Json mesh_json(const mesh::UnstructuredMesh& m) {
  return Json::object()
      .set("vertices", m.num_vertices())
      .set("edges", m.num_edges())
      .set("bandwidth", m.bandwidth());
}

Json doubles(const std::vector<double>& v) {
  Json a = Json::array();
  for (const double d : v) a.push(d);
  return a;
}

// ---- wing workloads -------------------------------------------------------

struct WingSetup {
  std::unique_ptr<mesh::UnstructuredMesh> mesh;
  std::unique_ptr<cfd::EulerDiscretization> disc;
  std::unique_ptr<cfd::EulerProblem> problem;
  std::vector<double> x0;
};

std::unique_ptr<WingSetup> wing_setup(unsigned seed, SpanLog& log) {
  Span root(log, "setup");
  auto ws = std::make_unique<WingSetup>();
  {
    Span s(log, "mesh.generate");
    ws->mesh = std::make_unique<mesh::UnstructuredMesh>(
        mesh::generate_wing_mesh(wing_mesh_config()));
  }
  {
    Span s(log, "mesh.shuffle");
    mesh::shuffle_mesh(*ws->mesh, seed);
  }
  {
    Span s(log, "mesh.order");
    mesh::apply_best_ordering(*ws->mesh);
  }
  std::shared_ptr<const cfd::SharedGeometry> geom;
  {
    Span s(log, "mesh.geometry");
    geom = cfd::SharedGeometry::compute(*ws->mesh);
  }
  {
    Span s(log, "cfd.discretization");
    cfd::FlowConfig cfg;
    cfg.model = cfd::Model::kIncompressible;
    cfg.order = 2;
    cfg.alpha_deg = 2.0;
    ws->disc = std::make_unique<cfd::EulerDiscretization>(*ws->mesh, cfg, geom);
    ws->problem = std::make_unique<cfd::EulerProblem>(*ws->disc, 0.0);
  }
  {
    Span s(log, "cfd.initial_state");
    ws->x0 = ws->problem->initial_state();
  }
  return ws;
}

solver::PtcOptions wing_options() {
  solver::PtcOptions o;
  o.cfl0 = 50.0;
  o.rtol = kWingRtol;
  o.max_steps = 60;
  o.num_subdomains = 1;
  o.schwarz.fill_level = 1;
  return o;  // matrix-free GMRES is the default Krylov path
}

Json wing_solve_json(const char* label, int threads, const Solve& s,
                     const cfd::EulerDiscretization& disc) {
  Json j = solve_json(label, threads, s);
  const auto f = wall_force(disc, s.x);
  j.set("force", doubles({f[0], f[1], f[2]}));
  return j;
}

void run_wing(const Args& a, Json& doc) {
  exec::ThreadScope pool_size(1);
  SpanLog log(a.trace);
  std::vector<double> setup_s;
  std::unique_ptr<WingSetup> ws;
  for (int k = 0; k < kSetupReps; ++k) {
    ws.reset();
    Timer t;
    ws = wing_setup(a.seed, log);
    setup_s.push_back(t.seconds());
  }
  doc.set("setup_s", doubles(setup_s));
  doc.set("mesh", mesh_json(*ws->mesh));

  const solver::PtcOptions opts = wing_options();
  Json solves = Json::array();
  if (a.trace) {
    // The traced solve, then an untraced one to measure the overhead.
    TimedProblem timed(*ws->problem, log);
    const Solve traced =
        run_solve(timed, ws->x0, opts, log, "solver.ptc_solve");
    solves.push(wing_solve_json("traced", 1, traced, *ws->disc));
    const Solve plain =
        run_solve(*ws->problem, ws->x0, opts, log, "solve.timed");
    solves.push(wing_solve_json("untraced", 1, plain, *ws->disc));
    {
      // Bit-identity contract: the same inputs on more threads.
      exec::ThreadScope wide(kWideThreads);
      const Solve w = run_solve(*ws->problem, ws->x0, opts, log, "solve.wide");
      solves.push(wing_solve_json("wide", kWideThreads, w, *ws->disc));
    }
    const part::Partition one_domain{
        1, std::vector<int>(ws->mesh->num_vertices(), 0)};
    doc.set("kernels",
            replay_kernels(*ws->disc, *ws->problem, traced.x, one_domain,
                           opts.schwarz, traced.res.history.back().cfl, log));
    doc.set("exec", replay_exec_and_stream(ws->disc->num_unknowns(), log));
  } else {
    Timer window;
    for (int n = 0; more_units(a, n, kMinWingSolves, window); ++n) {
      const Solve s =
          run_solve(*ws->problem, ws->x0, opts, log, "solve.timed");
      solves.push(wing_solve_json("timed", 1, s, *ws->disc));
    }
  }
  doc.set("solves", std::move(solves));
  doc.set("spans_doc", log.to_json(doc.find("run_id")->s));
}

// ---- fleet workload -------------------------------------------------------

std::string fleet_spec_text(unsigned seed, const char* mach, const char* alpha) {
  char text[768];
  std::snprintf(text, sizeof text, R"({
    "schema": "f3d-fleet-batch-v1",
    "name": "perfbench-sweep",
    "seed": %u,
    "defaults": {"rtol": %g, "max_steps": %d},
    "sweep": {"vertices": [%d, %d], "mach": %s, "alpha_deg": %s}
  })",
                seed, kFleetRtol, kFleetMaxSteps, kFleetClasses[0],
                kFleetClasses[1], mach, alpha);
  return text;
}

Json scenario_json(const fleet::ScenarioSpec& sc,
                   const fleet::ScenarioResult& r) {
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", r.solution_crc);
  return Json::object()
      .set("id", r.id)
      .set("vertices", sc.vertices)
      .set("mach", sc.mach)
      .set("alpha_deg", sc.alpha_deg)
      .set("status", fleet::scenario_status_name(r.status))
      .set("verdict", r.verdict)
      .set("attempts", r.attempts)
      .set("crc", crc)
      .set("wall_s", r.wall_s);
}

Json batch_json(const fleet::BatchSpec& spec, const fleet::BatchResult& res) {
  Json list = Json::array();
  for (std::size_t i = 0; i < res.scenarios.size(); ++i)
    list.push(scenario_json(spec.scenarios[i], res.scenarios[i]));
  return Json::object()
      .set("wall_s", res.wall_s)
      .set("committed", res.committed)
      .set("retries", res.retries)
      .set("scenarios", std::move(list));
}

/// One fleet scenario solved outside the fleet exactly as the service's
/// first attempt solves it (same artifacts, options and partition), so
/// the cfd and solver layers of the fleet workload can be traced from
/// here. Its CRC must equal the fleet's committed CRC for the scenario.
std::int64_t fleet_replica(const Args& a, const fleet::ScenarioSpec& sc,
                           SpanLog& log, Json& doc) {
  mesh::UnstructuredMesh m;
  std::shared_ptr<const cfd::SharedGeometry> geom;
  part::Partition partition;
  {
    Span root(log, "setup.artifact");
    {
      Span s(log, "mesh.generate");
      m = mesh::generate_wing_mesh_with_size(sc.vertices);
    }
    {
      Span s(log, "mesh.shuffle");
      mesh::shuffle_mesh(m, a.seed);
    }
    {
      Span s(log, "mesh.order");
      mesh::apply_best_ordering(m);
    }
    {
      Span s(log, "mesh.geometry");
      geom = cfd::SharedGeometry::compute(m);
    }
    {
      Span s(log, "partition.kway_grow");
      partition = part::kway_grow(
          mesh::build_graph(m.num_vertices(), m.edges()), 2, a.seed);
    }
  }
  doc.set("mesh", mesh_json(m));

  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kCompressible;
  cfg.order = 1;
  cfg.mach = sc.mach;
  cfg.alpha_deg = sc.alpha_deg;
  cfd::EulerDiscretization disc(m, cfg, geom);
  cfd::EulerProblem problem(disc, -1.0);

  solver::PtcOptions o;
  o.rtol = sc.rtol;
  o.max_steps = sc.max_steps;
  o.recovery.enabled = true;
  o.guard.capture_faults = true;
  o.guard.budget.max_work_units = sc.work_units;
  o.guard.budget.wall_deadline_s = sc.wall_deadline_s;
  tune::Registry reg;
  o.bind(reg);
  o.num_subdomains = partition.nparts;
  o.partition = partition;

  const std::vector<double> x0 = problem.initial_state();
  // Same order as the wing workloads: traced, then untraced.
  Json solves = Json::array();
  TimedProblem timed(problem, log);
  const Solve traced = run_solve(timed, x0, o, log, "solver.ptc_solve");
  solves.push(solve_json("traced", 1, traced));
  const Solve plain = run_solve(problem, x0, o, log, "solve.timed");
  solves.push(solve_json("untraced", 1, plain));
  {
    exec::ThreadScope wide(kWideThreads);
    const Solve w = run_solve(problem, x0, o, log, "solve.wide");
    solves.push(solve_json("wide", kWideThreads, w));
  }
  doc.set("solves", std::move(solves));
  doc.set("replica_scenario", sc.id);
  doc.set("kernels",
          replay_kernels(disc, problem, traced.x, partition, o.schwarz,
                         traced.res.history.back().cfl, log));
  return disc.num_unknowns();
}

void run_fleet(const Args& a, Json& doc) {
  exec::ThreadScope pool_size(1);  // the service requires 1-thread solves
  SpanLog log(a.trace);
  const fleet::BatchSpec batch =
      fleet::BatchSpec::parse(fleet_spec_text(a.seed, kFleetMach, kFleetAlpha));
  // One scenario per mesh class, identical to the batch's first scenario
  // of that class: priming builds the resident artifacts and its CRCs
  // must repeat in every priming serve and in the batch.
  const fleet::BatchSpec prime =
      fleet::BatchSpec::parse(fleet_spec_text(a.seed, "[0.2]", "[0.0]"));

  std::filesystem::create_directories(a.workdir);
  fleet::FleetOptions fo;
  fo.workers = kFleetWorkers;
  fo.journal_path =
      (std::filesystem::path(a.workdir) / "fleet.journal").string();

  std::vector<double> setup_s;
  Json primes = Json::array();
  std::unique_ptr<fleet::Service> svc;
  obs::Snapshot service_start;
  for (int k = 0; k < kSetupReps; ++k) {
    svc.reset();
    service_start = obs::Registry::global().snapshot();
    Timer t;
    fleet::BatchResult pr;
    {
      Span root(log, "setup");
      {
        Span s(log, "fleet.service");
        svc = std::make_unique<fleet::Service>(fo);
      }
      Span s(log, "fleet.prime");
      pr = svc->serve(prime);
    }
    setup_s.push_back(t.seconds());
    primes.push(batch_json(prime, pr));
  }
  doc.set("setup_s", doubles(setup_s));
  doc.set("primes", std::move(primes));

  Json batches = Json::array();
  Timer window;
  obs::Snapshot before, after;
  for (int n = 0; more_units(a, n, kMinFleetBatches, window); ++n) {
    before = obs::Registry::global().snapshot();
    fleet::BatchResult res;
    {
      Span s(log, "fleet.serve");
      res = svc->serve(batch);
    }
    after = obs::Registry::global().snapshot();
    batches.push(batch_json(batch, res));
  }
  doc.set("batches", std::move(batches));
  doc.set("fleet",
          Json::object()
              .set("workers", kFleetWorkers)
              .set("journal_bytes",
                   static_cast<long long>(
                       std::filesystem::file_size(fo.journal_path)))
              .set("journal_frames",
                   counter_delta(before, after, "fleet.journal_frames"))
              .set("artifacts_built",
                   counter_delta(service_start, after, "fleet.artifacts_built"))
              .set("artifacts_shared", counter_delta(service_start, after,
                                                     "fleet.artifacts_shared")));
  svc.reset();
  std::filesystem::remove(fo.journal_path);

  if (a.trace) {
    // Replicate the batch's first scenario of the larger mesh class.
    const auto it = std::find_if(
        batch.scenarios.begin(), batch.scenarios.end(),
        [](const fleet::ScenarioSpec& sc) {
          return sc.vertices == kFleetClasses[1];
        });
    const std::int64_t unknowns = fleet_replica(a, *it, log, doc);
    doc.set("exec", replay_exec_and_stream(unknowns, log));
  }
  doc.set("spans_doc", log.to_json(doc.find("run_id")->s));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    char run_id[96];
    std::snprintf(run_id, sizeof run_id, "%s-%u-%d-%d", a.workload.c_str(),
                  a.seed, a.trace ? 1 : 0, static_cast<int>(getpid()));
    Json doc = Json::object()
                   .set("workload", a.workload)
                   .set("seed", static_cast<long long>(a.seed))
                   .set("trace", a.trace)
                   .set("run_id", run_id)
                   .set("host", host_json());
    if (a.workload == "wing22k_1t") {
      doc.set("threads", 1);
      run_wing(a, doc);
    } else if (a.workload == "fleet_sweep") {
      doc.set("threads", 1);
      run_fleet(a, doc);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
    doc.set("peak_rss_mb", peak_rss_mb());
    if (!obs::write_json_file(a.out, doc)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.out.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
