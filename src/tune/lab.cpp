#include "tune/lab.hpp"

#include <exception>
#include <utility>

#include "cfd/euler.hpp"
#include "cfd/problem.hpp"
#include "common/crc32.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "mesh/generator.hpp"
#include "tune/bindings.hpp"

namespace f3d::tune {

LabFidelity lab_fidelity(int fidelity) {
  LabFidelity fid;
  if (fidelity <= 0) {
    fid.rtol = 1e-2;
    fid.max_steps = 12;
  } else if (fidelity == 1) {
    fid.rtol = 1e-4;
    fid.max_steps = 25;
  } else {
    fid.rtol = 1e-6;
    fid.max_steps = 40;
  }
  // Generous for any sane config on the lab meshes; a runaway config
  // (e.g. a hopeless CFL schedule) trips the budget and fails the
  // verdict gate instead of stalling the whole search.
  fid.max_work_units = 20000LL * (fidelity + 1);
  return fid;
}

SolveLab::SolveLab(int num_vertices, unsigned mesh_seed) {
  auto m = mesh::generate_wing_mesh_with_size(num_vertices);
  mesh::shuffle_mesh(m, mesh_seed);
  base_mesh_ = std::move(m);

  flow_.model = cfd::Model::kIncompressible;
  flow_.order = 1;  // short runs; first order keeps trials cheap
  ptc_.max_steps = 25;
  ptc_.gmres.max_iters = 120;

  flow_.bind(reg_);
  ordering_.bind(reg_);
  ptc_.bind(reg_);
  bind_exec_threads(reg_);
  bind_simd(reg_);
}

SolveLab::RunResult SolveLab::run_once(const LabFidelity& fid) {
  RunResult out;
  try {
    // Fresh copy so the ordering knobs act on the same as-delivered mesh
    // every trial (a discretization must never see a re-permuted mesh).
    mesh::UnstructuredMesh m = base_mesh_;
    mesh::apply_ordering(m, ordering_);

    cfd::EulerDiscretization disc(m, flow_);
    cfd::EulerProblem prob(disc, -1.0);

    solver::PtcOptions opts = ptc_;
    opts.rtol = fid.rtol;
    opts.max_steps = fid.max_steps;
    opts.guard.budget.max_work_units = fid.max_work_units;
    opts.guard.capture_faults = true;
    opts.partition = {};  // rebuilt by the driver for num_subdomains

    auto x = prob.initial_state();
    Timer t;
    auto res = solver::ptc_solve(prob, x, opts);
    out.wall_seconds = t.seconds();
    out.work_units = res.work_units;
    out.residual_drop_orders = res.residual_drop_orders;
    out.state_hash =
        crc32(x.data(), x.size() * sizeof(double));
    if (!res.converged ||
        res.verdict != guard::SolveVerdict::kConverged) {
      out.note = std::string("gate: not converged (verdict ") +
                 guard::verdict_name(res.verdict) + ")";
      return out;
    }
    out.ok = true;
    return out;
  } catch (const std::exception& e) {
    out.note = std::string("gate: exception: ") + e.what();
    return out;
  }
}

TrialOutcome SolveLab::evaluate(int fidelity) {
  const LabFidelity fid = lab_fidelity(fidelity);
  TrialOutcome t;

  RunResult first = run_once(fid);
  if (!first.ok) {
    t.ok = false;
    t.note = first.note;
    t.wall_seconds = first.wall_seconds;
    t.work_units = first.work_units;
    return t;
  }
  RunResult second = run_once(fid);
  if (!second.ok) {
    t.ok = false;
    t.note = "gate: rerun failed: " + second.note;
    return t;
  }
  if (first.state_hash != second.state_hash ||
      first.work_units != second.work_units) {
    t.ok = false;
    t.note = "gate: bit-identity violation (state hash or work units "
             "differ between identical runs)";
    return t;
  }

  t.ok = true;
  // Score the second run: the first warmed the page cache / pool, so the
  // second is the steadier timing.
  t.score = second.wall_seconds;
  t.wall_seconds = second.wall_seconds;
  t.work_units = second.work_units;
  return t;
}

Evaluator SolveLab::evaluator() {
  return [this](Registry& /*reg*/, int fidelity) { return evaluate(fidelity); };
}

std::vector<std::string> SolveLab::default_search_space() {
  return {
      "mesh.vertex_order", "mesh.edge_order",
      "ptc.cfl0", "ptc.ser_exponent", "ptc.jacobian_refresh",
      "ptc.num_subdomains",
      "gmres.restart", "gmres.rtol",
      "schwarz.type", "schwarz.overlap", "schwarz.fill_level",
      "schwarz.single_precision",
  };
}

DbKey SolveLab::db_key() const {
  DbKey key;
  key.mesh_class = mesh_class_of(base_mesh_.num_vertices());
  key.host_isa = simd::isa_name();
  key.precision = "double";
  return key;
}

}  // namespace f3d::tune
