#include "solver/newton.hpp"

#include "solver/bicgstab.hpp"
#include "solver/coarse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "resilience/bitflip.hpp"
#include "resilience/checkpoint.hpp"
#include "sparse/abft.hpp"
#include "sparse/vec.hpp"

namespace f3d::solver {

namespace {

using resilience::RecoveryAction;
using enum resilience::RecoveryAction;
using Krylov = PtcOptions::Krylov;

// Block-sparsity adjacency graph for the default partitioner.
mesh::Graph graph_from_jacobian(const sparse::Bcsr<double>& a) {
  std::vector<std::array<int, 2>> edges;
  for (int i = 0; i < a.nrows; ++i)
    for (int p = a.ptr[i]; p < a.ptr[i + 1]; ++p)
      if (a.col[p] > i) edges.push_back({i, a.col[p]});
  return mesh::build_graph(a.nrows, edges);
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// What one Krylov solve reports back to the driver.
struct LinearResult {
  int iterations = 0;
  bool converged = false;
  bool breakdown = false;      ///< BiCGStab rho/omega collapse
  bool stagnated = false;      ///< GMRES stagnation watchdog fired
  bool sdc_suspected = false;  ///< Krylov invariant monitor tripped
  std::string reason;          ///< why GMRES stopped
  SolveCounters counters;
};

// The Krylov invariant monitors' settings while the SDC guards are on.
constexpr double kGmresDriftTol = 1e-2;     ///< GmresOptions::sdc_drift_tol
constexpr double kBicgstabDriftTol = 1e-2;  ///< BicgstabOptions::sdc_drift_tol
constexpr int kBicgstabTrueResidualEvery = 10;  ///< extra matvec cadence

/// Solve J dx = rhs once with the active method and settings; `sdc`
/// switches on the solvers' invariant monitors.
LinearResult krylov_solve(Krylov method, const LinearOperator& op,
                          const Preconditioner& prec,
                          const std::vector<double>& rhs,
                          std::vector<double>& dx, GmresOptions gm, bool sdc) {
  if (method == Krylov::kBicgstab) {
    const BicgstabOptions bo{
        .rtol = gm.rtol, .max_iters = gm.max_iters,
        .true_residual_every = sdc ? kBicgstabTrueResidualEvery : 0,
        .sdc_drift_tol = sdc ? kBicgstabDriftTol : 0};
    const auto res = bicgstab(op, prec, rhs, dx, bo);
    return {res.iterations, res.converged, res.breakdown, false,
            res.sdc_suspected, {}, res.counters};
  }
  if (sdc) gm.sdc_drift_tol = kGmresDriftTol;
  auto res = gmres(op, prec, rhs, dx, gm);
  return {res.iterations, res.converged, false, res.stagnated,
          res.sdc_suspected, std::move(res.reason), res.counters};
}

/// The solve state the psi-NKS core advances and the policies read or
/// adjust at its hook points.
struct SolveState {
  SolveState(std::vector<double>& x0, PtcResult& res, const PtcOptions& opts)
      : x(x0), result(res), x_commit(x0),
        gmres(opts.gmres), krylov(opts.krylov),
        jacobian_refresh(opts.jacobian_refresh) {}

  std::vector<double>& x;  ///< current iterate
  PtcResult& result;
  int step = 0;      ///< pseudo-timestep in progress
  double rnorm = 0;  ///< steady ||r(x)||
  double r0 = 1.0;   ///< SER reference norm
  /// Best committed iterate: every guard exit restores and returns it, and
  /// the SDC rollback rung restores it. Set only to the entry state and to
  /// accepted states (nothing writes x between steps), so for
  /// deterministic trips the returned state is bit-identical at any thread
  /// count.
  std::vector<double> x_commit;
  double rnorm_commit = std::numeric_limits<double>::infinity();
  double cfl_relax = 1.0;  ///< CFL backtrack multiplier (1 = no backtrack)
  GmresOptions gmres;      ///< active Krylov settings (escalated/degraded)
  Krylov krylov;
  int jacobian_refresh;    ///< effective Jacobian/preconditioner cadence
  bool force_refresh = false;

  /// Log an event at the step in progress.
  void note(RecoveryAction action, std::string detail) {
    result.recovery_log.add(step, action, std::move(detail));
  }
};

// --- policies ---------------------------------------------------------------
// Plain structs the core calls at its hook points (step-begin,
// residual-evaluated, linear-result, step-commit). A disabled policy is a
// no-op. Every detector logs its event and returns false.

/// The breakdown recovery ladder (PtcRecoveryOptions). It owns the one
/// failure decision: the plain driver aborts on its first detection, the
/// resilient driver rejects the attempt and climbs a rung.
struct RecoveryPolicy {
  // Step rejection.
  static constexpr int kMaxStepRetries = 6;  ///< attempts per pseudo-timestep
  static constexpr double kCflBacktrackFactor = 0.25;  ///< CFL x on reject
  static constexpr double kCflRegrow = 2.0;  ///< relaxation regrowth per step
  static constexpr double kDivergenceFactor = 1e3;  ///< ||r|| growth to reject
  // Zero-pivot shift ladder (Manteuffel-style, relative to diag scale).
  static constexpr double kPivotShift0 = 1e-8;
  static constexpr int kPivotShiftAttempts = 8;  ///< x10 escalation per rung
  // Krylov escalation: a breakdown swaps BiCGStab -> GMRES; stagnation
  // first escalates the GMRES restart length, then (once per solve) swaps
  // GMRES -> BiCGStab. The swapped-to method stays active for the rest of
  // the run.
  static constexpr int kGmresRestartMax = 120;  ///< restart escalation cap
  static constexpr int kMaxLinearRetries = 2;  ///< re-solves of one system

  const PtcRecoveryOptions& o;
  int lin_retries = 0;   ///< restart escalations of the current system
  bool swapped = false;  ///< method already swapped for the current system

  /// Called once a detector has logged its event and returned false.
  void abort_unless_enabled(const SolveState& s) const {
    if (o.enabled) return;
    F3D_CHECK_MSG(!s.result.recovery_log.empty(), "unlogged detection");
    const auto& e = s.result.recovery_log.events().back();
    throw NumericalError("psi-NKS aborted at step " + std::to_string(e.step) +
                         ": " + recovery_action_name(e.action) + " (" +
                         e.detail + ")");
  }

  /// Pivot-shift rung: refresh the factorization, absorbing zero pivots
  /// with an escalating diagonal shift. Without the ladder a zero pivot
  /// throws NumericalError, which the core logs like any detection.
  bool refactor(SolveState& s, RefactorablePreconditioner& prec,
                const sparse::Bcsr<double>& jac) const {
    if (!o.enabled) {
      prec.refactor(jac);
      return true;
    }
    resilience::FactorReport report;
    const bool ok = prec.refactor_checked(jac, kPivotShift0,
                                          kPivotShiftAttempts, &report);
    if (report.shift_attempts > 0) {
      s.note(kDetectSingularFactor, "zero pivot in preconditioner refresh");
      char shift_buf[32];
      std::snprintf(shift_buf, sizeof shift_buf, "%.3g", report.shift_used);
      s.note(kPivotShift, "shift=" + std::string(shift_buf) + " after " +
                              std::to_string(report.shift_attempts) +
                              " rung(s)");
    }
    if (report.coarse_disabled) s.note(kCoarseDisabled, report.detail);
    if (!ok)
      s.note(kDetectSingularFactor, "shift ladder exhausted: " + report.detail);
    return ok;
  }

  void new_system() {
    lin_retries = 0;
    swapped = false;
  }

  /// linear-result hook: BiCGStab breakdown -> swap to GMRES; GMRES
  /// stagnation -> grow the restart length, then swap to BiCGStab. True
  /// when the system should be re-solved from dx = 0.
  bool retry_linear(SolveState& s, const LinearResult& lin) {
    if (!o.enabled) return false;
    if (lin.breakdown) {
      s.note(kDetectBreakdown, "BiCGStab rho/omega collapse");
      if (!swapped) {
        swapped = true;
        s.krylov = Krylov::kGmres;
        s.note(kKrylovSwap,
               "BiCGStab -> GMRES(m=" + std::to_string(s.gmres.restart) + ")");
        return true;
      }
    }
    if (lin.stagnated) {
      s.note(kDetectStagnation, lin.reason);
      if (s.gmres.restart < kGmresRestartMax &&
          lin_retries < kMaxLinearRetries) {
        s.gmres.restart = std::min(kGmresRestartMax, s.gmres.restart * 2);
        s.gmres.max_iters = std::max(s.gmres.max_iters, s.gmres.restart);
        s.note(kRestartEscalation,
               "restart -> " + std::to_string(s.gmres.restart));
        ++lin_retries;
        return true;
      }
      // Escalation exhausted: last rung is a method swap — a persistently
      // poisoned GMRES (e.g. an injected fault in the Arnoldi process) is
      // unrecoverable from inside GMRES.
      if (!swapped) {
        swapped = true;
        s.krylov = Krylov::kBicgstab;
        s.note(kKrylovSwap, "GMRES -> BiCGStab");
        return true;
      }
    }
    return false;
  }

  /// Step-residual detector: reject a step whose residual blew up.
  bool diverged(SolveState& s, double rnorm_new, double rnorm_step) const {
    if (!o.enabled || !(rnorm_new > kDivergenceFactor * rnorm_step))
      return false;
    s.note(kDetectDivergence,
           "||r|| grew " + std::to_string(rnorm_new / rnorm_step) + "x");
    return true;
  }

  void reject(SolveState& s, int attempt) const {
    s.note(kStepRejected, "attempt " + std::to_string(attempt + 1));
    F3D_NUMERIC_CHECK_MSG(
        attempt + 1 < kMaxStepRetries,
        "recovery ladder exhausted at step " + std::to_string(s.step));
  }

  /// Numerical rung: shrink the pseudo-timestep (the core rebuilds the
  /// preconditioner at the rolled-back state).
  void backtrack(SolveState& s) const {
    s.cfl_relax *= kCflBacktrackFactor;
    s.note(kCflBacktrack, "cfl_relax=" + std::to_string(s.cfl_relax));
    s.note(kPrecRefresh, "forced by step rejection");
  }

  /// step-commit hook: let the CFL relaxation recover toward 1.
  void step_commit(SolveState& s) const {
    if (s.cfl_relax < 1.0)
      s.cfl_relax = std::min(1.0, s.cfl_relax * kCflRegrow);
  }
};

/// Silent-data-corruption guards (PtcSdcOptions) and their two rungs:
/// recompute-and-verify, then rollback to the last committed state.
struct SdcPolicy {
  /// Recompute-and-verify attempts per step before rolling back to the
  /// last verified state.
  static constexpr int kMaxRecompute = 1;

  const PtcSdcOptions& o;
  bool flagged = false;  ///< this attempt tripped a guard
  int recomputes = 0;    ///< recompute rungs taken at this step
  sparse::AbftGuard abft{};  ///< bound slack: AbftGuard's default 1024

  bool detect(SolveState& s, const std::string& what) {
    s.note(kDetectSdc, what);
    flagged = true;
    return false;
  }

  /// step-begin hook: entry scan of the committed state. It must run
  /// BEFORE the Newton attempt: a corrupted-but-finite entry state is a
  /// legal (if terrible) initial guess, and Newton will often pull it back
  /// to an admissible commit — the flip would then silently cost extra
  /// iterations and a perturbed trajectory instead of being caught. Two
  /// guards stack: the committed state must be byte-identical to x_commit
  /// (nothing legitimate writes to x between steps), and it must be
  /// physically admissible (which also covers the very first step, where
  /// x_commit IS the unchecked initial state). Recompute cannot help, so a
  /// detection goes straight to the rollback rung.
  bool step_begin(SolveState& s, const NonlinearProblem& problem) {
    recomputes = 0;
    if (!o.enabled) return true;
    const bool mutated = std::memcmp(s.x.data(), s.x_commit.data(),
                                     sizeof(double) * s.x.size()) != 0;
    if (!mutated && problem.admissible(s.x)) return true;
    return detect(s, mutated ? "committed state changed between steps"
                             : "step-entry state is physically inadmissible");
  }

  /// Transport checksum over a freshly evaluated residual, taken before
  /// the flip site. Both sums run the same serial order over the same
  /// memory, so on a clean path they are bit-identical — zero false
  /// positives by construction. A flip whose contribution is swallowed by
  /// summation rounding (low mantissa bits) stays invisible: that is the
  /// measured escape class.
  [[nodiscard]] double checksum(const std::vector<double>& r) const {
    double sum = 0;
    if (o.enabled)
      for (double v : r) sum += v;
    return sum;
  }

  /// residual-evaluated hook.
  bool residual_evaluated(SolveState& s, const std::vector<double>& r,
                          double sum_before, const char* what) {
    if (!o.enabled || !std::isfinite(sum_before) ||
        checksum(r) == sum_before)
      return true;
    return detect(s, std::string("residual transport checksum mismatch (") +
                         what + ")");
  }

  /// ABFT checksums are a function of the values just assembled: rebuild
  /// here, and only here — any flip landing after this point is exactly
  /// what verify() exists to catch. The guard checksums the matrix the
  /// operator actually multiplies with: the float copy in mixed-precision
  /// mode (rebuild widens the bound to FLT_EPSILON there).
  void assembled(const sparse::Bcsr<double>& jac,
                 const sparse::Bcsr<float>& jac_f, bool single,
                 bool matrix_free) {
    if (!o.enabled || matrix_free) return;
    if (single)
      sparse::rebuild(abft, jac_f);
    else
      sparse::rebuild(abft, jac);
  }

  /// ABFT check of one assembled-operator product y = J v (an O(n)
  /// add-on to the O(nnz) product).
  bool verify(const double* v, const double* y, int n) {
    return !abft.valid() || sparse::verify_spmv(abft, v, y, n);
  }

  /// linear-result hook.
  bool linear_result(SolveState& s, bool abft_failed, bool drift) {
    if (!o.enabled || !(abft_failed || drift)) return true;
    return detect(s, abft_failed ? "ABFT checksum violation in assembled SpMV"
                                 : "Krylov recurrence/true-residual drift");
  }

  /// Numerical health watchdog on the step's result: the step is
  /// numerically fine — is the state physically possible? (Finite wrong
  /// values from a bit flip pass every norm test.)
  bool admissible(SolveState& s, const NonlinearProblem& problem) {
    if (!o.enabled) return true;
    bool ok;
    {
      F3D_OBS_SPAN("admissibility");
      ok = problem.admissible(s.x);
    }
    return ok || detect(s, "physically inadmissible state after step");
  }

  /// Rungs for a rejected attempt that tripped a guard. The numerics were
  /// fine — the data was corrupt — so no CFL backtrack; the core's forced
  /// refresh reassembles the Jacobian (and its checksums), which clears
  /// matrix corruption.
  void reject(SolveState& s, int attempt) {
    if (recomputes < kMaxRecompute) {
      ++recomputes;
      s.note(kSdcRecompute,
             "reassemble and re-run attempt " + std::to_string(attempt + 1));
      return;
    }
    // Recompute didn't clear it: the step-entry state itself is corrupted.
    rollback(s);
  }

  void rollback(SolveState& s) {
    s.x = s.x_commit;
    s.rnorm = s.rnorm_commit;
    recomputes = 0;
    s.note(kSdcRollback, "restored last verified state");
  }
};

/// Graceful degradation (PtcDegradeOptions): under budget pressure, trade
/// accuracy for on-time completion instead of overrunning. Each rung fires
/// once, logged; the final rung — early-return of the best committed
/// state — is the budget trip itself.
struct DegradePolicy {
  static constexpr double kRtolFactor = 10.0;  ///< linear-rtol multiplier
  static constexpr double kRtolMax = 0.3;      ///< cap on the loosened rtol
  static constexpr int kRestartMin = 8;        ///< floor for the shrunk restart
  static constexpr int kKrylovItersMin = 10;   ///< floor for shrunk max_iters

  const PtcDegradeOptions& o;
  bool enabled;
  bool loosened = false, frozen = false, shrunk = false;

  /// step-begin hook.
  void step_begin(SolveState& s, const guard::SolveGuard& sguard) {
    if (!enabled) return;
    const double pr = sguard.pressure();
    if (!loosened && pr >= o.loosen_at) {
      loosened = true;
      s.gmres.rtol = std::min(kRtolMax, s.gmres.rtol * kRtolFactor);
      s.note(kDegradeRung,
             "loosen linear rtol -> " + std::to_string(s.gmres.rtol));
    }
    if (!frozen && pr >= o.freeze_at) {
      frozen = true;
      s.jacobian_refresh = std::numeric_limits<int>::max();
      s.note(kDegradeRung, "freeze jacobian/preconditioner refresh");
    }
    if (!shrunk && pr >= o.shrink_at) {
      shrunk = true;
      s.gmres.restart = std::max(kRestartMin, s.gmres.restart / 2);
      s.gmres.max_iters = std::max(kKrylovItersMin, s.gmres.max_iters / 2);
      s.note(kDegradeRung, "shrink krylov effort: restart -> " +
                               std::to_string(s.gmres.restart) +
                               ", max_iters -> " +
                               std::to_string(s.gmres.max_iters));
    }
  }
};

/// Checkpoint/restart (PtcRecoveryOptions, resilience/checkpoint.hpp):
/// resume a killed run at solve entry, write the committed state every
/// checkpoint_every accepted steps.
struct CheckpointPolicy {
  const PtcRecoveryOptions& o;
  resilience::FaultInjector* injector;

  /// Restore the continuation, the ladder's escalation state, the
  /// injector stream and the log. False when there is nothing to resume.
  bool resume(SolveState& s) const {
    if (!o.enabled || !o.resume || o.checkpoint_path.empty()) return false;
    std::string source;
    auto ck = resilience::load_checkpoint_with_fallback(o.checkpoint_path,
                                                        &source);
    if (!ck) return false;
    F3D_CHECK_MSG(ck->x.size() == s.x.size(), "checkpoint state size mismatch");
    PtcResult& res = s.result;
    s.x = ck->x;
    s.rnorm = ck->rnorm;
    s.r0 = res.initial_residual = ck->r0;
    s.cfl_relax = ck->cfl_relax;
    if (ck->gmres_restart > 0) s.gmres.restart = ck->gmres_restart;
    s.krylov = static_cast<Krylov>(ck->krylov);
    res.steps = static_cast<int>(ck->steps_done);
    res.function_evaluations = ck->function_evaluations;
    res.total_linear_iterations = ck->total_linear_iterations;
    res.recovery_log = ck->log;
    if (ck->has_injector && injector != nullptr)
      injector->restore(ck->injector);
    res.resumed = true;
    res.resume_step = res.last_checkpoint_step = static_cast<int>(ck->step);
    res.recovery_log.add(res.resume_step, kResume, "restored from " + source);
    return true;
  }

  /// step-commit hook.
  void step_commit(SolveState& s) const {
    PtcResult& res = s.result;
    if (!o.enabled || o.checkpoint_every <= 0 || o.checkpoint_path.empty() ||
        res.steps % o.checkpoint_every != 0)
      return;
    F3D_OBS_SPAN("checkpoint");
    resilience::PtcCheckpoint ck;
    ck.step = s.step + 1;
    ck.steps_done = res.steps;
    ck.x = s.x;
    ck.rnorm = s.rnorm;
    ck.r0 = s.r0;
    ck.cfl_relax = s.cfl_relax;
    ck.function_evaluations = res.function_evaluations;
    ck.total_linear_iterations = res.total_linear_iterations;
    ck.gmres_restart = s.gmres.restart;
    ck.krylov = static_cast<std::int32_t>(s.krylov);
    if (injector != nullptr) {
      ck.has_injector = true;
      ck.injector = injector->state();
    }
    ck.log = res.recovery_log;
    if (resilience::save_checkpoint(o.checkpoint_path, ck)) {
      s.note(kCheckpointWrite, o.checkpoint_path);
      res.last_checkpoint_step = s.step + 1;
    }
  }
};

// --- the system the core drives ---------------------------------------------

/// The discretization as the psi-NKS core sees it: instrumented residual
/// evaluations (with their fault sites and detectors), the Jacobian plus
/// pseudo-time diagonal with its Schwarz preconditioner, and J_g.
struct NksSystem {
  NksSystem(NonlinearProblem& problem, const PtcOptions& opts,
            guard::SolveGuard& sguard, SolveState& s)
      : problem_(problem), opts_(opts), guard_(sguard), s_(s), x_(s.x),
        n_(problem.num_unknowns()), nb_(problem.nb()),
        nv_(problem.num_vertices()), recovery_{opts.recovery}, sdc_{opts.sdc},
        r_(n_), g0_(n_), rhs_(n_), dx_(n_), work_(n_), xw_(n_), scale_(nv_),
        diag_(nv_) {
    problem.cell_volumes(vols_);
  }

  // Budget charge + immediate honor: a tripped guard abandons the work
  // before it starts. The throw lands in ptc_solve_impl's guard-exit
  // handler.
  void charge(long long units) {
    if (guard_.charge(units) != guard::TripReason::kNone)
      throw guard::CancelledError(guard_.tripped());
  }

  /// Every driver-side residual evaluation: charge, "flux" span, count,
  /// the residual fault sites, and the residual-evaluated detectors.
  bool eval_residual(const std::vector<double>& x, std::vector<double>& r,
                     const char* what) {
    charge(guard::kUnitsResidual);
    {
      F3D_OBS_SPAN("flux");
      problem_.residual(x, r);
    }
    ++s_.result.function_evaluations;
    if (resilience::fault_fires(resilience::FaultSite::kResidual)) {
      const auto* inj = resilience::active_injector();
      r[0] = (inj->fires(resilience::FaultSite::kResidual) % 2 == 0)
                 ? std::numeric_limits<double>::infinity()
                 : std::numeric_limits<double>::quiet_NaN();
    }
    const double sum_before = sdc_.checksum(r);
    // SDC site: a silent finite flip in the freshly evaluated residual —
    // transient corruption (the recompute-and-verify rung clears it).
    resilience::maybe_flip(resilience::FlipTarget::kResidual, r.data(), n_);
    if (!all_finite(r)) {
      nan_seen_ = true;
      s_.note(kDetectNanResidual, what);
      return false;
    }
    return sdc_.residual_evaluated(s_, r, sum_before, what);
  }

  /// Rebuild the preconditioner from the analytic first-order Jacobian
  /// plus the pseudo-time diagonal. False on a singular factorization.
  bool refresh_preconditioner() {
    charge(guard::kUnitsJacobian);
    {
      F3D_OBS_SPAN("jacobian");
      problem_.jacobian(x_, jac_);
    }
    for (int v = 0; v < nv_; ++v) {
      double* blk = jac_.find_block(v, v);
      F3D_CHECK(blk != nullptr);
      for (int c = 0; c < nb_; ++c) blk[c * nb_ + c] += diag_[v];
    }
    if (mat_single_) jac_f_ = jac_.convert<float>();
    sdc_.assembled(jac_, jac_f_, mat_single_, opts_.matrix_free);
    // SDC site: a silent flip in the assembled operator, after the
    // checksum rebuild (with matrix_free on, the flip only degrades the
    // preconditioner — a measured escape path). Strikes the storage the
    // Krylov products read.
    auto flip = [](auto& a) {
      resilience::maybe_flip(resilience::FlipTarget::kMatrix, a.val.data(),
                             static_cast<long long>(a.val.size()));
    };
    mat_single_ ? flip(jac_f_) : flip(jac_);
    charge(guard::kUnitsFactor);
    F3D_OBS_SPAN("factor");
    try {
      if (!prec_ && opts_.use_coarse_space)
        prec_ = std::make_unique<TwoLevelSchwarzPreconditioner>(
            jac_, partition_, opts_.schwarz);
      else if (!prec_)
        prec_ = std::make_unique<SchwarzPreconditioner>(jac_, partition_,
                                                        opts_.schwarz);
      else if (!recovery_.refactor(s_, *prec_, jac_))
        return false;
    } catch (const NumericalError& e) {
      s_.note(kDetectSingularFactor, e.what());
      return false;
    }
    s_.force_refresh = false;
    return true;
  }

  /// Relative FD step for the matrix-free Jacobian action.
  static constexpr double kFdEps = 1e-7;

  /// J_g = dr/dx + D: the matrix-free finite-difference action of the
  /// residual (§2.4: "the Jacobian itself is never explicitly needed"), or
  /// the assembled first-order Jacobian, which already carries D.
  LinearOperator jacobian_operator(bool& abft_failed) {
    LinearOperator op;
    op.n = n_;
    if (!opts_.matrix_free) {
      op.apply = [this, &abft_failed](const double* v, double* y) {
        if (mat_single_)
          jac_f_.spmv(v, y);
        else
          jac_.spmv(v, y);
        if (!sdc_.verify(v, y, n_)) abft_failed = true;
      };
      return op;
    }
    op.apply = [this, xnorm = sparse::norm2(x_)](const double* v, double* y) {
      double vnorm = 0;
      for (int i = 0; i < n_; ++i) vnorm += v[i] * v[i];
      vnorm = std::sqrt(vnorm);
      if (vnorm == 0) {
        std::fill(y, y + n_, 0.0);
        return;
      }
      const double eps = kFdEps * (1.0 + xnorm) / vnorm;
      for (int i = 0; i < n_; ++i) xw_[i] = x_[i] + eps * v[i];
      if (!eval_residual(xw_, work_, "matrix-free action")) {
        // Corrupted evaluation: the detection already dooms the attempt —
        // return a null action to keep the Krylov arithmetic finite on
        // the way down.
        std::fill(y, y + n_, 0.0);
        return;
      }
      for (int i = 0; i < n_; ++i) y[i] = (work_[i] - g0_[i]) / eps;
      for (int vtx = 0; vtx < nv_; ++vtx)
        for (int c = 0; c < nb_; ++c)
          y[static_cast<std::size_t>(vtx) * nb_ + c] +=
              diag_[vtx] * v[static_cast<std::size_t>(vtx) * nb_ + c];
    };
    return op;
  }

  NonlinearProblem& problem_;
  const PtcOptions& opts_;
  guard::SolveGuard& guard_;
  SolveState& s_;
  std::vector<double>& x_;
  const int n_, nb_, nv_;
  RecoveryPolicy recovery_;
  SdcPolicy sdc_;
  std::vector<double> r_, g0_, rhs_, dx_, work_, xw_, scale_, diag_, vols_;
  bool nan_seen_ = false;  ///< this attempt saw a non-finite residual
  sparse::Bcsr<double> jac_;
  // Float-storage copy of the assembled operator for mixed-precision
  // mode: stored float, products accumulate in double (promote-on-load).
  // Refreshed together with jac_; the preconditioner keeps factoring from
  // the double assembly (pair with schwarz.single_precision for float ILU
  // factors too).
  sparse::Bcsr<float> jac_f_;
  const bool mat_single_ = opts_.matrix_single_precision && !opts_.matrix_free;
  part::Partition partition_;
  std::unique_ptr<RefactorablePreconditioner> prec_;
};

// --- the psi-NKS core -------------------------------------------------------

/// §2.4's solver: SER continuation (§2.4.1) sets a pseudo-time diagonal,
/// each pseudo-timestep takes one inexact Newton-Krylov-Schwarz correction
/// (§2.4.2-3), and a backtracking line search globalizes it. Every
/// detector logs its event and returns false; the attempt loop decides
/// between abort and retry.
class PsiNks : NksSystem {
 public:
  using NksSystem::NksSystem;

  /// Runs the pseudo-time loop; true on a guard exit.
  bool run(guard::ProgressWatchdog& watchdog) {
    if (!checkpoint_.resume(s_)) {
      // The initial evaluation may itself be hit by a (transient) injected
      // fault; re-evaluating is the only recovery available before any
      // step state exists.
      for (int attempt = 0; !eval_residual(x_, r_, "initial residual");
           ++attempt) {
        recovery_.abort_unless_enabled(s_);
        F3D_NUMERIC_CHECK_MSG(attempt < 3, "non-finite initial residual");
      }
      s_.rnorm = sparse::norm2(r_);
      s_.result.initial_residual = s_.rnorm;
      s_.r0 = s_.rnorm > 0 ? s_.rnorm : 1.0;
    }
    // The entry state is the first committed iterate: a trip before any
    // accepted step returns it unchanged.
    s_.x_commit = x_;
    s_.rnorm_commit = s_.rnorm;

    // Jacobian + Schwarz preconditioner, built lazily on the first step.
    jac_ = problem_.allocate_jacobian();
    partition_ = opts_.partition;
    if (partition_.nparts == 0) {
      F3D_OBS_SPAN("partition");
      partition_ =
          part::kway_grow(graph_from_jacobian(jac_), opts_.num_subdomains);
    }
    F3D_CHECK(partition_.nparts == opts_.num_subdomains);

    for (int step = s_.result.resume_step;
         step < opts_.max_steps && s_.rnorm / s_.r0 > opts_.rtol; ++step) {
      s_.step = step;
      // Guard exit between steps: a trip observed at a charge point that
      // exits cleanly (Krylov iteration boundary) rather than by throwing.
      if (guard_.tripped() != guard::TripReason::kNone) return true;
      degrade_.step_begin(s_, guard_);
      problem_.on_step(step, s_.rnorm / s_.r0);
      // SDC site: a silent flip in the committed state vector. Deliberately
      // BEFORE the step-rejection snapshot below — the corruption is
      // persistent (recompute retries restart from the same poisoned
      // x_step), so only the rollback rung can clear it.
      resilience::maybe_flip(resilience::FlipTarget::kState, x_.data(), n_);
      if (!sdc_.step_begin(s_, problem_)) {
        recovery_.abort_unless_enabled(s_);
        sdc_.rollback(s_);
      }

      // Rollback state for the recovery ladder: a rejected attempt
      // restores the step-entry iterate exactly.
      const std::vector<double> x_step = x_;
      const double rnorm_step = s_.rnorm;
      PtcStepRecord rec;
      rec.step = step;
      for (int attempt = 0;; ++attempt) {
        nan_seen_ = false;
        sdc_.flagged = false;
        // SER continuation, scaled by the ladder's backtrack multiplier.
        rec.cfl = std::min(opts_.cfl_max,
                           opts_.cfl0 *
                               std::pow(s_.r0 / s_.rnorm, opts_.ser_exponent) *
                               s_.cfl_relax);
        if (attempt_step(rec, rnorm_step)) break;
        // Guard exits outrank the recovery ladder, so a budget trip works
        // with recovery disabled too.
        if (guard_.tripped() != guard::TripReason::kNone) return true;
        recovery_.abort_unless_enabled(s_);
        // Reject: roll back, rebuild the preconditioner at the restored
        // state, and climb the SDC rungs (corrupt data) or shrink the
        // pseudo-timestep (bad numerics).
        ++rec.rejections;
        x_ = x_step;
        s_.rnorm = rnorm_step;
        recovery_.reject(s_, attempt);
        s_.force_refresh = true;
        if (sdc_.flagged)
          sdc_.reject(s_, attempt);
        else
          recovery_.backtrack(s_);
      }

      rec.residual = s_.rnorm;
      s_.result.history.push_back(rec);
      ++s_.result.steps;
      recovery_.step_commit(s_);
      checkpoint_.step_commit(s_);
      s_.x_commit = x_;
      s_.rnorm_commit = s_.rnorm;

      // Progress watchdog over accepted-step residuals: a window that ends
      // no lower than stall_ratio x where it began is a livelock-style
      // stall the per-rung watchdogs cannot see (every individual step
      // looks healthy). Deterministic — no wall clock involved.
      if (watchdog.observe(s_.rnorm)) {
        s_.note(kDetectStall, "residual stalled across " +
                                  std::to_string(opts_.guard.watchdog.window) +
                                  " accepted step(s)");
        break;
      }
    }
    return false;
  }

 private:
  /// One attempt at the current pseudo-timestep with CFL rec.cfl. False on
  /// a detection or a guard trip; on success x and rnorm are committed.
  bool attempt_step(PtcStepRecord& rec, double rnorm_step) {
    charge(guard::kUnitsResidual);
    problem_.timestep_scale(x_, scale_);
    ++s_.result.function_evaluations;  // spectral radius pass ~ a flux pass
    // D = diag over vertices of V_i / dt_i; with dt_i = cfl * V_i / sr_i
    // this is sr_i / cfl = V_i / (cfl * scale_i).
    for (int v = 0; v < nv_; ++v) {
      F3D_CHECK(scale_[v] > 0 && vols_[v] > 0);
      diag_[v] = vols_[v] / (rec.cfl * scale_[v]);
    }
    if (!newton_correction(rec)) return false;
    line_search(rec);
    if (nan_seen_ || sdc_.flagged) return false;
    if (!eval_residual(x_, r_, "step residual")) return false;
    const double rnorm_new = sparse::norm2(r_);
    if (!std::isfinite(rnorm_new)) {
      s_.note(kDetectNanResidual, "non-finite step residual norm");
      return false;
    }
    if (recovery_.diverged(s_, rnorm_new, rnorm_step) ||
        !sdc_.admissible(s_, problem_))
      return false;
    s_.rnorm = rnorm_new;
    return true;
  }

  /// One inexact Newton correction: dx solves J_g dx = -g(x) with
  /// g(x) = r(x) + D (x - x_step_start) — at the first Newton iterate the
  /// pseudo-time term vanishes, so g(x) = r(x).
  bool newton_correction(PtcStepRecord& rec) {
    if (!eval_residual(x_, g0_, "newton rhs")) return false;
    if ((!prec_ || s_.force_refresh ||
         (s_.step % std::max(1, s_.jacobian_refresh)) == 0) &&
        !refresh_preconditioner())
      return false;

    bool abft_failed = false;
    const LinearOperator op = jacobian_operator(abft_failed);
    for (int i = 0; i < n_; ++i) rhs_[i] = -g0_[i];
    std::fill(dx_.begin(), dx_.end(), 0.0);
    bool drift = false;
    {
      F3D_OBS_SPAN("krylov");
      recovery_.new_system();
      for (;;) {
        const LinearResult lin = krylov_solve(s_.krylov, op, *prec_, rhs_, dx_,
                                              s_.gmres, opts_.sdc.enabled);
        rec.linear_iterations += lin.iterations;
        rec.linear_converged = lin.converged;
        rec.linear_breakdown |= lin.breakdown;
        rec.linear_stagnated |= lin.stagnated;
        s_.result.total_linear_iterations += lin.iterations;
        s_.result.counters += lin.counters;
        s_.result.krylov_breakdowns += lin.breakdown ? 1 : 0;
        drift |= lin.sdc_suspected;
        if (!recovery_.retry_linear(s_, lin)) break;
        std::fill(dx_.begin(), dx_.end(), 0.0);
      }
    }
    // Guard trip inside the Krylov solve: abandon the attempt before the
    // line search touches x.
    if (guard_.tripped() != guard::TripReason::kNone || nan_seen_) return false;
    if (!sdc_.linear_result(s_, abft_failed, drift) || sdc_.flagged)
      return false;
    if (!all_finite(dx_)) {
      s_.note(kDetectDivergence, "non-finite Newton correction");
      return false;
    }
    return true;
  }

  /// Backtracking halvings of the line search (0 = plain Newton).
  static constexpr int kMaxLineSearch = 3;

  /// Backtracking line search on ||g|| (globalization; §2.4's "line
  /// search" knob). g at trial x' uses the same pseudo-time anchor.
  void line_search(PtcStepRecord& rec) {
    double lambda = 1.0;
    const double gnorm0 = sparse::norm2(g0_);
    for (int ls = 0; ls <= kMaxLineSearch; ++ls) {
      for (int i = 0; i < n_; ++i) xw_[i] = x_[i] + lambda * dx_[i];
      eval_residual(xw_, work_, "line search");
      for (int vtx = 0; vtx < nv_; ++vtx)
        for (int c = 0; c < nb_; ++c) {
          const std::size_t k = static_cast<std::size_t>(vtx) * nb_ + c;
          work_[k] += diag_[vtx] * (xw_[k] - x_[k]);
        }
      const double gnorm = sparse::norm2(work_);
      if (gnorm <= (1.0 - 1e-4 * lambda) * gnorm0 ||
          ls == kMaxLineSearch) {
        x_ = xw_;
        rec.line_search_lambda = lambda;
        return;
      }
      lambda *= 0.5;
    }
  }

  DegradePolicy degrade_{opts_.guard.degrade, opts_.guard.degrade.enabled &&
                                                 opts_.guard.budget.bounded()};
  CheckpointPolicy checkpoint_{opts_.recovery, opts_.fault_injector};
};

// The solve under the run-to-completion contract. Wrapped by ptc_solve()
// below, which owns the root trace span and the env-requested trace flush.
PtcResult ptc_solve_impl(NonlinearProblem& problem, std::vector<double>& x,
                         const PtcOptions& opts) {
  F3D_CHECK(static_cast<int>(x.size()) == problem.num_unknowns());
  F3D_CHECK(opts.num_subdomains >= 1);
  // Register the fault injector for the duration of the solve so the
  // instrumented sites deep in the stack (ILU factorization, Krylov inner
  // loops) see it without threading it through every signature.
  resilience::InjectorScope injector_scope(opts.fault_injector);

  // Run-to-completion contract: the guard is always constructed (an
  // unbounded budget never trips, so the plain path is unchanged) and
  // registered for this thread so exec chunk boundaries, Krylov
  // iterations, Schwarz subdomain loops, and the cfd kernels can poll it.
  const PtcGuardOptions& gopts = opts.guard;
  guard::SolveGuard sguard(gopts.budget);
  guard::GuardScope guard_scope(&sguard);
  guard::ProgressWatchdog stall_watchdog(gopts.watchdog);

  PtcResult result;
  SolveState s(x, result, opts);
  bool fault_captured = false;
  bool guard_exit = false;

  // A CancelledError thrown from any charge or poll point (driver charges,
  // exec chunk boundaries, Schwarz subdomain loops, cfd kernel entries)
  // unwinds to the handler below: the best committed state is restored,
  // and the exit is mapped onto the verdict taxonomy — never propagated to
  // the caller.
  try {
    guard_exit = PsiNks(problem, opts, sguard, s).run(stall_watchdog);
  } catch (const guard::CancelledError&) {
    // The in-flight attempt is discarded; the best committed iterate is
    // the contract's return value.
    x = s.x_commit;
    s.rnorm = s.rnorm_commit;
    guard_exit = true;
  } catch (const NumericalError& e) {
    if (!gopts.capture_faults) throw;
    // Opted-in graceful fault capture: an exhausted recovery ladder (or a
    // plain-path abort) still returns the best committed state, graded,
    // instead of losing the whole solve.
    fault_captured = true;
    x = s.x_commit;
    s.rnorm = s.rnorm_commit;
    result.recovery_log.add(s.step, RecoveryAction::kGuardTrip,
                            std::string("fault captured: ") + e.what());
  }
  const double rnorm = s.rnorm;
  const double r0 = s.r0;
  const int cur_step = s.step;

  // Exit taxonomy + quality grade. disarm() first: the grading scan below
  // may fan out on the exec pool, whose poll points must not cancel the
  // exit path itself.
  sguard.disarm();
  result.final_residual = rnorm;
  result.converged = rnorm / r0 <= opts.rtol;
  result.work_units = sguard.work_units();
  result.trip = sguard.tripped();
  result.cancel_latency_units = sguard.latency_units();
  result.watchdog_fired = result.watchdog_fired || stall_watchdog.fired();
  if (guard_exit && result.trip != guard::TripReason::kNone)
    result.recovery_log.add(
        cur_step, RecoveryAction::kGuardTrip,
        std::string(guard::trip_reason_name(result.trip)) + " after " +
            std::to_string(result.work_units) + " work unit(s)");

  if (result.converged)
    result.verdict = guard::SolveVerdict::kConverged;
  else if (fault_captured)
    result.verdict = guard::SolveVerdict::kFaultUnrecoverable;
  else if (result.watchdog_fired)
    result.verdict = guard::SolveVerdict::kStagnated;
  else if (result.trip == guard::TripReason::kCancelled)
    result.verdict = guard::SolveVerdict::kCancelled;
  else if (result.trip != guard::TripReason::kNone)
    result.verdict = guard::SolveVerdict::kDeadline;
  else
    result.verdict = guard::SolveVerdict::kMaxIters;

  result.residual_drop_orders =
      (r0 > 0 && rnorm > 0 && std::isfinite(rnorm))
          ? std::log10(r0 / rnorm)
          : 0.0;
  {
    F3D_OBS_SPAN("admissibility");
    result.best_state_admissible = problem.admissible(x);
  }
  return result;
}

}  // namespace

PtcResult ptc_solve(NonlinearProblem& problem, std::vector<double>& x,
                    const PtcOptions& opts) {
  PtcResult result;
  try {
    obs::Span root("ptc_solve");
    result = ptc_solve_impl(problem, x, opts);
  } catch (...) {
    // Abnormal exit (plain-path numerical abort, harness error): the
    // buffered spans and counters are exactly the postmortem evidence —
    // flush them before the exception leaves, or the trace dies with the
    // solve.
    obs::Registry::global().count("solver.ptc.aborts");
    obs::flush_env_trace();
    throw;
  }
  // Fold the solve's tallies into the process-wide registry so trace
  // files and bench reports can embed them next to the span timeline.
  // Recovery events are already counted as resilience.<action> by
  // RecoveryLog::add.
  auto& reg = obs::Registry::global();
  reg.count("solver.ptc.steps", result.steps);
  reg.count("solver.ptc.function_evaluations", result.function_evaluations);
  reg.count("solver.krylov.iterations", result.total_linear_iterations);
  reg.count("solver.krylov.breakdowns", result.krylov_breakdowns);
  reg.count(std::string("guard.verdict.") +
            guard::verdict_name(result.verdict));
  if (result.cancel_latency_units > 0)
    reg.count("guard.cancel_latency_units", result.cancel_latency_units);
  // Writes the Chrome trace iff the F3D_TRACE environment variable asked
  // for one; a plain set_tracing(true) caller drains the tracer itself.
  obs::flush_env_trace();
  return result;
}

}  // namespace f3d::solver
