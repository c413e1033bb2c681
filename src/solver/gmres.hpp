#pragma once
// Restarted GMRES(m) with right preconditioning — the paper's Krylov
// solver (GMRES(20) in Table 4; restart dimension is one of the §2.4.2
// tuning parameters, typical range 10-30).

#include <string>
#include <vector>

#include "solver/linear.hpp"

namespace f3d::tune {
class Registry;
}

namespace f3d::solver {

enum class Orthogonalization {
  kModifiedGramSchmidt,   ///< numerically robust default
  kClassicalGramSchmidt,  ///< fewer synchronization points (one fused
                          ///< reduction per iteration on a parallel
                          ///< machine) — the paper's "orthogonalization
                          ///< mechanism" tuning knob
};

struct GmresOptions {
  double rtol = 1e-3;       ///< relative residual tolerance
  int max_iters = 200;      ///< total Krylov iterations across restarts
  int restart = 20;         ///< Krylov subspace dimension
  Orthogonalization orth = Orthogonalization::kModifiedGramSchmidt;

  // Krylov invariant monitor (SDC watchdog): at each restart the cycle
  // recomputes the TRUE residual ||b - Ax|| anyway; in exact arithmetic
  // it equals the previous cycle's recurrence estimate |g_{j+1}|. A
  // silent bit flip in the basis, the Hessenberg, or x breaks that
  // identity. When sdc_drift_tol > 0 and the relative gap between the
  // two exceeds it, the result is flagged sdc_suspected (the solve still
  // runs to completion — the psi-NKS ladder decides what to do). 0
  // disables the check. The comparison reuses an existing matvec, so the
  // monitor is free.
  double sdc_drift_tol = 0;

  /// Register the §2.4.2 tuning parameters (restart length, inexactness
  /// tolerance, iteration cap, orthogonalization mechanism) into the flat
  /// tuning space under `prefix`. The registry borrows this struct: it
  /// must outlive the registry.
  void bind(tune::Registry& reg, const std::string& prefix = "gmres.");
};

struct GmresResult {
  bool converged = false;
  bool stagnated = false;   ///< stopped by the stagnation watchdog
  bool sdc_suspected = false;  ///< recurrence/true-residual drift exceeded
                               ///< sdc_drift_tol (silent corruption likely)
  bool guard_tripped = false;  ///< budget/cancel trip ended the solve early
  int iterations = 0;
  double initial_residual = 0;
  double final_residual = 0;
  double sdc_drift = 0;     ///< worst relative recurrence drift observed
  std::string reason;       ///< empty on success; why the solve stopped
  SolveCounters counters;
};

/// Solve A x = b; x holds the initial guess on entry and the solution on
/// exit. Right-preconditioned: residuals reported are true (unpreconditioned)
/// residual estimates from the Arnoldi recurrence.
///
/// Stagnation watchdog: a restart cycle that fails to reduce the residual
/// below 0.9999 x the previous cycle's counts as stagnant; after 2
/// consecutive stagnant cycles the solve stops with stagnated set and a
/// reason string instead of silently burning the rest of max_iters.
///
/// Run-to-completion guard (f3d::guard): while the calling thread has an
/// active guard (guard::GuardScope), every iteration charges
/// guard::kUnitsKrylovIter; a budget/cancel trip ends the solve cleanly at
/// the next iteration boundary with guard_tripped set (bounded,
/// deterministic cancellation latency).
GmresResult gmres(const LinearOperator& a, const Preconditioner& m,
                  const std::vector<double>& b, std::vector<double>& x,
                  const GmresOptions& opts);

}  // namespace f3d::solver
