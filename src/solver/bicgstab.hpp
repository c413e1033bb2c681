#pragma once
// Preconditioned BiCGSTAB — the short-recurrence alternative to GMRES(m)
// PETSc offers for nonsymmetric systems. Constant memory (no Krylov basis
// to store, cf. §2.4.2's "Krylov subspace dimension depends largely on
// the problem size and the available memory"), two matvecs and two
// preconditioner applies per iteration; convergence is less monotone
// than GMRES but needs no restart tuning.

#include <vector>

#include "solver/linear.hpp"

namespace f3d::solver {

struct BicgstabOptions {
  double rtol = 1e-3;
  int max_iters = 200;

  // Krylov invariant monitor (SDC watchdog): every true_residual_every
  // iterations recompute the TRUE residual ||b - Ax|| and compare it to
  // the short recurrence's r. The two drifting apart relatively by more
  // than sdc_drift_tol flags sdc_suspected. Unlike the GMRES monitor this
  // costs one extra matvec per check; 0 in either field disables it.
  int true_residual_every = 0;
  double sdc_drift_tol = 0;
};

struct BicgstabResult {
  bool converged = false;
  int iterations = 0;  ///< full BiCGSTAB iterations (2 matvecs each)
  double initial_residual = 0;
  double final_residual = 0;
  bool breakdown = false;  ///< rho or omega collapsed
  bool guard_tripped = false;  ///< budget/cancel trip ended the solve early
  bool sdc_suspected = false;  ///< true-residual check exceeded sdc_drift_tol
  double sdc_drift = 0;        ///< worst relative drift observed
  SolveCounters counters;
};

/// Solve A x = b with right preconditioning; x carries the initial guess.
/// While the calling thread has an active guard (guard::GuardScope), every
/// iteration charges guard::kUnitsKrylovIter; a budget/cancel trip ends
/// the solve cleanly at the next iteration boundary with guard_tripped set.
BicgstabResult bicgstab(const LinearOperator& a, const Preconditioner& m,
                        const std::vector<double>& b, std::vector<double>& x,
                        const BicgstabOptions& opts);

}  // namespace f3d::solver
