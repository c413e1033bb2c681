#include "solver/bicgstab.hpp"

#include <cmath>

#include "common/error.hpp"
#include "guard/guard.hpp"
#include "obs/obs.hpp"
#include "resilience/bitflip.hpp"
#include "resilience/faults.hpp"
#include "sparse/vec.hpp"

namespace f3d::solver {

namespace {
constexpr double kAtol = 1e-50;  ///< absolute residual floor
}  // namespace

BicgstabResult bicgstab(const LinearOperator& a, const Preconditioner& m,
                        const std::vector<double>& b, std::vector<double>& x,
                        const BicgstabOptions& opts) {
  using sparse::Vec;
  const int n = a.n;
  F3D_CHECK(static_cast<int>(b.size()) == n &&
            static_cast<int>(x.size()) == n && m.n() == n);

  BicgstabResult res;
  Vec r(n), r0(n), p(n, 0.0), v(n, 0.0), s(n), t(n), phat(n), shat(n);

  a.apply(x.data(), r.data());
  ++res.counters.matvecs;
  for (int i = 0; i < n; ++i) r[i] = b[i] - r[i];
  r0 = r;
  double rnorm = sparse::norm2(r);
  ++res.counters.dots;
  res.initial_residual = rnorm;
  const double target = std::max(kAtol, opts.rtol * rnorm);

  guard::SolveGuard* const sguard = guard::active_guard();
  double rho_prev = 1, alpha = 1, omega = 1;
  while (res.iterations < opts.max_iters && rnorm > target) {
    // Budget charge at the iteration boundary: the deterministic trip
    // point for bounded cancellation latency.
    if (sguard != nullptr &&
        sguard->charge(guard::kUnitsKrylovIter) != guard::TripReason::kNone) {
      res.guard_tripped = true;
      break;
    }
    // Fault-injection site: forced rho collapse (breakdown) at the top of
    // the iteration.
    if (resilience::fault_fires(resilience::FaultSite::kBicgstab)) {
      res.breakdown = true;
      break;
    }
    const double rho = sparse::dot(r0, r);
    ++res.counters.dots;
    if (std::abs(rho) < 1e-300) {
      res.breakdown = true;
      break;
    }
    if (res.iterations == 0) {
      p = r;
    } else {
      const double beta = (rho / rho_prev) * (alpha / omega);
      for (int i = 0; i < n; ++i) p[i] = r[i] + beta * (p[i] - omega * v[i]);
      res.counters.axpys += 2;
    }
    m.apply(p.data(), phat.data());
    ++res.counters.prec_applies;
    a.apply(phat.data(), v.data());
    ++res.counters.matvecs;
    // SDC site: a silent finite-value flip in the fresh Krylov direction
    // (caught by the periodic true-residual check, not by any NaN guard).
    resilience::maybe_flip(resilience::FlipTarget::kKrylov, v.data(), n);
    const double r0v = sparse::dot(r0, v);
    ++res.counters.dots;
    if (std::abs(r0v) < 1e-300) {
      res.breakdown = true;
      break;
    }
    alpha = rho / r0v;
    for (int i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    ++res.counters.axpys;

    const double snorm = sparse::norm2(s);
    ++res.counters.dots;
    if (snorm <= target) {
      sparse::axpy(alpha, phat, x);
      ++res.counters.axpys;
      rnorm = snorm;
      ++res.iterations;
      break;
    }

    m.apply(s.data(), shat.data());
    ++res.counters.prec_applies;
    a.apply(shat.data(), t.data());
    ++res.counters.matvecs;
    const double tt = sparse::dot(t, t);
    const double ts = sparse::dot(t, s);
    res.counters.dots += 2;
    if (tt == 0) {
      res.breakdown = true;
      break;
    }
    omega = ts / tt;
    if (std::abs(omega) < 1e-300) {
      res.breakdown = true;
      break;
    }
    for (int i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
    }
    res.counters.axpys += 3;
    rnorm = sparse::norm2(r);
    ++res.counters.dots;
    rho_prev = rho;
    ++res.iterations;

    // Krylov invariant monitor: the short recurrence's r and the true
    // residual b - Ax agree to rounding unless something was silently
    // corrupted. Costs a matvec, so only every true_residual_every iters.
    if (opts.true_residual_every > 0 && opts.sdc_drift_tol > 0 &&
        res.iterations % opts.true_residual_every == 0) {
      a.apply(x.data(), t.data());
      ++res.counters.matvecs;
      for (int i = 0; i < n; ++i) t[i] = b[i] - t[i];
      const double true_norm = sparse::norm2(t);
      ++res.counters.dots;
      const double scale = std::max(rnorm, true_norm);
      const double drift =
          scale > 0 ? std::abs(true_norm - rnorm) / scale : 0.0;
      res.sdc_drift = std::max(res.sdc_drift, drift);
      if (drift > opts.sdc_drift_tol || !std::isfinite(true_norm))
        res.sdc_suspected = true;
    }
  }

  // Exit drift check: a solve shorter than true_residual_every iterations
  // never meets the periodic monitor above, and even a long one can be
  // corrupted after its last check. One extra matvec closes both windows.
  // Rounding-level residuals are skipped — estimate and truth legitimately
  // part ways there.
  if (opts.sdc_drift_tol > 0 && res.iterations > 0 && !res.breakdown &&
      !res.guard_tripped) {
    a.apply(x.data(), t.data());
    ++res.counters.matvecs;
    for (int i = 0; i < n; ++i) t[i] = b[i] - t[i];
    const double true_norm = sparse::norm2(t);
    ++res.counters.dots;
    const double scale = std::max(rnorm, true_norm);
    if (scale > 1e-14 * res.initial_residual) {
      const double drift = scale > 0 ? std::abs(true_norm - rnorm) / scale : 0;
      res.sdc_drift = std::max(res.sdc_drift, drift);
      if (drift > opts.sdc_drift_tol || !std::isfinite(true_norm))
        res.sdc_suspected = true;
    }
  }
  res.final_residual = rnorm;
  res.converged = rnorm <= target;
  auto& reg = obs::Registry::global();
  reg.count("solver.bicgstab.iterations", res.iterations);
  if (res.breakdown) reg.count("solver.bicgstab.breakdowns");
  if (res.sdc_suspected) reg.count("solver.bicgstab.sdc_suspected");
  return res;
}

}  // namespace f3d::solver
