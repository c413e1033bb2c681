#pragma once
// Linear-solver interfaces: operator action (possibly matrix-free, as in
// the paper's "matrix-free implementation" where the true Jacobian is
// only ever applied, never formed) and right preconditioning.

#include <functional>
#include <string>
#include <vector>

#include "resilience/recovery.hpp"
#include "sparse/csr.hpp"

namespace f3d::solver {

/// A square linear operator given by its action y = A x.
struct LinearOperator {
  int n = 0;
  std::function<void(const double* x, double* y)> apply;
};

/// Right preconditioner interface: z = M^{-1} r.
class Preconditioner {
public:
  virtual ~Preconditioner() = default;
  virtual void apply(const double* r, double* z) const = 0;
  [[nodiscard]] virtual int n() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// A preconditioner whose numeric values can be rebuilt from a new matrix
/// with unchanged sparsity (Jacobian refresh between Newton steps).
class RefactorablePreconditioner : public Preconditioner {
public:
  virtual void refactor(const sparse::Bcsr<double>& a) = 0;

  /// Non-throwing refresh for the resilient solver path: a singular
  /// factorization is answered with an escalating Manteuffel-style
  /// diagonal shift (up to `max_attempts` rungs of x10 from `shift0`,
  /// relative to the diagonal scale) instead of an abort. Returns false
  /// only if even the ladder failed; `report` (optional) records what was
  /// needed.
  virtual bool refactor_checked(const sparse::Bcsr<double>& a, double shift0,
                                int max_attempts,
                                resilience::FactorReport* report) = 0;
};

/// Identity (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
public:
  explicit IdentityPreconditioner(int n) : n_(n) {}
  void apply(const double* r, double* z) const override {
    for (int i = 0; i < n_; ++i) z[i] = r[i];
  }
  [[nodiscard]] int n() const override { return n_; }
  [[nodiscard]] std::string name() const override { return "none"; }

private:
  int n_;
};

/// Operation counters the parallel performance model consumes: every
/// global reduction (dot/norm) is a synchronization point on a real
/// machine (paper Table 3 decomposes exactly these costs).
struct SolveCounters {
  long long matvecs = 0;
  long long prec_applies = 0;
  long long dots = 0;    ///< global reductions
  long long axpys = 0;   ///< local vector updates

  SolveCounters& operator+=(const SolveCounters& o) {
    matvecs += o.matvecs;
    prec_applies += o.prec_applies;
    dots += o.dots;
    axpys += o.axpys;
    return *this;
  }
};

}  // namespace f3d::solver
