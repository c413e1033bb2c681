#pragma once
// Incomplete LU factorization with level-of-fill — ILU(k) — in point
// (AIJ) and block (BAIJ) variants, the paper's subdomain solver (§2.4.3,
// Table 4: k = 0, 1, 2).
//
// The symbolic phase is shared: level-of-fill on the (block) sparsity
// graph. The numeric phase always computes in double; the factors may be
// *stored* in float for the paper's single-precision-preconditioner
// experiment (§2.2, Table 2) — the triangular solves then read float
// operands but accumulate in double, halving the memory traffic of the
// bandwidth-bound solve at no observed cost in convergence.
//
// The block factor is refactored in place (BlockIlu::refactor): a
// Jacobian refresh writes into the storage the factor already owns, so
// the resident factor, the storage lever above, is one buffer per
// subdomain for the preconditioner's whole life.

#include <vector>

#include "sparse/csr.hpp"

namespace f3d::sparse {

/// Combined L+U sparsity with diagonal positions. For block ILU the
/// indices are block rows/cols.
struct IluPattern {
  int n = 0;
  std::vector<int> ptr;
  std::vector<int> col;   ///< ascending within each row
  std::vector<int> diag;  ///< position of (i, i) within row i

  [[nodiscard]] std::size_t nnz() const { return col.size(); }
};

/// Level-of-fill symbolic factorization on an arbitrary CSR sparsity
/// (must contain the diagonal). level == 0 returns the input pattern.
IluPattern ilu_symbolic(int n, const std::vector<int>& aptr,
                        const std::vector<int>& acol, int level);

namespace detail {
/// One triangular-solve row update: s0 minus the row's partial dot with
/// x, promoted to double. Scalar path subtracts term by term (the seed
/// kernel, unchanged); SIMD path strip-mines through
/// row_dot_promote_simd and subtracts once.
template <class S>
[[nodiscard]] inline double tri_row_reduce(bool use_simd, const S* val,
                                           const int* col, int count,
                                           const double* x, double s0) {
  if (use_simd) return s0 - row_dot_promote_simd(val, col, count, x);
  for (int k = 0; k < count; ++k)
    s0 -= static_cast<double>(val[k]) * x[col[k]];
  return s0;
}
}  // namespace detail

/// Point ILU factors, storage scalar S (double or float).
template <class S>
struct PointIlu {
  IluPattern pat;
  std::vector<S> val;

  /// x = (LU)^{-1} b, double arithmetic.
  void solve(const double* b, double* x) const {
    const bool use_simd = simd::enabled();
    const int n = pat.n;
    const S* v = val.data();
    const int* c = pat.col.data();
    for (int i = 0; i < n; ++i) {
      const int p0 = pat.ptr[i];
      x[i] = detail::tri_row_reduce(use_simd, v + p0, c + p0,
                                    pat.diag[i] - p0, x, b[i]);
    }
    for (int i = n - 1; i >= 0; --i) {
      const int p0 = pat.diag[i] + 1;
      const double s = detail::tri_row_reduce(use_simd, v + p0, c + p0,
                                              pat.ptr[i + 1] - p0, x, x[i]);
      x[i] = s / static_cast<double>(v[pat.diag[i]]);
    }
  }

  void solve(const std::vector<double>& b, std::vector<double>& x) const {
    x.resize(b.size());
    solve(b.data(), x.data());
  }
};

/// Outcome of a numeric factorization when requested through the
/// non-throwing path. `bad_row` is the first (block) row whose pivot was
/// zero/singular; the returned factors are only valid up to that row.
struct IluFactorStatus {
  bool ok = true;
  int bad_row = -1;
};

/// Block ILU factors; diagonal blocks are stored as their in-place LU
/// factorizations.
template <class S>
struct BlockIlu {
  int nb = 0;
  IluPattern pat;
  std::vector<S> val;  ///< nb*nb per pattern entry

  /// Numeric factorization of `a` (nb == a.nb, sparsity within `pat`)
  /// into this factor's own `val`, which is sized once and then reused:
  /// every pattern entry is rewritten (A's block or zeros, then the
  /// elimination), so a refresh leaks nothing from the previous factor
  /// and is byte-identical to a fresh ilu_factor_block. Double storage
  /// factors straight into `val`; float storage factors into a double
  /// temporary that lives for this call and narrows into `val`.
  /// Status and throw contract as ilu_factor_block.
  void refactor(const Bcsr<double>& a, IluFactorStatus* status = nullptr);

  void solve(const double* b, double* x) const;
  void solve(const std::vector<double>& b, std::vector<double>& x) const {
    x.resize(b.size());
    solve(b.data(), x.data());
  }
};

/// Numeric point factorization of A on `pat` (pattern from ilu_symbolic of
/// A's sparsity). Computes in double, stores in S. With `status == nullptr`
/// a zero pivot throws f3d::NumericalError; with a status out-param the
/// call never throws on numerical failure — the resilient solver paths use
/// that to climb a diagonal-shift ladder instead of aborting.
template <class S = double>
PointIlu<S> ilu_factor_point(const Csr<double>& a, const IluPattern& pat,
                             IluFactorStatus* status = nullptr);

/// Numeric block factorization (same status contract as the point
/// variant): copies `pat` into a new factor, then BlockIlu::refactor.
template <class S = double>
BlockIlu<S> ilu_factor_block(const Bcsr<double>& a, const IluPattern& pat,
                             IluFactorStatus* status = nullptr);

/// Convenience: symbolic on a matrix's own sparsity.
IluPattern ilu_symbolic(const Csr<double>& a, int level);
IluPattern ilu_symbolic(const Bcsr<double>& a, int level);

}  // namespace f3d::sparse
