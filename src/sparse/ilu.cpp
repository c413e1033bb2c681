#include "sparse/ilu.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>

#include "common/densemat.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace f3d::sparse {

IluPattern ilu_symbolic(int n, const std::vector<int>& aptr,
                        const std::vector<int>& acol, int level) {
  F3D_CHECK(level >= 0);
  IluPattern pat;
  pat.n = n;
  pat.ptr.assign(n + 1, 0);
  pat.diag.assign(n, -1);

  // U-part (cols > k) of each processed row, with fill levels, needed by
  // later rows.
  std::vector<std::vector<std::pair<int, int>>> urow(n);

  std::vector<int> cols_out;
  cols_out.reserve(acol.size() * 2);

  // Workspace: ordered col -> level map for the current row.
  std::map<int, int> w;
  for (int i = 0; i < n; ++i) {
    w.clear();
    bool has_diag = false;
    for (int p = aptr[i]; p < aptr[i + 1]; ++p) {
      w.emplace(acol[p], 0);
      if (acol[p] == i) has_diag = true;
    }
    F3D_CHECK_MSG(has_diag, "ILU requires a structurally nonzero diagonal");

    // Merge fill contributions from all k < i present in the (growing)
    // workspace, ascending. std::map iteration stays valid under inserts.
    for (auto it = w.begin(); it != w.end() && it->first < i; ++it) {
      const int k = it->first;
      const int lev_ik = it->second;
      for (const auto& [j, lev_kj] : urow[k]) {
        const int lev = lev_ik + lev_kj + 1;
        if (lev > level) continue;
        auto [jt, inserted] = w.emplace(j, lev);
        if (!inserted && jt->second > lev) jt->second = lev;
      }
    }

    pat.ptr[i + 1] = pat.ptr[i] + static_cast<int>(w.size());
    for (const auto& [j, lev] : w) {
      if (j == i) pat.diag[i] = static_cast<int>(cols_out.size());
      if (j > i) urow[i].push_back({j, lev});
      cols_out.push_back(j);
    }
    F3D_CHECK(pat.diag[i] >= 0);
  }
  pat.col = std::move(cols_out);
  return pat;
}

IluPattern ilu_symbolic(const Csr<double>& a, int level) {
  return ilu_symbolic(a.n, a.ptr, a.col, level);
}

IluPattern ilu_symbolic(const Bcsr<double>& a, int level) {
  return ilu_symbolic(a.nrows, a.ptr, a.col, level);
}

namespace {

// Report a zero pivot at `row`: records it when the caller passed a
// status, throws NumericalError otherwise. Returns true when the caller
// should stop factoring.
bool pivot_failure(IluFactorStatus* status, int row) {
  if (status != nullptr) {
    status->ok = false;
    status->bad_row = row;
    return true;
  }
  F3D_NUMERIC_CHECK_MSG(false, "zero pivot in ILU at row " + std::to_string(row));
  return true;  // unreachable
}

// Shared numeric point ILU in double; callers cast to the storage scalar.
std::vector<double> factor_point_double(const Csr<double>& a,
                                        const IluPattern& pat,
                                        IluFactorStatus* status) {
  F3D_OBS_SPAN("ilu.factor");
  obs::Registry::global().count("sparse.ilu.factorizations");
  F3D_CHECK(a.n == pat.n);
  const int n = pat.n;
  std::vector<double> val(pat.nnz(), 0.0);

  // Scatter A into the (superset) pattern.
  for (int i = 0; i < n; ++i) {
    int q = pat.ptr[i];
    for (int p = a.ptr[i]; p < a.ptr[i + 1]; ++p) {
      const int j = a.col[p];
      while (pat.col[q] < j) ++q;
      F3D_CHECK_MSG(pat.col[q] == j, "pattern does not contain A");
      val[q] = a.val[p];
    }
  }

  for (int i = 0; i < n; ++i) {
    for (int pos = pat.ptr[i]; pos < pat.diag[i]; ++pos) {
      const int k = pat.col[pos];
      const double ukk = val[pat.diag[k]];
      if (ukk == 0.0 && pivot_failure(status, k)) return val;
      const double lik = val[pos] / ukk;
      val[pos] = lik;
      // Row update: row_i -= lik * U-part of row k (pattern-restricted).
      int r = pos + 1;
      for (int q = pat.diag[k] + 1; q < pat.ptr[k + 1]; ++q) {
        const int j = pat.col[q];
        while (r < pat.ptr[i + 1] && pat.col[r] < j) ++r;
        if (r == pat.ptr[i + 1]) break;
        if (pat.col[r] == j) val[r] -= lik * val[q];
      }
    }
    if (val[pat.diag[i]] == 0.0 && pivot_failure(status, i)) return val;
  }
  return val;
}

// Shared numeric block ILU in double, into `val` (pat.nnz() blocks of
// a.nb * a.nb). Whatever `val` held before is overwritten.
void factor_block_into(const Bcsr<double>& a, const IluPattern& pat,
                       double* val, IluFactorStatus* status) {
  F3D_OBS_SPAN("ilu.factor");
  obs::Registry::global().count("sparse.ilu.factorizations");
  F3D_CHECK(a.nrows == pat.n);
  const int n = pat.n;
  const int nb = a.nb;
  const std::size_t bsz = static_cast<std::size_t>(nb) * nb;

  // Scatter A into the (superset) pattern in one walk of each row: every
  // pattern entry gets A's block or zeros, so fill positions start from
  // zero even in a buffer that held another factor. An A entry the
  // pattern lacks is never matched, which leaves p short of the row end.
  for (int i = 0; i < n; ++i) {
    int p = a.ptr[i];
    for (int q = pat.ptr[i]; q < pat.ptr[i + 1]; ++q) {
      double* dst = val + static_cast<std::size_t>(q) * bsz;
      if (p < a.ptr[i + 1] && a.col[p] == pat.col[q]) {
        std::copy_n(&a.val[static_cast<std::size_t>(p) * bsz], bsz, dst);
        ++p;
      } else {
        std::fill_n(dst, bsz, 0.0);
      }
    }
    F3D_CHECK_MSG(p == a.ptr[i + 1], "pattern does not contain A");
  }

  for (int i = 0; i < n; ++i) {
    for (int pos = pat.ptr[i]; pos < pat.diag[i]; ++pos) {
      const int k = pat.col[pos];
      double* blk_ik = val + static_cast<std::size_t>(pos) * bsz;
      // blk_ik := blk_ik * (A_kk)^{-1}; A_kk already holds its LU factors.
      dense::right_lu_solve_block(
          nb, val + static_cast<std::size_t>(pat.diag[k]) * bsz, blk_ik);
      int r = pos + 1;
      for (int u = pat.diag[k] + 1; u < pat.ptr[k + 1]; ++u) {
        const int j = pat.col[u];
        while (r < pat.ptr[i + 1] && pat.col[r] < j) ++r;
        if (r == pat.ptr[i + 1]) break;
        if (pat.col[r] == j)
          dense::gemm_sub(nb, blk_ik, val + static_cast<std::size_t>(u) * bsz,
                          val + static_cast<std::size_t>(r) * bsz);
      }
    }
    const bool ok =
        dense::lu_factor(nb, val + static_cast<std::size_t>(pat.diag[i]) * bsz);
    if (!ok) {
      if (status != nullptr) {
        status->ok = false;
        status->bad_row = i;
        return;
      }
      F3D_NUMERIC_CHECK_MSG(ok, "singular diagonal block in block ILU at row " +
                                    std::to_string(i));
    }
  }
}

}  // namespace

template <class S>
PointIlu<S> ilu_factor_point(const Csr<double>& a, const IluPattern& pat,
                             IluFactorStatus* status) {
  PointIlu<S> out;
  out.pat = pat;
  auto v = factor_point_double(a, pat, status);
  if constexpr (std::is_same_v<S, double>) {
    out.val = std::move(v);
  } else {
    out.val.assign(v.begin(), v.end());
  }
  return out;
}

template <class S>
void BlockIlu<S>::refactor(const Bcsr<double>& a, IluFactorStatus* status) {
  F3D_CHECK(a.nb == nb);
  const std::size_t size = pat.nnz() * static_cast<std::size_t>(nb) * nb;
  val.resize(size);
  if constexpr (std::is_same_v<S, double>) {
    factor_block_into(a, pat, val.data(), status);
  } else {
    std::vector<double> work(size);
    factor_block_into(a, pat, work.data(), status);
    std::copy(work.begin(), work.end(), val.begin());
  }
}

template <class S>
BlockIlu<S> ilu_factor_block(const Bcsr<double>& a, const IluPattern& pat,
                             IluFactorStatus* status) {
  BlockIlu<S> out;
  out.nb = a.nb;
  out.pat = pat;
  out.refactor(a, status);
  return out;
}

template <class S>
void BlockIlu<S>::solve(const double* b, double* x) const {
  const int n = pat.n;
  const std::size_t bsz = static_cast<std::size_t>(nb) * nb;
  // Forward: x_i = b_i - sum_{j<i} L_ij x_j (unit block diagonal).
  for (int i = 0; i < n; ++i) {
    double* xi = x + static_cast<std::size_t>(i) * nb;
    const double* bi = b + static_cast<std::size_t>(i) * nb;
    for (int c = 0; c < nb; ++c) xi[c] = bi[c];
    for (int p = pat.ptr[i]; p < pat.diag[i]; ++p)
      dense::gemv_sub(nb, &val[static_cast<std::size_t>(p) * bsz],
                      x + static_cast<std::size_t>(pat.col[p]) * nb, xi);
  }
  // Backward: x_i = U_ii^{-1} (x_i - sum_{j>i} U_ij x_j).
  double tmp[8];
  F3D_CHECK(nb <= 8);
  for (int i = n - 1; i >= 0; --i) {
    double* xi = x + static_cast<std::size_t>(i) * nb;
    for (int p = pat.diag[i] + 1; p < pat.ptr[i + 1]; ++p)
      dense::gemv_sub(nb, &val[static_cast<std::size_t>(p) * bsz],
                      x + static_cast<std::size_t>(pat.col[p]) * nb, xi);
    dense::lu_solve(nb, &val[static_cast<std::size_t>(pat.diag[i]) * bsz], xi,
                    tmp);
    for (int c = 0; c < nb; ++c) xi[c] = tmp[c];
  }
}

// Explicit instantiations for the two storage precisions.
template struct BlockIlu<double>;
template struct BlockIlu<float>;
template PointIlu<double> ilu_factor_point<double>(const Csr<double>&,
                                                   const IluPattern&,
                                                   IluFactorStatus*);
template PointIlu<float> ilu_factor_point<float>(const Csr<double>&,
                                                 const IluPattern&,
                                                 IluFactorStatus*);
template BlockIlu<double> ilu_factor_block<double>(const Bcsr<double>&,
                                                   const IluPattern&,
                                                   IluFactorStatus*);
template BlockIlu<float> ilu_factor_block<float>(const Bcsr<double>&,
                                                 const IluPattern&,
                                                 IluFactorStatus*);

}  // namespace f3d::sparse
