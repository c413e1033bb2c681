#pragma once
// Small dense-block kernels used by the block sparse (BAIJ) path: in-place
// LU factorization of nb-by-nb diagonal blocks, triangular solves with
// them, and block multiply-accumulate. Blocks are stored row-major and are
// small (nb = 4 incompressible, nb = 5 compressible). The generic code is
// plain scalar loops; at nb == 4 with the SIMD dispatch on, gemv_acc,
// gemv_sub and gemm_sub hold one block row per f3d::simd::Vd instead.
// gemm_sub's pack path does each element's scalar operations in the
// scalar order, so it is bit-identical in both SIMD configurations; the
// gemv paths round their row dots in the pack's fixed pairwise order.

#include <cstddef>
#include <type_traits>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace f3d::dense {

namespace detail {
// The gemv kernels take a one-pack fast path for the incompressible
// block size (nb == 4 — one full f3d::simd::Vd row) when the SIMD
// dispatch is on and the accumulate type is double. The pack dot uses the
// fixed pairwise hsum, so it rounds differently from the sequential
// scalar loop but identically everywhere it is called.
template <class TA, class TX, class TY>
inline constexpr bool kGemvSimdEligible =
    std::is_same_v<TX, double> && std::is_same_v<TY, double> &&
    (std::is_same_v<TA, double> || std::is_same_v<TA, float>);

// The four row dots of a 4x4 block with x: lane i is
// (row_i(A) * x).hsum(), all four reduced by one Vd::hsum4.
template <class TA>
inline simd::Vd row_dots4(const TA* a, const double* x) {
  using simd::Vd;
  const Vd xv = Vd::loadu(x);
  return Vd::hsum4(Vd::loadu(a) * xv, Vd::loadu(a + 4) * xv,
                   Vd::loadu(a + 8) * xv, Vd::loadu(a + 12) * xv);
}
}  // namespace detail

/// y += A * x for a row-major nb x nb block.
template <class TA, class TX, class TY>
inline void gemv_acc(int nb, const TA* a, const TX* x, TY* y) {
  if constexpr (detail::kGemvSimdEligible<TA, TX, TY>) {
    if (nb == simd::kDoubleLanes && simd::enabled()) {
      (simd::Vd::loadu(y) + detail::row_dots4(a, x)).storeu(y);
      return;
    }
  }
  for (int i = 0; i < nb; ++i) {
    TY s = 0;
    const TA* row = a + static_cast<std::size_t>(i) * nb;
    for (int j = 0; j < nb; ++j) s += static_cast<TY>(row[j]) * static_cast<TY>(x[j]);
    y[i] += s;
  }
}

/// y -= A * x for a row-major nb x nb block.
template <class TA, class TX, class TY>
inline void gemv_sub(int nb, const TA* a, const TX* x, TY* y) {
  if constexpr (detail::kGemvSimdEligible<TA, TX, TY>) {
    if (nb == simd::kDoubleLanes && simd::enabled()) {
      (simd::Vd::loadu(y) - detail::row_dots4(a, x)).storeu(y);
      return;
    }
  }
  for (int i = 0; i < nb; ++i) {
    TY s = 0;
    const TA* row = a + static_cast<std::size_t>(i) * nb;
    for (int j = 0; j < nb; ++j) s += static_cast<TY>(row[j]) * static_cast<TY>(x[j]);
    y[i] -= s;
  }
}

/// C -= A * B (all row-major nb x nb blocks; C aliases neither A nor B).
template <class T>
inline void gemm_sub(int nb, const T* a, const T* b, T* c) {
  if constexpr (std::is_same_v<T, double>) {
    if (nb == simd::kDoubleLanes && simd::enabled()) {
      // row_i(C) -= a_ik * row_k(B) in k order: per element exactly the
      // scalar loop's c_ij -= a_ik * b_kj sequence below.
      using simd::Vd;
      for (int i = 0; i < 4; ++i) {
        Vd ci = Vd::loadu(c + 4 * i);
        for (int k = 0; k < 4; ++k)
          ci -= Vd::broadcast(a[4 * i + k]) * Vd::loadu(b + 4 * k);
        ci.storeu(c + 4 * i);
      }
      return;
    }
  }
  for (int i = 0; i < nb; ++i) {
    for (int k = 0; k < nb; ++k) {
      const T aik = a[static_cast<std::size_t>(i) * nb + k];
      const T* brow = b + static_cast<std::size_t>(k) * nb;
      T* crow = c + static_cast<std::size_t>(i) * nb;
      for (int j = 0; j < nb; ++j) crow[j] -= aik * brow[j];
    }
  }
}

/// In-place LU factorization (no pivoting; the Euler point Jacobians we
/// factor are strongly diagonally dominated by the pseudo-timestep term).
/// Returns false if a zero/denormal pivot is hit.
template <class T>
inline bool lu_factor(int nb, T* a) {
  for (int k = 0; k < nb; ++k) {
    T pivot = a[static_cast<std::size_t>(k) * nb + k];
    if (!(pivot != T(0))) return false;
    T inv = T(1) / pivot;
    for (int i = k + 1; i < nb; ++i) {
      T lik = a[static_cast<std::size_t>(i) * nb + k] * inv;
      a[static_cast<std::size_t>(i) * nb + k] = lik;
      for (int j = k + 1; j < nb; ++j)
        a[static_cast<std::size_t>(i) * nb + j] -=
            lik * a[static_cast<std::size_t>(k) * nb + j];
    }
  }
  return true;
}

/// Solve (LU) x = b with factors from lu_factor; x may alias b.
template <class TA, class T>
inline void lu_solve(int nb, const TA* lu, const T* b, T* x) {
  // Forward: L y = b (unit diagonal).
  for (int i = 0; i < nb; ++i) {
    T s = b[i];
    for (int j = 0; j < i; ++j)
      s -= static_cast<T>(lu[static_cast<std::size_t>(i) * nb + j]) * x[j];
    x[i] = s;
  }
  // Backward: U x = y.
  for (int i = nb - 1; i >= 0; --i) {
    T s = x[i];
    for (int j = i + 1; j < nb; ++j)
      s -= static_cast<T>(lu[static_cast<std::size_t>(i) * nb + j]) * x[j];
    x[i] = s / static_cast<T>(lu[static_cast<std::size_t>(i) * nb + i]);
  }
}

/// B := A^{-1} * B where A is given as LU factors (used by block ILU:
/// multiplies an off-diagonal block by the inverted diagonal pivot block).
template <class T>
inline void lu_solve_block(int nb, const T* lu, T* b) {
  // Solve column by column: (LU) X = B, B row-major.
  for (int col = 0; col < nb; ++col) {
    // Forward.
    for (int i = 0; i < nb; ++i) {
      T s = b[static_cast<std::size_t>(i) * nb + col];
      for (int j = 0; j < i; ++j)
        s -= lu[static_cast<std::size_t>(i) * nb + j] *
             b[static_cast<std::size_t>(j) * nb + col];
      b[static_cast<std::size_t>(i) * nb + col] = s;
    }
    // Backward.
    for (int i = nb - 1; i >= 0; --i) {
      T s = b[static_cast<std::size_t>(i) * nb + col];
      for (int j = i + 1; j < nb; ++j)
        s -= lu[static_cast<std::size_t>(i) * nb + j] *
             b[static_cast<std::size_t>(j) * nb + col];
      b[static_cast<std::size_t>(i) * nb + col] =
          s / lu[static_cast<std::size_t>(i) * nb + i];
    }
  }
}

/// B := B * (LU)^{-1} (right-multiplication by the inverse of a factored
/// block). Used by block ILU to normalize sub-diagonal blocks:
/// A_ik := A_ik * A_kk^{-1}. Row r of B is independent:
///   solve y U = b (forward in U^T), then x L = y (backward in L^T).
template <class T>
inline void right_lu_solve_block(int nb, const T* lu, T* b) {
  for (int r = 0; r < nb; ++r) {
    T* row = b + static_cast<std::size_t>(r) * nb;
    // y U = row  (U upper, non-unit diagonal)
    for (int j = 0; j < nb; ++j) {
      T s = row[j];
      for (int i = 0; i < j; ++i)
        s -= row[i] * lu[static_cast<std::size_t>(i) * nb + j];
      row[j] = s / lu[static_cast<std::size_t>(j) * nb + j];
    }
    // x L = y  (L unit lower)
    for (int j = nb - 1; j >= 0; --j) {
      T s = row[j];
      for (int i = j + 1; i < nb; ++i)
        s -= row[i] * lu[static_cast<std::size_t>(i) * nb + j];
      row[j] = s;
    }
  }
}

}  // namespace f3d::dense
