// SIMD wrapper + mixed-precision contracts:
//  * f3d::simd pack semantics (load/store/gather/promote, the FIXED
//    pairwise hsum order every horizontal reduction in the library uses),
//  * the runtime scalar/SIMD toggle and its elementwise bit-identity
//    guarantee (axpy-family kernels round identically in both configs),
//  * thread-count bit-invariance of the hot kernels in BOTH configs —
//    the determinism contract is per (isa, precision) configuration,
//  * float-storage/double-accumulate equivalences: exact for float-
//    representable values, bounded by the float unit roundoff otherwise
//    (the error-budget the ABFT guard and the mixed psi-NKS solve rely
//    on).

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "cfd/euler.hpp"
#include "cfd/problem.hpp"
#include "common/densemat.hpp"
#include "common/simd.hpp"
#include "exec/pool.hpp"
#include "exec/reduce.hpp"
#include "mesh/generator.hpp"
#include "solver/newton.hpp"
#include "sparse/csr.hpp"
#include "sparse/ilu.hpp"
#include "sparse/vec.hpp"

namespace {

using namespace f3d;
using simd::Vd;

// --- pack semantics -------------------------------------------------------

TEST(SimdWrapper, ReportsConsistentConfig) {
  // double_lanes() reports what the dispatched kernels use: the full pack
  // when the vector paths are live, 1 on the scalar fallback.
  EXPECT_EQ(simd::double_lanes(), simd::enabled() ? simd::kDoubleLanes : 1);
  EXPECT_EQ(simd::kDoubleLanes, 4);
  EXPECT_NE(simd::isa_name(), nullptr);
  EXPECT_NE(simd::target_arch(), nullptr);
  // enabled() can never claim SIMD that was not compiled in.
  if (!simd::compiled()) {
    EXPECT_FALSE(simd::enabled());
  }
}

TEST(SimdWrapper, EnabledScopeTogglesAndRestores) {
  const bool before = simd::enabled();
  {
    simd::EnabledScope off(false);
    EXPECT_FALSE(simd::enabled());
    {
      simd::EnabledScope on(true);
      EXPECT_EQ(simd::enabled(), simd::compiled());
    }
    EXPECT_FALSE(simd::enabled());
  }
  EXPECT_EQ(simd::enabled(), before);
}

TEST(SimdWrapper, LoadStoreRoundTrip) {
  const double src[4] = {1.5, -2.25, 3.0e10, -0.0};
  double dst[4] = {};
  Vd::loadu(src).storeu(dst);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(dst[i], src[i]);
    EXPECT_EQ(Vd::loadu(src).lane(i), src[i]);
  }
  const Vd b = Vd::broadcast(7.25);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(b.lane(i), 7.25);
  const Vd z = Vd::zero();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(z.lane(i), 0.0);
}

TEST(SimdWrapper, PromotingFloatLoadIsExact) {
  // Float-storage kernels promote on load: each lane must be the exact
  // double value of the stored float (promotion is always exact).
  const float src[4] = {1.5F, -2.25F, 3.1415927F, 1.0e-30F};
  const Vd v = Vd::loadu(src);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(v.lane(i), static_cast<double>(src[i]));
}

TEST(SimdWrapper, GatherMatchesIndexedLoads) {
  std::vector<double> base(32);
  for (std::size_t i = 0; i < base.size(); ++i)
    base[i] = 0.25 * static_cast<double>(i) - 3.0;
  const int idx[4] = {31, 0, 17, 4};
  const Vd g = Vd::gather(base.data(), idx);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(g.lane(i), base[idx[i]]);
}

TEST(SimdWrapper, HsumIsFixedPairwiseOrder) {
  // The determinism contract pins hsum to (l0+l1) + (l2+l3); values are
  // chosen so other association orders round differently.
  const double src[4] = {1.0, 1e-16, -1.0, 1e-16};
  const double expect = (src[0] + src[1]) + (src[2] + src[3]);
  EXPECT_EQ(Vd::loadu(src).hsum(), expect);
  // And NOT the sequential order for this input.
  const double sequential = ((src[0] + src[1]) + src[2]) + src[3];
  EXPECT_NE(expect, sequential);
}

TEST(SimdWrapper, ArithmeticOperatorsMatchScalarLanewise) {
  const double a[4] = {1.5, -2.0, 0.125, 1e8};
  const double b[4] = {-0.5, 3.0, 7.75, 1e-8};
  const Vd va = Vd::loadu(a), vb = Vd::loadu(b);
  const Vd sum = va + vb, diff = va - vb, prod = va * vb;
  Vd acc = Vd::loadu(a);
  acc += vb;
  Vd acc2 = Vd::loadu(a);
  acc2 -= vb;
  Vd acc3 = Vd::loadu(a);
  acc3 *= vb;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sum.lane(i), a[i] + b[i]);
    EXPECT_EQ(diff.lane(i), a[i] - b[i]);
    EXPECT_EQ(prod.lane(i), a[i] * b[i]);
    EXPECT_EQ(acc.lane(i), a[i] + b[i]);
    EXPECT_EQ(acc2.lane(i), a[i] - b[i]);
    EXPECT_EQ(acc3.lane(i), a[i] * b[i]);
  }

  // The branch-free kernels' ops, on ordinary, signed-zero, infinite and
  // NaN lanes (0/0, inf/inf and x/0 included): results must carry the
  // scalar operation's exact bits, and compares must be false on NaN.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double c[4] = {0.0, -0.0, inf, nan};
  const double d[4] = {-0.0, 0.0, -inf, 1.0};
  auto bits_eq = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  for (const double* x : {a, c, d}) {
    for (const double* y : {b, c, d}) {
      const Vd vx = Vd::loadu(x), vy = Vd::loadu(y);
      Vd acc4 = vx;
      acc4 /= vy;
      const Vd quo = vx / vy, neg = -vx;
      const simd::Vm lt = vx < vy, gt = vx > vy, eq = vx == vy;
      const Vd sel = Vd::select(lt, vx, vy);
      for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(bits_eq(quo.lane(i), x[i] / y[i])) << x[i] << "/" << y[i];
        EXPECT_TRUE(bits_eq(acc4.lane(i), x[i] / y[i])) << x[i] << "/" << y[i];
        EXPECT_TRUE(bits_eq(neg.lane(i), -x[i])) << x[i];
        EXPECT_EQ(lt.lane(i), x[i] < y[i]) << x[i] << "<" << y[i];
        EXPECT_EQ(gt.lane(i), x[i] > y[i]) << x[i] << ">" << y[i];
        EXPECT_EQ(eq.lane(i), x[i] == y[i]) << x[i] << "==" << y[i];
        EXPECT_TRUE(bits_eq(sel.lane(i), x[i] < y[i] ? x[i] : y[i]))
            << x[i] << "," << y[i];
      }
    }
  }
}

TEST(SimdWrapper, Hsum4EqualsFourHsumsBitwise) {
  // Rows where association order matters, plus -0.0, inf - inf and NaN.
  const double inf = std::numeric_limits<double>::infinity();
  const double rows[4][4] = {{1.0, 1e-16, -1.0, 1e-16},
                             {-0.0, -0.0, -0.0, -0.0},
                             {inf, -inf, 1.0, 2.0},
                             {3.0, std::numeric_limits<double>::quiet_NaN(),
                              1e300, 1e300}};
  const Vd r[4] = {Vd::loadu(rows[0]), Vd::loadu(rows[1]),
                   Vd::loadu(rows[2]), Vd::loadu(rows[3])};
  for (int rot = 0; rot < 4; ++rot) {  // every row in every lane
    const Vd& a = r[rot % 4];
    const Vd& b = r[(rot + 1) % 4];
    const Vd& c = r[(rot + 2) % 4];
    const Vd& d = r[(rot + 3) % 4];
    const Vd h = Vd::hsum4(a, b, c, d);
    const double want[4] = {a.hsum(), b.hsum(), c.hsum(), d.hsum()};
    for (int i = 0; i < 4; ++i) {
      const double got = h.lane(i);
      EXPECT_EQ(std::memcmp(&got, &want[i], sizeof got), 0)
          << "rotation " << rot << ", lane " << i;
    }
  }
}

// --- scalar/SIMD config contracts -----------------------------------------

std::vector<double> pattern_vector(int n, double phase) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] = std::sin(0.1 * i + phase) + 2.0;
  return x;
}

TEST(SimdConfig, AxpyFamilyIsBitIdenticalScalarVsSimd) {
  // Elementwise kernels do the same per-element arithmetic in both
  // configs — packs only batch independent elements — so the outputs are
  // bit-identical, not merely close.
  const int n = 10007;  // odd: exercises the scalar tail
  const auto x = pattern_vector(n, 0.0);
  auto y1 = pattern_vector(n, 1.0);
  auto y2 = y1;
  {
    simd::EnabledScope off(false);
    sparse::axpy(1.7, x, y1);
    sparse::aypx(0.3, x, y1);
    sparse::scale(y1, 1.25);
  }
  {
    simd::EnabledScope on(true);
    sparse::axpy(1.7, x, y2);
    sparse::aypx(0.3, x, y2);
    sparse::scale(y2, 1.25);
  }
  EXPECT_EQ(std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(double)), 0);
}

sparse::Bcsr<double> wing_jacobian(cfd::EulerDiscretization& disc) {
  auto q = disc.make_freestream_field();
  auto jac = disc.allocate_jacobian();
  disc.jacobian(q, jac);
  for (int i = 0; i < jac.nrows; ++i) {
    double* blk = jac.find_block(i, i);
    for (int c = 0; c < jac.nb; ++c)
      blk[static_cast<std::size_t>(c) * jac.nb + c] += 1.0;
  }
  return jac;
}

TEST(SimdConfig, HotKernelsAreThreadCountInvariantInBothConfigs) {
  // The bit-determinism contract is per (isa, precision) config: within
  // one config, 1/2/4 threads produce byte-identical results. Scalar and
  // SIMD configs may legitimately differ (horizontal reductions round
  // differently) — that cross-config difference is NOT asserted either
  // way.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;
  cfd::EulerDiscretization disc(m, cfg);
  const auto q = disc.make_freestream_field();
  const auto jac = wing_jacobian(disc);
  const int n = disc.num_unknowns();
  const auto x = pattern_vector(n, 0.5);

  const int before = exec::pool().num_threads();
  for (bool use_simd : {false, true}) {
    simd::EnabledScope scope(use_simd);
    std::vector<double> r1, y1(static_cast<std::size_t>(n));
    double d1 = 0;
    for (int nt : {1, 2, 4}) {
      exec::set_threads(nt);
      std::vector<double> r, y(static_cast<std::size_t>(n));
      disc.residual(q, r);
      jac.spmv(x.data(), y.data());
      const double d = exec::dot(n, x.data(), y.data());
      if (nt == 1) {
        r1 = r;
        y1 = y;
        d1 = d;
        continue;
      }
      EXPECT_EQ(std::memcmp(r.data(), r1.data(), r.size() * sizeof(double)),
                0)
          << "residual, simd=" << use_simd << ", " << nt << " threads";
      EXPECT_EQ(std::memcmp(y.data(), y1.data(), y.size() * sizeof(double)),
                0)
          << "spmv, simd=" << use_simd << ", " << nt << " threads";
      EXPECT_EQ(d, d1) << "dot, simd=" << use_simd << ", " << nt
                       << " threads";
    }
  }
  exec::set_threads(before);
}

// --- the nb == 4 pack kernels against their scalar references -----------

// A wing state far from freestream, so Jacobian blocks are all distinct.
cfd::FlowField perturbed_state(const cfd::EulerDiscretization& disc) {
  auto q = disc.make_freestream_field();
  auto& qd = q.data();
  for (std::size_t i = 0; i < qd.size(); ++i)
    qd[i] += 0.05 * std::sin(0.37 * static_cast<double>(i));
  return q;
}

TEST(SimdConfig, BlockIluFactorIsBitIdenticalScalarVsSimd) {
  // gemm_sub's pack path does each element's scalar operations in order,
  // so the whole ILU(1) factor (which also runs the scalar
  // right_lu_solve_block and lu_factor) is byte-identical in both configs.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfd::EulerDiscretization disc(m, cfg);
  auto jac = disc.allocate_jacobian();
  disc.jacobian(perturbed_state(disc), jac);
  for (int i = 0; i < jac.nrows; ++i) {
    double* blk = jac.find_block(i, i);
    for (int c = 0; c < jac.nb; ++c)
      blk[static_cast<std::size_t>(c) * jac.nb + c] += 1.0;
  }
  ASSERT_EQ(jac.nb, simd::kDoubleLanes);
  const auto pat = sparse::ilu_symbolic(jac, 1);
  sparse::BlockIlu<double> off, on;
  {
    simd::EnabledScope scope(false);
    off = sparse::ilu_factor_block<double>(jac, pat);
  }
  {
    simd::EnabledScope scope(true);
    on = sparse::ilu_factor_block<double>(jac, pat);
  }
  ASSERT_EQ(off.val.size(), on.val.size());
  EXPECT_EQ(std::memcmp(off.val.data(), on.val.data(),
                        off.val.size() * sizeof(double)),
            0);
}

// BlockIlu::solve as it was written before hsum4: every block row's dot
// is its own reduction — a pack product and hsum() with SIMD on, the
// sequential scalar sum with it off.
void per_row_hsum_solve(const sparse::BlockIlu<double>& ilu, const double* b,
                        double* x) {
  const int n = ilu.pat.n;
  const int nb = ilu.nb;
  const std::size_t bsz = static_cast<std::size_t>(nb) * nb;
  auto sub = [&](int p, int j, double* xi) {
    const double* a = &ilu.val[static_cast<std::size_t>(p) * bsz];
    const double* xj = x + static_cast<std::size_t>(j) * nb;
    for (int r = 0; r < nb; ++r) {
      const double* row = a + static_cast<std::size_t>(r) * nb;
      double s = 0;
      if (simd::enabled()) {
        s = (Vd::loadu(row) * Vd::loadu(xj)).hsum();
      } else {
        for (int c = 0; c < nb; ++c) s += row[c] * xj[c];
      }
      xi[r] -= s;
    }
  };
  for (int i = 0; i < n; ++i) {
    double* xi = x + static_cast<std::size_t>(i) * nb;
    for (int c = 0; c < nb; ++c) xi[c] = b[static_cast<std::size_t>(i) * nb + c];
    for (int p = ilu.pat.ptr[i]; p < ilu.pat.diag[i]; ++p)
      sub(p, ilu.pat.col[p], xi);
  }
  double tmp[4];
  for (int i = n - 1; i >= 0; --i) {
    double* xi = x + static_cast<std::size_t>(i) * nb;
    for (int p = ilu.pat.diag[i] + 1; p < ilu.pat.ptr[i + 1]; ++p)
      sub(p, ilu.pat.col[p], xi);
    dense::lu_solve(nb, &ilu.val[static_cast<std::size_t>(ilu.pat.diag[i]) * bsz],
                    xi, tmp);
    for (int c = 0; c < nb; ++c) xi[c] = tmp[c];
  }
}

TEST(SimdConfig, BlockIluSolveMatchesPerRowHsumReference) {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 5, .ny = 4, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  const auto jac = wing_jacobian(disc);
  ASSERT_EQ(jac.nb, simd::kDoubleLanes);
  const auto pat = sparse::ilu_symbolic(jac, 1);
  const auto ilu = sparse::ilu_factor_block<double>(jac, pat);
  const int n = jac.scalar_n();
  const auto b = pattern_vector(n, 0.25);
  for (bool use_simd : {false, true}) {
    simd::EnabledScope scope(use_simd);
    std::vector<double> got(static_cast<std::size_t>(n)),
        want(static_cast<std::size_t>(n));
    ilu.solve(b.data(), got.data());
    per_row_hsum_solve(ilu, b.data(), want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0)
        << "simd=" << use_simd;
  }
}

// A 4-component field built to reach every branch of the limiter's phi
// pass: component 0 is rough (phi < 1, d2 of both signs) with one NaN
// vertex whose neighbours get NaN gradients, component 1 is linear in
// x, component 2 is ~1e-200 so that with venkat_k = 0 (eps2 = 0) d2^2
// underflows and den == 0 at its local extrema, and component 3 is flat
// (d2 == 0 on every edge).
cfd::FlowField limiter_field(const mesh::UnstructuredMesh& m) {
  cfd::FlowField q(m.num_vertices(), 4, sparse::FieldLayout::kInterlaced);
  for (int v = 0; v < m.num_vertices(); ++v) {
    q.set(v, 0, 1.0 + 0.3 * std::sin(1.7 * v));
    q.set(v, 1, 0.5 + 0.1 * m.coords()[static_cast<std::size_t>(v)][0]);
    q.set(v, 2, 1e-200 * std::sin(0.91 * v));
    q.set(v, 3, 2.0);
  }
  q.set(m.num_vertices() / 2, 0, std::numeric_limits<double>::quiet_NaN());
  return q;
}

struct LimiterCases {
  int d2_zero = 0, d2_neg = 0, den_zero = 0;
};

// Counts, over every (edge side, component), which branch the limiter
// takes — recomputed here from the same inputs so the test proves its
// field reaches each one.
template <class GS>
LimiterCases count_limiter_cases(const mesh::UnstructuredMesh& m,
                                 const cfd::FlowField& q,
                                 const std::vector<GS>& grad) {
  std::vector<double> qmin(q.data()), qmax(q.data());
  for (const auto& e : m.edges())
    for (int c = 0; c < 4; ++c)
      for (int side = 0; side < 2; ++side) {
        const int v = e[side], w = e[1 - side];
        qmin[v * 4 + c] = std::min(qmin[v * 4 + c], q.get(w, c));
        qmax[v * 4 + c] = std::max(qmax[v * 4 + c], q.get(w, c));
      }
  LimiterCases n;
  for (const auto& e : m.edges()) {
    const auto& xi = m.coords()[static_cast<std::size_t>(e[0])];
    const auto& xj = m.coords()[static_cast<std::size_t>(e[1])];
    const double dx[3] = {xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]};
    for (int side = 0; side < 2; ++side) {
      const int v = e[side];
      for (int c = 0; c < 4; ++c) {
        const GS* g = &grad[static_cast<std::size_t>(v) * 12 + c];
        const double d2 = (side == 0 ? 0.5 : -0.5) *
                          (static_cast<double>(g[0]) * dx[0] +
                           static_cast<double>(g[4]) * dx[1] +
                           static_cast<double>(g[8]) * dx[2]);
        if (d2 == 0) {
          ++n.d2_zero;
          continue;
        }
        if (d2 < 0) ++n.d2_neg;
        const double dplus = d2 > 0 ? qmax[v * 4 + c] - q.get(v, c)
                                    : q.get(v, c) - qmin[v * 4 + c];
        const double ad2 = std::abs(d2);
        if (dplus * dplus + 2 * ad2 * ad2 + dplus * ad2 == 0) ++n.den_zero;
      }
    }
  }
  return n;
}

TEST(SimdConfig, LimitersAreBitIdenticalScalarVsSimd) {
  // The branch-free phi pass gives the scalar branches' exact bits in
  // both storage precisions. den == 0 is reached with double storage
  // only: a float gradient cannot be small enough for d2^2 to underflow
  // on a unit-scale mesh.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;
  cfg.venkat_k = 0.0;
  cfd::EulerDiscretization disc(m, cfg);
  const auto q = limiter_field(m);
  std::vector<double> grad;
  disc.gradients(q, grad);
  const std::vector<float> grad_f(grad.begin(), grad.end());

  const auto cases = count_limiter_cases(m, q, grad);
  EXPECT_GT(cases.d2_zero, 0);
  EXPECT_GT(cases.d2_neg, 0);
  EXPECT_GT(cases.den_zero, 0);
  const auto cases_f = count_limiter_cases(m, q, grad_f);
  EXPECT_GT(cases_f.d2_zero, 0);
  EXPECT_GT(cases_f.d2_neg, 0);

  std::vector<double> phi_off, phi_on;
  std::vector<float> phi_off_f, phi_on_f;
  {
    simd::EnabledScope scope(false);
    disc.limiters(q, grad, phi_off);
    disc.limiters(q, grad_f, phi_off_f);
  }
  {
    simd::EnabledScope scope(true);
    disc.limiters(q, grad, phi_on);
    disc.limiters(q, grad_f, phi_on_f);
  }
  auto below_one = [](const auto& phi) {
    int k = 0;
    for (auto p : phi) k += p < 1 ? 1 : 0;
    return k;
  };
  EXPECT_GT(below_one(phi_off), 0);
  EXPECT_GT(below_one(phi_off_f), 0);
  ASSERT_EQ(phi_on.size(), phi_off.size());
  ASSERT_EQ(phi_on_f.size(), phi_off_f.size());
  EXPECT_EQ(std::memcmp(phi_on.data(), phi_off.data(),
                        phi_on.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(phi_on_f.data(), phi_off_f.data(),
                        phi_on_f.size() * sizeof(float)),
            0);
}

// --- mixed precision (float storage, double accumulate) -------------------

TEST(MixedPrecision, FloatStorageIsExactForRepresentableValues) {
  // Multiples of 0.25 in a small range are exact floats: narrowing loses
  // nothing, promote-on-load restores the identical doubles, so the
  // products agree BITWISE within each SIMD config.
  sparse::Bcsr<double> a;
  a.nb = 4;
  a.nrows = 8;
  a.ptr.push_back(0);
  for (int i = 0; i < a.nrows; ++i) {
    a.col.push_back(i);
    if (i + 1 < a.nrows) a.col.push_back(i + 1);
    a.ptr.push_back(static_cast<int>(a.col.size()));
  }
  a.val.resize(a.nblocks() * 16);
  for (std::size_t k = 0; k < a.val.size(); ++k)
    a.val[k] = 0.25 * static_cast<double>((k % 64)) - 4.0;
  a.check();
  const auto af = a.convert<float>();
  std::vector<double> x(static_cast<std::size_t>(a.scalar_n()));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.5 * static_cast<double>(i % 16) - 2.0;

  for (bool use_simd : {false, true}) {
    simd::EnabledScope scope(use_simd);
    std::vector<double> yd(x.size()), yf(x.size());
    a.spmv(x.data(), yd.data());
    af.spmv(x.data(), yf.data());
    EXPECT_EQ(std::memcmp(yd.data(), yf.data(), yd.size() * sizeof(double)),
              0)
        << "simd=" << use_simd;
  }
}

TEST(MixedPrecision, SpmvErrorWithinFloatUnitRoundoffBudget) {
  // Error budget: each stored entry carries one float rounding, so
  // |y_f - y_d|_i <= u_f * (|A| |x|)_i elementwise (plus accumulation
  // noise absorbed in a small slack). This is the bound the widened ABFT
  // guard is calibrated against.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 5, .ny = 4, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  const auto jac = wing_jacobian(disc);
  const auto jac_f = jac.convert<float>();
  const int n = jac.scalar_n();
  const auto x = pattern_vector(n, 0.75);

  // |A| |x| elementwise via an absolute-value copy.
  auto jac_abs = jac;
  for (auto& v : jac_abs.val) v = std::fabs(v);
  auto x_abs = x;
  for (auto& v : x_abs) v = std::fabs(v);
  std::vector<double> yd(static_cast<std::size_t>(n)),
      yf(static_cast<std::size_t>(n)), mass(static_cast<std::size_t>(n));
  jac.spmv(x.data(), yd.data());
  jac_f.spmv(x.data(), yf.data());
  jac_abs.spmv(x_abs.data(), mass.data());

  const double slack = 8.0;  // accumulation-length headroom
  for (int i = 0; i < n; ++i)
    EXPECT_LE(std::fabs(yf[i] - yd[i]),
              slack * FLT_EPSILON * mass[static_cast<std::size_t>(i)] +
                  1e-300)
        << "row " << i;
}

TEST(MixedPrecision, FloatGradientResidualCloseToDouble) {
  // reco_single_precision stores gradients/limiters in float; the
  // second-order residual must track the double-storage one to float
  // accuracy relative to the local flux magnitude.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;
  cfd::EulerDiscretization disc_d(m, cfg);
  cfd::FlowConfig cfg_f = cfg;
  cfg_f.reco_single_precision = true;
  cfd::EulerDiscretization disc_f(m, cfg_f);

  // A non-trivial state (freestream has zero gradients): perturb each
  // component deterministically.
  auto q = disc_d.make_freestream_field();
  auto& qd = q.data();
  for (std::size_t i = 0; i < qd.size(); ++i)
    qd[i] += 0.05 * std::sin(0.37 * static_cast<double>(i));

  std::vector<double> rd, rf;
  disc_d.residual(q, rd);
  disc_f.residual(q, rf);
  ASSERT_EQ(rd.size(), rf.size());
  double rmax = 0;
  for (double v : rd) rmax = std::max(rmax, std::fabs(v));
  ASSERT_GT(rmax, 0.0);
  for (std::size_t i = 0; i < rd.size(); ++i)
    EXPECT_NEAR(rf[i], rd[i], 1e-4 * rmax) << "unknown " << i;
}

// The double solve's achieved stopping bound: rtol * r0 (what converged
// means); computed from the double result so both runs are held to the
// identical threshold.
double rtol_bound(const solver::PtcResult& rd) {
  return 1e-8 * rd.initial_residual * (1.0 + 1e-12);
}

TEST(MixedPrecision, MixedSolveConvergesToSameToleranceAsDouble) {
  // The end-to-end contract: with float operator storage and float ILU
  // factors, psi-NKS still converges to the same tolerance — storage
  // precision perturbs the *solver*, not the residual definition, so
  // only the iteration path may differ (within a small budget).
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 5, .ny = 4, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);

  auto run = [&](bool mixed) {
    solver::PtcOptions o;
    o.cfl0 = 20.0;
    o.max_steps = 200;
    o.rtol = 1e-8;
    o.num_subdomains = 2;
    o.matrix_free = false;
    o.matrix_single_precision = mixed;
    o.schwarz.single_precision = mixed;
    auto x = prob.initial_state();
    return solver::ptc_solve(prob, x, o);
  };
  const auto rd = run(false);
  const auto rf = run(true);
  EXPECT_TRUE(rd.converged);
  EXPECT_TRUE(rf.converged) << "mixed-precision solve failed to reach the "
                               "tolerance the double solve reached";
  // Same tolerance reached; the step count may drift by a small budget.
  EXPECT_LE(rf.final_residual, rtol_bound(rd))
      << "mixed solve stopped above the double solve's achieved tolerance";
  EXPECT_LE(std::abs(rf.steps - rd.steps), 3);
}

}  // namespace
