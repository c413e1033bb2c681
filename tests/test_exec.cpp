// Shared-memory execution layer tests: pool chunking/nesting/exceptions,
// the fixed-block deterministic reductions, the owner-computes edge
// kernels' edge-order accumulation on shuffled and reordered wings,
// bit-identity of the parallel kernels (residual, SpMV, dot) and of the
// Schwarz preconditioner apply across thread counts, and byte-identical
// psi-NKS checkpoints at 1/2/4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cfd/euler.hpp"
#include "cfd/problem.hpp"
#include "exec/pool.hpp"
#include "exec/reduce.hpp"
#include "mesh/generator.hpp"
#include "mesh/graph.hpp"
#include "mesh/mesh.hpp"
#include "mesh/ordering.hpp"
#include "partition/partition.hpp"
#include "solver/newton.hpp"
#include "solver/precond.hpp"

namespace {

using namespace f3d;

// --- pool ---------------------------------------------------------------

TEST(ThreadPool, CoversRangeExactlyOnceAtAnyThreadCount) {
  for (int nt : {1, 2, 3, 4, 7}) {
    exec::ThreadPool pool(nt);
    const std::int64_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(
        0, n,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
        },
        /*grain=*/64);
    for (std::int64_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " nt=" << nt;
  }
}

TEST(ThreadPool, EmptyAndTinyRangesRunInline) {
  exec::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> seen;
  pool.parallel_for(3, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) seen.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(seen, (std::vector<int>{3, 4, 5, 6}));  // one inline chunk
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  exec::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(
      0, 8,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          exec::pool().parallel_for(
              0, 10,
              [&](std::int64_t l2, std::int64_t h2) {
                total.fetch_add(static_cast<int>(h2 - l2));
              },
              /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  exec::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   0, 1000,
                   [&](std::int64_t lo, std::int64_t) {
                     if (lo >= 0) throw std::runtime_error("boom");
                   },
                   /*grain=*/64),
               std::runtime_error);
  // The pool must still be usable after a failed job.
  std::atomic<int> n{0};
  pool.parallel_for(
      0, 100, [&](std::int64_t lo, std::int64_t hi) {
        n.fetch_add(static_cast<int>(hi - lo));
      },
      /*grain=*/16);
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, ThreadScopeRestoresGlobalCount) {
  const int before = exec::num_threads();
  {
    exec::ThreadScope scope(3);
    EXPECT_EQ(exec::num_threads(), 3);
    {
      exec::ThreadScope inner(2);
      EXPECT_EQ(exec::num_threads(), 2);
    }
    EXPECT_EQ(exec::num_threads(), 3);
  }
  EXPECT_EQ(exec::num_threads(), before);
}

// --- deterministic reductions --------------------------------------------

TEST(Reduce, DotIsBitIdenticalAcrossThreadCounts) {
  // Size straddles several reduction blocks plus a ragged tail.
  const std::int64_t n = 3 * exec::kReduceBlock + 1234;
  std::vector<double> x(n), y(n);
  for (std::int64_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.001 * static_cast<double>(i)) * 1e3;
    y[i] = std::cos(0.0017 * static_cast<double>(i));
  }
  double ref = 0;
  {
    exec::ThreadScope scope(1);
    ref = exec::dot(n, x.data(), y.data());
  }
  for (int nt : {2, 3, 4, 8}) {
    exec::ThreadScope scope(nt);
    const double d = exec::dot(n, x.data(), y.data());
    EXPECT_EQ(std::memcmp(&d, &ref, sizeof d), 0) << "nt=" << nt;
  }
  // And close to the serial left-to-right sum.
  double serial = 0;
  for (std::int64_t i = 0; i < n; ++i) serial += x[i] * y[i];
  EXPECT_NEAR(ref, serial, 1e-6 * std::abs(serial) + 1e-9);
}

TEST(Reduce, SumAndMaxAbsAgreeWithSerial) {
  const std::int64_t n = exec::kReduceBlock + 37;
  std::vector<double> x(n);
  for (std::int64_t i = 0; i < n; ++i)
    x[i] = (i % 7 == 0 ? -1.0 : 1.0) * 0.5 * static_cast<double>(i % 100);
  exec::ThreadScope scope(4);
  double serial_sum = 0, serial_max = 0;
  for (double v : x) {
    serial_sum += v;
    serial_max = std::max(serial_max, std::abs(v));
  }
  EXPECT_NEAR(exec::sum(n, x.data()), serial_sum, 1e-9);
  EXPECT_EQ(exec::max_abs(n, x.data()), serial_max);
}

// --- owner-computes edge traversal ---------------------------------------

// First-order residual and spectral radius as one plain loop in ascending
// edge id, then the boundary closure in face order: the accumulation
// order the owner-computes edge kernels promise at any thread count.
void edge_order_reference(const cfd::EulerDiscretization& disc,
                          const cfd::FlowField& q, std::vector<double>& r,
                          std::vector<double>& sr) {
  const auto& m = disc.mesh();
  const auto& cfg = disc.config();
  const auto& dual = disc.dual();
  const int nb = disc.nb();
  const std::size_t st = q.stride();
  r.assign(static_cast<std::size_t>(m.num_vertices()) * nb, 0.0);
  sr.assign(m.num_vertices(), 0.0);
  double qi[cfd::kMaxComponents], qj[cfd::kMaxComponents],
      f[cfd::kMaxComponents];
  for (int e = 0; e < m.num_edges(); ++e) {
    const int i = m.edges()[e][0], j = m.edges()[e][1];
    const double* n = dual.edge_normal[e].data();
    for (int c = 0; c < nb; ++c) {
      qi[c] = q.get(i, c);
      qj[c] = q.get(j, c);
    }
    cfd::rusanov_flux(cfg, qi, qj, n, f);
    for (int c = 0; c < nb; ++c) {
      r[q.base(i) + c * st] += f[c];
      r[q.base(j) + c * st] -= f[c];
    }
    const double lam = std::max(cfd::max_wave_speed(cfg, qi, n),
                                cfd::max_wave_speed(cfg, qj, n));
    sr[i] += lam;
    sr[j] += lam;
  }
  double qinf[cfd::kMaxComponents];
  cfd::freestream_state(cfg, qinf);
  for (std::size_t bf = 0; bf < m.boundary_faces().size(); ++bf) {
    const auto& face = m.boundary_faces()[bf];
    const double n3[3] = {dual.bface_normal[bf][0] / 3.0,
                          dual.bface_normal[bf][1] / 3.0,
                          dual.bface_normal[bf][2] / 3.0};
    for (int v : face.v) {
      for (int c = 0; c < nb; ++c) qi[c] = q.get(v, c);
      if (face.tag == mesh::BoundaryTag::kWall)
        cfd::wall_flux(cfg, qi, n3, f);
      else
        cfd::rusanov_flux(cfg, qi, qinf, n3, f);
      for (int c = 0; c < nb; ++c) r[q.base(v) + c * st] += f[c];
      sr[v] += cfd::max_wave_speed(cfg, qi, n3);
    }
  }
}

void check_edge_order_contract(const mesh::UnstructuredMesh& m) {
  for (auto model : {cfd::Model::kIncompressible, cfd::Model::kCompressible}) {
    cfd::FlowConfig cfg;
    cfg.model = model;
    cfg.order = 1;
    cfd::EulerDiscretization disc(m, cfg);
    auto q = disc.make_freestream_field();
    for (std::size_t k = 0; k < q.data().size(); ++k)
      q.data()[k] += 1e-3 * std::sin(0.7 * static_cast<double>(k));
    std::vector<double> r_ref, sr_ref, r, sr;
    edge_order_reference(disc, q, r_ref, sr_ref);
    for (int nt : {1, 2, 3, 4}) {
      exec::ThreadScope scope(nt);
      disc.residual(q, r);
      disc.spectral_radius(q, sr);
      ASSERT_EQ(r.size(), r_ref.size());
      ASSERT_EQ(sr.size(), sr_ref.size());
      EXPECT_EQ(std::memcmp(r.data(), r_ref.data(), r.size() * sizeof(double)),
                0)
          << "nb=" << disc.nb() << " nt=" << nt;
      EXPECT_EQ(
          std::memcmp(sr.data(), sr_ref.data(), sr.size() * sizeof(double)), 0)
          << "nb=" << disc.nb() << " nt=" << nt;
    }
  }
}

// 5000 target vertices: enough for four vertex ranges at 4 threads. The
// shuffled wing has unsorted edges; apply_best_ordering sorts them.
TEST(OwnerComputes, EdgeKernelsAccumulateInEdgeOrderAtAnyThreadCount) {
  auto m = mesh::generate_wing_mesh_with_size(5000);
  mesh::shuffle_mesh(m, 17);
  check_edge_order_contract(m);
  mesh::apply_best_ordering(m);
  check_edge_order_contract(m);
}

// --- Schwarz preconditioner across thread counts --------------------------

// Four overlapping subdomains of a first-order wing Jacobian: apply() must
// not depend on the pool size, for restricted and additive prolongation.
TEST(Schwarz, ApplyBitIdenticalAcrossThreadCounts) {
  auto m = mesh::generate_wing_mesh_with_size(1200);
  mesh::apply_best_ordering(m);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  auto jac = disc.allocate_jacobian();
  disc.jacobian(disc.make_freestream_field(), jac);
  for (int i = 0; i < jac.nrows; ++i) {  // ptc-style diagonal term
    double* blk = jac.find_block(i, i);
    for (int c = 0; c < jac.nb; ++c)
      blk[static_cast<std::size_t>(c) * jac.nb + c] += 1.0;
  }
  const auto partition =
      part::kway_grow(mesh::build_graph(m.num_vertices(), m.edges()), 4);
  const int n = jac.scalar_n();
  std::vector<double> r(n), z_ref(n), z(n);
  for (int i = 0; i < n; ++i) r[i] = std::sin(0.37 * i) + 0.5;

  for (auto type : {solver::SchwarzType::kRasm, solver::SchwarzType::kAsm}) {
    SCOPED_TRACE(type == solver::SchwarzType::kRasm ? "rasm" : "asm");
    solver::SchwarzOptions opts;
    opts.type = type;
    opts.overlap = 1;
    opts.fill_level = 1;
    for (int nt : {1, 2, 4}) {
      exec::ThreadScope scope(nt);
      const solver::SchwarzPreconditioner pc(jac, partition, opts);
      ASSERT_EQ(pc.num_subdomains(), 4);
      pc.apply(r.data(), nt == 1 ? z_ref.data() : z.data());
      if (nt == 1) continue;
      EXPECT_EQ(std::memcmp(z.data(), z_ref.data(), n * sizeof(double)), 0)
          << "nt=" << nt;
    }
  }
}

// --- parallel kernels bit-identical across thread counts ------------------

TEST(ColoredKernels, ResidualBitIdenticalAcrossThreadCounts) {
  auto m = mesh::generate_wing_mesh_with_size(1500);
  mesh::shuffle_mesh(m, 2);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;  // exercises gradients + limiters too
  cfd::EulerDiscretization disc(m, cfg);
  auto q = disc.make_freestream_field();
  // Perturb so the limiter actually limits somewhere.
  for (std::size_t i = 0; i < q.data().size(); ++i)
    q.data()[i] += 1e-2 * std::sin(0.3 * static_cast<double>(i));
  std::vector<double> r_ref, r;
  {
    exec::ThreadScope scope(1);
    disc.residual(q, r_ref);
  }
  for (int nt : {2, 4}) {
    exec::ThreadScope scope(nt);
    disc.residual(q, r);
    ASSERT_EQ(r.size(), r_ref.size());
    EXPECT_EQ(std::memcmp(r.data(), r_ref.data(), r.size() * sizeof(double)),
              0)
        << "nt=" << nt;
  }
}

TEST(ColoredKernels, SpmvBitIdenticalAcrossThreadCounts) {
  auto m = mesh::generate_wing_mesh_with_size(1000);
  mesh::shuffle_mesh(m, 8);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  auto jac = disc.allocate_jacobian();
  disc.jacobian(disc.make_freestream_field(), jac);
  const int n = jac.scalar_n();
  std::vector<double> x(n), y_ref(n), y(n);
  for (int i = 0; i < n; ++i) x[i] = std::cos(0.05 * i);
  {
    exec::ThreadScope scope(1);
    jac.spmv(x.data(), y_ref.data());
  }
  for (int nt : {2, 4}) {
    exec::ThreadScope scope(nt);
    jac.spmv(x.data(), y.data());
    EXPECT_EQ(std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(double)),
              0)
        << "nt=" << nt;
  }
}

// --- full solver: byte-identical checkpoints at 1/2/4 threads -------------

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

TEST(Determinism, PtcCheckpointsByteIdenticalAt124Threads) {
  auto run = [&](int nt, const std::string& ck_path,
                 std::vector<double>* x_out) {
    std::remove(ck_path.c_str());
    exec::ThreadScope scope(nt);
    auto m = mesh::generate_wing_mesh(
        mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
    cfd::FlowConfig cfg;
    cfg.model = cfd::Model::kIncompressible;
    cfg.order = 1;
    cfd::EulerDiscretization disc(m, cfg);
    cfd::EulerProblem prob(disc, -1.0);
    auto x = prob.initial_state();
    solver::PtcOptions opts;
    opts.max_steps = 6;
    opts.rtol = 1e-10;
    opts.cfl0 = 10.0;
    opts.num_subdomains = 4;
    opts.schwarz.overlap = 1;
    opts.schwarz.fill_level = 1;
    opts.recovery.enabled = true;
    opts.recovery.checkpoint_path = ck_path;
    opts.recovery.checkpoint_every = 2;
    auto res = solver::ptc_solve(prob, x, opts);
    EXPECT_GT(res.steps, 0);
    *x_out = x;
  };

  // One shared path: the checkpoint's recovery log records the path it
  // was written to, so different filenames would differ by construction.
  std::vector<double> x1, x2, x4;
  const std::string ck = temp_path("f3d_exec_ck.bin");
  run(1, ck, &x1);
  const auto b1 = read_bytes(ck);
  run(2, ck, &x2);
  const auto b2 = read_bytes(ck);
  run(4, ck, &x4);
  const auto b4 = read_bytes(ck);

  // Final states bit-identical...
  ASSERT_EQ(x1.size(), x2.size());
  ASSERT_EQ(x1.size(), x4.size());
  EXPECT_EQ(std::memcmp(x1.data(), x2.data(), x1.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(x1.data(), x4.data(), x1.size() * sizeof(double)), 0);

  // ...and the checkpoint files byte-identical (the resilience layer's
  // replay guarantee survives threading).
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(b1, b4);
  std::remove(ck.c_str());
}

}  // namespace
