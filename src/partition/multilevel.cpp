#include "partition/multilevel.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace f3d::part {

namespace {

// Weighted graph for the coarsening hierarchy.
struct WGraph {
  std::vector<int> ptr, adj;
  std::vector<double> ewgt;  ///< parallel to adj
  std::vector<double> vwgt;  ///< per vertex

  [[nodiscard]] int n() const { return static_cast<int>(vwgt.size()); }
};

WGraph lift(const mesh::Graph& g) {
  WGraph w;
  w.ptr = g.ptr;
  w.adj = g.adj;
  w.ewgt.assign(g.adj.size(), 1.0);
  w.vwgt.assign(g.ptr.size() - 1, 1.0);
  return w;
}

// Heavy-edge matching: visit vertices in random order; match each
// unmatched vertex with its unmatched neighbor of maximum edge weight.
// Returns coarse-vertex id per fine vertex and the coarse count.
int heavy_edge_matching(const WGraph& g, Rng& rng, std::vector<int>& cmap) {
  const int n = g.n();
  cmap.assign(n, -1);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  shuffle(order, rng);

  int nc = 0;
  for (int v : order) {
    if (cmap[v] >= 0) continue;
    int best = -1;
    double best_w = -1;
    for (int p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
      const int u = g.adj[p];
      if (cmap[u] < 0 && g.ewgt[p] > best_w) {
        best_w = g.ewgt[p];
        best = u;
      }
    }
    cmap[v] = nc;
    if (best >= 0) cmap[best] = nc;
    ++nc;
  }
  return nc;
}

WGraph contract(const WGraph& g, const std::vector<int>& cmap, int nc) {
  WGraph c;
  c.vwgt.assign(nc, 0.0);
  for (int v = 0; v < g.n(); ++v) c.vwgt[cmap[v]] += g.vwgt[v];

  // Aggregate edges; per-coarse-vertex map keeps this near-linear.
  std::vector<std::map<int, double>> rows(nc);
  for (int v = 0; v < g.n(); ++v) {
    const int cv = cmap[v];
    for (int p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
      const int cu = cmap[g.adj[p]];
      if (cu != cv) rows[cv][cu] += g.ewgt[p];
    }
  }
  c.ptr.assign(nc + 1, 0);
  for (int v = 0; v < nc; ++v)
    c.ptr[v + 1] = c.ptr[v] + static_cast<int>(rows[v].size());
  c.adj.resize(c.ptr[nc]);
  c.ewgt.resize(c.ptr[nc]);
  for (int v = 0; v < nc; ++v) {
    int q = c.ptr[v];
    for (const auto& [u, w] : rows[v]) {
      c.adj[q] = u;
      c.ewgt[q] = w;
      ++q;
    }
  }
  return c;
}

// Greedy weighted growth on the coarsest graph (kway_grow adapted to
// vertex weights).
std::vector<int> initial_partition(const WGraph& g, int nparts, Rng& rng) {
  const int n = g.n();
  std::vector<int> part(n, -1);
  if (nparts >= n) {
    for (int v = 0; v < n; ++v) part[v] = v % nparts;
    return part;
  }
  std::vector<int> seeds;
  {
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    shuffle(order, rng);
    for (int k = 0; k < nparts; ++k) seeds.push_back(order[k]);
  }
  std::vector<std::vector<int>> frontier(nparts);
  std::vector<double> weight(nparts, 0.0);
  int assigned = 0;
  for (int s = 0; s < nparts; ++s) {
    if (part[seeds[s]] < 0) {
      part[seeds[s]] = s;
      weight[s] += g.vwgt[seeds[s]];
      frontier[s].push_back(seeds[s]);
      ++assigned;
    }
  }
  int next_unassigned = 0;
  while (assigned < n) {
    int best = -1;
    for (int s = 0; s < nparts; ++s)
      if (!frontier[s].empty() && (best < 0 || weight[s] < weight[best]))
        best = s;
    if (best < 0) {
      while (part[next_unassigned] >= 0) ++next_unassigned;
      int smallest = 0;
      for (int s = 1; s < nparts; ++s)
        if (weight[s] < weight[smallest]) smallest = s;
      part[next_unassigned] = smallest;
      weight[smallest] += g.vwgt[next_unassigned];
      frontier[smallest].push_back(next_unassigned);
      ++assigned;
      continue;
    }
    const int v = frontier[best].back();
    frontier[best].pop_back();
    for (int p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
      const int u = g.adj[p];
      if (part[u] < 0) {
        part[u] = best;
        weight[best] += g.vwgt[u];
        frontier[best].push_back(u);
        ++assigned;
      }
    }
  }
  return part;
}

// One FM-style refinement pass: move boundary vertices to the adjacent
// part with the best cut gain, subject to the balance constraint.
// Returns number of moves.
int refine_pass(const WGraph& g, std::vector<int>& part, double max_weight,
                std::vector<double>& weight) {
  const int n = g.n();
  int moves = 0;
  for (int v = 0; v < n; ++v) {
    const int pv = part[v];
    // Connectivity to each adjacent part.
    double internal = 0;
    std::map<int, double> external;
    for (int p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
      const int pu = part[g.adj[p]];
      if (pu == pv)
        internal += g.ewgt[p];
      else
        external[pu] += g.ewgt[p];
    }
    int best = -1;
    double best_gain = 0;
    for (const auto& [pu, w] : external) {
      const double gain = w - internal;
      if (gain > best_gain && weight[pu] + g.vwgt[v] <= max_weight &&
          weight[pv] - g.vwgt[v] > 0) {
        best_gain = gain;
        best = pu;
      }
    }
    if (best >= 0) {
      weight[pv] -= g.vwgt[v];
      weight[best] += g.vwgt[v];
      part[v] = best;
      ++moves;
    }
  }
  return moves;
}

// Balance phase: drain overweight parts by moving their boundary
// vertices to the lightest adjacent part, preferring the cheapest cut
// damage. Runs until all parts fit under max_weight or no move helps.
void balance_pass(const WGraph& g, std::vector<int>& part, int nparts,
                  double max_weight, std::vector<double>& weight) {
  const int n = g.n();
  for (int round = 0; round < 4 * nparts; ++round) {
    int heavy = -1;
    for (int s = 0; s < nparts; ++s)
      if (weight[s] > max_weight && (heavy < 0 || weight[s] > weight[heavy]))
        heavy = s;
    if (heavy < 0) return;

    // Cheapest boundary vertex of the heavy part that has a lighter
    // neighbor part.
    int best_v = -1, best_to = -1;
    double best_cost = 1e300;
    for (int v = 0; v < n; ++v) {
      if (part[v] != heavy) continue;
      double internal = 0;
      int to = -1;
      double to_weight = 1e300;
      double to_conn = 0;
      for (int p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
        const int pu = part[g.adj[p]];
        if (pu == heavy) {
          internal += g.ewgt[p];
        } else if (weight[pu] + g.vwgt[v] < to_weight) {
          to_weight = weight[pu] + g.vwgt[v];
          to = pu;
          to_conn = g.ewgt[p];
        }
      }
      if (to < 0 || weight[to] + g.vwgt[v] > weight[heavy]) continue;
      const double cost = internal - to_conn;
      if (cost < best_cost) {
        best_cost = cost;
        best_v = v;
        best_to = to;
      }
    }
    if (best_v < 0) return;
    weight[heavy] -= g.vwgt[best_v];
    weight[best_to] += g.vwgt[best_v];
    part[best_v] = best_to;
  }
}

/// Coarsening stops once a level has at most this many vertices per part.
constexpr int kCoarsenPerPart = 8;

}  // namespace

Partition multilevel_kway(const mesh::Graph& g, int nparts,
                          const MultilevelOptions& opts) {
  const int n = static_cast<int>(g.ptr.size()) - 1;
  F3D_CHECK(nparts >= 1 && nparts <= n);
  Partition result;
  result.nparts = nparts;
  if (nparts == 1) {
    result.part.assign(n, 0);
    return result;
  }

  Rng rng(opts.seed ^ 0x5bd1e995u);
  const int target = kCoarsenPerPart * nparts;

  // --- coarsening hierarchy ---
  std::vector<WGraph> levels;
  std::vector<std::vector<int>> cmaps;
  levels.push_back(lift(g));
  while (levels.back().n() > target) {
    std::vector<int> cmap;
    const int nc = heavy_edge_matching(levels.back(), rng, cmap);
    if (nc >= levels.back().n()) break;  // matching stalled
    levels.push_back(contract(levels.back(), cmap, nc));
    cmaps.push_back(std::move(cmap));
  }

  // --- initial partition on the coarsest level ---
  auto part = initial_partition(levels.back(), nparts, rng);

  // --- uncoarsen + refine ---
  const double total_weight =
      std::accumulate(levels.front().vwgt.begin(), levels.front().vwgt.end(), 0.0);
  const double max_weight = opts.imbalance_tol * total_weight / nparts;

  for (int lvl = static_cast<int>(levels.size()) - 1; lvl >= 0; --lvl) {
    auto& gw = levels[lvl];
    std::vector<double> weight(nparts, 0.0);
    for (int v = 0; v < gw.n(); ++v) weight[part[v]] += gw.vwgt[v];
    balance_pass(gw, part, nparts, max_weight, weight);
    for (int pass = 0; pass < opts.refine_passes; ++pass)
      if (refine_pass(gw, part, max_weight, weight) == 0) break;
    balance_pass(gw, part, nparts, max_weight, weight);
    if (lvl > 0) {
      // Project to the finer level.
      const auto& cmap = cmaps[lvl - 1];
      std::vector<int> fine(levels[lvl - 1].n());
      for (int v = 0; v < levels[lvl - 1].n(); ++v) fine[v] = part[cmap[v]];
      part = std::move(fine);
    }
  }

  // Guard: every part non-empty (tiny graphs + aggressive refinement can
  // empty one; reseed it with a boundary vertex of the largest part).
  std::vector<int> count(nparts, 0);
  for (int v : part) ++count[v];
  for (int s = 0; s < nparts; ++s) {
    if (count[s] > 0) continue;
    int donor = 0;
    for (int t = 1; t < nparts; ++t)
      if (count[t] > count[donor]) donor = t;
    for (int v = 0; v < n; ++v)
      if (part[v] == donor) {
        part[v] = s;
        --count[donor];
        ++count[s];
        break;
      }
  }

  result.part = std::move(part);
  return result;
}

}  // namespace f3d::part
