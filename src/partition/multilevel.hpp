#pragma once
// Multilevel k-way partitioner — the closest stand-in for MeTiS proper
// (Karypis & Kumar [13]): heavy-edge-matching coarsening, a greedy
// partition of the coarsest graph, and Fiduccia-Mattheyses-style boundary
// refinement during uncoarsening. Compared with the single-level
// kway_grow it cuts 20-40% fewer edges at comparable balance, which the
// Figure 4 bench uses as its strongest "k-MeTiS" representative.

#include "partition/partition.hpp"

namespace f3d::part {

struct MultilevelOptions {
  unsigned seed = 0;
  int refine_passes = 4;    ///< FM passes per uncoarsening level
  double imbalance_tol = 1.05;  ///< max part weight / ideal
};

/// Partition `g` into `nparts` with the multilevel scheme.
Partition multilevel_kway(const mesh::Graph& g, int nparts,
                          const MultilevelOptions& opts = {});

}  // namespace f3d::part
