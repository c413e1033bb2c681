// FlowConfig::bind — only the performance-relevant discretization knobs
// are registered; the physics (model, Mach, alpha, order, limiter) is
// deliberately fixed, because a tuner must never change the problem it is
// timing.

#include "cfd/state.hpp"
#include "tune/registry.hpp"

namespace f3d::cfd {

void FlowConfig::bind(tune::Registry& reg, const std::string& prefix) {
  reg.add_enum(prefix + "layout", &layout, {"interlaced", "noninterlaced"},
               "field storage layout (§2.1.1, Table 1); interlaced wins on "
               "cache machines and is required by EulerProblem's solver "
               "path — bound for introspection, excluded from the default "
               "search space");
  reg.add_bool(prefix + "reco_single_precision", &reco_single_precision,
               "store second-order reconstruction operands in float "
               "(double arithmetic) — the Table 2 storage/accumulate "
               "split on the flux side; read only at order 2, so the "
               "first-order tuning lab excludes it from the default "
               "search space");
}

}  // namespace f3d::cfd
