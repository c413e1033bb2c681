#!/usr/bin/env python3
"""Repository benchmark: ψNKS wing time-to-solution and fleet throughput.

    python3 perfbench/run.py --workload wing22k_1t --seed 7 --seconds 5 --trace 0

Run from the root of a checkout. Builds perfbench/ (and the f3d libraries
it compiles from src/) into $CARGO_TARGET_DIR, default .bench_build, runs
the harness once, checks its outputs, prints every metric with its unit,
and ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Metric definitions and predictions: perfbench/METRICS.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402

WORKLOADS = ("wing22k_1t", "fleet_sweep")
WING_RTOL = 1e-8
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the harness; output goes to stderr.
    Compiler temporaries go under the build tree, not the system's."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def run_harness(build_dir, args):
    out_dir = os.path.join(build_dir, "perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    # Any integer seed, negative too, maps into the 31-bit seed range.
    seed = args.seed % 2147483647
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out,
           "--workdir", os.path.join(build_dir, "perfbench_work")]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: harness exited with {proc.returncode}")
    with open(out) as f:
        return json.load(f), out


class Checks:
    """Verification outcomes. A unit is one solve or one scenario; a unit
    that fails any of its checks counts once in `failed`."""

    def __init__(self):
        self.units = set()
        self.failed_units = set()
        self.problems = []

    def add(self, unit, ok, what):
        self.units.add(unit)
        if not ok:
            self.failed_units.add(unit)
            self.problems.append(f"{unit}: {what}")

    @property
    def attempted(self):
        return len(self.units)

    @property
    def failed(self):
        return len(self.failed_units)


def wing_checks(doc, ref, checks):
    mesh = doc["mesh"]
    solves = doc["solves"]
    for i, s in enumerate(solves):
        key = f"solve{i}:{s['label']}"
        checks.add(key, s["converged"] and s["verdict"] == "converged",
                   f"not converged ({s['verdict']})")
        ratio = s["final_residual"] / s["initial_residual"]
        checks.add(key, ratio <= WING_RTOL,
                   f"final/initial residual {ratio:.3e} > {WING_RTOL}")
        fref = ref["wing_force"]
        err = math.dist(s["force"], fref) / math.hypot(*fref)
        checks.add(key, err <= ref["wing_force_rel_tol"],
                   f"wall force off the reference by {err:.2e} (relative)")
        checks.add(key, mesh["vertices"] == ref["wing_vertices"] and
                   mesh["edges"] == ref["wing_edges"],
                   f"mesh is {mesh['vertices']} vertices / {mesh['edges']} "
                   "edges")
    # Bit-identity per (ISA, precision) at any thread count, and the
    # wrapper's transparency: every solve of one run lands on one CRC.
    for i, s in enumerate(solves):
        checks.add(f"solve{i}:{s['label']}", s["crc"] == solves[0]["crc"],
                   f"CRC {s['crc']} differs from {solves[0]['label']} "
                   f"{solves[0]['crc']}")


def fleet_checks(doc, checks):
    crc_of = {}
    units = []
    for k, p in enumerate(doc["primes"]):
        units += [(f"prime{k}", sc) for sc in p["scenarios"]]
    for k, b in enumerate(doc["batches"]):
        units += [(f"batch{k}", sc) for sc in b["scenarios"]]
    for tag, sc in units:
        case = (sc["vertices"], sc["mach"], sc["alpha_deg"])
        crc_of.setdefault(case, sc["crc"])
        key = f"{tag}:scenario{sc['id']}"
        checks.add(key, sc["status"] == "committed" and
                   sc["verdict"] == "converged",
                   f"{sc['status']} with verdict {sc['verdict']}")
        checks.add(key, sc["crc"] == crc_of[case],
                   f"CRC {sc['crc']} does not repeat {crc_of[case]}")
    for i, s in enumerate(doc.get("solves", [])):
        key = f"replica{i}:{s['label']}"
        checks.add(key, s["converged"] and s["verdict"] == "converged",
                   f"not converged ({s['verdict']})")
        sc = doc["batches"][0]["scenarios"][doc["replica_scenario"]]
        checks.add(key, s["crc"] == sc["crc"],
                   f"CRC {s['crc']} differs from the fleet's {sc['crc']}")


def spans_by_name(spans):
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s)
    return out


def dur(s):
    return s["t1"] - s["t0"]


def end_to_end(doc):
    """The --trace 0 metrics, {name: (value, unit)}."""
    if doc["workload"] == "fleet_sweep":
        batches = doc["batches"]
        solve_s = m.median([b["wall_s"] for b in batches])
        per_hour = 3600.0 * m.median([b["committed"] / b["wall_s"]
                                      for b in batches])
        latencies = [sc["wall_s"] for b in batches for sc in b["scenarios"]]
        p50 = m.median(latencies)
        p90 = m.tail_percentile(latencies, 0.9)
    else:
        # A wing run serves one scenario, the wing solve, measured as the
        # median of its timed solves.
        solve_s = m.median([s["wall_s"] for s in doc["solves"]
                            if s["label"] == "timed"])
        per_hour = 3600.0 / solve_s
        p50 = p90 = solve_s
    return {
        "setup_s": (m.median(doc["setup_s"]), "s"),
        "solve_s": (solve_s, "s"),
        "scenarios_per_hour": (per_hour, "1/h"),
        "scenario_p50_s": (p50, "s"),
        "scenario_p90_s": (p90, "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def per_layer(doc):
    """The --trace 1 metrics, {name: (value, unit)}; None marks a counter
    the program no longer registers."""
    spans = doc["spans_doc"]["spans"]
    by = spans_by_name(spans)
    selft = m.self_times(spans)
    solves = {s["label"]: s for s in doc["solves"]}
    traced, plain = solves["traced"], solves["untraced"]
    kern, ex = doc["kernels"], doc["exec"]
    stream_bps = ex["stream_triad_mbs"] * 1e6

    def med(name):
        return m.median([dur(s) for s in by[name]])

    (root,) = by["solver.ptc_solve"]
    calls = {n: [s for s in by.get(n, []) if s["parent"] == root["id"]]
             for n in ("cfd.residual", "cfd.jacobian", "cfd.timestep_scale")}
    busy = {n: sum(dur(s) for s in v) for n, v in calls.items()}
    t_res = med("replay.cfd.residual")
    t_spmv = med("replay.sparse.spmv")
    out = {
        "mesh.generate_s": (med("mesh.generate"), "s"),
        "mesh.order_s": (med("mesh.order"), "s"),
        "mesh.geometry_s": (med("mesh.geometry"), "s"),
        "mesh.vertices": (doc["mesh"]["vertices"], "count"),
        "mesh.edges": (doc["mesh"]["edges"], "count"),
        "mesh.bandwidth": (doc["mesh"]["bandwidth"], "count"),
        "cfd.residual.calls": (len(calls["cfd.residual"]), "count"),
        "cfd.residual.busy_s": (busy["cfd.residual"], "s"),
        "cfd.jacobian.calls": (len(calls["cfd.jacobian"]), "count"),
        "cfd.jacobian.busy_s": (busy["cfd.jacobian"], "s"),
        "cfd.timestep_scale.busy_s": (busy["cfd.timestep_scale"], "s"),
        "cfd.gradients_ms": (1e3 * med("replay.cfd.gradients"), "ms"),
        "cfd.limiters_ms": (1e3 * med("replay.cfd.limiters"), "ms"),
        "cfd.residual_ms": (1e3 * t_res, "ms"),
        "cfd.spectral_radius_ms": (1e3 * med("replay.cfd.spectral_radius"),
                                   "ms"),
        "cfd.jacobian_ms": (1e3 * med("replay.cfd.jacobian"), "ms"),
        "cfd.residual.gflops": (kern["residual_flops"] / t_res / 1e9,
                                "Gflop/s"),
        "cfd.residual.bytes": (kern["residual_bytes"], "B"),
        "cfd.residual.stream_frac": (
            kern["residual_bytes"] / t_res / stream_bps, "fraction"),
        "solver.steps": (traced["steps"], "count"),
        "solver.linear_iterations": (traced["linear_iterations"], "count"),
        "solver.residual_evals": (traced["residual_evals"], "count"),
        "solver.precond_applies": (traced["precond_applies"], "count"),
        "solver.gmres_restart_cycles": (traced["gmres_restart_cycles"],
                                        "count"),
        "solver.other_s": (selft[root["id"]], "s"),
        "sparse.ilu_setup_ms": (1e3 * med("replay.sparse.ilu_setup"), "ms"),
        "sparse.ilu_refactor_ms": (1e3 * med("replay.sparse.ilu_refactor"),
                                   "ms"),
        "sparse.precond_apply_ms": (
            1e3 * med("replay.sparse.precond_apply"), "ms"),
        "sparse.spmv_ms": (1e3 * t_spmv, "ms"),
        "sparse.spmv_bytes": (kern["spmv_bytes"], "B"),
        "sparse.spmv_stream_frac": (
            kern["spmv_bytes"] / t_spmv / stream_bps, "fraction"),
        "sparse.factor_bytes": (kern["factor_bytes"], "B"),
        "exec.dispatch_us": (
            1e6 * med("replay.exec.dispatch") / ex["dispatch_per_batch"],
            "us"),
        "exec.dot_ms": (1e3 * med("replay.exec.dot"), "ms"),
        "exec.dispatch_4t_us": (
            1e6 * med("replay.exec.dispatch_wide") / ex["dispatch_per_batch"],
            "us"),
        "exec.solve_4t_s": (solves["wide"]["wall_s"], "s"),
        "perf.stream_triad_gbps": (ex["stream_triad_mbs"] / 1e3, "GB/s"),
        "perf.stream_array_bytes": (ex["stream_array_bytes"], "B"),
        "perf.llc_bytes": (doc["host"]["llc_bytes"], "B"),
        "perf.working_set_bytes": (kern["working_set_bytes"], "B"),
        "obs.trace_overhead_frac": (
            traced["wall_s"] / plain["wall_s"] - 1.0, "fraction"),
    }
    fleet = {"fleet.committed": (0, "count"), "fleet.retries": (0, "count"),
             "fleet.artifact_share_ratio": (0.0, "fraction"),
             "fleet.journal_frames": (0, "count"),
             "fleet.journal_bytes": (0, "B"),
             "fleet.worker_busy_frac": (0.0, "fraction")}
    if doc["workload"] == "fleet_sweep":
        (batch,) = doc["batches"]
        f = doc["fleet"]
        built, shared = f["artifacts_built"] or 0, f["artifacts_shared"] or 0
        fleet = {
            "fleet.committed": (batch["committed"], "count"),
            "fleet.retries": (batch["retries"], "count"),
            "fleet.artifact_share_ratio": (shared / (built + shared),
                                           "fraction"),
            "fleet.journal_frames": (f["journal_frames"], "count"),
            "fleet.journal_bytes": (f["journal_bytes"], "B"),
            "fleet.worker_busy_frac": (
                sum(sc["wall_s"] for sc in batch["scenarios"]) /
                (f["workers"] * batch["wall_s"]), "fraction"),
        }
    out.update(fleet)
    return out


def layer_checks(doc, checks):
    """Traced-run consistency: the wrapper's call counts reconcile with
    ptc_solve's own tally, and the traced solve did the same work."""
    solves = {s["label"]: s for s in doc["solves"]}
    traced, plain = solves["traced"], solves["untraced"]
    by = spans_by_name(doc["spans_doc"]["spans"])
    n_res = len(by.get("cfd.residual", []))
    n_ts = len(by.get("cfd.timestep_scale", []))
    checks.add("traced", n_res + n_ts == traced["residual_evals"],
               f"{n_res} residual + {n_ts} timestep-scale calls != "
               f"{traced['residual_evals']} residual evaluations")
    checks.add("traced", n_ts == traced["steps"],
               f"{n_ts} timestep-scale calls != {traced['steps']} steps")
    for k in ("steps", "linear_iterations", "residual_evals"):
        checks.add("traced", traced[k] == plain[k],
                   f"traced {k} {traced[k]} != untraced {plain[k]}")


def check_declared(figures, absent, section):
    """Every metric printed is declared in BENCHMARK.json with the same
    unit, and every declared one is printed or reported absent."""
    bad = [k for k in figures if not m.valid_metric_name(k)]
    if bad:
        raise SystemExit(f"perfbench: invalid metric names {bad}")
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        declared = {e["name"]: e["unit"] for e in json.load(f)[section]}
    produced = {k: u for k, (_, u) in figures.items()}
    wrong = {k: u for k, u in produced.items() if declared.get(k) != u}
    missing = set(declared) - set(produced) - set(absent)
    if wrong or missing:
        raise SystemExit(f"perfbench: metrics disagree with {section} of "
                         f"BENCHMARK.json: undeclared or unit differs "
                         f"{wrong}, missing {sorted(missing)}")


def context(doc):
    host = dict(doc["host"])
    ctx = {"workload": doc["workload"], "seed": doc["seed"],
           "threads": doc["threads"], "run_id": doc["run_id"], "host": host}
    if "kernels" in doc:
        ctx["working_set_bytes"] = doc["kernels"]["working_set_bytes"]
        ctx["working_set_fits_llc"] = (
            doc["kernels"]["working_set_bytes"] <= host["llc_bytes"])
    if "exec" in doc:
        ctx["stream_array_bytes"] = doc["exec"]["stream_array_bytes"]
        ctx["stream_threads"] = doc["exec"]["stream_threads"]
    return ctx


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    doc, out_path = run_harness(build_dir, args)
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)

    checks = Checks()
    if doc["workload"] == "fleet_sweep":
        fleet_checks(doc, checks)
    else:
        wing_checks(doc, ref, checks)
    if args.trace:
        layer_checks(doc, checks)
        figures = per_layer(doc)
    else:
        figures = end_to_end(doc)
        figures["verified_frac"] = (
            1.0 - checks.failed / checks.attempted, "fraction")

    absent = sorted(k for k, (v, _) in figures.items() if v is None)
    figures = {k: vu for k, vu in figures.items() if vu[0] is not None}
    check_declared(figures, absent, "per_layer" if args.trace else "end_to_end")

    print("context " + json.dumps(context(doc), sort_keys=True))
    for k in sorted(figures):
        v, unit = figures[k]
        print(f"{k} = {v:.6g} {unit}")
    for k in absent:
        print(f"{k}: absent (the program no longer registers this counter)")
    for p in checks.problems:
        print(f"CHECK FAILED {p}")
    print(f"failed_frac = {checks.failed / checks.attempted:.6g} "
          f"({checks.failed} of {checks.attempted} solves or scenarios)")

    # Keep the whole run, spans with their self times, next to the build.
    selft = m.self_times(doc["spans_doc"]["spans"])
    for s in doc["spans_doc"]["spans"]:
        s["self"] = selft[s["id"]]
    doc["metrics"] = {k: v for k, (v, _) in figures.items()}
    with open(out_path, "w") as f:
        json.dump(doc, f)

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in figures.items()},
    }))


if __name__ == "__main__":
    main()
