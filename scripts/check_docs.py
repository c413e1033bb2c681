#!/usr/bin/env python3
"""Docs gate: validate the machine-readable artifacts and the markdown.

Checks, in order:
  1. Every committed BENCH_*.json carries the unified f3d-bench-v1
     envelope ({"meta": {"schema", "experiment"}, "series": ...}).
  2. Optionally (--trace FILE) a Chrome trace emitted by F3D_TRACE=1
     matches the f3d-trace-v1 schema: non-empty traceEvents, each event
     a complete ("ph" == "X") event with name/ts/dur/pid/tid, and the
     meta block carrying the schema tag. With --min-coverage, the
     depth-1 spans on the root span's tid must account for at least
     that fraction of the root span's duration.
  3. BENCH_failslow.json (when committed) additionally carries the
     fail-slow gates: a non-empty sweep with the per-cell keys, a
     ladder-recovery fraction >= 0.5 against the 4x straggler, and zero
     detector false positives over the clean campaigns.
  4. BENCH_deadline.json (when committed) carries the run-to-completion
     gates: the degradation ladder's on-time rate >= 0.95 (and above the
     no-ladder baseline), zero stall-watchdog false positives on clean
     scenarios with the stall scenario detected, and p99 cancellation
     latency within the documented work-unit bound at 1, 2 and 4
     threads with thread-invariant cancelled states.
  5. BENCH_tune.json (when committed) carries the self-tuning gates: at
     least two mesh-class cells with the tuned-vs-default keys, a tuned
     time never worse than the default (beyond timing noise), a
     bit-identical DB round-trip per cell, and an honest gate_note on
     any cell that retained the compiled defaults.
  6. BENCH_fleet.json (when committed) carries the scenario-fleet gates:
     a >= 64-scenario sweep served in the three lanes (clean /
     storm-none / storm-ladder), the retry ladder completing 100% of
     non-poison scenarios while quarantining 100% of injected poison,
     an exactly-once kill-and-restart (zero lost, zero
     double-committed), clean-lane serving overhead <= 10%, and a
     deterministic re-run.
  7. Every committed BENCH_*.json names an experiment registered in
     KNOWN_EXPERIMENTS below; an unknown experiment with no validator
     fails the gate rather than sliding through envelope-only.
  8. Optionally (--tunedb FILE) a persisted tuning database matches the
     f3d-tunedb-v1 schema: the schema tag, an entries array, and per
     entry the (mesh_class, host_isa, precision) key plus a config
     object.
  9. Optionally (--knobs FILE, a `tuned_solve -dump-knobs` catalog)
     every registered knob is documented: each knob's name must appear
     in docs/TUNING.md (or --tuning-md FILE), so adding a knob without
     documenting it fails CI.
  10. No dead relative links in README.md, DESIGN.md, EXPERIMENTS.md,
      ROADMAP.md, or docs/*.md.

Stdlib only; exits nonzero with one line per problem found.
"""

import argparse
import glob
import json
import os
import re
import sys

BENCH_SCHEMA = "f3d-bench-v1"
TRACE_SCHEMA = "f3d-trace-v1"

MARKDOWN_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")


def check_bench_report(path, errors):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable or invalid JSON ({e})")
        return
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        errors.append(f"{path}: missing meta object")
        return
    if meta.get("schema") != BENCH_SCHEMA:
        errors.append(f"{path}: meta.schema is {meta.get('schema')!r}, "
                      f"expected {BENCH_SCHEMA!r}")
    if not isinstance(meta.get("experiment"), str) or not meta["experiment"]:
        errors.append(f"{path}: meta.experiment must be a non-empty string")
    check_host_isa(path, meta, errors)
    if "series" not in doc:
        errors.append(f"{path}: missing series member")
        return
    exp = meta.get("experiment")
    if exp not in KNOWN_EXPERIMENTS:
        errors.append(
            f"{path}: experiment {exp!r} has no registered validator - "
            "register it in KNOWN_EXPERIMENTS (scripts/check_docs.py) so "
            "its gates are stated explicitly rather than skipped")
        return
    validator = KNOWN_EXPERIMENTS[exp]
    if validator is not None:
        validator(path, doc["series"], errors)


def check_host_isa(path, meta, errors):
    """Every artifact must say what vector hardware produced it: a SIMD
    or precision ratio is not interpretable without the host ISA."""
    isa = meta.get("host_isa")
    if not isinstance(isa, dict):
        errors.append(f"{path}: meta.host_isa missing (regenerate with a "
                      "current bench binary)")
        return
    if not isinstance(isa.get("isa"), str) or not isa["isa"]:
        errors.append(f"{path}: meta.host_isa.isa must be a non-empty string")
    if not isinstance(isa.get("arch"), str) or not isa["arch"]:
        errors.append(f"{path}: meta.host_isa.arch must be a non-empty string")
    if not isinstance(isa.get("double_lanes"), int) or isa["double_lanes"] < 1:
        errors.append(f"{path}: meta.host_isa.double_lanes missing or < 1")
    if not isinstance(isa.get("simd_compiled"), bool):
        errors.append(f"{path}: meta.host_isa.simd_compiled must be a bool")


SIMD_KERNELS = ("flux_residual", "limiter", "block_spmv", "ilu1_factor",
                "ilu0_trisolve", "full_solve")
SIMD_KERNEL_KEYS = (
    "scalar_double_seconds", "simd_double_seconds", "simd_mixed_seconds",
    "speedup_simd_double", "speedup_simd_mixed",
)


def check_simd_series(path, series, errors):
    """SIMD/mixed-precision A/B gates re-checked from the committed
    artifact: the three-way comparison must be present for every hot
    kernel, the mixed solve must reach the double solve's tolerance, and
    the speedup gate must either be met or honestly annotated next to the
    modeled ratios."""
    if not isinstance(series, dict):
        errors.append(f"{path}: simd series must be an object")
        return
    configs = series.get("configs")
    if configs != ["scalar-double", "simd-double", "simd-mixed"]:
        errors.append(f"{path}: configs must list the three-way A/B "
                      f"(got {configs!r})")
    kernels = series.get("kernels")
    if not isinstance(kernels, dict):
        errors.append(f"{path}: kernels object missing")
        kernels = {}
    for name in SIMD_KERNELS:
        cell = kernels.get(name)
        missing = [k for k in SIMD_KERNEL_KEYS
                   if not isinstance(cell, dict) or k not in cell]
        if missing:
            errors.append(f"{path}: kernels.{name} missing "
                          f"{', '.join(missing)}")
    model = series.get("model")
    if not isinstance(model, dict) or not isinstance(
            model.get("traffic_model_precision_bound"), (int, float)):
        errors.append(f"{path}: model.traffic_model_precision_bound missing "
                      "- the measured ratios need the modeled expectation "
                      "beside them")
    solve = series.get("mixed_solve")
    if not isinstance(solve, dict) or solve.get("same_tolerance") is not True:
        errors.append(f"{path}: mixed_solve.same_tolerance must be true - "
                      "float storage may not change what the solver "
                      "converges to")
    gate = series.get("gate_speedup")
    if not isinstance(gate, (int, float)) or gate < 1.3:
        errors.append(f"{path}: gate_speedup missing or < 1.3")
    if series.get("meets_gate") is True:
        for name in ("flux_residual", "block_spmv"):
            cell = kernels.get(name, {})
            sp = cell.get("speedup_simd_mixed") if isinstance(cell, dict) else None
            if not isinstance(sp, (int, float)) or (
                    isinstance(gate, (int, float)) and sp < gate):
                errors.append(f"{path}: meets_gate claims {name} >= "
                              f"{gate!r} but speedup_simd_mixed is {sp!r}")
    elif not (isinstance(series.get("gate_note"), str)
              and series["gate_note"]):
        errors.append(f"{path}: gate not met and no gate_note - a miss must "
                      "be honestly annotated (see EXPERIMENTS.md)")


FAILSLOW_CELL_KEYS = (
    "pattern", "severity", "policy", "seconds", "none_seconds",
    "oracle_seconds", "recovered_frac", "slow_confirmed",
    "detect_latency_steps",
)


def check_failslow_series(path, series, errors):
    """Fail-slow gates re-checked from the committed artifact, so a stale
    or hand-edited BENCH_failslow.json cannot pass the docs stage."""
    if not isinstance(series, dict):
        errors.append(f"{path}: failslow series must be an object")
        return
    sweep = series.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        errors.append(f"{path}: failslow sweep missing or empty")
    else:
        for k, cell in enumerate(sweep):
            missing = [key for key in FAILSLOW_CELL_KEYS
                       if not isinstance(cell, dict) or key not in cell]
            if missing:
                errors.append(f"{path}: sweep cell {k} missing "
                              f"{', '.join(missing)}")
    recovered = series.get("ladder_recovered_4x_straggler")
    if not isinstance(recovered, (int, float)) or recovered < 0.5:
        errors.append(f"{path}: ladder_recovered_4x_straggler is "
                      f"{recovered!r}, need >= 0.5")
    fp = series.get("false_positives")
    if fp != 0:
        errors.append(f"{path}: detector false_positives is {fp!r}, "
                      "need exactly 0")
    if not isinstance(series.get("clean_runs"), int) or series["clean_runs"] < 1:
        errors.append(f"{path}: clean_runs missing or < 1")


DEADLINE_CELL_KEYS = (
    "scenario", "budget_frac", "ladder", "verdict", "on_time",
    "budget_units", "work_units", "residual_drop_orders", "degrade_rungs",
)


def check_deadline_series(path, series, errors):
    """Run-to-completion gates re-checked from the committed artifact, so
    a stale or hand-edited BENCH_deadline.json cannot pass the docs
    stage."""
    if not isinstance(series, dict):
        errors.append(f"{path}: deadline series must be an object")
        return
    sweep = series.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        errors.append(f"{path}: deadline sweep missing or empty")
    else:
        for k, cell in enumerate(sweep):
            missing = [key for key in DEADLINE_CELL_KEYS
                       if not isinstance(cell, dict) or key not in cell]
            if missing:
                errors.append(f"{path}: sweep cell {k} missing "
                              f"{', '.join(missing)}")
    ladder = series.get("on_time_rate_ladder")
    if not isinstance(ladder, (int, float)) or ladder < 0.95:
        errors.append(f"{path}: on_time_rate_ladder is {ladder!r}, "
                      "need >= 0.95")
    baseline = series.get("on_time_rate_none")
    if not isinstance(baseline, (int, float)):
        errors.append(f"{path}: on_time_rate_none missing")
    elif isinstance(ladder, (int, float)) and baseline >= ladder:
        errors.append(f"{path}: on_time_rate_none ({baseline!r}) must be "
                      f"below the ladder rate ({ladder!r}) - the ladder "
                      "must demonstrably buy on-time completions")
    fp = series.get("watchdog_false_positives")
    if fp != 0:
        errors.append(f"{path}: watchdog_false_positives is {fp!r}, "
                      "need exactly 0")
    if not isinstance(series.get("clean_runs"), int) or series["clean_runs"] < 1:
        errors.append(f"{path}: clean_runs missing or < 1")
    if series.get("stall_detected") is not True:
        errors.append(f"{path}: stall_detected must be true - the watchdog "
                      "missed the stall scenario")
    bound = series.get("cancel_latency_bound_units")
    if not isinstance(bound, int) or bound < 1:
        errors.append(f"{path}: cancel_latency_bound_units missing or < 1")
        bound = None
    lat = series.get("cancel_latency")
    if not isinstance(lat, list) or not lat:
        errors.append(f"{path}: cancel_latency missing or empty")
    else:
        threads = set()
        for k, row in enumerate(lat):
            if not isinstance(row, dict):
                errors.append(f"{path}: cancel_latency row {k} not an object")
                continue
            threads.add(row.get("threads"))
            p99 = row.get("p99_latency_units")
            if not isinstance(p99, int):
                errors.append(f"{path}: cancel_latency row {k} missing "
                              "p99_latency_units")
            elif bound is not None and p99 > bound:
                errors.append(f"{path}: p99 cancellation latency {p99} at "
                              f"{row.get('threads')} thread(s) exceeds the "
                              f"documented bound {bound}")
        if not {1, 2, 4} <= threads:
            errors.append(f"{path}: cancel_latency must cover 1, 2 and 4 "
                          f"threads (got {sorted(t for t in threads if t)})")
    if series.get("cancel_states_thread_invariant") is not True:
        errors.append(f"{path}: cancel_states_thread_invariant must be true "
                      "- cancelled states diverged across thread counts")


TUNE_CELL_KEYS = (
    "mesh_class", "vertices", "default_seconds", "tuned_seconds",
    "speedup", "trials", "improved", "db_roundtrip_identical",
    "tuned_config",
)

TUNEDB_SCHEMA = "f3d-tunedb-v1"


def check_tune_series(path, series, errors):
    """Self-tuning gates re-checked from the committed artifact: the tuned
    config must never be worse than the compiled defaults (the search's
    structural fallback), every cell's DB round-trip must be bit-exact,
    and a cell that kept the defaults must say why."""
    if not isinstance(series, dict):
        errors.append(f"{path}: tune series must be an object")
        return
    cells = series.get("mesh_classes")
    if not isinstance(cells, list) or len(cells) < 2:
        errors.append(f"{path}: mesh_classes must cover >= 2 mesh classes")
        cells = cells if isinstance(cells, list) else []
    for k, cell in enumerate(cells):
        missing = [key for key in TUNE_CELL_KEYS
                   if not isinstance(cell, dict) or key not in cell]
        if missing:
            errors.append(f"{path}: mesh_classes cell {k} missing "
                          f"{', '.join(missing)}")
            continue
        # Never-worse with a 2% timing-noise margin: speedup >= 0.98.
        if not isinstance(cell.get("speedup"), (int, float)) or \
                cell["speedup"] < 0.98:
            errors.append(f"{path}: cell {cell.get('mesh_class')!r} speedup "
                          f"{cell.get('speedup')!r} violates the never-worse "
                          "gate (need >= 0.98)")
        if cell.get("db_roundtrip_identical") is not True:
            errors.append(f"{path}: cell {cell.get('mesh_class')!r} DB "
                          "round-trip is not bit-identical")
        if cell.get("improved") is not True and not (
                isinstance(cell.get("gate_note"), str) and cell["gate_note"]):
            errors.append(f"{path}: cell {cell.get('mesh_class')!r} kept "
                          "the defaults but carries no gate_note - a "
                          "no-improvement result must be honestly annotated")
    if series.get("never_worse") is not True:
        errors.append(f"{path}: never_worse must be true - the search's "
                      "baseline fallback guarantees it structurally")
    if series.get("db_schema") != TUNEDB_SCHEMA:
        errors.append(f"{path}: db_schema is {series.get('db_schema')!r}, "
                      f"expected {TUNEDB_SCHEMA!r}")


FLEET_LANES = ("clean", "storm-none", "storm-ladder")
FLEET_LANE_KEYS = (
    "name", "completed", "quarantined", "wall_s", "scenarios_per_hour",
    "p50_latency_s", "p99_latency_s",
)


def check_fleet_series(path, series, errors):
    """Scenario-fleet gates re-checked from the committed artifact: the
    retry ladder must demonstrably buy completions over the unmitigated
    storm, poison must be fully quarantined, the journal must make
    kill-and-restart exactly-once, and the robustness machinery must be
    near-free on a clean batch."""
    if not isinstance(series, dict):
        errors.append(f"{path}: fleet series must be an object")
        return
    n = series.get("scenarios")
    if not isinstance(n, int) or n < 64:
        errors.append(f"{path}: scenarios is {n!r}, need a >= 64-scenario "
                      "sweep")
    lanes = {}
    raw = series.get("lanes")
    if not isinstance(raw, list):
        errors.append(f"{path}: lanes array missing")
        raw = []
    for k, lane in enumerate(raw):
        missing = [key for key in FLEET_LANE_KEYS
                   if not isinstance(lane, dict) or key not in lane]
        if missing:
            errors.append(f"{path}: lane {k} missing {', '.join(missing)}")
            continue
        lanes[lane["name"]] = lane
        if not isinstance(lane["scenarios_per_hour"], (int, float)) or \
                lane["scenarios_per_hour"] <= 0:
            errors.append(f"{path}: lane {lane['name']!r} "
                          "scenarios_per_hour must be > 0")
        if isinstance(lane["p50_latency_s"], (int, float)) and \
                isinstance(lane["p99_latency_s"], (int, float)) and \
                lane["p50_latency_s"] > lane["p99_latency_s"]:
            errors.append(f"{path}: lane {lane['name']!r} p50 latency "
                          "exceeds p99")
    for name in FLEET_LANES:
        if name not in lanes:
            errors.append(f"{path}: lane {name!r} missing")
    frac = series.get("non_poison_completed_frac_ladder")
    if frac != 1:
        errors.append(f"{path}: non_poison_completed_frac_ladder is "
                      f"{frac!r} - the ladder must complete 100% of "
                      "non-poison scenarios")
    injected = series.get("poison_injected")
    quarantined = series.get("poison_quarantined")
    if not isinstance(injected, int) or injected < 1:
        errors.append(f"{path}: poison_injected missing or < 1 - the storm "
                      "must include poison for the quarantine gate to mean "
                      "anything")
    elif quarantined != injected:
        errors.append(f"{path}: poison_quarantined is {quarantined!r}, "
                      f"need all {injected} injected poison quarantined")
    if not isinstance(series.get("fragile_injected"), int) or \
            series["fragile_injected"] < 1:
        errors.append(f"{path}: fragile_injected missing or < 1")
    if "storm-none" in lanes and "storm-ladder" in lanes and \
            lanes["storm-none"]["completed"] >= \
            lanes["storm-ladder"]["completed"]:
        errors.append(f"{path}: storm-none completed "
                      f"{lanes['storm-none']['completed']} must be below "
                      f"storm-ladder {lanes['storm-ladder']['completed']} - "
                      "the ladder must demonstrably buy completions")
    kill = series.get("kill_restart")
    if not isinstance(kill, dict):
        errors.append(f"{path}: kill_restart object missing")
    else:
        if not isinstance(kill.get("killed_after"), int) or \
                kill["killed_after"] < 1:
            errors.append(f"{path}: kill_restart.killed_after missing or "
                          "< 1 - the kill must land mid-batch")
        if kill.get("lost") != 0:
            errors.append(f"{path}: kill_restart.lost is "
                          f"{kill.get('lost')!r}, need exactly 0")
        if kill.get("double_committed") != 0:
            errors.append(f"{path}: kill_restart.double_committed is "
                          f"{kill.get('double_committed')!r}, need exactly 0")
    overhead = series.get("overhead_frac")
    if not isinstance(overhead, (int, float)) or overhead > 0.10:
        errors.append(f"{path}: overhead_frac is {overhead!r}, need <= 0.10 "
                      "- journaling and admission must be near-free on a "
                      "clean batch")
    if series.get("deterministic_rerun") is not True:
        errors.append(f"{path}: deterministic_rerun must be true - fleet "
                      "results must be bit-identical for a fixed (spec, "
                      "seed, workers)")


# Every committed BENCH_*.json must name one of these experiments. A
# validator re-checks the experiment's gates from the artifact; None means
# the experiment has no gates beyond the envelope (figure/table replays
# whose numbers are judged against the paper in EXPERIMENTS.md, not
# thresholded here). An experiment absent from this table fails the docs
# stage outright - new artifacts must state their gates.
KNOWN_EXPERIMENTS = {
    "ablation_coarse": None,
    "ablation_params": None,
    "ablation_subsolver": None,
    "availability": None,
    "deadline": check_deadline_series,
    "failslow": check_failslow_series,
    "fig1_asci_red": None,
    "fig2_machines": None,
    "fig3_cache_tlb": None,
    "fig4_partitioning": None,
    "fig5_cfl": None,
    "fleet": check_fleet_series,
    "micro_kernels": None,
    "sdc": None,
    "simd": check_simd_series,
    "table1_layout": None,
    "table2_precision": None,
    "table3_bottlenecks": None,
    "table4_schwarz": None,
    "table5_hybrid": None,
    "threading": None,
    "tune": check_tune_series,
}


def check_tunedb(path, errors):
    """Persisted tuning DB must match the f3d-tunedb-v1 schema the loader
    validates at solver startup."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable or invalid JSON ({e})")
        return
    if doc.get("schema") != TUNEDB_SCHEMA:
        errors.append(f"{path}: schema is {doc.get('schema')!r}, expected "
                      f"{TUNEDB_SCHEMA!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        errors.append(f"{path}: entries missing or empty")
        return
    for k, e in enumerate(entries):
        if not isinstance(e, dict):
            errors.append(f"{path}: entry {k} not an object")
            continue
        key_obj = e.get("key")
        if not isinstance(key_obj, dict):
            errors.append(f"{path}: entry {k} missing key object")
            key_obj = {}
        for key in ("mesh_class", "host_isa", "precision"):
            if not isinstance(key_obj.get(key), str) or not key_obj[key]:
                errors.append(f"{path}: entry {k} missing key field {key!r}")
        if not isinstance(e.get("config"), dict) or not e["config"]:
            errors.append(f"{path}: entry {k} missing config object")


def check_knob_docs(knobs_path, tuning_md, errors):
    """Every knob in the dumped catalog must be named in the tuning doc;
    an undocumented knob is a docs failure, not a silent drift."""
    try:
        with open(knobs_path, encoding="utf-8") as f:
            catalog = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{knobs_path}: unreadable or invalid JSON ({e})")
        return
    if not isinstance(catalog, list) or not catalog:
        errors.append(f"{knobs_path}: knob catalog must be a non-empty array")
        return
    try:
        with open(tuning_md, encoding="utf-8") as f:
            doc_text = f.read()
    except OSError as e:
        errors.append(f"{tuning_md}: cannot read tuning doc ({e})")
        return
    for k, knob in enumerate(catalog):
        name = knob.get("name") if isinstance(knob, dict) else None
        if not isinstance(name, str) or not name:
            errors.append(f"{knobs_path}: catalog record {k} has no name")
            continue
        if name not in doc_text:
            errors.append(f"{tuning_md}: registered knob {name!r} is not "
                          "documented (knob catalog cross-check)")


def check_trace(path, min_coverage, errors):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable or invalid JSON ({e})")
        return
    meta = doc.get("meta", {})
    if meta.get("schema") != TRACE_SCHEMA:
        errors.append(f"{path}: meta.schema is {meta.get('schema')!r}, "
                      f"expected {TRACE_SCHEMA!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append(f"{path}: traceEvents missing or empty")
        return
    for k, e in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in e:
                errors.append(f"{path}: event {k} missing {key!r}")
        if e.get("ph") == "X" and "dur" not in e:
            errors.append(f"{path}: complete event {k} missing 'dur'")
    if min_coverage > 0:
        roots = [e for e in events if e.get("name") == "ptc_solve"]
        if not roots:
            errors.append(f"{path}: no ptc_solve root span for the "
                          "coverage check")
            return
        root = roots[-1]
        covered = sum(
            e.get("dur", 0.0) for e in events
            if e.get("tid") == root.get("tid")
            and e.get("args", {}).get("depth") == 1)
        frac = covered / root["dur"] if root.get("dur") else 0.0
        if frac < min_coverage:
            errors.append(
                f"{path}: depth-1 spans cover {frac:.1%} of the root span, "
                f"need >= {min_coverage:.0%}")


def check_markdown_links(repo_root, errors):
    files = [os.path.join(repo_root, f) for f in MARKDOWN_FILES]
    files += sorted(glob.glob(os.path.join(repo_root, "docs", "*.md")))
    for md in files:
        if not os.path.isfile(md):
            continue
        base = os.path.dirname(md)
        with open(md, encoding="utf-8") as f:
            text = f.read()
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in LINK_RE.finditer(line):
                target = m.group(2)
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                target = target.split("#", 1)[0]
                if not target:
                    continue
                resolved = os.path.normpath(os.path.join(base, target))
                if not os.path.exists(resolved):
                    rel = os.path.relpath(md, repo_root)
                    errors.append(f"{rel}:{lineno}: dead link -> {m.group(2)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace JSON to validate")
    ap.add_argument("--min-coverage", type=float, default=0.0,
                    help="required depth-1 coverage of the ptc_solve root "
                         "span (e.g. 0.9); 0 disables the check")
    ap.add_argument("--tunedb", help="persisted tuning DB (f3d-tunedb-v1) "
                                     "to validate")
    ap.add_argument("--knobs", help="knob catalog JSON (tuned_solve "
                                    "-dump-knobs) to cross-check against "
                                    "the tuning doc")
    ap.add_argument("--tuning-md", default=None,
                    help="tuning doc for the knob cross-check "
                         "(default: <repo>/docs/TUNING.md)")
    ap.add_argument("--repo", default=None,
                    help="repo root (default: parent of this script)")
    args = ap.parse_args()

    repo_root = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    errors = []

    bench_files = sorted(glob.glob(os.path.join(repo_root, "BENCH_*.json")))
    if not bench_files:
        errors.append("no committed BENCH_*.json found at the repo root")
    for path in bench_files:
        check_bench_report(path, errors)

    if args.trace:
        check_trace(args.trace, args.min_coverage, errors)

    if args.tunedb:
        check_tunedb(args.tunedb, errors)

    if args.knobs:
        tuning_md = args.tuning_md or os.path.join(repo_root, "docs",
                                                   "TUNING.md")
        check_knob_docs(args.knobs, tuning_md, errors)

    check_markdown_links(repo_root, errors)

    if errors:
        for e in errors:
            print(f"check_docs: {e}", file=sys.stderr)
        return 1
    n_md = len(MARKDOWN_FILES) + len(glob.glob(
        os.path.join(repo_root, "docs", "*.md")))
    print(f"check_docs: OK ({len(bench_files)} bench report(s), "
          f"{'1 trace, ' if args.trace else ''}{n_md} markdown file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
