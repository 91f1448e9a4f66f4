"""End-to-end benchmark of the qcontexts CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload ks-exact --seed 1 --seconds 20 --trace 0

Each operation is one fresh ``python3 -m qcontexts.cli`` process running one
command, the way users run it; operations run one after another, never two
at once. Rounds of the workload's operations repeat until ``--seconds`` have
passed, and every report is checked against answers computed apart from the
program (oracle.py, checks.py). Times are scaled to a reference core speed
(see REFERENCE_CALIBRATION_S); the unscaled medians are printed as well. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced rounds with rounds run under tracer.py and reports per-layer self
times and counts, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OP_TIMEOUT_S = 150
SETUP_SAMPLES_PER_ROUND = 5

# The cores of a shared machine change speed by tens of percent over minutes,
# and CPU time follows. Each command is therefore bracketed by a fixed
# pure-Python loop, and its times are scaled to the speed at which that loop
# takes REFERENCE_CALIBRATION_S of CPU.
CALIBRATION_LOOPS = 1_000_000
REFERENCE_CALIBRATION_S = 0.1

# Per-layer metric -> (kind, span or counter names). Self times are summed
# over the named spans; counts over the named counters.
LAYER_METRICS = {
    "cli.import_s": ("self", ["cli.import"]),
    "cli.emit_s": ("self", ["cli.emit"]),
    "ks.load_rayset_s": ("self", ["ks.load_rayset"]),
    "ks.rays": ("count", ["ks.rays"]),
    "ks.bases": ("count", ["ks.bases"]),
    "ks.poset_from_rayset_s": ("self", ["ks.poset_from_rayset"]),
    "ks.find_global_section_s": ("self", ["ks.find_global_section"]),
    "kernel.search_s": ("self", ["kernel.search"]),
    "ks.search_nodes": ("count", ["ks.search_nodes"]),
    "ks.validate_section_s": ("self", ["ks.validate_section"]),
    "contexts.build_poset_s": ("self", ["contexts.build_poset"]),
    "contexts.contexts": ("count", ["contexts.contexts"]),
    "contexts.order_pairs": ("count", ["contexts.order_pairs"]),
    "contexts.meet_calls": ("count", ["contexts.meet#calls"]),
    "contexts.meet_s": ("self", ["contexts.meet"]),
    "contexts.is_subalgebra_calls": ("count", ["contexts.is_subalgebra#calls"]),
    "contexts.is_subalgebra_s": ("self", ["contexts.is_subalgebra"]),
    "contexts.all_coarsenings_s": ("self", ["contexts.all_coarsenings"]),
    "contexts.from_json_s": ("self", ["contexts.from_json"]),
    "contexts.check_state_global_element_s": ("self", ["contexts.check_state_global_element"]),
    "linalg.orthogonal_to_calls": ("count", ["linalg.orthogonal_to#calls"]),
    "linalg.leq_calls": ("count", ["linalg.leq#calls"]),
    "linalg.predicate_s": ("self", ["linalg.orthogonal_to", "linalg.leq"]),
    "linalg.born_probability_calls": ("count", ["linalg.born_probability#calls"]),
    "linalg.born_probability_s": ("self", ["linalg.born_probability"]),
    "valuations.stage_weights_calls": ("count", ["valuations.stage_weights#calls"]),
    "valuations.stage_weights_s": ("self", ["valuations.stage_weights"]),
    "valuations.valuation_table_s": ("self", ["valuations.valuation_table"]),
    "valuations.check_valuation_s": ("self", ["valuations.check_valuation"]),
    "valuations.naturality_s": ("self", ["valuations.naturality"]),
    "valuations.naturality_squares": ("count", ["valuations.naturality_squares"]),
    "intervals.true_subobject_s": ("self", ["intervals.true_subobject"]),
    "intervals.probability_family_s": ("self", ["intervals.probability_family"]),
    "intervals.coarse_subobject_s": ("self", ["intervals.coarse_subobject"]),
    "intervals.semantic_subobject_s": ("self", ["intervals.semantic_subobject"]),
    "intervals.global_element_s": ("self", ["intervals.global_element"]),
    "intervals.ideal_valuation_s": ("self", ["intervals.ideal_valuation"]),
    "coarse.functoriality_s": ("self", ["coarse.functoriality"]),
    "coarse.functoriality_chains": ("count", ["coarse.functoriality_chains"]),
    "coarse.clopen_iso_s": ("self", ["coarse.clopen_iso"]),
}


def child_env() -> dict:
    """A fixed environment: the package from this checkout's src/, the pure
    search kernel, one BLAS thread and a fixed hash seed."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "QCONTEXTS_PURE": "1",
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "LC_ALL": "C.UTF-8",
    }


def run_child(cmd, out_path):
    """Run one process to completion; (exit code, wall s, cpu s, peak RSS MB)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def calibration_s() -> float:
    """CPU time of a fixed loop in this process: the cores' current speed."""
    t0 = time.process_time()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i
    return time.process_time() - t0


def timed(cmd, out_path):
    """run_child, with times also scaled to the reference speed measured by
    calibration loops just before and just after the command."""
    before = calibration_s()
    rc, wall, cpu, rss = run_child(cmd, out_path)
    scale = 2 * REFERENCE_CALIBRATION_S / (before + calibration_s())
    return rc, wall, cpu, rss, scale


def setup_sample(workdir):
    """Wall time, raw and scaled, of a fresh interpreter importing qcontexts.cli."""
    rc, wall, _, _, scale = timed([sys.executable, "-c", "import qcontexts.cli"],
                                  os.path.join(workdir, "setup.out"))
    if rc != 0:
        raise RuntimeError("importing qcontexts.cli failed")
    return wall, wall * scale


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def record(self, op, rc, out_path):
        self.attempted += 1
        try:
            with open(out_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = None
        problems = checks.check(op.kind, rc, report, op.expect)
        if problems:
            self.failed += 1
            extra = set(problems) - op.known_fault
            if extra:
                self.unexpected.append((op.name, sorted(extra)))


def run_round(ops, workdir, tally, trace):
    """Run every operation once. Returns per-round sums: wall and cpu, raw
    and scaled to the reference speed, report bytes, peak RSS, and (traced)
    self times and counts."""
    r = {"wall": 0.0, "cpu": 0.0, "raw_wall": 0.0, "raw_cpu": 0.0, "rss": 0.0, "bytes": 0,
         "self": {}, "counts": {}, "spans": {}}
    for i, op in enumerate(ops):
        out_path = os.path.join(workdir, f"report-{i}.json")
        if trace:
            spans_path = os.path.join(workdir, f"spans-{i}.json")
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path] + op.argv
        else:
            cmd = [sys.executable, "-m", "qcontexts.cli"] + op.argv
        rc, wall, cpu, rss, scale = timed(cmd, out_path)
        r["raw_wall"] += wall
        r["raw_cpu"] += cpu
        r["wall"] += wall * scale
        r["cpu"] += cpu * scale
        r["rss"] = max(r["rss"], rss)
        r["bytes"] += os.path.getsize(out_path)
        tally.record(op, rc, out_path)
        if trace:
            with open(spans_path) as fh:
                data = json.load(fh)
            r["spans"][op.name] = data["spans"]
            for k, v in data["self"].items():
                r["self"][k] = r["self"].get(k, 0.0) + v
            for k, v in data["counts"].items():
                r["counts"][k] = r["counts"].get(k, 0) + v
    return r


def layer_metrics(traced_rounds, plain_rounds):
    def per_round(rnd, kind, names):
        src = rnd["self"] if kind == "self" else rnd["counts"]
        return sum(src.get(n, 0) for n in names)

    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        values = [per_round(rnd, kind, names) for rnd in traced_rounds]
        if kind == "self":
            out[metric] = {"value": statistics.median(values), "unit": "s"}
        else:
            out[metric] = {"value": statistics.median_low(values), "unit": "count"}
    out["cli.report_bytes"] = {"value": statistics.median_low(r["bytes"] for r in plain_rounds),
                               "unit": "bytes"}
    overhead = (statistics.median(r["wall"] for r in traced_rounds)
                - statistics.median(r["wall"] for r in plain_rounds))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qcontexts", "cli.py")):
        sys.stderr.write("perfbench: no src/qcontexts/cli.py next to perfbench/; "
                         "run from a qcontexts checkout\n")
        return 2

    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = WORKLOADS[args.workload](args.seed, workdir)

    setup_sample(workdir)  # warm-up: byte-compile the package, fill the file cache
    tally = Tally()
    setup, plain, traced = [], [], []
    elapsed = 0.0
    while elapsed < args.seconds:
        setup.extend(setup_sample(workdir) for _ in range(SETUP_SAMPLES_PER_ROUND))
        t0 = time.perf_counter()
        plain.append(run_round(ops, workdir, tally, trace=False))
        if args.trace:
            traced.append(run_round(ops, workdir, tally, trace=True))
        elapsed += time.perf_counter() - t0

    for name, problems in tally.unexpected:
        sys.stderr.write(f"perfbench: {name}: {'; '.join(problems)}\n")
    if args.trace:
        metrics = layer_metrics(traced, plain)
        with open(os.path.join(workdir, "trace.json"), "w") as fh:
            json.dump(traced[-1]["spans"], fh)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss"] for r in plain), "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {len(plain)} rounds, "
          f"{tally.attempted} operations, {tally.failed} failed; unscaled medians: "
          f"wall {statistics.median(r['raw_wall'] for r in plain):.3f} s, "
          f"cpu {statistics.median(r['raw_cpu'] for r in plain):.3f} s, "
          f"setup {statistics.median(w for w, _ in setup):.4f} s")
    print(json.dumps({"correct": not tally.unexpected, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
