"""disopt benchmark: whole CLI passes in a closed loop with one caller.

Usage:
    python3 bench/run.py --workload {paper-presets,wide-network,grid-sweep}
                         [--seed N] [--seconds S] [--trace 0|1]

One process calls ``disopt.cli.main`` in-process, starting each pass only
after the previous one finished; BLAS runs single-threaded.  The first
pass warms caches, gives the peak RSS of a fresh process running one pass,
and is the byte-identity reference.  Timed passes, each followed by a
set-up probe, start until ``--seconds`` have elapsed.  Every pass's
outputs are checked (see ``checks.py``).  End-to-end times are reported
at a reference machine speed, measured by a fixed kernel timed between
seed runs (see ``calibrate.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
spans of the traced ones (see ``tracing.py``).  Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with provenance
and sample counts is written to ``bench/out/``.
"""

from __future__ import annotations

import os

# Before numpy loads: one caller, no extra threads.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 9
TAIL_BEYOND = 10

sys.path.insert(0, str(BENCH_DIR))
import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_agent_rounds_per_s": "1/s",
    "seed_run_ms.p50": "ms",
    "seed_run_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SeedTimer:
    """Times every ``harness.run_single`` call (one seed) of a pass.

    With ``calibrating`` set, the calibration kernel runs right before each
    call, outside the timed region, and its times are kept in ``cals``.
    """

    def __init__(self, run_single):
        self.run_single = run_single
        self.calibrating = False
        self.samples: list = []
        self.cals: list = []
        self.agent_rounds = 0

    def time_kernel(self) -> None:
        start = time.perf_counter()
        calibrate.kernel()
        self.cals.append(time.perf_counter() - start)

    def __call__(self, config, seed):
        if self.calibrating:
            self.time_kernel()
        start = time.perf_counter()
        result = self.run_single(config, seed)
        self.samples.append(time.perf_counter() - start)
        self.agent_rounds += config.n * config.iterations
        return result

    def take(self) -> tuple:
        out = (self.samples, self.cals, self.agent_rounds)
        self.samples, self.cals, self.agent_rounds = [], [], 0
        return out


def _invoke(cli, argv) -> bool:
    try:
        return cli.main(argv) == 0
    except (Exception, SystemExit):
        traceback.print_exc()
        return False


def run_pass(cli, workload, timer, reference, recorder=None) -> dict:
    outdir = OUT_DIR / workload.name / "pass"
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    captured = io.StringIO()
    statuses = []
    gc.collect()  # every pass starts from the same heap state
    if recorder is not None:
        recorder.install()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            for inv in workload.invocations:
                statuses.append(_invoke(cli, inv.argv + ["--out", str(outdir)]))
        wall = time.perf_counter() - start - sum(timer.cals)
    finally:
        if recorder is not None:
            recorder.uninstall()
    if timer.calibrating:
        timer.time_kernel()  # closes the last seed run's pair of kernels
    if not all(statuses):
        sys.stderr.write(captured.getvalue())
    samples, cals, agent_rounds = timer.take()
    check = checks.check_pass(workload, outdir, statuses, reference)
    for problem in check.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "wall": wall,
        "samples": samples,
        "cals": cals,
        "agent_rounds": agent_rounds,
        "check": check,
    }


def setup_time(workload) -> tuple:
    """Seconds a fresh process takes to import disopt and validate the
    workload's documents, and that process's calibration kernel time."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), *map(str, workload.documents)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    setup, cal = proc.stdout.split()[-2:]
    return float(setup), float(cal)


def trace_bytes_per_round(workload, run_single) -> float:
    """Bytes held by ``RunResult.traces`` per round, under tracemalloc."""
    from disopt.config import parse_config

    config = parse_config(workload.scenario)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_single(config, config.seeds[0])
        held = tracemalloc.get_traced_memory()[0]
        rounds = len(result.traces)
        result.traces.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return freed / rounds


def tail(samples: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, args) -> dict:
    import disopt

    return {
        "git_commit": git_commit(),
        "disopt_version": disopt.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "loop": "closed, one caller, one process",
        "workload": workload.name,
        "workload_seed": workload.seed,
        "workload_shape": workload.shape,
        "operations_per_pass": workload.operations,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def calibrated(timed) -> tuple:
    """Seed-run times, pass walls and their calibrated values.

    Seed run i lies between kernel times i and i + 1 of its pass; it is
    scaled by their mean.  A pass wall is its calibrated seed runs plus the
    rest of the pass (parsing, bound reports, writing) scaled by the
    median kernel time of the pass.
    """
    raw, cal, walls, cal_walls = [], [], [], []
    for p in timed:
        k = p["cals"]
        seeds = [
            sample * 2 * calibrate.NOMINAL_S / (k[i] + k[i + 1])
            for i, sample in enumerate(p["samples"])
        ]
        rest = p["wall"] - sum(p["samples"])
        raw.extend(p["samples"])
        cal.extend(seeds)
        walls.append(p["wall"])
        cal_walls.append(sum(seeds) + rest * calibrate.NOMINAL_S / statistics.median(k))
    return raw, cal, walls, cal_walls


def end_to_end(timed, setup, rss_mb) -> tuple:
    raw, samples, walls, cal_walls = calibrated(timed)
    rounds = sum(p["agent_rounds"] for p in timed)
    tail_ms, tail_pct, n = tail(samples)
    setup_cal = [s * calibrate.NOMINAL_S / c for s, c in setup]
    metrics = {
        "wall_s": statistics.median(cal_walls),
        "sim_agent_rounds_per_s": rounds / sum(samples),
        "seed_run_ms.p50": 1e3 * statistics.median(samples),
        "seed_run_ms.tail": 1e3 * tail_ms,
        "setup_s": statistics.median(setup_cal),
        "peak_rss_mb": rss_mb,
    }
    kernels = [k for p in timed for k in p["cals"]]
    details = {
        "calibration": {
            "nominal_kernel_s": calibrate.NOMINAL_S,
            "kernel_s_median": statistics.median(kernels),
            "kernels": len(kernels),
        },
        "wall_s": {"statistic": "median", "samples": len(timed)},
        "sim_agent_rounds_per_s": {"agent_rounds": rounds, "seed_runs": n},
        "seed_run_ms.p50": {"percentile": 50, "samples": n},
        "seed_run_ms.p10": {
            "value": 1e3 * statistics.quantiles(samples, n=10)[0],
            "unit": "ms",
            "samples": n,
        },
        "seed_run_ms.tail": {"percentile": tail_pct, "samples": n, "beyond": TAIL_BEYOND},
        "setup_s": {"statistic": "median", "samples": len(setup)},
        "peak_rss_mb": {"statistic": "ru_maxrss after the first pass", "samples": 1},
        "uncalibrated": {
            "wall_s": statistics.median(walls),
            "sim_agent_rounds_per_s": rounds / sum(raw),
            "seed_run_ms.p50": 1e3 * statistics.median(raw),
            "seed_run_ms.tail": 1e3 * tail(raw)[0],
            "setup_s": statistics.median(s for s, _ in setup),
        },
    }
    return metrics, details


def per_layer(workload, cli, timer, reference, seconds) -> tuple:
    untraced, traced, passes = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(cli, workload, timer, reference))
        recorder = tracing.Recorder()
        result = run_pass(cli, workload, timer, reference, recorder)
        totals = recorder.totals()
        metrics = tracing.layer_metrics(totals, recorder.counters)
        metrics["bench.unattributed_frac"] = 1.0 - totals["top_level_s"] / result["wall"]
        result["metrics"] = metrics
        traced.append(result)
        passes.append(recorder)

    metrics = {
        name: statistics.median_low(p["metrics"][name] for p in traced)
        for name in traced[0]["metrics"]
    }
    metrics["engine.trace_bytes_per_round"] = trace_bytes_per_round(
        workload, timer.run_single
    )
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    _save_spans(workload, passes)
    details = {
        "statistic": "median over traced passes",
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "computed_from_array_sizes": [
            "engine.mix_flops_per_round",
            "engine.mix_bytes_per_round",
        ],
    }
    return metrics, details, untraced + traced


def _save_spans(workload, recorders) -> None:
    names = sorted({n for r in recorders for n in r.names})
    index = {n: i for i, n in enumerate(names)}
    parts = {"name": [], "parent": [], "start": [], "end": [], "pass": []}
    for k, rec in enumerate(recorders):
        a = rec.arrays()
        remap = np.array([index[n] for n in rec.names], dtype=np.int32)
        parts["name"].append(remap[a["name"]])
        parts["parent"].append(a["parent"])
        parts["start"].append(a["start"])
        parts["end"].append(a["end"])
        parts["pass"].append(np.full(len(a["name"]), k, dtype=np.int32))
    np.savez(
        OUT_DIR / workload.name / "spans.npz",
        names=np.array(names),
        **{key: np.concatenate(val) for key, val in parts.items()},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "disopt" / "__init__.py").is_file():
        print(f"disopt sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = workloads.make(args.workload, args.seed, OUT_DIR / args.workload / "inputs")

    from disopt import cli, harness

    timer = SeedTimer(harness.run_single)
    tracing.patch(harness, "run_single", timer)

    golden = args.workload == "paper-presets" and args.seed == workloads.DEFAULT_SEED
    reference = checks.load_golden() if golden else None
    warm = run_pass(cli, workload, timer, reference)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = reference or warm["check"]

    setup = []
    if args.trace == 0:
        # Set-up probes are spread over the run, one after each pass, so
        # their median covers the same stretch of time as the passes.
        timer.calibrating = True
        timed = []
        start = time.perf_counter()
        while not timed or time.perf_counter() - start < args.seconds:
            timed.append(run_pass(cli, workload, timer, reference))
            setup.append(setup_time(workload))
        while len(setup) < SETUP_REPS:
            setup.append(setup_time(workload))
        metrics, details = end_to_end(timed, setup, rss_mb)
        units = END_TO_END_UNITS
    else:
        metrics, details, timed = per_layer(workload, cli, timer, reference, args.seconds)
        units = tracing.UNITS
    passes = [warm] + timed
    registered = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}

    attempted = sum(p["check"].attempted for p in passes)
    failed = sum(p["check"].failed for p in passes)
    failed_frac = failed / attempted

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.trace == 0:
        t = details["seed_run_ms.tail"]
        print(f"  (seed_run_ms.tail is p{t['percentile']:.2f} of {t['samples']} seed runs)")
        print(f"seed_run_ms.p10 = {details['seed_run_ms.p10']['value']:.6g} ms")
        for name, value in details["uncalibrated"].items():
            print(f"  uncalibrated {name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed_frac:.6g} ratio ({failed} of {attempted} operations)")

    record = {
        "provenance": provenance(workload, args),
        "metrics": registered,
        "failed_frac": {"value": failed_frac, "unit": "ratio"},
        "details": details,
        "attempted": attempted,
        "failed": failed,
        "pass_walls_s": [p["wall"] for p in passes],
        "seed_run_s": [p["samples"] for p in passes],
        "kernel_s": [p["cals"] for p in passes],
        "setup_samples_s": setup,
        "problems": [q for p in passes for q in p["check"].problems],
    }
    suffix = "_traced" if args.trace else ""
    result_path = OUT_DIR / f"BENCH_{args.workload}{suffix}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {result_path.relative_to(ROOT)}")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": registered,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
