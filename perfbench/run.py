"""Benchmark of `frobpi verify` on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qu-deform --seed 1 --seconds 30 --trace 0

Each operation (one `frobpi verify` invocation) runs through
`frobpi.cli.main` in a fresh process started by this single-threaded
parent.  A round runs the workload's operations once.  Rounds repeat
while another one, as long as the longest so far, still ends within
--seconds of the first round's start; there is always at least one.
After the timed rounds, every operation's output is checked against
computations made here (checks.py).

Before each process starts, this parent pins itself, and so the process,
to the CPU that runs a short loop fastest.  --trace 0 reports the
end-to-end metrics: the sum over operations of each one's median wall
time, the median over rounds of the round's peak resident memory, and the
median set-up time of every process started.  Both times are taken at the
reference speed of the worker's speed probe (worker.SpeedProbe).
--trace 1 runs the same rounds with spans around each layer (tracer.py)
and reports per-layer medians over rounds.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the run's environment.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import fibre_reference, judge_round
from tracer import LAYER_METRICS
from worker import PROBE_NOMINAL_S
from workloads import WORKLOADS, verify_argv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(HERE, "_work")
TRACE_DIR = os.path.join(HERE, "traces")

SETUP_ONLY_RUNS = 6
ALL_CPUS = os.sched_getaffinity(0)
RUN_LIMIT_S = 170  # a run, checks included, must end within 180 s


def pinned_env():
    """Children's environment: no cache override, fixed hashing, one thread."""
    env = {k: v for k, v in os.environ.items() if k != "FROBPI_CACHE"}
    env["PYTHONHASHSEED"] = "0"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    return env


def _spin():
    t = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return time.perf_counter() - t


def pin_fastest_cpu():
    """Pin this process, and so the next worker, to the CPU that runs a short loop fastest.

    On a shared VM one CPU can run a quarter slower than the other for 15 s
    or more while the host serves other guests; the workers are
    single-threaded, so they lose nothing by staying on one CPU.
    """
    cpus = sorted(ALL_CPUS)
    best = {}
    for _ in range(2):
        for c in cpus:
            os.sched_setaffinity(0, {c})
            best[c] = min(best.get(c, float("inf")), _spin())
    os.sched_setaffinity(0, {min(cpus, key=best.get)})


def spawn(spec, env, deadline):
    """Run one worker; returns its report with setup_s added."""
    pin_fastest_cpu()
    t = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            env=env,
            stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - t),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "timeout": True}
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"worker exited {proc.returncode} without a report"}
    if "ready" in rep:
        rep["setup_raw"] = rep["ready"] - t
        rep["setup_s"] = (rep["setup_raw"] - rep["probe_s"]) * PROBE_NOMINAL_S / rep["probe_mean_s"]
    return rep


def run_round(wl, cap, seed, rdir, env, trace_file, deadline):
    cache_dir = os.path.join(rdir, "cache")
    reps = []
    for op in wl.ops:
        spec = {
            "src": SRC,
            "fields": wl.setup_fields,
            "cache_dir": cache_dir,
            "argv": verify_argv(op, cap, cache_dir),
            "out": os.path.join(rdir, f"{op.name}.json"),
            "op": op.name,
            "seed": seed,
            "trace": trace_file,
            "capture": os.path.join(rdir, f"dense-{op.name}") if op.field.startswith("fp:") else None,
        }
        rep = spawn(spec, env, deadline)
        if os.path.exists(spec["out"]):
            with open(spec["out"], "rb") as fh:
                rep["out"] = fh.read()
        if spec["capture"] and os.path.isdir(spec["capture"]):
            rep["dense"] = sorted(
                os.path.join(spec["capture"], f) for f in os.listdir(spec["capture"])
            )
        reps.append(rep)
        if rep.get("timeout"):
            break
    return reps


def complete(rounds, wl, key):
    """Rounds in which every operation of the workload exited 0 and reported key.

    An operation that fails early would otherwise pass for a fast one.
    """
    return [reps for reps in rounds if len(reps) == len(wl.ops) and all(key in r and r.get("rc") == 0 for r in reps)]


def layer_metrics(rounds):
    """Per-layer medians over rounds; a round sums its operations."""
    per_round = []
    for reps in rounds:
        layers = [r["layers"] for r in reps]
        m = {}
        for name in LAYER_METRICS:
            vals = [lay.get(name, 0) for lay in layers]
            if name.endswith("max_cells"):
                m[name] = max(vals)
            elif name.endswith("_us"):
                nz = [v for v in vals if v]
                m[name] = statistics.median(nz) if nz else 0
            else:
                m[name] = sum(vals)
        per_round.append(m)
    if not per_round:
        return None
    out = {}
    for name, (unit, _) in LAYER_METRICS.items():
        med = statistics.median_low if unit == "count" else statistics.median
        out[name] = {"value": med(r[name] for r in per_round), "unit": unit}
    return out


def end_to_end_metrics(rounds, setups):
    """wall_s sums each operation's median over rounds of its wall time at the probe's reference speed."""
    if not rounds:
        return None
    return {
        "wall_s": {
            "value": sum(statistics.median(reps[i]["wall_scaled"] for reps in rounds) for i in range(len(rounds[0]))),
            "unit": "s",
        },
        "peak_rss_mb": {"value": statistics.median(max(r["rss_mb"] for r in reps) for reps in rounds), "unit": "MB"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"},
    }


def versions():
    import importlib.util

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def measure(wl, cap, seed, seconds, trace, tmp):
    deadline = time.monotonic() + RUN_LIMIT_S
    env = pinned_env()
    setups = []
    for _ in range(SETUP_ONLY_RUNS):
        rep = spawn(
            {"src": SRC, "fields": wl.setup_fields, "cache_dir": os.path.join(tmp, "setup-only"), "setup_only": True},
            env,
            deadline,
        )
        if "setup_s" not in rep:
            raise RuntimeError(f"set-up failed: {rep.get('error')}")
        setups.append(rep)
    trace_file = None
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_file = os.path.join(TRACE_DIR, f"{wl.name}.jsonl")
        open(trace_file, "w").close()
    rounds = []
    first = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        rdir = tempfile.mkdtemp(prefix=f"round{len(rounds)}-", dir=tmp)
        reps = run_round(wl, cap, seed, rdir, env, trace_file, deadline)
        rounds.append(reps)
        setups += [r for r in reps if "setup_s" in r]
        now = time.monotonic()
        longest = max(longest, now - t0)
        if any(r.get("timeout") for r in reps) or now - first + longest > seconds:
            break
    return rounds, setups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="tiny degree caps, for tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "frobpi", "cli.py")):
        print(f"perfbench: no frobpi sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cap = wl.small_cap if args.small else wl.cap
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR)
    try:
        rounds, setups = measure(wl, cap, args.seed, args.seconds, args.trace, tmp)
        sys.path.insert(0, SRC)
        fibre = fibre_reference(cap, args.seed) if any(op.suites == ("deformations",) for op in wl.ops) else None
        dense_memo = {}
        attempted = failed = 0
        correct = True
        for i, reps in enumerate(rounds):
            for op, (problems, wrong) in zip(wl.ops, judge_round(wl, cap, reps, fibre, dense_memo)):
                attempted += 1
                correct = correct and not wrong
                if problems:
                    failed += 1
                    print(f"perfbench: round {i} {op.name} failed: {'; '.join(problems[:3])}", file=sys.stderr)
        if args.trace:
            metrics = layer_metrics(complete(rounds, wl, "layers"))
        else:
            metrics = end_to_end_metrics(complete(rounds, wl, "wall"), setups)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if metrics is None:
        print("perfbench: no operation finished; nothing to report", file=sys.stderr)
        return 1
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "cap": cap,
        "rounds": len(rounds),
        "round_wall_s": [round(sum(r.get("wall", 0) for r in reps), 4) for reps in rounds],
        "round_scaled_s": [round(sum(r.get("wall_scaled") or 0 for r in reps), 4) for reps in rounds],
        "setup_raw_s": round(statistics.median(r["setup_raw"] for r in setups), 4),
        "setup_samples": len(setups),
        "dense_samples_checked": len(dense_memo),
        **versions(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
