"""Tests of the benchmark's own checks, on tiny degree caps.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def bench_cli(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def small_round(name, tmp_path, seed=1):
    wl = WORKLOADS[name]
    rdir = tmp_path / "round"
    rdir.mkdir()
    reps = run.run_round(wl, wl.small_cap, seed, str(rdir), run.pinned_env(), None, time.monotonic() + 120)
    fibre = checks.fibre_reference(wl.small_cap, seed) if name == "qu-deform" else None
    return wl, reps, fibre


def judge(wl, reps, fibre):
    return checks.judge_round(wl, wl.small_cap, reps, fibre, {})


def plant(rep, suite, key, delta=1):
    """Shift one numeric field of the first record of a suite."""
    rows = json.loads(rep["out"])
    row = next(r for r in rows if r.get("suite") == suite and key in r)
    row[key] += delta
    rep["out"] = (json.dumps(rows, indent=2) + "\n").encode()


def test_benchmark_json_names_every_metric():
    assert [m["name"] for m in BENCH["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_run_passes(name):
    proc = bench_cli("--workload", name, "--seed", "2", "--seconds", "0", "--small", "--trace", "0")
    assert proc.returncode == 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] == len(WORKLOADS[name].ops)
    assert list(res["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_small_run_reports_every_layer_metric():
    proc = bench_cli("--workload", "q-deep", "--seed", "2", "--seconds", "0", "--small", "--trace", "1")
    assert proc.returncode == 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(res["metrics"]) == list(LAYER_METRICS)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["cache.misses"] == m["cache.hits"] == len(checks.CATALOG)
    assert m["cache.bytes_written"] > 0 and m["linalg.rref.q.calls"] > 0


def test_speed_probe_rescales_to_the_reference_speed():
    # A block made of 200 probe loops takes 200 nominal loop times at the reference speed.
    probe = worker.SpeedProbe(0.01)
    t = time.perf_counter()
    with probe:
        for _ in range(200):
            worker.probe_loop()
    wall = time.perf_counter() - t
    assert len(probe.samples) >= 2
    assert 0.5 < probe.scaled(wall) / (200 * worker.PROBE_NOMINAL_S) < 2


def test_untouched_round_passes(tmp_path):
    wl, reps, fibre = small_round("q-deep", tmp_path)
    assert judge(wl, reps, fibre) == [([], False), ([], False)]


def test_planted_dim_counts_as_failed(tmp_path):
    wl, reps, fibre = small_round("fp-deep", tmp_path)
    plant(reps[0], "ranks", "dim")
    [(problems, wrong)] = judge(wl, reps, fibre)
    assert wrong and any("wrong record" in p for p in problems)


def test_planted_split_dim_breaks_resolution(tmp_path):
    wl, reps, fibre = small_round("q-deep", tmp_path)
    plant(reps[0], "split", "dim_s")
    (cold, cold_wrong), (warm, warm_wrong) = judge(wl, reps, fibre)
    assert cold_wrong and sum('"resolution"' in p for p in cold) >= 1
    assert warm_wrong and warm == ["output differs from the round's first cached run"]


def test_planted_byte_in_warm_output_counts_as_failed(tmp_path):
    wl, reps, fibre = small_round("q-deep", tmp_path)
    warm = bytearray(reps[1]["out"])
    warm[warm.index(b"\n  ") + 1] = ord("\t")  # still valid JSON with the same records
    reps[1]["out"] = bytes(warm)
    assert judge(wl, reps, fibre) == [([], False), (["output differs from the round's first cached run"], True)]


def test_planted_generic_centre_counts_as_failed(tmp_path):
    wl, reps, fibre = small_round("qu-deform", tmp_path)
    assert judge(wl, reps, fibre) == [([], False)]
    plant(reps[0], "deformations", "z_generic")
    [(problems, wrong)] = judge(wl, reps, fibre)
    assert wrong and problems


def test_failed_exit_is_not_a_wrong_answer(tmp_path):
    wl, reps, fibre = small_round("fp-deep", tmp_path)
    reps[0]["rc"] = 1
    assert judge(wl, reps, fibre) == [(["exit code 1"], False)]


def test_dense_recheck_catches_a_wrong_reduction(tmp_path):
    wl, reps, fibre = small_round("fp-deep", tmp_path)
    assert reps[0]["dense"]
    path = max(reps[0]["dense"], key=os.path.getsize)
    assert checks.recheck_dense(path) == []
    with np.load(path) as z:
        data = {k: z[k] for k in z.files}
    i, j = np.argwhere(data["red"] % 5)[0]
    data["red"][i, j] = (data["red"][i, j] + 1) % 5
    np.savez(path, **data)
    assert checks.recheck_dense(path)


def test_unchecked_dense_lane_counts_as_failed(tmp_path):
    wl, reps, fibre = small_round("fp-deep", tmp_path)
    assert reps[0]["dense_lane"] and reps[0]["dense"]
    reps[0]["dense"] = []  # as if the program had reached the lane without the saving wrapper
    [(problems, wrong)] = judge(wl, reps, fibre)
    assert problems and not wrong


def test_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "traces", "results", "__pycache__"))
    proc = bench_cli("--workload", "fp-deep", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout == ""
