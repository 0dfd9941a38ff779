"""Regenerate the README's reference figures.

Usage, from the root of a checkout:

    python3 perfbench/figures.py

For each workload of BENCHMARK.json: untraced runs of run.py with seeds
1..10; each of the first three is followed at once by a traced run with the
same seed.  Prints, per end-to-end metric, the median, the quartiles and
their distance as a share of the median (the spread that BENCHMARK.json's
bounds must cover).  Then, per workload: the tracing overhead of each
adjacent pair (the traced run's fastest round minus the untraced run's;
pairs run back to back, so that both see the same machine speed), on
qu-deform the share of an operation's time spent in family 4's centres,
and the per-layer numbers of the first traced run.  Raw results go to
perfbench/results/figures.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
TRACED = 3  # the first three seeds also get a traced run


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def family_centre_shares(workload, family="4"):
    """Per operation of the last traced run: seconds in family's centres (all, degree 4) and in cli.main."""
    ops = []
    with open(os.path.join(HERE, "traces", f"{workload}.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            if s["id"] == 0:  # each operation's spans start with its cli.main span
                ops.append({"centre_s": 0.0, "centre_deg4_s": 0.0})
            dur = s["end"] - s["start"]
            if s["name"] == "cli.main":
                ops[-1]["op_s"] = dur
            elif s["name"] == "center.center_degree" and s.get("family") == family:
                ops[-1]["centre_s"] += dur
                if s.get("degree") == 4:
                    ops[-1]["centre_deg4_s"] += dur
    return ops


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    for wl in (w["name"] for w in bench["workloads"]):
        runs, traced = [], []
        for seed in SEEDS:
            info, res = run(wl, seed, seconds, 0)
            runs.append({"seed": seed, "info": info, "result": res})
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{wl} seed {seed}: failed {res['failed']}/{res['attempted']} {vals} rounds {info['round_wall_s']}",
                  file=sys.stderr)
            if len(traced) < TRACED:
                info, res = run(wl, seed, seconds, 1)
                shares = family_centre_shares(wl)
                traced.append({"seed": seed, "info": info, "result": res, "family4": shares})
                print(f"{wl} seed {seed} traced: failed {res['failed']}/{res['attempted']} "
                      f"trace.wall_s {res['metrics']['trace.wall_s']['value']:.4f}", file=sys.stderr)
        results[wl] = {"runs": runs, "traced": traced}

    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|")
    for wl, r in results.items():
        att = sum(x["result"]["attempted"] for x in r["runs"])
        fail = sum(x["result"]["failed"] for x in r["runs"])
        for name in bounds:
            vals = [x["result"]["metrics"][name]["value"] for x in r["runs"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"| {wl} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} | {bounds[name]} | {fail}/{att} |")
    for wl, r in results.items():
        overheads = []
        for t, u in zip(r["traced"], r["runs"]):
            # fastest round of each run: trace.wall_s is a median, wall_s sums per-operation minima
            tw, uw = min(t["info"]["round_wall_s"]), min(u["info"]["round_wall_s"])
            overheads.append(f"{tw - uw:+.3f} s on {uw:.3f} s ({(tw - uw) / uw:+.1%})")
        print(f"\n{wl} tracing overhead, seeds {SEEDS[0]}..{SEEDS[TRACED - 1]}: " + "; ".join(overheads))
        ops = [op for t in r["traced"] for op in t["family4"]]
        if any(op["centre_s"] for op in ops):
            share = statistics.median(op["centre_s"] / op["op_s"] for op in ops)
            deg4 = statistics.median(op["centre_deg4_s"] / op["op_s"] for op in ops)
            print(f"{wl}: family 4's centres take a median {share:.1%} of an operation "
                  f"({deg4:.1%} at degree 4), over {len(ops)} traced operations")
        m = r["traced"][0]["result"]["metrics"]
        print(f"{wl} traced per-layer numbers (seed {r['traced'][0]['seed']}):")
        for name, v in m.items():
            if v["value"]:
                print(f"- `{name}`: {v['value']:.6g} {v['unit']}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "figures.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)


if __name__ == "__main__":
    main()
