"""One benchmark operation in a fresh process.

Usage: python3 worker.py '<json spec>'

Set-up (timed by the parent from process spawn to the "ready" stamp)
imports frobpi from the checkout's src/, constructs the workload's fields
and catalog algebras, and makes the cache directory.  The operation then
runs `frobpi.cli.main(argv)` in-process with stdout captured to the spec's
output file.  The last line of this process's stdout is a JSON report.

A speed probe (SpeedProbe) samples how fast the machine runs a fixed loop
during set-up and, unless the run is traced, during the operation, so that
the parent can report both times at a fixed machine speed.
"""

import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

from workloads import CATALOG, FAMILIES

PROBE_NOMINAL_S = 0.001  # the probe loop's time at the reference speed
SETUP_PROBE_EVERY_S = 0.02
OP_PROBE_EVERY_S = 0.1


def probe_loop():
    """A fixed piece of interpreter work: dict updates and small-int arithmetic."""
    d = {}
    for i in range(6000):
        k = i % 97
        d[k] = (d.get(k, 0) + i * 3) % 5
    return d


class SpeedProbe:
    """Times probe_loop on a wall-clock timer while a block of code runs.

    This machine's speed moves between levels up to 1.8 times apart for
    stretches of seconds to minutes, and the interpreter, numpy and memory
    all slow by the same factor.  A probe taken every `every` seconds, in
    the same process and on the same CPU as the block, samples that speed
    through the block; the first is taken at once.  scaled(wall) removes
    the probes' own time and rescales the rest to the speed at which the
    loop takes PROBE_NOMINAL_S.
    """

    def __init__(self, every):
        self.every = every
        self.samples = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1e-4, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, wall):
        if not self.samples:
            return None
        return (wall - sum(self.samples)) * PROBE_NOMINAL_S / statistics.fmean(self.samples)

    def summary(self):
        return {"probe_s": sum(self.samples), "probe_mean_s": statistics.fmean(self.samples)}


def setup(spec):
    sys.path.insert(0, spec["src"])
    import frobpi
    import frobpi.cli
    from frobpi import catalog, deformation, field_from_descriptor

    if not os.path.abspath(frobpi.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise RuntimeError(f"frobpi imported from {frobpi.__file__}, not from {spec['src']}")
    for tag in spec["fields"]:
        f = field_from_descriptor(tag)
        if tag == "qu":
            for n, char2 in FAMILIES:
                deformation(n, char2)
        else:
            for name in CATALOG:
                catalog(name, f)
    os.makedirs(spec["cache_dir"], exist_ok=True)
    return frobpi


def capture_indices(seed, octaves=24):
    """One seeded call index in each range [2^j - 1, 2^(j+1) - 1)."""
    rng = random.Random(f"dense:{seed}")
    return {rng.randrange(2**j - 1, 2 ** (j + 1) - 1) for j in range(octaves)}


def install_capture(spec):
    """Save the seeded sample of dense-lane calls, inputs and outputs, as .npz."""
    import numpy as np
    from frobpi import _kernels, linalg
    from tracer import holders

    rref_mod = _kernels.rref_mod
    chosen = capture_indices(spec["seed"])
    count = [0]
    out_dir = spec["capture"]
    os.makedirs(out_dir, exist_ok=True)

    def capturing(a, p, *args, **kwargs):
        i = count[0]
        count[0] += 1
        res = rref_mod(a, p, *args, **kwargs)
        if i in chosen:
            rank, pivots, red = res
            np.savez(
                os.path.join(out_dir, f"{i}.npz"),
                a=a,
                p=p,
                rank=rank,
                pivots=np.array(pivots, dtype=np.int64),
                red=red,
            )
        return res

    for mod, attr in holders(rref_mod):
        setattr(mod, attr, capturing)
    # The parent fails the operation if the lane exists but nothing was saved.
    return hasattr(linalg, "_rref_dense_modp")


def run(spec, frobpi, report):
    tracer = None
    probe = None if spec.get("trace") else SpeedProbe(OP_PROBE_EVERY_S)
    if spec.get("capture"):
        report["dense_lane"] = install_capture(spec)
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer(spec["seed"]).install()
    # In a traced run, cli.main is the root span of the operation.
    main = tracer._wrap("cli.main", frobpi.cli.main) if tracer else frobpi.cli.main
    buf = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with probe or contextlib.nullcontext(), contextlib.redirect_stdout(buf):
            report["rc"] = main(spec["argv"])
    except SystemExit as e:
        report["rc"] = e.code
    except Exception as e:  # the operation failed; the parent counts it
        report["error"] = f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0
    if probe:
        report["wall_scaled"] = probe.scaled(wall)
        wall -= sum(probe.samples)
    report["wall"] = wall
    report["cpu"] = time.process_time() - cpu0
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["out"], "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    if tracer is not None:
        from tracer import scalar_timings

        tracer.uninstall()
        layers = tracer.metrics()
        layers.update(scalar_timings(tracer))
        layers["process.cpu_s"] = report["cpu"]
        layers["trace.wall_s"] = report["wall"]
        tracer.write(spec["trace"], spec["op"])
        report["layers"] = layers


def main():
    spec = json.loads(sys.argv[1])
    report = {}
    try:
        with SpeedProbe(SETUP_PROBE_EVERY_S) as probe:
            frobpi = setup(spec)
        report["ready"] = time.monotonic()
        report.update(probe.summary())
        if not spec.get("setup_only"):
            run(spec, frobpi, report)
    except Exception as e:
        report["error"] = f"{type(e).__name__}: {e}"
    print(json.dumps(report))


if __name__ == "__main__":
    main()
