"""Spans around calls into each frobpi layer, installed from outside.

The tracer replaces module attributes of an imported frobpi with thin
wrappers, so the program's source is left as it is.  Spans are kept in
memory as (name, start, end, parent, attrs) and written out when the
operation ends; a span's self time is its duration minus the durations of
its direct children.  `LAYER_METRICS` lists what `metrics` derives from
the spans; BENCHMARK.json names the same metrics.
"""

import json
import os
import random
import sys
import time

FIELD_KINDS = ("q", "qu", "fp")
LANES = {
    "_rref_generic": "generic",
    "_rref_fraction_free": "fraction_free",
    "_rref_dense_modp": "dense_modp",
}

# name -> (unit, better)
LAYER_METRICS = {
    "fields.ratf_new": ("count", "lower"),
    "fields.qu_add_us": ("us", "lower"),
    "fields.qu_mul_us": ("us", "lower"),
    "fields.q_add_us": ("us", "lower"),
    "fields.q_mul_us": ("us", "lower"),
    "fields.fp_mul_us": ("us", "lower"),
    **{
        f"linalg.rref.{k}.{m}": (u, "lower")
        for k in FIELD_KINDS
        for m, u in (("calls", "count"), ("s", "s"), ("cells", "count"))
    },
    **{f"linalg.lane.{lane}.s": ("s", "lower") for lane in LANES.values()},
    "kernels.rref_mod.calls": ("count", "lower"),
    "kernels.rref_mod.s": ("s", "lower"),
    "kernels.rref_mod.max_cells": ("count", "lower"),
    "engine.build.s": ("s", "lower"),
    "engine.build.self_s": ("s", "lower"),
    "engine.build.relation_rows": ("count", "lower"),
    "center.center_degree.calls": ("count", "lower"),
    "center.center_degree.s": ("s", "lower"),
    "center.center_degree.self_s": ("s", "lower"),
    "cache.store.s": ("s", "lower"),
    "cache.load.s": ("s", "lower"),
    "cache.bytes_written": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cli.emit.s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
}

# Operations per scalar timing, sized so that each field takes well under a
# second on a 2-core machine.
SCALAR_SAMPLE = {"qu": 300, "q": 20000, "fp": 50000}
ENTRIES_PER_BUILD = 64


def field_kind(tag):
    return "fp" if tag.startswith("fp:") else tag


def holders(fn):
    """(module, attribute) of every frobpi module that holds a reference to fn."""
    return [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if name == "frobpi" or name.startswith("frobpi.")
        for attr, val in list(vars(mod).items())
        if val is fn
    ]


class Tracer:
    def __init__(self, seed):
        self.spans = []  # [name, start, end, parent, attrs]
        self._stack = []
        self._undo = []
        self.ratf_new = 0
        self.family = None  # the deformation family being verified, if any
        self.rng = random.Random(f"scalars:{seed}")
        # (field, value) operator entries per field kind, drawn from each
        # algebra as it is built or loaded.  Holding the algebras themselves
        # keeps them alive; traced qu-deform runs were then 17-27% slower.
        self.entries = {}

    # -- recording --------------------------------------------------------

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            self._open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return wrapper

    def _sample(self, g):
        """Keep ENTRIES_PER_BUILD seeded entries of g's E, FB and B rows."""
        rng = self.rng
        kept = self.entries.setdefault(field_kind(g.field.tag), [])
        got = 0
        for _ in range(50 * ENTRIES_PER_BUILD):
            if got == ENTRIES_PER_BUILD:
                break
            d = rng.randint(1, g.D)
            row = rng.choice(rng.choice([g.E[d], *g.FB[d], *g.B[d]]))
            if row:
                kept.append((g.field, rng.choice(list(row.values()))))
                got += 1

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, new):
        for mod, attr in holders(fn):
            self._patch(mod, attr, new)

    def install(self):
        from frobpi import _kernels, cache, center, cli, engine, fields, linalg

        def rref_attrs(field, rows, ncols):
            return {"kind": field_kind(field.tag), "rows": len(rows), "cols": ncols}

        self._patch_everywhere(
            linalg.rref_rows, self._wrap("linalg.rref_rows", linalg.rref_rows, rref_attrs)
        )
        for attr, lane in LANES.items():
            fn = getattr(linalg, attr, None)  # a lane a later change deletes reports 0
            if fn is not None:
                self._patch(linalg, attr, self._wrap(f"linalg.lane.{lane}", fn))
        self._patch(
            _kernels,
            "rref_mod",
            self._wrap(
                "kernels.rref_mod",
                _kernels.rref_mod,
                lambda a, p, *rest, **kw: {"cells": int(a.shape[0] * a.shape[1])},
            ),
        )
        self._patch_everywhere(
            center.center_degree,
            self._wrap(
                "center.center_degree",
                center.center_degree,
                lambda g, d: {"kind": field_kind(g.field.tag), "family": self.family, "degree": d},
            ),
        )
        deformation = cli.deformation

        def noted_deformation(n, char2=False):
            # The deformations suite asks for each family before building it,
            # so later spans belong to that family.
            self.family = f"{n}c" if char2 else str(n)
            return deformation(n, char2)

        self._patch(cli, "deformation", noted_deformation)
        self._patch(cli, "_emit", self._wrap("cli.emit", cli._emit))

        ga = engine.GradedAlgebra
        init = ga.__init__

        def traced_init(g, *args, **kwargs):
            self._open("engine.build", None)
            try:
                init(g, *args, **kwargs)
            finally:
                self._close()
            self._sample(g)

        self._patch(ga, "__init__", traced_init)

        build_cached = cache.build_cached

        def traced_build_cached(pair, D, cache_dir):
            path = os.path.join(cache_dir, f"{cache.cache_key(pair, D)}.json")
            attrs = {"hit": os.path.exists(path), "bytes": 0}
            self._open("cache.build_cached", attrs)
            try:
                g = build_cached(pair, D, cache_dir)
            finally:
                self._close()
            if attrs["hit"]:
                self._sample(g)  # a miss was sampled when it was built
            else:
                attrs["bytes"] = os.path.getsize(path)
            return g

        self._patch(cache, "build_cached", traced_build_cached)

        ratf_init = fields.RatF.__init__

        def counted_init(r, *args, **kwargs):
            self.ratf_new += 1
            ratf_init(r, *args, **kwargs)

        self._patch(fields.RatF, "__init__", counted_init)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output -----------------------------------------------------------

    def write(self, path, op):
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                rec = {"op": op, "id": i, "name": name, "start": t0, "end": t1, "parent": parent}
                rec.update(attrs or {})
                fh.write(json.dumps(rec) + "\n")

    def metrics(self):
        m = {name: 0 for name in LAYER_METRICS}
        m["fields.ratf_new"] = self.ratf_new
        spans = self.spans
        children = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent is not None:
                children[parent] += t1 - t0
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            dur = t1 - t0
            if name == "linalg.rref_rows":
                pre = f"linalg.rref.{attrs['kind']}"
                m[f"{pre}.calls"] += 1
                m[f"{pre}.s"] += dur
                m[f"{pre}.cells"] += attrs["rows"] * attrs["cols"]
                if parent is not None and spans[parent][0] == "engine.build":
                    m["engine.build.relation_rows"] += attrs["rows"]
            elif name.startswith("linalg.lane."):
                m[f"{name}.s"] += dur
            elif name == "kernels.rref_mod":
                m["kernels.rref_mod.calls"] += 1
                m["kernels.rref_mod.s"] += dur
                m["kernels.rref_mod.max_cells"] = max(m["kernels.rref_mod.max_cells"], attrs["cells"])
            elif name in ("engine.build", "center.center_degree"):
                if name == "center.center_degree":
                    m["center.center_degree.calls"] += 1
                m[f"{name}.s"] += dur
                m[f"{name}.self_s"] += dur - children[i]
            elif name == "cache.build_cached":
                if attrs["hit"]:
                    m["cache.hits"] += 1
                    m["cache.load.s"] += dur
                else:
                    m["cache.misses"] += 1
                    m["cache.store.s"] += dur - children[i]
                    m["cache.bytes_written"] += attrs["bytes"]
            elif name == "cli.emit":
                m["cli.emit.s"] += dur
        return m


def scalar_timings(tracer):
    """µs per add and mul on pairs of the operation's own operator entries."""
    out = {}
    rng = tracer.rng
    for kind, ops in (("qu", ("add", "mul")), ("q", ("add", "mul")), ("fp", ("mul",))):
        vals = [v for _, v in tracer.entries.get(kind, ())]
        for op in ops:
            key = f"fields.{kind}_{op}_us"
            if len(vals) < 2:
                out[key] = 0
                continue
            field = tracer.entries[kind][0][0]
            pairs = [(rng.choice(vals), rng.choice(vals)) for _ in range(SCALAR_SAMPLE[kind])]
            fn = getattr(field, op)
            t0 = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            out[key] = (time.perf_counter() - t0) / len(pairs) * 1e6
    return out
