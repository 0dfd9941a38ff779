"""Checks of `frobpi verify` output against computations made here.

Nothing here reads a record's `expected` or `pass` field.  The closed forms
for rank-4 Frobenius pairs are coded below; the resolution identity is
recomputed from the reported split dimensions; Q(u) fibres are compared
with a Q build at a seeded rational point; dense mod-p reductions are
redone with sympy.  Each check returns a list of problems, empty when the
output is right.
"""

import hashlib
import json
import random
from fractions import Fraction

from workloads import CATALOG, FAMILIES, family_label

RANK = 4


def dim_law(d):
    return 5 * (d + 1) if d % 2 == 0 else 4 * (d + 1)


def split_law(d):
    return (d + 1, 4 * (d + 1)) if d % 2 == 0 else (2 * (d + 1), 2 * (d + 1))


def centre_law(d):
    """Centre dimension in characteristic other than 2."""
    if d % 4 == 0:
        return d // 4 + 1
    if d % 4 == 2:
        return (d - 2) // 4
    return 0


def _keyed(rows, key, problems):
    out = {}
    for r in rows:
        k = key(r)
        if k in out:
            problems.append(f"duplicate record {k}")
        out[k] = r
    return out


def _coverage(got, want, problems):
    missing = want - got.keys()
    extra = got.keys() - want
    if missing:
        problems.append(f"{len(missing)} records missing, e.g. {sorted(missing, key=str)[0]}")
    if extra:
        problems.append(f"{len(extra)} unexpected records, e.g. {sorted(extra, key=str)[0]}")


def check_catalog_suites(rows, suites, field, cap):
    """ranks, split, center and resolution records over one field."""
    problems = []
    recs = _keyed(rows, lambda r: (r.get("suite"), r.get("pair"), r.get("field"), r.get("degree")), problems)
    res_field = "q"  # the resolution suite always reports over Q
    want = {
        (s, pair, res_field if s == "resolution" else field, d)
        for s in suites
        for pair in CATALOG
        for d in range(cap + 1)
    }
    _coverage(recs, want, problems)
    for (s, pair, f, d), r in sorted(recs.items(), key=str):
        if (s, pair, f, d) not in want:
            continue
        if s == "ranks":
            ok = r.get("dim") == dim_law(d)
        elif s == "split":
            ok = (r.get("dim_r"), r.get("dim_s")) == split_law(d)
        elif s == "center":
            ok = r.get("dim_center") == centre_law(d)
        else:
            ok = _resolution_ok(recs, pair, d, r)
        if not ok:
            problems.append(f"wrong record {json.dumps(r, sort_keys=True)}")
    return problems


def _resolution_ok(recs, pair, d, r):
    """Euler characteristic of the standard resolution from the split dims."""

    def h(d_):
        if d_ < 0:
            return (0, 0)
        s = recs.get(("split", pair, "q", d_))
        return (s.get("dim_r"), s.get("dim_s")) if s else (None, None)

    (r2, s2), (r1, s1), (r0, s0) = h(d - 2), h(d - 1), h(d)
    if None in (r2, s2, r1, s1, r0, s0):
        return False
    alt_r = r2 - s1 + r0 - (1 if d == 0 else 0)
    alt_s = s2 - RANK * r1 + s0 - (RANK if d == 0 else 0)
    return (r.get("alternating_r"), r.get("alternating_s")) == (alt_r, alt_s) == (0, 0)


def fibre_point(seed):
    """A seeded rational c with 0 < |c| < 1: never 0 or ±1, the special values."""
    rng = random.Random(f"fibre:{seed}")
    return Fraction(rng.choice((-1, 1)) * rng.randint(2, 60), rng.randint(61, 120))


def fibre_reference(cap, seed):
    """Dims and centre dims of each family's Q fibre at u = c, degrees 0..cap."""
    from frobpi import build, center_degree, deformation, make_frobenius, specialize_pair

    c = fibre_point(seed)
    out = {}
    for n, char2 in FAMILIES:
        fam = deformation(n, char2)
        g = build(specialize_pair(make_frobenius(fam.algebra, fam.lam), "q", c), cap + 1)
        out[family_label(n, char2)] = (
            [g.dim(d) for d in range(cap + 1)],
            [center_degree(g, d).dim for d in range(cap + 1)],
        )
    return out


def check_deformations(rows, cap, fibre):
    problems = [f"unexpected record {json.dumps(r, sort_keys=True)}" for r in rows if r.get("suite") != "deformations"]
    labels = [family_label(n, c) for n, c in FAMILIES]
    rows = [r for r in rows if r.get("suite") == "deformations"]
    fib = _keyed(
        [r for r in rows if r.get("check") == "fiber-dims"], lambda r: (r.get("family"), r.get("degree")), problems
    )
    other = {}
    for r in rows:
        if r.get("check") != "fiber-dims":
            other.setdefault(r.get("family"), []).append(r.get("check", ""))
    _coverage(fib, {(lab, d) for lab in labels for d in range(cap + 1)}, problems)
    for (lab, d), r in sorted(fib.items(), key=str):
        if lab not in fibre or not isinstance(d, int) or not 0 <= d <= cap:
            continue
        dims, centres = fibre[lab]
        got = (r.get("dim_generic"), r.get("z_generic"), r.get("dim_special"), r.get("z_special"))
        if got != (dims[d], centres[d], dim_law(d), centre_law(d)) or dims[d] != dim_law(d):
            problems.append(f"wrong record {json.dumps(r, sort_keys=True)}")
    for lab in labels:
        checks = other.get(lab, [])
        if checks.count("special-fiber-constants") != 1:
            problems.append(f"family {lab}: no special-fiber-constants record")
        if any(c != "special-fiber-constants" and not c.startswith("generic-fiber-at-") for c in checks):
            problems.append(f"family {lab}: unknown check in {checks}")
    if set(other) - set(labels):
        problems.append(f"unknown families {sorted(set(other) - set(labels), key=str)}")
    return problems


def recheck_dense(path):
    """Reduce a captured dense-lane input with sympy over GF(p) and compare."""
    import numpy as np
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    with np.load(path) as z:
        a, p, rank, pivots, red = (z[k] for k in ("a", "p", "rank", "pivots", "red"))
    p = int(p)
    K = GF(p)
    nrows, ncols = a.shape
    rows = {}
    for i, j in zip(*np.nonzero(a % p)):
        rows.setdefault(int(i), {})[int(j)] = K(int(a[i, j]))
    R, piv = DomainMatrix(rows, (nrows, ncols), K).rref()
    want = {(i, j): int(v) % p for (i, j), v in R.to_dok().items() if int(v) % p}
    got = {(int(i), int(j)): int(red[i, j]) % p for i, j in zip(*np.nonzero(red % p))}
    if int(rank) != len(piv) or [int(c) for c in pivots] != list(piv) or got != want:
        return [f"dense lane disagrees with sympy on a {nrows}x{ncols} matrix mod {p}"]
    return []


def judge_round(wl, cap, ops, fibre, dense_memo):
    """(problems, wrong) for each operation of one round, in order.

    wrong is true when the operation finished and printed a wrong answer;
    an operation that raised or exited non-zero has problems but is not
    wrong.
    """
    out = []
    first_cached = None
    for op, rep in zip(wl.ops, ops):
        if "error" in rep or rep.get("rc") != 0:
            out.append(([rep.get("error") or f"exit code {rep.get('rc')}"], False))
            continue
        problems = []
        text = rep.get("out", b"")
        try:
            rows = json.loads(text)
        except ValueError:
            rows = None
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            problems.append("output is not a JSON list of records")
        elif not rows:
            problems.append("no records")
        elif op.suites == ("deformations",):
            problems += check_deformations(rows, cap, fibre)
        else:
            problems += check_catalog_suites(rows, op.suites, op.field, cap)
        if op.cache:
            if first_cached is None:
                first_cached = text
            elif text != first_cached:
                problems.append("output differs from the round's first cached run")
        for path in rep.get("dense", ()):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if digest not in dense_memo:
                dense_memo[digest] = recheck_dense(path)
            problems += dense_memo[digest]
        wrong = bool(problems)
        if rep.get("dense_lane") and not rep.get("dense"):
            problems.append("the dense lane exists but no call to it was saved, so none was checked")
        out.append((problems, wrong))
    return out
