"""Command-line front end: tables, verification suites, caching.

Exit codes: 0 when every reported check passes, 1 when any check fails,
2 on usage or input errors (InputError), 3 on an internal error (any other
ValueError, or a broken invariant) or an unreadable cache file.  Output is
deterministic for a fixed command line, and running with or without a
cache directory produces identical results.

`verify` builds each catalog (pair, field) once, runs every selected suite
that reads the build on it, and drops it before making the next one, so
only the build in use is kept.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .cache import CacheValidationError
from .center import center_degree, expected_center_dim, sigma_surjectivity_check
from .engine import build
from .fields import InputError, InvariantError, field_from_descriptor, int_digit_limit
from .frobenius import (
    CATALOG_NAMES,
    REJECT_NAMES,
    algebra_from_json,
    catalog,
    catalog_algebra,
    deformation,
    fiber_matches_catalog,
    is_frobenius,
    make_frobenius,
    specialize_pair,
)
from . import splitcase

RANK_FIELDS = ("q", "fp:2", "fp:3", "fp:5", "fp:7")
CENTER_FIELDS = ("q", "fp:2", "fp:5")


@functools.cache
def _expected_dims(n, d):
    """(dim, a-side dim) of degree d for a pair of rank n: the star-quiver series.

    Totals and column-0 sums of splitcase.quiver_hilbert(n), cut at the
    first zero total: for n <= 3 the star is Dynkin and the algebra stops
    there.  For n = 4 these are 5(d+1) and d+1 in even degrees, 4(d+1) and
    2(d+1) in odd ones.
    """
    col0, totals = splitcase.quiver_hilbert(n, d)
    return (0, 0) if 0 in totals else (totals[d], col0[d])


# ---------------------------------------------------------------------------
# verification suites; each record ends in a boolean "pass"


def _per_degree(suite, record):
    """Per-build hook: one record per degree up to the cap, for one catalog build.

    record(g, d) gives the record's fields after "degree", ending in "pass".
    """

    def rows(name, g, cap):
        tag = g.field.tag
        return [
            {"suite": suite, "pair": name, "field": tag, "degree": d, **record(g, d)}
            for d in range(cap + 1)
        ]

    return rows


def _rank_record(g, d):
    dim, exp = g.dim(d), _expected_dims(g.n, d)[0]
    return {"dim": dim, "expected": exp, "pass": dim == exp}


def _split_record(g, d):
    (dr, ds), (e, er) = g.split_dims(d), _expected_dims(g.n, d)
    es = e - er
    return {
        "dim_r": dr,
        "dim_s": ds,
        "expected_r": er,
        "expected_s": es,
        "pass": (dr, ds) == (er, es),
    }


def _center_record(g, d):
    dim, exp = center_degree(g, d).dim, expected_center_dim(d)
    return {"dim_center": dim, "expected": exp, "pass": dim == exp}


def _resolution_record(g, d):
    alt_r, alt_s = g.resolution_sum(d)
    return {"alternating_r": alt_r, "alternating_s": alt_s, "pass": alt_r == 0 and alt_s == 0}


def _sigma_rows(name, g, cap):
    return [
        {
            "suite": "sigma",
            "pair": name,
            "field": g.field.tag,
            "max_degree": cap,
            "pass": sigma_surjectivity_check(g, cap),
        }
    ]


def _invariant_checks(cap, cache_dir):
    yield {
        "suite": "invariants",
        "check": "relation",
        "pass": splitcase.invariant_relation_check(),
    }
    yield {
        "suite": "invariants",
        "check": "no-lower-relation",
        "pass": splitcase.no_lower_relation_check(),
    }


def _invariant_rows(name, g, cap):
    return [
        {
            "suite": "invariants",
            "check": "dims-vs-center",
            "degree": d,
            "invariant_dim": inv,
            "center_dim": zc,
            "pass": inv == zc,
        }
        for d, _, _, inv, zc in splitcase.split_table(g, cap)
    ]


def _fibres(fam, D, cache_dir):
    """The u = 0 fibre of family fam over Q, and builds to degree D of fam over Q(u) and of that fibre."""
    p_u = make_frobenius(fam.algebra, fam.lam)
    p_0 = specialize_pair(p_u, "q", 0)
    return p_0, build(p_u, D, cache_dir=cache_dir), build(p_0, D, cache_dir=cache_dir)


def _deformation_records(n, char2, cap, cache_dir):
    fam = deformation(n, char2)
    p_0, g_u, g_0 = _fibres(fam, cap + 1, cache_dir)
    rec = {"suite": "deformations", "family": fam.label}
    special = fiber_matches_catalog(fam, 0, fam.special, p_0.algebra)
    yield {**rec, "check": "special-fiber-constants", "pass": special}
    if fam.generic_at is not None:
        generic = fiber_matches_catalog(fam, fam.generic_at, fam.generic)
        yield {**rec, "check": f"generic-fiber-at-{fam.generic_at}", "pass": generic}
    for d in range(cap + 1):
        du, d0 = g_u.dim(d), g_0.dim(d)
        zu = center_degree(g_u, d).dim
        z0 = center_degree(g_0, d).dim
        yield {
            **rec,
            "check": "fiber-dims",
            "degree": d,
            "dim_generic": du,
            "dim_special": d0,
            "z_generic": zu,
            "z_special": z0,
            "pass": du == d0 and zu == z0,
        }


def _suite_deformations(cap, cache_dir):
    for n in range(1, 7):
        yield from _deformation_records(n, False, cap["qu"], cache_dir)
    yield from _deformation_records(6, True, cap["qu"], cache_dir)


def _suite_classification(cap, cache_dir):
    for name in CATALOG_NAMES + REJECT_NAMES:
        expected = name in CATALOG_NAMES
        alg = catalog_algebra(name)
        ok, witness = is_frobenius(alg)
        yield {
            "suite": "classification",
            "algebra": name,
            "expected_frobenius": expected,
            "computed": ok,
            "witness": "" if witness is None else ",".join(map(str, witness)),
            "pass": ok == expected,
        }


@dataclass(frozen=True)
class _Suite:
    fields: tuple  # the fields whose records the suite checks
    per_build: Optional[Callable] = None  # (pair name, build g, cap on g's field) -> records of g
    run: Optional[Callable] = None  # (cap, cache_dir) -> records that use no catalog build, first
    pairs: tuple = CATALOG_NAMES  # the catalog pairs that per_build checks
    cap: Optional[int] = None  # default degree cap; None if the suite reads no cap, builds nothing
    fp_cap: Optional[int] = None  # default degree cap over a prime field, where it differs
    build: Callable = lambda cap: cap  # degree cap -> build degree of the catalog pairs

    def cap_for(self, tag, dmax):
        if dmax is not None:
            return dmax
        if self.fp_cap is not None and tag.startswith("fp:"):
            return self.fp_cap
        return self.cap


SUITES = {
    "ranks": _Suite(RANK_FIELDS, _per_degree("ranks", _rank_record), cap=12),
    "split": _Suite(RANK_FIELDS, _per_degree("split", _split_record), cap=12),
    "center": _Suite(
        CENTER_FIELDS,
        _per_degree("center", _center_record),
        cap=12,
        fp_cap=16,
        build=lambda c: c + 1,
    ),
    "resolution": _Suite(("q",), _per_degree("resolution", _resolution_record), cap=16),
    "sigma": _Suite(CENTER_FIELDS, _sigma_rows, cap=12, fp_cap=16, build=lambda c: min(c, 7)),
    "invariants": _Suite(
        ("q",),
        _invariant_rows,
        _invariant_checks,
        pairs=("split4",),
        cap=12,
        build=lambda c: c + 1,
    ),
    "deformations": _Suite(("qu",), run=_suite_deformations, cap=8),
    "classification": _Suite(("q",), run=_suite_classification),
}


def _run_suites(suites, tag, dmax, cache_dir):
    """Records of the selected suites: suite by suite in SUITES order, then pair, field, degree.

    The catalog builds are made in one pass, pairs in CATALOG_NAMES order and
    fields in the order the suites list them.  Each build is made once, to
    the deepest degree that any suite checking it needs, read by every such
    suite, and dropped before the next one is made, so only one catalog
    build is alive at a time.
    """
    selected = []  # (suite name, suite, fields, cap per field) in SUITES order
    for name, s in SUITES.items():
        if name in suites:
            fields = s.fields if tag is None else (tag,)
            selected.append((name, s, fields, {t: s.cap_for(t, dmax) for t in fields}))
    readers = [sel for sel in selected if sel[1].per_build is not None]
    found = {}  # (suite name, pair, field) -> records
    for pair in CATALOG_NAMES:
        for t in dict.fromkeys(t for _, _, fields, _ in readers for t in fields):
            users = [
                (name, s, cap) for name, s, fields, cap in readers if t in fields and pair in s.pairs
            ]
            if users:
                D = max(s.build(cap[t]) for _, s, cap in users)
                g = build(catalog(pair, field_from_descriptor(t)), D, cache_dir=cache_dir)
                for name, s, cap in users:
                    found[name, pair, t] = s.per_build(pair, g, cap[t])
                del g
    rows = []
    for name, s, fields, cap in selected:
        if s.run is not None:
            rows.extend(s.run(cap, cache_dir))
        if s.per_build is not None:
            rows.extend(r for pair in s.pairs for t in fields for r in found.pop((name, pair, t)))
    return rows


def _select_suites(suite_arg, tag):
    """Suites to run: each must check the field tag, when one is given."""
    if suite_arg is not None:
        names = [part.strip() for part in suite_arg.split(",")]
        for name in names:
            if name not in SUITES:
                raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    else:
        names = [name for name, s in SUITES.items() if tag is None or tag in s.fields]
    if not names:
        raise InputError(f"no suite checks field {tag}; {_suite_fields(SUITES)}")
    if tag is not None:
        for name in names:
            if tag not in SUITES[name].fields:
                raise InputError(f"suite {_suite_fields([name])}, not {tag}")
    return names


def _suite_fields(names):
    return "; ".join(f"{name} checks {', '.join(SUITES[name].fields)}" for name in names)


# ---------------------------------------------------------------------------
# output formatting


def _format_rows(rows, fmt):
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    keys = []
    for r in rows:
        for k in r:
            if k not in keys:
                keys.append(k)
    table = [[_cell(k, r.get(k, "")) for k in keys] for r in rows]
    if fmt == "csv":
        lines = [",".join(keys)]
        lines += [",".join(row) for row in table]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(k), max((len(row[i]) for row in table), default=0))
        for i, k in enumerate(keys)
    ]
    out = ["| " + " | ".join(k.ljust(w) for k, w in zip(keys, widths)) + " |"]
    out.append("| " + " | ".join("-" * w for w in widths) + " |")
    for row in table:
        out.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    return "\n".join(out) + "\n"


def _cell(key, v):
    if isinstance(v, bool):
        if key == "pass":
            return "pass" if v else "FAIL"
        return "true" if v else "false"
    return str(v)


def _emit(rows, fmt, default):
    """Write the rows to stdout and flush it.

    Output that cannot be written is an InputError, as an unwritable cache
    file is.  stdout is then closed, dropping what it still holds, so that
    the flush at interpreter exit has nothing left to fail on.
    """
    try:
        sys.stdout.write(_format_rows(rows, fmt or default))
        sys.stdout.flush()
    except OSError as e:
        try:
            sys.stdout.close()  # flushes once more, fails again, and closes all the same
        except OSError:
            pass
        raise InputError(f"cannot write output: {e}") from e


def _exit_code(rows):
    """1 when a row fails its check; rows without a "pass" field check nothing."""
    return 0 if all(r.get("pass", True) for r in rows) else 1


# ---------------------------------------------------------------------------
# commands: each returns its rows and its default output format


def _cache_dir(args):
    if args.no_cache:
        if args.cache_dir is not None:
            raise InputError("--no-cache and --cache-dir exclude each other")
        return None
    return args.cache_dir or os.environ.get("FROBPI_CACHE")


def _resolve_pair(args):
    if args.algebra:
        if args.field or args.pair:
            raise InputError("--algebra names its own field and algebra; drop --field and --pair")
        try:
            with open(args.algebra, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read {args.algebra}: {e}") from e
        try:
            alg, lam = algebra_from_json(text)
        except (ValueError, KeyError, RecursionError) as e:
            raise InputError(f"bad algebra file: {e}") from e
        try:
            if lam is None:
                ok, lam = is_frobenius(alg)
                if not ok:
                    raise InputError("input algebra is not Frobenius")
            return make_frobenius(alg, lam), args.algebra
        except ValueError as e:  # the rank limit of is_frobenius, a singular Gram matrix
            raise InputError(str(e)) from e
    name = args.pair or "bikwad"
    if name not in CATALOG_NAMES:
        raise InputError(f"unknown pair {name!r}; choose from {', '.join(CATALOG_NAMES)}")
    return catalog(name, field_from_descriptor(args.field or "q")), name


def cmd_dims(args):
    pair, _ = _resolve_pair(args)
    g = build(pair, args.max_degree, cache_dir=_cache_dir(args))
    rows = []
    for d in range(g.D + 1):
        rank, split = _rank_record(g, d), _split_record(g, d)
        ok = rank.pop("pass") and split["pass"]
        rows.append({"degree": d, **rank, **split, "pass": ok})
    return rows, "md"


def cmd_verify(args):
    tag = field_from_descriptor(args.field).tag if args.field else None
    suites = _select_suites(args.suite, tag)
    for flag, value in (("--max-degree", args.max_degree), ("--cache-dir", args.cache_dir)):
        if value is not None and all(SUITES[name].cap is None for name in suites):
            unread = f"{', '.join(suites)} reads no degree cap and builds nothing"
            raise InputError(f"{flag} applies to no selected suite: {unread}")
    return _run_suites(suites, tag, args.max_degree, _cache_dir(args)), "json"


def cmd_catalog(args):
    rows = []
    for name in CATALOG_NAMES:
        pair = catalog(name)
        rows.append(
            {
                "name": name,
                "frobenius": True,
                "basis": " ".join(pair.algebra.names),
                "functional": ",".join(pair.field.fmt(c) for c in pair.lam),
            }
        )
    for name in REJECT_NAMES:
        alg = catalog(name)
        rows.append(
            {
                "name": name,
                "frobenius": False,
                "basis": " ".join(alg.names),
                "functional": "",
            }
        )
    return rows, "md"


def cmd_deform(args):
    if args.family is None:
        raise InputError("deform needs --family <1..6>")
    fam = deformation(args.family, args.char2)
    _, g_u, g_0 = _fibres(fam, args.max_degree, _cache_dir(args))
    rows = []
    for d in range(g_u.D + 1):
        du, d0 = g_u.dim(d), g_0.dim(d)
        rows.append(
            {
                "family": fam.label,
                "degree": d,
                "dim_special": d0,
                "dim_generic": du,
                "special_fiber": fam.special,
                "generic_fiber": fam.generic,
                "pass": du == d0,
            }
        )
    return rows, "md"


def cmd_quiver(args):
    n = args.arrows
    if n < 1:
        raise InputError("--arrows must be at least 1")
    cap = args.max_degree
    if n != 4:
        if args.cache_dir is not None or args.no_cache:
            raise InputError("--cache-dir and --no-cache apply only to --arrows 4")
        # Python refuses to print an int with more digits than this (0: no limit)
        limit = int_digit_limit()
        too_long = 10**limit
        rows = []
        for d, (c0, total) in zip(range(cap + 1), splitcase.quiver_series(n)):
            if limit and max(abs(c0), abs(total)) >= too_long:
                raise InputError(f"--max-degree {cap}: a series coefficient has more than {limit} digits")
            rows.append({"degree": d, "quiver_total": total, "column0_sum": c0})
        return rows, "md"
    g = build(catalog("split4"), cap + 1, cache_dir=_cache_dir(args))
    rows = [
        {
            "degree": d,
            "quiver_total": qt,
            "engine_dim": ed,
            "invariant_dim": iv,
            "center_dim": zc,
            "pass": qt == ed and iv == zc,
        }
        for d, qt, ed, iv, zc in splitcase.split_table(g, cap)
    ]
    return rows, "md"


def cmd_invariants(args):
    rows = []
    for d, dim in enumerate(splitcase.invariant_dims(args.max_degree)):
        exp = expected_center_dim(d)
        rows.append({"degree": d, "dim": dim, "expected": exp, "pass": dim == exp})
    return rows, "md"


# ---------------------------------------------------------------------------
# argument parsing


def _degree_cap(s: str) -> int:
    """argparse type of --max-degree: a degree, so an integer of at least 0."""
    try:
        d = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {s!r}") from None
    if d < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {d}")
    return d


def _parser():
    p = argparse.ArgumentParser(
        prog="frobpi",
        description="Graded algebras of rank-4 Frobenius pairs: tables and checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, pair=False, field=False, degree=True, cache=True, cap=12):
        """Add the shared flags that the subcommand reads, and only those; cap is the default degree cap."""
        if pair:
            sp.add_argument("--pair", help="catalog algebra name")
            sp.add_argument("--algebra", help="path to an algebra JSON file")
        if pair or field:
            sp.add_argument("--field", help="q, fp:<p>, or qu (default q)")
        if degree:
            sp.add_argument("--max-degree", type=_degree_cap, dest="max_degree", default=cap)
        sp.add_argument("--format", choices=("json", "csv", "md"))
        if cache:
            sp.add_argument("--cache-dir", dest="cache_dir")
            sp.add_argument("--no-cache", action="store_true", dest="no_cache")

    sp = sub.add_parser("dims", help="graded dimension table for one algebra")
    common(sp, pair=True)
    sp.set_defaults(fn=cmd_dims)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", help="comma-separated: " + ",".join(SUITES))
    common(sp, field=True, cap=None)  # None: each suite's own cap
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("catalog", help="list the classified algebras")
    common(sp, degree=False, cache=False)
    sp.set_defaults(fn=cmd_catalog)

    sp = sub.add_parser("deform", help="fiber dimensions along a family")
    sp.add_argument("--family", type=int)
    sp.add_argument("--char2", action="store_true")
    common(sp, cap=SUITES["deformations"].cap)
    sp.set_defaults(fn=cmd_deform)

    sp = sub.add_parser("quiver", help="star-quiver Hilbert series table")
    sp.add_argument("--arrows", type=int, default=4)
    common(sp)
    sp.set_defaults(fn=cmd_quiver)

    sp = sub.add_parser("invariants", help="plane invariant dimensions")
    common(sp, cache=False)
    sp.set_defaults(fn=cmd_invariants)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rows, default_format = args.fn(args)
        _emit(rows, args.format, default_format)
        return _exit_code(rows)
    except InputError as e:
        print(f"frobpi: {e}", file=sys.stderr)
        return 2
    except (InvariantError, ValueError) as e:
        print(f"frobpi: internal error: {e}", file=sys.stderr)
        return 3
    except CacheValidationError as e:
        print(f"frobpi: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
