"""The three `frobpi verify` workloads and their degree caps.

Each workload is a fixed list of operations; one operation is one
`frobpi verify` invocation, run through `frobpi.cli.main` in a fresh
process.  A round runs every operation of the workload once, in order.
"""

from dataclasses import dataclass

# Catalog algebras, deformation families and rank-4 closed forms, written
# out here so that the checks do not take them from the program.
CATALOG = ("split4", "dual-numbers-pair", "two-dual-numbers", "t3-plus-k", "t4", "bikwad")
FAMILIES = ((1, False), (2, False), (3, False), (4, False), (5, False), (6, False), (6, True))


def family_label(n, char2):
    return f"{n}c" if char2 else str(n)


@dataclass(frozen=True)
class Op:
    name: str
    suites: tuple
    field: str  # the --field flag, or "" for none
    cache: bool  # run against the round's cache directory instead of --no-cache


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    cap: int
    small_cap: int
    setup_fields: tuple  # fields constructed during set-up


WORKLOADS = {
    w.name: w
    for w in (
        # Q(u) arithmetic: all six families and the char-2 variant, the
        # only workload that uses RatF.
        Workload(
            "qu-deform",
            (Op("deform", ("deformations",), "", False),),
            cap=5,
            small_cap=2,
            setup_fields=("qu", "q"),
        ),
        # Fraction arithmetic, both Q lanes of rref_rows, and the only cache
        # stores and loads: cold then warm on one cache directory.  Centre
        # matrices pass the fraction-free lane's 200 columns only from
        # degree 40 (dimension 205), so cap 40 is the lowest at which the
        # warm run uses that lane too.
        Workload(
            "q-deep",
            (
                Op("cold", ("ranks", "split", "resolution", "center"), "q", True),
                Op("warm", ("ranks", "split", "resolution", "center"), "q", True),
            ),
            cap=40,
            small_cap=4,
            setup_fields=("q",),
        ),
        # The dense mod-p lane; fp:5 because verify checks nothing for a
        # prime outside its built-in field lists.
        Workload(
            "fp-deep",
            (Op("fp", ("ranks", "split", "center"), "fp:5", False),),
            cap=48,
            small_cap=4,
            setup_fields=("fp:5",),
        ),
    )
}


def verify_argv(op, cap, cache_dir):
    argv = ["verify", "--suite", ",".join(op.suites), "--max-degree", str(cap)]
    if op.field:
        argv += ["--field", op.field]
    argv += ["--cache-dir", cache_dir] if op.cache else ["--no-cache"]
    return argv
