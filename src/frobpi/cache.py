"""Write-once disk cache for built graded algebras.

A cache entry is keyed by sha256 over the canonical JSON of the algebra
presentation and functional, the field tag, the build degree, and a format
version.  The dump stores, per degree, the normal-form words together with
the reduction operators (E, FB, B); the unit-weighted F operator is cheap
and recomputed on load, and the degree-2 relation data, which only building
reads, is not restored.  Files are created exclusively (link-into-place),
never rewritten, and the key is revalidated when a file is read back; a
file that does not parse or match raises CacheValidationError.
"""

import json
import os

from .engine import GradedAlgebra, unit_weighted
from .frobenius import algebra_to_json

CACHE_FORMAT = 1


class CacheValidationError(RuntimeError):
    """A cache file does not parse, or does not match the key its name promises."""


def cache_key(pair, D: int) -> str:
    import hashlib  # loads OpenSSL, megabytes of resident memory; only cached builds need it

    payload = "\n".join(
        [
            f"frobpi-cache-{CACHE_FORMAT}",
            pair.field.tag,
            str(D),
            algebra_to_json(pair),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _enc_row(field, row: dict) -> list:
    return [[k, field.fmt(v)] for k, v in sorted(row.items())]


def _dec_row(field, data: list) -> dict:
    return {int(k): field.parse(v) for k, v in data}


def _enc_oprows(field, rows):
    return [_enc_row(field, r) for r in rows]


def _dec_oprows(field, data):
    return [_dec_row(field, r) for r in data]


def _encode(g: GradedAlgebra, key: str) -> dict:
    f = g.field
    return {
        "format": CACHE_FORMAT,
        "key": key,
        "field": f.tag,
        "degree": g.D,
        "dims": g.dims(),
        "words": [[list(w) for w in ws] for ws in g.words],
        "is_r": g.is_r,
        "parent": [None]
        + [[[i, kind, m] for i, kind, m in g.parent[d]] for d in range(1, g.D + 1)],
        "E": [None] + [_enc_oprows(f, g.E[d]) for d in range(1, g.D + 1)],
        "FB": [None]
        + [[_enc_oprows(f, g.FB[d][j]) for j in range(g.n)] for d in range(1, g.D + 1)],
        "B": [[_enc_oprows(f, g.B[d][j]) for j in range(g.n)] for d in range(g.D + 1)],
    }


def _decode(pair, D: int, data: dict, key: str) -> GradedAlgebra:
    if data.get("format") != CACHE_FORMAT or data.get("key") != key:
        raise CacheValidationError("cache file key mismatch")
    if data.get("field") != pair.field.tag or data.get("degree") != D:
        raise CacheValidationError("cache file field/degree mismatch")
    f = pair.field
    g = GradedAlgebra.__new__(GradedAlgebra)
    g.pair = pair
    g.field = f
    g.n = pair.n
    g.D = D
    g.words = [[tuple(w) for w in ws] for ws in data["words"]]
    g.is_r = data["is_r"]
    g.parent = [None] + [
        [(i, kind, m) for i, kind, m in deg] for deg in data["parent"][1:]
    ]
    g.E = [None] + [_dec_oprows(f, deg) for deg in data["E"][1:]]
    g.FB = [None] + [[_dec_oprows(f, rows) for rows in deg] for deg in data["FB"][1:]]
    g.B = [[_dec_oprows(f, rows) for rows in deg] for deg in data["B"]]
    g.F = [None] + [unit_weighted(f, pair.algebra.unit, fb) for fb in g.FB[1:]]
    g._l0 = {}
    g._l1 = {}
    g._split = {}
    if g.dims() != data["dims"]:
        raise CacheValidationError("cache file dimension table mismatch")
    return g


def _write_exclusive(path: str, text: str):
    """Atomic write-once: exclusive temp file linked into place."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "x", encoding="utf-8") as fh:
        fh.write(text)
    try:
        os.link(tmp, path)
    except FileExistsError:
        pass
    finally:
        os.unlink(tmp)


def build_cached(pair, D: int, cache_dir: str) -> GradedAlgebra:
    """Build through the cache directory, creating the entry if absent."""
    key = cache_key(pair, D)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{key}.json")
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return _decode(pair, D, json.load(fh), key)
        except (
            CacheValidationError, OSError, ValueError, LookupError, TypeError, ArithmeticError
        ) as e:
            raise CacheValidationError(f"cannot load cache file {path}: {e}") from e
    g = GradedAlgebra(pair, D)
    _write_exclusive(path, json.dumps(_encode(g, key)))
    return g
