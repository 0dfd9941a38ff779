"""Write-once disk cache for built graded algebras.

A cache entry is keyed by sha256 over the canonical JSON of the algebra
presentation and functional, the field tag, the build degree, and the
format version.  A file holds, per degree 1..D, what the build decided:
the parent of each basis word and the E and FB reduction operators.  The
words' first letters, sides, B and F follow from those and are derived by
the engine on load.
Files are created exclusively (link-into-place) and never rewritten.  On
load the header (format, key, field, degree) and a sha256 of the operator
body are checked before any scalar is parsed; a file that does not parse
or match raises CacheValidationError.
"""

import json
import os

from .engine import GradedAlgebra
from .fields import InputError
from .frobenius import algebra_to_json

CACHE_FORMAT = 2


class CacheValidationError(RuntimeError):
    """A cache file does not parse, or does not match the key its name promises."""


def _sha256(text: str) -> str:
    import hashlib  # loads OpenSSL, megabytes of resident memory; only cached builds need it

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_key(pair, D: int) -> str:
    payload = "\n".join(
        [
            f"frobpi-cache-{CACHE_FORMAT}",
            pair.field.tag,
            str(D),
            algebra_to_json(pair),
        ]
    )
    return _sha256(payload)


def _body_hash(data: dict) -> str:
    return _sha256(json.dumps([data["parent"], data["E"], data["FB"]]))


def _enc_rows(field, rows):
    return [[[k, field.fmt(v)] for k, v in sorted(row.items())] for row in rows]


def _dec_rows(field, data):
    return [{int(k): field.parse(v) for k, v in row} for row in data]


def _encode(g: GradedAlgebra, key: str) -> dict:
    f = g.field
    degrees = range(1, g.D + 1)
    data = {
        "format": CACHE_FORMAT,
        "key": key,
        "field": f.tag,
        "degree": g.D,
        "parent": [[list(p) for p in g.parent[d]] for d in degrees],
        "E": [_enc_rows(f, g.E[d]) for d in degrees],
        "FB": [[_enc_rows(f, g.FB[d][j]) for j in range(g.n)] for d in degrees],
    }
    data["sha256"] = _body_hash(data)
    return data


def _decode(pair, D: int, data: dict, key: str) -> GradedAlgebra:
    if data.get("format") != CACHE_FORMAT or data.get("key") != key:
        raise CacheValidationError("cache file key mismatch")
    if data.get("field") != pair.field.tag or data.get("degree") != D:
        raise CacheValidationError("cache file field/degree mismatch")
    if data.get("sha256") != _body_hash(data):
        raise CacheValidationError("cache file operator hash mismatch")
    f = pair.field
    degrees = []
    for parent, e, fb in zip(data["parent"], data["E"], data["FB"]):
        parent = [(i, kind, m) for i, kind, m in parent]
        degrees.append((parent, _dec_rows(f, e), [_dec_rows(f, rows) for rows in fb]))
    return GradedAlgebra.from_operators(pair, D, degrees)


def _write_exclusive(path: str, text: str):
    """Atomic write-once: exclusive temp file, named uniquely per writer, linked into place."""
    tmp = f"{path}.tmp.{os.getpid()}.{os.urandom(8).hex()}"
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
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot create cache directory {cache_dir}: {e}") from e
    path = os.path.join(cache_dir, f"{key}.json")
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return _decode(pair, D, json.load(fh), key)
        except (
            CacheValidationError, OSError, ValueError, LookupError, TypeError, AttributeError,
            ArithmeticError,
        ) as e:
            raise CacheValidationError(f"cannot load cache file {path}: {e}") from e
    g = GradedAlgebra(pair, D)
    _write_exclusive(path, json.dumps(_encode(g, key)))
    return g
