"""Write-once disk cache for built graded algebras.

A cache entry is keyed by sha256 over the canonical JSON of the algebra
presentation and functional, the field tag, the build degree, and the
format version.  A file holds, per degree 1..D, what the build decided:
the parent of each basis word and the E and FB reduction operators.  The
words' first letters, sides, B and F follow from those and are derived by
the engine on load.

A file is one JSON header line, {format, key, field, degree, sha256}, then
the body [parents, E, FB], each a list over degrees 1..D.  The body is
written one degree at a time, as the bytes one dump of the whole would
give, so no flat copy of the build is held.  An operator row is a flat list
[k0, v0, k1, v1, ...]; a payload that is a Python int is written as a JSON
int and read back through field.convert, any other payload is written
through field.fmt and read back through field.parse.  sha256, from the
builtin module when the interpreter has one (it needs no OpenSSL), is taken
over the body bytes exactly as written and as read.
Files are created exclusively (link-into-place) and never rewritten; a file
that cannot be written raises InputError.  On
load the header is checked, then the hash of the body bytes, before the
body is parsed; a file that does not parse or match raises
CacheValidationError.  Each degree's parsed lists are dropped once
converted, and a row {k: 1} is read as the build's shared unit row, so a
loaded build holds no more than a built one.
"""

import json
import os
from itertools import chain

try:  # the builtin module: hashlib would load OpenSSL, megabytes of resident memory
    from _sha256 import sha256  # Python 3.11 and before
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and after
    except ImportError:
        from hashlib import sha256

from .engine import GradedAlgebra
from .fields import InputError
from .frobenius import algebra_to_json
from .linalg import EMPTY_ROW

CACHE_FORMAT = 3


class CacheValidationError(RuntimeError):
    """A cache file does not parse, or does not match the key its name promises."""


def _sha256(data: bytes) -> str:
    return sha256(data).hexdigest()


def cache_key(pair, D: int) -> str:
    payload = "\n".join(
        [
            f"frobpi-cache-{CACHE_FORMAT}",
            pair.field.tag,
            str(D),
            algebra_to_json(pair),
        ]
    )
    return _sha256(payload.encode("utf-8"))


def _flat(rows):
    return [list(chain.from_iterable(row.items())) if row else [] for row in rows]


def _body(g: GradedAlgebra) -> bytes:
    """[parents, E, FB], each a JSON list of per-degree dumps, so no flat copy of the build is held."""
    # default=f.fmt writes every payload that is not an int
    dump = json.JSONEncoder(separators=(",", ":"), default=g.field.fmt).encode
    degrees = range(1, g.D + 1)
    tables = (
        (g.parent[d] for d in degrees),
        (_flat(g.E[d]) for d in degrees),
        ([_flat(op) for op in g.FB[d]] for d in degrees),
    )
    chunks = []
    for table in tables:
        chunks += (b"],[" if chunks else b"[[", b",".join(dump(x).encode("ascii") for x in table))
    chunks.append(b"]]")
    return b"".join(chunks)


def _encode(g: GradedAlgebra, key: str) -> bytes:
    body = _body(g)
    header = {"format": CACHE_FORMAT, "key": key, "field": g.field.tag, "degree": g.D}
    header["sha256"] = _sha256(body)
    return json.dumps(header).encode("ascii") + b"\n" + body


def _dec_rows(field, rows, ncols, unit):
    convert, parse, is_zero, one = field.convert, field.parse, field.is_zero, field.one
    out = []
    for flat in rows:
        if type(flat) is not list:
            raise CacheValidationError(f"operator row {flat!r} is not a list")
        if not flat:  # most rows are empty
            out.append(EMPTY_ROW)
            continue
        row = {}
        it = iter(flat)
        for k, v in zip(it, it, strict=True):
            if type(k) is not int or not 0 <= k < ncols or k in row:
                raise CacheValidationError(f"bad operator index {k!r}")
            if type(v) is int:
                x = convert(v)
            elif type(v) is str:
                x = parse(v)
            else:
                raise CacheValidationError(f"bad operator payload {v!r}")
            if is_zero(x):
                raise CacheValidationError(f"zero operator payload {v!r}")
            row[k] = x
        out.append(unit(k) if len(row) == 1 and x == one else row)  # {k: 1}: the shared unit row
    return out


def _drain(items: list):
    """Yield the items of a list in order, dropping each from the list."""
    items.reverse()
    while items:
        yield items.pop()


def _decode(pair, D: int, data: bytes, key: str) -> GradedAlgebra:
    head, _, body = data.partition(b"\n")
    header = json.loads(head)
    if not isinstance(header, dict):
        raise CacheValidationError("cache file header is not an object")
    if header.get("format") != CACHE_FORMAT or header.get("key") != key:
        raise CacheValidationError("cache file key mismatch")
    if header.get("field") != pair.field.tag or header.get("degree") != D:
        raise CacheValidationError("cache file field/degree mismatch")
    if header.get("sha256") != _sha256(body):
        raise CacheValidationError("cache file operator hash mismatch")
    parents, e, fb = json.loads(body)
    del body
    f = pair.field

    def read(unit):
        for parent, e_rows, fb_rows in zip(_drain(parents), _drain(e), _drain(fb), strict=True):
            parent = [(i, kind, m) for i, kind, m in parent]
            n = len(parent)
            yield parent, _dec_rows(f, e_rows, n, unit), [_dec_rows(f, rows, n, unit) for rows in fb_rows]

    return GradedAlgebra.from_operators(pair, D, read)


def _write_exclusive(path: str, data: bytes):
    """Atomic write-once: exclusive temp file, named uniquely per writer, linked into place."""
    tmp = f"{path}.tmp.{os.getpid()}.{os.urandom(8).hex()}"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
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
            with open(path, "rb") as fh:
                return _decode(pair, D, fh.read(), key)
        except (
            CacheValidationError, OSError, ValueError, LookupError, TypeError, AttributeError,
            ArithmeticError, RecursionError,
        ) as e:
            raise CacheValidationError(f"cannot load cache file {path}: {e}") from e
    g = GradedAlgebra(pair, D)
    try:
        _write_exclusive(path, _encode(g, key))
    except OSError as e:
        raise InputError(f"cannot write cache file {path}: {e}") from e
    return g
