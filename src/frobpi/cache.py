"""Write-once disk cache for built graded algebras and their centres.

A cache entry is keyed by sha256 over the canonical JSON of the algebra
presentation and functional, the field tag, the build degree, and the
format version.  A build entry, <key>.json, holds, per degree 1..D, what
the build decided: the parent of each basis word and the E and FB
reduction operators.  The words' first letters and sides follow from
those and are derived by the engine on load; B and F are derived by the
engine on first read, and a warm run that reads only dimensions and the
centres saved here never reads them.  A centre entry,
<key>.center.json, holds the centre of every degree 0..D-1, as
center.center_degree computed it.

A file is one JSON header line, {format, key, field, degree, sha256}, then
the body.  A build entry's body is [parents, E, FB], each a list over
degrees 1..D; it is written one degree at a time, as the bytes one dump of
the whole would give, so no flat copy of the build is held.  A centre
entry's body is a list over degrees 0..D-1 of [degree, pivots, rows], the
rows in canonical reduced form.  A row is a flat list [k0, v0, k1, v1, ...];
a payload that is a Python int is written as a JSON int and read back
through field.convert, any other payload is written through field.fmt and
read back through field.parse.  sha256, from the builtin module when the
interpreter has one (it needs no OpenSSL), is taken over the body bytes
exactly as written and as read.

Files are created exclusively (link-into-place) and never rewritten; a
file that cannot be written raises InputError.  A build entry is written
when the build is made.  A centre entry is written once, when the build's
centre memo first holds every degree 0..D-1 (center.center_degree calls
the store this module hands the build), so a run that computes fewer
centres writes none.  On load the header is checked, then the hash of the
body bytes, before the body is parsed; a file that does not parse or match
raises CacheValidationError.  A build entry's parsed lists are dropped
once converted, and a row {k: 1} is read as the build's shared unit row,
so a loaded build holds no more than a built one.  A centre entry must
hold exactly the degrees 0..D-1, each in canonical reduced form, and it is
read into the build's memo before build_cached returns the build, so a
warm run computes no centre the cache holds.
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
from .linalg import EMPTY_ROW, Subspace

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


def _dumper(field):
    # default=field.fmt writes every payload that is not an int
    return json.JSONEncoder(separators=(",", ":"), default=field.fmt).encode


def _body(g: GradedAlgebra) -> bytes:
    """[parents, E, FB], each a JSON list of per-degree dumps, so no flat copy of the build is held."""
    dump = _dumper(g.field)
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
    return _entry(g, key, _body(g))


def _encode_centers(g: GradedAlgebra, key: str) -> bytes:
    """The centre entry: [degree, pivots, flat rows] for each degree 0..D-1 of the memo."""
    body = [[d, list(z.pivots), _flat(z.rows)] for d, z in sorted(g.centers.items())]
    return _entry(g, key, _dumper(g.field)(body).encode("ascii"))


def _entry(g: GradedAlgebra, key: str, body: bytes) -> bytes:
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


def _checked_body(pair, D: int, data: bytes, key: str) -> bytes:
    """The body bytes of an entry, once its header matches the request and its hash the body."""
    head, _, body = data.partition(b"\n")
    header = json.loads(head)
    if not isinstance(header, dict):
        raise CacheValidationError("cache file header is not an object")
    if header.get("format") != CACHE_FORMAT or header.get("key") != key:
        raise CacheValidationError("cache file key mismatch")
    if header.get("field") != pair.field.tag or header.get("degree") != D:
        raise CacheValidationError("cache file field/degree mismatch")
    if header.get("sha256") != _sha256(body):
        raise CacheValidationError("cache file body hash mismatch")
    return body


def _decode(pair, D: int, data: bytes, key: str) -> GradedAlgebra:
    body = _checked_body(pair, D, data, key)
    parents, e, fb = json.loads(body)
    del body
    f = pair.field

    def read(unit):
        for parent, e_rows, fb_rows in zip(_drain(parents), _drain(e), _drain(fb), strict=True):
            parent = [(i, kind, m) for i, kind, m in parent]
            n = len(parent)
            yield parent, _dec_rows(f, e_rows, n, unit), [_dec_rows(f, rows, n, unit) for rows in fb_rows]

    return GradedAlgebra.from_operators(pair, D, read)


def _load_centers(g: GradedAlgebra, data: bytes, key: str):
    """Read a centre entry into g.centers: every degree 0..D-1, each in canonical reduced form."""
    body = json.loads(_checked_body(g.pair, g.D, data, key))
    if type(body) is not list or len(body) != g.D:
        raise CacheValidationError(f"centre entry does not hold degrees 0..{g.D - 1}")
    f = g.field
    centers = {}
    for d, (deg, pivots, flat) in enumerate(body):
        if type(deg) is not int or deg != d:
            raise CacheValidationError(f"centre degree {deg!r} where degree {d} belongs")
        rows = _dec_rows(f, flat, g.dim(d), g._unit)
        z = Subspace.from_vectors(f, g.dim(d), rows)
        if list(z.pivots) != pivots or list(z.rows) != rows:
            raise CacheValidationError(f"degree {d}: centre rows are not in canonical reduced form")
        centers[d] = z
    g.centers.update(centers)


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


def _read(path: str, load):
    """load(the file's bytes), with any failure to read or validate it as CacheValidationError."""
    try:
        with open(path, "rb") as fh:
            return load(fh.read())
    except (
        CacheValidationError, OSError, ValueError, LookupError, TypeError, AttributeError,
        ArithmeticError, RecursionError,
    ) as e:
        raise CacheValidationError(f"cannot load cache file {path}: {e}") from e


def _store(path: str, data: bytes):
    try:
        _write_exclusive(path, data)
    except OSError as e:
        raise InputError(f"cannot write cache file {path}: {e}") from e


def build_cached(pair, D: int, cache_dir: str) -> GradedAlgebra:
    """Build through the cache directory, creating the entry if absent.

    The build comes back with its centres in its memo when the directory
    holds its centre entry, and otherwise with the store that writes that
    entry once the memo is complete.
    """
    key = cache_key(pair, D)
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot create cache directory {cache_dir}: {e}") from e
    path = os.path.join(cache_dir, f"{key}.json")
    if os.path.exists(path):
        g = _read(path, lambda data: _decode(pair, D, data, key))
    else:
        g = GradedAlgebra(pair, D)
        _store(path, _encode(g, key))
    centers = os.path.join(cache_dir, f"{key}.center.json")
    if os.path.exists(centers):
        _read(centers, lambda data: _load_centers(g, data, key))
    else:
        g.on_centers_complete = lambda g: _store(centers, _encode_centers(g, key))
    return g
