"""Command line interface: exit codes, formats, determinism, caching."""

import collections
import dataclasses
import errno
import gc
import hashlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
import weakref

import pytest

from frobpi import CATALOG_NAMES, algebra_to_json, build, catalog, center, cli, engine, field_from_descriptor, frobenius
from frobpi.cache import cache_key
from frobpi.cli import main
from frobpi.fields import QQ, InvariantError
from frobpi.frobenius import _blocks_algebra, deformation, make_frobenius

from conftest import record_derivations


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_dims_table(capsys):
    code, out, _ = run(capsys, ["dims", "--pair", "t4", "--max-degree", "6", "--no-cache"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert any("| 6 " in l and " 35 " in l for l in lines)


def test_unknown_pair_is_usage_error(capsys):
    code, _, err = run(capsys, ["dims", "--pair", "nonesuch", "--no-cache"])
    assert code == 2
    assert "nonesuch" in err


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "sigma,frobnicate", "--no-cache"])
    assert code == 2
    assert "frobnicate" in err


def test_empty_suite_is_usage_error(capsys):
    # an explicitly empty --suite names the suite '', it does not mean all suites
    code, out, err = run(capsys, ["verify", "--suite", "", "--no-cache"])
    assert code == 2 and out == ""
    assert err.startswith("frobpi: unknown suite ''")


def test_bad_field_descriptor(capsys):
    code, _, err = run(capsys, ["dims", "--pair", "t4", "--field", "fp:6", "--no-cache"])
    assert code == 2


@pytest.mark.parametrize("field", ["fp:4", "banana"])
def test_bad_verify_field_is_usage_error(capsys, field):
    code, out, err = run(capsys, ["verify", "--field", field, "--no-cache"])
    assert code == 2 and out == ""
    assert err.startswith("frobpi: ") and "internal error" not in err


def test_char2_needs_family_6(capsys):
    code, out, err = run(capsys, ["deform", "--family", "3", "--char2", "--max-degree", "2"])
    assert code == 2 and out == ""
    assert err == "frobpi: char2 variant exists only for family 6\n"


def test_family_range_is_checked_before_char2(capsys):
    code, out, err = run(capsys, ["deform", "--family", "7", "--char2", "--max-degree", "2"])
    assert code == 2 and out == ""
    assert err == "frobpi: family number must be 1..6\n"


def test_field_outside_suite_is_usage_error(capsys):
    # fp:11 is checked by no suite; naming one must not pass with nothing checked
    code, out, err = run(capsys, ["verify", "--suite", "ranks", "--field", "fp:11", "--no-cache"])
    assert code == 2 and out == ""
    assert "ranks" in err and "fp:5" in err
    code, out, err = run(capsys, ["verify", "--field", "fp:11", "--no-cache"])
    assert code == 2 and out == ""


def test_deformations_rejects_other_field(capsys):
    argv = ["verify", "--suite", "deformations", "--field", "fp:5", "--max-degree", "1"]
    code, out, err = run(capsys, argv + ["--no-cache"])
    assert code == 2 and out == ""
    assert "deformations" in err and "qu" in err


@pytest.mark.parametrize("flag", [["--pair", "t4"], ["--algebra", "t4.json"]])
def test_verify_has_no_pair_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "classification", "--no-cache"] + flag)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "sigma", "--field", "q", "--max-degree", "-1"],
        ["dims", "--max-degree", "-1"],
        ["deform", "--family", "4", "--max-degree", "-3"],
        ["dims", "--max-degree", "two"],
    ],
)
def test_bad_max_degree_is_usage_error(capsys, argv):
    # a negative cap would check nothing and pass
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-cache"])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "--max-degree" in cap.err


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "--max-degree", "4"],
        ["catalog", "--cache-dir", "somewhere"],
        ["catalog", "--no-cache"],
        ["invariants", "--cache-dir", "somewhere"],
        ["invariants", "--no-cache"],
    ],
)
def test_unread_flag_is_usage_error(capsys, argv):
    # a subcommand takes only the flags it reads, so none is silently ignored
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flag", [["--max-degree", "3"], ["--max-degree", "999999"], ["--cache-dir", "cache"]]
)
def test_verify_flag_no_suite_reads_is_usage_error(capsys, tmp_path, flag):
    # classification reads no degree cap and builds nothing, so either flag
    # would change nothing; --no-cache stays accepted
    argv = ["verify", "--suite", "classification"]
    if flag[0] == "--cache-dir":
        flag = [flag[0], str(tmp_path / "cache")]
    code, out, err = run(capsys, argv + flag)
    assert code == 2 and out == ""
    assert flag[0] in err and "classification" in err
    assert not (tmp_path / "cache").exists()
    assert run(capsys, argv + ["--no-cache"])[0] == 1


@pytest.mark.parametrize("flag", [["--field", "fp:5"], ["--pair", "bikwad"]])
def test_algebra_file_excludes_field_and_pair(capsys, tmp_path, flag):
    # the file names its own field and algebra; a second choice would be ignored
    path = tmp_path / "t4.json"
    path.write_text(algebra_to_json(catalog("t4")))
    code, out, err = run(capsys, ["dims", "--algebra", str(path), "--no-cache"] + flag)
    assert code == 2 and out == ""
    assert flag[0] in err


def _index_out_of_range(doc):
    doc["constants"][-1] = [[9, "1"]]  # b_3 b_3 = b_9 in a 4-dimensional algebra
    return doc


def _short_lambda(doc):
    doc["lambda"] = doc["lambda"][:3]
    return doc


def _zero_residue_denominator(doc):
    doc["field"] = "fp:5"
    doc["lambda"][0] = "1/5"
    return doc


def _zero_qu_denominator(doc):
    doc["field"] = "qu"
    doc["lambda"][0] = "1/(u-u)"
    return doc


def _huge_qu_exponent(doc):
    # the power loop would run for hours: rejected before it starts
    doc["field"] = "qu"
    doc["lambda"][0] = "u^1000000"
    return doc


def _deep_qu_lambda(doc):
    # the scalar parser recurses once per parenthesis
    doc["field"] = "qu"
    doc["lambda"][0] = "(" * 3000 + "u" + ")" * 3000
    return doc


def _deeply_nested_text(doc):
    # json.loads recurses once per bracket; json.dumps cannot build this, so it is text
    return "[" * 100_000


def _not_an_object(doc):
    return [1, 2]


def _bool_index(doc):
    doc["constants"][1] = [[True, "1"]]  # b_0 b_1 = b_1, with the index spelled true
    return doc


def _repeated_index(doc):
    doc["constants"][1] = [[1, "5"], [1, "1"]]  # b_0 b_1 given twice
    return doc


def _basis_is_a_number(doc):
    doc["basis"] = 4
    return doc


def _constants_is_a_number(doc):
    doc["constants"] = 10
    return doc


def _scalar_is_a_number(doc):
    doc["constants"][0] = [[0, 1]]
    return doc


@pytest.mark.parametrize(
    "spoil",
    [
        _index_out_of_range,
        _short_lambda,
        _zero_residue_denominator,
        _zero_qu_denominator,
        _huge_qu_exponent,
        _deep_qu_lambda,
        _deeply_nested_text,
        _not_an_object,
        _basis_is_a_number,
        _constants_is_a_number,
        _scalar_is_a_number,
        _bool_index,
        _repeated_index,
    ],
)
def test_bad_algebra_file_is_usage_error(capsys, tmp_path, spoil):
    # bad input, not a failed check: each used to end in a traceback and exit 1
    doc = spoil(json.loads(algebra_to_json(catalog("t4"))))
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = ["dims", "--algebra", str(path), "--max-degree", "2", "--no-cache"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "bad algebra file" in err


def _child(argv, preexec_fn=None):
    """(exit code, stdout, stderr) of frobpi in a child python, which fails the test if it runs 20 s."""
    proc = subprocess.run(
        [sys.executable, "-m", "frobpi", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=20,
        preexec_fn=preexec_fn,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "field,scalar,cache",
    [
        ("q", "1e100000000", False),  # Fraction would compute 10**100000000 first
        ("q", "1e5000", True),  # the cache key could not print the value
        ("qu", "((u+1)^1000)^1000", False),  # each exponent is in bounds, the u-degree is not
        ("qu", "(10^1000)^5", True),  # a 5,001-digit coefficient, which the cache key could not print
    ],
)
def test_scalar_past_the_bounds_is_usage_error(tmp_path, field, scalar, cache):
    # run in a child: each used to run for hours or exit 3
    doc = json.loads(algebra_to_json(catalog("t4")))
    doc["field"] = field
    doc["lambda"][0] = scalar
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    flag = ["--cache-dir", str(tmp_path / "cache")] if cache else ["--no-cache"]
    code, out, err = _child(["dims", "--algebra", str(path), "--max-degree", "2", *flag])
    assert (code, out) == (2, ""), err
    assert "bad algebra file" in err


def test_quiver_stops_at_the_first_coefficient_past_the_digit_limit():
    # every coefficient up to the cap used to be computed before the digit
    # check, and at this cap they fill the machine's memory; the child is held
    # to 512 MiB of address space, so that fails the test instead
    def hold_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    argv = ["quiver", "--arrows", "5", "--max-degree", "1000000"]
    code, out, err = _child(argv, preexec_fn=hold_memory)
    assert (code, out) == (2, ""), err
    assert "a series coefficient has more than" in err


@pytest.mark.parametrize(
    "edit,err",
    [
        ({"lambda": ["1", "0", "0", "0"]}, "functional has singular Gram matrix"),
        ({"basis": ["1", "a", "t2", "t3"]}, "basis names collide with letters: ['a']"),
    ],
)
def test_unusable_algebra_is_usage_error(capsys, tmp_path, edit, err):
    # the file parses, but its functional or its names cannot be used
    path = tmp_path / "t4.json"
    path.write_text(json.dumps({**json.loads(algebra_to_json(catalog("t4"))), **edit}))
    argv = ["dims", "--algebra", str(path), "--max-degree", "2", "--no-cache"]
    assert run(capsys, argv) == (2, "", f"frobpi: {err}\n")


@pytest.mark.parametrize("cache_dir", [True, False])
def test_quiver_cache_flags_need_four_arrows(capsys, tmp_path, cache_dir):
    # only --arrows 4 builds an algebra, so elsewhere the cache flags would be ignored
    argv = ["quiver", "--arrows", "3", "--max-degree", "2"]
    flag = ["--cache-dir", str(tmp_path / "cache")] if cache_dir else ["--no-cache"]
    code, out, err = run(capsys, argv + flag)
    assert code == 2 and out == ""
    assert flag[0] in err
    assert not (tmp_path / "cache").exists()
    assert run(capsys, argv)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--pair", "t4", "--max-degree", "3"],
        ["verify", "--suite", "ranks", "--field", "q", "--max-degree", "3"],
        ["deform", "--family", "4", "--max-degree", "2"],
        ["quiver", "--arrows", "4", "--max-degree", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_cache_with_cache_dir_is_usage_error(capsys, tmp_path, argv):
    # either flag alone is read; given both, one of them would be ignored
    cache = tmp_path / "cache"
    code, out, err = run(capsys, argv + ["--no-cache", "--cache-dir", str(cache)])
    assert (code, out) == (2, "")
    assert err == "frobpi: --no-cache and --cache-dir exclude each other\n"
    assert not cache.exists()


def test_quiver_coefficient_past_the_digit_limit_is_usage_error(capsys):
    # a coefficient Python will not print is an input-caused failure: exit 2, not 3
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, ["quiver", "--arrows", "5", "--max-degree", "3200"])
        assert (code, out) == (2, "")
        assert err == "frobpi: --max-degree 3200: a series coefficient has more than 640 digits\n"
        assert run(capsys, ["quiver", "--arrows", "5", "--max-degree", "1000"])[0] == 0
    finally:
        sys.set_int_max_str_digits(old)


def test_internal_error_exit_code(capsys, monkeypatch):
    # a broken invariant is not a failed check: exit 3, not 1
    def broken(g, d):
        raise InvariantError("planted")

    ranks = dataclasses.replace(cli.SUITES["ranks"], per_build=cli._per_degree("ranks", broken))
    monkeypatch.setitem(cli.SUITES, "ranks", ranks)
    argv = ["verify", "--suite", "ranks", "--field", "q", "--max-degree", "1", "--no-cache"]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err == "frobpi: internal error: planted\n"


def test_engine_value_error_exit_code(capsys, monkeypatch):
    # a ValueError that no input caused is a bug, not an invalid invocation
    def broken(g, d):
        raise ValueError("planted")

    ranks = dataclasses.replace(cli.SUITES["ranks"], per_build=cli._per_degree("ranks", broken))
    monkeypatch.setitem(cli.SUITES, "ranks", ranks)
    argv = ["verify", "--suite", "ranks", "--field", "q", "--max-degree", "1", "--no-cache"]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err == "frobpi: internal error: planted\n"


def test_degree_range_error_exit_code(capsys, monkeypatch):
    # every build degree comes from the suite plan, so a degree outside the
    # build is the program's fault, not an invalid invocation: exit 3, not 2
    def past_build(g, d):
        return {"dim": g.dim(g.D + 1), "pass": True}

    ranks = dataclasses.replace(cli.SUITES["ranks"], per_build=cli._per_degree("ranks", past_build))
    monkeypatch.setitem(cli.SUITES, "ranks", ranks)
    argv = ["verify", "--suite", "ranks", "--field", "q", "--max-degree", "1", "--no-cache"]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err == "frobpi: internal error: degree 2 outside 0..1\n"


def _truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _read_cache(path):
    """A format-3 cache file: its header line and its body, both parsed."""
    head, body = path.read_text().split("\n", 1)
    return json.loads(head), json.loads(body)


def _write_cache(path, header, body, rehash=False):
    text = json.dumps(body)
    if rehash:
        header = {**header, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    path.write_text(json.dumps(header) + "\n" + text)


def _first_e_row(body):
    # body is [parents, E, FB]; E[1] holds the degree-2 rows, flat [k0, v0, k1, v1, ...]
    return next(r for r in body[1][1] if r)


def _edit_key(path):
    header, body = _read_cache(path)
    header["key"] = "0" * 64
    _write_cache(path, header, body)


def _bad_scalar(path):
    header, body = _read_cache(path)
    _first_e_row(body)[1] = "oops"
    _write_cache(path, header, body)


def _edit_operator(path):
    # well-formed, so only the payload hash can tell
    header, body = _read_cache(path)
    row = _first_e_row(body)
    assert row[1] != 7
    row[1] = 7
    _write_cache(path, header, body)


def _true_payload(path):
    # the hash matches, so the payload itself must be refused, not read as 1
    header, body = _read_cache(path)
    _first_e_row(body)[1] = True
    _write_cache(path, header, body, rehash=True)


def _float_payload(path):
    header, body = _read_cache(path)
    _first_e_row(body)[1] = 1.5
    _write_cache(path, header, body, rehash=True)


def _column_out_of_range(path):
    header, body = _read_cache(path)
    _first_e_row(body)[0] = 999
    _write_cache(path, header, body, rehash=True)


def _zero_payload(path):
    # a stored zero would leave a row unreduced
    header, body = _read_cache(path)
    _first_e_row(body)[1] = 0
    _write_cache(path, header, body, rehash=True)


def _not_an_object(path):
    path.write_text("[]")


def _deep_header(path):
    # written as text: json.dumps cannot build 100,000 nested lists
    path.write_text("[" * 100_000 + "\n" + path.read_text().split("\n", 1)[1])


def _deep_body(path):
    header, _ = _read_cache(path)
    body = "[" * 100_000
    header["sha256"] = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(json.dumps(header) + "\n" + body)


def _directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize(
    "spoil",
    [
        _truncate,
        _edit_key,
        _bad_scalar,
        _directory,
        _edit_operator,
        _not_an_object,
        _true_payload,
        _float_payload,
        _zero_payload,
        _column_out_of_range,
        _deep_header,
        _deep_body,
    ],
)
def test_unreadable_cache_file(capsys, tmp_path, spoil):
    # a cache file that does not load is neither bad input nor a failed check
    argv = ["dims", "--pair", "t4", "--max-degree", "3", "--cache-dir", str(tmp_path)]
    assert run(capsys, argv)[0] == 0
    (path,) = tmp_path.iterdir()
    spoil(path)
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith(f"frobpi: cannot load cache file {path}: ")


def test_uncreatable_cache_dir(capsys, tmp_path):
    (tmp_path / "afile").write_text("")
    sub = tmp_path / "afile" / "sub"
    argv = ["dims", "--pair", "t4", "--max-degree", "2", "--cache-dir", str(sub)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"frobpi: cannot create cache directory {sub}: ")


def _no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDisk(io.FileIO):
    write = _no_space


@pytest.mark.parametrize("fail_at", ["write", "link"])
def test_unwritable_cache_file(capsys, tmp_path, monkeypatch, fail_at):
    # a full disk is an invalid invocation, as an uncreatable directory is, and
    # leaves no temporary file behind
    if fail_at == "link":
        monkeypatch.setattr("os.link", _no_space)
    else:
        monkeypatch.setattr("frobpi.cache.open", _FullDisk, raising=False)
    argv = ["dims", "--pair", "t4", "--max-degree", "2", "--cache-dir", str(tmp_path)]
    code, out, err = run(capsys, argv)
    monkeypatch.undo()
    assert code == 2 and out == ""
    assert err.startswith(f"frobpi: cannot write cache file {tmp_path}")
    assert os.strerror(errno.ENOSPC) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_unwritable_output_is_usage_error(unbuffered):
    # a full disk under stdout is an invalid invocation, as it is under the
    # cache: one line on stderr and exit 2, whether the write or the flush
    # fails, and the flush at interpreter exit does not change the code
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "frobpi", "catalog"], stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=20
        )
    assert proc.returncode == 2
    assert proc.stderr == f"frobpi: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_broken_pipe_is_usage_error(capsys, monkeypatch):
    pipe = _ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    code = main(["catalog"])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == f"frobpi: cannot write output: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
    assert pipe.closed


# a centre entry: quiver --arrows 4 checks the centres of split4 in degrees
# 0..6 on a build of degree 7, so the run stores them all
_CENTRE_ARGV = ["quiver", "--max-degree", "6"]


def _centre_row(body):
    # body is a list of [degree, pivots, rows]; the degree-4 centre of split4 has two rows
    return body[4][1], body[4][2][0]


def _centre_flip_byte(path):
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 10] ^= 1
    path.write_bytes(bytes(data))


def _centre_pivot_not_least(path):
    header, body = _read_cache(path)
    pivots, row = _centre_row(body)
    pivots[0] = max(row[0::2])
    _write_cache(path, header, body, rehash=True)


def _centre_lead_not_one(path):
    header, body = _read_cache(path)
    pivots, row = _centre_row(body)
    row[row.index(pivots[0]) + 1] = 2
    _write_cache(path, header, body, rehash=True)


def _centre_holds_other_pivot(path):
    header, body = _read_cache(path)
    pivots, row = _centre_row(body)
    assert pivots[1] not in row[0::2]
    row += [pivots[1], 1]
    _write_cache(path, header, body, rehash=True)


def _centre_index_past_dim(path):
    header, body = _read_cache(path)
    _, row = _centre_row(body)
    row[-2] = build(catalog("split4"), 7).dim(4)
    _write_cache(path, header, body, rehash=True)


def _centre_missing_degree(path):
    header, body = _read_cache(path)
    _write_cache(path, header, body[:-1], rehash=True)


def _centre_repeated_degree(path):
    header, body = _read_cache(path)
    body[5] = body[4]
    _write_cache(path, header, body, rehash=True)


def _centre_header(**edit):
    def spoil(path):
        header, body = _read_cache(path)
        _write_cache(path, {**header, **edit}, body)

    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        _centre_flip_byte,
        _centre_pivot_not_least,
        _centre_lead_not_one,
        _centre_holds_other_pivot,
        _centre_index_past_dim,
        _centre_missing_degree,
        _centre_repeated_degree,
        _centre_header(key="0" * 64),
        _centre_header(field="fp:5"),
        _centre_header(degree=8),
    ],
    ids=[
        "flipped-byte",
        "pivot-not-least",
        "lead-not-one",
        "holds-other-pivot",
        "index-past-dim",
        "missing-degree",
        "repeated-degree",
        "other-key",
        "other-field",
        "other-degree",
    ],
)
def test_unreadable_centre_entry(capsys, tmp_path, spoil):
    # a centre entry is validated as a build entry is, and its rows must be
    # the canonical reduced form of every degree 0..D-1
    argv = _CENTRE_ARGV + ["--cache-dir", str(tmp_path)]
    assert run(capsys, argv)[0] == 0
    path = tmp_path / f"{cache_key(catalog('split4'), 7)}.center.json"
    spoil(path)
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith(f"frobpi: cannot load cache file {path}: ")


def _computed_centres(monkeypatch):
    """(id of the build, degree) for each centre computed from here on, and not read from a memo."""
    seen = []
    compute = center._center_degree

    def noted(g, d):
        seen.append((id(g), d))
        return compute(g, d)

    monkeypatch.setattr(center, "_center_degree", noted)
    return seen


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "center,sigma,invariants", "--field", "q", "--max-degree", "8"],
        ["verify", "--suite", "deformations", "--max-degree", "3"],
        ["quiver", "--arrows", "4"],
    ],
    ids=["center-sigma-invariants", "deformations", "quiver"],
)
def test_warm_run_reads_its_centres(capsys, tmp_path, monkeypatch, argv):
    # stdout is the same without a cache, cold and warm; the cold run stores
    # every build's centres, and the warm run computes none of them
    _, none, _ = run(capsys, argv + ["--no-cache"])
    cached = argv + ["--cache-dir", str(tmp_path)]
    _, cold, _ = run(capsys, cached)
    centres = sorted(tmp_path.glob("*.center.json"))
    assert centres and len(centres) == len(list(tmp_path.glob("*.json"))) // 2
    computed = _computed_centres(monkeypatch)
    _, warm, _ = run(capsys, cached)
    assert cold == warm == none
    assert computed == []


def test_warm_run_derives_no_operator(capsys, tmp_path, monkeypatch):
    # a loaded build derives B slots and F only when they are read; a warm
    # run whose centres the cache holds makes its ranks, split and
    # resolution records from the saved parents, E and FB, and reads neither
    derived = record_derivations(monkeypatch)
    argv = ["verify", "--suite", "ranks,split,resolution,center", "--field", "q", "--max-degree", "6"]
    argv += ["--format", "json", "--cache-dir", str(tmp_path)]
    code, cold, _ = run(capsys, argv)
    assert code == 0 and derived
    derived.clear()
    code, warm, _ = run(capsys, argv)
    assert (code, warm) == (0, cold) and derived == []
    suites = collections.Counter(r["suite"] for r in json.loads(warm))
    assert all(suites[s] for s in ("ranks", "split", "resolution", "center")), suites


def test_center_suite_derives_only_generating_slots(capsys, monkeypatch):
    # the centre cuts by the slots of generating_slots() alone, so past
    # degree 1 no other slot's right rows are derived; degree 1 is read
    # through every slot by the degree-0 rows of left multiplication by f
    derived = record_derivations(monkeypatch)
    code, _, _ = run(capsys, ["verify", "--suite", "center", "--no-cache", "--max-degree", "8"])
    assert code in (0, 1)  # 1: over F_2 some centres exceed the formula
    slots = collections.defaultdict(set)
    for kind, d, j, algebra in derived:
        if kind == "B" and d > 1:
            slots[algebra].add(j)
    assert len(slots) == len(CATALOG_NAMES) * len(cli.CENTER_FIELDS), len(slots)
    for algebra, got in slots.items():
        assert got == set(algebra.generating_slots()), algebra.names


def test_centre_entry_with_row_keys_in_another_order_loads(tmp_path, monkeypatch):
    # a row's canonical form is its set of (index, payload) pairs, and the
    # order of the keys inside it follows the cuts that computed it; so an
    # entry written by other cuts, as cutting family 1 by every slot but one
    # writes, loads to the same centres and computes none
    fam = deformation(1)
    pair = make_frobenius(fam.algebra, list(fam.lam))
    fresh = build(pair, 6)
    want = [center.center_degree(fresh, d) for d in range(6)]
    center.center_dims(build(pair, 6, str(tmp_path)), 5)
    path = tmp_path / f"{cache_key(pair, 6)}.center.json"
    header, body = _read_cache(path)
    reordered = [
        [d, pivots, [[x for i in reversed(range(0, len(r), 2)) for x in r[i : i + 2]] for r in rows]]
        for d, pivots, rows in body
    ]
    assert reordered != body
    _write_cache(path, header, reordered, rehash=True)
    computed = _computed_centres(monkeypatch)
    g = build(pair, 6, str(tmp_path))
    assert [g.centers[d] for d in range(6)] == want
    assert center.center_dims(g, 5) == [z.dim for z in want] and computed == []


def test_complete_centre_entry_is_never_rewritten(capsys, tmp_path):
    argv = _CENTRE_ARGV + ["--cache-dir", str(tmp_path)]
    run(capsys, argv)
    before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()}
    assert len(before) == 2
    run(capsys, argv)
    assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()} == before


def test_sigma_then_center_on_one_build(capsys, tmp_path, monkeypatch):
    # sigma computes only Z_4 of its degree-7 build and stores no centres; a
    # centre run at cap 6 loads the same build, computes every degree once,
    # and stores them
    flags = ["--field", "q", "--cache-dir", str(tmp_path)]
    assert run(capsys, ["verify", "--suite", "sigma", "--max-degree", "7"] + flags)[0] == 0
    assert not list(tmp_path.glob("*.center.json"))
    centre = ["verify", "--suite", "center", "--field", "q", "--max-degree", "6"]
    _, none, _ = run(capsys, centre + ["--no-cache"])
    computed = _computed_centres(monkeypatch)
    keep = []  # the builds stay alive, so no id is reused
    start = engine.GradedAlgebra._start
    monkeypatch.setattr(engine.GradedAlgebra, "_start", lambda g, *a: keep.append(g) or start(g, *a))
    code, out, _ = run(capsys, centre + flags[2:])
    assert (code, out) == (0, none)
    assert len(computed) == len(set(computed)) == len(CATALOG_NAMES) * 7
    want = {f"{cache_key(catalog(name), 7)}.center.json" for name in CATALOG_NAMES}
    assert {p.name for p in tmp_path.glob("*.center.json")} == want


def test_verify_computes_each_centre_once(capsys, monkeypatch):
    # every suite that asks a build for a centre it has computed reads the memo
    computed = _computed_centres(monkeypatch)
    keep = []  # the builds stay alive, so no id is reused
    start = engine.GradedAlgebra._start
    monkeypatch.setattr(engine.GradedAlgebra, "_start", lambda g, *a: keep.append(g) or start(g, *a))
    assert run(capsys, ["verify", "--no-cache"])[0] == 1
    assert computed and len(computed) == len(set(computed))


def test_per_degree_record_keys(capsys):
    argv = ["verify", "--suite", "ranks,split,center,resolution", "--field", "q"]
    code, out, _ = run(capsys, argv + ["--max-degree", "2", "--no-cache"])
    assert code == 0
    head = ["suite", "pair", "field", "degree"]
    keys = {
        "ranks": head + ["dim", "expected", "pass"],
        "split": head + ["dim_r", "dim_s", "expected_r", "expected_s", "pass"],
        "center": head + ["dim_center", "expected", "pass"],
        "resolution": head + ["alternating_r", "alternating_s", "pass"],
    }
    records = json.loads(out)
    # six pairs, three degrees each
    assert [r["suite"] for r in records] == [suite for suite in keys for _ in range(6 * 3)]
    for r in records:
        assert list(r) == keys[r["suite"]]


@pytest.mark.parametrize("suite, count", [("ranks", 30), ("split", 30), ("resolution", 6)])
def test_verify_at_degree_cap_0(capsys, suite, count):
    # cap 0 still needs a build of degree 1, the least the engine makes
    code, out, err = run(capsys, ["verify", "--suite", suite, "--max-degree", "0", "--no-cache"])
    assert (code, err) == (0, "")
    records = json.loads(out)
    assert len(records) == count
    assert all(r["suite"] == suite and r["degree"] == 0 and r["pass"] for r in records)


def _cache_degrees(cache_dir):
    """Build degree of each cache file, read from its header line: (build entries, centre entries)."""
    degrees = {p.name: json.loads(p.read_text().split("\n", 1)[0])["degree"] for p in cache_dir.iterdir()}
    centres = {name: D for name, D in degrees.items() if name.endswith(".center.json")}
    return {name: D for name, D in degrees.items() if name not in centres}, centres


@pytest.mark.parametrize("cap", [0, 3, 16])
def test_sigma_build_plan_stops_at_degree_7(capsys, tmp_path, cap):
    # degree 7 settles every cap past 6, and a cap below 7 needs no more than
    # itself, degree 0 included; sigma computes at most Z_4, so no build's
    # centres are complete
    argv = ["verify", "--suite", "sigma", "--max-degree", str(cap), "--cache-dir", str(tmp_path)]
    run(capsys, argv)
    D = min(cap, 7)
    want = {
        f"{cache_key(catalog(name, field_from_descriptor(t)), D)}.json": D
        for name in CATALOG_NAMES
        for t in cli.CENTER_FIELDS
    }
    assert _cache_degrees(tmp_path) == (want, {})


def test_degree_zero_cap_builds_degree_zero(capsys, tmp_path):
    # Pi_0 is a whole build, so cap 0 builds and caches degree 0 and no more
    argv = ["verify", "--suite", "ranks", "--max-degree", "0"]
    code, out, _ = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert (code, out) == run(capsys, argv + ["--no-cache"])[:2]
    want = {
        f"{cache_key(catalog(name, field_from_descriptor(t)), 0)}.json": 0
        for name in CATALOG_NAMES
        for t in cli.RANK_FIELDS
    }
    assert _cache_degrees(tmp_path) == (want, {})


def test_build_degree_planned_per_pair(capsys, tmp_path):
    # invariants reads only split4, so only split4 is built one degree past the
    # cap, and its centres, the only ones computed, fill every degree it allows
    argv = ["verify", "--suite", "ranks,invariants", "--field", "q", "--max-degree", "10"]
    code, out, _ = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert (code, out) == run(capsys, argv + ["--no-cache"])[:2]
    builds, centres = _cache_degrees(tmp_path)
    want = {}
    for name in CATALOG_NAMES:
        D = 11 if name == "split4" else 10
        want[f"{cache_key(catalog(name), D)}.json"] = D
    assert builds == want
    assert centres == {f"{cache_key(catalog('split4'), 11)}.center.json": 11}


def test_sigma_suite_passes(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--suite", "sigma", "--field", "q", "--max-degree", "8", "--no-cache"],
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 6
    assert all(r["pass"] for r in records)


def test_classification_suite_reports_bad_reject(capsys):
    # the char-2 pencil quotient is Frobenius despite its catalog listing,
    # so the classification suite honestly exits 1
    code, out, _ = run(capsys, ["verify", "--suite", "classification", "--no-cache"])
    assert code == 1
    records = json.loads(out)
    bad = [r for r in records if not r["pass"]]
    assert [r["algebra"] for r in bad] == ["reject-char2-pencil"]


def test_verify_output_deterministic(capsys):
    argv = ["verify", "--suite", "invariants", "--max-degree", "8", "--no-cache"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "verify --suite ranks,split,resolution,center --field q --max-degree 12 --no-cache",
            "41333982de25736aced1cff2636640e7aed4a12e846f60896f46c842cd937b1a",
        ),
        (
            "verify --suite deformations --max-degree 3 --no-cache",
            "ae98a042832bb77b589c8563afb99ea6298441377c87eab5869a6d581892b0b0",
        ),
        (
            "verify --suite sigma --no-cache",
            "5e629808b7195877ab6c2971243fc0e1d245b047adb696be77ed1f43838d9dc8",
        ),
    ],
    ids=["q-ranks-split-resolution-center", "deformations", "sigma"],
)
def test_verify_stdout_golden(capsys, argv, digest):
    # stdout bytes pinned by sha256: a rewrite of the internals must not move
    # them, and a digest changes only with a deliberate change of output
    code, out, _ = run(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_all_suites_stdout_golden(capsys):
    # pins the order of all eight suites' records: suite, then pair, field, degree
    code, out, _ = run(capsys, ["verify", "--max-degree", "6", "--no-cache"])
    assert code == 1
    digest = "9329138a2860df4f7388a7f5183d8a8cb92eb00c1feb6baf93b243e240c96fb7"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cold-warm"])
def test_verify_drops_each_build_before_the_next(capsys, tmp_path, monkeypatch, cache):
    refs = []
    alive = []  # per build made, how many earlier builds are still alive
    start = engine.GradedAlgebra._start

    def noted_start(g, pair, D):
        gc.collect()
        alive.append(sum(r() is not None for r in refs))
        refs.append(weakref.ref(g))
        start(g, pair, D)

    monkeypatch.setattr(engine.GradedAlgebra, "_start", noted_start)
    argv = ["verify", "--suite", "ranks,split,resolution,center,sigma,invariants", "--max-degree", "4"]
    flags = [["--cache-dir", str(tmp_path)]] * 2 if cache else [["--no-cache"]]
    for flag in flags:
        refs.clear()
        alive.clear()
        assert run(capsys, argv + flag)[0] == 1
        assert len(refs) == len(CATALOG_NAMES) * len(cli.RANK_FIELDS)
        assert alive == [0] * len(refs)


def test_verify_builds_each_pair_and_field_once(capsys, monkeypatch):
    named = {}  # id of each pair cli.catalog made -> (pair, name); the pair stays alive
    built = collections.Counter()
    catalog_fn, build_fn = cli.catalog, cli.build

    def noted_catalog(name, *args):
        pair = catalog_fn(name, *args)
        named[id(pair)] = pair, name
        return pair

    def counted_build(pair, D, cache_dir=None):
        if id(pair) in named:
            built[named[id(pair)][1], pair.field.tag] += 1
        return build_fn(pair, D, cache_dir=cache_dir)

    monkeypatch.setattr(cli, "catalog", noted_catalog)
    monkeypatch.setattr(cli, "build", counted_build)
    assert run(capsys, ["verify", "--max-degree", "4", "--no-cache"])[0] == 1
    assert built == {(name, t): 1 for name in CATALOG_NAMES for t in cli.RANK_FIELDS}


def test_cache_round_trip_same_output(capsys, tmp_path):
    base = ["dims", "--pair", "bikwad", "--max-degree", "8"]
    _, cold, _ = run(capsys, base + ["--cache-dir", str(tmp_path)])
    assert list(tmp_path.iterdir())
    _, warm, _ = run(capsys, base + ["--cache-dir", str(tmp_path)])
    _, none, _ = run(capsys, base + ["--no-cache"])
    assert cold == warm == none


def test_cache_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FROBPI_CACHE", str(tmp_path / "envcache"))
    run(capsys, ["dims", "--pair", "split4", "--max-degree", "4"])
    assert (tmp_path / "envcache").is_dir()


def test_cache_dir_flag_beats_env(capsys, tmp_path, monkeypatch):
    # the flag the command line was given is the one that counts
    monkeypatch.setenv("FROBPI_CACHE", str(tmp_path / "envcache"))
    argv = ["dims", "--pair", "t4", "--max-degree", "2"]
    assert run(capsys, argv + ["--cache-dir", str(tmp_path / "flagcache")])[0] == 0
    assert list((tmp_path / "flagcache").iterdir())
    assert not (tmp_path / "envcache").exists()
    assert run(capsys, argv + ["--no-cache"])[0] == 0
    assert not (tmp_path / "envcache").exists()


def test_formats(capsys):
    argv = ["verify", "--suite", "sigma", "--field", "q", "--max-degree", "6", "--no-cache"]
    _, out, _ = run(capsys, argv + ["--format", "json"])
    assert isinstance(json.loads(out), list)
    _, out, _ = run(capsys, argv + ["--format", "csv"])
    header = out.splitlines()[0].split(",")
    assert "pair" in header and "pass" in header
    _, out, _ = run(capsys, argv + ["--format", "md"])
    assert set(out.splitlines()[1]) <= {"|", "-", " "}


def test_quiver_totals(capsys):
    code, out, _ = run(capsys, ["quiver", "--max-degree", "4", "--format", "csv"])
    assert code == 0
    rows = out.splitlines()
    idx = rows[0].split(",").index("quiver_total")
    totals = [int(r.split(",")[idx]) for r in rows[1:]]
    assert totals == [5, 8, 15, 16, 25]


def test_invariants_command(capsys):
    code, out, _ = run(capsys, ["invariants", "--max-degree", "12", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["dim"] for r in rows][::4] == [1, 2, 3, 4]


def test_deform_family(capsys):
    code, out, _ = run(
        capsys, ["deform", "--family", "3", "--max-degree", "6", "--format", "json", "--no-cache"]
    )
    assert code == 0
    records = json.loads(out)
    assert all(r["pass"] for r in records)


def test_deform_needs_family(capsys):
    code, _, err = run(capsys, ["deform", "--max-degree", "4"])
    assert code == 2


@pytest.mark.parametrize(
    "family, digest",
    [
        ("1", "b94b6b2b580a26773c38d8346ee62e00f578bd3eeab12e969aaae46b186a39f1"),
        ("2", "ba70835c0c6dd2afa2c61343b56f903b6731f30ccac0e27c55539b1d164165e7"),
        ("3", "ca4d4632db2d45a70c1271cdd34f027348f3473e158b4df450898e14fe124326"),
        ("4", "f3e83ee02d34c92b414fbe6ffc2dbbadc149c0f5006cbb53f20ced36602fd15f"),
        ("5", "bdf996663c295fd4ae25c82872a0d8c0c82066597c64a0d5c4205db62ecf31ee"),
        ("6", "9d6c38e10b5bcfb0708a3b98189f790d12476b328b6d45062d0271edb63608c3"),
        ("6 --char2", "f0dcf256aa8c50a0923cb78f62b2aa5285536a419ae12ce37e0a663d9d014ab7"),
    ],
    ids=["1", "2", "3", "4", "5", "6", "6c"],
)
def test_deform_stdout_golden(capsys, family, digest):
    code, out, _ = run(capsys, ["deform", "--family", *family.split(), "--max-degree", "8", "--no-cache"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_deform_table_names_its_family(capsys):
    # family 6 and its char-2 variant share both fibres and every dimension;
    # only the family column tells their tables apart
    argv = ["deform", "--family", "6", "--max-degree", "4", "--no-cache"]
    tables = [run(capsys, argv + extra) for extra in ([], ["--char2"], ["--format", "json"], ["--char2", "--format", "json"])]
    assert all(code == 0 for code, _, _ in tables)
    assert tables[0][1] != tables[1][1]
    plain, char2 = (json.loads(out) for _, out, _ in tables[2:])
    assert {r["family"] for r in plain} == {"6"} and {r["family"] for r in char2} == {"6c"}
    assert [{**r, "family": None} for r in plain] == [{**r, "family": None} for r in char2]


def test_deformations_run_makes_each_family_once(capsys, monkeypatch):
    # each family is constructed once, wherever it is asked for, and
    # specialised at u = 0 once: the special-fibre check reads the fibre
    # that is built
    calls, at_zero = [], collections.Counter()
    make, specializer = frobenius.deformation, frobenius._specializer

    def counted(n, char2=False):
        calls.append((n, char2))
        return make(n, char2)

    def spy(src, target, at):
        if src.tag == "qu" and not at:
            at_zero[calls[-1]] += 1
        return specializer(src, target, at)

    monkeypatch.setattr(cli, "deformation", counted)
    monkeypatch.setattr(frobenius, "deformation", counted)
    monkeypatch.setattr(frobenius, "_specializer", spy)
    code, _, _ = run(capsys, ["verify", "--suite", "deformations", "--max-degree", "1", "--no-cache"])
    assert code == 0
    families = [(n, False) for n in range(1, 7)] + [(6, True)]
    assert calls == families
    assert at_zero == {fam: 1 for fam in families}


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, ["catalog"])
    assert code == 0
    assert out.count("true") == 6
    assert out.count("false") == 4


def test_algebra_json_input(capsys, tmp_path):
    doc = algebra_to_json(catalog("t4"))
    path = tmp_path / "t4.json"
    path.write_text(doc)
    code, out, _ = run(
        capsys, ["dims", "--algebra", str(path), "--max-degree", "4", "--no-cache"]
    )
    assert code == 0
    assert any("| 4 " in l and " 25 " in l for l in out.splitlines())


def _rank_n_file(tmp_path, n, kind):
    """k^n (split) or k[t]/t^n (local) over Q, written as an algebra file."""
    blocks = [(0,)] * n if kind == "split" else [(0,) * n]
    path = tmp_path / f"{kind}{n}.json"
    path.write_text(algebra_to_json(_blocks_algebra(QQ, blocks, [f"x{i}" for i in range(n)])))
    return path


@pytest.mark.parametrize("kind", ["split", "local"])
@pytest.mark.parametrize(
    "n, cap, dims", [(2, 6, [3, 4, 3, 0]), (3, 7, [4, 6, 8, 6, 4, 0]), (5, 5, [6, 10, 24, 30, 66, 80])]
)
def test_dims_judges_every_rank(capsys, tmp_path, n, cap, dims, kind):
    # the expected values are the star series of the pair's rank, cut at its first zero
    argv = ["dims", "--algebra", str(_rank_n_file(tmp_path, n, kind)), "--max-degree", str(cap)]
    code, out, _ = run(capsys, argv + ["--format", "json", "--no-cache"])
    rows = json.loads(out)
    assert code == 0 and all(r["pass"] for r in rows)
    assert [r["dim"] for r in rows] == dims + [0] * (cap + 1 - len(dims))
    assert all(r["dim_r"] + r["dim_s"] == r["expected"] for r in rows)


def test_dims_fails_a_planted_wrong_rank(capsys, tmp_path, monkeypatch):
    dim = engine.GradedAlgebra.dim
    monkeypatch.setattr(engine.GradedAlgebra, "dim", lambda g, d: dim(g, d) + (d == 3))
    argv = ["dims", "--algebra", str(_rank_n_file(tmp_path, 5, "split")), "--max-degree", "5"]
    code, out, _ = run(capsys, argv + ["--format", "json", "--no-cache"])
    assert code == 1
    assert [r["degree"] for r in json.loads(out) if not r["pass"]] == [3]


@pytest.mark.parametrize(
    "name,tag", [(name, "q") for name in CATALOG_NAMES] + [("t4", "fp:5")]
)
def test_algebra_json_round_trip(capsys, tmp_path, name, tag):
    # an algebra written by algebra_to_json and read back gives the same table
    path = tmp_path / f"{name}.json"
    path.write_text(algebra_to_json(catalog(name, field_from_descriptor(tag))))
    common = ["--max-degree", "6", "--no-cache"]
    by_pair = run(capsys, ["dims", "--pair", name, "--field", tag] + common)
    by_file = run(capsys, ["dims", "--algebra", str(path)] + common)
    assert by_file == by_pair
    assert by_pair[0] == 0


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH, for a child python."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_cli_import_leaves_out_numpy():
    # numpy serves only the tests and the benchmark; the CLI must not load it
    code = "import sys, frobpi.cli; print(sorted({'numpy', 'frobpi._kernels'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(
    not any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2")),
    reason="this interpreter has no builtin sha256 module",
)
def test_cache_leaves_out_openssl(tmp_path):
    # hashlib loads OpenSSL, megabytes of resident memory; the cache hashes
    # through the builtin sha256 module, on store and on load
    argv = ["dims", "--pair", "t4", "--max-degree", "4", "--cache-dir", str(tmp_path)]
    code = (
        "import contextlib, io, sys, frobpi.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [frobpi.cli.main({argv!r}) for _ in range(2)]\n"
        "print(codes, '_hashlib' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] False\n"
    assert len(list(tmp_path.iterdir())) == 1


def test_console_script():
    # python -m frobpi, from the checkout: the tests need no installed package
    proc = subprocess.run(
        [sys.executable, "-m", "frobpi", "quiver", "--max-degree", "2", "--format", "csv"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "15" in proc.stdout
