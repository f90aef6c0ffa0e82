"""Seeded fuzz of the command line, run in-process through `cli.run`.

Every case must end with an exit code in {0, 1, 2, 3} and no escaping
exception; a nonzero exit writes exactly one stderr line, starting with
``error:``, and a zero exit writes none.  The cases cover the input
grammar (random strings, mutated curves, literals of 5000 digits,
non-ASCII digits), flags, integral-basis files, received words and the
series precision ceiling.  Curves stay small, so the file runs in
seconds.
"""

import contextlib
import io
import random
import time

import pytest

from weiersem import branch
from weiersem.cli import run

from conftest import GOLDEN_BASIS_LINES

ALPHABET = "XYxyt0123456789+-*^[]/ " + "XY^+*[]t1"
CURVES = [("GF(2)", "Y^8+Y^2+X^3"), ("GF(2^2)", "Y^2+Y+X^3"),
          ("GF(3^2)", "Y^3+Y+X^4"), ("GF(2^2)", "X^5+Y^3+[t]"),
          ("GF(5)", "Y^2+X^3")]
GOLDEN = ["--field", "GF(2)", "--curve", "Y^8+Y^2+X^3"]
NINES = "9" * 5000


def _run(argv):
    """(exit code, seconds, stderr lines) of one in-process run, after
    checking the exit code and the stderr contract."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    seconds = time.perf_counter() - start
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), argv
    if code:
        assert len(lines) == 1 and lines[0].startswith("error:"), \
            (argv, lines)
    else:
        assert lines == [], (argv, lines)
    return code, seconds, lines


def _mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randrange(1, 4)):
        pos = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 or not chars:
            chars.insert(pos, rng.choice(ALPHABET))
        elif op == 1:
            del chars[min(pos, len(chars) - 1)]
        else:
            chars[min(pos, len(chars) - 1)] = rng.choice(ALPHABET)
    return "".join(chars)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = {"dir": str(d), "missing": str(d / "missing.txt")}
    for name, data in [
            ("golden", ("\n".join(GOLDEN_BASIS_LINES) + "\n").encode()),
            ("empty", b""),
            ("comments", b"# nothing here\n\n   \n"),
            ("malformed", b"Y+Y^7 / X+Y^3\nY+*X\n"),
            ("zero_den", b"Y / 0\n"),
            ("two_slashes", b"Y / X / Y\n"),
            ("bad_bracket", b"[t+1 / X\n"),
            ("invalid_utf8", b"Y+Y^7 / X+Y^3\n\xff\xfe\n"),
            ("latin1", "Y^2 / X+\xe9\n".encode("latin-1")),
            ("non_ascii_digit", "Y^٣ / X\n".encode()),
            ("long_literal", f"{NINES}*Y / X+Y^3\n".encode())]:
        (d / name).write_bytes(data)
        paths[name] = str(d / name)
    return paths


def test_random_grammar_strings():
    rng = random.Random(20261018)
    for _ in range(400):
        field = rng.choice(["GF(2)", "GF(2^2)", "GF(5)"])
        text = "".join(rng.choice(ALPHABET)
                       for _ in range(rng.randrange(1, 12)))
        _, seconds, _ = _run(["curve", "analyze", "--field", field,
                           "--curve", text])
        assert seconds < 5, text


def test_mutated_curves():
    rng = random.Random(7)
    for _ in range(200):
        field, curve = rng.choice(CURVES)
        _, seconds, _ = _run(["curve", "analyze", "--field", field,
                           "--curve", _mutate(rng, curve)])
        assert seconds < 5


@pytest.mark.parametrize("field, curve", [
    ("GF(2)", f"{NINES}*Y^3+X^2+1"),
    (f"GF({NINES})", "Y^3+X^2+1"),
    (f"GF(2^{NINES})", "Y^3+X^2+1"),
    ("GF(2^2)", f"[t^{NINES}]*Y^3+X^2+1"),
    ("GF(2^2)", f"[{NINES}*t]*Y^3+X^2+1"),
    ("GF(2)", "Y^3+X^2+١"),
    ("GF(٣)", "Y^3+X^2+1"),
    ("GF(2)", "X²+Y^3"),
    ("GF(2)", "Y^3+X^2+１"),
])
def test_former_traceback_literals(field, curve):
    code, seconds, _ = _run(["curve", "analyze", "--field", field,
                          "--curve", curve])
    assert seconds < 1
    assert code in (0, 1)
    if "9" * 10 in field or not curve.isascii() or not field.isascii():
        assert code == 1


@pytest.mark.parametrize("argv", [
    [],
    ["curve"],
    ["curve", "analyze"],
    ["curve", "analyze", "--field", "GF(2)"],
    ["curve", "analyze", "--curve", "Y^3+X^2+1"],
    ["curve", "analyze", "--nope", "x"] + GOLDEN,
    ["curve", "analyze"] + GOLDEN + ["--field", "GF(3)"],
    ["curve", "analyze"] + GOLDEN + GOLDEN,
    ["curve", "analyze", "--field"],
    ["nonsense"],
    ["semigroup", "nu", "--gens", "3,4"],
    ["semigroup", "nu", "--gens", "3,4", "--m", "5", "--m-range", "1:5"],
    ["semigroup", "fengrao", "--gens", "3,4", "--m-range", "9:2"],
    ["semigroup", "fengrao", "--gens", "3,4", "--m-range", "a:b"],
    ["semigroup", "fengrao", "--gens", "3,4", "--m-range", "1:2:3"],
    ["semigroup", "stats", "--gens", ""],
    ["semigroup", "stats", "--gens", "4,6"],
    ["semigroup", "stats", "--gens", "0,3"],
    ["semigroup", "stats", "--gens", "3,x"],
    ["semigroup", "stats", "--gens", NINES],
    ["semigroup", "stats", "--gens", "3,4", "--pivot", "5"],
    ["semigroup", "stats", "--gens", "3,4", "--pivot", "x"],
    ["semigroup", "nu", "--gens", "3,4", "--m", NINES],
    ["semigroup", "fengrao", "--gens", "3,4", "--m", "5", "--format", "xml"],
    ["lbasis"] + GOLDEN + ["--integral-basis", "golden", "--m", "-3"],
    ["lbasis"] + GOLDEN + ["--integral-basis", "golden"],
    ["code", "build"] + GOLDEN + ["--integral-basis", "golden", "--ext", "0",
                                  "--m", "5"],
    ["code", "build"] + GOLDEN + ["--integral-basis", "golden", "--ext", "-1",
                                  "--m", "5"],
    ["code", "bounds"] + GOLDEN + ["--integral-basis", "golden", "--ext", "3",
                                   "--m-range", "5:1"],
    ["code", "bounds"] + GOLDEN + ["--integral-basis", "golden", "--ext", "3",
                                   "--m-range", "0:4", "--m", "3"],
])
def test_flags(argv, files):
    _run([files.get(a, a) for a in argv])


@pytest.mark.parametrize("gens", ["\u0663,\u0664", "1_0,3", " +4, 3", NINES,
                                  "3," + NINES, "1048577,1048578"])
def test_generators_outside_the_grammar(gens):
    """Non-ASCII digits, underscores, signs and generators above 2^20 are
    input errors, answered at once."""
    code, seconds, _ = _run(["semigroup", "stats", "--gens", gens])
    assert code == 1 and seconds < 1


@pytest.mark.parametrize("flags", [
    ["semigroup", "stats", "--gens", "3,5", "--pivot", "2000000000"],
    ["semigroup", "stats", "--gens", "3,5", "--pivot", "20000000"],
    ["semigroup", "stats", "--gens", "3,5", "--pivot", "1048577"],
    ["semigroup", "stats", "--gens", "3,5", "--pivot", NINES],
    ["semigroup", "stats", "--gens", "3,5", "--pivot", "\u0663"],
    ["semigroup", "stats", "--gens", "3,5", "--pivot", "1_0"],
    ["semigroup", "stats", "--gens", "3,5", "--pivot", "-5"],
    ["semigroup", "stats", "--gens", "3,5", "--pivot", " 5"],
    ["code", "bounds"] + GOLDEN + ["--integral-basis", "golden",
                                   "--ext", "10000000000", "--m-range", "0:4"],
    ["code", "build"] + GOLDEN + ["--integral-basis", "golden",
                                  "--ext", "21", "--m", "5"],
    ["code", "build"] + GOLDEN + ["--integral-basis", "golden",
                                  "--ext", NINES, "--m", "5"],
    ["code", "build"] + GOLDEN + ["--integral-basis", "golden",
                                  "--ext", "\u0663", "--m", "5"],
    ["code", "syndrome"] + GOLDEN + ["--integral-basis", "golden",
                                     "--ext", "1_0", "--m", "3", "--y", "0"],
    ["semigroup", "nu", "--gens", "3,4", "--m", "\u0663"],
    ["semigroup", "nu", "--gens", "3,4", "--m", "1_0"],
    ["semigroup", "nu", "--gens", "3,4", "--m", "+4"],
    ["semigroup", "nu", "--gens", "3,4", "--m-range", "1_0:11"],
    ["lbasis"] + GOLDEN + ["--integral-basis", "golden", "--m", "10000000"],
    ["semigroup", "fengrao", "--gens", "3,4", "--m-range", "0:100000000"],
    ["lbasis"] + GOLDEN + ["--integral-basis", "golden", "--m", "-3"],
    ["lbasis"] + GOLDEN + ["--integral-basis", "golden", "--m", "1001"],
    ["code", "bounds"] + GOLDEN + ["--integral-basis", "golden", "--ext", "3",
                                   "--m-range", "0:1001"],
])
def test_integer_flags_outside_the_grammar(flags, files):
    """--pivot, --ext, --m and both ends of --m-range are ASCII digit runs
    under their caps (2^20 for --pivot, 20 for the extension degree,
    cli.M_LIMIT for the m of `lbasis` and `code`), and a `semigroup`
    --m-range holds at most cli.RANGE_LIMIT values; anything else is an
    input error, answered before any work."""
    code, seconds, _ = _run([files.get(a, a) for a in flags])
    assert code == 1 and seconds < 1


@pytest.mark.parametrize("name", ["missing", "dir", "golden", "empty",
                                  "comments", "malformed", "zero_den",
                                  "two_slashes", "bad_bracket",
                                  "invalid_utf8", "latin1",
                                  "non_ascii_digit", "long_literal"])
def test_basis_files(name, files):
    code, _, lines = _run(["weierstrass"] + GOLDEN
                          + ["--integral-basis", files[name]])
    if name in ("missing", "dir", "invalid_utf8", "latin1"):
        assert code == 1
        assert lines[0].startswith("error: cannot read integral basis file: ")


def test_received_words(files):
    rng = random.Random(3)
    words = ["0,1,t^2,0,t,1", "0,1,t^2,0,t", "0,1,t^3,0,t,1", "X,0,0,0,0,0",
             ",,,,,", "[t],[t+1],t*t,2,3,[1]", f"{NINES},0,0,0,0,0",
             "١,0,0,0,0,0"]
    words += [_mutate(rng, "0,1,t^2,0,t,1") for _ in range(12)]
    for word in words:
        _run(["code", "syndrome"] + GOLDEN
             + ["--integral-basis", files["golden"], "--ext", "3",
                "--m", "3", "--y", word])


@pytest.mark.parametrize("value", [65536, 4, 64])
def test_precision_ceiling_values(value, files, monkeypatch):
    monkeypatch.setattr(branch, "PRECISION_CEILING", value)
    code, _, _ = _run(["weierstrass"] + GOLDEN
                      + ["--integral-basis", files["golden"]])
    assert code == {65536: 0, 4: 2, 64: 2}[value]
