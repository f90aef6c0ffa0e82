"""Byte-for-byte CLI stdout against recorded golden files.

The recordings in tests/data/cli_golden/*.out pin the full stdout of the
README commands on the golden curve plus extension-field runs (among them
the Newton expansion after blowups over GF(3^2) and the chart-y branch
over GF(2^2)), prime-field runs that reach each Kronecker product path
(`KRONECKER_PATHS`), and of the `semigroup` subcommands on symmetric and
non-symmetric semigroups, so a refactor of the arithmetic kernels or of the
semigroup layer cannot change any printed digit.  Re-record (only when an
output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py --record [NAME ...]

which re-records the named cases, or every case when none is named; an
unknown name is a usage error (exit status 2) and records nothing.
"""

import io
import os
import sys

import pytest

from conftest import kronecker_path
from weiersem import polynomials
from weiersem.cli import run

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "cli_golden")
GOLDEN = ["--field", "GF(2)", "--curve", "Y^8+Y^2+X^3",
          "--integral-basis", os.path.join(DATA, "golden_basis.txt")]
HERMITIAN_GF4 = ["--field", "GF(2^2)", "--curve", "Y^2+Y+X^3",
                 "--integral-basis", os.path.join(DATA, "empty_basis.txt")]

CASES = {
    "golden_analyze": ["curve", "analyze", "--field", "GF(2)",
                       "--curve", "Y^8+Y^2+X^3"],
    "golden_weierstrass": ["weierstrass"] + GOLDEN,
    "golden_lbasis_m10": ["lbasis"] + GOLDEN + ["--m", "10"],
    "golden_code_build": ["code", "build"] + GOLDEN
                         + ["--ext", "3", "--m", "5", "--format", "csv"],
    "golden_code_bounds": ["code", "bounds"] + GOLDEN
                          + ["--ext", "3", "--m-range", "0:12"],
    "golden_code_syndrome": ["code", "syndrome"] + GOLDEN
                            + ["--ext", "3", "--m", "3",
                               "--y", "0,1,t^2,0,t,1"],
    "hermitian_gf4_weierstrass": ["weierstrass"] + HERMITIAN_GF4,
    "hermitian_gf4_lbasis_m8": ["lbasis"] + HERMITIAN_GF4 + ["--m", "8"],
    "hermitian_gf4_code_bounds_ext2": ["code", "bounds"] + HERMITIAN_GF4
                                      + ["--ext", "2", "--m-range", "3:24"],
    "y3_gf9_analyze": ["curve", "analyze", "--field", "GF(3^2)",
                       "--curve", "Y^3+Y+X^4"],
    "y3_gf9_lbasis_m16": ["lbasis", "--field", "GF(3^2)",
                          "--curve", "Y^3+Y+X^4", "--integral-basis",
                          os.path.join(DATA, "empty_basis.txt"),
                          "--m", "16"],
    "y3_gf9_code_build_ext2": ["code", "build", "--field", "GF(3^2)",
                               "--curve", "Y^3+Y+X^4", "--integral-basis",
                               os.path.join(DATA, "empty_basis.txt"),
                               "--ext", "2", "--m", "12", "--format", "csv"],
    "chart_y_gf4_weierstrass": ["weierstrass", "--field", "GF(2^2)",
                                "--curve", "X^5+Y^3+[t]", "--integral-basis",
                                os.path.join(DATA, "empty_basis.txt")],
    "y150_gf2_analyze": ["curve", "analyze", "--field", "GF(2)",
                         "--curve", "Y^150+X^7"],
    "y200_gf5_analyze": ["curve", "analyze", "--field", "GF(5)",
                         "--curve", "Y^200+X^7"],
    "y100_gf4_analyze": ["curve", "analyze", "--field", "GF(2^2)",
                         "--curve", "Y^100+X^7"],
    "y150_gf3_analyze": ["curve", "analyze", "--field", "GF(3)",
                         "--curve", "Y^150+X^7"],
    "y4_gf7_weierstrass": ["weierstrass", "--field", "GF(7)",
                           "--curve", "Y^4+X^7+3", "--integral-basis",
                           os.path.join(DATA, "empty_basis.txt")],
    "y4_gf131_weierstrass": ["weierstrass", "--field", "GF(131)",
                             "--curve", "Y^4+X^7+3", "--integral-basis",
                             os.path.join(DATA, "empty_basis.txt")],
    "y4_gf257_weierstrass": ["weierstrass", "--field", "GF(257)",
                             "--curve", "Y^4+X^7+3", "--integral-basis",
                             os.path.join(DATA, "empty_basis.txt")],
    "semigroup_stats_8_10_12_13": ["semigroup", "stats",
                                   "--gens", "8,10,12,13"],
    "semigroup_stats_6_10_15_pivot_10": ["semigroup", "stats",
                                         "--gens", "6,10,15", "--pivot", "10"],
    "semigroup_fengrao_6_10_15": ["semigroup", "fengrao", "--gens", "6,10,15",
                                  "--m-range", "0:60"],
    "semigroup_fengrao_5_7_9_csv": ["semigroup", "fengrao", "--gens", "5,7,9",
                                    "--m-range", "0:40", "--format", "csv"],
    "semigroup_q0_8_10_12_13": ["semigroup", "q0", "--gens", "8,10,12,13"],
    "semigroup_symmetric_5_7_9": ["semigroup", "symmetric",
                                  "--gens", "5,7,9"],
}


def _stdout(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_recording(name):
    code, text = _stdout(CASES[name])
    assert code == 0
    with open(os.path.join(DATA, name + ".out"), "rb") as fh:
        assert text == fh.read()


# the `_kronecker_mul` (pack, unpack) path each recording is there to pin:
# the byte-plane sum of an odd p below 128, that sum in the branch series,
# bytes reduced through the array, and the array path of p >= 256
KRONECKER_PATHS = {
    "y150_gf3_analyze": ("strided", "plane sum"),
    "y4_gf7_weierstrass": ("strided", "plane sum"),
    "y4_gf131_weierstrass": ("strided", "array"),
    "y4_gf257_weierstrass": ("array", "array"),
}


@pytest.mark.parametrize("name", sorted(KRONECKER_PATHS))
def test_recording_reaches_its_kronecker_path(name, monkeypatch):
    paths = set()
    kronecker = polynomials._kronecker_mul

    def recorded(a, b, p, n_out, c=()):
        paths.add(kronecker_path(len(a), len(b), p, bool(c)))
        return kronecker(a, b, p, n_out, c)

    monkeypatch.setattr(polynomials, "_kronecker_mul", recorded)
    assert _stdout(CASES[name])[0] == 0
    assert KRONECKER_PATHS[name] in paths


def test_every_recording_has_a_case():
    recorded = {f[:-len(".out")] for f in os.listdir(DATA)
                if f.endswith(".out")}
    assert sorted(recorded - set(CASES)) == []


def test_record_rejects_unknown_name(capsys):
    assert _record(["--record", "golden_analyze", "no_such_case"]) == 2
    assert _record([]) == 2
    err = capsys.readouterr().err
    assert "unknown case: no_such_case;" in err
    assert err.count("usage: test_cli_golden.py --record [NAME ...]") == 2


def _record(args):
    """Re-record the named cases (all when none is named); 2 on misuse."""
    usage = "usage: test_cli_golden.py --record [NAME ...]"
    if args[:1] != ["--record"]:
        print(usage, file=sys.stderr)
        return 2
    names = args[1:] or sorted(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        print(f"{usage}\nunknown case: {', '.join(unknown)}; known: "
              f"{', '.join(sorted(CASES))}", file=sys.stderr)
        return 2
    for name in names:
        code, text = _stdout(CASES[name])
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            return 1
        with open(os.path.join(DATA, name + ".out"), "wb") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(_record(sys.argv[1:]))
