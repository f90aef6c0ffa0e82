import io
import os
import random
import re
import subprocess
import sys
import time

import pytest

from weiersem import NumericalSemigroup
from weiersem.cli import RANGE_LIMIT, SCAN_LIMIT, run
from weiersem.polynomials import DEGREE_LIMIT

from conftest import GOLDEN_BASIS_LINES, random_semigroup_gens


@pytest.fixture(scope="module")
def basis_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "basis.txt"
    path.write_text("# integral basis\n" + "\n".join(GOLDEN_BASIS_LINES) + "\n",
                    encoding="utf-8")
    return str(path)


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_curve_analyze_golden():
    code, text = _run(["curve", "analyze", "--field", "GF(2)",
                       "--curve", "Y^8+Y^2+X^3"])
    assert code == 0
    assert "substitution: X -> X + Y^3" in text
    assert "h: 2" in text
    assert "delta: 9,3,8" in text
    assert "one_branch: yes" in text
    assert "S_P: <9,3,8>" in text
    assert "F_2 = Y^3+Y^2+Y+X+1" in text


def test_curve_analyze_counterexample_exit_2():
    code, text = _run(["curve", "analyze", "--field", "GF(2)",
                       "--curve", "Y^8+Y+X^10+X^3"])
    assert code == 2


def test_curve_analyze_not_one_branch_exit_2():
    code, text = _run(["curve", "analyze", "--field", "GF(7)",
                       "--curve", "Y^4+X^2"])
    assert code == 2
    assert "one_branch: no" in text
    assert "reason:" in text


@pytest.mark.parametrize("field, curve, shear", [
    ("GF(5)", "Y^2+2*X*Y+X^2+X", "4*X"),
    ("GF(3^2)", "Y^2+[t+1]*X*Y+[2*t]*X^2+X", "[t+1]*X"),
])
def test_curve_analyze_sheared_model(field, curve, shear):
    """The shear is printed in the polynomial grammar: a coefficient
    outside GF(p) is bracketed."""
    code, text = _run(["curve", "analyze", "--field", field, "--curve", curve])
    assert code == 0
    assert f"shear: Y -> Y + {shear}\n" in text
    assert "model: Y^2+X\n" in text
    assert "one_branch: yes\n" in text


def test_curve_analyze_chain_failure_exit_2():
    code, text = _run(["curve", "analyze", "--field", "GF(2)",
                       "--curve", "Y^9+X^10*Y^6+X^11*Y^4+X^3"])
    assert code == 2
    assert ("reason: chain fails at i=1: delta_1*d_1 = 27 <= "
            "delta_2*d_2 = 219\n") in text


def test_semigroup_fengrao_row():
    code, text = _run(["semigroup", "fengrao", "--gens", "6,10,15",
                       "--m", "30"])
    assert code == 0
    S = NumericalSemigroup.from_generators([6, 10, 15])
    line = text.splitlines()[1].split()
    assert int(line[0]) == 30
    assert int(line[1]) == S.nu(30)
    assert int(line[2]) == S.feng_rao(30)
    assert int(line[3]) == 30 + 1 - 2 * S.genus
    assert line[4] == "yes"       # symmetric fast path used
    assert line[5] == "yes"       # minimum formula holds from m = 30


def test_semigroup_fengrao_csv_range():
    code, text = _run(["semigroup", "fengrao", "--gens", "6,10,15",
                       "--m-range", "15:21", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "m,nu,delta_fr,d_star,sym_fast,min_formula"
    # gaps 17 and 19 are skipped
    assert [int(r.split(",")[0]) for r in lines[1:]] == [15, 16, 18, 20, 21]


def test_semigroup_fengrao_csv_matches_oracles():
    """Every row of a fengrao table over [0, 4g + 2e], with the smallest
    generator or another element as pivot, against the brute-force pair
    count and Feng-Rao scan, d* = m + 1 - 2g, the interval [c, 2c - 2] of a
    symmetric semigroup, and the minimum formula."""
    rng = random.Random(606)
    for _ in range(8):
        gens, G = random_semigroup_gens(rng)
        pivot = rng.choice(G.elements(G.conductor + 2 * G.e)[1:])
        for flags in ([], ["--pivot", str(pivot)]):
            S = NumericalSemigroup.from_generators(
                gens, pivot=pivot if flags else None)
            top = 4 * S.genus + 2 * S.e
            code, text = _run(["semigroup", "fengrao",
                               "--gens", ",".join(map(str, gens)),
                               "--m-range", f"0:{top}", "--format", "csv"]
                              + flags)
            assert code == 0
            lines = text.splitlines()
            assert lines[0] == "m,nu,delta_fr,d_star,sym_fast,min_formula"
            c = S.conductor
            expected = []
            for m in S.elements(top):
                fr = S.feng_rao_bruteforce(m)
                fast = S.is_symmetric() and c <= m <= 2 * c - 2
                holds = fr == S.min_formula_rhs(m)
                expected.append(f"{m},{S.nu_bruteforce(m)},{fr},"
                                f"{m + 1 - 2 * S.genus},"
                                f"{'yes' if fast else 'no'},"
                                f"{'yes' if holds else 'no'}")
            assert lines[1:] == expected, (gens, flags)


def test_semigroup_stats_and_q0():
    code, text = _run(["semigroup", "stats", "--gens", "8,10,12,13"])
    assert code == 0
    assert "conductor: 28" in text
    assert "symmetric: yes" in text
    code, text = _run(["semigroup", "q0", "--gens", "8,10,12,13"])
    assert code == 0
    assert text == ("q0: 25\nm0: 29\nsentinel: no\nmin_formula_from: 30\n"
                    "bound_e0_plus_2: ok\n")


def test_semigroup_q0_limit():
    """e*c above Q0_LIMIT is an input error, answered at once; <1000,1001>
    (e*c near 10^9) would take minutes."""
    start = time.perf_counter()
    code, text = _run(["semigroup", "q0", "--gens", "1000,1001"])
    assert code == 1 and text == ""
    assert time.perf_counter() - start < 5


def test_semigroup_symmetric():
    assert _run(["semigroup", "symmetric", "--gens", "3,4"]) == \
        (0, "symmetric: yes\nconductor: 6\ngenus: 3\n")


def test_semigroup_fengrao_no_element_exit_2(capsys):
    assert _run(["semigroup", "fengrao", "--gens", "3,4",
                 "--m-range", "1:2"]) == (2, "")
    assert capsys.readouterr().err == \
        "error: no requested m lies in the semigroup\n"


@pytest.mark.parametrize("argv", [
    ["fengrao", "--gens", "4096,4097", "--m", "4096"],
    ["fengrao", "--gens", "1024,1025", "--m-range", "1047552:1049599"],
    ["fengrao", "--gens", "1024,1025", "--m-range", "1047552:1051647"],
    ["nu", "--gens", "4096,4097", "--m-range", "16773120:16777215"],
])
def test_semigroup_work_cap_exit_1(argv, capsys):
    """A nu or Feng-Rao request whose work e*(values+e) is above its cap is
    an input error, answered before any nu."""
    start = time.perf_counter()
    assert _run(["semigroup"] + argv) == (1, "")
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]}: e*(values+e) = ")
    assert err.count("\n") == 1


def test_semigroup_pivot_flag():
    code, text = _run(["semigroup", "apery", "--gens", "9,3,8", "--pivot", "9"])
    assert code == 0
    got = [int(line.split(":")[1]) for line in text.strip().splitlines()]
    assert got == [0, 19, 11, 3, 22, 14, 6, 16, 8]
    code, _ = _run(["semigroup", "apery", "--gens", "3,8", "--pivot", "5"])
    assert code == 2        # 5 is not an element


def test_semigroup_nu_gap_reported():
    code, text = _run(["semigroup", "nu", "--gens", "3,8", "--m", "13"])
    assert code == 0
    assert "gap" in text


def test_semigroup_bad_gens_exit_2():
    code, _ = _run(["semigroup", "stats", "--gens", "6,10"])
    assert code == 2


def test_weierstrass_pipeline(basis_file):
    code, text = _run(["weierstrass", "--field", "GF(2)",
                       "--curve", "Y^8+Y^2+X^3",
                       "--integral-basis", basis_file])
    assert code == 0
    assert "added_values: 13,7,10,4" in text
    assert "gamma_gaps: 1,2,5" in text
    assert "genus: 3" in text


def test_lbasis(basis_file, golden_report):
    code, text = _run(["lbasis", "--field", "GF(2)",
                       "--curve", "Y^8+Y^2+X^3",
                       "--integral-basis", basis_file, "--m", "10"])
    assert code == 0
    values = [int(line.split(":")[0]) for line in text.strip().splitlines()]
    assert values == [0, 3, 4, 6, 7, 8, 9, 10]


def test_code_build_matches_library(basis_file, golden_report):
    from weiersem import FiniteField, build_code, enumerate_points
    code, text = _run(["code", "build", "--field", "GF(2)",
                       "--curve", "Y^8+Y^2+X^3",
                       "--integral-basis", basis_file,
                       "--ext", "3", "--m", "5"])
    assert code == 0
    gf8 = FiniteField(2, 3)
    table = golden_report.table
    pts = enumerate_points(table.oracle.model, gf8,
                           avoid=table.denominators())
    spec = build_code(table, pts, 5)
    assert f"n: {spec.n}" in text
    assert f"k: {spec.k}" in text
    assert f"fr_bound: {spec.fr_bound}" in text


def test_code_bounds_csv(basis_file):
    code, text = _run(["code", "bounds", "--field", "GF(2)",
                       "--curve", "Y^8+Y^2+X^3",
                       "--integral-basis", basis_file,
                       "--ext", "3", "--m-range", "0:5"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "m,k,d_star,delta_fr,t_corr"
    assert [int(row.split(",")[0]) for row in lines[1:]] == [0, 3, 4]


def test_code_syndrome(basis_file):
    code, text = _run(["code", "syndrome", "--field", "GF(2)",
                       "--curve", "Y^8+Y^2+X^3",
                       "--integral-basis", basis_file,
                       "--ext", "3", "--m", "3",
                       "--y", "0,0,0,0,0,0"])
    assert code == 0
    assert "in_code: yes" in text


def test_code_syndrome_extension_entries(basis_file):
    code, text = _run(["code", "syndrome", "--field", "GF(2)",
                       "--curve", "Y^8+Y^2+X^3",
                       "--integral-basis", basis_file,
                       "--ext", "3", "--m", "3",
                       "--y", "1,t^2+1,0,t,0,1"])
    assert code == 0
    assert "s_0:" in text and "s_3:" in text
    assert "in_code: no" in text


HERMITIAN_GF4_BOUNDS = [
    "code", "bounds", "--field", "GF(2^2)", "--curve", "Y^2+Y+X^3",
    "--integral-basis", os.path.join(os.path.dirname(__file__), "data",
                                     "cli_golden", "empty_basis.txt"),
    "--m-range", "0:40"]


@pytest.mark.parametrize("ext", ["6", "10"])
def test_code_scan_limit_exit_1(ext, capsys):
    """A point scan q^2*(deg_Y+1) above SCAN_LIMIT is an input error,
    answered before the point field is built: over GF(2^12) the scan of
    the normalized deg_Y 9 model would take about 18 s."""
    start = time.perf_counter()
    assert _run(HERMITIAN_GF4_BOUNDS + ["--ext", ext]) == (1, "")
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error: code: point scan q^2*(deg_Y+1) = ")
    assert err.count("\n") == 1
    assert f"limit 2^{SCAN_LIMIT.bit_length() - 1}" in err


def test_code_scan_limit_admits_ext4():
    code, text = _run(HERMITIAN_GF4_BOUNDS + ["--ext", "4"])
    assert code == 0
    assert text.splitlines()[0] == "m,k,d_star,delta_fr,t_corr"


@pytest.mark.parametrize("field,curve", [
    ("GF(2)", "Y^99999999999999999999+X^3"),
    ("GF(2)", "X^99999999999999999999+Y^3"),
    ("GF(2)", "Y^2+X^511"),          # X -> X + Y^3 gives deg_Y 1533
])
def test_degree_limit_exit_1(field, curve, capsys):
    start = time.perf_counter()
    code, text = _run(["curve", "analyze", "--field", field, "--curve", curve])
    assert time.perf_counter() - start < 5
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"degree limit {DEGREE_LIMIT}" in err


@pytest.mark.parametrize("argv", [
    ["semigroup", "fengrao", "--gens", "3,4"],
    ["semigroup", "nu", "--gens", "3,4"],
    ["code", "bounds", "--field", "GF(2)", "--curve", "Y^8+Y^2+X^3",
     "--integral-basis", "BASIS", "--ext", "3"],
])
def test_reversed_m_range_exit_1(argv, basis_file, capsys):
    argv = [basis_file if a == "BASIS" else a for a in argv]
    code, text = _run(argv + ["--m-range", "5:1"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == \
        "error: bad range '5:1': A = 5 exceeds B = 1\n"
    assert _run(argv + ["--m-range", "6:6"])[0] == 0


def test_semigroup_m_range_cap(capsys):
    """A semigroup --m-range of RANGE_LIMIT values runs; one more value is
    an input error."""
    nu = ["semigroup", "nu", "--gens", "3,4", "--m-range"]
    code, text = _run(nu + [f"7:{RANGE_LIMIT + 6}"])
    assert code == 0 and text.count("\n") == RANGE_LIMIT
    assert _run(nu + [f"7:{RANGE_LIMIT + 7}"]) == (1, "")
    assert capsys.readouterr().err == \
        f"error: --m-range holds more than {RANGE_LIMIT} values\n"


def test_unknown_flag_exit_1():
    code, _ = _run(["curve", "analyze", "--nope", "x"])
    assert code == 1


def test_missing_file_exit_1():
    code, _ = _run(["weierstrass", "--field", "GF(2)",
                    "--curve", "Y^8+Y^2+X^3",
                    "--integral-basis", "/nonexistent/file"])
    assert code == 1


def test_output_deterministic(basis_file):
    args = ["weierstrass", "--field", "GF(2)", "--curve", "Y^8+Y^2+X^3",
            "--integral-basis", basis_file]
    _, first = _run(args)
    _, second = _run(args)
    assert first == second


def test_console_script_entry(basis_file):
    proc = subprocess.run(
        [sys.executable, "-m", "weiersem.cli", "curve", "analyze",
         "--field", "GF(2)", "--curve", "Y^8+Y+X^10+X^3"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "hypothesis (H)" in proc.stderr


# a child whose stdout is block-buffered, as in a shell, so that the last
# write fails in the flush at the end and not in the command
_BUFFERED_ENV = {k: v for k, v in os.environ.items()
                 if k != "PYTHONUNBUFFERED"}


def test_closed_stdout_pipe_exit_1():
    """The reader takes one line and closes the pipe; the writer ends with
    one error line, not a traceback."""
    with subprocess.Popen(
            [sys.executable, "-m", "weiersem", "semigroup", "fengrao",
             "--gens", "3,4", "--m-range", "0:60000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_BUFFERED_ENV) as proc:
        assert proc.stdout.readline().split()[0] == b"m"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exit_1():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "weiersem", "semigroup", "stats",
             "--gens", "3,4"], stdout=full, stderr=subprocess.PIPE, text=True,
            env=_BUFFERED_ENV, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_selftest_passes():
    code, text = _run(["selftest", "--seed", "7"])
    assert code == 0
    assert text.count("PASS") == 4
    assert "FAIL" not in text


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_malformed_precision_ceiling_exit_1(monkeypatch, capsys, basis_file,
                                            value):
    monkeypatch.setenv("WEIERSTRASS_PRECISION_CEILING", value)
    code, text = _run(["weierstrass", "--field", "GF(2)",
                       "--curve", "Y^8+Y^2+X^3",
                       "--integral-basis", basis_file])
    err = capsys.readouterr().err
    assert code == 1
    assert text == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "WEIERSTRASS_PRECISION_CEILING" in err


_WEIERSTRASS, _LBASIS = ["weierstrass"], ["lbasis", "--m", "10"]


@pytest.mark.parametrize("command, ceiling", [
    pytest.param(_WEIERSTRASS, 64, id="command0"),
    pytest.param(_LBASIS, 64, id="command1"),
    pytest.param(_WEIERSTRASS, 4, id="weierstrass-4"),
    pytest.param(_LBASIS, 4, id="lbasis-4"),
    pytest.param(_WEIERSTRASS, 9, id="weierstrass-9"),
    pytest.param(_LBASIS, 9, id="lbasis-9"),
])
def test_precision_ceiling_stop_exit_2(monkeypatch, capsys, basis_file,
                                       command, ceiling):
    """A valuation of a basis element that needs more terms than the
    ceiling is a precondition failure, not an inconsistent basis; so is a
    start precision clamped so low (4 to 9 terms on the golden curve) that
    the chart coordinate v(t) vanishes to it."""
    monkeypatch.setenv("WEIERSTRASS_PRECISION_CEILING", str(ceiling))
    code, text = _run(command + ["--field", "GF(2)", "--curve", "Y^8+Y^2+X^3",
                                 "--integral-basis", basis_file])
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert err.startswith("error: ") and err.count("error:") == 1
    assert err.count("\n") == 1
    assert re.search(rf"\bceiling {ceiling}\b", err)
    if ceiling == 64:
        assert "valuation needs precision 67 beyond the ceiling 64" in err
