"""Command-line surface: every pipeline stage, with deterministic output.

Exit codes: 0 success, 1 input error, 2 mathematical precondition failure,
3 internal inconsistency.
"""

import argparse
import csv
import math
import os
import sys
from bisect import bisect_right

from .branch import parametrize, valuation_by_resultant
from .codes import build_code, designed_bounds, enumerate_points, in_code, \
    known_syndromes
from .curves import am_sequence, normalize_degree, one_branch_criterion, \
    semigroup_at_infinity
from .errors import HypothesisError, InconsistencyError, InputError, \
    PreconditionError
from .fields import ORDER_LIMIT, FiniteField, write_sum
from .parsing import parse_count, parse_element, parse_field, \
    parse_generators, parse_poly, parse_rational
from .semigroups import NumericalSemigroup, format_gens
from .weierstrass import l_basis, triangulate

# Caps of the m flags, constants like fields.ORDER_LIMIT (measured on a
# 2-vCPU Xeon): the m of `lbasis` and `code`, whose L(mP) basis takes about
# m^2 work (at most 2.2 s at m = 1000, 7.3 s at 2000); the values in one
# `semigroup` --m-range (2^16 took 1.3 s on <3,4>); and a `semigroup` m:
# generators are at most 2^20, so 2^41 > 2c - 2.
M_LIMIT = 1000
RANGE_LIMIT = 1 << 16
SEMIGROUP_M_LIMIT = 2 * ORDER_LIMIT ** 2

# Caps of the work e*(values + e) of one `semigroup nu` and `fengrao`, e the
# pivot: each nu and each Feng-Rao row is a pass over the e classes, and the
# first rows fill the nu memo, about e^2.  Single runs on <n, n+1> (2-vCPU
# Xeon, Python 3.11): nu took 76-202 ns per unit (1.9-2.6 s at 1.7e7-3.4e7).
# Feng-Rao rows, timed on a machine about half as fast: one m about 400 ns
# (6.9 s at e = 4096), a range from the conductor 0.9-1.3 us (1.9 s at
# e = 1024 over 1024 values = 2^21).
NU_WORK_LIMIT = 1 << 24
FENGRAO_WORK_LIMIT = 1 << 21

# Cap of the point scan of the `code` commands, q^2 * (min(deg_X, deg_Y) + 1)
# for the q^2 pairs of GF(q) and Horner in the variable of lower degree at
# each.  Single runs on a 2-vCPU Xeon, Python 3.11: 110-125 ns per unit in
# characteristic 2 (0.52 s for Y^2+Y+X^3/GF(2^2) over GF(2^10), 2^22 units),
# 165-215 ns for odd p with Zech tables (0.56 s for Y^3+Y+X^4/GF(3^2) over
# GF(3^6), 2.7e6 units) and 255 ns over GF(p) (0.79 s for Y^2+X^3+1/GF(1009),
# 3.1e6 units; about 1.1 s at the cap).
SCAN_LIMIT = 1 << 22


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _count(flag, cap):
    """argparse type of a flag read by parse_count."""
    return lambda text: parse_count(text, cap, flag)


def _add_curve_flags(p):
    p.add_argument("--field", required=True, help="GF(p) or GF(p^k)")
    p.add_argument("--curve", required=True, help="curve equation F(X, Y)")


def build_parser():
    top = _Parser(prog="weiersem", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve")
    curve_sub = curve.add_subparsers(dest="subcommand", required=True)
    analyze = curve_sub.add_parser("analyze")
    _add_curve_flags(analyze)

    w = sub.add_parser("weierstrass")
    _add_curve_flags(w)
    w.add_argument("--integral-basis", required=True, metavar="FILE")

    sg = sub.add_parser("semigroup")
    sg_sub = sg.add_subparsers(dest="subcommand", required=True)
    for name in ("stats", "apery", "nu", "fengrao", "symmetric", "q0"):
        p = sg_sub.add_parser(name)
        p.add_argument("--gens", required=True, help="e.g. 9,3,8")
        # the pivot sizes the Apery table, as the smallest generator does
        p.add_argument("--pivot", type=_count("--pivot", ORDER_LIMIT),
                       default=None)
        if name in ("nu", "fengrao"):
            p.add_argument("--m", type=_count("--m", SEMIGROUP_M_LIMIT),
                           default=None)
            p.add_argument("--m-range", default=None, metavar="A:B")
        if name == "fengrao":
            p.add_argument("--format", choices=("text", "csv"), default="text")

    lb = sub.add_parser("lbasis")
    _add_curve_flags(lb)
    lb.add_argument("--integral-basis", required=True, metavar="FILE")
    lb.add_argument("--m", type=_count("--m", M_LIMIT), required=True)

    code = sub.add_parser("code")
    code_sub = code.add_subparsers(dest="subcommand", required=True)
    for name in ("build", "bounds", "syndrome"):
        p = code_sub.add_parser(name)
        _add_curve_flags(p)
        p.add_argument("--integral-basis", required=True, metavar="FILE")
        p.add_argument("--ext", required=True,
                       type=_count("--ext", ORDER_LIMIT.bit_length() - 1),
                       help="extension degree for point enumeration")
        if name == "build":
            p.add_argument("--m", type=_count("--m", M_LIMIT), required=True)
            p.add_argument("--improved", action="store_true")
            p.add_argument("--format", choices=("text", "csv"), default="text")
        elif name == "bounds":
            p.add_argument("--m-range", required=True, metavar="A:B")
            p.add_argument("--format", choices=("text", "csv"), default="csv")
        else:
            p.add_argument("--m", type=_count("--m", M_LIMIT), required=True)
            p.add_argument("--y", required=True,
                           help="received word, comma-separated field elements")

    st = sub.add_parser("selftest")
    st.add_argument("--seed", type=int, default=20260810)
    return top


def _parse_range(text, cap):
    ends = text.split(":")
    if len(ends) != 2:
        raise InputError(f"bad range {text!r}; expected A:B")
    a, b = (parse_count(end, cap, "each --m-range end") for end in ends)
    if a > b:
        raise InputError(f"bad range {text!r}: A = {a} exceeds B = {b}")
    return a, b


def _read_basis(path, field):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read integral basis file: {exc}")
    basis = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        basis.append(parse_rational(line, field))
    return basis


def _pipeline(args):
    field = parse_field(args.field)
    model = normalize_degree(parse_poly(args.curve, field))
    seq = am_sequence(model)
    s_inf = semigroup_at_infinity(seq)
    param = parametrize(model)
    basis = _read_basis(args.integral_basis, field)
    report = triangulate(s_inf, seq.roots, basis, param)
    return field, model, seq, s_inf, param, report


def _semigroup_from_args(args):
    gens = parse_generators(args.gens)
    return NumericalSemigroup.from_generators(gens, pivot=args.pivot)


def _fengrao_rows(S, m_values):
    rows = []
    c = S.conductor
    symmetric = S.is_symmetric()
    for m in m_values:
        if m not in S:
            continue
        fr = S.feng_rao(m)
        fast = symmetric and c <= m <= 2 * c - 2
        if fast and S.feng_rao_symmetric(m) != fr:
            raise InconsistencyError("symmetric fast path disagrees")
        holds = fr == S.min_formula_rhs(m)
        rows.append({"m": m, "nu": S.nu(m), "delta_fr": fr,
                     "d_star": m + 1 - 2 * S.genus,
                     "sym_fast": "yes" if fast else "no",
                     "min_formula": "yes" if holds else "no"})
    return rows


def _emit_table(rows, columns, fmt, out):
    if fmt == "csv":
        wr = csv.writer(out, lineterminator="\n")
        wr.writerow(columns)
        for r in rows:
            wr.writerow([r[c] for c in columns])
        return
    widths = [max(len(str(c)), *(len(str(r[c])) for r in rows)) if rows
              else len(str(c)) for c in columns]
    out.write("  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
              .rstrip() + "\n")
    for r in rows:
        out.write("  ".join(str(r[c]).ljust(w)
                            for c, w in zip(columns, widths)).rstrip() + "\n")


def _cmd_curve_analyze(args, out):
    field = parse_field(args.field)
    model = normalize_degree(parse_poly(args.curve, field))
    seq = am_sequence(model)
    verdict = one_branch_criterion(seq)
    out.write(f"field: {field}\n")
    out.write(f"input: {model.original}\n")
    out.write(f"swap_xy: {'yes' if model.swapped else 'no'}\n")
    if model.shear:
        lam = write_sum([((1,), field.format_coeff(model.shear))], ("X",))
        out.write(f"shear: Y -> Y + {lam}\n")
    if model.subst_k is not None:
        out.write(f"substitution: X -> X + Y^{model.subst_k}\n")
    else:
        out.write("substitution: none\n")
    out.write(f"model: {model.equation}\n")
    out.write(f"m: {model.m}\n")
    out.write(f"n: {model.n}\n")
    out.write(f"e_P: {model.e_p}\n")
    out.write(f"h: {seq.h}\n")
    out.write(f"delta: {','.join(map(str, seq.delta))}\n")
    out.write(f"d: {','.join(map(str, seq.d))}\n")
    out.write(f"n_i: {','.join(map(str, seq.nseq))}\n")
    out.write("approximate_roots:\n")
    for i, fn in enumerate(seq.roots):
        out.write(f"  F_{i} = {fn}\n")
    if not verdict:
        out.write("one_branch: no\n")
        out.write(f"reason: {verdict.reason}\n")
        raise PreconditionError(f"not one branch at infinity: "
                                f"{verdict.reason}")
    out.write("one_branch: yes\n")
    out.write(f"S_P: {format_gens(seq.delta)}\n")
    return 0


def _cmd_weierstrass(args, out):
    field, model, seq, s_inf, param, report = _pipeline(args)
    out.write(f"S_P: {format_gens(seq.delta)}\n")
    out.write(f"s: {report.s}\n")
    out.write(f"added_values: {','.join(map(str, report.added_values))}\n")
    out.write(f"gamma_gaps: {','.join(map(str, report.gamma.gaps()))}\n")
    out.write(f"genus: {report.genus}\n")
    out.write(f"conductor: {report.gamma.conductor}\n")
    out.write("reduced_functions:\n")
    for g in report.reduced:
        out.write(f"  value {g.value}: {g}\n")
    return 0


def _cmd_semigroup(args, out):
    S = _semigroup_from_args(args)
    sub = args.subcommand
    if sub == "stats":
        out.write(f"generators: {format_gens(S.gens)}\n")
        out.write(f"pivot: {S.e}\n")
        out.write(f"apery: {','.join(map(str, S.apery))}\n")
        out.write(f"genus: {S.genus}\n")
        out.write(f"conductor: {S.conductor}\n")
        out.write(f"last_gap: {S.last_gap}\n")
        out.write(f"multiplicity: {S.multiplicity}\n")
        out.write(f"max_index_N: {S.max_index}\n")
        out.write(f"symmetric: {'yes' if S.is_symmetric() else 'no'}\n")
        return 0
    if sub == "apery":
        for i, a in enumerate(S.apery):
            out.write(f"{i}: {a}\n")
        return 0
    if sub == "symmetric":
        sym = S.is_symmetric()
        out.write(f"symmetric: {'yes' if sym else 'no'}\n")
        out.write(f"conductor: {S.conductor}\n")
        out.write(f"genus: {S.genus}\n")
        return 0
    if sub == "q0":
        res = S.q0_m0()
        out.write(f"q0: {res.q0}\n")
        out.write(f"m0: {res.m0}\n")
        out.write(f"sentinel: {'yes' if res.sentinel else 'no'}\n")
        out.write(f"min_formula_from: {res.m0 + 1}\n")
        out.write(f"bound_e0_plus_2: {'ok' if res.q0 >= S.multiplicity + 2 else 'violated'}\n")
        return 0
    # nu / fengrao need m values
    if args.m is None and args.m_range is None:
        raise InputError("--m or --m-range is required")
    if args.m is not None and args.m_range is not None:
        raise InputError("--m and --m-range are mutually exclusive")
    if args.m is not None:
        m_values = [args.m]
    else:
        a, b = _parse_range(args.m_range, SEMIGROUP_M_LIMIT)
        if b - a >= RANGE_LIMIT:
            raise InputError(f"--m-range holds more than {RANGE_LIMIT} values")
        m_values = range(a, b + 1)
    limit = NU_WORK_LIMIT if sub == "nu" else FENGRAO_WORK_LIMIT
    work = S.e * (len(m_values) + S.e)
    if work > limit:
        raise InputError(f"{sub}: e*(values+e) = {work} exceeds the limit "
                         f"2^{limit.bit_length() - 1}")
    if sub == "nu":
        for m in m_values:
            if m in S:
                out.write(f"nu({m}) = {S.nu(m)}\n")
            else:
                out.write(f"{m}: gap\n")
        return 0
    rows = _fengrao_rows(S, m_values)
    if not rows:
        raise PreconditionError("no requested m lies in the semigroup")
    _emit_table(rows, ["m", "nu", "delta_fr", "d_star", "sym_fast",
                       "min_formula"], args.format, out)
    return 0


def _cmd_lbasis(args, out):
    field, model, seq, s_inf, param, report = _pipeline(args)
    for fn in l_basis(report.table, args.m):
        out.write(f"{fn.value}: {fn}\n")
    return 0


def _points_for(args, report, model):
    field = model.field
    F = model.equation
    work = field.p ** (2 * field.k * args.ext) * (min(F.deg_x, F.deg_y) + 1)
    if work > SCAN_LIMIT:
        raise InputError(f"code: point scan q^2*(min(deg_X,deg_Y)+1) = {work} "
                         f"exceeds the limit 2^{SCAN_LIMIT.bit_length() - 1}")
    ext = FiniteField(field.p, field.k * args.ext)
    return ext, enumerate_points(model, ext,
                                 avoid=report.table.denominators())


def _cmd_code(args, out):
    sub = args.subcommand
    if sub == "bounds":
        a, b = _parse_range(args.m_range, M_LIMIT)
    field, model, seq, s_inf, param, report = _pipeline(args)
    ext, points = _points_for(args, report, model)
    if sub == "build":
        spec = build_code(report.table, points, args.m,
                          improved=getattr(args, "improved", False))
        out.write(f"n: {spec.n}\n")
        out.write(f"k: {spec.k}\n")
        out.write(f"rank: {spec.rank}\n")
        out.write(f"d_star: {spec.d_star}\n")
        out.write(f"m_prime: {spec.m_prime}\n")
        out.write(f"fr_bound: {spec.fr_bound}\n")
        out.write(f"t_correct: {spec.t_correct}\n")
        out.write(f"improved: {'yes' if spec.improved else 'no'}\n")
        if args.format == "csv":
            wr = csv.writer(out, lineterminator="\n")
            wr.writerow(["value"] + [f"P{i}" for i in range(spec.n)])
            for value, row in zip(spec.row_values, spec.matrix):
                wr.writerow([value] + [ext.format_rep(x) for x in row])
        return 0
    if sub == "bounds":
        gamma = report.gamma
        m_values = [m for m in range(a, b + 1) if m in gamma]
        rows = []
        if m_values:
            spec = build_code(report.table, points, m_values[-1])
        for m in m_values:
            rank = spec.ranks[bisect_right(spec.row_values, m) - 1]
            d_star, _, fr = designed_bounds(gamma, m)
            rows.append({"m": m, "k": spec.n - rank, "d_star": d_star,
                         "delta_fr": fr, "t_corr": (fr - 1) // 2})
        _emit_table(rows, ["m", "k", "d_star", "delta_fr", "t_corr"],
                    args.format, out)
        return 0
    # syndrome
    spec = build_code(report.table, points, args.m)
    entries = [tok.strip() for tok in args.y.split(",")]
    if len(entries) != spec.n:
        raise InputError(f"word has {len(entries)} entries, code length is "
                         f"{spec.n}")
    word = [parse_element(tok or "0", ext) for tok in entries]
    for value, s in known_syndromes(spec, word):
        out.write(f"s_{value}: {ext.format_rep(s)}\n")
    out.write(f"in_code: {'yes' if in_code(spec, word) else 'no'}\n")
    return 0


def _cmd_selftest(args, out):
    import random

    from .polynomials import BiPoly, resultant_y

    rng = random.Random(args.seed)
    failures = []

    def check(name, fn):
        try:
            fn()
            out.write(f"PASS {name}\n")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append(name)
            out.write(f"FAIL {name}: {exc}\n")

    def field_axioms():
        # every kind: tables (p = 2, odd p), prime, no tables (odd p, p = 2)
        for field in (FiniteField(2, 3), FiniteField(7), FiniteField(3, 2),
                      FiniteField(257, 2), FiniteField(2, 17)):
            for _ in range(200):
                a, b, c = (field.from_rep(rng.randrange(field.order))
                           for _ in range(3))
                assert (a + b) * c == a * c + b * c
                assert (a * b) * c == a * (b * c)
                if a.rep:
                    assert a * a.inverse() == field.one()

    def resultant_multiplicativity():
        field = FiniteField(5)
        for _ in range(20):
            def rnd():
                return BiPoly(field, {(i, j): rng.randrange(5)
                                      for i in range(2) for j in range(3)})
            a, b, c = rnd(), rnd(), rnd()
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            assert resultant_y(a, b * c) == resultant_y(a, b) * resultant_y(a, c)

    def semigroup_oracles():
        for _ in range(5):
            gens = sorted(rng.sample(range(4, 20), 3))
            if math.gcd(*gens) != 1:
                continue
            S = NumericalSemigroup.from_generators(gens)
            for m in S.elements(4 * S.genus + 2 * S.e):
                assert S.nu(m) == S.nu_bruteforce(m)
                assert S.feng_rao(m) == S.feng_rao_bruteforce(m)

    def golden_pipeline():
        field = parse_field("GF(2)")
        model = normalize_degree(parse_poly("Y^8+Y^2+X^3", field))
        seq = am_sequence(model)
        assert seq.h == 2 and seq.delta == (9, 3, 8)
        param = parametrize(model)
        for fn, d in zip(seq.roots, seq.delta):
            assert -param.valuation(fn).order == d
            assert valuation_by_resultant(model, fn) == d

    check("field-axioms", field_axioms)
    check("resultant-multiplicativity", resultant_multiplicativity)
    check("semigroup-oracle-equivalence", semigroup_oracles)
    check("golden-pipeline", golden_pipeline)
    return 3 if failures else 0


def run(argv, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "curve":
            return _cmd_curve_analyze(args, out)
        if args.command == "weierstrass":
            return _cmd_weierstrass(args, out)
        if args.command == "semigroup":
            return _cmd_semigroup(args, out)
        if args.command == "lbasis":
            return _cmd_lbasis(args, out)
        if args.command == "code":
            return _cmd_code(args, out)
        if args.command == "selftest":
            return _cmd_selftest(args, out)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HypothesisError as exc:
        print(f"error: hypothesis (H) violated: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 3


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        # stdout cannot be written (a closed pipe, a full device): point fd 1
        # at devnull so that the interpreter's exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        except OSError:
            pass
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
