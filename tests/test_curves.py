import math
import random

import pytest

from weiersem import (AMSequence, BiPoly, HypothesisError, InputError,
                      NumericalSemigroup, PreconditionError,
                      TelescopicStructure, am_sequence, approximate_root,
                      normalize_degree, one_branch_criterion, parse_field,
                      parametrize, parse_poly, resultant_y,
                      semigroup_at_infinity)
from weiersem.polynomials import DEGREE_LIMIT, NEG_INF, TABLELESS_DEGREE_LIMIT
from weiersem.semigroups import format_gens

from conftest import random_semigroup_gens, random_telescopic, scaled_member


# -- normalize_degree --------------------------------------------------------

def test_golden_normalization(golden_model):
    assert golden_model.subst_k == 3
    assert golden_model.m == 9
    assert golden_model.n == 3
    assert not golden_model.swapped
    assert repr(golden_model.equation) == "Y^9+Y^8+X*Y^6+X^2*Y^3+Y^2+X^3"


def test_no_substitution_when_char_coprime():
    F5 = parse_field("GF(5)")
    model = normalize_degree(parse_poly("Y^3+X^2", F5))
    assert model.subst_k is None
    assert model.equation == parse_poly("Y^3+X^2", F5)


def test_counterexample_rejected_with_hypothesis_diagnostic(gf2):
    F = parse_poly("Y^8+Y+X^10+X^3", gf2)
    with pytest.raises(HypothesisError) as err:
        normalize_degree(F)
    msg = str(err.value)
    assert "2" in msg and "8" in msg and "10" in msg


def test_swap_to_monic_position():
    # leading Y-coefficient X is not constant, but the XY-swapped form is
    # monic in Y, so the variables are exchanged
    F5 = parse_field("GF(5)")
    model = normalize_degree(parse_poly("X*Y^2+Y+X^3", F5))
    assert model.swapped
    assert model.m == 3


def test_relaxed_position_kept_without_swap():
    F5 = parse_field("GF(5)")
    model = normalize_degree(parse_poly("Y^2+X^3", F5))
    assert not model.swapped
    assert (model.m, model.n) == (2, 3)


def test_unit_rescaling():
    F5 = parse_field("GF(5)")
    model = normalize_degree(parse_poly("2*Y^2+X^3", F5))
    assert model.equation.is_monic_in_y()


def test_not_monicable_rejected(gf2):
    with pytest.raises(InputError):
        normalize_degree(parse_poly("X*Y+1", gf2))


def test_normalized_degree_limit():
    field = parse_field(f"GF({min(q for q in (2, 3, 5, 7) if DEGREE_LIMIT % q)})")
    assert normalize_degree(parse_poly(f"Y^{DEGREE_LIMIT}+X", field)).m \
        == DEGREE_LIMIT
    # X -> X + Y^3 takes deg_Y from 2 to 3*511
    with pytest.raises(InputError, match=f"deg_Y = 1533, above the degree "
                                         f"limit {DEGREE_LIMIT}$"):
        normalize_degree(parse_poly("Y^2+X^511", parse_field("GF(2)")))


def test_tableless_degree_limit():
    """Over GF(2^17), which has no log tables, deg_Y is capped at
    TABLELESS_DEGREE_LIMIT; GF(2^2), with tables, and GF(2) keep
    DEGREE_LIMIT.  The degrees are odd, so no substitution runs."""
    L = TABLELESS_DEGREE_LIMIT
    top = L if L % 2 else L - 1
    big = parse_field("GF(2^17)")
    assert normalize_degree(parse_poly(f"Y^{top}+X", big)).m == top
    with pytest.raises(InputError, match=f"deg_Y = {top + 2}, above the "
                       f"degree limit {L} of fields without log tables$"):
        normalize_degree(parse_poly(f"Y^{top + 2}+X", big))
    for field in ("GF(2^2)", "GF(2)"):
        model = normalize_degree(parse_poly(f"Y^{top + 2}+X",
                                            parse_field(field)))
        assert model.m == top + 2


def test_substitution_avoids_tilted_position():
    """For the curve Y^2+Y+X^3 over GF(2^2), k = 1 satisfies n*k > m but
    would put the degree form on the line X+Y (where the iteration sticks
    at gcd 3); the substitution must pick k = 3."""
    F4 = parse_field("GF(2^2)")
    model = normalize_degree(parse_poly("Y^2+Y+X^3", F4))
    assert model.subst_k == 3
    seq = am_sequence(model)
    assert seq.delta == (9, 3, 2)
    assert one_branch_criterion(seq).one_branch
    S = semigroup_at_infinity(seq).numerical()
    assert sorted(S.gaps()) == [1]


def test_tilted_model_is_sheared():
    """A directly supplied model with degree form (X+Y)^3 has its infinite
    point at (1:1:0); normalization shears it back to (1:0:0).  The sheared
    model stays monic, also from a degree form 2*(Y-2X)^3 scaled monic
    first."""
    F2 = parse_field("GF(2)")
    tilted = parse_poly("Y^3+X*Y^2+X^2*Y+X^3+Y^2", F2)
    model = normalize_degree(tilted)
    assert model.shear == 1
    assert model.equation.is_monic_in_y()
    assert model.equation == parse_poly("Y^3+Y^2+X^2", F2)
    seq = am_sequence(model)
    assert seq.delta == (3, 2)
    assert one_branch_criterion(seq).one_branch
    F5 = parse_field("GF(5)")
    model = normalize_degree(
        parse_poly("2*Y^3+3*X*Y^2+4*X^2*Y+4*X^3+X+1", F5))
    assert model.shear == 2
    assert model.equation.is_monic_in_y()
    assert model.equation == parse_poly("Y^3+3*X+3", F5)


def test_line_is_not_sheared():
    F7 = parse_field("GF(7)")
    model = normalize_degree(parse_poly("Y-X", F7))
    assert model.shear == 0
    assert model.equation == parse_poly("Y-X", F7)


def test_analyze_convenience():
    from weiersem import analyze
    F5 = parse_field("GF(5)")
    model, seq, verdict = analyze(parse_poly("Y^2+X^3", F5))
    assert seq.delta == (2, 3)
    assert verdict.one_branch


# -- approximate roots --------------------------------------------------------

def test_app_1_is_identity(golden_model):
    F = golden_model.equation
    assert approximate_root(F, 1) == F


def test_app_3_matches_golden(golden_model, gf2):
    G = approximate_root(golden_model.equation, 3)
    assert G == parse_poly("Y^3+Y^2+Y+X+1", gf2)


def test_app_by_completing_the_square():
    F7 = parse_field("GF(7)")
    F = parse_poly("Y^2+3*Y+X", F7)
    G = approximate_root(F, 2)
    assert G == parse_poly("Y+5", F7)
    diff = F - G * G
    assert diff.is_zero() or diff.deg_y < 1


def test_app_rejects_bad_d(golden_model):
    with pytest.raises(PreconditionError):
        approximate_root(golden_model.equation, 4)   # 4 does not divide 9
    with pytest.raises(PreconditionError):
        approximate_root(golden_model.equation, 2)   # wrong divisor anyway
    F5 = parse_field("GF(5)")
    with pytest.raises(PreconditionError):
        approximate_root(parse_poly("Y^10+X", F5), 5)  # char divides d


def test_app_uniqueness_random():
    rng = random.Random(11)
    F7 = parse_field("GF(7)")
    for _ in range(10):
        m, d = 6, rng.choice([2, 3, 6])
        e = m // d
        terms = {(0, m): 1}
        for i in range(3):
            for j in range(m):
                if rng.random() < 0.4:
                    terms[(i, j)] = rng.randrange(7)
        F = BiPoly(F7, terms)
        G = approximate_root(F, d)
        diff = F - G ** d
        assert diff.is_zero() or diff.deg_y < m - e
        # any perturbed monic candidate fails the degree bound
        pert = G + BiPoly.monomial(F7, rng.randint(0, 2), rng.randrange(e),
                                   1 + rng.randrange(6))
        bad = F - pert ** d
        assert not (bad.is_zero() or bad.deg_y < m - e)


# -- am_sequence ---------------------------------------------------------------

def test_golden_sequence(golden_seq):
    assert golden_seq.h == 2
    assert golden_seq.delta == (9, 3, 8)
    assert golden_seq.d == (9, 3, 1)
    assert golden_seq.nseq == (3, 3)
    assert repr(golden_seq.roots[2]) == "Y^3+Y^2+Y+X+1"


def test_cusp_sequence_gf5():
    F5 = parse_field("GF(5)")
    seq = am_sequence(normalize_degree(parse_poly("Y^2+X^3", F5)))
    assert seq.h == 1
    assert seq.delta == (2, 3)
    assert seq.d == (2, 1)


def test_line_sequence():
    F7 = parse_field("GF(7)")
    seq = am_sequence(normalize_degree(parse_poly("Y-X", F7)))
    assert seq.h == 0
    assert seq.delta == (1,)
    assert seq.d == (1,)
    assert one_branch_criterion(seq).one_branch


def test_y_divides_rejected(gf2):
    model = normalize_degree(parse_poly("Y^3+X*Y", gf2))
    with pytest.raises(PreconditionError):
        am_sequence(model)


def test_termination_bound(golden_seq):
    assert golden_seq.h <= math.log2(golden_seq.model.m) + 2


# -- one_branch_criterion --------------------------------------------------------

def test_golden_criterion_passes(golden_seq):
    assert one_branch_criterion(golden_seq).one_branch


def test_d_gate_failure():
    F7 = parse_field("GF(7)")
    seq = am_sequence(normalize_degree(parse_poly("Y^4+X^2", F7)))
    verdict = one_branch_criterion(seq)
    assert not verdict.one_branch
    assert "!= 1" in verdict.reason


def test_membership_failure_reason():
    seq = AMSequence(h=2, delta=(4, 6, 1), d=(4, 2, 1), nseq=(2, 2),
                     roots=(), model=None)
    verdict = one_branch_criterion(seq)
    assert not verdict.one_branch
    assert verdict.reason == "n_2*delta_2 = 2 not in <4,6>"


def test_two_linear_branches_rejected():
    F7 = parse_field("GF(7)")
    seq = am_sequence(normalize_degree(parse_poly("Y^2-3*X*Y+2*X^2+1", F7)))
    verdict = one_branch_criterion(seq)
    assert not verdict.one_branch


VERDICT_FIELDS = [parse_field(f) for f in
                  ("GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(2^2)", "GF(3^2)")]


def _power_of_one_linear_form(F):
    """Whether the degree form of F is c*X^D or c*(Y - lam*X)^D, trying
    every lam of the field."""
    field = F.field
    D = int(F.total_degree)
    form = F.form_coeffs(D)
    if not any(form[1:]):
        return True
    y, x = BiPoly.y(field), BiPoly.x(field)
    return any(((y - x.scale(lam)) ** D).scale(form[-1]).form_coeffs(D) == form
               for lam in range(field.order))


def test_verdict_agrees_with_the_branch():
    """On random monic curves a "no" is refused by the branch expansion,
    and a "yes" has one point at infinity: its degree form is a power of
    one linear form.  The criterion is necessary, not sufficient, so a
    "yes" may still be refused by the branch.  A non-reduced F, with
    Res_Y(F, F_Y) = 0, is refused by the branch whatever the verdict:
    (Y + 2*X^3)^2 over GF(5), drawn here, runs out of the chain guard."""
    rng = random.Random(2)
    yes = no = non_reduced = 0
    for _ in range(1500):
        field = rng.choice(VERDICT_FIELDS)
        m = rng.randint(2, 5)
        terms = {(0, m): 1}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 6), rng.randint(0, m - 1))] = \
                rng.randrange(1, field.order)
        terms.setdefault((rng.randint(1, 6), 0), rng.randrange(1, field.order))
        try:
            model = normalize_degree(BiPoly(field, terms))
            verdict = one_branch_criterion(am_sequence(model))
        except PreconditionError:
            continue
        F = model.equation
        reduced = resultant_y(F, F.derivative_y()).degree != NEG_INF
        if verdict:
            yes += 1
            assert _power_of_one_linear_form(F), repr(F)
        else:
            no += 1
        if not verdict or not reduced:
            non_reduced += not reduced
            with pytest.raises(PreconditionError):
                parametrize(model)
    assert yes > 200 and no > 600 and non_reduced > 0


# -- semigroup_at_infinity ---------------------------------------------------------

def test_golden_semigroup(golden_seq):
    s_inf = semigroup_at_infinity(golden_seq)
    assert s_inf.generators == (9, 3, 8)
    S = s_inf.numerical()
    assert sorted(S.gaps()) == [1, 2, 4, 5, 7, 10, 13]


def test_line_semigroup_is_n():
    F7 = parse_field("GF(7)")
    seq = am_sequence(normalize_degree(parse_poly("Y-X", F7)))
    S = semigroup_at_infinity(seq).numerical()
    assert S.genus == 0
    assert S.conductor == 0


def test_cusp_semigroup():
    F5 = parse_field("GF(5)")
    seq = am_sequence(normalize_degree(parse_poly("Y^2+X^3", F5)))
    S = semigroup_at_infinity(seq).numerical()
    assert sorted(S.gaps()) == [1]


def test_semigroup_rejected_without_criterion():
    F7 = parse_field("GF(7)")
    seq = am_sequence(normalize_degree(parse_poly("Y^4+X^2", F7)))
    with pytest.raises(PreconditionError):
        semigroup_at_infinity(seq)


def test_am_properties_on_one_branch_curves():
    """Output semigroups satisfy (I) d_{h+1} = 1, n_i > 1; (II) membership;
    (III) the chain; checked on substituted one-branch curves with h = 2."""
    F7 = parse_field("GF(7)")
    found = 0
    for base in ("Y^2+X^3", "Y^2+X^5", "Y^3+X^4", "Y^3+X^5", "Y^2+X^3+X"):
        for k in (2, 3):
            F = parse_poly(base, F7).substitute_x(k)
            seq = am_sequence(normalize_degree(F))
            if not one_branch_criterion(seq).one_branch:
                continue
            found += 1
            s_inf = semigroup_at_infinity(seq)
            assert s_inf.d[-1] == 1
            for i in range(2, seq.h + 1):
                assert s_inf.nseq[i - 1] > 1
            for i in range(1, seq.h + 1):
                assert scaled_member(s_inf.nseq[i - 1] * s_inf.generators[i],
                                     s_inf.generators[:i])
            for i in range(1, seq.h):
                assert s_inf.nseq[i - 1] * s_inf.generators[i] > \
                    s_inf.generators[i + 1]
            # the substitution leaves the semigroup itself unchanged
            base_seq = am_sequence(normalize_degree(parse_poly(base, F7)))
            base_s = semigroup_at_infinity(base_seq).numerical()
            assert sorted(s_inf.numerical().gaps()) == sorted(base_s.gaps())
    assert found >= 8


def test_telescopic_check_matches_dijkstra_oracle(golden_seq):
    """TelescopicStructure accepts exactly the generator lists whose every
    n_i*delta_i lies in <delta_0..delta_(i-1)> by the Dijkstra oracle, and
    names the first i that fails; checked on every prefix of seeded
    telescopic lists, their reorderings and arbitrary lists.  S_P built
    from its telescopic Apery array has the gaps of <delta_0..delta_h>."""
    rng = random.Random(1818)
    lists = [random_telescopic(rng) for _ in range(30)]
    lists += [rng.sample(gens, len(gens)) for gens in lists]
    lists += [random_semigroup_gens(rng)[0] for _ in range(30)]
    accepted = rejected = 0
    for gens in lists:
        for size in range(1, len(gens) + 1):
            prefix = gens[:size]
            try:
                TelescopicStructure(prefix)
                verdict = None
            except PreconditionError as exc:
                verdict = str(exc)
            if math.gcd(*prefix) != 1:
                assert verdict == "gcd of generators is not 1", prefix
                continue
            expected = None
            d = prefix[0]
            for i in range(1, size):
                d_next = math.gcd(d, prefix[i])
                target = d // d_next * prefix[i]
                if not scaled_member(target, prefix[:i]):
                    expected = (f"n_{i}*delta_{i} = {target} not in "
                                f"{format_gens(prefix[:i])}")
                    break
                d = d_next
            assert verdict == expected, prefix
            accepted += expected is None
            rejected += expected is not None
    assert accepted >= 30 and rejected >= 30, (accepted, rejected)
    hermitian = [am_sequence(normalize_degree(parse_poly(curve,
                                                         parse_field(fld))))
                 for fld, curve in (("GF(2^2)", "Y^2+Y+X^3"),
                                    ("GF(2^4)", "Y^4+Y+X^5"))]
    for seq in [golden_seq] + hermitian:
        S_P = semigroup_at_infinity(seq).numerical()
        S = NumericalSemigroup.from_generators(seq.delta)
        assert S_P.e == seq.delta[0]
        assert (S_P.gaps(), S_P.genus, S_P.conductor) == \
            (S.gaps(), S.genus, S.conductor), seq.delta
