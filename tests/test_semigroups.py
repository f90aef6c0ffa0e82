import random
import time

import pytest

from weiersem import (NumericalSemigroup, PreconditionError,
                      TelescopicStructure)

from conftest import random_semigroup_gens, random_telescopic


# -- construction ------------------------------------------------------------

def test_full_n():
    S = NumericalSemigroup.from_generators([1])
    assert S.genus == 0
    assert S.conductor == 0
    assert S.apery == (0,)
    assert S.last_gap == -1
    assert S.max_index == 0


def test_golden_apery_pivot_9():
    S = NumericalSemigroup.from_generators([9, 3, 8], pivot=9)
    assert S.apery == (0, 19, 11, 3, 22, 14, 6, 16, 8)


def test_conductor_6_10_15():
    assert NumericalSemigroup.from_generators([6, 10, 15]).conductor == 30


def test_gcd_not_one_rejected():
    with pytest.raises(PreconditionError):
        NumericalSemigroup.from_generators([6, 10])


def test_pivot_must_be_element():
    with pytest.raises(PreconditionError):
        NumericalSemigroup.from_generators([3, 8], pivot=5)
    S = NumericalSemigroup.from_generators([3, 8], pivot=8)
    assert S.e == 8 and 11 in S and 13 not in S


def test_from_apery_validation():
    with pytest.raises(PreconditionError):
        NumericalSemigroup.from_apery(3, [0, 5, 8])   # 5 is not in class 1
    with pytest.raises(PreconditionError):
        NumericalSemigroup.from_apery(3, [0, 7, 2])   # not closed (2+2 < 7)


def _minimal_generators_bruteforce(S):
    """Scan S upwards, keeping each element that no sum of the generators
    kept so far reaches (every minimal generator is below max_apery + e)."""
    bound = S.max_apery + S.e
    reach = [True] + [False] * bound
    gens = []
    for m in range(1, bound + 1):
        if m in S and not reach[m]:
            gens.append(m)
            for x in range(m, bound + 1):
                reach[x] = reach[x] or reach[x - m]
    return gens


def test_from_apery_minimal_generators():
    S = NumericalSemigroup.from_apery(3, [0, 4, 8])
    assert S.gens == (3, 4)
    rng = random.Random(515)
    for _ in range(40):
        gens, G = random_semigroup_gens(rng)
        expected = _minimal_generators_bruteforce(G)
        assert list(NumericalSemigroup.from_apery(G.e, G.apery).gens) == \
            expected, gens
        # a pivot other than the multiplicity is no generator when reducible
        pivot = rng.choice(G.elements(G.conductor + 2 * G.e)[1:])
        P = NumericalSemigroup.from_generators(gens, pivot=pivot)
        assert list(NumericalSemigroup.from_apery(P.e, P.apery).gens) == \
            expected, (gens, pivot)
        # the Apery rule against its definition by a membership scan
        for T in (G, P):
            for q in range(T.max_apery + T.e + 1):
                scan = (q in T and q > 0
                        and all(q - s not in T for s in range(1, q) if s in T))
                assert T.is_irreducible_element(q) == scan, (gens, T.e, q)


def test_from_apery_large_pivot_is_fast():
    S = NumericalSemigroup.from_generators([512, 513])
    t0 = time.perf_counter()
    R = NumericalSemigroup.from_apery(S.e, S.apery)
    assert time.perf_counter() - t0 < 1.0
    assert R.gens == (512, 513)


# -- nu ---------------------------------------------------------------------------

def test_nu_basics():
    S = NumericalSemigroup.from_generators([3, 8])
    assert S.nu(0) == 1
    assert S.nu(16) == 3          # (0,16), (8,8), (16,0)
    assert S.nu(24) == 11         # frozen from the brute-force oracle
    assert S.nu_bruteforce(24) == 11


def test_nu_on_full_n():
    S = NumericalSemigroup.from_generators([1])
    for m in range(12):
        assert S.nu(m) == m + 1
        assert S.nu_bruteforce(m) == m + 1


def test_nu_rejects_gaps():
    S = NumericalSemigroup.from_generators([3, 8])
    with pytest.raises(PreconditionError):
        S.nu(13)
    with pytest.raises(PreconditionError):
        S.nu_bruteforce(13)


def test_nu_increasing_in_l():
    S = NumericalSemigroup.from_generators([5, 7, 9])
    for i in range(S.e):
        prev = None
        for l in range(6):
            v = S.nu(S.apery[i] + l * S.e)
            if prev is not None:
                assert v >= prev
            prev = v


def test_gap_pair_count():
    S = NumericalSemigroup.from_generators([3, 8])
    assert S.gap_pair_count(14) == 5
    full = NumericalSemigroup.from_generators([1])
    assert all(full.gap_pair_count(m) == 0 for m in range(10))


# -- Feng-Rao ----------------------------------------------------------------------

def test_feng_rao_zero():
    S = NumericalSemigroup.from_generators([3, 8])
    assert S.feng_rao(0) == 1
    assert S.feng_rao_bruteforce(0) == 1


def test_feng_rao_large_m():
    S = NumericalSemigroup.from_generators([6, 8, 10, 17, 19])
    g = S.genus
    for m in S.elements(5 * g):
        if m >= 4 * g - 1:
            assert S.feng_rao(m) == m + 1 - 2 * g


def test_symmetric_theorem_value():
    S = NumericalSemigroup.from_generators([6, 10, 15])
    g = S.genus
    for e in S.elements(3 * S.conductor):
        if e == 0:
            continue
        assert S.nu(2 * g - 1 + e) == e
        assert S.feng_rao(2 * g - 1 + e) == e


FROZEN_FR_TABLE_6_8_10_17_19 = {
    22: 4, 23: 4, 24: 6, 25: 6, 26: 6, 27: 6, 28: 8, 29: 8, 30: 10, 31: 10,
    32: 12, 33: 12, 34: 14, 35: 14, 36: 16, 37: 16, 38: 17, 39: 18, 40: 19,
    41: 20, 42: 22, 43: 22, 44: 23,
}

FROZEN_FR_TABLE_9_12_15 = {
    32: 5, 33: 5, 34: 5, 35: 8, 36: 8, 37: 8, 38: 9, 39: 9, 40: 9, 41: 12,
    42: 12, 43: 12, 44: 15, 45: 15, 46: 15, 47: 17, 48: 17, 49: 18, 50: 20,
    51: 20, 52: 21, 53: 23, 54: 23, 55: 24, 56: 25, 57: 26, 58: 27, 59: 28,
    60: 29, 61: 30, 62: 32, 63: 32, 64: 33,
}


def test_feng_rao_frozen_tables():
    """Values on [c, 4g] frozen from the brute-force oracle."""
    S = NumericalSemigroup.from_generators([6, 8, 10, 17, 19])
    for m, expected in FROZEN_FR_TABLE_6_8_10_17_19.items():
        assert S.feng_rao(m) == expected
        assert S.feng_rao_bruteforce(m) == expected
    T = NumericalSemigroup.from_generators([9, 12, 15, 17, 20, 23, 25, 28])
    for m, expected in FROZEN_FR_TABLE_9_12_15.items():
        assert T.feng_rao(m) == expected
        assert T.feng_rao_bruteforce(m) == expected


def test_oracle_equivalence_seeded():
    rng = random.Random(77)
    for _ in range(10):
        gens, S = random_semigroup_gens(rng)
        for m in S.elements(4 * S.genus + 2 * S.e):
            assert S.nu(m) == S.nu_bruteforce(m)
            assert S.feng_rao(m) == S.feng_rao_bruteforce(m)


def test_symmetric_fast_path_agreement():
    rng = random.Random(88)
    seen = 0
    while seen < 8:
        gens, S = random_semigroup_gens(rng)
        if not S.is_symmetric() or S.conductor < 2:
            continue
        seen += 1
        c = S.conductor
        for m in range(c, 2 * c - 1):
            assert S.feng_rao_symmetric(m) == S.feng_rao(m)


def test_feng_rao_symmetric_preconditions():
    S = NumericalSemigroup.from_generators([3, 5, 7])   # not symmetric
    assert not S.is_symmetric()
    with pytest.raises(PreconditionError):
        S.feng_rao_symmetric(S.conductor)
    T = NumericalSemigroup.from_generators([6, 10, 15])
    with pytest.raises(PreconditionError):
        T.feng_rao_symmetric(T.conductor - 1)


# -- symmetry ---------------------------------------------------------------------

def test_symmetry_examples():
    assert NumericalSemigroup.from_generators([6, 10, 15]).is_symmetric()
    assert not NumericalSemigroup.from_generators([3, 5, 7]).is_symmetric()
    assert NumericalSemigroup.from_generators([1]).is_symmetric()


def test_symmetry_complement_characterization():
    """The invariants fixed at construction, with the smallest generator or
    another element as pivot, against their definitions from the gaps
    found by a membership scan:
    genus the gap count, conductor the last gap + 1, a_N = max(apery) in
    the class of the last gap, and symmetry x in S <=> c - 1 - x not in S."""
    rng = random.Random(123)
    for _ in range(15):
        gens, G = random_semigroup_gens(rng)
        pivot = rng.choice(G.elements(G.conductor + 2 * G.e)[1:])
        for S in (G, NumericalSemigroup.from_generators(gens, pivot=pivot)):
            # every x >= max(apery) is in S, so this scan finds every gap
            gaps = [x for x in range(max(S.apery)) if x not in S]
            assert S.gaps() == gaps, (gens, S.e)
            c = gaps[-1] + 1 if gaps else 0
            assert S.genus == len(gaps), (gens, S.e)
            assert S.conductor == c and S.last_gap == c - 1, (gens, S.e)
            assert S.max_index == (c - 1) % S.e, (gens, S.e)
            assert S.max_apery == S.apery[S.max_index] == max(S.apery)
            mirror = all((r in S) != (c - 1 - r in S)
                         for r in range(-2, c + 2))
            assert mirror == S.is_symmetric(), (gens, S.e)


# -- delta_gap and q0 ---------------------------------------------------------------

def test_delta_gap_edges():
    S = NumericalSemigroup.from_generators([3, 4])
    assert S.delta_gap(3) == 1            # 2 is a gap
    assert S.delta_gap(S.conductor) == 1  # c - 1 is a gap by definition
    assert S.delta_gap(4) == 2
    with pytest.raises(PreconditionError):
        S.delta_gap(5)


def test_q0_paper_table():
    expect = {
        (9, 12, 15, 17, 20, 23, 25, 28): (32, 25, False),
        (6, 8, 10, 17, 19): (22, 19, False),
        (8, 10, 12, 13): (28, 25, False),
        (6, 10, 15): (30, 29, True),
    }
    for gens, (c, q0, sentinel) in expect.items():
        S = NumericalSemigroup.from_generators(list(gens))
        res = S.q0_m0()
        assert S.conductor == c
        assert res.q0 == q0
        assert res.sentinel == sentinel
        assert res.m0 == 4 * S.genus - 2 - q0
        assert res.q0 >= S.multiplicity + 2


def test_q0_hyperelliptic_like_family():
    # gaps 1..g-1 and 2g-1: q0 = e_0 + 2 exactly
    for g in (3, 4, 5):
        gens = list(range(g, 2 * g - 1)) + [2 * g + 1]
        S = NumericalSemigroup.from_generators(gens)
        assert sorted(S.gaps()) == list(range(1, g)) + [2 * g - 1]
        res = S.q0_m0()
        assert res.q0 == S.multiplicity + 2


def test_min_formula_interval():
    rng = random.Random(321)
    seen = 0
    while seen < 6:
        gens, S = random_semigroup_gens(rng)
        if not S.is_symmetric():
            continue
        seen += 1
        res = S.q0_m0()
        for m in S.elements(4 * S.genus + 4):
            if m > res.m0:
                assert S.feng_rao(m) == S.min_formula_rhs(m), (gens, m)
        if res.m0 in S and not res.sentinel:
            assert S.feng_rao(res.m0) != S.min_formula_rhs(res.m0), gens


# -- telescopic ----------------------------------------------------------------------

def test_telescopic_golden():
    T = TelescopicStructure([9, 3, 8])
    assert T.d == (9, 3, 1)
    assert T.nseq == (3, 3)
    assert T.repr_of(20) == (1, 1, 1)
    assert T.repr_of(12) == (1, 1, 0)
    assert T.repr_of(0) == (0, 0, 0)
    for j, d in enumerate(T.generators):
        lam = T.repr_of(d)
        assert lam == tuple(1 if i == j else 0
                            for i in range(len(T.generators)))


def test_telescopic_apery_matches_general():
    T = TelescopicStructure([9, 3, 8])
    S = NumericalSemigroup.from_generators([9, 3, 8], pivot=9)
    assert tuple(T.apery()) == S.apery
    assert sorted(T.apery()) == [0, 3, 6, 8, 11, 14, 16, 19, 22]


def test_telescopic_small_cases():
    assert TelescopicStructure([1]).apery() == [0]
    assert TelescopicStructure([2, 3]).apery() == [0, 3]


def test_not_telescopic_rejected():
    with pytest.raises(PreconditionError):
        TelescopicStructure([4, 5, 6])   # n_2 * 6 = 6 not in <4, 5>
    with pytest.raises(PreconditionError):
        TelescopicStructure([4, 6])      # gcd 2 != 1


def test_telescopic_membership_and_roundtrip_random():
    rng = random.Random(55)
    for _ in range(10):
        gens = random_telescopic(rng)
        T = TelescopicStructure(gens)
        S = NumericalSemigroup.from_generators(gens)
        assert tuple(sorted(T.apery())) == tuple(sorted(
            NumericalSemigroup.from_generators(gens, pivot=gens[0]).apery))
        for m in range(4 * S.genus + 8):
            if m in S:
                lam = T.repr_of(m)
                assert sum(l * g for l, g in zip(lam, gens)) == m
                for k in range(1, len(gens)):
                    assert 0 <= lam[k] < T.nseq[k - 1]
            else:
                with pytest.raises(PreconditionError):
                    T.repr_of(m)


def test_apery_product_formula_discrepancy():
    """The closed-form product for nu on Apery elements fails already on
    <9,3,8>: the element 3 has multipliers (1, 0), so the product is 0,
    while nu(3) = 2.  nu is therefore computed only by counting."""
    T = TelescopicStructure([9, 3, 8])
    S = NumericalSemigroup.from_generators([9, 3, 8], pivot=9)
    mismatch = 0
    for a in T.apery():
        lam = T.repr_of(a)
        product = 1
        for k in range(1, len(lam)):
            product *= lam[k] - 1
        if product != S.nu(a):
            mismatch += 1
        assert S.nu(a) == S.nu_bruteforce(a)
    assert mismatch > 0


def test_min_formula_characterization_on_interval():
    """On [c, 2c-2] of a symmetric semigroup with n = m+1-2g a gap, the
    minimum formula holds iff nu(qbar) >= delta(qbar) for every element
    qbar of (q', q] with qbar >= q'+3 (all of (q', q] lies in S by
    symmetry)."""
    rng = random.Random(777)
    seen = 0
    while seen < 6:
        gens, S = random_semigroup_gens(rng)
        if not S.is_symmetric() or S.conductor < 4:
            continue
        seen += 1
        c = S.conductor
        for m in range(c, 2 * c - 1):
            n = m - c + 1
            q = 2 * c - 2 - m
            if n in S:
                assert S.feng_rao(m) == S.min_formula_rhs(m), (gens, m)
                continue
            n_next = n + 1
            while n_next not in S:
                n_next += 1
            q_prime = q - (n_next - n)
            condition = all(S.nu(qb) >= S.delta_gap(qb)
                            for qb in range(q_prime + 3, q + 1))
            holds = S.feng_rao(m) == S.min_formula_rhs(m)
            assert holds == condition, (gens, m)
            # the easy sufficient cases from the corollary
            delta = n_next - n
            if delta in (1, 2):
                assert holds, (gens, m)
            if delta == 3 and not S.is_irreducible_element(q):
                assert holds, (gens, m)


def test_telescopic_q0_footnote_bound_empirically():
    """For telescopic S with the largest generator last, the literature
    bound guarantees [@] on [4g-1-(d_h-1)*delta_h, 4g-1).  Checked, not
    assumed; the literal inequality q_0 >= (d_h-1)*delta_h can only be
    expected when a violating element exists (otherwise q_0 is the
    sentinel c-1, which may legitimately sit below the bound)."""
    cases = [[12, 8, 10, 13], [6, 10, 15]]
    rng = random.Random(4242)
    while len(cases) < 10:
        gens = random_telescopic(rng)
        if gens[-1] == max(gens):
            cases.append(gens)
    sentinel_below_bound = 0
    for gens in cases:
        T = TelescopicStructure(gens)
        S = NumericalSemigroup.from_generators(gens)
        res = S.q0_m0()
        d_h = T.d[-2] if T.h >= 1 else 1
        bound = (d_h - 1) * gens[-1]
        g = S.genus
        lo = max(S.conductor, 4 * g - 1 - bound)
        for m in range(lo, 4 * g - 1):
            if m in S:
                assert S.feng_rao(m) == S.min_formula_rhs(m), (gens, m)
        if not res.sentinel:
            assert res.q0 >= bound, gens
        elif res.q0 < bound:
            sentinel_below_bound += 1
    # the literal inequality is indeed vacuous-i.e.-violable in sentinel
    # cases; the sampled two-generator semigroups exhibit it
    assert sentinel_below_bound > 0


# -- adjoin -------------------------------------------------------------------------

def test_adjoin_member_is_noop():
    S = NumericalSemigroup.from_generators([3, 8])
    assert S.adjoin_with_trace(8)[0] is S


def test_adjoin_chain_golden():
    S = NumericalSemigroup.from_generators([3, 8])
    for b in (13, 7, 10, 4):
        S = S.adjoin_with_trace(b)[0]
    assert sorted(S.gaps()) == [1, 2, 5]
    assert S.genus == 3


def test_adjoin_equals_regenerated_random():
    rng = random.Random(999)
    for _ in range(50):
        gens, S = random_semigroup_gens(rng)
        b = rng.randint(1, S.conductor + S.e + 3)
        A = S.adjoin_with_trace(b)[0]
        R = NumericalSemigroup.from_generators(list(gens) + [b], pivot=S.e)
        limit = max(A.conductor, R.conductor) + S.e + 2
        for m in range(limit):
            assert (m in A) == (m in R), (gens, b, m)


def test_adjoin_trace_values():
    S = NumericalSemigroup.from_generators([9, 3, 8], pivot=9)
    A, trace = S.adjoin_with_trace(13)
    assert A.apery[13 % 9] == 13
    assert any(i == 4 and v == 13 for i, v, _, _ in trace)
