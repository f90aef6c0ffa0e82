"""Numerical semigroups presented by Apery arrays.

A semigroup is stored as a pivot e and the array a_0..a_(e-1) of minimal
elements per residue class mod e, which makes membership O(1) and carries
every quantity needed downstream: genus, conductor, the pair-count nu, the
Feng-Rao distance (general, symmetric-interval and brute-force variants),
and the Apery update under adjoining a new generator.  The array never
changes once built, so genus, conductor, last gap, max_apery, max_index and
symmetry are fixed at construction; reading them costs no pass over it.
"""

import heapq
import math
from dataclasses import dataclass

from .errors import InconsistencyError, InputError, PreconditionError

# Largest e*c (pivot times conductor) for which q0_m0 runs; not
# user-settable, like fields.ORDER_LIMIT.  q0_m0 takes an O(e) nu for each
# element below c, so its worst case, no q0 below c, costs about e*c/2
# steps.  Measured on <n, n+1> (a 2-vCPU machine, Python 3.11): 0.16 s at
# e*c = 9.9e5 (n = 100), 1.45 s at 1.56e7 (n = 250), 5.3 s at 4.3e7
# (n = 350) and 8.5 s at 6.4e7 (n = 400), about 100-130 ns per unit.
Q0_LIMIT = 1 << 24


def format_gens(gens):
    """A generator list as printed: <a,b,c>."""
    return "<" + ",".join(map(str, gens)) + ">"


def _apery_by_dijkstra(e, gens):
    """Shortest-path Apery array: a_i = min element of <gens> in class i."""
    INF = None
    dist = [INF] * e
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, c = heapq.heappop(heap)
        if dist[c] is not None and d > dist[c]:
            continue
        for g in gens:
            nc = (c + g) % e
            nd = d + g
            if dist[nc] is None or nd < dist[nc]:
                dist[nc] = nd
                heapq.heappush(heap, (nd, nc))
    if any(d is None for d in dist):
        raise InconsistencyError("residue class unreachable; gcd != 1?")
    return dist


class NumericalSemigroup:
    """An additive submonoid of N with finite complement."""

    __slots__ = ("e", "apery", "gens", "max_apery", "max_index", "conductor",
                 "last_gap", "genus", "_symmetric", "_gapset", "_nu_cache",
                 "_nu_bf_cache")

    def __init__(self, e, apery, gens):
        self.e = e
        self.apery = apery = tuple(apery)
        self.gens = tuple(gens)
        self.max_apery = aN = max(apery)
        # the class N with a_N = max(apery); unique since classes differ
        self.max_index = N = apery.index(aN)
        self.conductor = aN - e + 1
        self.last_gap = self.conductor - 1
        self.genus = sum((a - i) // e for i, a in enumerate(apery))
        # Apery test a_i + a_(N-i) = a_N, cross-checked against c = 2g
        self._symmetric = all(apery[i] + apery[(N - i) % e] == aN
                              for i in range(e))
        if self._symmetric != (self.conductor == 2 * self.genus):
            raise InconsistencyError("symmetry characterizations disagree")
        self._gapset = None
        self._nu_cache = {}
        self._nu_bf_cache = {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_generators(cls, gens, pivot=None):
        gens = sorted(set(int(g) for g in gens))
        if not gens or gens[0] <= 0:
            raise PreconditionError("generators must be positive")
        g = math.gcd(*gens)
        if g != 1:
            raise PreconditionError(
                f"not a numerical semigroup: gcd of generators is {g}")
        e0 = gens[0]
        base = _apery_by_dijkstra(e0, gens)
        if pivot is None:
            return cls(e0, base, gens)
        pivot = int(pivot)
        if pivot <= 0 or pivot < base[pivot % e0]:
            raise PreconditionError(f"pivot {pivot} is not a nonzero element")
        return cls(pivot, _apery_by_dijkstra(pivot, gens), gens)

    @classmethod
    def from_apery(cls, e, apery):
        apery = list(apery)
        if len(apery) != e or apery[0] != 0:
            raise PreconditionError("Apery array must have length e, a_0 = 0")
        for i, a in enumerate(apery):
            if a % e != i % e or a < 0:
                raise PreconditionError(f"a_{i} = {a} is not in class {i}")
        for i, ai in enumerate(apery):
            for j, aj in enumerate(apery):
                if ai + aj < apery[(i + j) % e]:
                    raise PreconditionError(
                        f"Apery array not closed: a_{i}+a_{j} < a_{(i+j) % e}")
        # a minimal generator other than e is the least of its class
        S = cls(e, apery, ())
        return cls(e, apery, sorted(q for q in {e, *apery}
                                    if S.is_irreducible_element(q)))

    # -- basic structure --------------------------------------------------

    def __contains__(self, m):
        return m >= 0 and m >= self.apery[m % self.e]

    @property
    def multiplicity(self):
        nonzero = [a for a in self.apery if a]
        return min([self.e] + nonzero)

    def gaps(self):
        return [x for x in range(self.conductor) if x not in self]

    def _gap_set(self):
        if self._gapset is None:
            self._gapset = frozenset(self.gaps())
        return self._gapset

    def next_element(self, x):
        """min{r in S | r >= x}."""
        r = max(x, 0)
        while r not in self:
            r += 1
        return r

    def elements(self, bound):
        """Elements of S up to and including bound, ascending."""
        return [m for m in range(bound + 1) if m in self]

    def coords(self, m):
        """Apery coordinates (i, l) with m = a_i + l*e."""
        if m not in self:
            raise PreconditionError(f"{m} is not an element of the semigroup")
        i = m % self.e
        return i, (m - self.apery[i]) // self.e

    # -- nu ---------------------------------------------------------------

    def nu(self, m):
        """Number of ordered pairs (a, b) in S^2 with a + b = m, via the
        Apery-relation counting formula (memoized: feng_rao asks for the
        same values once per residue class and m)."""
        total = self._nu_cache.get(m)
        if total is not None:
            return total
        i, l = self.coords(m)
        e = self.e
        ap = self.apery
        total = 0
        ai = ap[i]
        for k in range(e):
            alpha = (ap[k] + ap[(i - k) % e] - ai) // e
            if alpha <= l:
                total += l - alpha + 1
        self._nu_cache[m] = total
        return total

    def nu_bruteforce(self, m):
        """Direct pair enumeration; the oracle for nu."""
        if m not in self:
            raise PreconditionError(f"{m} is not an element of the semigroup")
        cached = self._nu_bf_cache.get(m)
        if cached is None:
            cached = sum(1 for a in range(m + 1)
                         if a in self and (m - a) in self)
            self._nu_bf_cache[m] = cached
        return cached

    def _nu_or_zero(self, x):
        return self.nu(x) if x >= 0 and x in self else 0

    def gap_pair_count(self, m):
        """D(m): ordered pairs of gaps summing to m."""
        gs = self._gap_set()
        return sum(1 for x in gs if (m - x) in gs)

    # -- Feng-Rao distance --------------------------------------------------

    def feng_rao(self, m):
        """min nu(r) over r in S, r >= m, as a minimum over residue classes
        (nu is increasing along each class)."""
        i, l = self.coords(m)
        e = self.e
        best = None
        for j in range(e):
            aj = self.apery[j]
            t = max(0, (m - aj + e - 1) // e)
            v = self.nu(aj + t * e)
            if best is None or v < best:
                best = v
        return best

    def feng_rao_bruteforce(self, m):
        """Upward scan of nu_bruteforce; stops at the first r in S with
        D(r) = 0 and nu(r) = r + 1 - 2g (such r exists by r = 4g - 1)."""
        if m not in self:
            raise PreconditionError(f"{m} is not an element of the semigroup")
        g = self.genus
        best = None
        r = m
        while True:
            if r in self:
                v = self.nu_bruteforce(r)
                if best is None or v < best:
                    best = v
                if v == r + 1 - 2 * g and self.gap_pair_count(r) == 0:
                    return best
            r += 1

    def is_symmetric(self):
        """Decided at construction by the Apery test, cross-checked there
        against c = 2g."""
        return self._symmetric

    def feng_rao_symmetric(self, m):
        """Feng-Rao distance on the interval [c, 2c-2] of a symmetric
        semigroup via the short-minimum formula."""
        if not self.is_symmetric():
            raise PreconditionError("semigroup is not symmetric")
        c = self.conductor
        if not c <= m <= 2 * c - 2:
            raise PreconditionError(f"m = {m} outside the interval "
                                    f"[{c}, {2 * c - 2}]")
        n = m - c + 1
        q = 2 * c - 2 - m
        if n in self:
            return n
        n_next = self.next_element(n + 1)
        delta = n_next - n
        cands = [n + t + self._nu_or_zero(q - t) for t in range(delta - 2)]
        cands.append(n_next)
        return min(cands)

    def delta_gap(self, q):
        """Distance from q down to the first gap below it."""
        if q not in self:
            raise PreconditionError(f"{q} is not an element of the semigroup")
        d = 1
        while (q - d) in self:
            d += 1
        return d

    def min_formula_rhs(self, m):
        """min{r in S | r >= m + 1 - 2g}."""
        return self.next_element(m + 1 - 2 * self.genus)

    def q0_m0(self):
        """Smallest q in S with nu(q) < delta(q) (sentinel c - 1 when none)
        and the matching threshold m_0 = 4g - 2 - q_0."""
        if not self.is_symmetric():
            raise PreconditionError("q0 is defined for symmetric semigroups")
        c = self.conductor
        if self.e * c > Q0_LIMIT:
            raise InputError(f"q0: e*c = {self.e * c} exceeds the limit "
                             f"2^24 (semigroups.Q0_LIMIT)")
        q0 = None
        for q in self.elements(c - 1):
            if self.nu(q) < self.delta_gap(q):
                q0 = q
                break
        sentinel = q0 is None
        if sentinel:
            q0 = c - 1
        return Q0Result(q0=q0, m0=4 * self.genus - 2 - q0, sentinel=sentinel)

    def is_irreducible_element(self, q):
        """q != 0 and q is not a sum of two nonzero elements: q - e in S
        splits q != e; else q is e or least in its class, and splits only
        as a_i + a_j with nonzero classes i + j = q mod e."""
        e, ap = self.e, self.apery
        if q not in self or q == 0:
            return False
        if q != e and q - e in self:
            return False
        return not any(ap[i] + ap[(q - i) % e] == q
                       for i in range(1, e) if (q - i) % e)

    # -- adjunction ---------------------------------------------------------

    def adjoin_with_trace(self, b):
        """Apery update for S + b*N.

        Candidates for the new minima are a_j + lambda*b with
        0 <= j, lambda <= e - 1.  Returns the new semigroup and the trace
        [(class i, new a_i, source class j, lambda)] of lowered slots.
        """
        b = int(b)
        if b <= 0:
            raise PreconditionError("adjoined element must be positive")
        if b in self:
            return self, []
        e = self.e
        best = {i: (a, i, 0) for i, a in enumerate(self.apery)}
        for j in range(e):
            aj = self.apery[j]
            for lam in range(1, e):
                v = aj + lam * b
                i = v % e
                if v < best[i][0]:
                    best[i] = (v, j, lam)
        new_apery = [best[i][0] for i in range(e)]
        trace = [(i, best[i][0], best[i][1], best[i][2])
                 for i in range(e) if best[i][0] != self.apery[i]]
        new = NumericalSemigroup(e, new_apery, tuple(sorted(set(self.gens) | {b})))
        return new, trace

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, NumericalSemigroup)
                and self.e == other.e and self.apery == other.apery)

    def __hash__(self):
        return hash((self.e, self.apery))

    def __repr__(self):
        return format_gens(self.gens)


@dataclass(frozen=True)
class Q0Result:
    q0: int
    m0: int
    sentinel: bool


class TelescopicStructure:
    """Ordered generators delta_0..delta_h with the gcd tower
    d_i = gcd(delta_0..delta_(i-1)), d_(h+1) = 1, and
    n_i delta_i in <delta_0..delta_(i-1)>; every element then has a unique
    bounded representation.  The semigroup at infinity S_P is one."""

    def __init__(self, generators):
        gens = [int(g) for g in generators]
        if not gens or any(g <= 0 for g in gens):
            raise PreconditionError("generators must be positive")
        self.generators = tuple(gens)
        h = len(gens) - 1
        d = [gens[0]]
        for i in range(1, h + 1):
            d.append(math.gcd(d[-1], gens[i]))
        self.d = tuple(d)  # (d_1, ..., d_(h+1)) with d_(i+1) = gcd up to delta_i
        if self.d[-1] != 1:
            raise PreconditionError("gcd of generators is not 1")
        self.nseq = tuple(self.d[i] // self.d[i + 1] for i in range(h))
        self.h = h
        # the prefix up to delta_(i-1) has passed, so it is telescopic and
        # its bounded representation decides membership
        for i in range(1, h + 1):
            target = self.nseq[i - 1] * gens[i]
            if self._bounded_repr(target, i - 1) is None:
                raise PreconditionError(
                    f"n_{i}*delta_{i} = {target} not in "
                    f"{format_gens(gens[:i])}")

    def _bounded_repr(self, m, top):
        """(lambda_0, ..., lambda_top) with m = sum lambda_k delta_k and
        0 <= lambda_k < n_k for k >= 1, or None when lambda_0 < 0 (m is then
        not in a telescopic <delta_0..delta_top>); d_(top+1) must divide m.
        lambda_k is the one residue mod n_k that leaves the rest divisible
        by d_k."""
        gens, d, nseq = self.generators, self.d, self.nseq
        lam = [0] * (top + 1)
        rest = m
        for k in range(top, 0, -1):
            dk1 = d[k]           # d_(k+1)
            nk = nseq[k - 1]
            if rest % dk1:
                raise InconsistencyError("representation drift")
            lam[k] = (rest // dk1 * pow(gens[k] // dk1, -1, nk)) % nk
            rest -= lam[k] * gens[k]
        if rest % gens[0]:
            raise InconsistencyError("representation drift at lambda_0")
        if rest < 0:
            return None
        lam[0] = rest // gens[0]
        return tuple(lam)

    def repr_of(self, m):
        """The unique (lambda_0, ..., lambda_h) with 0 <= lambda_k < n_k for
        k >= 1; raises when m is not an element."""
        lam = self._bounded_repr(m, self.h)
        if lam is None:
            raise PreconditionError(f"{m} is not an element of the semigroup")
        return lam

    def apery(self):
        """Apery array w.r.t. delta_0: sums with lambda_0 = 0, one per
        residue class (their count n_1...n_h equals delta_0)."""
        gens, nseq, h = self.generators, self.nseq, self.h
        e = gens[0]
        combos = [0]
        for k in range(1, h + 1):
            combos = [c + lam * gens[k] for c in combos
                      for lam in range(nseq[k - 1])]
        if len(combos) != e:
            raise InconsistencyError("telescopic Apery count != delta_0")
        arr = [None] * e
        for v in combos:
            i = v % e
            if arr[i] is not None:
                raise InconsistencyError("telescopic Apery classes collide")
            arr[i] = v
        return arr

    def numerical(self):
        """The NumericalSemigroup with pivot delta_0, from apery() in O(e)."""
        return NumericalSemigroup(self.generators[0], self.apery(),
                                  sorted(set(self.generators)))

    def __repr__(self):
        return format_gens(self.generators)
