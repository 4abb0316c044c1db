"""Twisted group rings of finite groups: their units, and unique-product
searches on subsets of abelian groups.
"""

from __future__ import annotations

import itertools
import math

from . import finring, twist as twist_mod
from .finring import CapExceeded, DEFAULT_CAP
from .groupoid import group_as_groupoid
from .pairs import AbstractAlgebra, ConvolutionAlgebra


class TwistedGroupRing(ConvolutionAlgebra):
    """R(H, c): functions H → R with cocycle-corrected convolution, the
    convolution algebra of c on H as a one-object groupoid, so
    b_g·b_h = c(g,h)·b_gh.

    Elements are coefficient tuples in the order of group.elements.
    """

    def __init__(self, ring, group, cocycle_values=None):
        self.group = group
        self._unit_profile = None  # count_units
        super().__init__(twist_mod.Cocycle(ring, group_as_groupoid(group),
                                           cocycle_values))
        self.name = f"{ring.name}[{group.name}]"

    def delta(self, g, t=None):
        return self.basis_vector(self.index[g], t)

    def one(self):
        return self.delta(self.group.identity)

    def mul(self, f, g):
        # AbstractAlgebra.mul itself; bench/spans.py counts
        # TwistedGroupRing.mul by name, so it keeps a binding of its own
        return AbstractAlgebra.mul(self, f, g)

    def is_trivial_unit(self, f):
        """Of the form t·δ_g with t a ring unit."""
        support = [i for i, v in enumerate(f) if v != self.ring.zero]
        return len(support) == 1 and self.ring.is_unit(f[support[0]])

    def is_commutative(self):
        """b_g·b_h = c(g,h)·b_gh and b_h·b_g = c(h,g)·b_hg, with the b_g a
        basis and every c(g,h) a unit, so the ring is commutative iff
        gh = hg and c(g,h) = c(h,g) for all g, h."""
        H, c = self.group, self.cocycle
        return all(H.mul[(g, h)] == H.mul[(h, g)] and
                   c.value(g, h) == c.value(h, g)
                   for g in H.elements for h in H.elements)


def unit_census(T, cap=DEFAULT_CAP, oracle=False):
    """(units, trivial, witness): the number of units of T, the number of
    trivial units t·δ_g and the first nontrivial unit in element order, or
    None when every unit is trivial.

    A commutative T is not listed: its units are counted (count_units) and
    the walk of enumerate_units runs only while it finds no nontrivial
    unit, and only when the count exceeds the trivial count, charging each
    element it visits to the cap.  The t·δ_g with t ∈ R^× and g ∈ H are
    units (enumerate_units), pairwise distinct, as each has the one nonzero
    coordinate t at g, and they are exactly the elements is_trivial_unit
    accepts; so there are |R^×|·|H| trivial units.  A noncommutative T,
    and oracle=True, take the lists of enumerate_units.
    """
    if oracle or not T.is_commutative():
        units, trivial, nontrivial = enumerate_units(T, cap=cap, oracle=oracle)
        return len(units), len(trivial), next(iter(nontrivial), None)
    units = count_units(T, cap=cap)[0]
    trivial = len(finring.ring_units(T.ring)) * len(T.group)
    witness = None
    if units > trivial:
        witness = next(f for f, unit in _unit_walk(T, cap=cap)
                       if unit and not T.is_trivial_unit(f))
    return units, trivial, witness


def census_charge(R, d, commutative, oracle=False):
    """The first charge unit_census makes on an R(H, c) with |H| = d:
    count_units' work on a commutative ring, enumerate_units' size on
    another ring or with the oracle."""
    if oracle:
        return R.size ** (2 * d)
    if commutative:
        return len(finring.local_factors(R)) * d ** 4
    return R.size ** d


def count_units(T, cap=DEFAULT_CAP):
    """(|T^×|, profile) of a commutative T = R(H, c), without listing T.
    profile lists, for each local factor ε·R of R (finring.local_factors,
    in their order), (q, |m|, {f: n_f}, u): the residue field GF(q), the
    maximal ideal m, the number n_f of field factors of degree f over
    GF(q) of T/J(T), J the Jacobson radical, and u = |(ε·T)^×|.  It is
    computed once per T and kept on it.

    R is the product of its local factors ε·R, so T is the product of
    the rings ε·T = (ε·R)(H, c), and |T^×| is the product of their unit
    counts.  Let m be the maximal ideal of ε·R, its non-units, and
    q = |ε·R/m|, a power of a prime p.  Then m·T is a nilpotent ideal of
    ε·T, so x is a unit iff its image in the d-dimensional algebra
    T̄ = ε·T/m·T over the field ε·R/m is one, and
    |(ε·T)^×| = |m|^d·|T̄^×|, d = |H|.  The same nilpotent ideal makes
    ε·T/J(ε·T) the quotient of T̄ by its nilradical.

    T̄ is commutative of characteristic p, so the Frobenius F(x) = x^q is
    additive on it and fixes the scalars: it is linear.  Its matrix has
    the columns F(ε·b_g), by square-and-multiply, and the columns of F^j
    follow from them.  A unit-pivot elimination over ε·R with its unit
    inverses (finring._eliminate) leaves pivot rows independent modulo m
    and the other rows in m, so its pivot count is the rank modulo m.

    T̄ is a product of local algebras A_i, with nilpotent maximal ideals
    and residue fields GF(q^f_i), so it has dimension s + Σ_i f_i, s that
    of its nilradical.  An x of A_i with x^Q = x, Q = q^j, is 0 if it
    lies in the maximal ideal (x = x^(Q^k) = 0 for k large), and two such
    x that agree modulo it agree, as their difference is again fixed.  So
    ker(F^j − 1) meets A_i in a copy of GF(q^gcd(j,f_i)), and
    N(j) = d − rank(F^j − 1) = Σ_i gcd(j, f_i) = Σ_(e|j) φ(e)·M(e), M(e)
    the number of f_i divisible by e.  Möbius inversion over j ≤ d gives
    each M(e), and with them the number n_f of degrees equal to f.  Then
    |T̄^×| = q^s·Π_i (q^f_i − 1): an element is a unit iff its image in
    each residue field is nonzero (Berlekamp, Bell System Tech. J. 46,
    1967).

    The d powers of F and their ranks cost about d⁴ ring operations per
    factor, charged to the cap before the first product, on every call.
    """
    R, d = T.ring, T.dim
    factors = finring.local_factors(R)
    work = census_charge(R, d, True)
    if work > cap:
        raise CapExceeded(work, cap)
    if T._unit_profile is not None:
        return T._unit_profile
    add, mul, neg, zero = R.add_table, R.mul_table, R._neg, R.zero
    profile = []
    for eps, inverse in factors:
        part = len({mul[eps][x] for x in R.all_indices()})
        ideal = part - len(inverse)
        q = part // ideal
        columns = [_power(T, T.basis_vector(i, eps), q) for i in range(d)]

        def frobenius(v):
            """F(v) = Σ_h v_h·F(ε·b_h) modulo m."""
            out = [zero] * d
            for a, column in zip(v, columns):
                if a != zero:
                    row = mul[a]
                    out = [add[o][row[w]] for o, w in zip(out, column)]
            return out

        power, fixed = columns, [None]  # fixed[j] = N(j)
        for j in range(1, d + 1):
            rows = [list(column) for column in power]
            for g, row in enumerate(rows):
                row[g] = add[row[g]][neg[eps]]
            rows = [row for row in rows if row.count(zero) < d]
            fixed.append(d - len(finring._eliminate(R, rows, d, inverse)[0]))
            power = [frobenius(column) for column in power]
        divisible = [None]  # divisible[e] = M(e)
        for e in range(1, d + 1):
            rest = fixed[e] - sum(_totient(k) * divisible[k]
                                  for k in range(1, e) if e % k == 0)
            divisible.append(rest // _totient(e))
        degrees = {}  # f -> n_f
        for f in range(d, 0, -1):
            degrees[f] = divisible[f] - sum(
                degrees[k * f] for k in range(2, d // f + 1))
        s = d - sum(f * n for f, n in degrees.items())
        units = ideal ** d * q ** s * math.prod(
            (q ** f - 1) ** n for f, n in degrees.items())
        profile.append((q, ideal, degrees, units))
    T._unit_profile = math.prod(u for *_, u in profile), profile
    return T._unit_profile


def _power(T, x, n):
    """x^n for n ≥ 1 by square-and-multiply."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else T.mul(result, x)
        n >>= 1
        if n:
            x = T.mul(x, x)
    return result


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def enumerate_units(T, cap=DEFAULT_CAP, oracle=False):
    """All invertible elements, split into trivial and nontrivial.

    The primary path is _unit_walk run to the end, after a charge of
    |R[H]| to the cap.  With oracle=True every pair (f, x) is tried as a
    product instead; its |R[H]|² products are checked against the cap
    before it starts.  The lists come back in the order of
    T.all_elements().
    """
    size = census_charge(T.ring, T.dim, False, oracle)
    if size > cap:
        raise CapExceeded(size, cap)
    if oracle:
        one = T.one()
        everything = T.all_elements(cap=cap)
        units = [f for f in everything
                 if any(T.mul(f, x) == one and T.mul(x, f) == one
                        for x in everything)]
    else:
        units = [f for f, unit in _unit_walk(T, cap=cap) if unit]
    trivial = [f for f in units if T.is_trivial_unit(f)]
    nontrivial = [f for f in units if not T.is_trivial_unit(f)]
    return units, trivial, nontrivial


def _unit_walk(T, cap=DEFAULT_CAP):
    """(f, whether f is a unit) for each element f of T in the order of
    T.all_elements(), deciding invertibility once per orbit of the trivial
    units U = {t·δ_g : t ∈ R^×, g ∈ H} acting by left multiplication.
    Each element visited is charged to the cap, so a walk stopped early
    pays only for what it saw.

    Every cocycle value is a unit (check_cocycle), so each t·δ_g is a
    unit, and U is a group: (t·δ_g)(s·δ_h) = ts·c(g,h)·δ_gh.  If
    f·x = δ_e = x·f and u ∈ U, then (u·f)(x·u⁻¹) = δ_e = (x·u⁻¹)(u·f), and
    f = u⁻¹·(u·f) gives the converse; so f is a unit iff every element
    of its orbit is.  Left multiplication by t·δ_g permutes coordinates
    with scaling, (t·δ_g·f)(gh) = t·c(g,h)·f(h), so an orbit is listed
    without products.  Walking the elements in order, the first one not
    yet seen represents its orbit, and its verdict holds for the whole
    orbit.

    f is a unit iff the columns f·b_j span R^d
    (finring.standard_basis_tails), d = |H|.  They span the image of
    x ↦ f·x, which holds δ_e iff f has a right inverse x.  Then y ↦ x·y
    is injective, as x·y = 0 gives y = f·x·y = 0, so it is onto the
    finite T, and x·z = δ_e gives f = f·x·z = z: x is the inverse.
    """
    shifts = _trivial_unit_shifts(T)
    seen, found = set(), set()
    elements = itertools.product(T.ring.all_indices(), repeat=T.dim)
    for visited, f in enumerate(elements, 1):
        if visited > cap:
            raise CapExceeded(visited, cap)
        if f not in seen:
            orbit = {tuple(row[f[i]] for i, row in shift) for shift in shifts}
            seen |= orbit
            columns = [T.mul(f, b) for b in T.basis_vectors]
            tails = finring.standard_basis_tails(T.ring, columns, T.dim)
            if tails is not None:
                found |= orbit
        yield f, f in found


def _trivial_unit_shifts(T):
    """Left multiplication by each t·δ_g as a list over the coordinates k:
    (j, the ring's multiplication row of t·s) for the entry (j, k, s) of
    T.rows[g], since t·δ_g·b_j = t·s·b_k."""
    mul, units = T.ring.mul_table, finring.ring_units(T.ring)
    shifts = []
    for row in T.rows:
        for t in units:
            shift = [None] * T.dim
            for j, k, s in row:
                shift[k] = (j, mul[mul[t][s]])
            shifts.append(shift)
    return shifts


def _pairwise_products(H, A, B):
    """Multiply subsets elementwise.  H is a FiniteGroup, or the string
    "free_abelian" for integer tuples under addition."""
    counts = {}
    for a in A:
        for b in B:
            if H == "free_abelian":
                p = tuple(x + y for x, y in zip(a, b))
            else:
                p = H.mul[(a, b)]
            counts.setdefault(p, []).append((a, b))
    return counts


def unique_product_search(H, A, B):
    """An element of A·B with exactly one factorization, or None.

    For free abelian inputs the lexicographically extreme product is used
    as the claimed witness and cross-checked against the full count.
    """
    if not A or not B:
        raise ValueError("subsets must be nonempty")
    counts = _pairwise_products(H, A, B)
    witnesses = sorted((p for p, facts in counts.items() if len(facts) == 1),
                       key=str)
    if H == "free_abelian":
        claimed = tuple(x + y for x, y in zip(max(A), max(B)))
        if len(counts[claimed]) != 1:
            raise AssertionError("lexicographic-extreme product is not unique")
        if claimed not in witnesses:
            raise AssertionError("fast path disagrees with the count")
    return witnesses[0] if witnesses else None


def all_unique_products(H, A, B):
    counts = _pairwise_products(H, A, B)
    return sorted((p for p, facts in counts.items() if len(facts) == 1), key=str)


def strojnowski_check(H, A, B):
    """When a unique product exists and |A|+|B| > 2, a second distinct
    unique-product element must exist."""
    if len(A) + len(B) <= 2:
        raise ValueError("check applies only when |A|+|B| > 2")
    witnesses = all_unique_products(H, A, B)
    return len(witnesses) >= 2
