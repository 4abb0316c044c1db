"""Twisted group rings of finite groups: units, the explicit nontrivial-unit
constructions for decomposable or non-reduced coefficient rings, and
unique-product searches on subsets of abelian groups.
"""

from __future__ import annotations

import itertools

from . import finring, twist as twist_mod
from .finring import CapExceeded, DEFAULT_CAP
from .groupoid import group_as_groupoid


class TwistedGroupRing:
    """R(H, c): functions H → R with cocycle-corrected convolution.

    Elements are coefficient tuples in the order of group.elements.
    """

    def __init__(self, ring, group, cocycle_values=None):
        self.ring = ring
        self.group = group
        self.index = {g: i for i, g in enumerate(group.elements)}
        c = twist_mod.Cocycle(ring, group_as_groupoid(group), cocycle_values)
        bad = twist_mod.check_cocycle(c)
        if bad:
            raise ValueError("invalid cocycle: " + bad[0])
        self.cvals = c.values

    def zero(self):
        return tuple([self.ring.zero] * len(self.group))

    def delta(self, g, t=None):
        if t is None:
            t = self.ring.one
        vec = [self.ring.zero] * len(self.group)
        vec[self.index[g]] = t
        return tuple(vec)

    def one(self):
        return self.delta(self.group.identity)

    def add(self, f, g):
        R = self.ring
        return tuple(R.add(a, b) for a, b in zip(f, g))

    def sub(self, f, g):
        R = self.ring
        return tuple(R.sub(a, b) for a, b in zip(f, g))

    def scale(self, t, f):
        R = self.ring
        return tuple(R.mul(t, a) for a in f)

    def mul(self, f, g):
        """(f*g)(β) = Σ_α c(α, α⁻¹β)·f(α)·g(α⁻¹β)."""
        R, H = self.ring, self.group
        out = [R.zero] * len(H)
        for i, a in enumerate(H.elements):
            fa = f[i]
            if fa == R.zero:
                continue
            ainv = H.inverse[a]
            for k, b in enumerate(H.elements):
                gb = g[self.index[H.mul[(ainv, b)]]]
                if gb == R.zero:
                    continue
                term = R.mul(self.cvals[(a, H.mul[(ainv, b)])], R.mul(fa, gb))
                out[k] = R.add(out[k], term)
        return tuple(out)

    def elements(self, cap=DEFAULT_CAP):
        size = self.ring.size ** len(self.group)
        if size > cap:
            raise CapExceeded(size, cap)
        return [tuple(v) for v in itertools.product(
            self.ring.all_indices(), repeat=len(self.group))]

    def is_trivial_unit(self, f):
        """Of the form t·δ_g with t a ring unit."""
        support = [i for i, v in enumerate(f) if v != self.ring.zero]
        return len(support) == 1 and self.ring.is_unit(f[support[0]])


def enumerate_units(T, cap=DEFAULT_CAP, oracle=False):
    """All invertible elements, split into trivial and nontrivial.

    The primary path solves f*x = δ_e as a linear system per candidate f
    and then verifies x*f = δ_e; with oracle=True a full pairwise product
    scan is used instead.
    """
    one = T.one()
    everything = T.elements(cap=cap)
    units, trivial, nontrivial = [], [], []
    if oracle:
        left_inverse = {}
        for f in everything:
            for x in everything:
                if T.mul(f, x) == one and T.mul(x, f) == one:
                    left_inverse[f] = x
                    break
        found = set(left_inverse)
    else:
        found = set()
        for f in everything:
            inv = _solve_right_inverse(T, f, cap=cap)
            if inv is not None and T.mul(inv, f) == one:
                found.add(f)
    for f in everything:
        if f in found:
            units.append(f)
            (trivial if T.is_trivial_unit(f) else nontrivial).append(f)
    return units, trivial, nontrivial


def _solve_right_inverse(T, f, cap=DEFAULT_CAP):
    """Solve f*x = δ_e via the ring's linear solver; None when unsolvable."""
    R, H = T.ring, T.group
    n = len(H)
    # coefficient of x_j in (f*x)(β_k): c(α, α⁻¹β_k)·f(α) where α⁻¹β_k = basis j
    equations = []
    one_vec = T.one()
    for k, beta in enumerate(H.elements):
        coeffs = [R.zero] * n
        for i, a in enumerate(H.elements):
            if f[i] == R.zero:
                continue
            j = T.index[H.mul[(H.inverse[a], beta)]]
            coeffs[j] = R.add(coeffs[j], R.mul(T.cvals[(a, H.mul[(H.inverse[a], beta)])], f[i]))
        equations.append((coeffs, one_vec[k]))
    solutions = finring.solve_linear(R, equations, n, cap=cap)
    return tuple(solutions[0]) if solutions else None


def decomposable_unit(T, f_idem, g):
    """A nontrivial unit built from a nontrivial ring idempotent f:
    a = f·δ_e + (1−f)·δ_g, with verified inverse f·δ_e + (1−f)·c(g,g⁻¹)⁻¹·δ_{g⁻¹}.
    """
    R, H = T.ring, T.group
    if R.mul(f_idem, f_idem) != f_idem or f_idem in (R.zero, R.one):
        raise ValueError("need a nontrivial idempotent of the ring")
    if g == H.identity:
        raise ValueError("need a non-identity group element")
    comp = R.sub(R.one, f_idem)
    a = T.add(T.delta(H.identity, f_idem), T.delta(g, comp))
    cg = T.cvals[(g, H.inverse[g])]
    b = T.add(T.delta(H.identity, f_idem),
              T.delta(H.inverse[g], R.mul(comp, R.unit_inverse(cg))))
    if T.mul(a, b) != T.one() or T.mul(b, a) != T.one():
        raise AssertionError("constructed inverse failed verification")
    if T.is_trivial_unit(a):
        raise AssertionError("constructed unit is unexpectedly trivial")
    return a, b


def nonreduced_unit(T, n, g):
    """A nontrivial unit built from a nonzero ring nilpotent n:
    δ_e − n·δ_g, inverted by the geometric series δ_e + n·δ_g + (n·δ_g)² + ...
    (for n² = 0 the series stops at the first-order term).
    """
    R, H = T.ring, T.group
    if n == R.zero:
        raise ValueError("need a nonzero nilpotent")
    power, nilpotent = n, False
    for _ in range(R.size):
        power = R.mul(power, n)
        if power == R.zero:
            nilpotent = True
            break
    if not nilpotent:
        raise ValueError(f"{R.label(n)} is not nilpotent")
    if g == H.identity:
        raise ValueError("need a non-identity group element")
    x = T.delta(g, n)
    a = T.sub(T.one(), x)
    inv = T.one()
    term = x
    while term != T.zero():
        inv = T.add(inv, term)
        term = T.mul(term, x)
    if T.mul(a, inv) != T.one() or T.mul(inv, a) != T.one():
        raise AssertionError("geometric-series inverse failed verification")
    if T.is_trivial_unit(a):
        raise AssertionError("constructed unit is unexpectedly trivial")
    return a, inv


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
