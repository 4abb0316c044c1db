"""Twisted group rings of finite groups: units, the explicit nontrivial-unit
constructions for decomposable or non-reduced coefficient rings, and
unique-product searches on subsets of abelian groups.
"""

from __future__ import annotations

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


def enumerate_units(T, cap=DEFAULT_CAP, oracle=False):
    """All invertible elements, split into trivial and nontrivial.

    The primary path decides invertibility once per orbit of the trivial
    units U = {t·δ_g : t ∈ R^×, g ∈ H} acting by left multiplication.
    Every cocycle value is a unit (check_cocycle), so each t·δ_g is a
    unit, and U is a group: (t·δ_g)(s·δ_h) = ts·c(g,h)·δ_gh.  If
    f·x = δ_e = x·f and u ∈ U, then (u·f)(x·u⁻¹) = δ_e = (x·u⁻¹)(u·f), and
    f = u⁻¹·(u·f) gives the converse; so f is a unit iff every element
    of its orbit is.  Left multiplication by t·δ_g permutes coordinates
    with scaling, (t·δ_g·f)(gh) = t·c(g,h)·f(h), so an orbit is listed
    without products.  Walking the elements in order, the first one not
    yet seen represents its orbit: it is tested by solving f*x = δ_e and
    checking x*f = δ_e, and the verdict holds for the whole orbit.

    With oracle=True every pair (f, x) is tried as a product instead;
    its |R[H]|² products are checked against the cap before it starts.
    The lists come back in the order of T.all_elements().
    """
    pairs = (T.ring.size ** len(T.group)) ** 2
    if oracle and pairs > cap:
        raise CapExceeded(pairs, cap)
    one = T.one()
    everything = T.all_elements(cap=cap)
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
        shifts = _trivial_unit_shifts(T)
        seen, found = set(), set()
        for f in everything:
            if f in seen:
                continue
            orbit = {tuple(row[f[i]] for i, row in shift) for shift in shifts}
            seen |= orbit
            inv = _solve_right_inverse(T, f, cap=cap)
            if inv is not None and T.mul(inv, f) == one:
                found |= orbit
    for f in everything:
        if f in found:
            units.append(f)
            (trivial if T.is_trivial_unit(f) else nontrivial).append(f)
    return units, trivial, nontrivial


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


def _solve_right_inverse(T, f, cap=DEFAULT_CAP):
    """Solve f*x = δ_e via the ring's linear solver; None when unsolvable.
    The columns of the system are the products f·b_j.  One solution is
    enough: a right inverse in a finite ring is the inverse."""
    columns = [T.mul(f, e) for e in T.basis_vectors]
    one = T.one()
    equations = [([col[k] for col in columns], one[k]) for k in range(T.dim)]
    solutions = finring.solve_linear(T.ring, equations, T.dim, cap=cap,
                                     one=True)
    return solutions[0] if solutions else None


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
    cg = T.cocycle.value(g, H.inverse[g])
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
