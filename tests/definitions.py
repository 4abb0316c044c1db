"""The tests' definitional references: constructions the commands never run,
written from the definitions and kept here so that the tests can check the
package against them.

- Twisted convolution algebras: the contravariant indicator of a twist
  bisection, the product of two twist bisections, a decomposition into
  bisection indicators, every element of an algebra, the restriction
  expectation and the value at a twist point.
- Twisted group rings: the nontrivial units built from a ring idempotent
  and from a ring nilpotent.
- Rings: whether a ring is reduced.
- Pairs: the convolution-algebra element of a coefficient tuple.
"""

import itertools

from quasicartan import finring
from quasicartan.steinberg import AlgebraElement, is_bisection


# -- twisted convolution algebras ---------------------------------------


def indicator_tilde(cocycle, assignment):
    """The contravariant indicator of a twist bisection.

    The bisection is given as a map from a base bisection to units: the
    arrow γ with assigned unit u stands for the twist point (γ, u), where
    the indicator takes value 1; on the canonical section this reads as
    coeffs(γ) = u.
    """
    G = cocycle.groupoid
    R = cocycle.ring
    if not is_bisection(G, assignment.keys()):
        raise ValueError("arrow set is not a bisection")
    for g, u in assignment.items():
        if not R.is_unit(u):
            raise ValueError(f"assigned value at {g} is not a unit")
    return AlgebraElement(cocycle, dict(assignment))


def multiply_bisections(cocycle, X, Y):
    """The pointwise product of two twist bisections (as assignments)."""
    G, R = cocycle.groupoid, cocycle.ring
    out = {}
    for a, u in X.items():
        for b, v in Y.items():
            if G.src[a] != G.rng[b]:
                continue
            g = G.composite(a, b)
            if g in out:
                raise ValueError("product of assignments is not single-valued")
            out[g] = R.mul(cocycle.value(a, b), R.mul(u, v))
    if not is_bisection(G, out.keys()):
        raise ValueError("product is not a bisection")
    return out


def decompose_as_bisections(f):
    """Write f as a sum of ring coefficients times bisection indicators.

    Groups the support by coefficient value and greedily splits each group
    into bisections; the resulting base supports are mutually disjoint and
    reassemble to f exactly.
    """
    c = f.cocycle
    G = c.groupoid
    by_value = {}
    for g, v in sorted(f.coeffs.items(), key=lambda kv: str(kv[0])):
        by_value.setdefault(v, []).append(g)
    terms = []
    for v, arrows in sorted(by_value.items()):
        chunks = []
        for g in arrows:
            for chunk in chunks:
                if is_bisection(G, chunk + [g]):
                    chunk.append(g)
                    break
            else:
                chunks.append([g])
        for chunk in chunks:
            terms.append((v, indicator_tilde(c, {g: c.ring.one for g in chunk})))
    return terms


def enumerate_elements(cocycle, cap=finring.DEFAULT_CAP):
    """Every element of the algebra; |R|^(#arrows) must stay under the cap."""
    R, G = cocycle.ring, cocycle.groupoid
    size = R.size ** len(G.arrows)
    if size > cap:
        raise finring.CapExceeded(size, cap)
    out = []
    for vec in itertools.product(R.all_indices(), repeat=len(G.arrows)):
        out.append(AlgebraElement(cocycle, dict(zip(G.arrows, vec))))
    return out


def restriction_expectation(cocycle):
    """The map keeping unit-arrow coefficients and zeroing the rest."""
    unit_arrows = set(cocycle.groupoid.units)

    def P(f):
        return AlgebraElement(cocycle,
                              {g: v for g, v in f.coeffs.items() if g in unit_arrows})

    return P


def value_at_point(f, g, t):
    """The function value of f at the twist point (γ, t): t⁻¹·coeffs(γ)."""
    R = f.cocycle.ring
    return R.mul(R.unit_inverse(t), f.coeffs.get(g, R.zero))


# -- twisted group rings ------------------------------------------------


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


# -- rings and pairs ----------------------------------------------------


def is_reduced(R):
    """True when the ring has no nonzero nilpotents."""
    for x in R.all_indices():
        if x == R.zero:
            continue
        power = x
        for _ in range(R.size):
            power = R.mul(power, x)
            if power == R.zero:
                return False
    return True


def vector_to_element(pair, vec):
    """The convolution-algebra element of a pair_from_twist pair with the
    coefficient tuple vec; pairs.element_to_vector inverts it."""
    return AlgebraElement(
        pair.cocycle, {g: vec[i] for g, i in pair.algebra.index.items()})
