"""The twisted convolution algebra of a finite groupoid.

An element is a unit-contravariant function on the twist groupoid; since
the twist is presented by a cocycle, the values on the canonical section
(γ, 1) determine everything, so elements are stored as sparse coefficient
maps arrow → ring element.  The function value at the point (γ, t) is
t⁻¹·coeffs(γ).
"""

from __future__ import annotations

from . import finring


class AlgebraElement:
    """A sparse coefficient vector over the arrows of the base groupoid."""

    __slots__ = ("cocycle", "coeffs")

    def __init__(self, cocycle, coeffs):
        self.cocycle = cocycle
        R = cocycle.ring
        self.coeffs = {g: v for g, v in coeffs.items() if v != R.zero}

    def value(self, g):
        return self.coeffs.get(g, self.cocycle.ring.zero)

    def value_at_point(self, g, t):
        """The function value at the twist point (γ, t)."""
        R = self.cocycle.ring
        return R.mul(R.unit_inverse(t), self.value(g))

    def support(self):
        return set(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        R = self.cocycle.ring
        out = dict(self.coeffs)
        for g, v in other.coeffs.items():
            out[g] = R.add(out.get(g, R.zero), v)
        return AlgebraElement(self.cocycle, out)

    def __sub__(self, other):
        R = self.cocycle.ring
        out = dict(self.coeffs)
        for g, v in other.coeffs.items():
            out[g] = R.sub(out.get(g, R.zero), v)
        return AlgebraElement(self.cocycle, out)

    def __neg__(self):
        R = self.cocycle.ring
        return AlgebraElement(self.cocycle, {g: R.neg(v) for g, v in self.coeffs.items()})

    def scale(self, t):
        R = self.cocycle.ring
        return AlgebraElement(self.cocycle, {g: R.mul(t, v) for g, v in self.coeffs.items()})

    def __mul__(self, other):
        return convolve(self, other)

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.cocycle is other.cocycle \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        R = self.cocycle.ring
        if not self.coeffs:
            return "0"
        return " + ".join(f"{R.label(v)}·δ[{g}]" for g, v in sorted(
            self.coeffs.items(), key=lambda kv: str(kv[0])))


def zero_element(cocycle):
    return AlgebraElement(cocycle, {})


def point_mass(cocycle, g, value=None):
    if value is None:
        value = cocycle.ring.one
    return AlgebraElement(cocycle, {g: value})


def convolve(f, g):
    """(f*g)(γ) = Σ over factorizations γ = αβ of c(α,β)·f(α)·g(β)."""
    if f.cocycle is not g.cocycle:
        raise ValueError("elements live over different twists")
    c = f.cocycle
    R, G = c.ring, c.groupoid
    out = {}
    for a, fa in f.coeffs.items():
        for b, gb in g.coeffs.items():
            if G.src[a] != G.rng[b]:
                continue
            target = G.composite(a, b)
            term = R.mul(c.value(a, b), R.mul(fa, gb))
            out[target] = R.add(out.get(target, R.zero), term)
    return AlgebraElement(c, out)


def is_bisection(G, arrow_set):
    """src and rng both injective on the set."""
    arrows = list(arrow_set)
    srcs = [G.src[a] for a in arrows]
    rngs = [G.rng[a] for a in arrows]
    return len(set(srcs)) == len(arrows) and len(set(rngs)) == len(arrows)


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


class DiagonalSubalgebra:
    """The elements supported on unit arrows."""

    def __init__(self, cocycle):
        self.cocycle = cocycle
        self.unit_arrows = set(cocycle.groupoid.units)
        self.basis = [point_mass(cocycle, u) for u in sorted(
            self.unit_arrows, key=str)]

    def contains(self, f):
        return f.support() <= self.unit_arrows

    def indicator(self, objects):
        G = self.cocycle.groupoid
        return AlgebraElement(self.cocycle,
                              {G.unit_at[x]: self.cocycle.ring.one for x in objects})

    def identity(self):
        return self.indicator(self.cocycle.groupoid.objects)

    def enumerate(self, cap=finring.DEFAULT_CAP):
        """All diagonal elements; |R|^(#objects) must stay under the cap."""
        import itertools
        R = self.cocycle.ring
        units = sorted(self.unit_arrows, key=str)
        size = R.size ** len(units)
        if size > cap:
            raise finring.CapExceeded(size, cap)
        out = []
        for vec in itertools.product(R.all_indices(), repeat=len(units)):
            out.append(AlgebraElement(self.cocycle, dict(zip(units, vec))))
        return out

    def idempotents(self):
        return [f for f in self.enumerate() if convolve(f, f) == f]


def diagonal(cocycle):
    return DiagonalSubalgebra(cocycle)


def restriction_expectation(cocycle):
    """The map keeping unit-arrow coefficients and zeroing the rest."""
    unit_arrows = set(cocycle.groupoid.units)

    def P(f):
        return AlgebraElement(cocycle,
                              {g: v for g, v in f.coeffs.items() if g in unit_arrows})

    return P


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
    import itertools
    R, G = cocycle.ring, cocycle.groupoid
    size = R.size ** len(G.arrows)
    if size > cap:
        raise finring.CapExceeded(size, cap)
    out = []
    for vec in itertools.product(R.all_indices(), repeat=len(G.arrows)):
        out.append(AlgebraElement(cocycle, dict(zip(G.arrows, vec))))
    return out
