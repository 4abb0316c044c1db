"""The twisted convolution algebra of a finite groupoid.

An element is a unit-contravariant function on the twist groupoid; since
the twist is presented by a cocycle, the values on the canonical section
(γ, 1) determine everything, so elements are stored as sparse coefficient
maps arrow → ring element.  The function value at the point (γ, t) is
t⁻¹·coeffs(γ).
"""

from __future__ import annotations


class AlgebraElement:
    """A sparse coefficient vector over the arrows of the base groupoid."""

    __slots__ = ("cocycle", "coeffs")

    def __init__(self, cocycle, coeffs):
        self.cocycle = cocycle
        R = cocycle.ring
        self.coeffs = {g: v for g, v in coeffs.items() if v != R.zero}

    def support(self):
        return set(self.coeffs)

    def __add__(self, other):
        R = self.cocycle.ring
        out = dict(self.coeffs)
        for g, v in other.coeffs.items():
            out[g] = R.add(out.get(g, R.zero), v)
        return AlgebraElement(self.cocycle, out)

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


class DiagonalSubalgebra:
    """The elements supported on unit arrows."""

    def __init__(self, cocycle):
        self.unit_arrows = set(cocycle.groupoid.units)

    def contains(self, f):
        return f.support() <= self.unit_arrows


def diagonal(cocycle):
    return DiagonalSubalgebra(cocycle)
