"""Discrete unit-group twists over a finite groupoid.

Two representations are used.  The canonical one is a normalised 2-cocycle
c on the base groupoid with values in the unit group of the coefficient
ring; the twist groupoid is then the cartesian product of base arrows with
units, multiplied with the cocycle correction.  The explicit-extension
form keeps the total groupoid, the central injection and the projection as
first-class data so the extension axioms can be checked directly and so a
rebuilt twist can be compared against an input one.
"""

from __future__ import annotations

from collections import namedtuple

from . import finring
from .groupoid import isotropy_fibre_group, make_groupoid, validate_groupoid


class Cocycle:
    """A normalised unit-valued 2-cocycle on a finite groupoid."""

    def __init__(self, ring, groupoid, values=None):
        self.ring = ring
        self.groupoid = groupoid
        self.values = {}
        values = values or {}
        for pair in groupoid.composable_pairs():
            self.values[pair] = values.get(pair, ring.one)
        for pair in values:
            if pair not in self.values:
                raise ValueError(f"cocycle value on non-composable pair {pair}")

    def value(self, a, b):
        return self.values[(a, b)]


def trivial_cocycle(ring, groupoid):
    return Cocycle(ring, groupoid)


def coboundary_cocycle(ring, groupoid, b):
    """The cocycle c(α,β) = b(α)·b(β)·b(αβ)⁻¹ for b: arrows → units, b(unit)=1."""
    R = ring
    for u in groupoid.units:
        if b.get(u, R.one) != R.one:
            raise ValueError("b must be 1 on unit arrows")
    for g in groupoid.arrows:
        if not R.is_unit(b.get(g, R.one)):
            raise ValueError(f"b({g}) is not a unit")
    values = {}
    for (al, be), prod in groupoid.compose.items():
        v = R.mul(b.get(al, R.one), b.get(be, R.one))
        values[(al, be)] = R.mul(v, R.unit_inverse(b.get(prod, R.one)))
    return Cocycle(ring, groupoid, values)


def check_cocycle(c):
    """Unit-valuedness, the 2-cocycle identity, normalisation.  Violation list."""
    R, G = c.ring, c.groupoid
    bad = []
    for pair, v in c.values.items():
        if not R.is_unit(v):
            bad.append(f"value at {pair} is not a unit")
    for a in G.arrows:
        for b in G.arrows:
            if G.src[a] != G.rng[b]:
                continue
            ab = G.compose[(a, b)]
            for g in G.arrows:
                if G.src[b] != G.rng[g]:
                    continue
                bg = G.compose[(b, g)]
                lhs = R.mul(c.value(a, b), c.value(ab, g))
                rhs = R.mul(c.value(a, bg), c.value(b, g))
                if lhs != rhs:
                    bad.append(f"cocycle identity fails at ({a},{b},{g})")
    for g in G.arrows:
        if c.value(G.unit_at[G.rng[g]], g) != R.one:
            bad.append(f"not normalised on (unit, {g})")
        if c.value(g, G.unit_at[G.src[g]]) != R.one:
            bad.append(f"not normalised on ({g}, unit)")
    return bad


class ExplicitTwist:
    """A central extension of a groupoid by the ring's unit group.

    total is the extension groupoid, base the quotient, inj the central
    injection (object, unit) -> total arrow, proj the projection total
    arrow -> base arrow.
    """

    def __init__(self, ring, total, base, inj, proj):
        self.ring = ring
        self.total = total
        self.base = base
        self.inj = dict(inj)
        self.proj = dict(proj)

    def act(self, t, sigma):
        """The unit-group action t·σ = inj(rng σ, t)∘σ."""
        # inj is keyed by base objects; read the base range through proj so
        # this also works when total and base carry different object labels.
        x = self.base.rng[self.proj[sigma]]
        return self.total.compose[(self.inj[(x, t)], sigma)]

    def units_of_ring(self):
        return sorted(finring.ring_units(self.ring))


def twist_from_cocycle(c):
    """Build the product extension with cocycle-corrected multiplication."""
    bad = check_cocycle(c)
    if bad:
        raise ValueError("invalid cocycle: " + bad[0])
    R, G = c.ring, c.groupoid
    units = sorted(finring.ring_units(R))
    arrows = [(g, t) for g in G.arrows for t in units]
    src = {(g, t): G.src[g] for (g, t) in arrows}
    rng = {(g, t): G.rng[g] for (g, t) in arrows}
    compose = {}
    for (a, b), ab in G.compose.items():
        cv = c.value(a, b)
        for t in units:
            for u in units:
                compose[((a, t), (b, u))] = (ab, R.mul(cv, R.mul(t, u)))
    total = make_groupoid(f"twist({G.name})", list(G.objects), arrows, src, rng, compose)
    inj = {(x, t): (G.unit_at[x], t) for x in G.objects for t in units}
    proj = {(g, t): g for (g, t) in arrows}
    return ExplicitTwist(R, total, base=G, inj=inj, proj=proj)


def check_twist_axioms(T):
    """Verify the extension axioms exhaustively; returns a violation list."""
    R = T.ring
    units = T.units_of_ring()
    total, base = T.total, T.base
    bad = []
    bad.extend("total groupoid: " + v for v in validate_groupoid(total))
    bad.extend("base groupoid: " + v for v in validate_groupoid(base))
    if bad:
        return bad
    # proj is a surjective homomorphism
    image = set()
    for s in total.arrows:
        g = T.proj.get(s)
        if g is None:
            bad.append(f"proj undefined on {s}")
            continue
        image.add(g)
        if base.src[g] != total.src[s] or base.rng[g] != total.rng[s]:
            bad.append(f"proj does not respect src/rng at {s}")
    if image != set(base.arrows):
        bad.append("proj is not surjective")
    for (a, b), ab in total.compose.items():
        pa, pb = T.proj[a], T.proj[b]
        if base.compose.get((pa, pb)) != T.proj[ab]:
            bad.append(f"proj not multiplicative at ({a},{b})")
    # inj is an injective homomorphism over the unit space
    seen = {}
    for (x, t), s in T.inj.items():
        if s in seen:
            bad.append(f"inj not injective: {(x, t)} and {seen[s]} collide")
        seen[s] = (x, t)
        if total.src[s] != total.rng[s] or T.proj[s] != base.unit_at[x]:
            bad.append(f"inj({x},{t}) does not sit over the unit at {x}")
    for x in base.objects:
        for t in units:
            for u in units:
                lhs = total.compose[(T.inj[(x, t)], T.inj[(x, u)])]
                if lhs != T.inj[(x, R.mul(t, u))]:
                    bad.append(f"inj not multiplicative at ({x},{t},{u})")
    # exactness: the fibre over each unit of the base is exactly inj({x} x units)
    for x in base.objects:
        fibre = {s for s in total.arrows if T.proj[s] == base.unit_at[x]}
        if fibre != {T.inj[(x, t)] for t in units}:
            bad.append(f"exactness fails over object {x}")
    # centrality
    for s in total.arrows:
        xr = base.rng[T.proj[s]]
        xs = base.src[T.proj[s]]
        for t in units:
            left = total.compose[(T.inj[(xr, t)], s)]
            right = total.compose[(s, T.inj[(xs, t)])]
            if left != right:
                bad.append(f"centrality fails at ({s},{t})")
    # fibre sizes (local triviality in the finite discrete setting)
    for g in base.arrows:
        fibre = [s for s in total.arrows if T.proj[s] == g]
        if len(fibre) != len(units):
            bad.append(f"fibre over {g} has size {len(fibre)}, expected {len(units)}")
    # proj restricts to a bijection of unit spaces
    tot_units = {total.unit_at[x] for x in total.objects}
    proj_units = {T.proj[u] for u in tot_units}
    if proj_units != {base.unit_at[x] for x in base.objects} or \
            len(proj_units) != len(tot_units):
        bad.append("unit spaces do not correspond bijectively")
    # the action is free
    for s in total.arrows:
        for t in units:
            if t != R.one and T.act(t, s) == s:
                bad.append(f"action not free: {t}·{s} = {s}")
    return bad


def canonical_section(T):
    """For a cocycle-built twist: γ ↦ (γ, 1)."""
    return {g: (g, T.ring.one) for g in T.base.arrows}


def cocycle_from_section(T, zeta):
    """Extract the cocycle of a section ζ: ζ(α)ζ(β) = c(α,β)·ζ(αβ)."""
    R, base, total = T.ring, T.base, T.total
    units = T.units_of_ring()
    for g in base.arrows:
        s = zeta.get(g)
        if s is None or T.proj[s] != g:
            raise ValueError(f"ζ is not a section at {g}")
    for x in base.objects:
        if zeta[base.unit_at[x]] != total.unit_at[x]:
            raise ValueError(f"ζ does not preserve the unit at {x}")
    values = {}
    for (a, b), ab in base.compose.items():
        prod = total.compose[(zeta[a], zeta[b])]
        for t in units:
            if T.act(t, zeta[ab]) == prod:
                values[(a, b)] = t
                break
        else:
            raise ValueError(f"section product not in the fibre at ({a},{b})")
    c = Cocycle(R, base, values)
    bad = check_cocycle(c)
    if bad:
        raise ValueError("extracted values fail the cocycle check: " + bad[0])
    return c


FibreCocycle = namedtuple("FibreCocycle", ["group", "values"])


def fibre_cocycle(T, x, zeta=None):
    """The cocycle induced on the isotropy group of the base at object x.

    Uses the restriction of a section with ζ(unit at x) = unit; by default
    the first preimage in arrow order is chosen for each fibre arrow.
    """
    base, total = T.base, T.total
    group = isotropy_fibre_group(base, x)
    fib = group.elements
    if zeta is None:
        zeta = {}
        for g in fib:
            if g == base.unit_at[x]:
                zeta[g] = total.unit_at[x]
            else:
                zeta[g] = next(s for s in total.arrows if T.proj[s] == g)
    units = T.units_of_ring()
    values = {}
    for a in fib:
        for b in fib:
            prod = total.compose[(zeta[a], zeta[b])]
            for t in units:
                if T.act(t, zeta[group.mul[(a, b)]]) == prod:
                    values[(a, b)] = t
                    break
            else:
                raise ValueError(f"fibre section product escapes the fibre at ({a},{b})")
    return FibreCocycle(group, values)
