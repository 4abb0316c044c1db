"""Discrete unit-group twists over a finite groupoid.

Two representations are used.  The canonical one is a normalised 2-cocycle
c on the base groupoid with values in the unit group of the coefficient
ring; the twist groupoid is then the cartesian product of base arrows with
units, multiplied with the cocycle correction.  Input and rebuilt twists
are both cocycles.  The explicit-extension form keeps the total groupoid,
the central injection and the projection as first-class data so the
extension axioms can be checked directly.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain
from types import MappingProxyType

from . import finring
from .groupoid import composition_rows, generating_set, generator_pairs, \
    greedy_generators, groupoid_from_rows, isotropy_fibre_group, \
    validate_groupoid
# not called here; bench/test_bench.py requires this module to bind it
from .groupoid import make_groupoid  # noqa: F401


class Cocycle:
    """A normalised unit-valued 2-cocycle on a finite groupoid.

    The values are stored as rows at the places of the groupoid's
    composition index (groupoid.composition_rows): rows[i][k] is
    c(a, k-th arrow of ending[src a]) for a = arrows[i], so the rows read
    in order follow G.composable_pairs().  The package reads them through
    value; values, {(a, b): c(a, b)}, is a read-only view kept for callers
    outside the package, derived from the rows on first use (cocycle_dict).
    """

    def __init__(self, ring, groupoid, values=None):
        """values maps composable pairs (a, b) to c(a, b), 1 where absent;
        it fills the rows in one pass over its entries."""
        self.ring = ring
        self.groupoid = groupoid
        self._values = None
        self._passed = False  # set by check_cocycle on a pass
        G = groupoid
        ending, pos, _ = composition_rows(G)
        self.rows = [[ring.one] * len(ending.get(G.src[a], ()))
                     for a in G.arrows]
        for (a, b), v in (values or {}).items():
            i, j = G.number.get(a), G.number.get(b)
            if i is None or j is None or G.src[a] != G.rng[b]:
                raise ValueError(
                    f"cocycle value on non-composable pair {(a, b)}")
            self.rows[i][pos[j]] = v

    @property
    def values(self):
        if self._values is None:
            self._values = MappingProxyType(cocycle_dict(self))
        return self._values

    def value(self, a, b):
        """c(a, b) read off the rows; KeyError unless src(a) == rng(b)."""
        G = self.groupoid
        if G.src[a] != G.rng[b]:
            raise KeyError((a, b))
        return self.rows[G.number[a]][composition_rows(G)[1][G.number[b]]]


def cocycle_from_rows(ring, groupoid, rows):
    """The Cocycle with these rows, as it stores them; ValueError unless
    there is one row per arrow with one value per composable pair."""
    c = Cocycle(ring, groupoid)
    if len(rows) != len(c.rows) or \
            any(len(row) != len(ones) for row, ones in zip(rows, c.rows)):
        raise ValueError("cocycle rows do not have the shape of the composition")
    c.rows = [list(row) for row in rows]
    return c


def cocycle_dict(c):
    """The values view of c, {(a, b): c(a, b)} in the order of
    c.groupoid.composable_pairs(), which the rows of c follow."""
    return {(a, b): v for (a, b, _), v in zip(c.groupoid.composable_pairs(),
                                              chain.from_iterable(c.rows))}


def trivial_cocycle(ring, groupoid):
    return Cocycle(ring, groupoid)


def coboundary_cocycle(ring, groupoid, b):
    """The cocycle c(α,β) = b(α)·b(β)·b(αβ)⁻¹ for b: arrows → units,
    b(unit)=1, its rows in the order of groupoid.composable_pairs()."""
    R = ring
    for u in groupoid.units:
        if b.get(u, R.one) != R.one:
            raise ValueError("b must be 1 on unit arrows")
    for g in groupoid.arrows:
        if not R.is_unit(b.get(g, R.one)):
            raise ValueError(f"b({g}) is not a unit")
    mul, one = R.mul_table, R.one
    values = iter([mul[mul[b.get(al, one)][b.get(be, one)]]
                   [R.unit_inverse(b.get(prod, one))]
                   for al, be, prod in groupoid.composable_pairs()])
    # a cocycle's rows have the shape of the composition's
    return cocycle_from_rows(R, groupoid, [
        [next(values) for _ in row] for row in composition_rows(groupoid)[2]])


def check_cocycle(c):
    """Unit-valuedness, the 2-cocycle identity, normalisation.  Violation list.

    The composition is complete and well-ended, as every FiniteGroupoid's
    is by construction, and the coefficient ring is assumed commutative
    (validate_ring); associativity of the groupoid is not assumed.  The
    values are checked to be units first.  When they are, Light's test
    decides the identity
    c(a,b)·c(ab,g) = c(a,bg)·c(b,g) with the middle arrow b ranging over
    groupoid.generating_set only (see groupoid._associativity_faults,
    with the proof for a composition; Clifford and Preston, The Algebraic
    Theory of Semigroups I, 1961, §1.2).  Apply that proof to
    Σ = G × R^× with (a,t)(b,s) = (ab, c(a,b)·ts): its composition is
    complete and well-ended because c is unit-valued, and as R is
    commutative and tsr a unit, ((a,t)(b,s))(g,r) = (a,t)((b,s)(g,r))
    exactly when (ab)g = a(bg) and the identity holds at (a, b, g).  So
    (b, s) lies in the set T of Σ exactly when b passes both with b in
    the middle, for every a and g.  As (b₁,1)(b₂,1) lies over b₁b₂, these
    b are closed under composition; they contain the generators, so they
    are every arrow.  The test therefore also compares the composition
    rows of G.  Only when it fails, or a value is not a unit, are the
    faults named, by one row comparison per composable pair (a, b), in
    the order of the triple loop.  A pass is kept on c, so that
    twist_from_cocycle does not check c again.

    In row form, over g in ending[src b] (groupoid.composition_rows),
    vals are the rows of c, vals[a][k] = c(a, k-th arrow of
    ending[src a]).  As src(ab) = src b, c(ab, g) is vals[ab][k] and
    c(b, g) is vals[b][k]; as bg ends at src a, c(a, bg) is
    vals[a][row[b][k]].
    """
    R, G = c.ring, c.groupoid
    arrows, vals = G.arrows, c.rows
    table = composition_rows(G)
    ending, pos, _ = table
    units = finring.ring_units(R)
    bad = []
    for a, row in zip(arrows, vals):
        if not units.issuperset(row):
            bad.extend(f"value at {(a, arrows[j])} is not a unit"
                       for j, v in zip(ending.get(G.src[a], ()), row)
                       if not R.is_unit(v))
    if bad or not _passes_light_test(c, table, vals):
        bad.extend(_cocycle_identity_faults(c, table, vals))
    for i, g in enumerate(arrows):
        if vals[G.number[G.unit_at[G.rng[g]]]][pos[i]] != R.one:
            bad.append(f"not normalised on (unit, {g})")
        if vals[i][pos[G.number[G.unit_at[G.src[g]]]]] != R.one:
            bad.append(f"not normalised on ({g}, unit)")
    c._passed = not bad
    return bad


def _passes_light_test(c, table, vals):
    """Whether the composition rows of G and the 2-cocycle identity hold
    with the middle arrow in groupoid.generating_set; see check_cocycle.
    The rows of a G that has passed its own Light's test are not compared
    again (groupoid._associativity_faults)."""
    mul, G = c.ring.mul_table, c.groupoid
    _, pos, rows = table
    # the rows of R.mul_table at the values of each left factor
    muls = [[mul[v] for v in row] for row in vals]
    for a, b, ab in generator_pairs(G):
        row_a, muls_a, row_b = rows[a], muls[a], rows[b]
        if not G._associative and rows[ab] != [row_a[k] for k in row_b]:
            return False
        left = muls_a[pos[b]]
        if [left[v] for v in vals[ab]] != \
                [muls_a[k][v] for k, v in zip(row_b, vals[b])]:
            return False
    return True


def _cocycle_identity_faults(c, table, vals):
    """The faults of the 2-cocycle identity in triple-loop order, one row
    comparison per composable pair (a, b); see check_cocycle."""
    G, mul, arrows = c.groupoid, c.ring.mul_table, c.groupoid.arrows
    ending, _, rows = table
    bad = []
    for a, row_a, vals_a in zip(arrows, rows, vals):
        into_a = ending[G.rng[a]]
        for j, ab_k, v_ab in zip(ending.get(G.src[a], ()), row_a, vals_a):
            left = mul[v_ab]
            lhs = [left[v] for v in vals[into_a[ab_k]]]
            rhs = [mul[vals_a[k]][v] for k, v in zip(rows[j], vals[j])]
            if lhs != rhs:
                b, gs = arrows[j], ending[G.src[arrows[j]]]
                bad.extend(f"cocycle identity fails at ({a},{b},{arrows[g]})"
                           for g, x, y in zip(gs, lhs, rhs) if x != y)
    return bad


def is_associative(c):
    """Whether G passes validate_groupoid and c check_cocycle, so that the
    twist of c and its convolution algebra are associative.  Both passes
    are kept, on G and on c, and neither is run again after one."""
    G = c.groupoid
    return (G._associative or not validate_groupoid(G)) and \
        (c._passed or not check_cocycle(c))


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
        return self.total.composite(self.inj[(x, t)], sigma)

    def units_of_ring(self):
        return sorted(finring.ring_units(self.ring))


def twist_from_cocycle(c):
    """Build the product extension with cocycle-corrected multiplication:
    (a, t)∘(b, u) = (a∘b, c(a,b)·t·u), as the rows of the total groupoid.

    Its arrows (g, t) run over the base arrows g and, within each, the
    units t in sorted order, so the total arrows ending at x are the
    (b, u) with b ending at x, in that order: (b, u) has the place
    pos(b)·|R^×| + place(u).  The entry of (a, t) at (b, u) is therefore
    pos(a∘b)·|R^×| + place(c(a,b)·t·u), read off the base rows, the rows
    of c and R.mul_table.  For w = c(a,b)·t these |R^×| entries are the
    block k·|R^×| + place(w·u) over u, which depends only on k = pos(a∘b)
    and w, so each block is built once and the rows are joined from
    them.  A cocycle that has not passed check_cocycle is checked first."""
    bad = [] if c._passed else check_cocycle(c)
    if bad:
        raise ValueError("invalid cocycle: " + bad[0])
    R, G = c.ring, c.groupoid
    mul = R.mul_table
    units = sorted(finring.ring_units(R))
    place = {t: k for k, t in enumerate(units)}
    arrows = [(g, t) for g in G.arrows for t in units]
    src = {(g, t): G.src[g] for (g, t) in arrows}
    rng = {(g, t): G.rng[g] for (g, t) in arrows}
    ending, _, base_rows = composition_rows(G)
    blocks = [{w: [k * len(units) + place[mul[w][u]] for u in units]
               for w in units} for k in range(max(map(len, ending.values())))]
    rows = [[e for k, v in zip(row, vals) for e in blocks[k][mul[v][t]]]
            for row, vals in zip(base_rows, c.rows) for t in units]
    total = groupoid_from_rows(f"twist({G.name})", list(G.objects), arrows,
                               src, rng, rows)
    inj = {(x, t): (G.unit_at[x], t) for x in G.objects for t in units}
    proj = {(g, t): g for (g, t) in arrows}
    return ExplicitTwist(R, total, base=G, inj=inj, proj=proj)


def check_twist_axioms(T):
    """Verify the extension axioms; returns a violation list.

    Each axiom takes one pass: the arrows of total are grouped by proj
    once, for surjectivity, exactness and the fibre sizes, and the action
    t·σ = inj(rng σ, t)∘σ and σ·t = σ∘inj(src σ, t) are read off the
    composition rows of inj(rng σ, t) and of σ (groupoid.composition_rows),
    for centrality and freeness.  The violations are listed axiom by
    axiom.  A proj that is not defined on every arrow, or does not keep
    the ends, ends the check after its own faults, as every later axiom
    reads it; an inj(x, t) that is not an arrow from x to x skips the
    axioms that compose with it, multiplicativity of inj, centrality and
    freeness.

    Total and base have passed validate_groupoid when the maps are read,
    so three axioms are decided on generators, and every pair or arrow is
    walked only when that test fails, to name the faults:
    - proj on the generator pairs of total (_proj_is_multiplicative);
    - inj(x,t)∘inj(x,u) = inj(x,tu) for u in a generating set U of R^×
      (_unit_generators).  If it holds at u and v for every x and t then
      inj(x,t)∘inj(x,uv) = (inj(x,t)∘inj(x,u))∘inj(x,v) = inj(x,tuv), as
      total is associative; so it holds at every product of elements of
      U, which is every unit, R^× being finite;
    - centrality on generating_set(total) and freeness on the unit arrows.
      If t·σ′ = σ′·t and t·s = s·t for every t, then for σ = σ′∘s,
      t·σ = (t·σ′)∘s = (σ′·t)∘s = σ′∘(t·s) = σ′∘(s·t) = σ·t, the action
      being a composite in an associative total; so centrality at the
      generators gives it at every composite of them, which is every
      arrow.  As σ is invertible, t·σ = σ iff inj(rng σ, t) is the unit
      at rng σ, that is iff t·1 = 1 for the unit arrow 1 at rng σ.
    """
    R = T.ring
    units = T.units_of_ring()
    total, base, proj, inj = T.total, T.base, T.proj, T.inj
    bad = []
    bad.extend("total groupoid: " + v for v in validate_groupoid(total))
    bad.extend("base groupoid: " + v for v in validate_groupoid(base))
    if bad:
        return bad
    # proj is a surjective homomorphism
    fibres = {}  # base arrow -> the total arrows over it
    for s in total.arrows:
        g = proj.get(s)
        if g is None:
            bad.append(f"proj undefined on {s}")
            continue
        fibres.setdefault(g, []).append(s)
        if base.src[g] != total.src[s] or base.rng[g] != total.rng[s]:
            bad.append(f"proj does not respect src/rng at {s}")
    proj_is_a_map = not bad
    if fibres.keys() != set(base.arrows):
        bad.append("proj is not surjective")
    if not proj_is_a_map:
        return bad
    if bad or not _proj_is_multiplicative(total, base, proj):
        for a, b, ab in total.composable_pairs():
            if _composite_or_none(base, proj[a], proj[b]) != proj[ab]:
                bad.append(f"proj not multiplicative at ({a},{b})")
    # inj is an injective homomorphism over the unit space
    seen = {}
    inj_at_objects = True
    for (x, t), s in inj.items():
        if s in seen:
            bad.append(f"inj not injective: {(x, t)} and {seen[s]} collide")
        seen[s] = (x, t)
        if total.src[s] != total.rng[s] or proj[s] != base.unit_at[x]:
            bad.append(f"inj({x},{t}) does not sit over the unit at {x}")
        inj_at_objects &= total.src[s] == x == total.rng[s]

    def multiplies(x, t, u):
        return total.composite(inj[(x, t)], inj[(x, u)]) == \
            inj[(x, R.mul(t, u))]

    gens = _unit_generators(R, units)
    if inj_at_objects and not all(multiplies(x, t, u) for x in base.objects
                                  for t in units for u in gens):
        bad.extend(f"inj not multiplicative at ({x},{t},{u})"
                   for x in base.objects for t in units for u in units
                   if not multiplies(x, t, u))
    # exactness: the fibre over each unit of the base is exactly inj({x} x units)
    for x in base.objects:
        if set(fibres.get(base.unit_at[x], ())) != {inj[(x, t)] for t in units}:
            bad.append(f"exactness fails over object {x}")
    # centrality, and the action is free.  Each inj(x, t) is an arrow from
    # x to x and proj keeps the ends, so t·σ is the entry of the row of
    # inj(rng σ, t) at the place of σ, and σ·t the entry of the row of σ at
    # the place of inj(src σ, t); both end at rng σ, so they are compared
    # as places in ending[rng σ], and t·σ = σ when that place is σ's own
    not_free = []
    _, pos, rows = composition_rows(total)
    one = units.index(R.one)
    at = {x: [total.number[inj[(x, t)]] for t in units] for x in base.objects}

    def action_faults(i):
        """The centrality and freeness faults at σ = total.arrows[i]."""
        s, here = total.arrows[i], pos[i]
        left = [rows[k][here] for k in at[base.rng[proj[s]]]]  # t·σ
        right = [rows[i][pos[k]] for k in at[base.src[proj[s]]]]  # σ·t
        return ([f"centrality fails at ({s},{t})"
                 for t, ts, st in zip(units, left, right) if ts != st],
                [f"action not free: {t}·{s} = {s}"
                 for k, (t, ts) in enumerate(zip(units, left))
                 if ts == here and k != one])

    probe = {*generating_set(total), *map(total.number.get, total.units)}
    if inj_at_objects and any(any(action_faults(i)) for i in probe):
        for i in range(len(total.arrows)):
            central, free = action_faults(i)
            bad.extend(central)
            not_free.extend(free)
    # fibre sizes (local triviality in the finite discrete setting)
    for g in base.arrows:
        size = len(fibres.get(g, ()))
        if size != len(units):
            bad.append(f"fibre over {g} has size {size}, expected {len(units)}")
    # proj restricts to a bijection of unit spaces
    tot_units = {total.unit_at[x] for x in total.objects}
    proj_units = {proj[u] for u in tot_units}
    if proj_units != {base.unit_at[x] for x in base.objects} or \
            len(proj_units) != len(tot_units):
        bad.append("unit spaces do not correspond bijectively")
    return bad + not_free


def _unit_generators(R, units):
    """A set U that generates R^× under products, as the elements of the
    units taken by groupoid.greedy_generators, which walks them in
    decreasing multiplicative order, the number of distinct powers: a
    cyclic R^× then has one generator, its first element, and every R^×
    at most 1 + log₂ |R^×|."""
    mul = R.mul_table
    ranked = sorted(units, reverse=True, key=lambda t: len(set(accumulate(
        [t] * len(units), lambda power, _: mul[power][t]))))
    place = {t: k for k, t in enumerate(ranked)}
    ends = [0] * len(ranked)
    gens, _ = greedy_generators(
        ends, ends, lambda y, g: place[mul[ranked[y]][ranked[g]]])
    return [ranked[k] for k in gens]


def _proj_is_multiplicative(total, base, proj):
    """Whether proj(a∘c) = proj(a)∘proj(c) on every composite of total,
    for total and base associative and a proj onto the base arrows that
    keeps the ends, read off the composition rows of both groupoids
    (groupoid.composition_rows).

    By Light's lemma for maps (groupoid.generator_pairs) the generator
    pairs (a, c) of total decide it.  Both sides end at rng a, so each is
    compared as its place among the base arrows that end there: the
    place of proj(a∘c) against row[proj a][place of proj c] in base.
    """
    _, base_pos, base_rows = composition_rows(base)
    image = [base.number[proj[s]] for s in total.arrows]
    place = [base_pos[g] for g in image]
    return all(place[ac] == base_rows[image[a]][place[c]]
               for a, c, ac in generator_pairs(total))


def _composite_or_none(G, a, b):
    """a∘b in G, or None unless a and b are composable arrows of G."""
    try:
        return G.composite(a, b)
    except KeyError:
        return None


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
            prod = total.composite(zeta[a], zeta[b])
            for t in units:
                if T.act(t, zeta[group.mul[(a, b)]]) == prod:
                    values[(a, b)] = t
                    break
            else:
                raise ValueError(f"fibre section product escapes the fibre at ({a},{b})")
    return FibreCocycle(group, values)
