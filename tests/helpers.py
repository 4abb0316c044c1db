"""Shared fixture twists, the one generator of twists for the property
tests, and memoized expensive computations for the tests."""

import functools
import itertools
import math
import random
from functools import lru_cache

from hypothesis import strategies as st

from quasicartan import finring as fr, groupoid as gp, grouprings as gr, \
    twist as tw, pairs as pr, reconstruct as rc

KLEIN = gp.direct_product_group(gp.cyclic_group(2), gp.cyclic_group(2))
C2_CUBED = gp.direct_product_group(KLEIN, gp.cyclic_group(2))
C2_C4 = gp.direct_product_group(gp.cyclic_group(2), gp.cyclic_group(4))


def _symmetric_group_3():
    """S3 on the permutations p of (0, 1, 2), with (p·q)(i) = p(q(i))."""
    elements = sorted(itertools.permutations(range(3)))
    return gp.FiniteGroup("S3", elements, {
        (p, q): tuple(p[i] for i in q) for p in elements for q in elements})


S3 = _symmetric_group_3()


def _sign(p):
    """0 for an even permutation, 1 for an odd one: its inversions mod 2."""
    return sum(a > b for a, b in itertools.combinations(p, 2)) % 2


# name -> builder; spans principal and non-principal bases, trivial and
# nontrivial cocycles, field and non-field coefficient rings
FIXTURE_BUILDERS = {
    "pair2_gf3": lambda: tw.trivial_cocycle(fr.make_gf(3), gp.full_relation(2)),
    "pair3_gf2": lambda: tw.trivial_cocycle(fr.make_gf(2), gp.full_relation(3)),
    "pair2_z4": lambda: tw.trivial_cocycle(fr.make_zmod(4), gp.full_relation(2)),
    "z2_gf3": lambda: tw.trivial_cocycle(
        fr.make_gf(3), gp.group_as_groupoid(gp.cyclic_group(2))),
    "z2_gf5_twisted": lambda: tw.Cocycle(
        fr.make_gf(5), gp.group_as_groupoid(gp.cyclic_group(2)), {(1, 1): 4}),
    "z2_z4": lambda: tw.trivial_cocycle(
        fr.make_zmod(4), gp.group_as_groupoid(gp.cyclic_group(2))),
    "mixed_gf3": lambda: tw.trivial_cocycle(
        fr.make_gf(3),
        gp.disjoint_union(gp.full_relation(2),
                          gp.group_as_groupoid(gp.cyclic_group(2)))),
    "klein_gf3": lambda: tw.trivial_cocycle(
        fr.make_gf(3), gp.group_as_groupoid(KLEIN)),
    "z3_gf2": lambda: tw.trivial_cocycle(
        fr.make_gf(2), gp.group_as_groupoid(gp.cyclic_group(3))),
    "pair2_gf3_coboundary": lambda: tw.coboundary_cocycle(
        fr.make_gf(3), gp.full_relation(2),
        {(1, 2): 2, (2, 1): 2, (1, 1): 1, (2, 2): 1}),
}

FIXTURE_NAMES = list(FIXTURE_BUILDERS)

# pairs small enough for full brute-force cross-validation (|A| <= 256)
SMALL_FIXTURES = ["pair2_gf3", "pair2_z4", "z2_gf3", "z2_gf5_twisted",
                  "z2_z4", "klein_gf3", "z3_gf2", "pair2_gf3_coboundary"]


# a loop of order 5 in which every element is its own inverse: on one
# object it has units and inverses, so make_groupoid takes it, but it is
# not associative
LOOP_TABLE = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
              [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def loop_groupoid():
    """The loop of LOOP_TABLE on the one object "*"."""
    arrows = list(range(5))
    ends = dict.fromkeys(arrows, "*")
    return gp.make_groupoid("loop", ["*"], arrows, ends, ends,
                            {(a, b): LOOP_TABLE[a][b]
                             for a in arrows for b in arrows})


def times_coboundary(c, choose):
    """c·∂b for b: arrows → units with b = 1 on unit arrows and each other
    value choose(units), in arrow order."""
    R, G = c.ring, c.groupoid
    units = sorted(fr.ring_units(R))
    d = tw.coboundary_cocycle(R, G, {g: choose(units) for g in G.arrows
                                     if not G.is_unit(g)})
    mul = R.mul_table
    return tw.cocycle_from_rows(R, G, [[mul[x][y] for x, y in zip(*rows)]
                                       for rows in zip(c.rows, d.rows)])


def relisted(G, reverse=True):
    """G rebuilt by make_groupoid, its objects and arrows listed in
    reverse order when reverse is set."""
    step = -1 if reverse else 1
    return gp.make_groupoid(G.name, G.objects[::step], G.arrows[::step],
                            G.src, G.rng, G.compose)


def check_cocycle_by_definition(c):
    """twist.check_cocycle by its definition: the identity over every
    triple of arrows, composable ones only."""
    R, G = c.ring, c.groupoid
    bad = [f"value at {pair} is not a unit"
           for pair, v in c.values.items() if not R.is_unit(v)]
    for a in G.arrows:
        for b in G.arrows:
            for g in G.arrows:
                if G.src[a] != G.rng[b] or G.src[b] != G.rng[g]:
                    continue
                lhs = R.mul(c.value(a, b), c.value(G.compose[(a, b)], g))
                rhs = R.mul(c.value(a, G.compose[(b, g)]), c.value(b, g))
                if lhs != rhs:
                    bad.append(f"cocycle identity fails at ({a},{b},{g})")
    for g in G.arrows:
        if c.value(G.unit_at[G.rng[g]], g) != R.one:
            bad.append(f"not normalised on (unit, {g})")
        if c.value(g, G.unit_at[G.src[g]]) != R.one:
            bad.append(f"not normalised on ({g}, unit)")
    return bad


# -- generated twists: the one strategy of the property tests ---------

# (group, the coordinate of an element and its order that the carry
# cocycle t^[x+y ≥ n] reads); C8's generating set is {0, 1}, so most of
# its arrows are not generators
GROUPS = [(gp.cyclic_group(n), lambda g: g, n) for n in range(1, 9)] + \
    [(KLEIN, lambda g: g[0], 2)]
# C2×C4 and C2³ give commutative group rings of rank 2 and 3; S3, whose
# carry reads the sign, gives rings that are not commutative.  Drawn only
# where classify's census is compared with the walk, so that the other
# call sites draw their families as often as before
CENSUS_GROUPS = [(C2_C4, lambda g: g[1], 4), (C2_CUBED, lambda g: g[1], 2),
                 (S3, _sign, 2)]


def _components(groups):
    return [(H.groupoid, (coordinate, n)) for H, coordinate, n in groups]


# (groupoid, carry): the full relations, whose twists are all trivial, and
# the groups with their carry coordinate and order
COMPONENTS = [(gp.full_relation(n), None) for n in (1, 2, 3)] + \
    _components(GROUPS)
CENSUS_COMPONENTS = COMPONENTS + _components(CENSUS_GROUPS)


def carry_cocycle(R, G, carry, t):
    """t^[x+y ≥ n] for carry = (coordinate, n), x and y the coordinates
    of the composed arrows."""
    coordinate, n = carry
    return tw.Cocycle(R, G, {(a, b): t for a, b, _ in G.composable_pairs()
                             if coordinate(a) + coordinate(b) >= n})


def bilinear_cocycle(R, G, coordinates):
    """(−1)^(x_i·y_j) for coordinates (i, j) of arrows that are tuples of
    bits, nested tuples flattened."""
    def bits(g):
        return sum((bits(x) for x in g), ()) if isinstance(g, tuple) else (g,)
    i, j = coordinates
    return tw.Cocycle(R, G, {(a, b): R.neg(R.one)
                             for a, b, _ in G.composable_pairs()
                             if bits(a)[i] * bits(b)[j] == 1})


def _union(c1, c2):
    # the rows of a disjoint union are its parts' rows, one after the other
    return tw.cocycle_from_rows(c1.ring, gp.disjoint_union(c1.groupoid,
                                                           c2.groupoid),
                                c1.rows + c2.rows)


@st.composite
def bases(draw, rings, budget=None, one_object=False,
          components=COMPONENTS):
    """A ring R of rings and a list of components, drawn while a coin says
    so and |R|^arrows stays within budget: one group when one_object, at
    most three components when there is no budget."""
    R = draw(st.sampled_from(rings))
    choices = [part for part in components if part[1] or not one_object]
    limit = 1 if one_object else 3 if budget is None else math.inf
    parts, arrows = [], 0
    while len(parts) < limit and (not parts or draw(st.booleans())):
        fits = [part for part in choices if budget is None or
                R.size ** (arrows + len(part[0].arrows)) <= budget]
        if not fits:
            break
        parts.append(draw(st.sampled_from(fits)))
        arrows += len(parts[-1][0].arrows)
    return R, parts


@st.composite
def twists_on(draw, R, parts):
    """A class representative on the disjoint union of parts times a random
    coboundary ∂b.  The representative is trivial on a full relation, a
    carry cocycle on a group (t = 1 gives the trivial one) and, on C2×C2,
    the carry or the bilinear (−1)^(x₁y₂)."""
    units = sorted(fr.ring_units(R))

    def representative(G, carry):
        if carry is None:
            return tw.trivial_cocycle(R, G)
        if G is KLEIN.groupoid and draw(st.booleans()):
            return bilinear_cocycle(R, G, (0, 1))
        return carry_cocycle(R, G, carry, draw(st.sampled_from(units)))

    c = functools.reduce(_union, [representative(*part) for part in parts])
    return times_coboundary(
        c, random.Random(draw(st.integers(0, 2 ** 16))).choice)


def twists(rings, budget=None, one_object=False, components=COMPONENTS):
    """Generated twists: a base of bases, then a cocycle of twists_on."""
    return bases(rings, budget, one_object, components).flatmap(
        lambda base: twists_on(*base))


def group_ring(c):
    """R(H, c) for a twist c on the groupoid of a group H of GROUPS."""
    H = next(H for H, _, _ in GROUPS if H.groupoid is c.groupoid)
    return gr.TwistedGroupRing(c.ring, H, c.values)


# -- the dict constructions that the row constructors replaced, kept as
# their reference: each writes {(a, b): a∘b} or {(a, b): c(a, b)} and has
# make_groupoid or Cocycle index it


def full_relation_by_dict(n):
    objects = list(range(1, n + 1))
    arrows = [(i, j) for i in objects for j in objects]
    src = {(i, j): j for (i, j) in arrows}
    rng = {(i, j): i for (i, j) in arrows}
    compose = {((i, j), (j2, k)): (i, k)
               for (i, j) in arrows for (j2, k) in arrows if j == j2}
    return gp.make_groupoid(f"full_relation({n})", objects, arrows, src, rng,
                            compose)


def disjoint_union_by_dict(G1, G2):
    objects = [(0, x) for x in G1.objects] + [(1, x) for x in G2.objects]
    arrows = [(0, a) for a in G1.arrows] + [(1, a) for a in G2.arrows]
    src = {(0, a): (0, G1.src[a]) for a in G1.arrows}
    src.update({(1, a): (1, G2.src[a]) for a in G2.arrows})
    rng = {(0, a): (0, G1.rng[a]) for a in G1.arrows}
    rng.update({(1, a): (1, G2.rng[a]) for a in G2.arrows})
    compose = {((0, a), (0, b)): (0, c) for (a, b), c in G1.compose.items()}
    compose.update({((1, a), (1, b)): (1, c)
                    for (a, b), c in G2.compose.items()})
    return gp.make_groupoid(f"({G1.name})+({G2.name})", objects, arrows,
                            src, rng, compose)


def twist_from_cocycle_by_dict(c):
    R, G = c.ring, c.groupoid
    units = sorted(fr.ring_units(R))
    arrows = [(g, t) for g in G.arrows for t in units]
    src = {(g, t): G.src[g] for (g, t) in arrows}
    rng = {(g, t): G.rng[g] for (g, t) in arrows}
    compose = {((a, t), (b, u)): (ab, R.mul(R.mul(c.values[(a, b)], t), u))
               for (a, b), ab in G.compose.items()
               for t in units for u in units}
    total = gp.make_groupoid(f"twist({G.name})", list(G.objects), arrows,
                             src, rng, compose)
    inj = {(x, t): (G.unit_at[x], t) for x in G.objects for t in units}
    return tw.ExplicitTwist(R, total, base=G, inj=inj,
                            proj={(g, t): g for (g, t) in arrows})


def coboundary_by_dict(R, G, b):
    return tw.Cocycle(R, G, {
        (a, c): R.mul(R.mul(b.get(a, R.one), b.get(c, R.one)),
                      R.unit_inverse(b.get(ac, R.one)))
        for (a, c), ac in G.compose.items()})


def assert_same_groupoid(G, H):
    """G and H agree on objects, arrows, ends, units, inverses and the
    compose view, its entry order included."""
    assert (G.objects, G.arrows, G.src, G.rng) == \
        (H.objects, H.arrows, H.src, H.rng)
    assert (G.unit_at, G.inv) == (H.unit_at, H.inv)
    assert list(G.compose.items()) == list(H.compose.items())


def klein_z4_pair():
    """Z/4[C2×C2] times a coboundary: one atom, 128 ultrafilter points."""
    c = tw.trivial_cocycle(fr.make_zmod(4), gp.group_as_groupoid(KLEIN))
    return pr.pair_from_twist(times_coboundary(c, random.Random(3).choice))


@lru_cache(maxsize=None)
def make_twist(name):
    return FIXTURE_BUILDERS[name]()


@lru_cache(maxsize=None)
def make_pair(name):
    return pr.pair_from_twist(make_twist(name))


@lru_cache(maxsize=None)
def classification(name):
    return make_pair(name).classify()


@lru_cache(maxsize=None)
def recon(name):
    return rc.verify_reconstruction_theorem(make_pair(name))


@lru_cache(maxsize=None)
def matrix_pair(n, p, k=1):
    c = tw.trivial_cocycle(fr.make_gf(p, k), gp.full_relation(n))
    return pr.pair_from_twist(c)


# -- algebras by structure constants ----------------------------------

FULL = [(1, 1), (1, 2), (2, 1), (2, 2)]
UPPER = [(1, 1), (1, 2), (2, 2)]
SQUARED = FULL + [(i + 2, j + 2) for i, j in FULL]


def matrix_units(R, units, extra=()):
    """(labels, structure) of the span of the matrix units in units (closed
    under products), plus central orthogonal idempotents named in extra."""
    structure = {(a, b): {units.index((i, l)): R.one}
                 for a, (i, j) in enumerate(units)
                 for b, (k, l) in enumerate(units) if j == k}
    for f in range(len(units), len(units) + len(extra)):
        structure[(f, f)] = {f: R.one}
    return list(units) + list(extra), structure


def left_unit(R):
    """e² = e, e·x = x, x·e = 0 = x²: e is a left identity only."""
    return ["e", "x"], {(0, 0): {0: R.one}, (0, 1): {1: R.one}}


def dual_numbers(R):
    """R[x]/(x²) on the basis 1, x."""
    return ["1", "x"], {(0, 0): {0: R.one}, (0, 1): {1: R.one},
                        (1, 0): {1: R.one}}


def group_ring_c2(R):
    """R[C2] on the basis 1, g."""
    return ["1", "g"], {(0, 0): {0: R.one}, (0, 1): {1: R.one},
                        (1, 0): {1: R.one}, (1, 1): {0: R.one}}


# id -> (ring, (labels, structure), B's spanning sets as label lists, a
# label listed k times with coefficient k, whether the pair has local units)
ABSTRACT_PAIRS = {
    # no idempotent of B is an identity of A: the scan fallback
    "m2_plus_f_gf2": (fr.make_gf(2), matrix_units(fr.make_gf(2), FULL, ["f"]),
                      [[(1, 1)], [(2, 2)]], False),
    "gf3_squared": (fr.make_gf(3), matrix_units(fr.make_gf(3), [], ["e", "f"]),
                    [["e"]], False),
    "left_unit_z4": (fr.make_zmod(4), left_unit(fr.make_zmod(4)), [["e"]], False),
    # one atom, the identity: B the scalar matrices
    "m2_gf3_scalars": (fr.make_gf(3), matrix_units(fr.make_gf(3), FULL),
                       [[(1, 1), (2, 2)]], True),
    # two atoms summing to the identity of an algebra that is not a twist's
    "t2_gf3_diagonal": (fr.make_gf(3), matrix_units(fr.make_gf(3), UPPER),
                        [[(1, 1)], [(2, 2)]], True),
    # B = {a·1 + b·e12}: not a coordinate subspace, with a nilpotent
    "t2_gf3_unipotent": (fr.make_gf(3), matrix_units(fr.make_gf(3), UPPER),
                         [[(1, 1), (2, 2)], [(1, 2)]], True),
    # B = g·D·g⁻¹ for g = 1 + e12: e11 + 2·e12 and e22 + e12
    "m2_gf3_conjugated": (fr.make_gf(3), matrix_units(fr.make_gf(3), FULL),
                          [[(1, 1), (1, 2), (1, 2)], [(2, 2), (1, 2)]], True),
    # B = span(e11 + e33, e22 + e44) in M_2 ⊕ M_2: e21 + e43 is a minimal
    # normaliser, but no product e12·e21, e34·e43 of spanning vectors of
    # the corners is a unit of span(e11, e33)
    "m2_squared_gf2": (fr.make_gf(2), matrix_units(fr.make_gf(2), SQUARED),
                       [[(1, 1), (3, 3)], [(2, 2), (4, 4)]], True),
    # B = span(1, 2x) has 8 elements: 2x is left without a unit pivot
    "z4_dual_2x": (fr.make_zmod(4), dual_numbers(fr.make_zmod(4)),
                   [["1"], ["x", "x"]], True),
    # over Z/6 the minimal normalisers (3·1, 4·1, 3·g, …) have no unit
    # entry: elimination on their classes leaves every row in the rest
    "z6_c2_group_ring": (fr.make_zmod(6), group_ring_c2(fr.make_zmod(6)),
                         [["1"]], True),
}


def abstract_pair(name):
    """A fresh Pair for ABSTRACT_PAIRS[name]."""
    R, (labels, structure), parts, _ = ABSTRACT_PAIRS[name]
    A = pr.AbstractAlgebra(name, R, labels, structure)
    return pr.Pair(A, [tuple(functools.reduce(R.add, [R.one] * part.count(label),
                                              R.zero) for label in labels)
                       for part in parts])
