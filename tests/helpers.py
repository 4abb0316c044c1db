"""Shared fixture twists and memoized expensive computations for the tests."""

import functools
import random
from functools import lru_cache

from quasicartan import finring as fr, groupoid as gp, twist as tw, \
    pairs as pr, reconstruct as rc


def _klein():
    return gp.direct_product_group(gp.cyclic_group(2), gp.cyclic_group(2))


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
        fr.make_gf(3), gp.group_as_groupoid(_klein())),
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


def times_coboundary(c, rng):
    """c·∂b for a random b: arrows → units with b = 1 on unit arrows."""
    R, G = c.ring, c.groupoid
    units = sorted(fr.ring_units(R))
    b = {g: rng.choice(units) for g in G.arrows if not G.is_unit(g)}
    d = tw.coboundary_cocycle(R, G, b)
    return tw.Cocycle(R, G, {p: R.mul(v, d.values[p])
                             for p, v in c.values.items()})


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
    c = tw.trivial_cocycle(fr.make_zmod(4), gp.group_as_groupoid(_klein()))
    return pr.pair_from_twist(times_coboundary(c, random.Random(3)))


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
