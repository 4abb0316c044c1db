"""Shared fixture twists and memoized expensive computations for the tests."""

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
