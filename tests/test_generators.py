"""The one generator of twists (helpers.twists): every twist it draws is a
cocycle by the definition, and each property test that draws from it can
still reach every family of instances its own builder drew before."""

import hypothesis
import pytest
from hypothesis import Phase, given, settings

from quasicartan import finring as fr, reconstruct as rc, twist as tw

from helpers import C2_C4, C2_CUBED, CENSUS_COMPONENTS, KLEIN, S3, \
    check_cocycle_by_definition, twists
import test_census
import test_compare
import test_convolution
import test_groupoid
import test_grouprings
import test_kernel
import test_normalisers
import test_twist

FULL2_C2 = "(full_relation(2))+(group(cyclic(2)))"
KLEIN_NAME = KLEIN.groupoid.name
C8_PART = "(group(cyclic(8)))"
RINGS = [fr.make_gf(2), fr.make_gf(3), fr.make_zmod(4), fr.make_gf(2, 2),
         fr.make_zmod(6), fr.make_zmod(8), fr.make_zmod(9)]


@settings(max_examples=100)
@given(twists(RINGS, components=CENSUS_COMPONENTS))
def test_generated_twists_are_cocycles(c):
    assert check_cocycle_by_definition(c) == []


def _parts(G):
    # a generated base is a full relation, a group or a union (G1)+(G2),
    # and only a union's name has a "+" and its parts in parentheses
    return G.name.count("+") + 1


def _named(ring=None, base=None):
    """Over the ring and on the base of these names, None matching any."""
    return lambda c: ring in (None, c.ring.name) and \
        base in (None, c.groupoid.name)


def _cyclic_class(c):
    """Whether c on a cyclic group is not a coboundary."""
    G = c.groupoid
    return G.name.startswith("group(cyclic(") and G.name != KLEIN_NAME and \
        rc.compare_twists(c, tw.trivial_cocycle(c.ring, G)) is None


def _noncommuting(c):
    """c(a, b) ≠ c(b, a) for some commuting arrows: the bilinear class,
    since carry cocycles and coboundaries on an abelian group are
    symmetric."""
    G = c.groupoid
    return len(G.objects) == 1 and any(
        c.value(a, b) != c.value(b, a) for a in G.arrows for b in G.arrows)


# call site -> its strategy, how to read the cocycle (or groupoid) off a
# draw, and the families its old builder drew
FAMILIES = {
    # the groups whose rings the census decides at rank 2 and 3, and one
    # whose ring it leaves to the walk
    "census": (test_census.TWISTS, lambda c: c, {
        "C2×C4": lambda c: C2_C4.groupoid.name in c.groupoid.name,
        "C2³": lambda c: C2_CUBED.groupoid.name in c.groupoid.name,
        "S3": lambda c: S3.groupoid.name in c.groupoid.name,
    }),
    "compare": (test_compare.cocycle_pairs(), lambda pair: pair[0], {
        "full_relation(2)": _named(base="full_relation(2)"),
        "a cyclic twist that is not a coboundary": _cyclic_class,
        "the bilinear class on C2×C2": _noncommuting,
        "full_relation(2) + C2": _named(base=FULL2_C2),
        "Z/8, whose units are C2×C2": _named("zmod(8)"),
        "full_relation(2) + C2 over Z/8": _named("zmod(8)", FULL2_C2),
        "full_relation(2) + C2 over Z/9": _named("zmod(9)", FULL2_C2),
    }),
    "compare, two listings": (test_compare.cocycle_pairs(), lambda pair: pair, {
        "one base reversed": lambda pair: pair[0].groupoid.arrows !=
        pair[1].groupoid.arrows,
        "no twist isomorphism": lambda pair: rc.compare_twists(*pair) is None,
    }),
    "convolution": (test_convolution.normalised_tables(), lambda c: c, {
        "a table that fails the identity": check_cocycle_by_definition,
        "a cocycle with a value other than 1": lambda c: set(c.values.values())
        != {c.ring.one} and not check_cocycle_by_definition(c),
        "full_relation(3)": _named(base="full_relation(3)"),
        "C2×C2": _named(base=KLEIN_NAME),
        "full_relation(2) + C2": _named(base=FULL2_C2),
        "GF(4)": _named("gf(2,2)"),
    }),
    "groupoid": (test_groupoid.perturbed_compositions(), lambda d: d, {
        "a perturbed composition": lambda d: d[1] != d[0].compose,
        "three components": lambda d: _parts(d[0]) == 3,
        "C8 in a union": lambda d: C8_PART in d[0].name,
        "full_relation(3)": lambda d: "full_relation(3)" in d[0].name,
    }),
    "grouprings": (test_grouprings.twisted_group_rings(),
                   lambda T: T.cocycle, {
        "C6 over GF(3)": _named("gf(3,1)", "group(cyclic(6))"),
        "C2×C2 over Z/4": _named("zmod(4)", KLEIN_NAME),
        "a ring that is not local": lambda c: len(fr.local_factors(c.ring)) > 1,
        "GF(8)": _named("gf(2,3)"),
        "a cyclic twist that is not a coboundary": _cyclic_class,
    }),
    "kernel": (test_kernel.group_ring_element_pairs(), lambda d: d[1], {
        "C6 over Z/9": _named("zmod(9)", "group(cyclic(6))"),
        "C2×C2 over GF(9)": _named("gf(3,2)", KLEIN_NAME),
        "a cyclic twist that is not a coboundary": _cyclic_class,
    }),
    "normalisers": (test_normalisers.twist_pairs(), lambda pair: pair.cocycle, {
        "a full relation beside a cyclic group": lambda c: "full" in
        c.groupoid.name and "cyclic" in c.groupoid.name,
        "a cyclic twist that is not a coboundary": _cyclic_class,
        "Z/6, which is not local": _named("zmod(6)"),
        "more than three components": lambda c: _parts(c.groupoid) > 3,
    }),
    "twist": (test_twist.perturbed_cocycles(), lambda c: c, {
        "a value that is not a unit": lambda c: any(
            "not a unit" in v for v in check_cocycle_by_definition(c)),
        "a failed identity": lambda c: any(
            "identity fails" in v for v in check_cocycle_by_definition(c)),
        "C8 in a union": lambda c: C8_PART in c.groupoid.name,
        "three components": lambda c: _parts(c.groupoid) == 3,
    }),
}


@pytest.mark.parametrize("site,family", [
    (site, family) for site, (_, _, families) in FAMILIES.items()
    for family in families])
def test_each_site_reaches_the_families_of_its_old_builder(site, family):
    strategy, read, families = FAMILIES[site]
    hypothesis.find(strategy, lambda draw: families[family](read(draw)),
                    settings=settings(max_examples=2000, database=None,
                                      phases=[Phase.generate]))
