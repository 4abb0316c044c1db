"""The homomorphism tests that the package decides on generators
(groupoid.generator_pairs, Light's lemma for maps) against their
definitions on every pair, in tests/definitions.py: the algebra map of a
twist map (compare), the twist map (β, σ) of reconstruct's φ, and the
projection, injection and action of an explicit twist (check).  The maps
are drawn from twists and then mutated, so that both verdicts come up."""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, reconstruct as rc, steinberg as sb, \
    twist as tw

import definitions
from helpers import twists

PROPERTY = settings(max_examples=200)
RINGS = [fr.make_gf(3), fr.make_gf(5), fr.make_gf(2, 2), fr.make_zmod(4),
         fr.make_zmod(8), fr.make_zmod(9)]


@st.composite
def twist_maps(draw):
    """(c1, c2, ψ, u, f): a drawn twist c1, c2 = c1·∂b, the twist map
    (id, b⁻¹) from c1 to c2 with its arrow map or one u value mutated, and
    an element f of the algebra of c1."""
    c1 = draw(twists(RINGS))
    R, G = c1.ring, c1.groupoid
    rnd = random.Random(draw(st.integers(0, 2 ** 16)))
    units = sorted(fr.ring_units(R))
    b = {g: R.one if G.is_unit(g) else rnd.choice(units) for g in G.arrows}
    d = tw.coboundary_cocycle(R, G, b)
    c2 = tw.cocycle_from_rows(R, G, [[R.mul(x, y) for x, y in zip(*rows)]
                                     for rows in zip(c1.rows, d.rows)])
    arrow_map = {g: g for g in G.arrows}
    u = {g: R.unit_inverse(b[g]) for g in G.arrows}
    x, y = rnd.choice(G.arrows), rnd.choice(G.arrows)
    mutation = draw(st.sampled_from(["none", "swap", "fold", "u"]))
    if mutation == "swap":
        arrow_map[x], arrow_map[y] = y, x
    elif mutation == "fold":
        arrow_map[x] = y
    elif mutation == "u":
        u[x] = rnd.choice(list(R.all_indices()))
    f = sb.AlgebraElement(c1, {g: rnd.choice(list(R.all_indices()))
                               for g in G.arrows})
    return c1, c2, arrow_map, u, f


@PROPERTY
@given(twist_maps())
def test_the_generator_tests_of_a_twist_map_equal_their_definitions(drawn):
    c1, c2, arrow_map, u, f = drawn
    decided = []
    holds_on_generators = rc._holds_on_generators

    def recorded(*args):
        decided.append(holds_on_generators(*args))
        return decided[-1]

    with mock.patch.object(rc, "_holds_on_generators", recorded):
        psi, report = rc.algebra_iso_from_twist_iso(c1, c2, ({}, arrow_map, u))
        homomorphism = rc._is_homomorphism(c1, c2, u, arrow_map)
    expected = definitions.induced_algebra_map(c1, c2, arrow_map, u)
    multiplicative = definitions.algebra_map_is_multiplicative(c1, expected)
    assert decided == [multiplicative, definitions.is_twist_homomorphism(
        c1, c2, u, arrow_map)]
    assert [report["multiplicative"], homomorphism] == decided
    assert psi(f) == expected(f)


@st.composite
def explicit_twists(draw):
    """The explicit twist of a drawn cocycle, with one proj entry moved to
    another base arrow with its ends, or one inj value moved to another
    arrow from its object to itself, or neither."""
    T = tw.twist_from_cocycle(draw(twists(RINGS)))
    total, base = T.total, T.base
    rnd = random.Random(draw(st.integers(0, 2 ** 16)))
    mutation = draw(st.sampled_from(["none", "proj", "inj"]))
    if mutation == "proj":
        s = rnd.choice(total.arrows)
        T.proj[s] = rnd.choice([g for g in base.arrows
                                if base.src[g] == total.src[s]
                                and base.rng[g] == total.rng[s]])
    elif mutation == "inj":
        x, t = rnd.choice(list(T.inj))
        T.inj[(x, t)] = rnd.choice([s for s in total.arrows
                                    if total.src[s] == x == total.rng[s]])
    return T


@PROPERTY
@given(explicit_twists())
def test_the_generator_tests_of_an_explicit_twist_equal_their_definitions(T):
    # a generator test that passed where the definition fails would drop
    # that axiom's faults from the list; inj is composed with the
    # generators of R^× only, unless that test fails
    composites = []
    composite = T.total.composite

    def counted(a, b):
        composites.append((a, b))
        return composite(a, b)

    T.total.composite = counted
    faults = tw.check_twist_axioms(T)
    del T.total.composite
    expected = definitions.twist_axiom_faults(T)
    assert faults == expected
    proj_faults = [v for v in expected if v.startswith("proj not mult")]
    assert tw._proj_is_multiplicative(T.total, T.base, T.proj) == \
        (proj_faults == [])
    # the generator test stops at its first failure, and the walk then
    # composes every pair
    units = T.units_of_ring()
    tested = len(T.base.objects) * len(units) * len(
        tw._unit_generators(T.ring, units))
    if any(v.startswith("inj not mult") for v in expected):
        walk = len(T.base.objects) * len(units) ** 2
        assert 0 < len(composites) - walk <= tested
    else:
        assert len(composites) == tested
