import functools

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, groupoid as gp, twist as tw

from helpers import FIXTURE_NAMES, check_cocycle_by_definition, make_twist


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_cocycles_are_valid(name):
    assert tw.check_cocycle(make_twist(name)) == []


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_twist_from_cocycle_satisfies_axioms(name):
    c = make_twist(name)
    T = tw.twist_from_cocycle(c)
    assert tw.check_twist_axioms(T) == []
    units = len(fr.ring_units(c.ring))
    assert len(T.total.arrows) == len(c.groupoid.arrows) * units


def test_cocycle_rejects_noncomposable_key():
    with pytest.raises(ValueError):
        tw.Cocycle(fr.make_gf(3), gp.full_relation(2), {((1, 1), (2, 2)): 1})


def test_check_cocycle_rejects_nonunit_and_nonnormalised():
    R = fr.make_zmod(4)
    G = gp.group_as_groupoid(gp.cyclic_group(2))
    bad = tw.Cocycle(R, G, {(1, 1): 2})
    assert any("not a unit" in v for v in tw.check_cocycle(bad))
    unnorm = tw.Cocycle(R, G, {(0, 1): 3})
    assert any("normalised" in v for v in tw.check_cocycle(unnorm))


def test_cocycle_identity_violation_detected():
    # hand-build values that break the 2-cocycle identity over Klein four
    R = fr.make_gf(3)
    K = gp.direct_product_group(gp.cyclic_group(2), gp.cyclic_group(2))
    G = gp.group_as_groupoid(K)
    a, b = (1, 0), (0, 1)
    bad = tw.Cocycle(R, G, {(a, b): 2})
    assert any("identity" in v for v in tw.check_cocycle(bad))


_KLEIN = gp.direct_product_group(gp.cyclic_group(2), gp.cyclic_group(2))
COMPONENTS = st.one_of(
    st.integers(1, 3).map(gp.full_relation),
    st.integers(1, 4).map(lambda n: gp.group_as_groupoid(gp.cyclic_group(n))),
    st.just(gp.group_as_groupoid(_KLEIN)),
    # generating set {0, 1}: a replaced value mostly sits off the generators
    st.just(gp.group_as_groupoid(gp.cyclic_group(8))))


@st.composite
def perturbed_cocycles(draw):
    """A coboundary on a disjoint union of small groupoids with 0-3 values
    replaced by arbitrary ring elements."""
    R = draw(st.sampled_from([fr.make_gf(3), fr.make_zmod(4), fr.make_gf(5)]))
    G = functools.reduce(gp.disjoint_union,
                         draw(st.lists(COMPONENTS, min_size=1, max_size=3)))
    units = sorted(fr.ring_units(R))
    b = {g: draw(st.sampled_from(units)) for g in G.arrows if not G.is_unit(g)}
    c = tw.coboundary_cocycle(R, G, b)
    pairs = sorted(c.values, key=repr)
    for _ in range(draw(st.integers(0, 3))):
        c.values[draw(st.sampled_from(pairs))] = draw(
            st.sampled_from(R.all_indices()))
    return c


@settings(max_examples=150)
@given(perturbed_cocycles())
def test_check_cocycle_equals_the_triple_loop(c):
    assert tw.check_cocycle(c) == check_cocycle_by_definition(c)


def test_a_fault_between_non_generators_is_named_as_the_definition():
    R = fr.make_gf(5)
    G = gp.group_as_groupoid(gp.cyclic_group(8))
    assert gp.generating_set(G) == [0, 1]
    c = tw.coboundary_cocycle(R, G, {g: 1 + g % 4 for g in G.arrows if g})
    assert tw.check_cocycle(c) == []
    c.values[(3, 4)] = R.mul(2, c.values[(3, 4)])
    assert tw.check_cocycle(c) == check_cocycle_by_definition(c) != []


def test_the_generator_test_also_compares_the_composition():
    # C8 with 3∘4 sent to 6: each associativity fault with the generator 1
    # in the middle compares 6 with 7, so the coboundary of b(6) = b(7)
    # satisfies the identity there, but not at (3, 4, 1)
    G = gp.group_as_groupoid(gp.cyclic_group(8))
    compose = dict(G.compose)
    compose[(3, 4)] = 6
    G = gp.FiniteGroupoid("broken", G.objects, G.arrows, G.src, G.rng,
                          compose, G.inv, G.unit_at)
    c = tw.coboundary_cocycle(fr.make_gf(5), G, {6: 2, 7: 2})
    bad = tw.check_cocycle(c)
    assert bad == check_cocycle_by_definition(c)
    assert "cocycle identity fails at (3,4,1)" in bad


def test_the_generator_test_needs_unit_values():
    # c = 0 on each pair of non-identity arrows with the generator 1 in it:
    # every triple (a, 1, g) with a, g ≠ 0 holds as 0 = 0, but c(2, 3) = 2
    # breaks the identity at (2, 3, 2): a product with 0 does not cancel
    R = fr.make_gf(5)
    G = gp.group_as_groupoid(gp.cyclic_group(8))
    values = {(a, b): 0 for a in range(1, 8) for b in range(1, 8)
              if 1 in (a, b)}
    values[(2, 3)] = 2
    c = tw.Cocycle(R, G, values)
    bad = tw.check_cocycle(c)
    assert bad == check_cocycle_by_definition(c)
    assert "cocycle identity fails at (2,3,2)" in bad


def test_coboundary_is_a_cocycle_and_trivial_in_cohomology():
    R = fr.make_gf(5)
    G = gp.full_relation(3)
    b = {(1, 2): 2, (2, 1): 3, (1, 3): 4, (3, 1): 4, (2, 3): 2, (3, 2): 3}
    c = tw.coboundary_cocycle(R, G, b)
    assert tw.check_cocycle(c) == []
    # the canonical section twisted by b itself is multiplicative, so its
    # cocycle is trivial
    T = tw.twist_from_cocycle(c)
    zeta = {g: (g, R.unit_inverse(b.get(g, R.one))) for g in G.arrows}
    assert all(T.total.compose[(zeta[x], zeta[y])] == zeta[xy]
               for (x, y), xy in G.compose.items())


def test_coboundary_rejects_bad_b():
    R = fr.make_gf(3)
    G = gp.full_relation(2)
    with pytest.raises(ValueError):
        tw.coboundary_cocycle(R, G, {(1, 1): 2})  # nontrivial on a unit
    with pytest.raises(ValueError):
        tw.coboundary_cocycle(R, G, {(1, 2): 0})  # not a unit


def test_canonical_section_roundtrip():
    # along the section γ ↦ (γ, 1) the explicit twist multiplies by c
    for name in ["z2_gf5_twisted", "pair2_gf3_coboundary", "pair2_z4"]:
        c = make_twist(name)
        T = tw.twist_from_cocycle(c)
        one = c.ring.one
        assert all(T.total.compose[((a, one), (b, one))] == (ab, c.value(a, b))
                   for (a, b), ab in c.groupoid.compose.items())


def test_act_is_a_free_transitive_fibre_action():
    c = make_twist("z2_gf5_twisted")
    T = tw.twist_from_cocycle(c)
    units = T.units_of_ring()
    for s in T.total.arrows:
        orbit = {T.act(t, s) for t in units}
        assert len(orbit) == len(units)
        assert orbit == {r for r in T.total.arrows if T.proj[r] == T.proj[s]}


def test_fibre_cocycle():
    c = make_twist("z2_gf5_twisted")
    T = tw.twist_from_cocycle(c)
    fc = tw.fibre_cocycle(T, "*")
    assert sorted(fc.group.elements) == [0, 1]
    assert fc.values[(1, 1)] == 4
    # section choice only changes the cocycle by a coboundary; the class is
    # detected by the product over the cyclic orbit, which is invariant
    alt = {0: T.total.unit_at["*"], 1: (1, 2)}
    fc2 = tw.fibre_cocycle(T, "*", zeta=alt)
    R = c.ring
    assert fc2.values[(1, 1)] == R.mul(4, R.mul(2, 2))


def test_broken_twist_detected():
    c = make_twist("z2_gf3")
    T = tw.twist_from_cocycle(c)
    broken_proj = dict(T.proj)
    some = next(s for s in T.total.arrows if s[0] == 1)
    broken_proj[some] = 0
    bad = tw.check_twist_axioms(
        tw.ExplicitTwist(T.ring, T.total, T.base, T.inj, broken_proj))
    assert bad != []
