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
    st.just(gp.group_as_groupoid(_KLEIN)))


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
