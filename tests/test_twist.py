import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, groupoid as gp, twist as tw

from helpers import FIXTURE_NAMES, assert_same_groupoid, \
    check_cocycle_by_definition, coboundary_by_dict, make_twist, \
    twist_from_cocycle_by_dict


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_cocycles_are_valid(name):
    assert tw.check_cocycle(make_twist(name)) == []


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_twist_from_cocycle_satisfies_axioms(name):
    c = make_twist(name)
    T = tw.twist_from_cocycle(c)
    assert tw.check_twist_axioms(T) == _twist_axioms_by_definition(T) == []
    units = len(fr.ring_units(c.ring))
    assert len(T.total.arrows) == len(c.groupoid.arrows) * units


def test_cocycle_rejects_noncomposable_key():
    with pytest.raises(ValueError):
        tw.Cocycle(fr.make_gf(3), gp.full_relation(2), {((1, 1), (2, 2)): 1})


def test_the_values_are_a_read_only_view_of_the_rows():
    R = fr.make_gf(5)
    G = gp.group_as_groupoid(gp.cyclic_group(3))
    c = tw.Cocycle(R, G, {(1, 2): 4})
    assert c.rows == [[1, 1, 1], [1, 1, 4], [1, 1, 1]]
    assert list(c.values.items()) == [((a, b), 4 if (a, b) == (1, 2) else 1)
                                      for a in range(3) for b in range(3)]
    with pytest.raises(TypeError):
        c.values[(1, 2)] = 1
    assert dict(tw.cocycle_from_rows(R, G, c.rows).values) == dict(c.values)
    with pytest.raises(ValueError, match="shape of the composition"):
        tw.cocycle_from_rows(R, G, [row[:2] for row in c.rows])


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
    values = dict(tw.coboundary_cocycle(R, G, b).values)
    pairs = sorted(values, key=repr)
    for _ in range(draw(st.integers(0, 3))):
        values[draw(st.sampled_from(pairs))] = draw(
            st.sampled_from(R.all_indices()))
    return tw.Cocycle(R, G, values)


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
    values = dict(c.values)
    values[(3, 4)] = R.mul(2, values[(3, 4)])
    c = tw.Cocycle(R, G, values)
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


def _twist_axioms_by_definition(T):
    """twist.check_twist_axioms by its definition: each axiom a loop over
    the arrows, objects and units it quantifies over."""
    R = T.ring
    units = T.units_of_ring()
    total, base = T.total, T.base
    bad = []
    bad.extend("total groupoid: " + v for v in gp.validate_groupoid(total))
    bad.extend("base groupoid: " + v for v in gp.validate_groupoid(base))
    if bad:
        return bad
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
    for x in base.objects:
        fibre = {s for s in total.arrows if T.proj[s] == base.unit_at[x]}
        if fibre != {T.inj[(x, t)] for t in units}:
            bad.append(f"exactness fails over object {x}")
    for s in total.arrows:
        xr = base.rng[T.proj[s]]
        xs = base.src[T.proj[s]]
        for t in units:
            left = total.compose[(T.inj[(xr, t)], s)]
            right = total.compose[(s, T.inj[(xs, t)])]
            if left != right:
                bad.append(f"centrality fails at ({s},{t})")
    for g in base.arrows:
        fibre = [s for s in total.arrows if T.proj[s] == g]
        if len(fibre) != len(units):
            bad.append(f"fibre over {g} has size {len(fibre)}, expected {len(units)}")
    tot_units = {total.unit_at[x] for x in total.objects}
    proj_units = {T.proj[u] for u in tot_units}
    if proj_units != {base.unit_at[x] for x in base.objects} or \
            len(proj_units) != len(tot_units):
        bad.append("unit spaces do not correspond bijectively")
    for s in total.arrows:
        for t in units:
            if t != R.one and T.act(t, s) == s:
                bad.append(f"action not free: {t}·{s} = {s}")
    return bad


def _broken_proj():
    T = tw.twist_from_cocycle(make_twist("z2_gf3"))
    proj = dict(T.proj)
    proj[next(s for s in T.total.arrows if s[0] == 1)] = 0
    return tw.ExplicitTwist(T.ring, T.total, T.base, T.inj, proj)


def _wrong_proj_off_the_units():
    # one arrow over (1, 1) of C2×C2 projected to (0, 1), which has the same
    # ends: proj stays onto and keeps the ends, so the rows of the
    # composites show the fault, and the fibre sizes
    T = tw.twist_from_cocycle(make_twist("klein_gf3"))
    proj = dict(T.proj)
    proj[next(s for s in T.total.arrows if s[0] == (1, 1))] = (0, 1)
    return tw.ExplicitTwist(T.ring, T.total, T.base, T.inj, proj)


def _non_injective_inj():
    T = tw.twist_from_cocycle(make_twist("pair2_gf3"))
    inj = dict(T.inj)
    inj[(1, 2)] = inj[(1, 1)]
    return tw.ExplicitTwist(T.ring, T.total, T.base, inj, T.proj)


def _non_central_inj():
    # (−1)^(x₁y₂) on C2×C2: ((1, 0), t) and ((0, 1), s) do not commute
    R = fr.make_gf(3)
    G = gp.group_as_groupoid(_KLEIN)
    c = tw.Cocycle(R, G, {(x, y): 2 for x in G.arrows for y in G.arrows
                          if x[0] and y[1]})
    T = tw.twist_from_cocycle(c)
    inj = {(x, t): ((1, 0), t) for x, t in T.inj}
    return tw.ExplicitTwist(R, T.total, T.base, inj, T.proj)


def _trivial_action():
    # the base as its own extension: every unit acts as the identity
    G = gp.full_relation(2)
    return tw.ExplicitTwist(fr.make_gf(3), G, G,
                            {(x, t): G.unit_at[x] for x in G.objects
                             for t in (1, 2)},
                            {g: g for g in G.arrows})


def _fibres_too_large():
    # the twist over GF(5) read with the two units of GF(3)
    T = tw.twist_from_cocycle(tw.trivial_cocycle(
        fr.make_gf(5), gp.group_as_groupoid(gp.cyclic_group(2))))
    inj = {(x, t): T.inj[(x, t)] for x in T.base.objects for t in (1, 2)}
    return tw.ExplicitTwist(fr.make_gf(3), T.total, T.base, inj, T.proj)


BROKEN_TWISTS = {
    "broken_proj": (_broken_proj, "proj not multiplicative at "),
    "wrong_proj_off_the_units": (_wrong_proj_off_the_units,
                                 "proj not multiplicative at "),
    "non_injective_inj": (_non_injective_inj, "inj not injective: "),
    "non_central_inj": (_non_central_inj, "centrality fails at "),
    "trivial_action": (_trivial_action, "action not free: "),
    "fibres_too_large": (_fibres_too_large, "fibre over 0 has size 4, expected 2"),
}


def test_broken_twist_detected():
    for name, (build, fault) in BROKEN_TWISTS.items():
        T = build()
        bad = tw.check_twist_axioms(T)
        assert bad == _twist_axioms_by_definition(T), name
        assert any(v.startswith(fault) for v in bad), name


ROW_RINGS = {"gf3": lambda: fr.make_gf(3), "z4": lambda: fr.make_zmod(4),
             "gf4": lambda: fr.make_gf(2, 2)}
ROW_BASES = {
    "full3": lambda: gp.full_relation(3),
    "full2+c2": lambda: gp.disjoint_union(
        gp.full_relation(2), gp.group_as_groupoid(gp.cyclic_group(2))),
    "klein": lambda: gp.group_as_groupoid(_KLEIN),
}


@pytest.mark.parametrize("base", ROW_BASES)
@pytest.mark.parametrize("ring", ROW_RINGS)
def test_the_row_constructors_of_twists_build_what_the_dicts_build(ring,
                                                                    base):
    R, G = ROW_RINGS[ring](), ROW_BASES[base]()
    units = sorted(fr.ring_units(R))
    rng = random.Random(f"{ring}/{base}")
    b = {g: rng.choice(units) for g in G.arrows if not G.is_unit(g)}
    c = tw.coboundary_cocycle(R, G, b)
    reference = coboundary_by_dict(R, G, b)
    assert c.rows == reference.rows
    assert list(c.values.items()) == list(reference.values.items())
    # and a cocycle that is not a coboundary where there is one
    cocycles = [c]
    if base == "klein" and ring != "gf4":
        cocycles.append(tw.Cocycle(R, G, {(x, y): R.neg(R.one)
                                          for x in G.arrows for y in G.arrows
                                          if x[0] and y[1]}))
    for d in cocycles:
        T, T_ref = tw.twist_from_cocycle(d), twist_from_cocycle_by_dict(d)
        assert_same_groupoid(T.total, T_ref.total)
        assert (T.inj, T.proj) == (T_ref.inj, T_ref.proj)
