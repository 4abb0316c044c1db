"""compare_twists against the definition of a twist isomorphism: every
composition-preserving arrow bijection ψ and every u: arrows → R^× with
u = 1 on units and u(αβ)·c1(α,β) = c2(ψα,ψβ)·u(α)·u(β)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, groupoid as gp, reconstruct as rc, \
    steinberg as sb, twist as tw

from helpers import C2_CUBED, KLEIN, bases, bilinear_cocycle, relisted, \
    twists_on

PROPERTY = settings(max_examples=150)

# Z/8 has the non-cyclic unit group C2×C2
RINGS = [fr.make_gf(3), fr.make_gf(5), fr.make_zmod(4), fr.make_zmod(8),
         fr.make_zmod(9)]
# |A| ≤ 9^6 on at most six arrows: full_relation(2) + C2 over Z/9.  The
# definition below walks every arrow bijection, so the arrows stay at six
# (twelve over GF(3), which 9^6 admits, take minutes)
SIZE, ARROWS = 9 ** 6, 6
BASES = bases(RINGS, SIZE).filter(
    lambda base: sum(len(G.arrows) for G, _ in base[1]) <= ARROWS)


@st.composite
def cocycle_pairs(draw):
    """Two generated twists on one base, each on it or on its reversed
    listing."""
    base = draw(BASES)
    cocycles = [draw(twists_on(*base)) for _ in range(2)]
    return tuple(tw.Cocycle(c.ring, relisted(c.groupoid, draw(st.booleans())),
                            c.values) for c in cocycles)


def _isomorphisms(G1, G2):
    """Every arrow bijection that carries the composition table of G1 onto
    that of G2.  Such a bijection sends the idempotent arrows, the units,
    to units, so units and the other arrows are permuted apart."""
    def split(G):
        return ([g for g in G.arrows if G.is_unit(g)],
                [g for g in G.arrows if not G.is_unit(g)])
    (units1, others1), (units2, others2) = split(G1), split(G2)
    for image in itertools.product(itertools.permutations(units2),
                                   itertools.permutations(others2)):
        psi = dict(zip(units1 + others1, image[0] + image[1]))
        if {(psi[a], psi[b]): psi[ab]
                for (a, b), ab in G1.compose.items()} == G2.compose:
            yield psi


def _assignments(c):
    """Every u: arrows → R^× with u = 1 on units."""
    R, G = c.ring, c.groupoid
    free = [g for g in G.arrows if not G.is_unit(g)]
    for values in itertools.product(sorted(fr.ring_units(R)), repeat=len(free)):
        u = dict.fromkeys(G.units, R.one)
        u.update(zip(free, values))
        yield u


def _is_twist_iso(c1, c2, psi, u):
    R = c1.ring
    return all(R.mul(u[ab], c1.value(a, b)) ==
               R.mul(c2.value(psi[a], psi[b]), R.mul(u[a], u[b]))
               for (a, b), ab in c1.groupoid.compose.items())


def _check_against_the_definition(c1, c2):
    G1, G2, R = c1.groupoid, c2.groupoid, c1.ring
    isos = list(_isomorphisms(G1, G2))
    walked = [psi for _, psi in rc._TwistWalk(c1, c2, fr.DEFAULT_CAP).isos()]
    assert len(walked) == len(isos)
    assert {frozenset(psi.items()) for psi in walked} == \
        {frozenset(psi.items()) for psi in isos}
    expected = any(_is_twist_iso(c1, c2, psi, u)
                   for psi in isos for u in _assignments(c1))
    found = rc.compare_twists(c1, c2)
    assert (found is not None) == expected
    if found is not None:
        obj_map, psi, u = found
        assert psi in isos
        assert all(obj_map[G1.src[g]] == G2.src[psi[g]] and
                   obj_map[G1.rng[g]] == G2.rng[psi[g]] for g in G1.arrows)
        assert set(u) == set(G1.arrows)
        assert all(u[g] == R.one for g in G1.units)
        assert all(R.is_unit(v) for v in u.values())
        assert _is_twist_iso(c1, c2, psi, u)
        _, report = rc.algebra_iso_from_twist_iso(c1, c2, found)
        assert report["multiplicative"]
        assert _multiplicative_on_all_pairs(c1, c2, found)
    return found


def _multiplicative_on_all_pairs(c1, c2, iso):
    """ψ(δ_a*δ_b) = ψ(δ_a)*ψ(δ_b) for every pair of arrows (a, b)."""
    psi, _ = rc.algebra_iso_from_twist_iso(c1, c2, iso)
    basis = [sb.point_mass(c1, g) for g in c1.groupoid.arrows]
    return all(psi(sb.convolve(x, y)) == sb.convolve(psi(x), psi(y))
               for x in basis for y in basis)


@PROPERTY
@given(cocycle_pairs())
def test_compare_twists_equals_the_definition(cocycles):
    _check_against_the_definition(*cocycles)


def _full_relation_2_times_c2():
    """Arrows (i, j, s) for i, j ∈ {1, 2} and s ∈ C2, composed as
    (i, j, s)·(j, k, t) = (i, k, s + t): an arrow between objects that
    composes with isotropy, so values propagate from a known α and αβ."""
    arrows = [(i, j, s) for i in (1, 2) for j in (1, 2) for s in (0, 1)]
    return gp.make_groupoid(
        "full_relation(2)xC2", [1, 2], arrows, {g: g[1] for g in arrows},
        {g: g[0] for g in arrows},
        {(a, b): (a[0], b[1], (a[2] + b[2]) % 2)
         for a in arrows for b in arrows if a[1] == b[0]})


@pytest.mark.parametrize("reverse1", [False, True])
@pytest.mark.parametrize("reverse2", [False, True])
def test_compare_twists_with_a_nontrivial_isotropy_value(reverse1, reverse2):
    # u(g)²·4 = 1 at each isotropy arrow g = (i, i, 1) over GF(5), so
    # u(g) ∈ {2, 3}; listed in reverse, u(α) of such a g is known when
    # (α, β) forces u(β)
    R, G = fr.make_gf(5), _full_relation_2_times_c2()
    G1, G2 = relisted(G, reverse1), relisted(G, reverse2)
    c1 = tw.Cocycle(R, G1, {(a, b): 4 for a, b in G1.compose
                            if a[2] + b[2] >= 2})
    assert tw.check_cocycle(c1) == []
    assert _check_against_the_definition(
        c1, tw.trivial_cocycle(R, G2)) is not None


def test_compare_twists_deeper_than_the_recursion_limit():
    # 510 copies of C2: 1,020 arrows to map and 510 scalar branches on one
    # path, more than Python's default recursion limit of 1,000
    k = 510
    arrows = [(x, i) for i in range(k) for x in "eg"]
    ends = {a: a[1] for a in arrows}
    G = gp.make_groupoid(
        "copies of C2", range(k), arrows, ends, ends,
        {((x, i), (y, i)): ("e" if x == y else "g", i)
         for i in range(k) for x in "eg" for y in "eg"})
    c = tw.trivial_cocycle(fr.make_gf(3), G)
    obj_map, arrow_map, u = rc.compare_twists(c, c)
    assert all(arrow_map[g] == g for g in arrows)


def _swap_two_arrows(G, arrow_map, u):
    a, b = G.arrows[0], G.arrows[-1]
    return {**arrow_map, a: arrow_map[b], b: arrow_map[a]}, u


def _merge_two_arrows(G, arrow_map, u):
    return {**arrow_map, G.arrows[0]: arrow_map[G.arrows[-1]]}, u


def _zero_scalar(G, arrow_map, u):
    return arrow_map, {**u, G.arrows[-1]: 0}


@pytest.mark.parametrize("alter", [_swap_two_arrows, _merge_two_arrows,
                                   _zero_scalar])
@pytest.mark.parametrize("G", [gp.cyclic_group(3).groupoid,
                               gp.full_relation(3),
                               _full_relation_2_times_c2()],
                         ids=["c3", "full_relation_3", "full_relation_2xc2"])
def test_induced_algebra_map_is_multiplicative_as_on_all_pairs(G, alter):
    R = fr.make_gf(5)
    b = {g: 2 for g in G.arrows if not G.is_unit(g)}
    c1, c2 = tw.trivial_cocycle(R, G), tw.coboundary_cocycle(R, G, b)
    obj_map, arrow_map, u = rc.compare_twists(c1, c2)
    iso = (obj_map, *alter(G, arrow_map, u))
    _, report = rc.algebra_iso_from_twist_iso(c1, c2, iso)
    assert report["multiplicative"] == _multiplicative_on_all_pairs(c1, c2, iso)
    assert not report["multiplicative"]


def test_induced_algebra_map_of_a_folding_arrow_map():
    # two copies of full_relation(2), the second folded onto the first:
    # multiplicative on every composable pair, but δ_a*δ_b = 0 for a and b
    # in different copies while their images compose
    R, G = fr.make_gf(3), gp.disjoint_union(gp.full_relation(2),
                                             gp.full_relation(2))
    c = tw.trivial_cocycle(R, G)
    iso = ({x: (0, x[1]) for x in G.objects}, {g: (0, g[1]) for g in G.arrows},
           dict.fromkeys(G.arrows, R.one))
    psi, report = rc.algebra_iso_from_twist_iso(c, c, iso)
    assert all(psi(sb.convolve(sb.point_mass(c, a), sb.point_mass(c, b))) ==
               sb.convolve(psi(sb.point_mass(c, a)), psi(sb.point_mass(c, b)))
               for a, b in G.compose)
    assert not report["multiplicative"]
    assert not _multiplicative_on_all_pairs(c, c, iso)


def test_induced_algebra_map_convolves_only_composable_pairs(monkeypatch):
    R, G = fr.make_gf(5), gp.full_relation(3)
    c1 = tw.trivial_cocycle(R, G)
    c2 = tw.coboundary_cocycle(R, G, {g: 2 for g in G.arrows
                                      if not G.is_unit(g)})
    iso = rc.compare_twists(c1, c2)
    calls = []
    convolve = sb.convolve

    def counted(f, g):
        calls.append((f, g))
        return convolve(f, g)

    monkeypatch.setattr(sb, "convolve", counted)
    _, report = rc.algebra_iso_from_twist_iso(c1, c2, iso)
    assert report["multiplicative"]
    assert len(calls) == 2 * len(G.compose) == 2 * 27


def _counting_adjustments(monkeypatch):
    solved = []
    adjustment = rc._TwistWalk.adjustment

    def counted(self, arrow_map):
        solved.append(arrow_map)
        return adjustment(self, arrow_map)

    monkeypatch.setattr(rc._TwistWalk, "adjustment", counted)
    return solved


def test_the_commutator_pairing_decides_before_any_map(monkeypatch):
    R = fr.make_gf(3)
    G = KLEIN.groupoid
    c1, c2 = bilinear_cocycle(R, G, (0, 1)), tw.trivial_cocycle(R, G)
    assert rc.commutator_pairing(c1)[((1, 0), (0, 1))] == R.neg(R.one)
    assert set(rc.commutator_pairing(c2).values()) == {R.one}
    assert rc.pairings_differ(rc.commutator_pairing(c1),
                              rc.commutator_pairing(c2))
    solved = _counting_adjustments(monkeypatch)
    assert _check_against_the_definition(c1, c2) is None
    assert solved == []


def test_a_map_that_moves_the_pairing_is_not_solved(monkeypatch):
    # (−1)^(x₁y₂) and (−1)^(x₁y₃) on C2³ are isomorphic by swapping the
    # last two coordinates, but not by the identity, which moves ω
    R = fr.make_gf(3)
    G = C2_CUBED.groupoid
    c1, c2 = bilinear_cocycle(R, G, (0, 1)), bilinear_cocycle(R, G, (0, 2))
    omega1, omega2 = rc.commutator_pairing(c1), rc.commutator_pairing(c2)
    assert not rc.pairings_differ(omega1, omega2)
    solved = _counting_adjustments(monkeypatch)
    found = rc.compare_twists(c1, c2)
    assert found is not None and _is_twist_iso(c1, c2, *found[1:])
    assert solved and all(omega2[(psi[a], psi[b])] == w for psi in solved
                          for (a, b), w in omega1.items())
    assert {g: g for g in G.arrows} not in solved
