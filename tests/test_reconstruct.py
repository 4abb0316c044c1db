import random

import pytest
from hypothesis import given, settings

from quasicartan import finring as fr, groupoid as gp, pairs as pr, \
    reconstruct as rc, steinberg as sb, twist as tw

from helpers import FIXTURE_NAMES, klein_z4_pair, make_pair, make_twist, \
    classification, recon, matrix_pair, times_coboundary, twists

# the rings of at most 9 elements; Z/6 is the one that is not local
THEOREM_RINGS = [fr.make_gf(2), fr.make_gf(3), fr.make_zmod(4),
                 fr.make_gf(2, 2), fr.make_gf(5), fr.make_zmod(6),
                 fr.make_gf(7), fr.make_zmod(8), fr.make_zmod(9),
                 fr.make_gf(3, 2)]


@settings(max_examples=100)
@given(twists(THEOREM_RINGS, 729))
def test_the_theorem_on_generated_twists(c):
    # AQP ⇔ LBH ⇔ φ surjective, ADP ⇒ ACP ⇒ AQP, and under AQP the base
    # decides ADP and ACP; over a ring that is not local, WT fails
    pair = pr.pair_from_twist(c)
    if len(fr.local_factors(c.ring)) > 1:
        with pytest.raises(ValueError, match="nondegeneracy"):
            rc.verify_reconstruction_theorem(pair)
        return
    report = rc.verify_reconstruction_theorem(pair)
    flags = report["classification"]
    assert report["consistent"]
    assert flags["ACP"] or not flags["ADP"]
    assert flags["AQP"] or not flags["ACP"]
    if flags["AQP"]:
        assert flags["ADP"] == gp.is_principal(c.groupoid)
        assert flags["ACP"] == gp.is_effective(c.groupoid)


@pytest.mark.parametrize("n,p,k,q", [(2, 2, 1, 2), (2, 3, 1, 3), (3, 2, 1, 2)])
def test_matrix_reconstruction_counts(n, p, k, q):
    pair = matrix_pair(n, p, k)
    report = rc.verify_reconstruction_theorem(pair)
    assert report["aqp"] and report["lbh"] and report["phi_surjective"]
    assert report["sigma_prime_points"] == n * n * (q - 1)
    assert report["g_prime_arrows"] == n * n
    assert report["consistent"]


def test_group_fixture_counts():
    # GF(3)[Z/2]: 4 minimal points in 2 classes, phi bijective
    report = recon("z2_gf3")
    assert report["phi_surjective"] and report["phi_injective"]
    assert report["sigma_prime_points"] == 4
    assert report["g_prime_arrows"] == 2
    # Z/4[Z/2]: phi injective but not surjective, 4 of 8 points hit
    report = recon("z2_z4")
    assert report["phi_injective"] and not report["phi_surjective"]
    assert report["sigma_points"] == 4
    assert report["sigma_prime_points"] == 8


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_three_way_equivalence(name):
    report = recon(name)
    assert report["consistent"]
    assert report["aqp"] == report["lbh"] == report["phi_surjective"]
    assert report["aqp"] == classification(name)["AQP"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_embedding_properties(name):
    phi = recon(name)["phi"]
    assert phi["well_defined"] and phi["injective"]
    assert phi["homomorphism"] and phi["unit_bijective"]


def _compose(ug, m, n):
    """The product of two composable points, asserted to be a point."""
    assert ug.source[m] == ug.range[n]
    out = ug.algebra.mul(m, n)
    assert out in ug.coordinates
    return out


def _phi_by_definition(pair):
    """phi_map's flags from the point map (γ, t) ↦ t·δ_γ: the homomorphism
    over every composable pair and every pair of units, equivariance, and,
    when it is onto, the base map on classes checked bijective and
    multiplicative."""
    ug = rc.build_ultra_groupoid(pair)
    A, c = pair.algebra, pair.cocycle
    G, R = c.groupoid, A.ring
    mul = R.mul_table
    mapping = {(g, t): A.scale(t, A.basis_vector(A.index[g]))
               for g in G.arrows for t in ug.units}
    point_set = set(ug.points)
    orbit = {m: {A.scale(t, m) for t in ug.units} for m in ug.points}
    report = {
        "well_defined": all(v in point_set for v in mapping.values()),
        "injective": len(set(mapping.values())) == len(mapping),
        "homomorphism": all(
            _compose(ug, mapping[(a, t)], mapping[(b, s)]) ==
            mapping[(ab, mul[mul[c.values[(a, b)]][t]][s])]
            for (a, b), ab in G.compose.items()
            for t in ug.units for s in ug.units),
        "unit_bijective": {mapping[(G.unit_at[x], R.one)]
                           for x in G.objects} == set(ug.atoms),
        "surjective": set(mapping.values()) == point_set,
    }
    assert all(mapping[(g, mul[t][s])] == A.scale(t, mapping[(g, s)])
               for g in G.arrows for s in ug.units for t in ug.units)
    if report["surjective"]:
        # the base map γ ↦ the class of δ_γ: a bijection onto the arrows
        # of G′ that keeps composition
        arrow_of = {frozenset(orbit[g]): g for g in ug.classes}
        base_map = {g: arrow_of[frozenset(orbit[mapping[(g, R.one)]])]
                    for g in G.arrows}
        assert sorted(base_map.values()) == ug.classes
        rebuilt = ug.to_twist().groupoid
        assert all(rebuilt.compose[(base_map[a], base_map[b])] == base_map[ab]
                   for (a, b), ab in G.compose.items())
    return report


MORE_PAIRS = {"klein_z4": klein_z4_pair, "m2_gf3": lambda: matrix_pair(2, 3),
              "m3_gf2": lambda: matrix_pair(3, 2),
              "m2_gf4": lambda: matrix_pair(2, 2, 2)}


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(MORE_PAIRS))
def test_phi_equals_the_point_map(name):
    pair = MORE_PAIRS[name]() if name in MORE_PAIRS else make_pair(name)
    delta, _, report = rc.phi_map(pair)
    assert report == _phi_by_definition(pair)
    assert len(delta) == len(pair.cocycle.groupoid.arrows)


def _twist_by_definition(ug):
    """(compose, values) of c′ by one product per composable pair of
    classes (g, h), g in class order and then h: gh = u·r gives g∘h = r
    and c′(g, h) = u."""
    compose, values = {}, {}
    for g in ug.classes:
        for h in ug.classes:
            if ug.source[g] == ug.range[h]:
                u, r = ug.coordinates[_compose(ug, g, h)]
                compose[(g, h)], values[(g, h)] = r, u
    return compose, values


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(MORE_PAIRS))
def test_rebuilt_twist_equals_one_product_per_pair(name):
    pair = MORE_PAIRS[name]() if name in MORE_PAIRS else make_pair(name)
    ug = rc.build_ultra_groupoid(pair)
    c = ug.to_twist()
    compose, values = _twist_by_definition(ug)
    assert list(c.groupoid.compose.items()) == list(compose.items())
    assert list(c.values.items()) == list(values.items())


def test_rebuilt_twist_multiplies_by_generators_only(monkeypatch):
    # Z/4[C2×C2]: 64 classes on one atom and 5 generators, so at most one
    # product per (class, generator) pair and one more per class, against
    # 64² = 4,096 for one product per composable pair
    ug = rc.UltraGroupoid(klein_z4_pair())
    A = ug.algebra
    products = []
    mul = A.mul

    def counting_mul(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(A, "mul", counting_mul)
    c = ug.to_twist()
    assert len(ug.classes) == 64
    assert len(gp.generating_set(c.groupoid)) == 5
    assert 0 < len(products) <= 64 * (5 + 1)


def test_the_rebuilt_twist_is_built_and_checked_on_rows(monkeypatch):
    # G′ and c′ are made from the rows to_twist derives: no composition
    # is indexed from a dict, and neither dict view of them is built
    pair = klein_z4_pair()
    indexed, views = [], []
    index, compose_view = gp.index_composition, gp.composition_dict
    values_view = tw.cocycle_dict

    def counted_index(*args):
        indexed.append(args)
        return index(*args)

    def counted_compose_view(G):
        views.append(G)
        return compose_view(G)

    def counted_values_view(c):
        views.append(c)
        return values_view(c)

    monkeypatch.setattr(gp, "index_composition", counted_index)
    monkeypatch.setattr(gp, "composition_dict", counted_compose_view)
    monkeypatch.setattr(tw, "cocycle_dict", counted_values_view)
    report = rc.verify_reconstruction_theorem(pair)
    assert report["consistent"] and report["g_prime_arrows"] == 64
    c = pair.ultra_groupoid.to_twist()
    assert indexed == []
    assert c not in views and c.groupoid not in views
    # the generating set of the walk is kept on G′
    assert c.groupoid._generators is not None
    assert len(gp.generating_set(c.groupoid)) == 5


def test_rebuilt_twist_satisfies_axioms():
    # the extension axioms, checked on the explicit twist of the rebuilt
    # cocycle: the oracle for the groupoid and cocycle checks of
    # build_ultra_groupoid
    pairs = [make_pair(name)
             for name in ["pair2_gf3", "z2_gf3", "z2_z4", "z2_gf5_twisted"]]
    for pair in pairs + [klein_z4_pair()]:
        c = rc.build_ultra_groupoid(pair).to_twist()
        assert tw.check_twist_axioms(tw.twist_from_cocycle(c)) == []


def test_a_wrong_rebuilt_cocycle_is_refused(monkeypatch):
    # a fresh pair, so that no earlier test has filled its cache
    pair = pr.pair_from_twist(make_twist("pair2_gf3"))
    to_twist = rc.UltraGroupoid.to_twist

    def wrong_at_one_pair(self):
        c = to_twist(self)
        G, R = c.groupoid, c.ring
        p = next(p for p in G.compose
                 if not (G.is_unit(p[0]) or G.is_unit(p[1])))
        t = next(t for t in sorted(fr.ring_units(R)) if t != R.one)
        values = dict(c.values)
        values[p] = R.mul(t, values[p])
        return tw.Cocycle(R, G, values)

    monkeypatch.setattr(rc.UltraGroupoid, "to_twist", wrong_at_one_pair)
    with pytest.raises(AssertionError, match="rebuilt twist fails its axioms: "
                                             "cocycle identity fails"):
        rc.build_ultra_groupoid(pair)


def test_a_rebuilt_cocycle_wrong_off_the_generators_is_refused(monkeypatch):
    # the 64 classes of Z/4[C2×C2] have 5 generators; c′ is scaled at a
    # pair of two non-generators
    pair = klein_z4_pair()
    to_twist = rc.UltraGroupoid.to_twist

    def wrong_off_the_generators(self):
        c = to_twist(self)
        G, R = c.groupoid, c.ring
        gens = {G.arrows[i] for i in gp.generating_set(G)}
        assert len(gens) == 5
        p = next(p for p in G.compose if not gens & set(p))
        t = next(t for t in sorted(fr.ring_units(R)) if t != R.one)
        values = dict(c.values)
        values[p] = R.mul(t, values[p])
        return tw.Cocycle(R, G, values)

    monkeypatch.setattr(rc.UltraGroupoid, "to_twist", wrong_off_the_generators)
    with pytest.raises(AssertionError, match="rebuilt twist fails its axioms: "
                                             "cocycle identity fails"):
        rc.build_ultra_groupoid(pair)


def test_build_rejects_degenerate_pairs():
    R = fr.make_zmod(4)
    A = pr.AbstractAlgebra("nil", R, ["x"], {(0, 0): {}})
    pair = pr.Pair(A, [A.basis_vector(0)])
    with pytest.raises(ValueError):
        rc.build_ultra_groupoid(pair)  # no local units


def test_scalar_action_structure():
    ug = rc.build_ultra_groupoid(make_pair("pair2_gf3"))
    A = ug.algebra
    # the coordinates are a bijection from the points onto units × classes
    assert set(ug.coordinates) == set(ug.points)
    assert set(ug.coordinates.values()) == \
        {(t, g) for t in ug.units for g in ug.classes}
    assert len(ug.classes) * len(ug.units) == len(ug.points)
    for m, (t, g) in ug.coordinates.items():
        assert A.scale(t, g) == m
        # source and range are constant along orbits
        assert ug.source[m] == ug.source[g]
        assert ug.range[m] == ug.range[g]
    # unit classes are represented by their atoms
    assert set(ug.atoms) <= set(ug.classes)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["klein_z4"])
def test_classes_partition_the_deciding_normalisers(name):
    # under local units: |R^×| points per class, each class the orbit of
    # its representative, the representative its atom or its least member
    pair = klein_z4_pair() if name == "klein_z4" else make_pair(name)
    assert pair.has_local_units()
    A = pair.algebra
    units = sorted(fr.ring_units(A.ring))
    _, atoms = pair.idempotents_of_B()
    coordinates, classes = pair.unit_classes()
    orbits = [{A.scale(t, g) for t in units} for g in classes]
    assert sum(map(len, orbits)) == len(units) * len(classes)
    assert set().union(*orbits) == set(pair._deciding_normalisers())
    for g, orbit in zip(classes, orbits):
        assert g == next((e for e in atoms if e in orbit), min(orbit))
        assert all(coordinates[p][1] == g for p in orbit)


def test_composition_respects_cocycle():
    ug = rc.build_ultra_groupoid(make_pair("z2_gf5_twisted"))
    c = ug.to_twist()
    A = ug.algebra
    for (g, h), gh in c.groupoid.compose.items():
        assert A.mul(g, h) == A.scale(c.value(g, h), gh)


def test_rebuilt_twist_isomorphic_to_original():
    for name in ["pair2_gf3", "z2_gf3", "z3_gf2", "z2_gf5_twisted"]:
        c = make_twist(name)
        rebuilt = rc.build_ultra_groupoid(make_pair(name)).to_twist()
        iso = rc.compare_twists(c, rebuilt)
        if classification(name)["AQP"]:
            assert iso is not None
        # z2_gf5_twisted is not AQP so the rebuilt twist is bigger
        if name == "z2_gf5_twisted":
            assert len(rebuilt.groupoid.arrows) > len(c.groupoid.arrows)


def test_ahat_full_verification():
    for name in ["z2_gf3", "pair2_gf3"]:
        ahat, report = rc.ahat_iso(make_pair(name))
        assert report["skipped"] is None
        assert report["bijective"] and report["linear"] and report["multiplicative"]
        assert report["diagonal_to_diagonal"] and report["diagonal_onto"]


def test_ahat_skipped_for_non_aqp():
    ahat, report = rc.ahat_iso(make_pair("z2_z4"))
    assert ahat is None
    assert report["skipped"] is not None


def test_compare_twists_trivial_cases():
    R = fr.make_gf(3)
    c1 = tw.trivial_cocycle(R, gp.full_relation(2))
    c2 = tw.trivial_cocycle(R, gp.full_relation(2))
    assert rc.compare_twists(c1, c2) is not None
    c3 = tw.trivial_cocycle(R, gp.full_relation(3))
    assert rc.compare_twists(c1, c3) is None
    c4 = tw.trivial_cocycle(fr.make_gf(2), gp.full_relation(2))
    assert rc.compare_twists(c1, c4) is None


def test_compare_twists_gf5_group_case():
    # c(g,g) = 4 = 2² over GF(5) is a coboundary: isomorphic to the trivial
    # twist via u(g) = 2 (or 3)
    R = fr.make_gf(5)
    G = gp.group_as_groupoid(gp.cyclic_group(2))
    c1 = tw.Cocycle(R, G, {(1, 1): 4})
    c2 = tw.trivial_cocycle(R, G)
    iso = rc.compare_twists(c1, c2)
    assert iso is not None
    _, arrow_map, u = iso
    assert u[1] in (2, 3)
    # sanity: the claimed identity holds
    assert R.mul(u[G.compose[(1, 1)]], c1.value(1, 1)) == \
        R.mul(c2.value(arrow_map[1], arrow_map[1]), R.mul(u[1], u[1]))


def test_compare_twists_distinguishes_cohomology_classes():
    # over GF(3) the sign twist of Z/2 is NOT a coboundary: -1 is not a square
    R = fr.make_gf(3)
    G = gp.group_as_groupoid(gp.cyclic_group(2))
    c1 = tw.Cocycle(R, G, {(1, 1): 2})
    c2 = tw.trivial_cocycle(R, G)
    assert rc.compare_twists(c1, c2) is None


def test_coboundaries_isomorphic_to_trivial():
    R = fr.make_gf(5)
    G = gp.full_relation(3)
    rng = random.Random(99)
    for _ in range(5):
        c = times_coboundary(tw.trivial_cocycle(R, G), rng.choice)
        iso = rc.compare_twists(c, tw.trivial_cocycle(R, G))
        assert iso is not None
        psi, report = rc.algebra_iso_from_twist_iso(
            c, tw.trivial_cocycle(R, G), iso)
        assert report["multiplicative"] and report["bijective_on_basis"]
        assert report["diagonal_preserving"]


def test_algebra_iso_roundtrip_values():
    R = fr.make_gf(5)
    G = gp.full_relation(2)
    b = {(1, 2): 2, (2, 1): 3}
    c = tw.coboundary_cocycle(R, G, b)
    iso = rc.compare_twists(c, tw.trivial_cocycle(R, G))
    psi, _ = rc.algebra_iso_from_twist_iso(c, tw.trivial_cocycle(R, G), iso)
    f = sb.AlgebraElement(c, {(1, 2): 1, (1, 1): 4})
    g = psi(f)
    assert len(g.coeffs) == 2
    # products transport across psi
    h = sb.AlgebraElement(c, {(2, 1): 2})
    assert psi(f * h) == psi(f) * psi(h)


@pytest.mark.parametrize("name", ["pair2_gf3", "z2_gf3", "z2_z4",
                                  "z2_gf5_twisted", "z3_gf2"])
def test_ultrafilter_oracle(name):
    pair = make_pair(name)
    report = rc.ultrafilter_oracle(pair)
    assert report["agrees_with_minimal_enumeration"]
    assert report["minima_agree"]
    if "all_filters_principal" in report:
        assert report["all_filters_principal"]
        assert report["exhaustive_maximal_agrees"]


def test_ultrafilter_counts_match_points():
    for name in ["pair2_gf3", "z2_gf3"]:
        pair = make_pair(name)
        report = rc.ultrafilter_oracle(pair)
        ug = rc.build_ultra_groupoid(pair)
        assert report["maximal_principal_filters"] == len(ug.points)


def test_ultra_groupoid_built_once_per_pair(monkeypatch):
    # a fresh pair, so that no earlier test has filled its cache
    pair = pr.pair_from_twist(make_twist("z2_gf3"))
    built = []
    init = rc.UltraGroupoid.__init__

    def counting_init(self, p):
        built.append(p)
        init(self, p)

    monkeypatch.setattr(rc.UltraGroupoid, "__init__", counting_init)
    rc.verify_reconstruction_theorem(pair)
    _, report = rc.ahat_iso(pair)
    assert report["bijective"]
    assert built == [pair]
