import itertools

import pytest

from quasicartan import finring as fr, groupoid as gp, pairs as pr, \
    steinberg as sb, twist as tw

from helpers import FIXTURE_NAMES, SMALL_FIXTURES, make_pair, make_twist, \
    classification, matrix_pair


def _vec(pair, coeffs):
    return pr.element_to_vector(pair, sb.AlgebraElement(pair.cocycle, coeffs))


def test_abstract_algebra_rejects_nonassociative_structure():
    R = fr.make_gf(2)
    with pytest.raises(ValueError):
        pr.AbstractAlgebra("bad", R, ["x", "y"],
                           {(0, 0): {1: 1}, (1, 1): {0: 1}, (0, 1): {0: 1}})


def test_pair_rejects_noncommutative_sub_basis():
    pair = matrix_pair(2, 3)
    A = pair.algebra
    with pytest.raises(ValueError):
        pr.Pair(A, [A.basis_vector(i) for i in range(A.dim)])


def test_dagger_matrix_units():
    # in M_2(GF(3)): E_12 dagger is E_21, idempotents are self-dagger
    pair = matrix_pair(2, 3)
    e12 = _vec(pair, {(1, 2): 1})
    e21 = _vec(pair, {(2, 1): 1})
    assert pair.dagger_of(e12) == e21
    e11 = _vec(pair, {(1, 1): 1})
    assert pair.dagger_of(e11) == e11
    one = _vec(pair, {(1, 1): 1, (2, 2): 1})
    assert pair.dagger_of(one) == one


def test_dagger_of_scaled_normaliser():
    # (t·n)† = t⁻¹·n† for units t
    pair = matrix_pair(2, 3)
    A = pair.algebra
    n = _vec(pair, {(1, 2): 2})
    k = pair.dagger_of(n)
    assert k == _vec(pair, {(2, 1): 2})  # 2⁻¹ = 2 in GF(3)
    assert A.mul(A.mul(n, k), n) == n


def test_non_normaliser_has_no_dagger():
    pair = matrix_pair(2, 3)
    bad = _vec(pair, {(1, 1): 1, (1, 2): 1})  # E_11 + E_12
    assert pair.dagger_of(bad) is None
    with pytest.raises(ValueError):
        pair.leq(bad, bad)


@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_dagger_solver_matches_oracle(name):
    # criterion-level check: the solve-then-filter dagger equals the full scan
    pair = make_pair(name)
    for n in pair.algebra.all_elements():
        fast = pair.dagger_of(n)
        slow = pair.dagger_of(n, oracle=True)
        assert fast == slow


def test_normalisers_form_inverse_semigroup():
    # closure under product and dagger, plus the semilattice of idempotents
    for name in ["pair2_gf3", "z2_z4", "z2_gf5_twisted"]:
        pair = make_pair(name)
        A = pair.algebra
        N = pair.enumerate_normalisers("full")
        nset = set(N)
        for m in N:
            assert pair.dagger_of(m) in nset
            for n in N:
                assert A.mul(m, n) in nset
        for m in N:
            k = pair.dagger_of(m)
            assert A.mul(A.mul(m, k), m) == m
            assert pair.dagger_of(k) == m


def test_order_laws():
    pair = make_pair("pair2_gf3")
    A = pair.algebra
    N = pair.enumerate_normalisers("full")
    for m in N:
        assert pair.leq(m, m)
        assert pair.leq(A.zero(), m)
    # antisymmetry and transitivity on a sample
    sample = N[:20]
    for m in sample:
        for n in sample:
            if pair.leq(m, n) and pair.leq(n, m):
                assert m == n
            for p in sample:
                if pair.leq(m, n) and pair.leq(n, p):
                    assert pair.leq(m, p)


def test_minimal_normalisers_have_atomic_sources():
    for name in ["pair2_gf3", "z2_gf3", "z2_gf5_twisted"]:
        pair = make_pair(name)
        A = pair.algebra
        _, atoms = pair.idempotents_of_B()
        for m in pair.enumerate_normalisers("minimal"):
            k = pair.dagger_of(m)
            assert A.mul(k, m) in atoms
            assert A.mul(m, k) in atoms


def test_free_normalisers():
    pair = matrix_pair(2, 3)
    assert pair.is_free_normaliser(_vec(pair, {(1, 2): 1}))  # off-diagonal
    assert pair.is_free_normaliser(_vec(pair, {(1, 1): 2}))  # inside B
    # a unit-graph normaliser with isotropy is not free when it has fixed
    # support on the diagonal
    gpair = make_pair("z2_gf3")
    g_elem = _vec_group(gpair, {1: 1})
    assert not gpair.is_free_normaliser(g_elem)


def _vec_group(pair, coeffs):
    return pr.element_to_vector(pair, sb.AlgebraElement(pair.cocycle, coeffs))


def test_canonical_expectation_is_restriction_on_twist_pairs():
    for name in ["pair2_gf3", "z2_z4", "z2_gf5_twisted", "pair2_z4"]:
        pair = make_pair(name)
        report = pair.canonical_expectation()
        assert report["is_expectation"]
        P = report["map"]
        Q = sb.restriction_expectation(pair.cocycle)
        for i in range(pair.algebra.dim):
            n = pair.algebra.basis_vector(i)
            expected = pr.element_to_vector(
                pair, Q(pr.vector_to_element(pair, n)))
            assert P(n) == expected


def test_expectation_axioms_reported():
    pair = make_pair("pair2_gf3")
    report = pair.canonical_expectation()
    assert report["is_expectation"] and report["faithful"]
    assert report["implemented_by_idempotents"]
    # an intentionally wrong map is rejected
    bad = pair.check_expectation(lambda x: pair.algebra.zero())
    assert not bad["is_expectation"]


def test_wt_vacuous_warning():
    # a pair whose B has no nonzero idempotents: B spanned by a nilpotent
    R = fr.make_zmod(4)
    A = pr.AbstractAlgebra("nil", R, ["x"], {(0, 0): {}})
    pair = pr.Pair(A, [A.basis_vector(0)])
    flag, warning = pair.satisfies_wt()
    assert flag and warning is not None
    report = pair.classify()
    assert report["WT"] and "warnings" in report


@pytest.mark.parametrize("name,aqp,acp,adp", [
    ("pair2_gf3", True, True, True),
    ("pair2_z4", True, True, True),
    ("z2_gf3", True, False, False),
    ("z2_z4", False, False, False),
    ("z2_gf5_twisted", False, False, False),
    ("klein_gf3", False, False, False),
    ("z3_gf2", True, False, False),
    ("mixed_gf3", True, False, False),
    ("pair3_gf2", True, True, True),
    ("pair2_gf3_coboundary", True, True, True),
])
def test_classification_flags(name, aqp, acp, adp):
    report = classification(name)
    assert report["AQP"] == aqp
    assert report["ACP"] == acp
    assert report["ADP"] == adp


def test_classification_matches_base_geometry():
    # whenever AQP holds for a twist pair, ADP tracks principality and ACP
    # tracks effectiveness of the base groupoid
    for name in FIXTURE_NAMES:
        report = classification(name)
        if not report["AQP"]:
            continue
        G = make_twist(name).groupoid
        assert report["ADP"] == gp.is_principal(G)
        assert report["ACP"] == gp.is_effective(G)


def test_z2_z4_loses_faithful_expectation_but_not_everything():
    report = classification("z2_z4")
    assert report["WT"] and report["local_units"]
    assert report["faithful_CE_exists"]
    assert not report["AQP"]


def test_matrix_pairs_are_diagonal_pairs():
    for n, p, k in [(2, 2, 1), (2, 3, 1), (3, 2, 1)]:
        report = matrix_pair(n, p, k).classify()
        assert report["ADP"] and report["ACP"] and report["AQP"]


def _all_linear_maps(A):
    """Every linear endomorphism of A, as a tuple of basis images."""
    elems = A.all_elements()
    for images in itertools.product(elems, repeat=A.dim):
        yield images


def _map_from_images(A, images):
    R = A.ring

    def P(x):
        out = A.zero()
        for i, xi in enumerate(x):
            if xi != R.zero:
                out = A.add(out, A.scale(xi, images[i]))
        return out

    return P


@pytest.mark.parametrize("name,expect_implemented", [
    ("z2_gf3", 1), ("z3_gf2", 1), ("z2_gf5_twisted", 0)])
def test_expectation_uniqueness_exhaustive(name, expect_implemented):
    # over all linear maps of a small pair, at most one satisfies the
    # expectation axioms together with implementation by idempotents, and
    # exactly one when the pair is quasi-Cartan
    pair = make_pair(name)
    A = pair.algebra
    assert A.dim <= 4 and A.ring.size ** A.dim <= 10 ** 4
    implemented, plain = 0, 0
    for images in _all_linear_maps(A):
        P = _map_from_images(A, images)
        rep = pair.check_expectation(P)
        if rep["is_expectation"]:
            plain += 1
            if rep["implemented_by_idempotents"]:
                implemented += 1
    assert implemented == expect_implemented
    assert plain >= 1


def test_expectation_uniqueness_cartan_case():
    # for a Cartan pair every expectation (implemented or not) is unique
    R = fr.make_gf(2)
    c = tw.trivial_cocycle(R, gp.full_relation(2))
    pair = pr.pair_from_twist(c)
    A = pair.algebra
    count = 0
    for images in _all_linear_maps(A):
        if pair.check_expectation(_map_from_images(A, images))["is_expectation"]:
            count += 1
    assert count == 1


def _lbh_pair(name):
    # z2_gf4: GF(4)[C2] ≅ GF(4)[x]/(x+1)² has nontrivial units, and GF(4)
    # has a unit other than 1 for a section of the twist to pick
    if name == "z2_gf4":
        return pr.pair_from_twist(tw.trivial_cocycle(
            fr.make_gf(2, 2), gp.group_as_groupoid(gp.cyclic_group(2))))
    return make_pair(name)


@pytest.mark.parametrize("name,holds", [
    ("pair2_gf3", True), ("z2_gf3", True), ("z3_gf2", True),
    ("z2_z4", False), ("z2_gf5_twisted", False), ("klein_gf3", False),
    ("z2_gf4", False),
])
def test_lbh(name, holds):
    pair = _lbh_pair(name)
    flag, witness = pr.check_lbh(pair)
    assert flag == holds
    if holds:
        assert witness is None
    else:
        assert witness is not None
        assert not sb.is_bisection(pair.cocycle.groupoid, witness.support())
        assert pair.is_normaliser(pr.element_to_vector(pair, witness))


def test_lbh_witness_z2_z4():
    _, witness = pr.check_lbh(make_pair("z2_z4"))
    # the witness comes from the nontrivial unit 1 + 2δ_g of Z/4[Z/2]
    assert witness.coeffs == {0: 1, 1: 2}


def test_element_vector_roundtrip():
    pair = make_pair("mixed_gf3")
    for i in range(pair.algebra.dim):
        n = pair.algebra.basis_vector(i, 2)
        assert pr.element_to_vector(pair, pr.vector_to_element(pair, n)) == n


def test_cap_enforced():
    c = tw.trivial_cocycle(fr.make_gf(3), gp.full_relation(3))
    pair = pr.pair_from_twist(c, cap=100)
    with pytest.raises(fr.CapExceeded):
        pair.enumerate_normalisers("full")
