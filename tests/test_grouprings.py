import random

import pytest
from hypothesis import given, settings

from quasicartan import finring as fr, groupoid as gp, grouprings as gr

import definitions as df
from helpers import GROUPS, KLEIN, bilinear_cocycle, carry_cocycle, \
    group_ring, times_coboundary, twists


def _ring(name):
    return {"gf3": fr.make_gf(3), "gf4": fr.make_gf(2, 2),
            "z4": fr.make_zmod(4), "z6": fr.make_zmod(6),
            "z8": fr.make_zmod(8), "gf5": fr.make_gf(5)}[name]


def test_ring_axioms_of_group_ring():
    # the group ring is itself a ring: spot-check the laws randomly
    T = gr.TwistedGroupRing(fr.make_gf(5), gp.cyclic_group(3))
    rng = random.Random(1)
    elems = T.all_elements()
    for _ in range(200):
        f, g, h = (elems[rng.randrange(len(elems))] for _ in range(3))
        assert T.mul(T.mul(f, g), h) == T.mul(f, T.mul(g, h))
        assert T.mul(f, T.add(g, h)) == T.add(T.mul(f, g), T.mul(f, h))
        assert T.mul(T.one(), f) == f and T.mul(f, T.one()) == f


def test_twisted_multiplication_example():
    # over GF(5) with c(g,g) = 4: δ_g * δ_g = 4·δ_e
    T = gr.TwistedGroupRing(fr.make_gf(5), gp.cyclic_group(2), {(1, 1): 4})
    assert T.mul(T.delta(1), T.delta(1)) == T.delta(0, 4)


def test_rejects_bad_cocycles():
    with pytest.raises(ValueError):
        gr.TwistedGroupRing(fr.make_zmod(4), gp.cyclic_group(2), {(1, 1): 2})
    with pytest.raises(ValueError):
        gr.TwistedGroupRing(fr.make_gf(3), gp.cyclic_group(2), {(0, 1): 2})


@pytest.mark.parametrize("ring_name,n,expect_total,expect_nontrivial", [
    ("gf3", 2, 4, 0),
    ("z4", 2, 8, 4),
    ("gf4", 2, 12, 6),
])
def test_unit_counts(ring_name, n, expect_total, expect_nontrivial):
    T = gr.TwistedGroupRing(_ring(ring_name), gp.cyclic_group(n))
    units, trivial, nontrivial = gr.enumerate_units(T)
    assert len(units) == expect_total
    assert len(nontrivial) == expect_nontrivial
    assert len(trivial) == expect_total - expect_nontrivial


@pytest.mark.parametrize("ring_name,n", [("gf3", 2), ("z4", 2), ("z6", 2),
                                         ("gf5", 3), ("gf4", 2)])
def test_units_against_pairwise_oracle(ring_name, n):
    T = gr.TwistedGroupRing(_ring(ring_name), gp.cyclic_group(n))
    fast = gr.enumerate_units(T)
    slow = gr.enumerate_units(T, oracle=True)
    assert fast == slow


def test_units_of_twisted_ring_against_oracle():
    T = gr.TwistedGroupRing(fr.make_gf(5), gp.cyclic_group(2), {(1, 1): 4})
    fast = gr.enumerate_units(T)
    slow = gr.enumerate_units(T, oracle=True)
    assert fast == slow
    # c(g,g) = 4 = (2·g)² means the twist is a coboundary, so the unit count
    # matches the untwisted ring
    untwisted = gr.TwistedGroupRing(fr.make_gf(5), gp.cyclic_group(2))
    assert len(fast[0]) == len(gr.enumerate_units(untwisted)[0])


def _units_by_definition(T):
    """One right-inverse solve of f·x = δ_e and a two-sided check per
    element of R[H], with the linear solver rather than the walk's
    spanning test."""
    one = T.one()
    everything = T.all_elements()
    found = set()
    for f in everything:
        columns = [T.mul(f, b) for b in T.basis_vectors]
        inverse = fr.solve_linear(
            T.ring, [([col[k] for col in columns], one[k])
                     for k in range(T.dim)], T.dim, one=True)
        if inverse and T.mul(inverse[0], f) == one:
            found.add(f)
    units = [f for f in everything if f in found]
    return (units, [f for f in units if T.is_trivial_unit(f)],
            [f for f in units if not T.is_trivial_unit(f)])


_RINGS = [fr.make_gf(2), fr.make_gf(3), fr.make_zmod(4), fr.make_zmod(6),
          fr.make_zmod(8), fr.make_zmod(9), fr.make_gf(2, 2), fr.make_gf(5),
          fr.make_gf(7), fr.make_zmod(10), fr.make_zmod(12), fr.make_gf(2, 3),
          fr.make_gf(3, 2)]
# the definition solves f·x = δ_e for every f, so keep |A| ≤ 729
SIZE = 729
_SMALL_GROUP_RINGS = [(H, coordinate, n, R) for H, coordinate, n in GROUPS
                      for R in _RINGS if R.size ** len(H) <= SIZE]


def twisted_group_rings():
    return twists(_RINGS, SIZE, one_object=True).map(group_ring)


def _census_of_lists(lists):
    units, trivial, nontrivial = lists
    return len(units), len(trivial), next(iter(nontrivial), None)


@settings(max_examples=60)
@given(twisted_group_rings())
def test_units_by_orbits_equal_the_definition(T):
    walk = gr.enumerate_units(T)
    assert walk == _units_by_definition(T)
    assert gr.unit_census(T) == _census_of_lists(walk)


@pytest.mark.parametrize("H,coordinate,n,R", _SMALL_GROUP_RINGS,
                         ids=[f"{R.name}[{H.name}]"
                              for H, _, _, R in _SMALL_GROUP_RINGS])
def test_the_count_agrees_with_the_walk_and_the_oracle(H, coordinate, n, R):
    # every carry twist here is commutative, so the census counts; the
    # witness is the walk's first nontrivial unit
    rng = random.Random(f"{R.name}[{H.name}]")
    t = rng.choice(sorted(fr.ring_units(R)))
    T = group_ring(times_coboundary(
        carry_cocycle(R, H.groupoid, (coordinate, n), t), rng.choice))
    assert T.is_commutative()
    walk = gr.enumerate_units(T)
    assert walk == gr.enumerate_units(T, oracle=True)
    assert gr.unit_census(T) == _census_of_lists(walk)


@pytest.mark.parametrize("R,expected", [(fr.make_gf(3), 48),
                                        (fr.make_gf(5), 480)],
                         ids=["gf3", "gf5"])
def test_a_noncommutative_twist_is_listed(R, expected, monkeypatch):
    # c(x, y) = (−1)^(x₀·y₁) on the Klein group makes R(H, c) the matrix
    # ring M_2(R), whose units are GL_2: (q² − 1)(q² − q)
    T = group_ring(bilinear_cocycle(R, KLEIN.groupoid, (0, 1)))
    assert not T.is_commutative()
    walk = gr.enumerate_units(T)

    def refused(*_, **__):
        raise AssertionError("a noncommutative ring was counted")

    monkeypatch.setattr(gr, "count_units", refused)
    assert gr.unit_census(T) == _census_of_lists(walk)
    trivial = len(KLEIN) * len(fr.ring_units(R))
    assert (len(walk[0]), len(walk[1])) == (expected, trivial)
    assert walk == gr.enumerate_units(T, oracle=True)


def test_the_count_charges_the_cap_before_its_first_product(monkeypatch):
    # GF(2)[C100]: 100⁴ ring operations are refused before any product
    T = gr.TwistedGroupRing(fr.make_gf(2), gp.cyclic_group(100))

    def refused(*_):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(T, "mul", refused)
    with pytest.raises(gr.CapExceeded) as info:
        gr.count_units(T)
    assert info.value.attempted_size == 100 ** 4


def _orbit_count(T):
    """Orbits of the trivial units acting on the left, by products."""
    R, H = T.ring, T.group
    trivial = [T.delta(g, t) for g in H.elements for t in fr.ring_units(R)]
    return len({frozenset(T.mul(u, f) for u in trivial)
                for f in T.all_elements()})


@pytest.mark.parametrize("R,H,values", [
    (fr.make_gf(5), gp.cyclic_group(2), {(1, 1): 2}),
    (fr.make_zmod(4), KLEIN, carry_cocycle(
        fr.make_zmod(4), KLEIN.groupoid, (lambda g: g[0], 2), 3).values),
    (fr.make_gf(3), gp.cyclic_group(3), {}),
], ids=["gf5_c2_twisted", "z4_klein_twisted", "gf3_c3"])
def test_units_take_one_solve_per_orbit(R, H, values, monkeypatch):
    # one spanning test of the columns f·b_j per orbit
    T = gr.TwistedGroupRing(R, H, values)
    tests = []
    span = fr.standard_basis_tails

    def counted(R, rows, width):
        tests.append(rows)
        return span(R, rows, width)

    monkeypatch.setattr(fr, "standard_basis_tails", counted)
    gr.enumerate_units(T)
    assert len(tests) == _orbit_count(T)


def test_units_of_the_field_of_25_elements():
    # 2 is not a square mod 5, so GF(5)[C2] with δ_g² = 2 is GF(25)
    T = gr.TwistedGroupRing(fr.make_gf(5), gp.cyclic_group(2), {(1, 1): 2})
    units, trivial, nontrivial = gr.enumerate_units(T)
    assert (len(units), len(trivial), len(nontrivial)) == (24, 8, 16)
    untwisted = gr.TwistedGroupRing(fr.make_gf(5), gp.cyclic_group(2))
    assert len(gr.enumerate_units(untwisted)[0]) == 16


def test_units_of_gf3_c9():
    # GF(3)[C9] = GF(3)[x]/(x − 1)^9 is local with residue field GF(3):
    # the units are the 2·3^8 elements off its maximal ideal
    T = gr.TwistedGroupRing(fr.make_gf(3), gp.cyclic_group(9))
    units, trivial, nontrivial = gr.enumerate_units(T)
    assert (len(units), len(trivial)) == (13122, 18)


def test_pairwise_oracle_checks_its_products_against_the_cap():
    T = gr.TwistedGroupRing(fr.make_gf(3), gp.cyclic_group(9))
    with pytest.raises(gr.CapExceeded) as info:
        gr.enumerate_units(T, oracle=True)
    assert info.value.attempted_size == 19683 ** 2


def test_every_enumerated_unit_is_invertible():
    T = gr.TwistedGroupRing(fr.make_zmod(4), gp.cyclic_group(2))
    units, _, _ = gr.enumerate_units(T)
    unit_set = set(units)
    for f in units:
        assert any(T.mul(f, x) == T.one() and T.mul(x, f) == T.one()
                   for x in unit_set)


def test_decomposable_unit_z6():
    # 3 is a nontrivial idempotent of Z/6
    T = gr.TwistedGroupRing(fr.make_zmod(6), gp.cyclic_group(2))
    a, b = df.decomposable_unit(T, 3, 1)
    assert a == (3, 4)
    assert T.mul(a, b) == T.one() and T.mul(b, a) == T.one()
    assert not T.is_trivial_unit(a)


def test_decomposable_unit_rejects_bad_input():
    T = gr.TwistedGroupRing(fr.make_zmod(6), gp.cyclic_group(2))
    with pytest.raises(ValueError):
        df.decomposable_unit(T, 2, 1)  # 2 is not idempotent in Z/6
    with pytest.raises(ValueError):
        df.decomposable_unit(T, 3, 0)  # identity group element


def test_nonreduced_unit_z4():
    # 2² = 0 in Z/4: 1 - 2δ_g is a self-inverse nontrivial unit
    T = gr.TwistedGroupRing(fr.make_zmod(4), gp.cyclic_group(2))
    a, inv = df.nonreduced_unit(T, 2, 1)
    assert a == (1, 2) and inv == (1, 2)
    assert T.mul(a, a) == T.one()


def test_nonreduced_unit_z8_geometric_series():
    T = gr.TwistedGroupRing(fr.make_zmod(8), gp.cyclic_group(2))
    a, inv = df.nonreduced_unit(T, 2, 1)
    assert a == (1, 6)
    assert T.mul(a, inv) == T.one() and T.mul(inv, a) == T.one()
    assert inv != a


def test_nonreduced_unit_rejects_non_nilpotent():
    T = gr.TwistedGroupRing(fr.make_zmod(6), gp.cyclic_group(2))
    with pytest.raises(ValueError):
        df.nonreduced_unit(T, 2, 1)  # 2 is not nilpotent mod 6
    with pytest.raises(ValueError):
        df.nonreduced_unit(T, 0, 1)


def test_unique_products_finite_group():
    H = gp.cyclic_group(5)
    assert gr.unique_product_search(H, [0, 1], [0, 2]) is not None
    # the whole group against itself has no unique product
    full = list(H.elements)
    assert gr.unique_product_search(H, full, full) is None


def test_unique_products_free_abelian():
    A = [(0,), (1,), (5,)]
    B = [(0,), (2,)]
    w = gr.unique_product_search("free_abelian", A, B)
    assert w is not None
    counts = {}
    for a in A:
        for b in B:
            counts[a[0] + b[0]] = counts.get(a[0] + b[0], 0) + 1
    assert counts[w[0]] == 1


def test_unique_products_rank_two():
    A = [(0, 0), (1, 2), (3, 1)]
    B = [(0, 0), (2, 2)]
    w = gr.unique_product_search("free_abelian", A, B)
    assert w is not None
    assert gr.strojnowski_check("free_abelian", A, B)


def test_strojnowski_second_witness():
    # in an ordered group both extremes are unique products
    rng = random.Random(42)
    for _ in range(20):
        A = sorted({(rng.randrange(-5, 6),) for _ in range(4)})
        B = sorted({(rng.randrange(-5, 6),) for _ in range(3)})
        if len(A) + len(B) <= 2:
            continue
        assert gr.strojnowski_check("free_abelian", A, B)
    with pytest.raises(ValueError):
        gr.strojnowski_check("free_abelian", [(0,)], [(1,)])


def test_subgroup_certifies_no_unique_product():
    # A = B = a nontrivial finite subgroup: every product has |H| factorizations
    H = gp.cyclic_group(4)
    sub = [0, 2]
    counts = gr._pairwise_products(H, sub, sub)
    assert all(len(v) == 2 for v in counts.values())
    assert gr.unique_product_search(H, sub, sub) is None


def test_right_inverse_of_a_non_unit_is_refused_before_the_cap(monkeypatch):
    # 3·δ_e in Z/9[C3]: its columns 3·b_j lie in 3·(Z/9)³, so they do not
    # span and the walk calls it a non-unit by elimination alone, with no
    # solve and no search over values of free unknowns
    def refused(*_, **__):
        raise AssertionError("solved a linear system")

    monkeypatch.setattr(fr, "solve_linear", refused)
    T = gr.TwistedGroupRing(fr.make_zmod(9), gp.cyclic_group(3))
    walk = dict(gr._unit_walk(T, cap=729))
    assert walk[T.delta(0, 3)] is False
    assert sum(walk.values()) == 486


def test_elements_cap():
    T = gr.TwistedGroupRing(fr.make_zmod(8), gp.cyclic_group(8))
    with pytest.raises(gr.CapExceeded):
        T.all_elements(cap=10 ** 6)
