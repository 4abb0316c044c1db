import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr

import definitions as df


FIXTURE_RINGS = [fr.make_zmod(n) for n in (2, 4, 6, 8)] + \
    [fr.make_gf(2), fr.make_gf(3), fr.make_gf(5), fr.make_gf(2, 2),
     fr.make_gf(3, 2), fr.make_gf(2, 3)]


@pytest.mark.parametrize("R", FIXTURE_RINGS, ids=lambda R: R.name)
def test_ring_axioms(R):
    assert fr.validate_ring(R) == []


def test_zmod_basic_facts():
    R2 = fr.make_zmod(2)
    assert R2.add(R2.one, R2.one) == R2.zero
    R4 = fr.make_zmod(4)
    assert R4.mul(2, 2) == R4.zero
    R6 = fr.make_zmod(6)
    assert R6.mul(3, 3) == 3  # idempotent


def test_zmod_rejects_small_n():
    with pytest.raises(ValueError):
        fr.make_zmod(1)


def test_units_by_exhaustive_inverse_scan():
    # oracle: directly scan for multiplicative inverses
    for R, expected in [(fr.make_zmod(6), {1, 5}),
                        (fr.make_gf(5), {1, 2, 3, 4}),
                        (fr.make_zmod(4), {1, 3})]:
        oracle = {a for a in R.all_indices()
                  if any(R.mul(a, b) == R.one for b in R.all_indices())}
        assert fr.ring_units(R) == expected == oracle


def test_units_form_a_group():
    for R in FIXTURE_RINGS:
        units = fr.ring_units(R)
        assert R.one in units
        for a in units:
            inv = R.unit_inverse(a)
            assert inv in units
            assert R.mul(a, inv) == R.one
            # uniqueness of the inverse
            assert sum(1 for b in R.all_indices() if R.mul(a, b) == R.one) == 1
            for b in units:
                assert R.mul(a, b) in units


def test_idempotents():
    assert fr.ring_idempotents(fr.make_zmod(6)) == {0, 1, 3, 4}
    assert fr.ring_idempotents(fr.make_zmod(4)) == {0, 1}
    R = fr.make_gf(3)
    assert fr.ring_idempotents(R) == {R.zero, R.one}


def test_indecomposable_and_reduced():
    # a ring is indecomposable (its only idempotents are 0 and 1) exactly
    # when it has one primitive idempotent, one local factor
    assert len(fr.local_factors(fr.make_zmod(6))) != 1
    assert len(fr.local_factors(fr.make_zmod(4))) == 1
    assert len(fr.local_factors(fr.make_gf(2))) == 1
    assert not df.is_reduced(fr.make_zmod(4))
    assert df.is_reduced(fr.make_zmod(6))
    assert df.is_reduced(fr.make_gf(2, 2))
    F5 = fr.make_gf(5)
    assert df.is_reduced(F5) and len(fr.local_factors(F5)) == 1


def test_gf_constructions():
    F4 = fr.make_gf(2, 2)
    assert F4.size == 4 and len(fr.ring_units(F4)) == 3
    F3 = fr.make_gf(3, 1)
    assert fr.ring_units(F3) == {1, 2}
    with pytest.raises(ValueError):
        fr.make_gf(4, 1)  # not prime
    with pytest.raises(ValueError):
        fr.make_gf(2, 2, modulus=[0, 0, 1])  # x^2 is reducible
    F8 = fr.make_gf(2, 3)
    assert F8.size == 8 and len(fr.ring_units(F8)) == 7


def test_solve_linear_examples():
    F3 = fr.make_gf(3)
    assert fr.solve_linear(F3, [([2], F3.one)], 1) == [(2,)]
    R4 = fr.make_zmod(4)
    assert fr.solve_linear(R4, [([2], R4.zero)], 1) == [(0,), (2,)]
    F2 = fr.make_gf(2)
    sols = fr.solve_linear(F2, [([1, 1], F2.one), ([1, 1], F2.zero)], 2)
    assert sols == []


def test_solve_linear_matches_direct_enumeration():
    # oracle: re-verify every returned vector, and confirm the count by a
    # fully independent scan
    R = fr.make_zmod(6)
    equations = [([2, 3], 0), ([1, 1], 5)]
    sols = fr.solve_linear(R, equations, 2)
    direct = []
    for x in R.all_indices():
        for y in R.all_indices():
            if R.add(R.mul(2, x), R.mul(3, y)) == R.zero and \
                    R.add(x, y) == 5:
                direct.append((x, y))
    assert sols == direct


def test_vectors_without_a_unit_entry_span_off_a_local_ring():
    # over Z/6 = Z/2 × Z/3, (2, 3) has no unit entry; times ε = 3 it is
    # (0, 3) and times ε = 4 it is (2, 0), each a pivot in its factor.  The
    # tails of the rows followed by the identity are the inverse matrix
    R = fr.make_zmod(6)
    assert fr.standard_basis_tails(R, [(2, 3, 1, 0), (1, 1, 0, 1)], 2) == \
        [(5, 3), (1, 4)]
    assert fr.standard_basis_tails(R, [(1, 1, 1, 0), (2, 3, 0, 1)], 2) == \
        [(3, 5), (4, 1)]
    assert fr.standard_basis_tails(R, [(2, 3)], 2) is None
    # 3 spans 3·Z/6 only: the factor 4·Z/6 ≅ Z/3 has no pivot at column 0
    assert fr.standard_basis_tails(R, [(3, 0), (0, 1)], 2) is None


@pytest.mark.parametrize("R, idempotents", [
    (fr.make_zmod(6), {"3", "4"}), (fr.make_zmod(12), {"4", "9"}),
    (fr.make_zmod(4), {"1"}), (fr.make_gf(2, 2), {"1"}),
    (fr.make_zmod(9), {"1"})])
def test_local_factors(R, idempotents):
    # labelled by the ring's labels: the one of GF(4) is not index 1
    factors = fr.local_factors(R)
    assert {R.label(eps) for eps, _ in factors} == idempotents
    if len(factors) == 1:
        assert factors == [(R.one, R._unit_inverse)]
    for eps, inverse in factors:
        assert all(R.mul(x, y) == eps for x, y in inverse.items())
    assert fr.local_factors(R) is factors


def test_solve_linear_refuses_a_unit_right_hand_side_per_local_factor():
    # 2·(x_1 + … + x_8) = 1 over Z/6: times ε = 3 the row is 0 = 3, a unit
    # of 3·Z/6 ≅ Z/2, so there is no solution and no search over 6^8
    R = fr.make_zmod(6)
    assert fr.solve_linear(R, [([2] * 8, 1)], 8, cap=1) == []


def _mobius(n):
    sign, d = 1, 2
    while n > 1:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return sign


@pytest.mark.parametrize("p, counts", [(2, [2, 1, 2, 3, 6, 9]),
                                       (3, [3, 3, 8, 18]), (5, [5, 10, 40])])
def test_monic_irreducibles_by_gauss_formula(p, counts):
    # (1/k)·Σ_(d|k) μ(d)·p^(k/d) monic irreducibles of degree k over GF(p)
    for k, expected in enumerate(counts, 1):
        assert sum(_mobius(d) * p ** (k // d)
                   for d in range(1, k + 1) if k % d == 0) == k * expected
        assert sum(fr._poly_is_irreducible(list(c) + [1], p)
                   for c in itertools.product(range(p), repeat=k)) == expected


def test_solve_linear_cap():
    R = fr.make_zmod(16)
    with pytest.raises(fr.CapExceeded) as exc:
        fr.solve_linear(R, [], 6, cap=10 ** 6)
    assert exc.value.attempted_size == 16 ** 6


def test_validate_catches_broken_table():
    R = fr.make_zmod(4)
    broken_mul = [list(row) for row in R.mul_table]
    broken_mul[2][3] = 1  # 2*3 = 1 breaks commutativity/associativity
    bad = fr.validate_ring(
        fr.FiniteRing("broken", R.elements, R.add_table, broken_mul, 0, 1))
    assert bad != []


def _validate_by_definition(R):
    """validate_ring by its definition: every pair, then every triple,
    stopping after the triple that passes 20 faults."""
    idx = range(R.size)
    bad = []
    for a in idx:
        for b in idx:
            if R.add(a, b) != R.add(b, a):
                bad.append(f"addition not commutative at ({a},{b})")
            if R.mul(a, b) != R.mul(b, a):
                bad.append(f"multiplication not commutative at ({a},{b})")
        if R.add(a, R.zero) != a:
            bad.append(f"zero not additive identity at {a}")
        if R.mul(a, R.one) != a:
            bad.append(f"one not multiplicative identity at {a}")
    for a, b, c in itertools.product(idx, repeat=3):
        if R.add(R.add(a, b), c) != R.add(a, R.add(b, c)):
            bad.append(f"addition not associative at ({a},{b},{c})")
        if R.mul(R.mul(a, b), c) != R.mul(a, R.mul(b, c)):
            bad.append(f"multiplication not associative at ({a},{b},{c})")
        if R.mul(a, R.add(b, c)) != R.add(R.mul(a, b), R.mul(a, c)):
            bad.append(f"distributivity fails at ({a},{b},{c})")
        if len(bad) > 20:
            break
    return bad


@settings(max_examples=200, deadline=None)
@given(R=st.sampled_from([fr.make_zmod(n) for n in (2, 4, 6, 9, 16, 20, 25)] +
                         [fr.make_gf(2, 2), fr.make_gf(7), fr.make_gf(5, 2)]),
       changes=st.integers(0, 6), seed=st.integers(0, 2 ** 16))
def test_validate_ring_names_the_faults_of_its_definition(R, changes, seed):
    # at every size the verdict is the walk's over every triple, and a
    # table compared a row at a time names the same faults, in the same
    # order and with the same stop
    rng = random.Random(seed)
    tables = [[list(row) for row in R.add_table],
              [list(row) for row in R.mul_table]]
    for _ in range(changes):
        row = rng.choice(tables)[rng.randrange(R.size)]
        row[rng.randrange(R.size)] = rng.randrange(R.size)
    try:
        broken = fr.FiniteRing("broken", R.elements, *tables, R.zero, R.one)
    except ValueError:  # an element left without a negative
        return
    assert fr.validate_ring(broken) == _validate_by_definition(broken)


def test_validate_ring_finds_a_bilinear_product_that_is_not_associative():
    # GF(2)³ on 1, x, y with x² = y, y² = x and xy = 0: commutative, unital
    # and biadditive, but (x·x)·y = x while x·(x·y) = 0, so only the
    # associativity test on the generators can refuse it
    vectors = list(itertools.product((0, 1), repeat=3))
    basis = {((0, 1, 0), (0, 1, 0)): (0, 0, 1), ((0, 0, 1), (0, 0, 1)): (0, 1, 0)}

    def product(u, v):
        out = [u[0] * v[i] ^ v[0] * u[i] for i in range(3)]
        out[0] = u[0] * v[0]
        for (a, b), c in basis.items():
            if u[a.index(1)] and v[b.index(1)]:
                out = [o ^ ci for o, ci in zip(out, c)]
        return tuple(out)

    index = {v: i for i, v in enumerate(vectors)}
    add = [[index[tuple(x ^ y for x, y in zip(u, v))] for v in vectors]
           for u in vectors]
    mul = [[index[product(u, v)] for v in vectors] for u in vectors]
    R = fr.FiniteRing("bilinear", vectors, add, mul, 0, index[(1, 0, 0)])
    bad = fr.validate_ring(R)
    assert bad == _validate_by_definition(R)
    assert bad and all("multiplication not associative" in v for v in bad)


# the seeds, of 0-199, at which one symmetric product entry of Z/100
# redrawn stays unseen by 2,000 random triples
UNSAMPLED_FAULTS = [13, 21, 74, 86, 97, 124, 126, 128, 146, 149, 150, 162,
                    163, 173, 177, 178, 182, 184, 190, 193]


@pytest.mark.parametrize("seed", UNSAMPLED_FAULTS)
def test_validate_ring_refuses_every_single_fault_of_z100(seed):
    R, rng = fr.make_zmod(100), random.Random(seed)
    mul = [list(row) for row in R.mul_table]
    a, b = rng.randrange(100), rng.randrange(100)
    mul[a][b] = mul[b][a] = (a * b + rng.randrange(1, 100)) % 100
    broken = fr.FiniteRing("broken", R.elements, R.add_table, mul, 0, 1)
    assert fr.validate_ring(broken) != []


def test_validate_ring_stops_after_one_triple_past_20_pair_faults():
    # x·y = x on Z/6: 30 commutativity faults, so the triple loop stops
    # after (0, 0, 0), which passes, although x(y + z) ≠ xy + xz for x ≠ 0
    R = fr.make_zmod(6)
    left = [[a] * 6 for a in range(6)]
    broken = fr.FiniteRing("left", R.elements, R.add_table, left, 0, 1)
    bad = fr.validate_ring(broken)
    assert bad == _validate_by_definition(broken)
    assert len(bad) == 30 and "distributivity" not in " ".join(bad)
