import itertools
import random

import pytest

from quasicartan import finring as fr, groupoid as gp, pairs as pr, \
    steinberg as sb, twist as tw

import definitions as df
from helpers import FIXTURE_NAMES, make_twist


def _matrix_oracle(c, f):
    """Untwisted full-relation algebras are matrix algebras: (i,j) -> E_ij."""
    n = len(c.groupoid.objects)
    M = [[c.ring.zero] * n for _ in range(n)]
    for (i, j), v in f.coeffs.items():
        M[i - 1][j - 1] = v
    return M


def _matmul(R, A, B):
    n = len(A)
    out = [[R.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = R.zero
            for k in range(n):
                acc = R.add(acc, R.mul(A[i][k], B[k][j]))
            out[i][j] = acc
    return out


@pytest.mark.parametrize("n,ringmaker", [(2, lambda: fr.make_gf(3)),
                                         (2, lambda: fr.make_zmod(4)),
                                         (3, lambda: fr.make_gf(2))])
def test_convolution_matches_matrix_multiplication(n, ringmaker):
    # independent oracle: translate to matrices, multiply there, translate back
    R = ringmaker()
    c = tw.trivial_cocycle(R, gp.full_relation(n))
    rng = random.Random(7)
    arrows = list(c.groupoid.arrows)
    for _ in range(200):
        f = sb.AlgebraElement(c, {g: rng.randrange(R.size) for g in arrows})
        g = sb.AlgebraElement(c, {a: rng.randrange(R.size) for a in arrows})
        prod = sb.convolve(f, g)
        expected = _matmul(R, _matrix_oracle(c, f), _matrix_oracle(c, g))
        assert _matrix_oracle(c, prod) == expected


def test_convolution_matches_group_ring_formula():
    # over a one-object groupoid the convolution must agree with the twisted
    # group ring product computed by the independent grouprings module
    from quasicartan import grouprings as gr
    c = make_twist("z2_gf5_twisted")
    T = gr.TwistedGroupRing(c.ring, gp.cyclic_group(2), {(1, 1): 4})
    rng = random.Random(3)
    for _ in range(100):
        fc = tuple(rng.randrange(5) for _ in (0, 1))
        gc = tuple(rng.randrange(5) for _ in (0, 1))
        prod = sb.convolve(sb.AlgebraElement(c, dict(enumerate(fc))),
                           sb.AlgebraElement(c, dict(enumerate(gc))))
        expected = T.mul(fc, gc)
        assert tuple(prod.coeffs.get(g, c.ring.zero) for g in (0, 1)) == expected


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_associativity_and_distributivity(name):
    c = make_twist(name)
    R, G = c.ring, c.groupoid
    size = R.size ** len(G.arrows)
    rng = random.Random(11)

    def rand():
        return sb.AlgebraElement(
            c, {g: rng.randrange(R.size) for g in G.arrows})

    # full triple enumeration only while |A|^3 stays small
    if size ** 3 <= 3 * 10 ** 4:
        elems = df.enumerate_elements(c)
        triples = itertools.product(elems, elems, elems)
    else:
        triples = (tuple(rand() for _ in range(3)) for _ in range(300))
    for f, g, h in triples:
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_identity_element():
    for name in FIXTURE_NAMES:
        c = make_twist(name)
        one = sb.AlgebraElement(c, dict.fromkeys(c.groupoid.units, c.ring.one))
        rng = random.Random(5)
        for _ in range(20):
            f = sb.AlgebraElement(c, {g: rng.randrange(c.ring.size)
                                      for g in c.groupoid.arrows})
            assert one * f == f and f * one == f


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_indicator_multiplication_rule(name):
    # 1̃_U * 1̃_V = 1̃_{UV} over every pair of twist bisections on full base
    # bisections with unit labels drawn from the unit group
    c = make_twist(name)
    G, R = c.groupoid, c.ring
    units = sorted(fr.ring_units(R))
    base_bisections = []
    arrows = sorted(G.arrows, key=str)
    for r in range(1, min(len(arrows), 3) + 1):
        for combo in itertools.combinations(arrows, r):
            if sb.is_bisection(G, combo):
                base_bisections.append(combo)
    rng = random.Random(13)
    assignments = []
    for combo in base_bisections:
        for _ in range(2):
            assignments.append({g: units[rng.randrange(len(units))]
                                for g in combo})
    checked = 0
    for X in assignments:
        for Y in assignments:
            try:
                XY = df.multiply_bisections(c, X, Y)
            except ValueError:
                continue
            lhs = df.indicator_tilde(c, X) * df.indicator_tilde(c, Y)
            assert lhs == df.indicator_tilde(c, XY) if XY else not lhs.coeffs
            checked += 1
    assert checked > 0


def test_indicator_rejects_non_bisection():
    c = make_twist("pair2_gf3")
    with pytest.raises(ValueError):
        df.indicator_tilde(c, {(1, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        df.indicator_tilde(c, {(1, 2): 0})


def test_value_at_point_contravariance():
    c = make_twist("z2_gf5_twisted")
    f = sb.AlgebraElement(c, {1: 3})
    R = c.ring
    for t in fr.ring_units(R):
        assert df.value_at_point(f, 1, t) == R.mul(R.unit_inverse(t), 3)


def test_diagonal_idempotents_full_relation_3_gf2():
    c = tw.trivial_cocycle(fr.make_gf(2), gp.full_relation(3))
    D = sb.diagonal(c)
    pair = pr.pair_from_twist(c)
    idems, _ = pair.idempotents_of_B()
    assert len(idems) == 2 ** 3
    for e in idems:
        assert D.contains(df.vector_to_element(pair, e))


def test_diagonal_is_commutative_subalgebra():
    c = make_twist("pair2_z4")
    D = sb.diagonal(c)
    pair = pr.pair_from_twist(c)
    elems = [df.vector_to_element(pair, b)
             for b in pair.algebra.span(pair.sub_basis)]
    for f in elems:
        for g in elems:
            assert D.contains(f * g)
            assert f * g == g * f


def test_restriction_expectation_properties():
    for name in ["pair2_gf3", "z2_z4", "mixed_gf3"]:
        c = make_twist(name)
        P = df.restriction_expectation(c)
        D = sb.diagonal(c)
        rng = random.Random(17)
        for _ in range(50):
            f = sb.AlgebraElement(c, {g: rng.randrange(c.ring.size)
                                      for g in c.groupoid.arrows})
            assert P(P(f)) == P(f)
            assert D.contains(P(f))
        for u in c.groupoid.units:
            d = sb.point_mass(c, u)
            assert P(d) == d


def test_decompose_roundtrip():
    for name in FIXTURE_NAMES:
        c = make_twist(name)
        rng = random.Random(23)
        for _ in range(30):
            f = sb.AlgebraElement(c, {g: rng.randrange(c.ring.size)
                                      for g in c.groupoid.arrows})
            total = sb.AlgebraElement(c, {})
            supports = []
            for v, ind in df.decompose_as_bisections(f):
                total = total + sb.AlgebraElement(c, {
                    g: c.ring.mul(v, u) for g, u in ind.coeffs.items()})
                assert sb.is_bisection(c.groupoid, ind.support())
                supports.append(ind.support())
            assert total == f
            flat = [g for s in supports for g in s]
            assert len(flat) == len(set(flat))  # disjoint supports


def test_decompose_two_term_example():
    # E_11 + 2·E_12 needs two bisection terms: supports overlap in range
    c = tw.trivial_cocycle(fr.make_gf(3), gp.full_relation(2))
    f = sb.AlgebraElement(c, {(1, 1): 1, (1, 2): 2})
    terms = df.decompose_as_bisections(f)
    assert len(terms) == 2
    assert sorted(v for v, _ in terms) == [1, 2]


def test_enumerate_cap():
    c = tw.trivial_cocycle(fr.make_gf(5), gp.full_relation(3))
    with pytest.raises(fr.CapExceeded):
        df.enumerate_elements(c, cap=10 ** 6)
