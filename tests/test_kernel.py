"""The product kernel of AbstractAlgebra, twisted group rings among its
algebras, the dagger checked on sub_basis, and the rebuilt twist's
cocycle read off one product per pair of classes, against their
definitions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, pairs as pr, reconstruct as rc, \
    steinberg as sb

import definitions as df
from helpers import ABSTRACT_PAIRS, FIXTURE_NAMES, abstract_pair, \
    group_ring, klein_z4_pair, make_pair, make_twist, times_coboundary, \
    twists

PROPERTY = settings(max_examples=150)


def _vectors(pair):
    R, dim = pair.algebra.ring, pair.algebra.dim
    return st.tuples(*[st.integers(0, R.size - 1)] * dim)


@st.composite
def twist_element_pairs(draw):
    """Two elements of the convolution algebra of a fixture twist, the
    twist times a random coboundary or not."""
    c = make_twist(draw(st.sampled_from(FIXTURE_NAMES)))
    if draw(st.booleans()):
        c = times_coboundary(
            c, random.Random(draw(st.integers(0, 2 ** 16))).choice)
    pair = pr.pair_from_twist(c)
    return pair, draw(_vectors(pair)), draw(_vectors(pair))


@PROPERTY
@given(twist_element_pairs())
def test_mul_equals_convolution(args):
    pair, x, y = args
    f, g = df.vector_to_element(pair, x), df.vector_to_element(pair, y)
    assert pair.algebra.mul(x, y) == \
        pr.element_to_vector(pair, sb.convolve(f, g))


_RINGS = [fr.make_gf(3), fr.make_gf(2, 2), fr.make_zmod(4), fr.make_zmod(9),
          fr.make_gf(3, 2)]


@st.composite
def group_ring_element_pairs(draw):
    """R(H, c) for a generated twist c on one group, c itself and two
    elements."""
    c = draw(twists(_RINGS, one_object=True))
    element = st.tuples(*[st.integers(0, c.ring.size - 1)] *
                        len(c.groupoid.arrows))
    return group_ring(c), c, draw(element), draw(element)


@settings(max_examples=100)
@given(group_ring_element_pairs())
def test_group_ring_mul_equals_convolution(args):
    T, c, f, g = args
    H = T.group
    product = sb.convolve(sb.AlgebraElement(c, dict(zip(H.elements, f))),
                          sb.AlgebraElement(c, dict(zip(H.elements, g))))
    assert T.mul(f, g) == tuple(product.coeffs.get(h, T.ring.zero)
                                for h in H.elements)
    # the rows f·b_j ⧺ b_j combine into δ_e ⧺ x exactly when f·x = δ_e;
    # in the finite T a right inverse is the inverse
    tails = fr.standard_basis_tails(
        T.ring, [T.mul(f, b) + b for b in T.basis_vectors], T.dim)
    if tails is not None:
        x = tails[T.index[H.identity]]
        assert T.mul(f, x) == T.one() == T.mul(x, f)


def _product_by_definition(R, dim, structure, x, y):
    """Σ x_i·y_j·c_ij^k·b_k over the given structure constants."""
    out = [R.zero] * dim
    for (i, j), entry in structure.items():
        for k, c in entry.items():
            out[k] = R.add(out[k], R.mul(R.mul(x[i], y[j]), c))
    return tuple(out)


@st.composite
def structure_element_pairs(draw):
    name = draw(st.sampled_from(list(ABSTRACT_PAIRS)))
    pair = abstract_pair(name)
    return name, pair.algebra, draw(_vectors(pair)), draw(_vectors(pair))


@PROPERTY
@given(structure_element_pairs())
def test_mul_equals_the_structure_constant_sum(args):
    name, A, x, y = args
    R, (_, structure), _, _ = ABSTRACT_PAIRS[name]
    assert A.mul(x, y) == _product_by_definition(R, A.dim, structure, x, y)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["klein_z4"])
def test_rebuilt_total_composition_is_the_product(name):
    # the points t·g and s·h compose, as points of the twist of c′, to
    # ts·c′(g,h)·(g∘h); it must be their product in A
    pair = klein_z4_pair() if name == "klein_z4" else make_pair(name)
    A, R = pair.algebra, pair.algebra.ring
    ug = rc.build_ultra_groupoid(pair)
    c = ug.to_twist()
    G = c.groupoid
    for m in ug.points:
        t, g = ug.coordinates[m]
        assert A.scale(t, g) == m
        for n in ug.points:
            s, h = ug.coordinates[n]
            assert ((g, h) in G.compose) == (ug.source[m] == ug.range[n])
            if (g, h) in G.compose:
                assert A.mul(m, n) == A.scale(
                    R.mul(R.mul(t, s), c.value(g, h)), G.compose[(g, h)])
    if name == "klein_z4":
        assert len(ug.points) == 128


def _dagger_or_error(pair, n, oracle):
    try:
        return pair.dagger_of(n, oracle=oracle)
    except (AssertionError, fr.InputError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(ABSTRACT_PAIRS))
def test_dagger_on_sub_basis_equals_the_oracle(name):
    # in z4_dual_2x the rest of sub_basis spans {0, 2x}, so the system has
    # no membership rows and the sub_basis check is the only condition on
    # B; m2_gf3_scalars, t2_gf3_unipotent and m2_gf3_conjugated are not
    # coordinate subspaces but are free on their pivot rows
    pair = abstract_pair(name)
    for n in pair.algebra.all_elements():
        assert _dagger_or_error(pair, n, False) == \
            _dagger_or_error(pair, n, True)
