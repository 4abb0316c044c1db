"""The product kernel of AbstractAlgebra, twisted group rings among its
algebras, the dagger checked on sub_basis, and the rebuilt twist filled
by the unit action, against their definitions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, groupoid as gp, grouprings as gr, \
    pairs as pr, reconstruct as rc, steinberg as sb, twist as tw

from helpers import ABSTRACT_PAIRS, FIXTURE_NAMES, abstract_pair, \
    klein_z4_pair, make_pair, make_twist, times_coboundary

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def _vectors(pair):
    R, dim = pair.algebra.ring, pair.algebra.dim
    return st.tuples(*[st.integers(0, R.size - 1)] * dim)


@st.composite
def twist_element_pairs(draw):
    """Two elements of the convolution algebra of a fixture twist, the
    twist times a random coboundary or not."""
    c = make_twist(draw(st.sampled_from(FIXTURE_NAMES)))
    if draw(st.booleans()):
        c = times_coboundary(c, random.Random(draw(st.integers(0, 2 ** 16))))
    pair = pr.pair_from_twist(c)
    return pair, draw(_vectors(pair)), draw(_vectors(pair))


@PROPERTY
@given(twist_element_pairs())
def test_mul_equals_convolution(args):
    pair, x, y = args
    f, g = pr.vector_to_element(pair, x), pr.vector_to_element(pair, y)
    assert pair.algebra.mul(x, y) == \
        pr.element_to_vector(pair, sb.convolve(f, g))


_KLEIN = gp.direct_product_group(gp.cyclic_group(2), gp.cyclic_group(2))
# (group, the cyclic coordinate of an element and its order, which the
# carry cocycle t^[x+y ≥ n] reads)
_GROUPS = [(gp.cyclic_group(n), lambda g: g, n) for n in range(2, 7)] + \
    [(_KLEIN, lambda g: g[0], 2)]
_RINGS = [fr.make_gf(3), fr.make_gf(2, 2), fr.make_zmod(4), fr.make_zmod(9),
          fr.make_gf(3, 2)]


@st.composite
def group_ring_element_pairs(draw):
    """R(H, c) with c a carry cocycle times a random coboundary, the same
    cocycle on group_as_groupoid(H), and two elements."""
    H, coordinate, n = draw(st.sampled_from(_GROUPS))
    R = draw(st.sampled_from(_RINGS))
    G = gp.group_as_groupoid(H)
    units = sorted(fr.ring_units(R))
    t = draw(st.sampled_from(units))
    d = tw.coboundary_cocycle(R, G, {g: draw(st.sampled_from(units))
                                     for g in H.elements if g != H.identity})
    c = tw.Cocycle(R, G, {(x, y): R.mul(t, v) if coordinate(x) + coordinate(y) >= n
                          else v for (x, y), v in d.values.items()})
    element = st.tuples(*[st.integers(0, R.size - 1)] * len(H))
    return gr.TwistedGroupRing(R, H, c.values), c, draw(element), draw(element)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(group_ring_element_pairs())
def test_group_ring_mul_equals_convolution(args):
    T, c, f, g = args
    H = T.group
    product = sb.convolve(sb.AlgebraElement(c, dict(zip(H.elements, f))),
                          sb.AlgebraElement(c, dict(zip(H.elements, g))))
    assert T.mul(f, g) == tuple(product.value(h) for h in H.elements)
    # a cap keeps the solver from listing up to 9^6 solutions of f·x = δ_e
    # for a non-unit f over Z/9
    try:
        x = gr._solve_right_inverse(T, f, cap=729)
    except fr.CapExceeded:
        x = None
    if x is not None:
        assert T.mul(f, x) == T.one()


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
    pair = klein_z4_pair() if name == "klein_z4" else make_pair(name)
    A = pair.algebra
    ug = rc.build_ultra_groupoid(pair)
    total = ug.to_twist().total
    composable = [(m, n) for m in ug.points for n in ug.points
                  if ug.source[m] == ug.range[n]]
    assert list(total.compose) == composable
    for (m, n), mn in total.compose.items():
        assert mn == A.mul(m, n)
    if name == "klein_z4":
        assert len(ug.points) == 128


def _dagger_or_error(pair, n, oracle):
    try:
        return pair.dagger_of(n, oracle=oracle)
    except (AssertionError, fr.InputError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(ABSTRACT_PAIRS))
def test_dagger_on_sub_basis_equals_the_oracle(name):
    # in m2_gf3_scalars and t2_gf3_unipotent B is not a coordinate
    # subspace, so the system has no membership rows and the sub_basis
    # check is the only condition on B
    pair = abstract_pair(name)
    for n in pair.algebra.all_elements():
        assert _dagger_or_error(pair, n, False) == \
            _dagger_or_error(pair, n, True)
