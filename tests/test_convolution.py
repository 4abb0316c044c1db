"""ConvolutionAlgebra, the one constructor of a twist's convolution algebra,
against AbstractAlgebra built from the same structure constants written out
here: the generic check multiplies out every basis triple, the convolution
check reads the groupoid axioms and the cocycle identity."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, groupoid as gp, pairs as pr, \
    twist as tw

from helpers import FIXTURE_NAMES, check_cocycle_by_definition, \
    loop_groupoid, make_pair, twists

RINGS = [fr.make_zmod(4), fr.make_gf(3), fr.make_gf(2, 2)]
# |A| ≤ 4^9: full_relation(3) over Z/4; the generic check multiplies out
# every basis triple
SIZE = 4 ** 9


def generic(c):
    """AbstractAlgebra on the arrow basis with b_a·b_b = c(a,b)·b_ab."""
    G = c.groupoid
    index = {g: i for i, g in enumerate(G.arrows)}
    return pr.AbstractAlgebra(
        "generic", c.ring, G.arrows,
        {(index[a], index[b]): {index[ab]: c.value(a, b)}
         for (a, b), ab in G.compose.items()})


def _raises(build, c):
    try:
        build(c)
    except ValueError:
        return True
    return False


@st.composite
def normalised_tables(draw):
    """A generated twist with up to two of its values off the units
    redrawn: unit-valued and normalised, but not always a cocycle."""
    c = draw(twists(RINGS, SIZE))
    R, G, values = c.ring, c.groupoid, dict(c.values)
    inner = sorted((p for p in values
                    if not (G.is_unit(p[0]) or G.is_unit(p[1]))), key=repr)
    if inner:
        units = sorted(fr.ring_units(R))
        for _ in range(draw(st.integers(0, 2))):
            values[draw(st.sampled_from(inner))] = draw(st.sampled_from(units))
    return tw.Cocycle(R, G, values)


@settings(max_examples=150)
@given(normalised_tables())
def test_cocycle_check_equals_the_generic_check(c):
    assert _raises(pr.ConvolutionAlgebra, c) == _raises(generic, c)
    # the row comparisons name the faults of the triple loop, in its order
    assert tw.check_cocycle(c) == check_cocycle_by_definition(c)


def test_the_tables_reach_both_verdicts():
    # the strategy's two shapes on full_relation(2) over GF(3)
    G, R = gp.full_relation(2), fr.make_gf(3)
    cocycle = tw.coboundary_cocycle(R, G, {(1, 2): 2, (2, 1): 1})
    broken = dict(cocycle.values)
    broken[((1, 2), (2, 1))] = R.mul(2, broken[((1, 2), (2, 1))])
    for values, fails in ((cocycle.values, False), (broken, True)):
        c = tw.Cocycle(R, G, values)
        assert _raises(pr.ConvolutionAlgebra, c) == _raises(generic, c) == fails


def test_both_checks_refuse_the_loop():
    c = tw.trivial_cocycle(fr.make_gf(3), loop_groupoid())
    with pytest.raises(pr.InvalidTwist,
                       match="groupoid invalid: associativity fails"):
        pr.ConvolutionAlgebra(c)
    with pytest.raises(ValueError, match="not associative"):
        generic(c)


def test_the_cocycle_check_alone_passes_the_loop():
    # the identity holds for the trivial cocycle on any composition, so a
    # twist needs the groupoid's own check beside check_cocycle
    G = loop_groupoid()
    assert tw.check_cocycle(tw.trivial_cocycle(fr.make_gf(3), G)) == []
    assert gp.validate_groupoid(G) != []


def test_a_groupoid_passes_light_test_once(monkeypatch):
    # the algebra validates G, then check_cocycle reads the pass off G
    walked = []
    generator_pairs = gp.generator_pairs
    monkeypatch.setattr(gp, "generator_pairs",
                        lambda G: walked.append(G) or generator_pairs(G))
    G = gp.full_relation(3)
    pr.ConvolutionAlgebra(tw.trivial_cocycle(fr.make_gf(3), G))
    assert gp.validate_groupoid(G) == []
    assert walked == [G]


def test_the_row_check_needs_no_associativity():
    # on the loop, ∂b fails the identity wherever (ab)g ≠ a(bg) and b
    # tells the two apart
    R = fr.make_gf(3)
    c = tw.coboundary_cocycle(R, loop_groupoid(), {1: 2, 2: 2})
    assert tw.check_cocycle(c) == check_cocycle_by_definition(c) != []


def test_a_repeated_arrow_label_is_refused():
    # the index of arrows would merge the two labels, so no groupoid, and
    # no convolution algebra, is built on them
    ends = {"e": "x"}
    with pytest.raises(ValueError, match="^arrow label 'e' is repeated$"):
        gp.groupoid_from_rows("twice", ["x"], ["e", "e"], ends, ends,
                              [[0, 1], [1, 0]])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rows_equal_the_generic_rows(name):
    A = make_pair(name).algebra
    assert A.rows == generic(A.cocycle).rows
    assert [A.basis[i] for i in A.index.values()] == A.basis


def test_large_rung_builds_without_triple_products(monkeypatch):
    # M_7(GF(2)), dim 49: the generic check takes 49² + 2·49³ products
    count = itertools.count()
    mul = pr.AbstractAlgebra.mul

    def counted(self, x, y):
        next(count)
        return mul(self, x, y)

    monkeypatch.setattr(pr.AbstractAlgebra, "mul", counted)
    pr.pair_from_twist(tw.trivial_cocycle(fr.make_gf(2), gp.full_relation(7)))
    assert next(count) < 1000
