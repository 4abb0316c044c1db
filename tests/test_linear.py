"""The exact linear layer against definitional references written here:
solve_linear (all solutions, or one) against a scan of every vector, span
and the spanning test of standard_basis_tails against a closure under
adding scalar multiples of the generators, and the membership test of B
and the dagger solver against a listed B and the oracle dagger."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, pairs as pr

from helpers import ABSTRACT_PAIRS, FIXTURE_NAMES, abstract_pair, make_pair


def _dual_numbers_gf2():
    """GF(2)[x]/(x²) built from tables: a + b·x has index a + 2b."""
    def pack(a, b):
        return a + 2 * b

    pairs = [(a, b) for b in (0, 1) for a in (0, 1)]
    add = [[pack((a + c) % 2, (b + d) % 2) for c, d in pairs] for a, b in pairs]
    mul = [[pack(a * c % 2, (a * d + b * c) % 2) for c, d in pairs]
           for a, b in pairs]
    R = fr.FiniteRing("gf2[x]/(x^2)", ["0", "1", "x", "1+x"], add, mul, 0, 1)
    assert fr.validate_ring(R) == []
    return R


RINGS = [fr.make_zmod(4), fr.make_zmod(6), fr.make_zmod(8), fr.make_zmod(9),
         fr.make_gf(2, 2), fr.make_gf(3, 2), _dual_numbers_gf2()]

PROPERTY = settings(max_examples=150)


def _evaluate(R, coeffs, x):
    acc = R.zero
    for c, v in zip(coeffs, x):
        acc = R.add(acc, R.mul(c, v))
    return acc


@st.composite
def systems(draw):
    """(R, equations, num_unknowns); half the systems are made consistent
    by reading the right-hand sides off a drawn vector.  Over Z/8 and Z/9
    half the others get a row of non-units with a unit right-hand side,
    which no vector solves."""
    R = draw(st.sampled_from(RINGS))
    n = draw(st.integers(0, 3))
    element = st.integers(0, R.size - 1)
    rows = draw(st.lists(st.lists(element, min_size=n, max_size=n), max_size=4))
    if draw(st.booleans()):
        x = draw(st.lists(element, min_size=n, max_size=n))
        return R, [(row, _evaluate(R, row, x)) for row in rows], n
    equations = [(row, draw(element)) for row in rows]
    if R.name in ("zmod(8)", "zmod(9)") and draw(st.booleans()):
        non_units = st.sampled_from([t for t in R.all_indices()
                                     if not R.is_unit(t)])
        row = draw(st.lists(non_units, min_size=n, max_size=n))
        equations.insert(draw(st.integers(0, len(equations))),
                         (row, draw(st.sampled_from(sorted(fr.ring_units(R))))))
    return R, equations, n


@PROPERTY
@given(systems())
def test_solve_linear_equals_a_full_scan(system):
    R, equations, n = system
    scan = [x for x in itertools.product(R.all_indices(), repeat=n)
            if all(_evaluate(R, c, x) == rhs for c, rhs in equations)]
    assert fr.solve_linear(R, equations, n) == scan
    one = fr.solve_linear(R, equations, n, one=True)
    assert len(one) == min(1, len(scan)) and set(one) <= set(scan)


@st.composite
def generator_sets(draw):
    R = draw(st.sampled_from(RINGS))
    dim = draw(st.integers(1, 3 if R.size <= 6 else 2))
    vector = st.tuples(*[st.integers(0, R.size - 1)] * dim)
    return R, dim, draw(st.lists(vector, max_size=4))


@PROPERTY
@given(generator_sets())
def test_span_equals_the_definitional_closure(case):
    R, dim, vectors = case
    A = pr.AbstractAlgebra("free", R, list(range(dim)), {})
    closure, todo = {A.zero()}, [A.zero()]
    while todo:
        x = todo.pop()
        for v in vectors:
            for t in R.all_indices():
                y = A.add(x, A.scale(t, v))
                if y not in closure:
                    closure.add(y)
                    todo.append(y)
    assert A.span(vectors) == closure
    # the vectors followed by the identity: where they span, the tails at
    # column c combine the vectors into the basis vector e_c
    k = len(vectors)
    tails = fr.standard_basis_tails(
        R, [v + tuple(R.one if j == i else R.zero for j in range(k))
            for i, v in enumerate(vectors)], dim)
    assert (tails is not None) == (len(closure) == R.size ** dim)
    if tails is not None:
        for col, coeffs in enumerate(tails):
            assert functools.reduce(A.add, map(A.scale, coeffs, vectors)) == \
                A.basis_vector(col)


def test_dagger_matches_oracle_off_a_coordinate_subspace():
    # M_2(GF(3)) with B the scalar matrices: the identity e11 + e22 has two
    # nonzero coordinates, but B is free on its one pivot row, so the
    # system gets membership rows
    R = fr.make_gf(3)
    units = [(i, j) for i in range(2) for j in range(2)]
    structure = {(a, b): {units.index((units[a][0], units[b][1])): R.one}
                 for a in range(4) for b in range(4)
                 if units[a][1] == units[b][0]}
    A = pr.AbstractAlgebra("m2", R, units, structure)
    pair = pr.Pair(A, [(R.one, R.zero, R.zero, R.one)])
    assert pair._membership_factors()
    found = 0
    for n in A.all_elements():
        dagger = pair.dagger_of(n)
        assert dagger == pair.dagger_of(n, oracle=True)
        found += dagger is not None
    assert 0 < found < A.size()


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(ABSTRACT_PAIRS))
def test_membership_and_dagger_equal_their_definitions(name):
    # in_B reads B off the reduced pivot rows of sub_basis; z4_dual_2x has
    # a rest that is not {0}, and its dagger takes the all-solutions path
    pair = abstract_pair(name) if name in ABSTRACT_PAIRS else make_pair(name)
    A = pair.algebra
    B = A.span(pair.sub_basis)
    assert pair._b_size == len(B)
    assert (len(pair._rest) > 1) == (name == "z4_dual_2x")
    for x in A.all_elements():
        assert pair.in_B(x) == (x in B)
        assert pair.dagger_of(x) == pair.dagger_of(x, oracle=True)
