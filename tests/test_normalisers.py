"""The atom path of Pair.enumerate_normalisers, faithfulness and the
commutant decided by spanning tests, and classify read off the minimal
normalisers, against scans of the whole algebra."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, groupoid as gp, grouprings as gr, \
    pairs as pr, reconstruct as rc, twist as tw

from helpers import ABSTRACT_PAIRS, FIXTURE_NAMES, abstract_pair, \
    klein_z4_pair, make_pair, make_twist, twists

PROPERTY = settings(max_examples=60)

# the oracle scans test every k of A for every n of A, so keep |A| small
ORACLE_SIZE = 81

RINGS = [fr.make_zmod(2), fr.make_zmod(3), fr.make_zmod(4), fr.make_gf(2, 2),
         fr.make_zmod(6), fr.make_gf(7)]


# the bases full_relation(2) and C2 by kind
TWO = {"full": gp.full_relation(2), "cyclic": gp.cyclic_group(2).groupoid}


def twist_pairs():
    """The pairs of generated twists with |A| ≤ ORACLE_SIZE."""
    return twists(RINGS, ORACLE_SIZE).map(pr.pair_from_twist)


def _scan(pair, oracle=False):
    """(full, minimal) by their definitions over every element of A."""
    A = pair.algebra
    _, atoms = pair.idempotents_of_B()
    full = [n for n in A.all_elements()
            if pair.dagger_of(n, oracle=oracle) is not None]
    minimal = [n for n in full if n != A.zero()
               and A.mul(pair.dagger_of(n, oracle=oracle), n) in atoms]
    return full, minimal


def _kernel_scan(pair, P, normalisers):
    A = pair.algebra
    return [a for a in A.all_elements()
            if all(P(A.mul(n, a)) == A.zero() for n in normalisers)]


def _commutant_scan(pair):
    A = pair.algebra
    return [a for a in A.all_elements()
            if all(A.mul(a, b) == A.mul(b, a) for b in pair.sub_basis)]


def _linear_map(A, images):
    def P(x):
        out = A.zero()
        for xi, image in zip(x, images):
            out = A.add(out, A.scale(xi, image))
        return out
    return P


def _check_against_scans(pair, images):
    full, minimal = _scan(pair)
    A = pair.algebra
    assert pair.enumerate_normalisers("full") == full
    assert pair.enumerate_normalisers("minimal") == minimal
    if len(pair._rest) == 1:  # B is free on its pivot rows
        assert pair._is_own_commutant() == \
            (set(_commutant_scan(pair)) == A.span(pair.sub_basis))
    # a random P has a nonzero kernel on many pairs, so both answers occur
    P = _linear_map(A, images)
    assert pair._is_faithful(P) == (_kernel_scan(pair, P, full) == [A.zero()])
    ce = pair.canonical_expectation()
    if ce["map"] is not None:
        assert pair._is_faithful(ce["map"]) == \
            (_kernel_scan(pair, ce["map"], full) == [A.zero()])


def _random_images(A, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(A.ring.size) for _ in range(A.dim))
            for _ in range(A.dim)]


@PROPERTY
@given(twist_pairs(), st.integers(0, 2 ** 16))
def test_atom_path_equals_the_oracle_scans(pair, seed):
    full, minimal = _scan(pair, oracle=True)
    assert pair.enumerate_normalisers("full") == full
    assert pair.enumerate_normalisers("minimal") == minimal
    _check_against_scans(pair, _random_images(pair.algebra, seed))


@pytest.mark.parametrize("name", list(ABSTRACT_PAIRS))
def test_abstract_pairs_against_the_oracle_scans(name):
    pair = abstract_pair(name)
    local_units = ABSTRACT_PAIRS[name][-1]
    assert pair.has_local_units() == local_units
    full, minimal = _scan(pair, oracle=True)
    assert pair.enumerate_normalisers("full") == full
    assert pair.enumerate_normalisers("minimal") == minimal
    _check_against_scans(pair, _random_images(pair.algebra, 7))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_normalisers_equal_a_scan_of_A(name):
    pair = make_pair(name)
    assert pair.algebra.size() <= 729
    _check_against_scans(pair, _random_images(pair.algebra, 11))


def test_one_atom_group_ring_equals_a_scan_of_A():
    # Z/4[C2×C2]: the unit is the only atom, so its corner is all of A
    pair = klein_z4_pair()
    assert len(pair.idempotents_of_B()[1]) == 1
    _check_against_scans(pair, _random_images(pair.algebra, 5))


def test_faithfulness_kernel_evaluates_P_on_spanning_rows():
    # Z/4[C2×C2]: the 64 classes span A, so their pivot rows are the
    # standard basis and P is evaluated on dim² = 16 products, not 64·4
    pair = klein_z4_pair()
    A = pair.algebra
    P = pair.canonical_expectation()["map"]
    evaluated = []

    def counting_P(x):
        evaluated.append(x)
        return P(x)

    assert len(pair.unit_classes()[1]) == 64
    assert pair._is_faithful(counting_P)
    assert 0 < len(evaluated) <= A.dim ** 2


def test_some_abstract_pair_leaves_a_rest():
    # so that _check_against_scans covers the kernel over the rest
    pair = abstract_pair("z6_c2_group_ring")
    _, classes = pair.unit_classes()
    pivots, rest = fr.unit_pivot_rows(pair.algebra.ring, classes)
    assert rest and len(pivots) < pair.algebra.dim


def _expectation_by_definition(pair, N, reverse=False):
    """canonical_expectation's P built from the normaliser list N, as a
    table over all of A, or None.

    P(n) = n·e(n) on T, the first dim A candidates that raise the
    unit-pivot rank, is extended linearly: P(Σ c_j·t_j) = Σ c_j·P(t_j)
    for every choice of the c_j.  The candidates are the basis vectors in
    N, then N itself, walked backwards when reverse is set.  A candidate
    is taken when T stays free with it: span(T + [n]), built with A.span,
    has |R|^(|T|+1) elements.  Over a finite local ring a family is free
    exactly when it is independent modulo the maximal ideal, so this is
    the unit-pivot rule.  Over other rings the rules agree on basis
    vectors, the only candidates the forward walk takes on twist pairs,
    the only pairs over such rings that the oracle runs on; T is a basis
    of A whenever it reaches dim A."""
    A, R = pair.algebra, pair.algebra.ring
    _, atoms = pair.idempotents_of_B()
    members = set(N)
    T, spanned = [], {A.zero()}
    walk = [b for b in A.basis_vectors if b in members] + list(N)
    for n in walk[::-1] if reverse else walk:
        if len(T) < A.dim and n not in spanned:
            grown = A.span(T + [n])
            if len(grown) == len(spanned) * R.size:
                T.append(n)
                spanned = grown
    if len(T) < A.dim:
        return None
    images = []
    for n in T:
        source = A.mul(pair.dagger_of(n, oracle=True), n)
        e = A.zero()
        for a in atoms:
            if A.mul(a, source) == a and pair.in_B(A.mul(n, a)):
                e = A.add(e, a)
        images.append(A.mul(n, e))
    table = {}
    for c in itertools.product(R.all_indices(), repeat=A.dim):
        table[functools.reduce(A.add, map(A.scale, c, T))] = \
            functools.reduce(A.add, map(A.scale, c, images))
    assert len(table) == A.size()
    return table


def _flags_by_definition(pair):
    """classify's flags from every normaliser, listed by the oracle scan,
    with spans built by A.span, the expectation built from that list and
    checked by its axioms, and the faithfulness kernel scanned over the
    list.  Where the pair is quasi-Cartan, P built from the list in
    reverse order is the same map."""
    A = pair.algebra
    N, _ = _scan(pair, oracle=True)
    B = A.span(pair.sub_basis)
    idem, _ = pair.idempotents_of_B()

    def spans_A(vectors):
        return len(A.span(vectors)) == A.size()

    def free(n):
        k = pair.dagger_of(n, oracle=True)
        return pair.in_B(n) or \
            A.mul(A.mul(k, n), A.mul(n, k)) == A.zero()

    P = _expectation_by_definition(pair, N)
    if P is not None and not (
            all(P[b] == b for b in B) and
            all(pair.in_B(P[a]) for a in A.basis_vectors) and
            all(P[A.mul(A.mul(b, a), b2)] == A.mul(A.mul(b, P[a]), b2)
                for b in B for b2 in B for a in A.basis_vectors)):
        P = None
    flags = {
        # over every nonzero idempotent; satisfies_wt reads the atoms
        "WT": not any(A.scale(t, e) == A.zero() for e in idem if e != A.zero()
                      for t in A.ring.all_indices() if t != A.ring.zero),
        "local_units": any(all(A.mul(e, a) == a == A.mul(a, e)
                               for a in A.basis_vectors) for e in idem),
        "B_spanned_by_idempotents": A.span(idem) == B,
        "A_spanned_by_normalisers": spans_A(N),
        "faithful_CE_exists": P is not None and
        _kernel_scan(pair, P.__getitem__, N) == [A.zero()],
    }
    base = all(flags.values())
    flags["AQP"] = base and all(
        any(A.mul(n, e) == P[n] == A.mul(e, n) for e in idem) for n in N)
    flags["ACP"] = base and set(_commutant_scan(pair)) == B
    flags["ADP"] = base and spans_A([n for n in N if free(n)])
    if flags["AQP"]:
        assert _expectation_by_definition(pair, N, reverse=True) == P
    return flags


def _check_classify_by_definition(pair):
    flags = dict(pair.classify())
    flags.pop("warnings", None)
    assert flags == _flags_by_definition(pair)
    for n in pair.algebra.all_elements():
        assert pair.dagger_of(n) == pair.dagger_of(n, oracle=True)


@PROPERTY
@given(twist_pairs())
def test_classify_equals_the_flags_by_definition(pair):
    _check_classify_by_definition(pair)


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(ABSTRACT_PAIRS))
def test_classify_equals_the_flags_by_definition_on_named_pairs(name):
    pair = abstract_pair(name) if name in ABSTRACT_PAIRS else make_pair(name)
    assert pair.algebra.size() <= 729
    _check_classify_by_definition(pair)


def test_dagger_of_zero_is_zero_without_a_solve(monkeypatch):
    pair = pr.pair_from_twist(
        tw.trivial_cocycle(fr.make_gf(3), gp.full_relation(3)))
    monkeypatch.setattr(pr.Pair, "_solve_dagger_system", None)
    zero = pair.algebra.zero()
    assert pair.dagger_of(zero) == zero


def test_large_rung_without_a_scan_of_A(monkeypatch):
    # M_3(GF(3)), |A| = 3^9; criterion 1's counts n²(q−1) = 18 and n² = 9.
    # Only the fibre group rings of check_lbh may list their elements.
    all_elements = pr.AbstractAlgebra.all_elements

    def refuse(self, cap=fr.DEFAULT_CAP):
        if isinstance(self, gr.TwistedGroupRing):
            return all_elements(self, cap)
        raise AssertionError("scanned all of A")

    monkeypatch.setattr(pr.AbstractAlgebra, "all_elements", refuse)
    pair = pr.pair_from_twist(
        tw.trivial_cocycle(fr.make_gf(3), gp.full_relation(3)))
    flags = pair.classify()
    assert flags["ADP"] and flags["ACP"] and flags["AQP"]
    assert len(pair.enumerate_normalisers("full")) == 139
    report = rc.verify_reconstruction_theorem(pair)
    assert report["consistent"] and report["aqp"]
    assert report["sigma_prime_points"] == 18
    assert report["g_prime_arrows"] == 9


@pytest.mark.parametrize("n, q, cap", [(3, 3, fr.DEFAULT_CAP),
                                       (4, 2, fr.DEFAULT_CAP), (5, 2, 2 ** 26)])
def test_large_rungs_without_the_full_list_or_a_span_above_B(
        monkeypatch, n, q, cap):
    # |A| = q^(n²) but |B| = q^n; criterion 1's counts are n²(q−1) points
    # and n² classes
    def refuse(self):
        raise AssertionError("listed every normaliser")

    span = pr.AbstractAlgebra.span

    def small_span(self, vectors):
        out = span(self, vectors)
        if len(out) > q ** n:
            raise AssertionError(f"built a span of {len(out)} elements")
        return out

    solve = fr.solve_linear

    def no_kernel(R, equations, *args, **kwargs):
        if all(rhs == R.zero for _, rhs in equations):
            raise AssertionError("listed a kernel")
        return solve(R, equations, *args, **kwargs)

    monkeypatch.setattr(pr.Pair, "_full_normalisers", refuse)
    monkeypatch.setattr(pr.AbstractAlgebra, "span", small_span)
    monkeypatch.setattr(fr, "solve_linear", no_kernel)
    pair = pr.pair_from_twist(
        tw.trivial_cocycle(fr.make_gf(q), gp.full_relation(n)), cap=cap)
    flags = pair.classify()
    assert flags["ADP"] and flags["ACP"] and flags["AQP"]
    report = rc.verify_reconstruction_theorem(pair)
    assert report["consistent"] and report["aqp"]
    assert report["sigma_prime_points"] == n * n * (q - 1)
    assert report["g_prime_arrows"] == n * n


def _count_solves(monkeypatch):
    """A list that grows by one per call of Pair._solve_dagger_system."""
    calls = []
    solve = pr.Pair._solve_dagger_system

    def counted(self, n, one=False):
        calls.append(n)
        return solve(self, n, one=one)

    monkeypatch.setattr(pr.Pair, "_solve_dagger_system", counted)
    return calls


def _group_twist(R, n, values=None):
    return tw.Cocycle(R, gp.group_as_groupoid(gp.cyclic_group(n)), values or {})


def _m3_gf3():
    return pr.pair_from_twist(
        tw.trivial_cocycle(fr.make_gf(3), gp.full_relation(3)))


@pytest.mark.parametrize("build, mode, count", [
    # one atom: the units of the corner A by their powers
    (klein_z4_pair, "minimal", 128),
    (lambda: pr.pair_from_twist(_group_twist(fr.make_gf(3), 6)), "minimal",
     324),
    # each off-diagonal corner of M_3(GF(3)) from one arrow and its inverse
    (_m3_gf3, "minimal", 18),
    # M_2(Z/4): 1 + 4 + 4 + 8 sums of at most one minimal normaliser per
    # source, with distinct ranges, each with its dagger
    (lambda: pr.pair_from_twist(
        tw.trivial_cocycle(fr.make_zmod(4), gp.full_relation(2))), "full", 17),
], ids=["z4_klein", "gf3_c6", "m3_gf3", "m2_z4_full"])
def test_twist_normalisers_take_no_solve(monkeypatch, build, mode, count):
    pair = build()
    calls = _count_solves(monkeypatch)
    assert len(pair.enumerate_normalisers(mode)) == count
    assert calls == []


@pytest.mark.parametrize("name, solves", [
    ("m2_plus_f_gf2", 4), ("gf3_squared", 2), ("left_unit_z4", 3)])
def test_without_local_units_every_corner_element_is_solved(
        monkeypatch, name, solves):
    pair = abstract_pair(name)
    A = pair.algebra
    _, atoms = pair.idempotents_of_B()
    corners = set().union(*(A.span([A.mul(A.mul(f, b), e)
                                    for b in A.basis_vectors])
                            for e in atoms for f in atoms)) - {A.zero()}
    calls = _count_solves(monkeypatch)
    pair.enumerate_normalisers("minimal")
    assert sorted(calls) == sorted(corners)
    assert len(calls) == solves


@pytest.mark.parametrize("R, n, values, units", [
    (fr.make_gf(3), 6, {}, 324),
    (fr.make_gf(5), 4, {}, 256),
    (fr.make_zmod(9), 3, {}, 486),
    (fr.make_gf(2), 8, {}, 128),
    (fr.make_gf(5), 2, {(1, 1): 4}, 16),
])
def test_one_object_minimal_normalisers_are_the_group_ring_units(
        R, n, values, units):
    # B = R·δ_e is central and δ_e the only atom, so the minimal
    # normalisers are the units of R(H, c), with the inverse as dagger
    pair = pr.pair_from_twist(_group_twist(R, n, values))
    T = gr.TwistedGroupRing(R, gp.cyclic_group(n), values)
    expected = gr.enumerate_units(T)[0]
    assert len(expected) == units
    minimal = pair.enumerate_normalisers("minimal")
    assert minimal == sorted(expected)
    one, A = T.one(), pair.algebra
    for m in minimal:
        k = pair.dagger_of(m)
        assert A.mul(m, k) == one == A.mul(k, m)


def test_corner_group_by_powers_finds_a_nonabelian_group():
    # GL_2(GF(3)) in M_2(GF(3)), basis e11, e12, e21, e22, with B the
    # scalars: the identity is the one atom and its corner is all of A
    pair = abstract_pair("m2_gf3_scalars")
    A, R = pair.algebra, pair.algebra.ring
    o, i = R.zero, R.one
    unit = (i, o, o, i)
    group = pair._corner_group(unit, A.all_elements())
    assert set(group) == {(a, b, c, d) for a, b, c, d in A.all_elements()
                          if R.sub(R.mul(a, d), R.mul(b, c)) != o}
    assert len(group) == 48
    for g, gd in group.items():
        assert A.mul(g, gd) == unit == A.mul(gd, g)


def _in_a_random_basis(pair, seed):
    """The pair with its structure constants and sub_basis rewritten in the
    basis of the rows of a random invertible matrix g over its ring."""
    A, R = pair.algebra, pair.algebra.ring
    rng = random.Random(seed)
    while True:
        g = [tuple(rng.randrange(R.size) for _ in range(A.dim))
             for _ in range(A.dim)]
        # g ⧺ identity: the tails at column i combine the rows of g into e_i
        inverse = fr.standard_basis_tails(
            R, [gi + A.basis_vector(i) for i, gi in enumerate(g)], A.dim)
        if inverse is not None:
            break

    def coordinates(x):
        """y with x = Σ_j y_j·g_j, from e_i = Σ_j inverse[i][j]·g_j."""
        return tuple(functools.reduce(R.add, [R.mul(xi, inverse[i][j])
                                              for i, xi in enumerate(x)])
                     for j in range(A.dim))

    structure = {(i, j): dict(enumerate(coordinates(A.mul(gi, gj))))
                 for i, gi in enumerate(g) for j, gj in enumerate(g)}
    conjugated = pr.AbstractAlgebra(f"{A.name}^g", R, list(range(A.dim)),
                                    structure)
    return pr.Pair(conjugated, [coordinates(b) for b in pair.sub_basis])


@pytest.mark.parametrize("name", ["z4_klein", "pair2_gf3", "m2_squared_gf2"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_normalisers_in_a_random_basis_equal_the_oracle_scans(name, seed):
    # the spanning vectors f·b·e of a corner are random combinations here
    pair = klein_z4_pair() if name == "z4_klein" else \
        abstract_pair(name) if name in ABSTRACT_PAIRS else make_pair(name)
    pair = _in_a_random_basis(pair, seed)
    full, minimal = _scan(pair, oracle=True)
    assert pair.enumerate_normalisers("minimal") == minimal
    assert pair.enumerate_normalisers("full") == full


@pytest.mark.parametrize("name, walked", [
    # no pair of spanning vectors gives a dagger: each off-diagonal corner
    # is walked through e43 or e34, e21 or e12, then their sum
    ("m2_squared_gf2", 6),
    # e11 to e22: e22·A·e11 = 0 leaves no pair, and e12 is no normaliser
    ("t2_gf3_diagonal", 1),
])
def test_corners_without_a_dagger_pair_are_walked(monkeypatch, name, walked):
    pair = abstract_pair(name)
    calls = _count_solves(monkeypatch)
    minimal = pair.enumerate_normalisers("minimal")
    assert len(calls) == walked
    monkeypatch.undo()
    assert (pair.enumerate_normalisers("full"), minimal) == \
        _scan(pair, oracle=True)


@pytest.mark.parametrize("name, tested", [
    # B·e ≠ R·e for the one atom e = 1: every unit of A is tested
    ("t2_gf3_unipotent", 12), ("z4_dual_2x", 8),
    # B·e = R·e: no unit is tested
    ("m2_gf3_scalars", 0), ("t2_gf3_diagonal", 0)])
def test_the_dagger_filter_runs_where_B_e_is_not_R_e(monkeypatch, name,
                                                      tested):
    pair = abstract_pair(name)
    calls = []
    is_dagger = pr.Pair._is_dagger

    def spy(self, n, k, over):
        calls.append(n)
        return is_dagger(self, n, k, over)

    monkeypatch.setattr(pr.Pair, "_is_dagger", spy)
    A = pair.algebra
    _, atoms = pair.idempotents_of_B()
    for e in atoms:
        pair._corner_group(e, A.span([A.mul(A.mul(e, b), e)
                                      for b in A.basis_vectors]))
    assert len(calls) == tested
    monkeypatch.undo()
    assert (pair.enumerate_normalisers("full"),
            pair.enumerate_normalisers("minimal")) == _scan(pair, oracle=True)


BASIS_FREE = ["WT", "local_units", "B_spanned_by_idempotents",
              "A_spanned_by_normalisers", "ADP", "ACP", "AQP"]


# twists over rings that are not local: their minimal normalisers have no
# unit entry, so in a random basis the candidates of canonical_expectation
# span A only when eliminated per local factor
NOT_LOCAL = {f"{name}_z{n}": (fr.make_zmod(n), TWO[kind])
             for n in (6, 10, 12)
             for name, kind in [("c2", "cyclic"), ("full2", "full")]}


def _not_local_pair(name):
    return pr.pair_from_twist(tw.trivial_cocycle(*NOT_LOCAL[name]))


@pytest.mark.parametrize(
    "name", FIXTURE_NAMES + list(ABSTRACT_PAIRS) + list(NOT_LOCAL))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_classify_does_not_depend_on_the_basis(name, seed):
    # faithful_CE_exists can depend on the basis where the pair is not
    # quasi-Cartan (canonical_expectation), so it is compared only where
    # AQP holds
    pair = abstract_pair(name) if name in ABSTRACT_PAIRS else \
        _not_local_pair(name) if name in NOT_LOCAL else make_pair(name)
    conjugated = _in_a_random_basis(pair, seed)
    flags, moved = pair.classify(), conjugated.classify()
    assert {k: moved[k] for k in BASIS_FREE} == \
        {k: flags[k] for k in BASIS_FREE}
    if flags["AQP"]:
        assert moved["faithful_CE_exists"]
    # the spanning test and the expectation eliminate alike
    for p, report in [(pair, flags), (conjugated, moved)]:
        if report["A_spanned_by_normalisers"]:
            assert "reason" not in p.canonical_expectation()


@pytest.mark.parametrize("name", list(NOT_LOCAL))
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_no_pair_over_a_ring_that_is_not_local_meets_the_base_conditions(
        name, seed):
    # satisfies_wt: WT fails when I(B) ≠ {0}, and local units fail otherwise
    pair = _not_local_pair(name)
    if seed is not None:
        pair = _in_a_random_basis(pair, seed)
    flags = pair.classify()
    assert not (flags["WT"] and flags["local_units"])
    assert not (flags["ADP"] or flags["ACP"] or flags["AQP"])


# -- the atoms of B read off its pivot rows ------------------------------

def _idempotents_by_listing(pair):
    """I(B) and the atoms by their definitions over a listing of B."""
    A, zero = pair.algebra, pair.algebra.zero()
    idem = sorted(e for e in A.span(pair.sub_basis) if A.mul(e, e) == e)
    return idem, [e for e in idem if e != zero and not any(
        f not in (e, zero) and A.mul(e, f) == f for f in idem)]


def _spy_on_B(monkeypatch, pair):
    """A list that grows by one per AbstractAlgebra.span of sub_basis."""
    listed = []
    span = pr.AbstractAlgebra.span

    def spy(self, vectors):
        vectors = list(vectors)
        if vectors == pair.sub_basis:
            listed.append(vectors)
        return span(self, vectors)

    monkeypatch.setattr(pr.AbstractAlgebra, "span", spy)
    return listed


# the rings and groupoids of the benchmark's classify and reconstruct
# pairs, by name; the benchmark multiplies each cocycle by a coboundary,
# which leaves B and its pivot rows as they are
BENCH_PAIRS = {
    "m2_gf4": lambda: tw.trivial_cocycle(fr.make_gf(2, 2), gp.full_relation(2)),
    "m2_z4": lambda: tw.trivial_cocycle(fr.make_zmod(4), gp.full_relation(2)),
    "z4_klein": lambda: klein_z4_pair().cocycle,
    "m3_gf2": lambda: tw.trivial_cocycle(fr.make_gf(2), gp.full_relation(3)),
    "m2_gf5": lambda: tw.trivial_cocycle(fr.make_gf(5), gp.full_relation(2)),
    "mixed_gf3": lambda: make_twist("mixed_gf3"),
    "z2_gf5_twisted": lambda: make_twist("z2_gf5_twisted"),
    "klein_gf3": lambda: make_twist("klein_gf3"),
}


@pytest.mark.parametrize("name", list(BENCH_PAIRS))
def test_classify_and_reconstruct_do_not_list_B(monkeypatch, name):
    pair = pr.pair_from_twist(BENCH_PAIRS[name]())
    listed = _spy_on_B(monkeypatch, pair)
    pair.classify()
    rc.verify_reconstruction_theorem(pair)
    assert listed == []


def test_classify_does_not_list_B_on_m9_gf3(monkeypatch):
    # |B| = 3^9 under a cap past |A| = 3^81
    pair = pr.pair_from_twist(
        tw.trivial_cocycle(fr.make_gf(3), gp.full_relation(9)), cap=3 ** 81)
    listed = _spy_on_B(monkeypatch, pair)
    flags = pair.classify()
    assert listed == []
    assert all(flags[key] for key in ("ADP", "ACP", "AQP"))
    assert len(pair.idempotents_of_B()[0]) == 2 ** 9


# twist pairs over the local rings Z/4, GF(4), GF(9) and Z/9
LOCAL_TWISTS = {f"{kind}_{ring.name}": (ring, TWO[kind])
                for kind in ("full", "cyclic")
                for ring in (fr.make_zmod(4), fr.make_gf(2, 2),
                             fr.make_gf(3, 2), fr.make_zmod(9))}


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(LOCAL_TWISTS))
def test_pivot_row_atoms_equal_the_listing(monkeypatch, name):
    pair = pr.pair_from_twist(make_twist(name) if name in FIXTURE_NAMES else
                              tw.trivial_cocycle(*LOCAL_TWISTS[name]))
    expected = _idempotents_by_listing(pair)
    listed = _spy_on_B(monkeypatch, pair)
    assert pair.idempotents_of_B() == expected
    assert listed == []


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(ABSTRACT_PAIRS))
@pytest.mark.parametrize("seed", range(9))
def test_atoms_in_a_random_basis_equal_the_listing(name, seed):
    pair = abstract_pair(name) if name in ABSTRACT_PAIRS else make_pair(name)
    conjugated = _in_a_random_basis(pair, seed)
    assert conjugated.idempotents_of_B() == \
        _idempotents_by_listing(conjugated)


@pytest.mark.parametrize("kind", ["full", "cyclic"])
def test_over_a_ring_that_is_not_local_B_is_listed(monkeypatch, kind):
    pair = pr.pair_from_twist(tw.trivial_cocycle(fr.make_zmod(6), TWO[kind]))
    expected = _idempotents_by_listing(pair)
    listed = _spy_on_B(monkeypatch, pair)
    assert pair.idempotents_of_B() == expected
    assert len(listed) == 1
