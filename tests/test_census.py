"""classify from the unit census of the isotropy rings (Pair._census)
against the walk (classify(oracle=True)): the same flags and warnings on
the twist fixtures, on group rings too large for the property tests, over
rings that are not local and on generated twists; lemma (a) against the
walk's span test on each isotropy ring; and spies on which path ran."""

import pytest
from hypothesis import given, settings

from quasicartan import finring as fr, groupoid as gp, grouprings as gr, \
    pairs as pr, twist as tw

from helpers import ABSTRACT_PAIRS, CENSUS_COMPONENTS, FIXTURE_NAMES, S3, \
    abstract_pair, make_twist, twists

# |A| ≤ 3^9 under the default cap; the walk takes 0.6 s on GF(3)[C9]
GROUP_RINGS = {f"{R.name}[C{n}]": (R, n) for R, n in [
    (fr.make_gf(3), 8), (fr.make_gf(3), 9), (fr.make_gf(5), 6),
    (fr.make_zmod(9), 3), (fr.make_zmod(6), 2), (fr.make_zmod(10), 2),
    (fr.make_zmod(12), 2)]}
RINGS = [fr.make_gf(2), fr.make_gf(3), fr.make_zmod(4), fr.make_gf(2, 2),
         fr.make_gf(5), fr.make_zmod(6), fr.make_zmod(8), fr.make_zmod(9)]
# |A| ≤ 729: C2×C4 and C2³ over GF(2), S3 over GF(2) and GF(3)
SIZE = 729
TWISTS = twists(RINGS, SIZE, components=CENSUS_COMPONENTS)


def _twist(name):
    if name in GROUP_RINGS:
        R, n = GROUP_RINGS[name]
        return tw.trivial_cocycle(R, gp.cyclic_group(n).groupoid)
    return make_twist(name)


def _spans_by_lemma(T):
    """Lemma (a) on the census of T: no residue field GF(2) with two
    field factors GF(2)."""
    return not any(q == 2 and degrees[1] > 1
                   for q, _, degrees, _ in gr.count_units(T)[1])


def _check_census_equals_the_walk(c):
    """classify() and classify(oracle=True) on two pairs of c agree, and
    lemma (a) agrees with the walk's span test on each commutative
    isotropy ring."""
    pair = pr.pair_from_twist(c)
    assert pair.classify() == pr.pair_from_twist(c).classify(oracle=True)
    for T in pair.isotropy_rings():
        if T.is_commutative():
            walked = pr.pair_from_twist(T.cocycle).classify(oracle=True)
            assert _spans_by_lemma(T) == walked["A_spanned_by_normalisers"]


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(GROUP_RINGS))
def test_the_census_gives_the_flags_of_the_walk(name):
    _check_census_equals_the_walk(_twist(name))


@settings(max_examples=200, deadline=None)
@given(TWISTS)
def test_the_census_gives_the_flags_of_the_walk_on_generated_twists(c):
    _check_census_equals_the_walk(c)


def _refuse(monkeypatch, *names):
    """Make each named Pair method raise when called."""
    def refused(*_, **__):
        raise AssertionError("the walk ran")

    for name in names:
        monkeypatch.setattr(pr.Pair, name, refused)


WALK = ("_solve_dagger_system", "unit_classes", "_corner_group")


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(GROUP_RINGS))
def test_the_census_path_takes_no_solve_and_no_walk(monkeypatch, name):
    pair = pr.pair_from_twist(_twist(name))
    _refuse(monkeypatch, *WALK)
    pair.classify()


def _walks(monkeypatch, pair, oracle=False):
    """Whether classify on pair asks for unit_classes."""
    asked = []
    unit_classes = pr.Pair.unit_classes

    def spy(self):
        asked.append(self)
        return unit_classes(self)

    monkeypatch.setattr(pr.Pair, "unit_classes", spy)
    pair.classify(oracle=oracle)
    monkeypatch.undo()
    return bool(asked)


@pytest.mark.parametrize("name", list(ABSTRACT_PAIRS))
def test_abstract_pairs_walk(monkeypatch, name):
    assert _walks(monkeypatch, abstract_pair(name))


@pytest.mark.parametrize("R", [fr.make_gf(2), fr.make_gf(3)],
                         ids=lambda R: R.name)
def test_s3_walks(monkeypatch, R):
    # R[S3] is not commutative: the census does not decide it
    c = tw.trivial_cocycle(R, S3.groupoid)
    pair = pr.pair_from_twist(c)
    assert pair._census() is None
    assert _walks(monkeypatch, pair)
    assert pair.classify() == pr.pair_from_twist(c).classify(oracle=True)


def test_the_oracle_walks(monkeypatch):
    pair = pr.pair_from_twist(_twist("klein_gf3"))
    assert not _walks(monkeypatch, pair)
    assert _walks(monkeypatch, pair, oracle=True)


def test_classify_and_check_lbh_share_one_census(monkeypatch):
    # reconstruct asks classify, then check_lbh: one ring per orbit, here
    # of full_relation(2) and of C2, is built once and its units counted
    # once
    built, counted = [], []
    init, count_units = gr.TwistedGroupRing.__init__, gr.count_units

    def spy_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spy_count(T, cap=fr.DEFAULT_CAP):
        if T._unit_profile is None:
            counted.append(T)
        return count_units(T, cap)

    monkeypatch.setattr(gr.TwistedGroupRing, "__init__", spy_init)
    monkeypatch.setattr(gr, "count_units", spy_count)
    pair = pr.pair_from_twist(_twist("mixed_gf3"))
    pair.classify()
    pr.check_lbh(pair)
    assert len(built) == len(counted) == 2
