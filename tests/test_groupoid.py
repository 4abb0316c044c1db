import functools
import re

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, groupoid as gp, grouprings as gr, \
    reconstruct as rc, twist as tw

from helpers import C2_CUBED, FIXTURE_NAMES, KLEIN, LOOP_TABLE, \
    assert_same_groupoid, bases, disjoint_union_by_dict, \
    full_relation_by_dict, klein_z4_pair, loop_groupoid, make_twist, relisted


def test_full_relation_basic():
    G1 = gp.full_relation(1)
    assert len(G1.objects) == 1 and len(G1.arrows) == 1
    G3 = gp.full_relation(3)
    assert len(G3.arrows) == 9
    assert gp.validate_groupoid(G3) == []
    assert gp.is_principal(G3)
    G2 = gp.full_relation(2)
    assert G2.inv[(1, 2)] == (2, 1)


def test_group_as_groupoid():
    H = gp.cyclic_group(2)
    G = gp.group_as_groupoid(H)
    assert len(G.objects) == 1 and len(G.arrows) == 2
    assert gp.validate_groupoid(G) == []
    assert gp.isotropy(G).arrows == set(G.arrows)
    GK = gp.group_as_groupoid(KLEIN)
    assert len(GK.arrows) == 4 and len(GK.objects) == 1
    trivial = gp.group_as_groupoid(gp.cyclic_group(1))
    assert len(trivial.arrows) == len(gp.full_relation(1).arrows) == 1


def test_disjoint_union():
    G = gp.disjoint_union(gp.full_relation(2),
                          gp.group_as_groupoid(gp.cyclic_group(2)))
    assert len(G.objects) == 3 and len(G.arrows) == 6
    assert gp.validate_groupoid(G) == []
    assert not gp.is_principal(G)  # principal + non-principal is non-principal


def test_isotropy_fibres():
    G = gp.disjoint_union(gp.full_relation(2),
                          gp.group_as_groupoid(gp.cyclic_group(2)))
    iso = gp.isotropy(G)
    sizes = sorted(len(f) for f in iso.fibres.values())
    assert sizes == [1, 1, 2]
    assert all(len(f) == 1 for f in gp.isotropy(gp.full_relation(3)).fibres.values())


def test_principal_effective_coincide():
    for G in [gp.full_relation(2), gp.full_relation(3),
              gp.group_as_groupoid(gp.cyclic_group(2)),
              gp.disjoint_union(gp.full_relation(2),
                                gp.group_as_groupoid(gp.cyclic_group(3)))]:
        p, e = gp.is_principal(G), gp.is_effective(G)
        # computed independently; they must coincide for discrete groupoids,
        # and principal always implies effective
        assert p == e
        if p:
            assert e


def test_inv_is_involutive_antihomomorphism():
    G = gp.disjoint_union(gp.full_relation(3),
                          gp.group_as_groupoid(gp.cyclic_group(4)))
    for a in G.arrows:
        assert G.inv[G.inv[a]] == a
    for (a, b), ab in G.compose.items():
        assert G.compose[(G.inv[b], G.inv[a])] == G.inv[ab]


def test_validate_catches_defects():
    # the loop has a unit and inverses, so it is a FiniteGroupoid whose
    # associativity faults validate_groupoid names; C3 with 1∘2 sent to 1
    # leaves 1 without an inverse, so make_groupoid refuses it
    loop = loop_groupoid()
    assert gp.validate_groupoid(loop) == \
        _associativity_by_definition(loop) != []
    G = gp.group_as_groupoid(gp.cyclic_group(3))
    broken = dict(G.compose)
    broken[(1, 2)] = 1  # should be the identity 0
    with pytest.raises(ValueError, match="^arrow 1 has no inverse$"):
        gp.make_groupoid("broken", G.objects, G.arrows, G.src, G.rng, broken)


# full_relation(3) with the entry for ((1,2),(2,3)) dropped, sent outside
# the arrows or to an arrow with the wrong ends, or with an entry added
# for the non-composable pair ((1,2),(1,2)); each with make_groupoid's
# message
COMPOSITION_DEFECTS = {
    "missing": "no composite given for ((1, 2),(2, 3))",
    "not_an_arrow": "composite zzz of ((1, 2),(2, 3)) is not an arrow",
    "wrong_ends": "composite (1, 1) of ((1, 2),(2, 3)) has the wrong ends",
    "not_composable": "composite given for a non-composable pair ((1, 2),(1, 2))",
}


def _defective_full_relation(defect):
    G = gp.full_relation(3)
    compose = dict(G.compose)
    if defect == "missing":
        del compose[((1, 2), (2, 3))]
    elif defect == "not_an_arrow":
        compose[((1, 2), (2, 3))] = "zzz"
    elif defect == "wrong_ends":
        compose[((1, 2), (2, 3))] = (1, 1)
    else:
        compose[((1, 2), (1, 2))] = (1, 2)
    return G, compose


def _domain_faults_by_definition(G, compose):
    """The faults of the domain and ends of compose over every pair of
    arrows of G, by definition."""
    bad = []
    for a in G.arrows:
        for b in G.arrows:
            defined = (a, b) in compose
            if defined != (G.src[a] == G.rng[b]):
                bad.append(f"compose domain wrong at ({a},{b})")
            elif defined:
                c = compose[(a, b)]
                if c not in G.src:
                    bad.append(f"composite at ({a},{b}) is not an arrow")
                elif G.src[c] != G.src[b] or G.rng[c] != G.rng[a]:
                    bad.append(f"src/rng of composite wrong at ({a},{b})")
    return bad


def _first_domain_fault(G, compose):
    """The fault make_groupoid names first, by definition: each entry in
    order tested for a non-composable pair, a composite that is not an
    arrow, then wrong ends; after every entry, the first composable pair
    without one in arrow order.  None when there is none."""
    for (a, b), ab in compose.items():
        if a not in G.src or b not in G.src or G.src[a] != G.rng[b]:
            return f"composite given for a non-composable pair ({a},{b})"
        if ab not in G.src:
            return f"composite {ab} of ({a},{b}) is not an arrow"
        if (G.src[ab], G.rng[ab]) != (G.src[b], G.rng[a]):
            return f"composite {ab} of ({a},{b}) has the wrong ends"
    for a in G.arrows:
        for b in G.arrows:
            if G.src[a] == G.rng[b] and (a, b) not in compose:
                return f"no composite given for ({a},{b})"
    return None


@pytest.mark.parametrize("defect", COMPOSITION_DEFECTS)
def test_validate_reports_composition_defects(defect):
    # a defect of the domain or ends is refused before a groupoid exists,
    # so validate_groupoid never meets one; the refusal names the one pair
    # that the all-pairs definition faults
    G, compose = _defective_full_relation(defect)
    pair = f"({(1, 2)},{(1, 2) if defect == 'not_composable' else (2, 3)})"
    (fault,) = _domain_faults_by_definition(G, compose)
    with pytest.raises(ValueError) as raised:
        gp.make_groupoid("broken", G.objects, G.arrows, G.src, G.rng, compose)
    assert pair in fault and pair in str(raised.value)


@pytest.mark.parametrize("defect", COMPOSITION_DEFECTS)
def test_make_groupoid_rejects_bad_composition(defect):
    G, compose = _defective_full_relation(defect)
    with pytest.raises(ValueError) as raised:
        gp.make_groupoid("broken", G.objects, G.arrows, G.src, G.rng, compose)
    assert str(raised.value) == COMPOSITION_DEFECTS[defect]


def _defective_rows(defect):
    """The rows of full_relation(3) with the defect of
    _defective_full_relation at (1, 2)∘(2, 3), the third entry of the row
    of (1, 2): a short row misses it, and "zzz", which is not a place, or
    the place of (1, 1) stands in it."""
    G = gp.full_relation(3)
    rows = [list(row) for row in gp.composition_rows(G)[2]]
    row = rows[G.arrows.index((1, 2))]
    if defect == "missing":
        del row[2]
    else:
        row[2] = "zzz" if defect == "not_an_arrow" else 0
    return G, rows


@pytest.mark.parametrize("defect", ["missing", "not_an_arrow", "wrong_ends"])
def test_the_rows_entry_names_each_fault_as_make_groupoid(defect):
    G, rows = _defective_rows(defect)
    with pytest.raises(ValueError) as raised:
        gp.groupoid_from_rows("broken", G.objects, G.arrows, G.src, G.rng,
                              rows)
    assert str(raised.value) == COMPOSITION_DEFECTS[defect]


@pytest.mark.parametrize("entry", [3, -1, None, 1.0])
def test_the_rows_entry_refuses_an_entry_that_is_not_a_place(entry):
    G, rows = _defective_rows("not_an_arrow")
    rows[G.arrows.index((1, 2))][2] = entry
    with pytest.raises(ValueError, match=rf"^composite {entry} of "
                                         r"\(\(1, 2\),\(2, 3\)\) is not an arrow$"):
        gp.groupoid_from_rows("broken", G.objects, G.arrows, G.src, G.rng,
                              rows)


def test_the_rows_entry_refuses_rows_of_the_wrong_shape():
    G = gp.full_relation(2)
    rows = gp.composition_rows(G)[2]
    with pytest.raises(ValueError, match="^3 rows given for 4 arrows$"):
        gp.groupoid_from_rows("short", G.objects, G.arrows, G.src, G.rng,
                              rows[:3])
    with pytest.raises(ValueError, match=r"^row of \(1, 1\) has 3 composites "
                                         "for 2 composable pairs$"):
        gp.groupoid_from_rows("long", G.objects, G.arrows, G.src, G.rng,
                              [rows[0] + [0]] + rows[1:])


@pytest.mark.parametrize("build", [lambda: gp.full_relation(3),
                                   lambda: make_twist("mixed_gf3").groupoid])
def test_the_rows_entry_builds_what_make_groupoid_builds(build):
    G = build()
    H = gp.groupoid_from_rows("rows", G.objects, G.arrows, G.src, G.rng,
                              gp.composition_rows(G)[2])
    assert (H.unit_at, H.inv) == (G.unit_at, G.inv)
    assert gp.composition_rows(H) == gp.composition_rows(G)
    # the view is derived on first use, by a in arrow order and then b
    assert H._compose is None
    assert list(H.compose.items()) == list(G.compose.items())
    assert gp.validate_groupoid(H) == []
    with pytest.raises(TypeError):
        H.compose[(G.arrows[0], G.arrows[0])] = G.arrows[0]


def test_make_groupoid_names_the_first_faulty_entry():
    # the entries are read in order, each tested for a non-composable
    # pair, a composite that is not an arrow, then wrong ends; a missing
    # composite is named only after every entry
    G = gp.full_relation(2)
    compose = dict(G.compose)
    del compose[((1, 1), (1, 2))]
    compose[((1, 2), (2, 1))] = (2, 2)
    compose[((2, 1), (1, 2))] = "zzz"
    with pytest.raises(ValueError, match=r"^composite \(2, 2\) of "
                                         r"\(\(1, 2\),\(2, 1\)\) has the wrong ends$"):
        gp.make_groupoid("broken", G.objects, G.arrows, G.src, G.rng, compose)


def _associativity_by_definition(G):
    """The associativity violations from the definition: every composable
    triple, in arrow order."""
    bad = []
    for a in G.arrows:
        for b in G.arrows:
            if G.src[a] != G.rng[b]:
                continue
            for c in G.arrows:
                if G.src[b] == G.rng[c] and G.compose[(G.compose[(a, b)], c)] \
                        != G.compose[(a, G.compose[(b, c)])]:
                    bad.append(f"associativity fails at ({a},{b},{c})")
    return bad


@st.composite
def perturbed_compositions(draw):
    """A generated base G, drawn as for a twist, and its composition with
    0-3 entries sent to other arrows with the same ends."""
    _, parts = draw(bases([fr.make_gf(2)]))
    G = functools.reduce(gp.disjoint_union, [H for H, _ in parts])
    compose = dict(G.compose)
    pairs = sorted(compose, key=repr)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pairs))
        compose[(a, b)] = draw(st.sampled_from(
            [c for c in G.arrows if G.src[c] == G.src[b] and G.rng[c] == G.rng[a]]))
    return G, compose


def _built(G, compose):
    return gp.make_groupoid("perturbed", G.objects, G.arrows, G.src, G.rng,
                            compose)


def _is_built_as_the_definition(G, compose):
    """make_groupoid on compose, against the definitions: a fault of the
    domain or ends is refused with the first one's message; otherwise a
    missing unit or inverse is refused with a unit or inverse message,
    and a groupoid built has the units and inverses of the definition and
    exactly the associativity faults of the triple loop."""
    fault = _first_domain_fault(G, compose)
    try:
        H = _built(G, compose)
    except ValueError as exc:
        if fault is not None:
            return str(exc) == fault
        unit_at, inv = _units_and_inverses_by_definition(G, compose)
        return bool(re.fullmatch(r"no unit arrow at object .+|"
                                 r"arrow .+ has no inverse", str(exc))) and \
            (len(unit_at), len(inv)) != (len(G.objects), len(G.arrows))
    return fault is None and \
        (H.unit_at, H.inv) == _units_and_inverses_by_definition(H) and \
        gp.validate_groupoid(H) == _associativity_by_definition(H)


@settings(max_examples=200)
@given(perturbed_compositions())
def test_associativity_equals_the_triple_loop(perturbed):
    assert _is_built_as_the_definition(*perturbed)


def _identity_laws_by_definition(G):
    """The unit and inverse laws of G's recorded unit_at and inv, over
    every pair of arrows, by definition."""
    bad = []
    for x in G.objects:
        u = G.unit_at.get(x)
        if u is None or G.src[u] != x or G.rng[u] != x:
            bad.append(f"unit at {x} missing or not an endo-arrow")
            continue
        for b in G.arrows:
            if G.rng[b] == x and G.compose.get((u, b)) != b:
                bad.append(f"unit at {x} not a left identity for {b}")
            if G.src[b] == x and G.compose.get((b, u)) != b:
                bad.append(f"unit at {x} not a right identity for {b}")
    for a in G.arrows:
        ai = G.inv.get(a)
        if ai is None:
            bad.append(f"no inverse recorded for {a}")
            continue
        if G.compose.get((ai, a)) != G.unit_at[G.src[a]]:
            bad.append(f"inv({a})∘{a} is not the unit at src")
        if G.compose.get((a, ai)) != G.unit_at[G.rng[a]]:
            bad.append(f"{a}∘inv({a}) is not the unit at rng")
    return bad


@st.composite
def constructed_groupoids(draw):
    """A groupoid from each constructor: disjoint unions of full relations
    and groups, make_groupoid on a perturbed composition it accepts (the
    union otherwise), the rows entry, the total of a twist over GF(3) and
    a FiniteGroup's groupoid (an isotropy group)."""
    G, compose = draw(perturbed_compositions())
    how = draw(st.sampled_from(["union", "dict", "rows", "twist", "group"]))
    if how == "dict":
        try:
            return _built(G, compose)
        except ValueError:
            return G
    if how == "rows":
        return gp.groupoid_from_rows("rows", G.objects, G.arrows, G.src,
                                     G.rng, gp.composition_rows(G)[2])
    if how == "twist":
        return tw.twist_from_cocycle(tw.trivial_cocycle(fr.make_gf(3), G)).total
    if how == "group":
        return gp.isotropy_fibre_group(G, draw(st.sampled_from(G.objects))).groupoid
    return G


@settings(max_examples=100)
@given(constructed_groupoids())
def test_derived_units_and_inverses_pass_the_laws(G):
    assert _identity_laws_by_definition(G) == []


@st.composite
def domain_faulted_compositions(draw):
    """A perturbed composition with 0-3 domain faults: an entry for a
    non-composable pair, a dropped entry, or a composite with wrong ends
    or outside the arrows."""
    G, compose = draw(perturbed_compositions())
    pairs = sorted(compose, key=repr)
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["extra", "dropped", "wrong_ends",
                                      "not_an_arrow"]))
        a, b = draw(st.sampled_from(G.arrows)), draw(st.sampled_from(G.arrows))
        if fault == "extra":
            if G.src[a] != G.rng[b]:
                compose[(a, b)] = draw(st.sampled_from(G.arrows))
            continue
        pair = draw(st.sampled_from(pairs))
        if fault == "dropped":
            compose.pop(pair, None)
        elif fault == "wrong_ends":
            c = draw(st.sampled_from(G.arrows))
            if (G.src[c], G.rng[c]) != (G.src[pair[1]], G.rng[pair[0]]):
                compose[pair] = c
        else:
            compose[pair] = "zzz"
    return G, compose


@settings(max_examples=200)
@given(domain_faulted_compositions())
def test_validate_equals_the_all_pairs_definition(faulted):
    assert _is_built_as_the_definition(*faulted)


@pytest.mark.parametrize("defect", COMPOSITION_DEFECTS)
def test_validate_names_composition_defects_as_the_definition(defect):
    G, compose = _defective_full_relation(defect)
    with pytest.raises(ValueError) as raised:
        gp.make_groupoid("broken", G.objects, G.arrows, G.src, G.rng, compose)
    assert str(raised.value) == _first_domain_fault(G, compose)


def test_a_fault_between_non_generators_is_named_as_the_definition():
    # C8 with 3∘4 sent to 6: neither factor is a generator, and the first
    # fault of the triple loop, (1, 2, 4), has a non-generator middle
    C8 = gp.group_as_groupoid(gp.cyclic_group(8))
    compose = dict(C8.compose)
    compose[(3, 4)] = 6
    broken = gp.make_groupoid("broken", C8.objects, C8.arrows, C8.src,
                              C8.rng, compose)
    assert gp.generating_set(broken) == [0, 1]
    found = gp.validate_groupoid(broken)
    assert found == _associativity_by_definition(broken) != []
    assert found[0] == "associativity fails at (1,2,4)"


def _closure(G, gens):
    """The arrows reached from gens by composing on the right with gens."""
    reached, todo = set(), list(gens)
    while todo:
        a = todo.pop()
        if a not in reached:
            reached.add(a)
            todo.extend(G.compose[(a, g)] for g in gens if G.src[a] == G.rng[g])
    return reached


def _generating_set_is_sound(G):
    """generating_set(G) reaches every arrow, and each generator is no
    composite of the generators before it."""
    gens = [G.arrows[i] for i in gp.generating_set(G)]
    assert gens == sorted(gens, key=G.arrows.index)
    assert all(g not in _closure(G, gens[:k]) for k, g in enumerate(gens))
    return _closure(G, gens) == set(G.arrows)




@pytest.mark.parametrize("H", [gp.cyclic_group(n) for n in range(1, 17)]
                         + [KLEIN, C2_CUBED], ids=lambda H: H.name)
def test_generating_set_of_a_group_is_logarithmic(H):
    G = gp.group_as_groupoid(H)
    assert _generating_set_is_sound(G)
    assert len(gp.generating_set(G)) <= len(H).bit_length()  # 1 + ⌊log₂ n⌋


def _rebuilt_klein_z4():
    return rc.UltraGroupoid(klein_z4_pair()).to_twist().groupoid


def _full6_twist():
    R = fr.make_gf(7)
    return tw.twist_from_cocycle(tw.trivial_cocycle(R, gp.full_relation(6))).total


CONSTRUCTED = [
    *(lambda name=name: make_twist(name).groupoid for name in FIXTURE_NAMES),
    _rebuilt_klein_z4, _full6_twist]
CONSTRUCTED_IDS = [*FIXTURE_NAMES, "rebuilt_klein_z4", "full6_gf7_total"]


@pytest.mark.parametrize("build", CONSTRUCTED, ids=CONSTRUCTED_IDS)
def test_generating_set_reaches_every_arrow(build):
    assert _generating_set_is_sound(build())


def _units_and_inverses_by_definition(G, compose=None):
    """unit_at and inv by make_groupoid's definition, over compose (G's
    own by default), scanning the arrows in order: the first two-sided
    identity at each object, then the first two-sided inverse of each
    arrow whose ends have units; an object or arrow without one is left
    out."""
    compose = G.compose if compose is None else compose
    unit_at = {}
    for x in G.objects:
        for u in G.arrows:
            if G.src[u] == G.rng[u] == x and \
                    all(compose[(u, b)] == b for b in G.arrows
                        if G.rng[b] == x) and \
                    all(compose[(a, u)] == a for a in G.arrows
                        if G.src[a] == x):
                unit_at[x] = u
                break
    inv = {}
    for a in G.arrows:
        if G.src[a] not in unit_at or G.rng[a] not in unit_at:
            continue
        for b in G.arrows:
            if G.src[b] == G.rng[a] and G.rng[b] == G.src[a] \
                    and compose[(b, a)] == unit_at[G.src[a]] \
                    and compose[(a, b)] == unit_at[G.rng[a]]:
                inv[a] = b
                break
    return unit_at, inv


def _two_inverses():
    """A magma with identity e in which a has the two inverses b and c, so
    the inverse found depends on the arrow order."""
    table = {"e": "eabc", "a": "aaee", "b": "bebc", "c": "cebc"}
    arrows = list(table)
    ends = dict.fromkeys(arrows, "x")
    return gp.make_groupoid("two_inverses", ["x"], arrows, ends, ends,
                            {(a, b): table[a][k] for a in arrows
                             for k, b in enumerate(arrows)})


@pytest.mark.parametrize("reverse", [False, True], ids=["listed", "reversed"])
@pytest.mark.parametrize("build",
                         CONSTRUCTED + [loop_groupoid, _two_inverses],
                         ids=CONSTRUCTED_IDS + ["loop", "two_inverses"])
def test_units_and_inverses_are_the_first_in_arrow_order(build, reverse):
    G = relisted(build(), reverse)
    assert (G.unit_at, G.inv) == _units_and_inverses_by_definition(G)


def test_the_first_inverse_depends_on_the_listing():
    G = _two_inverses()
    assert (G.inv["a"], relisted(G).inv["a"]) == ("b", "c")


def test_make_groupoid_refuses_an_arrow_outside_the_objects():
    ends = {"e": "x", "g": "z"}
    with pytest.raises(ValueError,
                       match="arrow g has src/rng outside the object set"):
        gp.make_groupoid("outside", ["x"], ["e", "g"], ends, ends,
                         {("e", "e"): "e", ("g", "g"): "g"})


def test_the_composition_is_indexed_once(monkeypatch):
    calls = []
    index = gp.index_composition

    def counted(*args):
        calls.append(args)
        return index(*args)

    monkeypatch.setattr(gp, "index_composition", counted)
    # the named constructors write rows and index nothing
    G = gp.disjoint_union(gp.full_relation(3),
                          gp.group_as_groupoid(gp.cyclic_group(3)))
    c = tw.twist_from_cocycle(tw.coboundary_cocycle(
        fr.make_gf(3), G, {g: 2 for g in G.arrows if not G.is_unit(g)}))
    assert gp.validate_groupoid(G) == gp.validate_groupoid(c.total) == []
    gp.generating_set(G)
    assert calls == []
    # the explicit form indexes its dict once
    E = gp.make_groupoid("explicit", G.objects, G.arrows, G.src, G.rng,
                         dict(G.compose))
    assert gp.validate_groupoid(E) == []
    assert tw.check_cocycle(tw.trivial_cocycle(fr.make_gf(3), E)) == []
    assert len(calls) == 1
    assert gp.composition_rows(E) == gp.composition_rows(G)
    assert E.composite((0, (1, 2)), (0, (2, 1))) == (0, (1, 1))
    assert len(calls) == 1


REPEATED_LABELS = {"object": (["x", "x"], ["e"]), "arrow": (["x"], ["e", "e"])}


@pytest.mark.parametrize("kind", REPEATED_LABELS)
def test_repeated_labels_are_refused(kind):
    objects, arrows = REPEATED_LABELS[kind]
    label = "x" if kind == "object" else "e"
    ends = {"e": "x"}
    with pytest.raises(ValueError, match=f"^{kind} label {label!r} is repeated$"):
        gp.make_groupoid("twice", objects, arrows, ends, ends,
                         {("e", "e"): "e"})


def test_make_groupoid_rejects_missing_units():
    with pytest.raises(ValueError):
        gp.make_groupoid("bad", ["x"], ["a"], {"a": "x"}, {"a": "x"}, {})


def test_bad_group_table():
    with pytest.raises(ValueError):
        gp.FiniteGroup("bad", [0, 1],
                       {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})


def test_a_group_table_that_is_not_associative_is_refused():
    # the loop has an identity and inverses; its first fault is named
    table = {(a, b): LOOP_TABLE[a][b] for a in range(5) for b in range(5)}
    with pytest.raises(ValueError) as raised:
        gp.FiniteGroup("loop", range(5), table)
    assert str(raised.value) == \
        _associativity_by_definition(loop_groupoid())[0]


def test_a_group_keeps_its_groupoid():
    # built once from the table; its unit and inverses are the group's,
    # and a twisted group ring reads the same groupoid
    H = gp.cyclic_group(4)
    G = gp.group_as_groupoid(H)
    assert G is gp.group_as_groupoid(H) is H.groupoid
    assert (H.identity, H.inverse) == (G.unit_at["*"], G.inv) == \
        (0, {0: 0, 1: 3, 2: 2, 3: 1})
    assert gr.TwistedGroupRing(fr.make_gf(3), H).cocycle.groupoid is G


def test_isotropy_fibre_group():
    G = gp.group_as_groupoid(gp.cyclic_group(3))
    H = gp.isotropy_fibre_group(G, "*")
    assert len(H) == 3 and H.identity == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_full_relation_builds_what_the_dict_construction_builds(n):
    assert_same_groupoid(gp.full_relation(n), full_relation_by_dict(n))


_C2, _C3 = gp.cyclic_group(2).groupoid, gp.cyclic_group(3).groupoid
UNION_PARTS = {
    "full2+c2": lambda: [gp.full_relation(2), _C2],
    "c3+full3": lambda: [_C3, gp.full_relation(3)],
    "klein+c2+full1": lambda: [KLEIN.groupoid, _C2, gp.full_relation(1)],
}


@pytest.mark.parametrize("parts", UNION_PARTS)
def test_disjoint_union_builds_what_the_dict_construction_builds(parts):
    first, *rest = UNION_PARTS[parts]()
    G = H = first
    for part in rest:
        G, H = gp.disjoint_union(G, part), disjoint_union_by_dict(G, part)
        assert_same_groupoid(G, H)


def test_composite_and_value_refuse_a_pair_that_is_not_composable():
    G = gp.disjoint_union(gp.full_relation(2), _C2)
    c = tw.trivial_cocycle(fr.make_gf(3), G)
    assert G.composite((0, (1, 2)), (0, (2, 1))) == (0, (1, 1))
    assert c.value((0, (1, 2)), (0, (2, 1))) == c.ring.one
    for read in (G.composite, c.value):
        for a, b in [((0, (1, 2)), (0, (1, 2))), ((0, (1, 1)), (1, 0)),
                     ((1, 1), "not an arrow")]:
            with pytest.raises(KeyError):
                read(a, b)
