import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import finring as fr, groupoid as gp, reconstruct as rc, \
    twist as tw

from helpers import FIXTURE_NAMES, LOOP_TABLE, klein_z4_pair, make_twist


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
    K = gp.direct_product_group(gp.cyclic_group(2), gp.cyclic_group(2))
    GK = gp.group_as_groupoid(K)
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
    G = gp.group_as_groupoid(gp.cyclic_group(3))
    broken = dict(G.compose)
    broken[(1, 2)] = 1  # should be the identity 0
    bad = gp.validate_groupoid(gp.FiniteGroupoid(
        "broken", G.objects, G.arrows, G.src, G.rng, broken, G.inv, G.unit_at))
    assert bad != []
    H = gp.full_relation(2)
    broken_inv = dict(H.inv)
    broken_inv[(1, 2)] = (1, 2)
    bad2 = gp.validate_groupoid(gp.FiniteGroupoid(
        "broken2", H.objects, H.arrows, H.src, H.rng, H.compose,
        broken_inv, H.unit_at))
    assert any("inv" in v for v in bad2)


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


@pytest.mark.parametrize("defect", COMPOSITION_DEFECTS)
def test_validate_reports_composition_defects(defect):
    G, compose = _defective_full_relation(defect)
    bad = gp.validate_groupoid(gp.FiniteGroupoid(
        "broken", G.objects, G.arrows, G.src, G.rng, compose, G.inv, G.unit_at))
    assert bad != []


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


@pytest.mark.parametrize("entry", [3, -1, None])
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


_KLEIN = gp.direct_product_group(gp.cyclic_group(2), gp.cyclic_group(2))
# C8's generating set is {0, 1}: most arrows are not generators, so a
# perturbation there is found by the generator test and named by the
# fallback scan
C8 = gp.group_as_groupoid(gp.cyclic_group(8))
COMPONENTS = st.one_of(
    st.integers(1, 3).map(gp.full_relation),
    st.integers(1, 5).map(lambda n: gp.group_as_groupoid(gp.cyclic_group(n))),
    st.just(gp.group_as_groupoid(_KLEIN)),
    st.just(C8))


@st.composite
def perturbed_groupoids(draw):
    """A disjoint union of small groupoids with 0-3 composition entries
    sent to other arrows with the same ends."""
    parts = draw(st.lists(COMPONENTS, min_size=1, max_size=3))
    G = parts[0]
    for H in parts[1:]:
        G = gp.disjoint_union(G, H)
    compose = dict(G.compose)
    pairs = sorted(compose, key=repr)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pairs))
        compose[(a, b)] = draw(st.sampled_from(
            [c for c in G.arrows if G.src[c] == G.src[b] and G.rng[c] == G.rng[a]]))
    return gp.FiniteGroupoid("perturbed", G.objects, G.arrows, G.src, G.rng,
                             compose, G.inv, G.unit_at)


@settings(max_examples=200)
@given(perturbed_groupoids())
def test_associativity_equals_the_triple_loop(G):
    found = gp.validate_groupoid(G)
    assoc = [v for v in found if v.startswith("associativity")]
    assert assoc == _associativity_by_definition(G)
    # the composition stays well-ended, so these faults are listed first
    assert found[:len(assoc)] == assoc


def _validate_by_definition(G):
    """validate_groupoid by its definition: the domain and ends of compose
    over every pair of arrows, then associativity over every triple."""
    bad = []
    arrow_set = set(G.arrows)
    for a in G.arrows:
        if G.src[a] not in G.objects or G.rng[a] not in G.objects:
            bad.append(f"arrow {a} has src/rng outside the object set")
    for a in G.arrows:
        for b in G.arrows:
            defined = (a, b) in G.compose
            should = G.src[a] == G.rng[b]
            if defined != should:
                bad.append(f"compose domain wrong at ({a},{b})")
            elif defined:
                c = G.compose[(a, b)]
                if c not in arrow_set:
                    bad.append(f"composite at ({a},{b}) is not an arrow")
                elif G.src[c] != G.src[b] or G.rng[c] != G.rng[a]:
                    bad.append(f"src/rng of composite wrong at ({a},{b})")
    if not bad:
        bad.extend(_associativity_by_definition(G))
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
def domain_faulted_groupoids(draw):
    """A perturbed groupoid with 0-3 domain faults: an entry for a
    non-composable pair, a dropped entry, or a composite with wrong ends
    or outside the arrows."""
    G = draw(perturbed_groupoids())
    compose = dict(G.compose)
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["extra", "dropped", "wrong_ends",
                                      "not_an_arrow"]))
        a, b = draw(st.sampled_from(G.arrows)), draw(st.sampled_from(G.arrows))
        if fault == "extra":
            if G.src[a] != G.rng[b]:
                compose[(a, b)] = draw(st.sampled_from(G.arrows))
            continue
        pair = draw(st.sampled_from(sorted(G.compose, key=repr)))
        if fault == "dropped":
            compose.pop(pair, None)
        elif fault == "wrong_ends":
            c = draw(st.sampled_from(G.arrows))
            if (G.src[c], G.rng[c]) != (G.src[pair[1]], G.rng[pair[0]]):
                compose[pair] = c
        else:
            compose[pair] = "zzz"
    return gp.FiniteGroupoid("faulted", G.objects, G.arrows, G.src, G.rng,
                             compose, G.inv, G.unit_at)


@settings(max_examples=200)
@given(domain_faulted_groupoids())
def test_validate_equals_the_all_pairs_definition(G):
    assert gp.validate_groupoid(G) == _validate_by_definition(G)


@pytest.mark.parametrize("record", ["unit", "inverse", "missing inverse"])
def test_validate_names_wrong_units_and_inverses_as_the_definition(record):
    # a sound composition, so the laws are first tested on its rows
    G = gp.group_as_groupoid(gp.cyclic_group(4))
    unit_at, inv = dict(G.unit_at), dict(G.inv)
    if record == "unit":
        unit_at["*"] = 2
    elif record == "inverse":
        inv[1] = 1
    else:
        del inv[3]
    H = gp.FiniteGroupoid("wrong", G.objects, G.arrows, G.src, G.rng,
                          G.compose, inv, unit_at)
    assert gp.validate_groupoid(H) == _validate_by_definition(H) != []


@pytest.mark.parametrize("defect", COMPOSITION_DEFECTS)
def test_validate_names_composition_defects_as_the_definition(defect):
    G, compose = _defective_full_relation(defect)
    broken = gp.FiniteGroupoid("broken", G.objects, G.arrows, G.src, G.rng,
                               compose, G.inv, G.unit_at)
    assert gp.validate_groupoid(broken) == _validate_by_definition(broken)


def test_a_fault_between_non_generators_is_named_as_the_definition():
    # C8 with 3∘4 sent to 6: neither factor is a generator, and the first
    # fault of the triple loop, (1, 2, 4), has a non-generator middle
    assert gp.generating_set(C8) == [0, 1]
    compose = dict(C8.compose)
    compose[(3, 4)] = 6
    broken = gp.FiniteGroupoid("broken", C8.objects, C8.arrows, C8.src,
                               C8.rng, compose, C8.inv, C8.unit_at)
    found = gp.validate_groupoid(broken)
    assert found == _validate_by_definition(broken) != []
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


C2_CUBED = gp.direct_product_group(_KLEIN, gp.cyclic_group(2))


@pytest.mark.parametrize("H", [gp.cyclic_group(n) for n in range(1, 17)]
                         + [_KLEIN, C2_CUBED], ids=lambda H: H.name)
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


def _units_and_inverses_by_definition(G):
    """unit_at and inv by make_groupoid's definition, scanning the arrows
    in order: the first two-sided identity at each object, then the first
    two-sided inverse of each arrow."""
    unit_at = {}
    for x in G.objects:
        for u in G.arrows:
            if G.src[u] == G.rng[u] == x and \
                    all(G.compose[(u, b)] == b for b in G.arrows
                        if G.rng[b] == x) and \
                    all(G.compose[(a, u)] == a for a in G.arrows
                        if G.src[a] == x):
                unit_at[x] = u
                break
    inv = {}
    for a in G.arrows:
        for b in G.arrows:
            if G.src[b] == G.rng[a] and G.rng[b] == G.src[a] \
                    and G.compose[(b, a)] == unit_at[G.src[a]] \
                    and G.compose[(a, b)] == unit_at[G.rng[a]]:
                inv[a] = b
                break
    return unit_at, inv


def _relisted(G, reverse):
    """G rebuilt by make_groupoid, its objects and arrows listed in
    reverse order when reverse is set."""
    step = -1 if reverse else 1
    return gp.make_groupoid(G.name, G.objects[::step], G.arrows[::step],
                            G.src, G.rng, G.compose)


def _loop():
    arrows = list(range(5))
    ends = dict.fromkeys(arrows, "*")
    return gp.make_groupoid("loop", ["*"], arrows, ends, ends,
                            {(a, b): LOOP_TABLE[a][b]
                             for a in arrows for b in arrows})


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
@pytest.mark.parametrize("build", CONSTRUCTED + [_loop, _two_inverses],
                         ids=CONSTRUCTED_IDS + ["loop", "two_inverses"])
def test_units_and_inverses_are_the_first_in_arrow_order(build, reverse):
    G = _relisted(build(), reverse)
    assert (G.unit_at, G.inv) == _units_and_inverses_by_definition(G)


def test_the_first_inverse_depends_on_the_listing():
    G = _two_inverses()
    assert (G.inv["a"], _relisted(G, True).inv["a"]) == ("b", "c")


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
    G = gp.full_relation(3)
    assert gp.validate_groupoid(G) == []
    assert tw.check_cocycle(tw.trivial_cocycle(fr.make_gf(3), G)) == []
    gp.generating_set(G)
    assert len(calls) == 1
    # built directly, a groupoid is indexed on first use
    H = gp.FiniteGroupoid("direct", G.objects, G.arrows, G.src, G.rng,
                          G.compose, G.inv, G.unit_at)
    assert gp.validate_groupoid(H) == []
    assert gp.composition_rows(H) == gp.composition_rows(G)
    assert len(calls) == 2


def _twice(objects, arrows):
    """One object x and one arrow e, with one of the two labels listed twice."""
    ends = {"e": "x"}
    return gp.FiniteGroupoid("twice", objects, arrows, ends, ends,
                             {("e", "e"): "e"}, {"e": "e"}, {"x": "e"})


REPEATED_LABELS = {"object": (["x", "x"], ["e"]), "arrow": (["x"], ["e", "e"])}


@pytest.mark.parametrize("kind", REPEATED_LABELS)
def test_repeated_labels_are_refused(kind):
    G = _twice(*REPEATED_LABELS[kind])
    label = "x" if kind == "object" else "e"
    message = f"{kind} label {label!r} is repeated"
    assert gp.validate_groupoid(G) == [message]
    with pytest.raises(ValueError, match=message):
        gp.make_groupoid("twice", G.objects, G.arrows, G.src, G.rng, G.compose)


def test_make_groupoid_rejects_missing_units():
    with pytest.raises(ValueError):
        gp.make_groupoid("bad", ["x"], ["a"], {"a": "x"}, {"a": "x"}, {})


def test_bad_group_table():
    with pytest.raises(ValueError):
        gp.FiniteGroup("bad", [0, 1],
                       {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})


def test_isotropy_fibre_group():
    G = gp.group_as_groupoid(gp.cyclic_group(3))
    H = gp.isotropy_fibre_group(G, "*")
    assert len(H) == 3 and H.identity == 0
