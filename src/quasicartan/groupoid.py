"""Finite groupoids with validation, standard constructors, and the
isotropy-based predicates (principal, effective).

Everything is finite and discrete, so a "topological" condition like
effectiveness collapses to a combinatorial one; we still compute it from
the definition (with the discrete interior operator) rather than aliasing
is_principal, so the coincidence is a checked fact, not a shortcut.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType


class FiniteGroup:
    """A finite group given by its multiplication table.

    The table is built once into the one-object groupoid of the group
    (groupoid_from_rows), which is kept as groupoid: its unit is the
    identity and its inverses are the inverses, so a table without them
    raises ValueError there.  Associativity is decided by Light's test
    (_associativity_faults): the middle element ranges over the greedy
    generating set, at most 1 + log₂ n elements, so the table is checked
    in O(n²·log n); a fault raises ValueError naming the first one.
    """

    def __init__(self, name, elements, mul_table):
        self.name = name
        self.elements = list(elements)
        self.mul = dict(mul_table)  # (g, h) -> gh
        # every arrow ends at the one object, so the place of an arrow is
        # its index
        index = {g: i for i, g in enumerate(self.elements)}
        ends = dict.fromkeys(self.elements, "*")
        self.groupoid = groupoid_from_rows(
            f"group({name})", ["*"], self.elements, ends, ends,
            [[index[self.mul[(g, h)]] for h in self.elements]
             for g in self.elements])
        bad = _associativity_faults(self.groupoid)
        if bad:
            raise ValueError(bad[0])
        self.identity = self.groupoid.unit_at["*"]
        self.inverse = self.groupoid.inv

    def __len__(self):
        return len(self.elements)


def cyclic_group(n):
    elements = list(range(n))
    mul = {(a, b): (a + b) % n for a in elements for b in elements}
    return FiniteGroup(f"cyclic({n})", elements, mul)


def direct_product_group(H1, H2):
    elements = [(a, b) for a in H1.elements for b in H2.elements]
    mul = {((a, b), (c, d)): (H1.mul[(a, c)], H2.mul[(b, d)])
           for (a, b) in elements for (c, d) in elements}
    return FiniteGroup(f"{H1.name}x{H2.name}", elements, mul)


class FiniteGroupoid:
    """A finite groupoid: objects, arrows, source/range, partial composition.

    a∘b (composite) is defined exactly when src(a) == rng(b), and runs
    "b first, then a".  A groupoid is built only from the rows of its
    composition index (index_composition): rows[i][k] is the place of a∘c
    in ending[rng a], for a = arrows[i] and c the k-th arrow of
    ending[src a].  The constructor refuses a repeated label, checks the
    rows in one pass (_check_rows) and derives unit_at and inv from them
    (_units_and_inverses), so every FiniteGroupoid has distinct labels, a
    complete, well-ended composition, a unit at each object and an
    inverse of each arrow; only associativity is left to
    validate_groupoid.  make_groupoid is the entry for a dict of label
    pairs, and groupoid_from_rows names this constructor beside it.

    A FiniteGroupoid is not mutated after construction, so its index is
    kept (composition_rows), and so are its generating set
    (generating_set) and, once Light's test has passed on it, that it is
    associative (_associativity_faults); generators, when given, must be
    what greedy_generators returns for this composition, the walk
    composing through these rows.  number[a] is the place of a in
    arrows.  The package reads the rows through composite and
    composable_pairs; compose, {(a, b): a∘b}, is a read-only view derived
    from composable_pairs on first use (composition_dict), kept for
    callers outside the package.
    """

    def __init__(self, name, objects, arrows, src, rng, rows,
                 generators=None):
        _refuse_repeated_labels(objects, arrows)
        self._set_index(name, objects, arrows, src, rng,
                        _check_rows(arrows, src, rng, rows), generators)

    def _set_index(self, name, objects, arrows, src, rng, index,
                   generators):
        """The groupoid of a checked composition index (ending, pos, rows),
        as _check_rows and index_composition return it."""
        self.name = name
        self.objects = list(objects)
        self.arrows = list(arrows)
        self.src = dict(src)
        self.rng = dict(rng)
        self.number = {a: i for i, a in enumerate(self.arrows)}
        self._composition_index = index
        self.unit_at, self.inv = _units_and_inverses(
            self.objects, self.arrows, self.src, self.rng, index)
        self.units = set(self.unit_at.values())
        self._generators = generators
        self._compose = None
        self._associative = False

    @property
    def compose(self):
        if self._compose is None:
            self._compose = MappingProxyType(composition_dict(self))
        return self._compose

    def composite(self, a, b):
        """a∘b read off the rows; KeyError unless src(a) == rng(b)."""
        if self.src[a] != self.rng[b]:
            raise KeyError((a, b))
        ending, pos, rows = composition_rows(self)
        row = rows[self.number[a]]
        return self.arrows[ending[self.rng[a]][row[pos[self.number[b]]]]]

    def composable_pairs(self):
        """(a, b, a∘b) for each composable pair, in the order of the rows:
        by a in arrow order, then b in arrow order."""
        ending, _, rows = composition_rows(self)
        arrows = self.arrows
        for a, row in zip(arrows, rows):
            into = ending[self.rng[a]]
            for j, k in zip(ending.get(self.src[a], ()), row):
                yield a, arrows[j], arrows[into[k]]

    def is_unit(self, a):
        return a in self.units

    def __repr__(self):
        return f"FiniteGroupoid({self.name}, {len(self.objects)} objects, {len(self.arrows)} arrows)"


# the groupoid with a composition given as the rows of its index
groupoid_from_rows = FiniteGroupoid


def make_groupoid(name, objects, arrows, src, rng, compose):
    """The groupoid with the composition compose, {(a, b): a∘b}: the dict
    is indexed once (index_composition), which names its faults, and not
    kept.

    The unit at x is the first arrow in arrow order that is a two-sided
    identity at x, and the inverse of a the first arrow b in arrow order
    with a∘b and b∘a units; an object without a unit, an arrow that ends
    outside the objects or one without an inverse raises ValueError.
    """
    _refuse_repeated_labels(objects, arrows)
    # index_composition checks every entry that _check_rows would
    G = FiniteGroupoid.__new__(FiniteGroupoid)
    G._set_index(name, objects, arrows, src, rng,
                 index_composition(arrows, src, rng, compose), None)
    return G


def _refuse_repeated_labels(objects, arrows):
    """ValueError for the first object or arrow label given more than
    once."""
    for kind, labels in (("object", objects), ("arrow", arrows)):
        for x, k in Counter(labels).items():
            if k > 1:
                raise ValueError(f"{kind} label {x!r} is repeated")


def index_composition(arrows, src, rng, compose):
    """The composition as rows of positions, (ending, pos, rows), in one
    pass over compose.  Raises ValueError unless compose is defined
    exactly on the composable pairs, each composite an arrow from src(b)
    to rng(a); the faults of each entry are tested in the order
    non-composable pair, composite not an arrow, wrong ends, and a
    missing composite only after every entry.

    ending[x] lists the indices of the arrows with range x, in arrow order,
    and pos[j] is the place of arrow j in its list.  The row of arrow a
    holds pos[a∘c] for c in ending[src a]; a∘c ends at rng a, so it is
    arrow ending[rng a][row[k]].
    """
    index = {a: i for i, a in enumerate(arrows)}
    s = [src[a] for a in arrows]
    r = [rng[a] for a in arrows]
    ending, pos = arrows_by_range(r)
    rows = [[None] * len(ending.get(x, ())) for x in s]
    for (a, b), ab in compose.items():
        i, j, k = index.get(a), index.get(b), index.get(ab)
        if i is None or j is None or s[i] != r[j]:
            raise ValueError(f"composite given for a non-composable pair ({a},{b})")
        if k is None:
            raise ValueError(f"composite {ab} of ({a},{b}) is not an arrow")
        if s[k] != s[j] or r[k] != r[i]:
            raise ValueError(f"composite {ab} of ({a},{b}) has the wrong ends")
        rows[i][pos[j]] = pos[k]
    # with distinct labels each entry fills its own place, so a count
    # shows a missing one
    if len(compose) != sum(map(len, rows)):
        for a, x, row in zip(arrows, s, rows):
            for j, v in zip(ending.get(x, ()), row):
                if v is None:
                    raise ValueError(f"no composite given for ({a},{arrows[j]})")
    return ending, pos, rows


def arrows_by_range(rng):
    """(ending, pos) for the arrows 0, 1, … with ranges rng, as in
    index_composition."""
    ending, pos = {}, []
    for i, x in enumerate(rng):
        into = ending.setdefault(x, [])
        pos.append(len(into))
        into.append(i)
    return ending, pos


def _check_rows(arrows, src, rng, rows):
    """(ending, pos, rows) for rows given directly, in one pass over them.
    Raises ValueError unless there is one row per arrow with one entry per
    composable pair, each the place of an arrow with the source of the
    right factor (its range is right by construction).  A fault that a
    dict can have gets index_composition's message, an entry v that is not
    a place that of a composite v that is not an arrow, and a short row,
    a missing composite, is named only after every entry.

    Each row is compared whole: the sources of the arrows at its places
    against the sources of the right factors, sources[x] for the arrows
    ending at x.  A row that differs, or has an entry that is not an
    index of sources[y], is walked entry by entry to name its fault."""
    s = [src[a] for a in arrows]
    r = [rng[a] for a in arrows]
    ending, pos = arrows_by_range(r)
    if len(rows) != len(arrows):
        raise ValueError(f"{len(rows)} rows given for {len(arrows)} arrows")
    rows = [list(row) for row in rows]
    sources = {x: [s[j] for j in into] for x, into in ending.items()}
    short = None
    for a, x, y, row in zip(arrows, s, r, rows):
        into_src = sources[y]
        try:
            if (not row or min(row) >= 0) and \
                    [into_src[v] for v in row] == sources.get(x, []):
                continue
        except (IndexError, TypeError):
            pass
        right, into = ending.get(x, ()), ending[y]
        if len(row) > len(right):
            raise ValueError(f"row of {a} has {len(row)} composites for "
                             f"{len(right)} composable pairs")
        for j, v in zip(right, row):
            if not (isinstance(v, int) and 0 <= v < len(into)):
                raise ValueError(
                    f"composite {v} of ({a},{arrows[j]}) is not an arrow")
            if s[into[v]] != s[j]:
                raise ValueError(f"composite {arrows[into[v]]} of "
                                 f"({a},{arrows[j]}) has the wrong ends")
        if short is None and len(row) < len(right):
            short = f"no composite given for ({a},{arrows[right[len(row)]]})"
    if short is not None:
        raise ValueError(short)
    return ending, pos, rows


def composition_dict(G):
    """The compose view of G, {(a, b): a∘b} in the order of
    G.composable_pairs()."""
    return {(a, b): ab for a, b, ab in G.composable_pairs()}


def _units_and_inverses(objects, arrows, src, rng, table):
    """unit_at and inv for FiniteGroupoid, read off the rows of table in
    O(|compose|).

    An arrow u from x to x is a left identity when u∘c = c for each c in
    ending[x], that is, when its row is 0, 1, 2, …, and a right identity
    when a∘u = a, row[a][pos u] == pos a, for each a starting at x.  b is
    an inverse of a when a∘b is the unit at rng a, found in the row of a
    over the candidates b in ending[src a], and b∘a the unit at src a;
    the scan starts at the first candidate, found by row.index.
    """
    ending, pos, rows = table
    s = [src[a] for a in arrows]
    r = [rng[a] for a in arrows]
    starting = {}
    for i, x in enumerate(s):
        starting.setdefault(x, []).append(i)
    unit_at = {}
    for x in objects:
        into = ending.get(x, ())
        identity = list(range(len(into)))
        for u in into:
            if s[u] == x and rows[u] == identity and \
                    all(rows[a][pos[u]] == pos[a] for a in starting[x]):
                unit_at[x] = u
                break
        else:
            raise ValueError(f"no unit arrow at object {x}")
    inv = {}
    for i, a in enumerate(arrows):
        if s[i] not in unit_at or r[i] not in unit_at:
            raise ValueError(f"arrow {a} has src/rng outside the object set")
        at_rng, at_src = pos[unit_at[r[i]]], pos[unit_at[s[i]]]
        row = rows[i]
        k = row.index(at_rng) if at_rng in row else len(row)
        for b, ab in zip(ending[s[i]][k:], row[k:]):
            if ab == at_rng and rows[b][pos[i]] == at_src:
                inv[a] = arrows[b]
                break
        else:
            raise ValueError(f"arrow {a} has no inverse")
    return {x: arrows[u] for x, u in unit_at.items()}, inv


def composition_rows(G):
    """The index of G's composition, (ending, pos, rows) as in
    index_composition, checked and kept by the constructor."""
    return G._composition_index


def generating_set(G):
    """A greedy generating set S of G: the indices of the arrows, in arrow
    order, that are not composites of the arrows taken before them.  It is
    built once and kept on G, like the composition index.

    Every arrow lies in the closure of S under right composition by S,
    the composites (…(s₁∘s₂)∘…)∘s_k.  The closure is kept as S grows: a
    new generator s is composed on the right of each arrow already
    reached, and each newly reached arrow with every generator, so each
    (arrow, generator) pair is composed once,
    O(|arrows|·|S|) in all.  In a group of order n each new generator at
    least doubles the subgroup reached, so |S| ≤ 1 + ⌊log₂ n⌋.
    """
    if G._generators is None:
        ending, pos, rows = composition_rows(G)
        rng = [G.rng[a] for a in G.arrows]
        G._generators = greedy_generators(
            [G.src[a] for a in G.arrows], rng,
            lambda y, g: ending[rng[y]][rows[y][pos[g]]])[0]
    return G._generators


def greedy_generators(src, rng, compose):
    """The walk of generating_set on arrows 0, 1, … with the ends src[i]
    and rng[i], composing through compose(y, g), the index of y∘g, which
    is called once for each composable pair of an arrow y and a generator
    g.  Returns (gens, walk): walk lists each arrow once, in the order
    it is reached, as (y, left, g) with y = left∘g, or (y, None, None)
    for a generator y.
    """
    reached = [False] * len(src)
    reached_from, gens_into, gens, walk = {}, {}, [], []
    for s, x in enumerate(rng):
        if reached[s]:
            continue
        gens.append(s)
        gens_into.setdefault(x, []).append(s)
        todo = [(compose(y, s), y, s) for y in reached_from.get(x, ())]
        todo.append((s, None, None))
        while todo:
            y, left, g = todo.pop()
            if reached[y]:
                continue
            reached[y] = True
            walk.append((y, left, g))
            reached_from.setdefault(src[y], []).append(y)
            for g in gens_into.get(src[y], ()):
                todo.append((compose(y, g), y, g))
    return gens, walk


def generator_pairs(G):
    """(a, b, a∘b) as arrow indices for each composable pair whose right
    factor b is in generating_set(G)."""
    ending, pos, rows = composition_rows(G)
    starting = {}
    for i, a in enumerate(G.arrows):
        starting.setdefault(G.src[a], []).append(i)
    return [(a, b, ending[G.rng[G.arrows[a]]][rows[a][pos[b]]])
            for b in generating_set(G)
            for a in starting.get(G.rng[G.arrows[b]], ())]


def _associativity_faults(G):
    """(a∘b)∘c == a∘(b∘c) on every composable triple.

    Light's test (Clifford and Preston, The Algebraic Theory of Semigroups
    I, 1961, §1.2) decides this with the middle arrow b ranging over
    generating_set(G) only.  Let T be the arrows b for which the identity
    holds for every composable a and c.  If b₁, b₂ are in T then
    (x∘(b₁∘b₂))∘y = ((x∘b₁)∘b₂)∘y = (x∘b₁)∘(b₂∘y) = x∘(b₁∘(b₂∘y))
    = x∘((b₁∘b₂)∘y), so T is closed under composition.  It contains the
    generators, so every composite (…(s₁∘s₂)∘…)∘s_k of them, and these are
    every arrow.  The argument needs only a complete, well-ended
    composition, not units, inverses or associativity elsewhere.  Only
    when that test fails are the faults named, by one row comparison per
    composable pair (a, b), in the order of the triple loop.  A pass is
    kept on G, so a groupoid is tested once however often it is validated.

    With the rows of composition_rows, for c in ending[src b] both
    (a∘b)∘c and a∘(b∘c) end at rng a, so they are equal exactly when
    row[a∘b][k] == row[a][row[b][k]].
    """
    ending, pos, rows = composition_rows(G)
    if G._associative or all(rows[ab] == [rows[a][k] for k in rows[b]]
                             for a, b, ab in generator_pairs(G)):
        G._associative = True
        return []
    arrows = G.arrows
    bad = []
    for a, row_a in zip(arrows, rows):
        into_a = ending[G.rng[a]]
        for j in ending.get(G.src[a], ()):
            ab_row = rows[into_a[row_a[pos[j]]]]
            a_bc = [row_a[k] for k in rows[j]]
            if ab_row != a_bc:
                b, cs = arrows[j], ending[G.src[arrows[j]]]
                bad.extend(f"associativity fails at ({a},{b},{arrows[k]})"
                           for k, x, y in zip(cs, ab_row, a_bc) if x != y)
    return bad


def validate_groupoid(G):
    """The groupoid axioms that construction leaves open; returns a
    violation list.

    A FiniteGroupoid has distinct labels, a complete and well-ended
    composition, units and inverses by construction, so the one axiom
    left is associativity, decided by Light's test with every fault
    named in triple-loop order (_associativity_faults).
    """
    return _associativity_faults(G)


def full_relation(n):
    """The pair groupoid on n objects: arrows (i,j), (i,j)∘(j,k) = (i,k).

    The arrows ending at i are (i,1), …, (i,n), so (i,k) has place k − 1
    there, and the row of (i,j), over the (j,k), is 0, 1, …, n − 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    objects = list(range(1, n + 1))
    arrows = [(i, j) for i in objects for j in objects]
    return groupoid_from_rows(f"full_relation({n})", objects, arrows,
                              {a: a[1] for a in arrows},
                              {a: a[0] for a in arrows},
                              [range(n)] * len(arrows))


def group_as_groupoid(H):
    """A group viewed as a one-object groupoid: the one FiniteGroup builds
    from its table and keeps."""
    return H.groupoid


def disjoint_union(G1, G2):
    """Tagged disjoint union; no composition across components.

    The arrows ending at a tagged object are those of its part, in the
    same order, so the rows are the parts' rows side by side."""
    objects = [(0, x) for x in G1.objects] + [(1, x) for x in G2.objects]
    arrows = [(0, a) for a in G1.arrows] + [(1, a) for a in G2.arrows]
    src = {(0, a): (0, G1.src[a]) for a in G1.arrows}
    src.update({(1, a): (1, G2.src[a]) for a in G2.arrows})
    rng = {(0, a): (0, G1.rng[a]) for a in G1.arrows}
    rng.update({(1, a): (1, G2.rng[a]) for a in G2.arrows})
    return groupoid_from_rows(
        f"({G1.name})+({G2.name})", objects, arrows, src, rng,
        composition_rows(G1)[2] + composition_rows(G2)[2])


class IsotropySet:
    def __init__(self, arrows, fibres):
        self.arrows = arrows              # set of arrows with src == rng
        self.fibres = fibres              # object -> list of arrows at it


def isotropy(G):
    """The arrows with equal source and range, grouped per object.

    Each fibre is verified to be a group under composition.
    """
    arrows = {a for a in G.arrows if G.src[a] == G.rng[a]}
    fibres = {x: [a for a in arrows if G.src[a] == x] for x in G.objects}
    for x, fib in fibres.items():
        for a in fib:
            if G.inv[a] not in fib:
                raise ValueError(f"isotropy fibre at {x} not closed under inverse")
            for b in fib:
                if G.composite(a, b) not in fib:
                    raise ValueError(f"isotropy fibre at {x} not closed under composition")
    return IsotropySet(arrows, fibres)


def isotropy_fibre_group(G, x):
    """The isotropy group at object x as a FiniteGroup on the arrow labels."""
    fib = [a for a in G.arrows if G.src[a] == x and G.rng[a] == x]
    mul = {(a, b): G.composite(a, b) for a in fib for b in fib}
    return FiniteGroup(f"iso({G.name},{x})", fib, mul)


def _discrete_interior(subset):
    # In the discrete topology every set is open, so it is its own interior.
    return set(subset)


def is_principal(G):
    """Isotropy consists of units only."""
    return isotropy(G).arrows == G.units


def is_effective(G):
    """Interior of the isotropy consists of units only.

    Computed from the definition with the discrete interior operator; for
    the finite discrete groupoids modeled here this always agrees with
    is_principal, and callers assert that coincidence.
    """
    return _discrete_interior(isotropy(G).arrows) == G.units
