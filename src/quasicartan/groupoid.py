"""Finite groupoids with validation, standard constructors, and the
isotropy-based predicates (principal, effective).

Everything is finite and discrete, so a "topological" condition like
effectiveness collapses to a combinatorial one; we still compute it from
the definition (with the discrete interior operator) rather than aliasing
is_principal, so the coincidence is a checked fact, not a shortcut.
"""

from __future__ import annotations

import itertools
from collections import Counter
from types import MappingProxyType


class FiniteGroup:
    """A finite group given by its multiplication table.

    Associativity is decided by Light's test (see _associativity_faults):
    the middle element ranges over the greedy generating set
    (greedy_generators), at most 1 + log₂ n elements, so the table is
    checked in O(n²·log n).  Every triple is scanned only when that test
    fails, to name the first fault.
    """

    def __init__(self, name, elements, mul_table):
        self.name = name
        self.elements = list(elements)
        self.mul = dict(mul_table)  # (g, h) -> gh
        self.identity = self._find_identity()
        self.inverse = {}
        for g in self.elements:
            for h in self.elements:
                if self.mul[(g, h)] == self.identity and self.mul[(h, g)] == self.identity:
                    self.inverse[g] = h
                    break
        if len(self.inverse) != len(self.elements):
            raise ValueError("not every element has an inverse")
        index = {g: i for i, g in enumerate(self.elements)}
        table = [[index[self.mul[(g, h)]] for h in self.elements]
                 for g in self.elements]
        one_object = [0] * len(table)
        gens, _ = greedy_generators(one_object, one_object,
                                    lambda y, s: table[y][s])
        if all(table[row[b]] == list(map(row.__getitem__, table[b]))
               for b in gens for row in table):
            return
        for a, b, c in itertools.product(self.elements, repeat=3):
            if self.mul[(self.mul[(a, b)], c)] != self.mul[(a, self.mul[(b, c)])]:
                raise ValueError(f"multiplication not associative at ({a},{b},{c})")

    def _find_identity(self):
        for e in self.elements:
            if all(self.mul[(e, g)] == g and self.mul[(g, e)] == g for g in self.elements):
                return e
        raise ValueError("group table has no identity")

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
    "b first, then a".  A FiniteGroupoid is not mutated after
    construction.  Its composition is stored as the rows of its index
    (composition_rows), built once and kept on it, and so is its
    generating set (generating_set); number[a] is the place of a in arrows.
    The package reads the rows through composite and composable_pairs.
    compose, {(a, b): a∘b}, is a read-only view kept for callers outside
    the package: the dict a groupoid built directly is given, which it
    indexes on first use, or else derived from composable_pairs on first
    use (composition_dict).
    """

    def __init__(self, name, objects, arrows, src, rng, compose, inv, unit_at):
        self.name = name
        self.objects = list(objects)
        self.arrows = list(arrows)
        self.src = dict(src)
        self.rng = dict(rng)
        self.number = {a: i for i, a in enumerate(self.arrows)}
        self._compose = None if compose is None else \
            MappingProxyType(dict(compose))
        self.inv = dict(inv)
        self.unit_at = dict(unit_at)
        self.units = set(unit_at.values())
        self._composition_index = None
        self._generators = None

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


def make_groupoid(name, objects, arrows, src, rng, compose):
    """Assemble a groupoid from composition data, deriving units and
    inverses from the index of its composition, which the groupoid keeps
    in place of compose: the dict is read once and not kept.

    The unit at x is the first arrow in arrow order that is a two-sided
    identity at x, and the inverse of a the first arrow b in arrow order
    with a∘b and b∘a units; an object without a unit, an arrow that ends
    outside the objects or one without an inverse raises ValueError.
    """
    bad = _repeated_labels(objects, arrows)
    if bad:
        raise ValueError(bad[0])
    table = index_composition(arrows, src, rng, compose)
    return _assemble(name, objects, arrows, src, rng, table)


def groupoid_from_rows(name, objects, arrows, src, rng, rows,
                       generators=None):
    """make_groupoid for a composition given as the rows of its index
    (index_composition): rows[i][k] is the place of a∘c in ending[rng a],
    for a = arrows[i] and c the k-th arrow of ending[src a].  The rows are
    checked in one pass (_check_rows) and kept.

    generators, when given, must be what greedy_generators returns for
    this composition, the walk composing through these rows; it is kept as
    generating_set(G), which otherwise walks the rows on first use.
    """
    bad = _repeated_labels(objects, arrows)
    if bad:
        raise ValueError(bad[0])
    table = _check_rows(arrows, src, rng, rows)
    G = _assemble(name, objects, arrows, src, rng, table)
    G._generators = generators
    return G


def _assemble(name, objects, arrows, src, rng, table):
    """The groupoid with the index table, its units and inverses read off
    the rows."""
    unit_at, inv = _units_and_inverses(objects, arrows, src, rng, table)
    G = FiniteGroupoid(name, objects, arrows, src, rng, None, inv, unit_at)
    G._composition_index = table
    return G


def _repeated_labels(objects, arrows):
    """A message for each object or arrow label given more than once."""
    return [f"{kind} label {x!r} is repeated"
            for kind, labels in (("object", objects), ("arrow", arrows))
            for x, k in Counter(labels).items() if k > 1]


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
    a missing composite, is named only after every entry."""
    s = [src[a] for a in arrows]
    r = [rng[a] for a in arrows]
    ending, pos = arrows_by_range(r)
    if len(rows) != len(arrows):
        raise ValueError(f"{len(rows)} rows given for {len(arrows)} arrows")
    rows = [list(row) for row in rows]
    short = None
    for a, x, y, row in zip(arrows, s, r, rows):
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


def arrow_places(G):
    """(ending, pos) of composition_rows(G), read off the ranges alone, so
    also for a groupoid whose composition is not sound."""
    if G._composition_index is not None:
        return G._composition_index[:2]
    return arrows_by_range([G.rng[a] for a in G.arrows])


def _units_and_inverses(objects, arrows, src, rng, table):
    """unit_at and inv for make_groupoid, read off the rows of table in
    O(|compose|).

    An arrow u from x to x is a left identity when u∘c = c for each c in
    ending[x], that is, when its row is 0, 1, 2, …, and a right identity
    when a∘u = a, row[a][pos u] == pos a, for each a starting at x.  b is
    an inverse of a when a∘b is the unit at rng a, found in the row of a
    over the candidates b in ending[src a], and b∘a the unit at src a.
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
        for b, ab in zip(ending[s[i]], rows[i]):
            if ab == at_rng and rows[b][pos[i]] == at_src:
                inv[a] = arrows[b]
                break
        else:
            raise ValueError(f"arrow {a} has no inverse")
    return {x: arrows[u] for x, u in unit_at.items()}, inv


def composition_rows(G):
    """index_composition of G, built once and kept on G: make_groupoid and
    groupoid_from_rows store it, and a FiniteGroupoid built directly
    indexes the dict it is given on first use."""
    if G._composition_index is None:
        G._composition_index = index_composition(G.arrows, G.src, G.rng,
                                                 G._compose)
    return G._composition_index


def generating_set(G):
    """A greedy generating set S of G: the indices of the arrows, in arrow
    order, that are not composites of the arrows taken before them.  It is
    built once and kept on G, like the composition index.

    The composition must be complete and well-ended, as composition_rows
    checks.  Every arrow lies in the closure of S
    under right composition by S, the composites (…(s₁∘s₂)∘…)∘s_k.  The
    closure is kept as S grows: a new generator s is composed on the right
    of each arrow already reached, and each newly reached arrow with every
    generator, so each (arrow, generator) pair is composed once,
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
    """(a∘b)∘c == a∘(b∘c) on every composable triple; assumes a complete,
    well-ended composition.

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
    composable pair (a, b), in the order of the triple loop.

    With the rows of composition_rows, for c in ending[src b] both
    (a∘b)∘c and a∘(b∘c) end at rng a, so they are equal exactly when
    row[a∘b][k] == row[a][row[b][k]].
    """
    ending, pos, rows = composition_rows(G)
    if all(rows[ab] == list(map(rows[a].__getitem__, rows[b]))
           for a, b, ab in generator_pairs(G)):
        return []
    arrows = G.arrows
    bad = []
    for a, row_a in zip(arrows, rows):
        into_a = ending[G.rng[a]]
        for j in ending.get(G.src[a], ()):
            ab_row = rows[into_a[row_a[pos[j]]]]
            a_bc = list(map(row_a.__getitem__, rows[j]))
            if ab_row != a_bc:
                b, cs = arrows[j], ending[G.src[arrows[j]]]
                bad.extend(f"associativity fails at ({a},{b},{arrows[k]})"
                           for k, x, y in zip(cs, ab_row, a_bc) if x != y)
    return bad


def validate_groupoid(G):
    """Exhaustively check the groupoid axioms; returns a violation list.

    The composition domain and ends take one pass over compose, the one
    that indexes it (composition_rows); the loop over all pairs of arrows
    runs only when that pass finds a fault, to name each one.
    Associativity is checked only on a complete, well-ended composition
    with distinct labels, by
    Light's test (Clifford and Preston, The Algebraic Theory of Semigroups
    I, 1961, §1.2): the middle arrow ranges over generating_set(G), which
    decides the identity for every triple, since the middle arrows at
    which it holds are closed under composition (the proof is in
    _associativity_faults).  All composable triples are scanned only
    when that test fails, to name each fault.  The unit and inverse laws
    are read off the same rows (_identities_hold), and the pairs of
    arrows in compose are looped over only to name their faults, or after
    an earlier fault, which can leave the rows unsound.
    """
    bad = _repeated_labels(G.objects, G.arrows)
    arrow_set = set(G.arrows)
    for a in G.arrows:
        if G.src[a] not in G.objects or G.rng[a] not in G.objects:
            bad.append(f"arrow {a} has src/rng outside the object set")
    try:
        composition_rows(G)
        fault = None
    except ValueError as exc:
        fault = str(exc)
    for a in G.arrows if fault else ():
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
    if fault and not bad:
        # every pair of arrows is right, so compose has a key outside them
        bad.append(fault)
    if not bad:
        bad.extend(_associativity_faults(G))
    if bad or not _identities_hold(G):
        bad.extend(_identity_faults(G))
    return bad


def _identities_hold(G):
    """Whether unit_at and inv are the units and inverses that
    make_groupoid reads off the rows (_units_and_inverses); assumes
    distinct labels, ends among the objects and a sound, associative
    index.  Those pass the unit and inverse laws of validate_groupoid,
    and in an associative composition units and inverses are unique,
    so the recorded ones pass them exactly when they are those."""
    try:
        unit_at, inv = _units_and_inverses(G.objects, G.arrows, G.src,
                                           G.rng, composition_rows(G))
    except ValueError:
        return False
    return unit_at == G.unit_at and inv == G.inv


def _identity_faults(G):
    """The faults of the unit and inverse laws, for validate_groupoid, by
    the loop over all pairs of arrows in compose."""
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
    """A group viewed as a one-object groupoid, built from the rows of its
    table: every arrow ends at the one object, so the place of an arrow is
    its index."""
    obj = "*"
    arrows = list(H.elements)
    index = {g: i for i, g in enumerate(arrows)}
    ends = dict.fromkeys(arrows, obj)
    rows = [[index[H.mul[(g, h)]] for h in arrows] for g in arrows]
    return groupoid_from_rows(f"group({H.name})", [obj], arrows, ends, ends,
                              rows)


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
