"""Rebuilding a twist from a pair.

The points of the rebuilt twist groupoid are the ultrafilters of the
normaliser semigroup under its natural order.  In a finite poset every
filter is the up-set of its minimum and the maximal ones are the up-sets
of the minimal nonzero elements, so points are represented by minimal
nonzero normalisers; the correspondence is cross-checked by a direct
filter oracle on small instances.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import finring, steinberg, pairs as pairs_mod, twist as twist_mod
from .finring import DEFAULT_CAP
from .groupoid import arrows_by_range, generating_set, generator_pairs, \
    greedy_generators, groupoid_from_rows, validate_groupoid
# not called here; bench/test_bench.py requires this module to bind it
from .groupoid import make_groupoid  # noqa: F401


class UltraGroupoid:
    """The groupoid of ultrafilter points with its unit-group action.

    The classes and coordinates are the pair's (Pair.unit_classes), keyed
    by the union of the orbits of the points: so the action closes the
    points iff there are |points| keys, and is free iff |classes|·|R^×|.
    """

    def __init__(self, pair):
        # the algebra, not the pair: the pair caches this groupoid, and a
        # reference back would make every pair a cycle for the collector
        self.algebra = A = pair.algebra
        self.units = sorted(finring.ring_units(A.ring))
        self.points = list(pair.enumerate_normalisers("minimal"))
        self.atoms = pair.atoms_of_B()
        self.coordinates, self.classes = pair.unit_classes()
        if len(self.coordinates) != len(self.points):
            raise AssertionError("points not closed under the scalar action")
        if len(self.coordinates) != len(self.classes) * len(self.units):
            raise AssertionError("scalar action is not free")
        self.source = {}
        self.range = {}
        self.dagger = {}
        for m in self.points:
            k = self.dagger[m] = pair.dagger_of(m)
            self.source[m], self.range[m] = pair.ends(m)
            if self.source[m] not in self.atoms or self.range[m] not in self.atoms:
                raise AssertionError("point with non-atomic source or range")
            if k not in self.coordinates:
                raise AssertionError("points not closed under dagger")
        self._twist = None

    def to_twist(self):
        """The rebuilt twist as a normalised cocycle c′ on the class
        groupoid G′.

        G′ has the atoms as objects and the class representatives as
        arrows, each unit class represented by its atom.  For composable
        classes (g, h), gh = u·r for a class r gives g∘h = r and
        c′(g, h) = u.  Only the products g·s by the generators s of the
        greedy walk (groupoid.greedy_generators) are made, one per
        composable (class, generator) pair, each checked to be a point
        with the ends of a composite; at an atom s, g·s = g needs none,
        since g·g†·g = g and s = g†g.

        Every other entry follows by associativity.  The walk reaches each
        h that is not a generator as the class of h′·s for an h′ reached
        before it and a generator s, h′·s = w·h.  Take g with source(g) =
        range(h) = range(h′), and the entries g·h′ = u′·r′ and
        r′·s = u″·r″, the first filled earlier in the row of g (rows are
        filled in the order of the walk), the second made.  As A is
        associative and its product bilinear,
        g·h = w⁻¹·g·(h′·s) = w⁻¹·(g·h′)·s = w⁻¹u′·(r′·s) = (w⁻¹u′u″)·r″,
        which is the direct product g·h: its coordinates are unique, the
        unit action being free.  The entries are held in per-row integer
        tables at the positions of composition_rows, which are the stored
        form of G′ and c′ (groupoid_from_rows, twist.cocycle_from_rows);
        G′ also keeps the generators of the walk as its generating set.
        """
        if self._twist is not None:
            return self._twist
        A, R = self.algebra, self.algebra.ring
        mul, one = R.mul_table, R.one
        classes, coordinates = self.classes, self.coordinates
        number = {g: i for i, g in enumerate(classes)}
        src = [self.source[g] for g in classes]
        rng = [self.range[g] for g in classes]
        ending, pos = arrows_by_range(rng)
        # gh = u·r for the classes g, h, r numbered i, j, k: u and k are
        # unit_rows[i][pos j] and class_rows[i][pos j]
        unit_rows = [[None] * len(ending.get(x, ())) for x in src]
        class_rows = [[None] * len(ending.get(x, ())) for x in src]

        def product(y, s):
            if classes[s] == src[y]:
                u, r = one, y
            else:
                point = A.mul(classes[y], classes[s])
                if point not in coordinates:
                    raise AssertionError("composition left the point set")
                u, rep = coordinates[point]
                r = number[rep]
                if src[r] != src[s] or rng[r] != rng[y]:
                    raise AssertionError("composite with the wrong ends")
            unit_rows[y][pos[s]], class_rows[y][pos[s]] = u, r
            return r

        gens, walk = greedy_generators(src, rng, product)
        # (pos h, pos h′, pos s, w⁻¹) per h = w⁻¹·h′·s, by range, in walk order
        derived = {}
        for h, left, s in walk:
            if left is not None:
                derived.setdefault(rng[h], []).append(
                    (pos[h], pos[left], pos[s],
                     R.unit_inverse(unit_rows[left][pos[s]])))
        for x, units, ends in zip(src, unit_rows, class_rows):
            for k, k_left, k_s, w_inverse in derived.get(x, ()):
                r = ends[k_left]
                units[k] = mul[mul[w_inverse][units[k_left]]][unit_rows[r][k_s]]
                ends[k] = class_rows[r][k_s]
        base = groupoid_from_rows(
            "ultra_base", self.atoms, classes, dict(zip(classes, src)),
            dict(zip(classes, rng)),
            [[pos[r] for r in ends] for ends in class_rows], gens)
        self._twist = twist_mod.cocycle_from_rows(R, base, unit_rows)
        return self._twist


def build_ultra_groupoid(pair):
    """The pair's ultrafilter groupoid, with its rebuilt twist checked as
    an input twist is: the class groupoid G′ against the groupoid axioms,
    then c′ by check_cocycle.  Built once per pair and cached on it.

    These two checks are the extension axioms of the twist of points.
    The coordinates p ↦ (t, class) are a bijection, since UltraGroupoid
    checks that the unit action is free and closes the point set.  Source
    and range are constant on a class: the dagger is unique under local
    units and t⁻¹·k is a dagger of t·m when k is one of m, so
    (t·m)†·(t·m) = m†·m, and likewise the range.  The product is
    bilinear, so (t·g)(s·h) = ts·(gh) = ts·c′(g,h)·(g∘h).  So the points
    with the unit action, the inclusion e ↦ t·e of the atoms and the
    projection onto classes are twist_from_cocycle(c′) relabelled by
    (g, t) ↦ t·g, and the extension axioms hold exactly when G′ is a
    groupoid and c′ is a normalised unit-valued 2-cocycle.
    """
    if pair.ultra_groupoid is not None:
        return pair.ultra_groupoid
    wt, _ = pair.satisfies_wt()
    if not wt:
        raise ValueError("pair does not satisfy the nondegeneracy condition")
    if not pair.has_local_units():
        raise ValueError("pair lacks local units")
    ug = UltraGroupoid(pair)
    # to_twist fills one entry per composable pair (g, h) of G′, the
    # classes h ending at src g: charged before a row is allocated
    ending = Counter(ug.range[h] for h in ug.classes)
    composable = sum(ending[ug.source[g]] for g in ug.classes)
    if composable > pair.cap:
        raise finring.CapExceeded(composable, pair.cap)
    c = ug.to_twist()
    bad = validate_groupoid(c.groupoid) or twist_mod.check_cocycle(c)
    if bad:
        raise AssertionError("rebuilt twist fails its axioms: " + bad[0])
    pair.ultra_groupoid = ug
    return ug


def phi_map(pair):
    """The embedding φ(γ, t) = t·δ_γ of the twist of a pair_from_twist
    pair into the ultrafilter points, checked on classes.

    With δ_γ = σ(γ)·β(γ) in coordinates, φ(γ, t) = (t·σ(γ), β(γ)): it
    commutes with the units, is injective iff β is and onto iff β is onto
    the classes.  The twists compose as (a, t)(b, s) = (ab, c(a,b)·ts), so
    by bilinearity φ is a homomorphism iff, for each composable (a, b),
    β(a∘b) = β(a)∘β(b) in G′ and c(a,b)·σ(a∘b) = c′(βa,βb)·σ(a)·σ(b):
    compare_twists' adjustment equation with ψ = β and u = σ.  Returns
    (delta, ultra, report), delta[γ] the coordinates of δ_γ or None.
    """
    ug = build_ultra_groupoid(pair)
    A, c = pair.algebra, pair.cocycle
    G = c.groupoid
    delta = {g: ug.coordinates.get(A.basis_vectors[A.index[g]])
             for g in G.arrows}
    report = dict.fromkeys(["well_defined", "injective", "homomorphism",
                            "unit_bijective", "surjective"], False)
    if None in delta.values():
        return delta, ug, report
    sigma = {g: t for g, (t, _) in delta.items()}
    beta = {g: r for g, (_, r) in delta.items()}
    report["well_defined"] = True
    report["injective"] = len(set(beta.values())) == len(beta)
    report["homomorphism"] = _is_homomorphism(c, ug.to_twist(), sigma, beta)
    # the units of the original twist land bijectively on the unit points,
    # the atoms, when each δ at a unit is an atom
    report["unit_bijective"] = \
        {A.basis_vectors[A.index[G.unit_at[x]]] for x in G.objects} == \
        set(ug.atoms)
    report["surjective"] = set(beta.values()) == set(ug.classes)
    return delta, ug, report


def _is_homomorphism(c, rebuilt, sigma, beta):
    """Whether β(a∘b) = β(a)∘β(b) in G′ and
    c(a,b)·σ(a∘b) = c′(βa,βb)·σ(a)·σ(b) for each composable (a, b) of G.

    The generator pairs of G decide it (_holds_on_generators).  For
    b = b′∘s, the β part is Light's lemma for maps
    (groupoid.generator_pairs).  For the scalars, write E(x, y) for the
    equation at (x, y), and let E hold at the generator pairs (a∘b′, s)
    and (b′, s) and, by induction, at (a, b′).  With g = βa, h = βb′ and
    k = βs, the cocycle identities of c and c′ give
    c(a,b)·c(b′,s)·σ(a∘b) = c(a,b′)·c(a∘b′,s)·σ(a∘b)
    = c(a,b′)·c′(g∘h,k)·σ(a∘b′)·σ(s) = c′(g∘h,k)·c′(g,h)·σ(a)·σ(b′)·σ(s)
    = σ(a)·c′(g,h∘k)·c′(h,k)·σ(b′)·σ(s) = σ(a)·c′(βa,βb)·c(b′,s)·σ(b),
    and c(b′,s) is a unit, so E holds at (a, b).
    """
    G, H, mul = c.groupoid, rebuilt.groupoid, c.ring.mul_table

    def holds(a, b):
        ab, ba, bb = G.composite(a, b), beta[a], beta[b]
        return H.src[ba] == H.rng[bb] and H.composite(ba, bb) == beta[ab] \
            and mul[c.value(a, b)][sigma[ab]] == \
            mul[mul[rebuilt.value(ba, bb)][sigma[a]]][sigma[b]]

    return _holds_on_generators(c, rebuilt, holds) or \
        all(holds(a, b) for a, b, _ in G.composable_pairs())


def _holds_on_generators(c1, c2, holds, every_left=False):
    """Whether holds(a, s) for the composable pairs (a, s) of arrows of
    G1 = c1.groupoid with s in generating_set(G1), or, with every_left,
    for every arrow a and every such s; False unless the twists of c1
    and c2 are associative (twist.is_associative), which is what the
    proofs of its callers need.  A caller walks every pair when it is
    False: on associative twists the walk then finds the failure, and on
    others it decides alone.

    Every arrow is a composite (…(s₁∘s₂)∘…)∘s_k of generators
    (groupoid.generating_set), so a property that passes from b′ and s
    to b′∘s holds for every arrow once it holds for the generators."""
    G, arrows = c1.groupoid, c1.groupoid.arrows
    pairs = [(a, s) for s in generating_set(G) for a in range(len(arrows))] \
        if every_left else [(a, s) for a, s, _ in generator_pairs(G)]
    return twist_mod.is_associative(c1) and twist_mod.is_associative(c2) \
        and all(holds(arrows[a], arrows[s]) for a, s in pairs)


def verify_reconstruction_theorem(pair):
    """The three-way equivalence for a pair_from_twist pair: quasi-Cartan
    classification of the pair, the local bisection hypothesis of its
    twist, and surjectivity of the embedding."""
    classification = pair.classify()
    lbh, witness = pairs_mod.check_lbh(pair)
    delta, ug, phi_report = phi_map(pair)
    report = {
        "aqp": classification["AQP"],
        "lbh": lbh,
        "phi_surjective": phi_report["surjective"],
        "phi_injective": phi_report["injective"],
        "sigma_points": len(delta) * len(ug.units),
        "sigma_prime_points": len(ug.points),
        "g_prime_arrows": len(ug.classes),
        "classification": classification,
        "phi": phi_report,
        "lbh_witness": witness,
    }
    flags = {report["aqp"], report["lbh"], report["phi_surjective"]}
    report["consistent"] = len(flags) == 1
    if not (phi_report["injective"] and phi_report["well_defined"]
            and phi_report["homomorphism"] and phi_report["unit_bijective"]):
        raise AssertionError("embedding properties failed")
    return report


def _atom_coefficient(pair, b, e):
    """The unique t with b·e = t·e, for b in B and an atom e."""
    A, R = pair.algebra, pair.algebra.ring
    be = A.mul(b, e)
    hits = [t for t in R.all_indices() if A.scale(t, e) == be]
    if not hits:
        raise AssertionError("diagonal element is not scalar on an atom")
    # nondegeneracy makes the scalar unique
    if len(hits) > 1:
        raise AssertionError("atom scalar not unique")
    return hits[0]


# ahat_iso tests all element pairs up to this |A|, scaled basis pairs above
LINEARITY_CHECK_LIMIT = 128


def ahat_iso(pair):
    """The coordinate isomorphism onto the convolution algebra of the
    rebuilt twist, for quasi-Cartan pairs.

    Maps a to the function whose value at the point with minimum n is the
    coefficient of the expectation of n†·a at the source atom of n.
    """
    classification = pair.classify()
    if not classification["AQP"]:
        return None, {"skipped": "pair is not quasi-Cartan"}
    ce = pair.canonical_expectation()
    P = ce["map"]
    ug = build_ultra_groupoid(pair)
    rebuilt = ug.to_twist()
    A, R = pair.algebra, pair.algebra.ring

    def ahat(a):
        coeffs = {}
        for g in ug.classes:  # base arrows are representative points
            n = g
            value = _atom_coefficient(pair, P(A.mul(ug.dagger[n], a)), ug.source[n])
            coeffs[g] = value
        return steinberg.AlgebraElement(rebuilt, coeffs)

    report = {"skipped": None}
    everything = A.all_elements(cap=pair.cap)
    images = {}
    for a in everything:
        images[a] = ahat(a)
    report["well_defined"] = True
    report["injective"] = len(set(images.values())) == len(everything)
    codomain_size = R.size ** len(ug.classes)
    report["bijective"] = report["injective"] and len(everything) == codomain_size
    small = len(everything) <= LINEARITY_CHECK_LIMIT
    lin = True
    mult = True
    if small:
        test_pairs = itertools.product(everything, everything)
    else:
        test_pairs = ((A.basis_vector(i, coeff=t), A.basis_vector(j, coeff=u))
                      for i in range(A.dim) for j in range(A.dim)
                      for t in R.all_indices() for u in R.all_indices())
    # images holds every element of A, so sums and products are looked up
    for x, y in test_pairs:
        if images[x] + images[y] != images[A.add(x, y)]:
            lin = False
            break
        if steinberg.convolve(images[x], images[y]) != images[A.mul(x, y)]:
            mult = False
            break
    report["linear"] = lin
    report["multiplicative"] = mult
    diag = steinberg.diagonal(rebuilt)
    B = A.span(pair.sub_basis)
    report["diagonal_to_diagonal"] = all(diag.contains(images[b]) for b in B)
    image_of_B = {images[b] for b in B}
    diag_size = R.size ** len(rebuilt.groupoid.objects)
    report["diagonal_onto"] = len(image_of_B) == len(B) == diag_size
    return ahat, report


# -- twist comparison ------------------------------------------------


class _TwistWalk:
    """The ψ-independent data of one comparison of cocycles c1 → c2.

    Arrows of G1 are numbered in G1.arrows order.  Each composable pair
    (α, β) of G1 is an equation (α, β, αβ) of arrow numbers; eqs_of[i]
    lists the equations that contain arrow i, and closes[i] those whose
    last arrow in that order is i.  Every object bijection, arrow-map
    extension and scalar branch tried counts once; the walk raises
    CapExceeded once the count passes cap.
    """

    def __init__(self, c1, c2, cap):
        G1, G2 = c1.groupoid, c2.groupoid
        self.R, self.G1, self.G2, self.c2 = c1.ring, G1, G2, c2
        self.cap, self.count = cap, 0
        number = G1.number
        self.pairs = list(G1.composable_pairs())
        self.eqs = [(number[a], number[b], number[ab])
                    for a, b, ab in self.pairs]
        self.eqs_of = [[] for _ in G1.arrows]
        self.closes = [[] for _ in G1.arrows]
        for k, eq in enumerate(self.eqs):
            for i in set(eq):
                self.eqs_of[i].append(k)
            self.closes[max(eq)].append(k)
        self.c1_inverse = [self.R.unit_inverse(c1.value(a, b))
                           for a, b, _ in self.pairs]
        self.unit_numbers = [i for i, g in enumerate(G1.arrows) if g in G1.units]
        self.order = [i for i, g in enumerate(G1.arrows) if g not in G1.units]
        self.units = sorted(finring.ring_units(self.R))
        self.hom1 = Counter((G1.src[g], G1.rng[g]) for g in G1.arrows)
        self.hom2 = Counter((G2.src[g], G2.rng[g]) for g in G2.arrows)
        # (source, range, is a unit) → the arrows of G2 with them, in order
        self.targets = {}
        for g in G2.arrows:
            key = (G2.src[g], G2.rng[g], g in G2.units)
            self.targets.setdefault(key, []).append(g)

    def spend(self):
        self.count += 1
        if self.count > self.cap:
            raise finring.CapExceeded(self.count, self.cap)

    def isos(self):
        """All isomorphisms G1 → G2 as (object bijection, arrow bijection),
        object permutations of G2 first, then arrows in G2.arrows order."""
        G1, G2 = self.G1, self.G2
        if len(G1.objects) != len(G2.objects) or \
                len(G1.arrows) != len(G2.arrows):
            return
        for perm in itertools.permutations(G2.objects):
            self.spend()
            obj_map = dict(zip(G1.objects, perm))
            if all(self.hom2[(obj_map[x], obj_map[y])] == n
                   for (x, y), n in self.hom1.items()):
                yield from self._extend(obj_map)

    def _extend(self, obj_map):
        """The arrow bijections over obj_map that preserve composition,
        depth first over G1.arrows.  The depth is the number of arrows, so
        the walk keeps a stack of candidate iterators instead of recursing."""
        G1, G2 = self.G1, self.G2
        image, used, levels = [], set(), []
        while True:
            if len(image) == len(G1.arrows):
                yield obj_map, dict(zip(G1.arrows, image))
            else:
                a = G1.arrows[len(image)]
                levels.append(iter(self.targets.get(
                    (obj_map[G1.src[a]], obj_map[G1.rng[a]], a in G1.units),
                    ())))
            while levels:  # the next extension, backing up past spent levels
                i = len(levels) - 1
                if len(image) > i:
                    used.discard(image.pop())
                for cand in levels[-1]:
                    if cand in used:
                        continue
                    self.spend()
                    image.append(cand)
                    # each equation is checked once, when its last arrow is
                    # mapped
                    if all(G2.composite(image[x], image[y]) == image[xy]
                           for x, y, xy in (self.eqs[k] for k in self.closes[i])):
                        used.add(cand)
                        break
                    image.pop()
                else:
                    levels.pop()
                    continue
                break
            else:
                return

    def adjustment(self, arrow_map):
        """u: arrows → units with u(unit) = 1 and
        u(αβ)·c1(α,β) = c2(ψα,ψβ)·u(α)·u(β); None when no assignment works.

        Units are fixed first; then, depth first, the first open arrow of
        self.order takes each unit of R in sorted order.  Branches are a
        stack, since there can be as many as arrows.
        """
        mul, c2 = self.R.mul_table, self.c2
        ratio = [mul[c2.value(arrow_map[a], arrow_map[b])][inv]
                 for (a, b, _), inv in zip(self.pairs, self.c1_inverse)]
        u = [None] * len(self.G1.arrows)
        for i in self.unit_numbers:
            u[i] = self.R.one
        trail = list(self.unit_numbers)
        if not self._propagate(u, ratio, trail, 0):
            return None
        order, branches, pos = self.order, [], 0
        while True:
            while pos < len(order) and u[order[pos]] is not None:
                pos += 1
            if pos == len(order):
                return dict(zip(self.G1.arrows, u))
            branches.append((pos, len(trail), iter(self.units)))
            while branches:  # the next value, backing up past spent branches
                pos, mark, values = branches[-1]
                for i in trail[mark:]:
                    u[i] = None
                del trail[mark:]
                t = next(values, None)
                if t is None:
                    branches.pop()
                    continue
                self.spend()
                u[order[pos]] = t
                trail.append(order[pos])
                if self._propagate(u, ratio, trail, mark):
                    break
            else:
                return None
            pos += 1

    def _propagate(self, u, ratio, trail, start):
        """Work through the arrows trail[start:], appending every value an
        equation forces once two of its three places are known; False at
        the first equation that fails with all three known."""
        mul, inverse, eqs = self.R.mul_table, self.R.unit_inverse, self.eqs
        pos = start
        while pos < len(trail):
            for k in self.eqs_of[trail[pos]]:
                a, b, ab = eqs[k]
                ua, ub, uab = u[a], u[b], u[ab]
                if uab is None:
                    if ua is None or ub is None:
                        continue
                    u[ab] = mul[mul[ratio[k]][ua]][ub]
                    trail.append(ab)
                elif ua is None:
                    if ub is None:
                        continue
                    u[a] = mul[uab][inverse(mul[ratio[k]][ub])]
                    trail.append(a)
                elif ub is None:
                    u[b] = mul[uab][inverse(mul[ratio[k]][ua])]
                    trail.append(b)
                elif uab != mul[mul[ratio[k]][ua]][ub]:
                    return False
            pos += 1
        return True


def commutator_pairing(c):
    """ω(α, β) = c(α,β)·c(β,α)⁻¹ on each commuting pair of isotropy
    arrows, α and β at one object with αβ = βα, as {(α, β): ω}."""
    G, mul, inverse = c.groupoid, c.ring.mul_table, c.ring.unit_inverse
    fibres = {}
    for g in G.arrows:
        if G.src[g] == G.rng[g]:
            fibres.setdefault(G.src[g], []).append(g)
    return {(a, b): mul[c.value(a, b)][inverse(c.value(b, a))]
            for fibre in fibres.values() for a in fibre for b in fibre
            if G.composite(a, b) == G.composite(b, a)}


def pairings_differ(omega1, omega2):
    """Whether two commutator pairings take their values with different
    multiplicities, which rules out a twist isomorphism (see
    compare_twists)."""
    return Counter(omega1.values()) != Counter(omega2.values())


def compare_twists(c1, c2, cap=DEFAULT_CAP):
    """Decide isomorphism of two cocycle-presented twists.

    Returns (obj_map, arrow_map, u) where the twist map is
    (γ, t) ↦ (ψ_G(γ), u(γ)·t), or None.  For each groupoid isomorphism ψ
    the condition on u is one equation
    u(αβ)·c1(α,β) = c2(ψα,ψβ)·u(α)·u(β) per composable pair; with
    r = c2(ψα,ψβ)·c1(α,β)⁻¹ it reads u(αβ) = r(α,β)·u(α)·u(β).  Known
    values propagate through the equations of each arrow, and only
    arrows that stay open branch over the units of R.  Raises CapExceeded
    once more than cap object bijections, arrow-map extensions and scalar
    branches have been tried.

    The commutator pairing ω(α,β) = c(α,β)·c(β,α)⁻¹ on commuting
    isotropy pairs (Kleppner, Multipliers on abelian groups, Math. Ann.
    158, 1965) is checked first.  If u adjusts ψ and αβ = βα, divide the
    equation at (α, β) by the one at (β, α): u(αβ) = u(βα) cancels, and
    u(α)·u(β) = u(β)·u(α) cancels because R is commutative, leaving
    ω1(α,β) = ω2(ψα,ψβ).  A groupoid isomorphism maps the commuting
    isotropy pairs of G1 one to one onto those of G2, so the values of ω1
    and ω2 then agree with multiplicity.  So when the multisets differ
    no ψ is enumerated, and a ψ that does not carry ω1 to ω2 is skipped
    without solving for u.  Every other ψ is solved, so the search stays
    exhaustive where the pairing does not decide.
    """
    if c1.ring.size != c2.ring.size or \
            finring.ring_units(c1.ring) != finring.ring_units(c2.ring):
        return None
    omega1, omega2 = commutator_pairing(c1), commutator_pairing(c2)
    if pairings_differ(omega1, omega2):
        return None
    walk = _TwistWalk(c1, c2, cap)
    for obj_map, arrow_map in walk.isos():
        if any(omega2[(arrow_map[a], arrow_map[b])] != w
               for (a, b), w in omega1.items()):
            continue
        u = walk.adjustment(arrow_map)
        if u is not None:
            return obj_map, arrow_map, u
    return None


def algebra_iso_from_twist_iso(c1, c2, iso):
    """The diagonal-preserving convolution-algebra isomorphism induced by a
    twist isomorphism; verified multiplicative, bijective and diagonal-
    preserving on the basis.  Returns (map, report).

    ψ is linear: the coefficient of ψ(f) at an arrow h of G2 is the sum
    of u(g)·f(g) over the arrows g with ψg = h.  It is bijective exactly
    when its arrow map is a bijection onto the arrows of G2 and every
    u(g) is a unit.

    Multiplicativity is checked on pairs of point masses, by convolve,
    and the pairs (a, s) with s a generator of G1 decide it
    (_holds_on_generators): the composable ones when the arrow map is
    injective, all of them otherwise.  Only when that test fails are the
    composable pairs walked, or every pair of arrows for an arrow map
    that is not injective.  Both algebras are associative (checked
    first, twist.is_associative), and ψ and the convolution are linear
    over the commutative R.  For b = b′∘s,
    δ_b′*δ_s = c1(b′,s)·δ_b with c1(b′,s) a unit, and δ_a*δ_b′ is a
    multiple of δ_x for x = a∘b′, or 0.  So if ψ is multiplicative at
    (x, s), at (b′, s) and, by induction, at (a, b′), then
    c1(b′,s)·ψ(δ_a*δ_b) = ψ((δ_a*δ_b′)*δ_s) = ψ(δ_a*δ_b′)*ψ(δ_s)
    = ψ(δ_a)*ψ(δ_b′)*ψ(δ_s) = c1(b′,s)·ψ(δ_a)*ψ(δ_b).  With every pair
    (x, s) this covers every pair (a, b); with the composable ones, every
    composable (a, b), which is enough for an injective arrow map.

    Indeed, let (a, b) be a pair that is not composable, so ψ(δ_a*δ_b) = 0,
    and suppose ψ(δ_a) = u(a)·δ_ψa and ψ(δ_b) = u(b)·δ_ψb are nonzero
    (otherwise ψ(δ_a)*ψ(δ_b) = 0 as well).  With s the unit at the
    source of a, u(a)·δ_ψa = ψ(δ_a*δ_s) = ψ(δ_a)*ψ(δ_s) (c1 is
    normalised), a nonzero multiple of δ_(ψa·ψs); so ψs is the unit at
    the source of ψa.  Likewise ψ maps the unit r at the range of b to
    the unit at the range of ψb.  If ψa and ψb were composable, ψs = ψr,
    so s = r and (a, b) would be composable; hence ψ(δ_a)*ψ(δ_b) = 0 too.
    """
    obj_map, arrow_map, u = iso
    R, G1 = c1.ring, c1.groupoid

    def psi(f):
        out = {}
        for g, v in f.coeffs.items():
            out[arrow_map[g]] = R.add(out.get(arrow_map[g], R.zero),
                                      R.mul(u.get(g, R.one), v))
        return steinberg.AlgebraElement(c2, out)

    point = {g: steinberg.point_mass(c1, g) for g in G1.arrows}
    image = {g: psi(x) for g, x in point.items()}  # ψ(δ_g), made once

    def holds(a, b):
        return psi(steinberg.convolve(point[a], point[b])) == \
            steinberg.convolve(image[a], image[b])

    onto = {arrow_map[g] for g in G1.arrows}
    injective = len(onto) == len(G1.arrows)
    pairs = ((a, b) for a, b, _ in G1.composable_pairs()) if injective \
        else itertools.product(G1.arrows, repeat=2)
    report = {"multiplicative":
              _holds_on_generators(c1, c2, holds, not injective)
              or all(holds(a, b) for a, b in pairs)}
    report["bijective_on_basis"] = injective and \
        onto == set(c2.groupoid.arrows) and \
        all(R.is_unit(u.get(g, R.one)) for g in G1.arrows)
    report["diagonal_preserving"] = all(
        image[g].support() <= c2.groupoid.units for g in G1.units)
    return psi, report


# -- the filter oracle ----------------------------------------------


# ultrafilter_oracle tries every subset of up to this many nonzero normalisers
EXHAUSTIVE_FILTER_LIMIT = 16


def ultrafilter_oracle(pair):
    """Cross-validate the minimal-normaliser representation of ultrafilters.

    Works directly with up-sets of the normaliser order: checks the order
    axioms, computes the maximal principal filters by subset comparison,
    and (on small instances) enumerates every down-directed up-closed
    subset to confirm all filters are principal.  Returns a report.
    """
    A = pair.algebra
    normalisers = pair.enumerate_normalisers("full")
    nonzero = [n for n in normalisers if n != A.zero()]
    report = {"n_size": len(normalisers)}
    le = {}
    for m in nonzero:
        for n in nonzero:
            le[(m, n)] = pair.leq(m, n)
    # partial order axioms
    for m in nonzero:
        if not le[(m, m)]:
            raise AssertionError("order not reflexive")
        for n in nonzero:
            if le[(m, n)] and le[(n, m)] and m != n:
                raise AssertionError("order not antisymmetric")
            for p in nonzero:
                if le[(m, n)] and le[(n, p)] and not le[(m, p)]:
                    raise AssertionError("order not transitive")
    up = {n: frozenset(m for m in nonzero if le[(n, m)]) for n in nonzero}
    maximal = []
    for n in nonzero:
        if not any(up[n] < up[m] for m in nonzero):
            maximal.append(up[n])
    maximal = set(maximal)
    claimed = {up[n] for n in pair.enumerate_normalisers("minimal")}
    report["maximal_principal_filters"] = len(maximal)
    report["agrees_with_minimal_enumeration"] = maximal == claimed
    # independent minimality cross-check
    minimal_by_order = {n for n in nonzero
                        if not any(le[(m, n)] and m != n for m in nonzero)}
    report["minima_agree"] = minimal_by_order == set(pair.enumerate_normalisers("minimal"))
    if len(nonzero) <= EXHAUSTIVE_FILTER_LIMIT:
        all_principal = True
        max_filters = set()
        elements = list(nonzero)
        for mask in range(1, 2 ** len(elements)):
            subset = frozenset(e for i, e in enumerate(elements) if mask >> i & 1)
            # up-closed?
            if any(le[(m, n)] and n not in subset
                   for m in subset for n in nonzero):
                continue
            # down-directed within the subset?
            directed = all(any(le[(p, m)] and le[(p, n)] for p in subset)
                           for m in subset for n in subset)
            if not directed:
                continue
            if subset not in set(up.values()):
                all_principal = False
            max_filters.add(subset)
        # maximal among all filters
        truly_maximal = {F for F in max_filters
                         if not any(F < G for G in max_filters)}
        report["all_filters_principal"] = all_principal
        report["exhaustive_maximal_agrees"] = truly_maximal == maximal
    return report
