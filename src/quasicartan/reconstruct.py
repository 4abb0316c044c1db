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

from . import finring, steinberg, pairs as pairs_mod, twist as twist_mod
from .groupoid import make_groupoid, validate_groupoid
from .twist import ExplicitTwist


class UltraGroupoid:
    """The groupoid of ultrafilter points with its unit-group action."""

    def __init__(self, pair):
        self.pair = pair
        A = pair.algebra
        R = A.ring
        self.units = sorted(finring.ring_units(R))
        self.points = list(pair.enumerate_normalisers("minimal"))
        _, self.atoms = pair.idempotents_of_B()
        point_set = set(self.points)
        self.source = {}
        self.range = {}
        self.dagger = {}
        for m in self.points:
            k = pair.dagger_of(m)
            self.dagger[m] = k
            self.source[m] = A.mul(k, m)
            self.range[m] = A.mul(m, k)
            if self.source[m] not in self.atoms or self.range[m] not in self.atoms:
                raise AssertionError("point with non-atomic source or range")
            if k not in point_set:
                raise AssertionError("points not closed under dagger")
        # scalar action and its orbits
        self.orbit_of = {}
        for m in self.points:
            orbit = {A.scale(t, m) for t in self.units}
            if not orbit <= point_set:
                raise AssertionError("points not closed under the scalar action")
            if len(orbit) != len(self.units):
                raise AssertionError("scalar action is not free")
            self.orbit_of[m] = orbit
        # canonical class representatives: the atom itself for unit classes,
        # the lexicographically least member otherwise
        self.class_rep = {}
        for m in self.points:
            orbit = self.orbit_of[m]
            rep = None
            for e in self.atoms:
                if e in orbit:
                    rep = e
                    break
            if rep is None:
                rep = min(orbit)
            for p in orbit:
                self.class_rep[p] = rep
        self.classes = sorted(set(self.class_rep.values()))
        self._twist = None

    def compose(self, m, n):
        """Defined when source(m) = range(n); the algebra product."""
        if self.source[m] != self.range[n]:
            raise ValueError("points not composable")
        out = self.pair.algebra.mul(m, n)
        if out not in self.orbit_of:
            raise AssertionError("composition left the point set")
        return out

    def to_twist(self):
        """Assemble the total/base groupoids and the extension maps."""
        if self._twist is not None:
            return self._twist
        A = self.pair.algebra
        total_compose = {}
        for m in self.points:
            for n in self.points:
                if self.source[m] == self.range[n]:
                    total_compose[(m, n)] = A.mul(m, n)
        total = make_groupoid("ultra_total", self.atoms, self.points,
                              self.source, self.range, total_compose)
        base_src = {}
        base_rng = {}
        for g in self.classes:
            base_src[g] = self.source[g]
            base_rng[g] = self.range[g]
        base_compose = {}
        for g in self.classes:
            for h in self.classes:
                if base_src[g] == base_rng[h]:
                    base_compose[(g, h)] = self.class_rep[A.mul(g, h)]
        base = make_groupoid("ultra_base", self.atoms, self.classes,
                             base_src, base_rng, base_compose)
        inj = {(e, t): A.scale(t, e) for e in self.atoms for t in self.units}
        proj = {m: self.class_rep[m] for m in self.points}
        self._twist = ExplicitTwist(A.ring, total, base, inj, proj)
        return self._twist

    def rebuilt_cocycle(self):
        """The cocycle read off the section sending each class to its
        representative point."""
        T = self.to_twist()
        zeta = dict()
        for g in T.base.arrows:
            zeta[g] = g  # class representatives are themselves points
        for x in T.base.objects:
            zeta[T.base.unit_at[x]] = T.total.unit_at[x]
        return twist_mod.cocycle_from_section(T, zeta)


def build_ultra_groupoid(pair):
    wt, _ = pair.satisfies_wt()
    if not wt:
        raise ValueError("pair does not satisfy the nondegeneracy condition")
    if not pair.has_local_units():
        raise ValueError("pair lacks local units")
    ug = UltraGroupoid(pair)
    T = ug.to_twist()
    bad = twist_mod.check_twist_axioms(T)
    if bad:
        raise AssertionError("rebuilt extension fails its axioms: " + bad[0])
    return ug


def phi_map(pair):
    """The embedding of the twist points of a pair_from_twist pair into the
    ultrafilter points.

    The twist point (γ, t) maps to the minimal normaliser t·δ_γ.  Returns
    (mapping, ultra, report) with injectivity, equivariance, homomorphism
    and surjectivity verdicts.
    """
    ug = build_ultra_groupoid(pair)
    A = pair.algebra
    T = pair.explicit_twist()
    mapping = {}
    for (g, t) in T.total.arrows:
        mapping[(g, t)] = A.scale(t, A.basis_vector(pair.arrow_index[g]))
    point_set = set(ug.points)
    report = {}
    report["well_defined"] = all(v in point_set for v in mapping.values())
    report["injective"] = len(set(mapping.values())) == len(mapping)
    hom = True
    for (a, b), ab in T.total.compose.items():
        if ug.compose(mapping[a], mapping[b]) != mapping[ab]:
            hom = False
            break
    report["homomorphism"] = hom
    equivariant = True
    for s in T.total.arrows:
        for t in ug.units:
            if mapping[T.act(t, s)] != A.scale(t, mapping[s]):
                equivariant = False
                break
    report["equivariant"] = equivariant
    # units of the original twist must land bijectively on unit points
    unit_points = {ug.to_twist().total.unit_at[e] for e in ug.atoms}
    image_of_units = {mapping[T.total.unit_at[x]] for x in T.total.objects}
    report["unit_bijective"] = image_of_units == unit_points
    report["surjective"] = set(mapping.values()) == point_set
    return mapping, ug, report


def verify_reconstruction_theorem(pair):
    """The three-way equivalence for a pair_from_twist pair: quasi-Cartan
    classification of the pair, the local bisection hypothesis of its
    twist, and surjectivity of the embedding."""
    classification = pair.classify()
    lbh, witness = pairs_mod.check_lbh(pair)
    mapping, ug, phi_report = phi_map(pair)
    report = {
        "aqp": classification["AQP"],
        "lbh": lbh,
        "phi_surjective": phi_report["surjective"],
        "phi_injective": phi_report["injective"],
        "sigma_points": len(mapping),
        "sigma_prime_points": len(ug.points),
        "g_prime_arrows": len(ug.classes),
        "classification": classification,
        "phi": phi_report,
        "lbh_witness": witness,
    }
    flags = {report["aqp"], report["lbh"], report["phi_surjective"]}
    report["consistent"] = len(flags) == 1
    if not (phi_report["injective"] and phi_report["well_defined"]
            and phi_report["homomorphism"] and phi_report["equivariant"]
            and phi_report["unit_bijective"]):
        raise AssertionError("embedding properties failed")
    if report["phi_surjective"]:
        # the induced base map must be a bijection making the squares commute
        base_map = {}
        for (g, t), m in mapping.items():
            cls = ug.class_rep[m]
            if g in base_map and base_map[g] != cls:
                raise AssertionError("base map not well defined on classes")
            base_map[g] = cls
        if len(set(base_map.values())) != len(ug.classes):
            raise AssertionError("base map is not a bijection")
        rebuilt = ug.to_twist()
        for (a, b), ab in pair.cocycle.groupoid.compose.items():
            if rebuilt.base.compose[(base_map[a], base_map[b])] != base_map[ab]:
                raise AssertionError("base map is not multiplicative")
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
    rebuilt = ug.rebuilt_cocycle()
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
    report["diagonal_to_diagonal"] = all(diag.contains(images[b]) for b in pair.B)
    image_of_B = {images[b] for b in pair.B}
    diag_size = R.size ** len(rebuilt.groupoid.objects)
    report["diagonal_onto"] = len(image_of_B) == len(pair.B) == diag_size
    return ahat, report


# -- twist comparison ------------------------------------------------


def _groupoid_isos(G1, G2):
    """All isomorphisms G1 → G2 as (object bijection, arrow bijection)."""
    if len(G1.objects) != len(G2.objects) or len(G1.arrows) != len(G2.arrows):
        return
    for perm in itertools.permutations(G2.objects):
        obj_map = dict(zip(G1.objects, perm))
        # quick prune: hom-set sizes must match
        ok = True
        for x in G1.objects:
            for y in G1.objects:
                n1 = sum(1 for a in G1.arrows
                         if G1.src[a] == x and G1.rng[a] == y)
                n2 = sum(1 for a in G2.arrows
                         if G2.src[a] == obj_map[x] and G2.rng[a] == obj_map[y])
                if n1 != n2:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        yield from _extend_arrow_map(G1, G2, obj_map, {}, list(G1.arrows))


def _extend_arrow_map(G1, G2, obj_map, arrow_map, remaining):
    if not remaining:
        # full multiplicativity check
        for (a, b), ab in G1.compose.items():
            if G2.compose.get((arrow_map[a], arrow_map[b])) != arrow_map[ab]:
                return
        yield obj_map, dict(arrow_map)
        return
    a = remaining[0]
    used = set(arrow_map.values())
    for cand in G2.arrows:
        if cand in used:
            continue
        if G2.src[cand] != obj_map[G1.src[a]] or G2.rng[cand] != obj_map[G1.rng[a]]:
            continue
        if G1.is_unit(a) != G2.is_unit(cand):
            continue
        arrow_map[a] = cand
        consistent = True
        for b in arrow_map:
            if b == a:
                continue
            for (x, y) in ((a, b), (b, a)):
                if G1.src[x] == G1.rng[y]:
                    img = arrow_map.get(G1.compose[(x, y)])
                    if img is not None and \
                            G2.compose[(arrow_map[x], arrow_map[y])] != img:
                        consistent = False
                        break
            if not consistent:
                break
        if consistent:
            yield from _extend_arrow_map(G1, G2, obj_map, arrow_map, remaining[1:])
        del arrow_map[a]


def _scalar_adjustment(c1, c2, obj_map, arrow_map):
    """Search for u: arrows → units with u(unit) = 1 and
    u(αβ)·c1(α,β) = c2(ψα,ψβ)·u(α)·u(β); None when no assignment works."""
    R = c1.ring
    G1 = c1.groupoid
    units = sorted(finring.ring_units(R))
    u = {g: R.one for g in G1.units}
    order = [g for g in G1.arrows if g not in G1.units]

    def consistent():
        for (a, b), ab in G1.compose.items():
            if a in u and b in u and ab in u:
                lhs = R.mul(u[ab], c1.value(a, b))
                rhs = R.mul(c2.value(arrow_map[a], arrow_map[b]),
                            R.mul(u[a], u[b]))
                if lhs != rhs:
                    return False
        return True

    def propagate():
        """Fill forced values; returns False on contradiction."""
        changed = True
        while changed:
            changed = False
            for (a, b), ab in G1.compose.items():
                known = (a in u) + (b in u) + (ab in u)
                if known != 2:
                    continue
                c2v = c2.value(arrow_map[a], arrow_map[b])
                if ab not in u:
                    val = R.mul(R.mul(c2v, R.mul(u[a], u[b])),
                                R.unit_inverse(c1.value(a, b)))
                    u[ab] = val
                    changed = True
                elif a not in u:
                    val = R.mul(R.mul(u[ab], c1.value(a, b)),
                                R.unit_inverse(R.mul(c2v, u[b])))
                    u[a] = val
                    changed = True
                else:
                    val = R.mul(R.mul(u[ab], c1.value(a, b)),
                                R.unit_inverse(R.mul(c2v, u[a])))
                    u[b] = val
                    changed = True
        return consistent()

    def search():
        if not propagate():
            return None
        missing = [g for g in order if g not in u]
        if not missing:
            return dict(u)
        g = missing[0]
        snapshot = dict(u)
        for t in units:
            u.clear()
            u.update(snapshot)
            u[g] = t
            result = search()
            if result is not None:
                return result
        u.clear()
        u.update(snapshot)
        return None

    return search()


def compare_twists(c1, c2):
    """Decide isomorphism of two cocycle-presented twists.

    Returns (obj_map, arrow_map, u) where the twist map is
    (γ, t) ↦ (ψ_G(γ), u(γ)·t), or None after an exhaustive search.
    """
    if c1.ring.size != c2.ring.size or \
            finring.ring_units(c1.ring) != finring.ring_units(c2.ring):
        return None
    for obj_map, arrow_map in _groupoid_isos(c1.groupoid, c2.groupoid):
        u = _scalar_adjustment(c1, c2, obj_map, arrow_map)
        if u is not None:
            return obj_map, arrow_map, u
    return None


def algebra_iso_from_twist_iso(c1, c2, iso):
    """The diagonal-preserving convolution-algebra isomorphism induced by a
    twist isomorphism; verified multiplicative, bijective and diagonal-
    preserving on the basis.  Returns (map, report)."""
    obj_map, arrow_map, u = iso
    R = c1.ring

    def psi(f):
        return steinberg.AlgebraElement(
            c2, {arrow_map[g]: R.mul(u.get(g, R.one), v)
                 for g, v in f.coeffs.items()})

    report = {}
    basis = [steinberg.point_mass(c1, g) for g in c1.groupoid.arrows]
    mult = all(psi(steinberg.convolve(x, y)) == steinberg.convolve(psi(x), psi(y))
               for x in basis for y in basis)
    report["multiplicative"] = mult
    report["bijective_on_basis"] = len({tuple(sorted(psi(x).coeffs.items(),
                                                     key=str)) for x in basis}) == len(basis)
    units1 = set(c1.groupoid.units)
    report["diagonal_preserving"] = all(
        psi(steinberg.point_mass(c1, g)).support() <= set(c2.groupoid.units)
        for g in units1)
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
