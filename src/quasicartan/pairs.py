"""Algebras with a distinguished commutative subalgebra: normalisers, the
dagger, the induced partial order, conditional expectations, and the
diagonal/Cartan/quasi-Cartan classifier.

Works uniformly for convolution algebras of twists (via their arrow basis)
and for hand-given structure-constant algebras.  Elements are coefficient
tuples over the basis, with ring elements as table indices.
"""

from __future__ import annotations

import functools
import itertools

from . import finring, steinberg, twist as twist_mod
from .finring import CapExceeded, DEFAULT_CAP, InputError
from .groupoid import isotropy_fibre_group


class AbstractAlgebra:
    """A finite-dimensional associative algebra by structure constants.

    structure maps a basis index pair (i, j) to a sparse {k: coeff} dict
    describing b_i·b_j.  It is compiled once into rows: rows[i] lists the
    (j, k, s) with s ≠ 0 the coefficient of b_k in b_i·b_j, so a product
    walks only the nonzero structure constants.
    """

    def __init__(self, name, ring, basis, structure):
        self.name = name
        self.ring = ring
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.rows = [tuple((j, k, s) for j in range(self.dim)
                           for k, s in structure.get((i, j), {}).items()
                           if s != ring.zero)
                     for i in range(self.dim)]
        self.basis_vectors = [
            tuple(ring.one if j == i else ring.zero for j in range(self.dim))
            for i in range(self.dim)]
        self._check_associative()

    def _check_associative(self):
        e = self.basis_vectors
        products = [[self.mul(x, y) for y in e] for x in e]
        for i, j, k in itertools.product(range(self.dim), repeat=3):
            if self.mul(products[i][j], e[k]) != self.mul(e[i], products[j][k]):
                raise ValueError(f"structure constants not associative at ({i},{j},{k})")

    def zero(self):
        return tuple([self.ring.zero] * self.dim)

    def basis_vector(self, i, coeff=None):
        if coeff is None:
            return self.basis_vectors[i]
        vec = [self.ring.zero] * self.dim
        vec[i] = coeff
        return tuple(vec)

    def add(self, x, y):
        add = self.ring.add_table
        return tuple([add[a][b] for a, b in zip(x, y)])

    def sub(self, x, y):
        R = self.ring
        return tuple(R.sub(a, b) for a, b in zip(x, y))

    def scale(self, t, x):
        mul_t = self.ring.mul_table[t]
        return tuple([mul_t[a] for a in x])

    def mul(self, x, y):
        """x·y = Σ x_i·y_j·s·b_k over the entries (j, k, s) of rows[i]."""
        zero, add, mul = self.ring.zero, self.ring.add_table, self.ring.mul_table
        out = [zero] * self.dim
        for xi, row in zip(x, self.rows):
            if xi != zero:
                mul_x = mul[xi]
                for j, k, s in row:
                    yj = y[j]
                    if yj != zero:
                        out[k] = add[out[k]][mul[s][mul_x[yj]]]
        return tuple(out)

    def size(self):
        return self.ring.size ** self.dim

    def all_elements(self, cap=DEFAULT_CAP):
        size = self.size()
        if size > cap:
            raise CapExceeded(size, cap)
        if getattr(self, "_all_elements", None) is None:
            self._all_elements = [tuple(v) for v in itertools.product(
                self.ring.all_indices(), repeat=self.dim)]
        return self._all_elements

    def span(self, vectors):
        """The R-submodule generated by vectors: the sum of the cyclic
        submodules R·v, each added in one pass over the span so far."""
        out = {self.zero()}
        for v in vectors:
            v = tuple(v)
            if v in out:
                continue
            multiples = {self.scale(t, v) for t in self.ring.all_indices()}
            out = {self.add(s, m) for s in out for m in multiples}
        return out

    def __repr__(self):
        return f"AbstractAlgebra({self.name}, dim {self.dim} over {self.ring.name})"


class Pair:
    """An algebra together with a spanning set for its abelian subalgebra."""

    def __init__(self, algebra, sub_basis, name=None, cap=DEFAULT_CAP):
        self.algebra = algebra
        self.sub_basis = [tuple(v) for v in sub_basis]
        self.name = name or algebra.name
        self.cap = cap
        A = algebra
        self.B = A.span(self.sub_basis)
        # the product is bilinear, so the spanning set decides both
        for b in self.sub_basis:
            for b2 in self.sub_basis:
                product = A.mul(b, b2)
                if product != A.mul(b2, b):
                    raise ValueError("subalgebra is not commutative")
                if product not in self.B:
                    raise ValueError("sub_basis span is not closed under multiplication")
        self._dagger_cache = {}
        self._membership = None
        self._normalisers = {}  # (mode, oracle) -> sorted list
        self._idempotents = None
        self._atoms = None
        self._expectation = None
        self._classification = None
        self._twist = None
        # the ultrafilter groupoid, set by reconstruct.build_ultra_groupoid
        self.ultra_groupoid = None

    # -- idempotents --------------------------------------------------

    def idempotents_of_B(self):
        """I(B) and the atoms (minimal nonzero idempotents)."""
        if self._idempotents is None:
            A = self.algebra
            idem = sorted(e for e in self.B if A.mul(e, e) == e)
            atoms = []
            for e in idem:
                if e == A.zero():
                    continue
                minimal = True
                for f in idem:
                    if f == A.zero() or f == e:
                        continue
                    if A.mul(e, f) == f:  # f <= e in the idempotent order
                        minimal = False
                        break
                if minimal:
                    atoms.append(e)
            self._idempotents = idem
            self._atoms = atoms
        return self._idempotents, self._atoms

    def satisfies_wt(self):
        """(WT): te = 0 with e a nonzero idempotent of B forces t = 0.

        Returns (flag, warning).  With I(B) = {0} the condition is
        vacuously true and flagged with a warning.
        """
        A, R = self.algebra, self.algebra.ring
        idem, _ = self.idempotents_of_B()
        nonzero = [e for e in idem if e != A.zero()]
        if not nonzero:
            return True, "I(B) = {0}: (WT) holds vacuously"
        for e in nonzero:
            for t in R.all_indices():
                if t != R.zero and A.scale(t, e) == A.zero():
                    return False, None
        return True, None

    # -- normalisers and the dagger -----------------------------------

    def in_B(self, x):
        return tuple(x) in self.B

    def _b_coordinate_support(self):
        """If B is a coordinate subspace of the basis, return its support."""
        support = set()
        for b in self.sub_basis:
            support |= {i for i, v in enumerate(b) if v != self.algebra.ring.zero}
        if len(self.B) == self.algebra.ring.size ** len(support):
            return support
        return None

    def dagger_of(self, n, oracle=False):
        """The generalized inverse of n, or None when n is not a normaliser.

        k is a dagger of n when n·k·n = n, k·n·k = k, and k·b·n and n·b·k
        lie in B for every b in B.  Both maps b ↦ k·b·n and b ↦ n·b·k are
        R-linear and B = span(sub_basis) is an R-submodule, so the last
        two conditions hold for all of B exactly when they hold on
        sub_basis.  The fast path solves the linear system n·k·n = n for
        k (with linear membership rows when B is a coordinate subspace)
        and checks each solution once against the definition over
        sub_basis.  oracle=True instead tests every k of A against the
        definition over every b of B.

        When some idempotent u of B is an identity of A the dagger is
        unique, so two winners are a theorem failure (AssertionError).
        For daggers k₁, k₂ of n, each k_i·n = k_i·u·n and n·k_i = n·u·k_i
        lies in B, which is commutative, so
        k₁ = k₁nk₁ = k₁(nk₂n)k₁ = (k₁n)(k₂n)k₁ = (k₂n)(k₁n)k₁ = k₂nk₁
           = k₂(nk₂n)k₁ = k₂(nk₂)(nk₁) = k₂(nk₁)(nk₂) = k₂nk₂ = k₂.
        Without local units the dagger need not be unique (e22 in M_2 with
        B = span(e11) has 9 over GF(3)); the pair lies outside the
        hypotheses and two winners raise InputError.
        """
        n = tuple(n)
        key = (n, oracle)
        if key in self._dagger_cache:
            return self._dagger_cache[key]
        A = self.algebra
        if A.size() > self.cap:
            raise CapExceeded(A.size(), self.cap)
        if oracle:
            winners = [k for k in A.all_elements(cap=self.cap)
                       if self._is_dagger(n, k, self.B)]
        else:
            # 0† = 0: k·0·k = k forces k = 0, and the system for n = 0
            # would list all of A
            candidates = ([n] if n == A.zero()
                          else self._solve_dagger_system(n))
            winners = [k for k in candidates
                       if self._is_dagger(n, k, self.sub_basis)]
        if len(winners) > 1:
            message = f"dagger not unique for {n}: found {len(winners)} candidates"
            if not self.has_local_units():
                raise InputError(f"{message}; no idempotent of B is an identity "
                                 "of A, so the pair has no local units")
            raise AssertionError(message)
        result = winners[0] if winners else None
        self._dagger_cache[key] = result
        return result

    def _solve_dagger_system(self, n):
        """All k with n·k·n = n, and with (k·b·n)_i = 0 = (n·b·k)_i off B's
        support when B is a coordinate subspace: one linear system in the
        coordinates of k, built from the columns n·e_j·n."""
        A = self.algebra
        basis = A.basis_vectors
        columns = [A.mul(A.mul(n, e), n) for e in basis]
        equations = [([col[i] for col in columns], n[i]) for i in range(A.dim)]
        off, factors = self._membership_factors()
        zero = A.zero()
        for b, basis_times_b in factors:
            left = [zero if eb == zero else A.mul(eb, n) for eb in basis_times_b]
            nb = A.mul(n, b)
            right = [zero] * A.dim if nb == zero else [A.mul(nb, e) for e in basis]
            for i in off:
                equations.append(([v[i] for v in left], A.ring.zero))
                equations.append(([v[i] for v in right], A.ring.zero))
        return finring.solve_linear(A.ring, equations, A.dim, cap=self.cap)

    def _membership_factors(self):
        """(coordinates off B's support, [(b, [e_j·b for each j])] over the
        spanning b), or ((), []) when B is not a coordinate subspace."""
        if self._membership is None:
            A = self.algebra
            support = self._b_coordinate_support()
            if support is None:
                self._membership = (), []
            else:
                off = [i for i in range(A.dim) if i not in support]
                self._membership = off, [
                    (b, [A.mul(e, b) for e in A.basis_vectors])
                    for b in self.sub_basis]
        return self._membership

    def _is_dagger(self, n, k, over):
        """n·k·n = n, k·n·k = k, and k·b·n, n·b·k in B for every b in over."""
        A = self.algebra
        if A.mul(A.mul(k, n), k) != k or A.mul(A.mul(n, k), n) != n:
            return False
        return all(self.in_B(A.mul(A.mul(k, b), n)) and
                   self.in_B(A.mul(A.mul(n, b), k)) for b in over)

    def is_normaliser(self, n, oracle=False):
        return self.dagger_of(n, oracle=oracle) is not None

    def enumerate_normalisers(self, mode="full", oracle=False):
        """full: every normaliser of B; minimal: the nonzero normalisers n
        whose source idempotent n†n is an atom.  Both sorted.

        Let n be a normaliser and e an atom of B.  Then n·e is a normaliser
        with dagger e·n†: n†n lies in the commutative B, so
        (ne)(en†)(ne) = n·n†n·e = ne and (en†)(ne)(en†) = e·n†n·n† = en†,
        while en†·b·ne = e(n†bn)e and ne·b·en† = n(ebe)n† lie in B.  Its
        source e·n†n is an idempotent below the atom e, so it is e or 0,
        and ne = ne·(ne)†·ne = 0 in the second case.  When it is e, the
        range f = n·e·n† is an atom too: a nonzero idempotent f' ≤ f gives
        the nonzero idempotent n†f'n ≤ e, so n†f'n = e and f' = nen† = f.
        Then ne = f·ne·e lies in the corner f·A·e, which is the span of the
        f·b_i·e.  Conversely a nonzero normaliser m of a corner f·A·e has
        m†m ≤ e, so its source is the atom e.  Hence minimal is the set of
        nonzero normalisers in the corners, each taken as a span.

        Suppose an idempotent u of B is a two-sided identity of A
        (has_local_units).  Then u is the sum of the atoms: r = u − Σ_e e is
        an idempotent orthogonal to every atom, and if r were nonzero some
        atom e ≤ r would give e = e·r = 0.  Every n†n = n†un lies in B, and n = n·u = Σ_e n·e.
        So every normaliser lies in Σ_e ({0} ∪ S_e), S_e the minimal
        normalisers with source e, and full checks these sums with
        is_normaliser.  Without such a u, full scans every element of A.

        oracle=True scans all of A (full) or every f·x·e over all of A
        (minimal), testing each with the oracle dagger.
        """
        key = (mode, oracle)
        if key not in self._normalisers:
            A = self.algebra
            if A.size() > self.cap:
                raise CapExceeded(A.size(), self.cap)
            if mode == "full":
                found = self._full_normalisers(oracle)
            elif mode == "minimal":
                found = self._minimal_normalisers(oracle)
            else:
                raise ValueError(f"unknown mode {mode!r}")
            self._normalisers[key] = found
        return self._normalisers[key]

    def _minimal_normalisers(self, oracle):
        A = self.algebra
        _, atoms = self.idempotents_of_B()
        found = set()
        for e in atoms:
            for f in atoms:
                if oracle:
                    corner = {A.mul(A.mul(f, x), e)
                              for x in A.all_elements(cap=self.cap)}
                else:
                    corner = A.span([A.mul(A.mul(f, b), e)
                                     for b in A.basis_vectors])
                for n in corner:
                    if n == A.zero() or n in found:
                        continue
                    k = self.dagger_of(n, oracle=oracle)
                    if k is not None and A.mul(k, n) in atoms:
                        found.add(n)
        return sorted(found)

    def _full_normalisers(self, oracle):
        A = self.algebra
        _, atoms = self.idempotents_of_B()
        if oracle or not self.has_local_units():
            return [n for n in A.all_elements(cap=self.cap)
                    if self.is_normaliser(n, oracle=oracle)]
        by_source = {e: [A.zero()] for e in atoms}
        for m in self.enumerate_normalisers("minimal"):
            by_source[A.mul(self.dagger_of(m), m)].append(m)
        sums = {functools.reduce(A.add, parts, A.zero())
                for parts in itertools.product(*by_source.values())}
        return [n for n in sorted(sums) if self.is_normaliser(n)]

    # -- order and free normalisers -----------------------------------

    def leq(self, m, n):
        """m ≤ n iff m = m·m†·n."""
        A = self.algebra
        md = self.dagger_of(m)
        if md is None or self.dagger_of(n) is None:
            raise ValueError("both arguments must be normalisers")
        return m == A.mul(A.mul(m, md), n)

    def is_free_normaliser(self, n):
        """n lies in B, or its two range/source idempotents are orthogonal."""
        A = self.algebra
        k = self.dagger_of(n)
        if k is None:
            raise ValueError("not a normaliser")
        if self.in_B(n):
            return True
        orthogonal = A.mul(A.mul(k, n), A.mul(n, k)) == A.zero()
        squared_zero = A.mul(n, n) == A.zero()
        if orthogonal != squared_zero:
            raise AssertionError("orthogonality and n² = 0 disagree")
        return orthogonal

    # -- conditional expectations -------------------------------------

    def canonical_expectation(self):
        """The candidate expectation P(n) = n·e(n) on basis normalisers.

        e(n) is the join of the atoms a ≤ n†n with n·a in B.  P is then
        extended linearly over the basis coordinates.  Returns a report
        dict; 'map' is None when some basis vector is not a normaliser or
        the result fails the expectation axioms.
        """
        if self._expectation is not None:
            return self._expectation
        A, R = self.algebra, self.algebra.ring
        idem, atoms = self.idempotents_of_B()
        images = []
        for i, n in enumerate(A.basis_vectors):
            k = self.dagger_of(n)
            if k is None:
                self._expectation = {
                    "map": None, "reason": f"basis vector {i} is not a normaliser"}
                return self._expectation
            source = A.mul(k, n)
            e = A.zero()
            for a in atoms:
                if A.mul(a, source) == a and self.in_B(A.mul(n, a)):
                    e = A.add(e, a)
            images.append(A.mul(n, e))

        def P(x):
            out = A.zero()
            for i, xi in enumerate(x):
                if xi != R.zero:
                    out = A.add(out, A.scale(xi, images[i]))
            return out

        report = self.check_expectation(P)
        report["map"] = P if report["is_expectation"] else None
        self._expectation = report
        return report

    def check_expectation(self, P):
        """Evaluate the expectation axioms, faithfulness, and whether P is
        implemented by idempotents on every normaliser."""
        A, R = self.algebra, self.algebra.ring
        report = {}
        ok = True
        # lands in B, fixes B
        for b in self.B:
            if P(b) != b:
                ok = False
                break
        if ok:
            for a in A.basis_vectors:
                if not self.in_B(P(a)):
                    ok = False
                    break
        # bimodularity on spanning sets (enough by linearity)
        if ok:
            for b in self.sub_basis:
                for b2 in self.sub_basis:
                    for a in A.basis_vectors:
                        if P(A.mul(A.mul(b, a), b2)) != A.mul(A.mul(b, P(a)), b2):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
        report["is_expectation"] = ok
        if not ok:
            report["faithful"] = False
            report["implemented_by_idempotents"] = False
            return report
        normalisers = self.enumerate_normalisers("full")
        report["faithful"] = self._faithfulness_kernel(P) == [A.zero()]
        idem, _ = self.idempotents_of_B()
        implemented = True
        for n in normalisers:
            pn = P(n)
            if not any(A.mul(n, e) == pn and A.mul(e, n) == pn for e in idem):
                implemented = False
                break
        report["implemented_by_idempotents"] = implemented
        return report

    def _faithfulness_kernel(self, P):
        """The a with P(n·a) = 0 for every normaliser n, for a linear P."""
        A = self.algebra
        return self._common_kernel(
            [P(A.mul(n, b)) for b in A.basis_vectors]
            for n in self.enumerate_normalisers("full"))

    def _commutant(self):
        """The a with a·b = b·a for every spanning b of B."""
        A = self.algebra
        return self._common_kernel(
            [A.sub(A.mul(x, b), A.mul(b, x)) for x in A.basis_vectors]
            for b in self.sub_basis)

    def _common_kernel(self, maps):
        """The common kernel of linear maps on A, each given by its images
        of the basis vectors: one homogeneous system in the coordinates,
        solved with solve_linear."""
        A = self.algebra
        rows = {tuple(image[i] for image in images)
                for images in maps for i in range(A.dim)}
        return finring.solve_linear(
            A.ring, [(row, A.ring.zero) for row in sorted(rows)], A.dim,
            cap=self.cap)

    # -- classification -----------------------------------------------

    def has_local_units(self):
        """Some idempotent of B is a two-sided identity for the whole basis."""
        A = self.algebra
        idem, _ = self.idempotents_of_B()
        for e in idem:
            if all(A.mul(e, b) == b and A.mul(b, e) == b
                   for b in A.basis_vectors):
                return True
        return False

    def classify(self):
        """The full flag report with the implication chain asserted."""
        if self._classification is not None:
            return self._classification
        A = self.algebra
        report = {}
        wt, warning = self.satisfies_wt()
        report["WT"] = wt
        if warning:
            report["warnings"] = [warning]
        report["local_units"] = self.has_local_units()
        idem, _ = self.idempotents_of_B()
        report["B_spanned_by_idempotents"] = A.span(idem) == self.B
        normalisers = self.enumerate_normalisers("full")
        report["A_spanned_by_normalisers"] = \
            len(A.span(normalisers)) == A.size()
        base = (report["WT"] and report["local_units"] and
                report["B_spanned_by_idempotents"] and
                report["A_spanned_by_normalisers"])
        ce = self.canonical_expectation()
        report["faithful_CE_exists"] = bool(
            ce.get("is_expectation") and ce.get("faithful"))
        base = base and report["faithful_CE_exists"]
        # quasi-Cartan: the expectation is additionally implemented by idempotents
        report["AQP"] = base and bool(ce.get("implemented_by_idempotents"))
        # Cartan: B is a maximal commutative subalgebra (commutant of B = B)
        report["ACP"] = base and set(self._commutant()) == self.B
        # diagonal: the free normalisers span A
        free = [n for n in normalisers if self.is_free_normaliser(n)]
        report["ADP"] = base and len(A.span(free)) == A.size()
        if report["ADP"] and not report["ACP"]:
            raise AssertionError("implication ADP => ACP violated")
        if report["ACP"] and not report["AQP"]:
            raise AssertionError("implication ACP => AQP violated")
        self._classification = report
        return report

    def explicit_twist(self):
        """The explicit twist of the pair's cocycle, built on first use."""
        if self._twist is None:
            self._twist = twist_mod.twist_from_cocycle(self.cocycle)
        return self._twist


def pair_from_twist(cocycle, cap=DEFAULT_CAP):
    """The convolution algebra of a twist with its diagonal subalgebra,
    presented on the arrow basis."""
    G = cocycle.groupoid
    R = cocycle.ring
    arrows = list(G.arrows)
    index = {g: i for i, g in enumerate(arrows)}
    structure = {}
    for (a, b), ab in G.compose.items():
        structure[(index[a], index[b])] = {index[ab]: cocycle.value(a, b)}
    A = AbstractAlgebra(f"conv({G.name};{R.name})", R, arrows, structure)
    sub_basis = [A.basis_vectors[index[G.unit_at[x]]] for x in G.objects]
    pair = Pair(A, sub_basis, cap=cap)
    pair.cocycle = cocycle
    pair.arrow_index = index
    return pair


def element_to_vector(pair, f):
    """Convert a convolution-algebra element to the pair's tuple form."""
    A = pair.algebra
    vec = [A.ring.zero] * A.dim
    for g, v in f.coeffs.items():
        vec[pair.arrow_index[g]] = v
    return tuple(vec)


def vector_to_element(pair, vec):
    return steinberg.AlgebraElement(
        pair.cocycle, {g: vec[i] for g, i in pair.arrow_index.items()})


def check_lbh(pair):
    """The local bisection hypothesis for the twist of a pair_from_twist pair.

    Primary path: for each object x, the twisted group ring R(H, c|) of
    the isotropy group H at x, with c| the pair's cocycle restricted to H,
    must have trivial units only.  That ring is the corner δ_x·A·δ_x in
    the same coordinates, so a nontrivial unit u is a normaliser of the
    pair (its dagger is its inverse in the corner, and δ_x·b·δ_x = b(x)·δ_x
    for b in B) whose base support is not a bisection: the witness.  When
    |A| <= 256 the result is checked against the definition over the
    pair's full normaliser enumeration.
    """
    # grouprings subclasses AbstractAlgebra, so it is imported here, not
    # at the top of this module
    from .grouprings import TwistedGroupRing, enumerate_units

    cocycle, A = pair.cocycle, pair.algebra
    R, G = A.ring, cocycle.groupoid
    holds, witness = True, None
    for x in G.objects:
        H = isotropy_fibre_group(G, x)
        ring_T = TwistedGroupRing(R, H, {p: cocycle.values[p] for p in H.mul})
        _, _, nontrivial = enumerate_units(ring_T, cap=pair.cap)
        if nontrivial:
            u = nontrivial[0]
            coeffs = {g: u[i] for i, g in enumerate(H.elements)
                      if u[i] != R.zero}
            witness = steinberg.AlgebraElement(cocycle, coeffs)
            holds = False
            break
    if A.size() <= 256:
        by_definition = all(
            steinberg.is_bisection(G, [A.basis[i] for i, v in enumerate(n)
                                       if v != R.zero])
            for n in pair.enumerate_normalisers("full"))
        if by_definition != holds:
            raise AssertionError("fibre-unit test disagrees with the definition")
    if witness is not None:
        if steinberg.is_bisection(G, witness.support()):
            raise AssertionError("witness support is unexpectedly a bisection")
        if not pair.is_normaliser(element_to_vector(pair, witness)):
            raise AssertionError("witness is not a normaliser")
    return holds, witness
