"""Algebras with a distinguished commutative subalgebra: normalisers, the
dagger, the induced partial order, conditional expectations, and the
diagonal/Cartan/quasi-Cartan classifier.

Works uniformly for convolution algebras of twists (ConvolutionAlgebra, on
the arrow basis) and for hand-given structure-constant algebras.  Elements
are coefficient tuples over the basis, with ring elements as table indices.
"""

from __future__ import annotations

import functools
import itertools

from . import finring, steinberg, twist as twist_mod
from .finring import CapExceeded, DEFAULT_CAP, InputError
from .groupoid import isotropy_fibre_group, validate_groupoid


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


class InvalidTwist(ValueError):
    """A groupoid or cocycle given to ConvolutionAlgebra fails its axioms."""


class ConvolutionAlgebra(AbstractAlgebra):
    """The convolution algebra of a twist's cocycle c on a groupoid G: the
    arrow basis (index: arrow → basis index), b_a·b_b = c(a,b)·b_ab when a
    and b compose, else 0.  The one place a cocycle becomes structure
    constants.

    Associativity is checked on G and c, not on the dim³ basis triples.
    For arrows a, b, d: if a and b do not compose, neither do a and bd,
    which has the range of b, so both sides of (b_a·b_b)·b_d =
    b_a·(b_b·b_d) are 0; likewise if b and d do not.  A composable triple
    gives c(a,b)c(ab,d)·b_(ab)d on the left and c(b,d)c(a,bd)·b_a(bd) on
    the right.  With unit values these agree exactly when (ab)d = a(bd)
    (validate_groupoid) and the cocycle identity holds (check_cocycle).
    A fault in either check raises InvalidTwist.
    """

    def __init__(self, cocycle):
        G, R = cocycle.groupoid, cocycle.ring
        self.cocycle = cocycle
        # the rows are read only once the groupoid is known to be sound
        bad = validate_groupoid(G)
        if bad:
            raise InvalidTwist("groupoid invalid: " + bad[0])
        self.index = index = G.number
        super().__init__(
            f"conv({G.name};{R.name})", R, G.arrows,
            {(index[a], index[b]): {index[ab]: cocycle.value(a, b)}
             for a, b, ab in G.composable_pairs()})

    def _check_associative(self):
        bad = twist_mod.check_cocycle(self.cocycle)
        if bad:
            raise InvalidTwist("cocycle invalid: " + bad[0])


class Pair:
    """An algebra and a spanning set of its abelian subalgebra B, held as the
    reduced rows of sub_basis (finring.unit_pivot_rows), not as a list; B
    is free on its pivot rows when the rest spans {0} (over a field, say)."""

    def __init__(self, algebra, sub_basis, name=None, cap=DEFAULT_CAP):
        self.algebra = algebra
        self.sub_basis = [tuple(v) for v in sub_basis]
        self.name = name or algebra.name
        self.cap = cap
        A, R = algebra, algebra.ring
        pivots, rest = finring.unit_pivot_rows(R, self.sub_basis)
        # per column i off the pivots, the (c, −row_c[i]) of the pivot rows
        # with an entry there; a basis vector row has none
        self._off_terms = [
            (i, [(c, R.neg(row[i])) for c, row in pivots.items()
                 if row[i] != R.zero])
            for i in range(A.dim) if i not in pivots]
        off = [i for i, _ in self._off_terms]
        self._rest = {tuple(s[i] for i in off) for s in A.span(rest)} \
            if rest else {tuple(R.zero for _ in off)}
        self._b_size = R.size ** len(pivots) * len(self._rest)  # |B|
        if self._b_size > cap:
            raise CapExceeded(self._b_size, cap)
        # the product is bilinear, so the spanning set decides both
        for b in self.sub_basis:
            for b2 in self.sub_basis:
                product = A.mul(b, b2)
                if product != A.mul(b2, b):
                    raise ValueError("subalgebra is not commutative")
                if not self.in_B(product):
                    raise ValueError("sub_basis span is not closed under multiplication")
        self._dagger_cache = {}
        self._local_units = None
        self._membership = None
        self._normalisers = {}  # mode -> sorted list
        self._unit_classes = None
        self._class_elimination = None
        self._idempotents = None
        self._atoms = None
        self._expectation = None
        self._classification = None
        # the ultrafilter groupoid, set by reconstruct.build_ultra_groupoid
        self.ultra_groupoid = None

    # -- idempotents --------------------------------------------------

    def idempotents_of_B(self):
        """I(B) and the atoms (minimal nonzero idempotents)."""
        if self._idempotents is None:
            A = self.algebra
            idem = sorted(e for e in A.span(self.sub_basis) if A.mul(e, e) == e)
            nonzero = [e for e in idem if e != A.zero()]
            # f ≤ e in the idempotent order when e·f = f
            atoms = [e for e in nonzero
                     if not any(f != e and A.mul(e, f) == f for f in nonzero)]
            self._idempotents = idem
            self._atoms = atoms
        return self._idempotents, self._atoms

    def satisfies_wt(self):
        """(WT): te = 0 with e a nonzero idempotent of B forces t = 0.

        Returns (flag, warning).  With I(B) = {0} the condition is
        vacuously true and flagged with a warning.

        Over a ring R that is not local, WT and local units never hold
        together, so ADP, ACP and AQP are false.  R then has an idempotent
        ε ≠ 0, 1 (finring.local_factors).  Let e be a nonzero idempotent of
        B.  If ε·e = 0, t = ε kills e.  Otherwise ε·e is a nonzero
        idempotent of the R-module B, and t = 1 − ε kills it.  So WT fails
        whenever I(B) ≠ {0}.  If I(B) = {0}, no idempotent of B is an
        identity of A ≠ 0, so local units fail.
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
        """Whether x − Σ_c x_c·row_c over the pivot rows, 0 at each pivot
        column, lies in the span of the rest (finring.unit_pivot_rows)."""
        add, mul = self.algebra.ring.add_table, self.algebra.ring.mul_table
        remainder = []
        for i, terms in self._off_terms:
            value = x[i]
            for c, t in terms:
                value = add[value][mul[t][x[c]]]
            remainder.append(value)
        return tuple(remainder) in self._rest

    def _remainders(self, vectors):
        """The remainders of in_B of the x in vectors, as one row per column
        off the pivots; a remainder is linear in x."""
        add, mul = self.algebra.ring.add_table, self.algebra.ring.mul_table
        rows = []
        for i, terms in self._off_terms:
            row = [x[i] for x in vectors]
            for c, t in terms:
                mul_t = mul[t]
                row = [add[a][mul_t[x[c]]] for a, x in zip(row, vectors)]
            rows.append(row)
        return rows

    def dagger_of(self, n, oracle=False):
        """The generalized inverse of n, or None when n is not a normaliser.

        k is a dagger of n when n·k·n = n, k·n·k = k, and k·b·n and n·b·k
        lie in B for every b in B.  Both maps b ↦ k·b·n and b ↦ n·b·k are
        R-linear and B = span(sub_basis) is an R-submodule, so the last
        two conditions hold for all of B exactly when they hold on
        sub_basis.  The fast path solves the linear system n·k·n = n for
        k (with linear membership rows when B is free on its pivot rows)
        and checks each solution once against the definition over
        sub_basis.  oracle=True instead tests every k of A against the
        definition over every b of B, listed once per call.

        With local units and B free on its pivot rows one solution k0 of
        that system is enough: k = k0·n·k0 is the dagger, checked once
        over sub_basis.  Let u be an idempotent of B that is an identity
        of A.  Then n·k·n = n·k0·(n·k0·n) = n·k0·n = n, and
        k·n·k = k0·(n·k0·n)·k0·n·k0 = k0·n·k0·n·k0 = k0·(n·k0·n)·k0 = k.
        The membership rows put k0·b·n and n·b·k0 in B for every b in
        sub_basis, hence for every b in B, u included; so k0·n = k0·u·n and
        n·k0 lie in B.  Then k·b·n = (k0·n)(k0·b·n) and
        n·b·k = (n·b·k0)(n·k0) are products in the subalgebra B.  A dagger
        solves the system, so n is a normaliser iff the system is
        consistent.  This is the step from a {1}-inverse to a
        {1,2}-inverse (Ben-Israel and Greville, Generalized Inverses,
        ch. 1).

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
            B = A.span(self.sub_basis)
            winners = [k for k in A.all_elements(cap=self.cap)
                       if self._is_dagger(n, k, B)]
        elif n == A.zero():
            # 0† = 0: k·0·k = k forces k = 0, and the system for n = 0
            # would list all of A
            winners = [n]
        elif self.has_local_units() and len(self._rest) == 1:
            winners = [A.mul(A.mul(k0, n), k0)
                       for k0 in self._solve_dagger_system(n, one=True)]
            if winners and not self._is_dagger(n, winners[0], self.sub_basis):
                raise AssertionError(f"k0·n·k0 is not a dagger of {n}")
        else:
            winners = [k for k in self._solve_dagger_system(n)
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

    def _solve_dagger_system(self, n, one=False):
        """All k with n·k·n = n, and with k·b·n and n·b·k of remainder 0
        for each spanning b when B is free on its pivot rows: one linear
        system in the coordinates of k, built from the columns n·e_j·n.
        one=True asks solve_linear for at most one solution."""
        A = self.algebra
        basis = A.basis_vectors
        columns = [A.mul(A.mul(n, e), n) for e in basis]
        equations = [([col[i] for col in columns], n[i]) for i in range(A.dim)]
        zero = A.zero()
        for b, basis_times_b in self._membership_factors():
            left = [zero if eb == zero else A.mul(eb, n) for eb in basis_times_b]
            nb = A.mul(n, b)
            right = [zero] * A.dim if nb == zero else [A.mul(nb, e) for e in basis]
            for rows in zip(self._remainders(left), self._remainders(right)):
                equations += [(row, A.ring.zero) for row in rows]
        return finring.solve_linear(A.ring, equations, A.dim, cap=self.cap,
                                    one=one)

    def _membership_factors(self):
        """[(b, [e_j·b for each j])] over the spanning b when B is free on
        its pivot rows (k·b·n ∈ B iff its remainder is 0), else []."""
        if self._membership is None:
            A = self.algebra
            self._membership = [] if len(self._rest) > 1 else [
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

    def is_normaliser(self, n):
        return self.dagger_of(n) is not None

    def enumerate_normalisers(self, mode="full"):
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

        classify reads only minimal on pairs with local units (see
        _deciding_normalisers), so full serves check_lbh's cross-check for
        |A| <= 256, reconstruct.ultrafilter_oracle and the tests.
        """
        if mode not in self._normalisers:
            A = self.algebra
            if A.size() > self.cap:
                raise CapExceeded(A.size(), self.cap)
            if mode == "full":
                found = self._full_normalisers()
            elif mode == "minimal":
                found = self._minimal_normalisers()
            else:
                raise ValueError(f"unknown mode {mode!r}")
            self._normalisers[mode] = found
        return self._normalisers[mode]

    def _minimal_normalisers(self):
        """The nonzero normalisers of the corners f·A·e with source an atom
        (enumerate_normalisers).  Each corner is walked in sorted order and
        only the elements not yet decided are solved by dagger_of.  Without
        local units nothing else is decided, so every nonzero corner element
        is solved once.

        With local units (an idempotent u of B that is an identity of A)
        the dagger is unique, and normalisers multiply with
        (m·n)† = n†·m†.  Each of m†m, mm†, n†n, nn† lies in B
        (m†m = m†·u·m), which is commutative, so
        mn·n†m†·mn = m(nn†)(m†m)n = m(m†m)(nn†)n = mn and likewise
        n†m†·mn·n†m† = n†m†, while n†m†·b·mn = n†(m†bm)n and
        mn·b·n†m† = m(nbn†)m† lie in B.

        Let N_e be the nonzero normalisers of e·A·e, e an atom.  Each has
        source e, and its range nn† = e·nn† is an atom ≤ e, so it is e.
        Hence N_e is a group with identity e = e† and inverse n ↦ n†: the
        source of mn is n†(m†m)n = n†n = e, so mn is not 0.  Three facts
        then decide most of a corner without a solve.
        - Orbits: if x in f·A·e is not a normaliser, neither is any x·g
          with g in N_e, else x = x·e = (x·g)·g† would be one.  So one
          solve decides the orbit of x under the group found so far,
          walked over its generators.
        - Group growth: a solved normaliser g of e·A·e joins N_e as a
          generator, and the dagger of each new product is the product of
          the daggers in reverse order.  The closure is Dimino's algorithm
          (G. Butler, Fundamental Algorithms for Permutation Groups, LNCS
          559, 1991): for H closed under the generators, the union U of H
          and right cosets H·r with r·s in U for every coset
          representative r and generator s is closed under right products
          by the generators, as h·r·s lies in the coset of r·s.  So U is
          the group ⟨H, g⟩, and each new coset costs |H| products.
        - Cosets: if n₀ and n are minimal normalisers in f·A·e, then n₀†n
          lies in N_e (n₀·n₀†n = f·n = n, so it is not 0) and
          n = n₀·(n₀†n); conversely n₀·g is a normaliser and not 0, as
          n₀·g·g† = n₀.  So the minimal normalisers of f·A·e are n₀·N_e
          or none, and the walk of f·A·e stops at its first normaliser.
        The daggers found this way go into the dagger cache.
        """
        A = self.algebra
        _, atoms = self.idempotents_of_B()
        local = self.has_local_units()
        zero, found = A.zero(), {}
        for e in atoms:
            # the minimal normalisers of e·A·e with their daggers: the
            # group N_e under local units, seeded with e = e† unsolved
            group, gens = ({e: e} if local else {}), []
            for f in [e] + [a for a in atoms if a != e]:
                members = group if f == e else {}
                decided = {zero}
                corner = A.span([A.mul(A.mul(f, b), e) for b in A.basis_vectors])
                for n in sorted(corner):
                    if n in decided or n in members:
                        continue
                    k = self.dagger_of(n)
                    if k is None:
                        decided |= _orbit(A, n, gens)
                    elif A.mul(k, n) not in atoms:
                        continue
                    elif not local:
                        members[n] = k
                    elif f == e:
                        _adjoin(A, group, gens, n, k)
                    else:
                        members = {A.mul(n, g): A.mul(gd, k)
                                   for g, gd in group.items()}
                        break
                found.update(members)
        self._dagger_cache.update(((n, False), k) for n, k in found.items())
        return sorted(found)

    def _full_normalisers(self):
        A = self.algebra
        _, atoms = self.idempotents_of_B()
        if not self.has_local_units():
            return [n for n in A.all_elements(cap=self.cap)
                    if self.is_normaliser(n)]
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
        """The candidate expectation P(n) = n·e(n), built on normalisers
        and extended linearly.

        e(n) is the join of the atoms a ≤ n†n with n·a in B.  The rows
        n ⧺ n·e(n) of the candidates are eliminated by
        finring.standard_basis_tails: where the candidates span A, the
        tail at column i is P(e_i) for the combination of candidates that
        is the basis vector e_i.  The candidates are the basis vectors
        that are normalisers, then the _deciding_normalisers in order,
        listed only when the basis falls short.  On a twist pair the arrow
        basis decides.  n·e(n) is the expectation only where P is
        implemented by idempotents, so on a pair that is not quasi-Cartan
        the map, and with it faithfulness, can depend on the basis given.

        Returns a report dict; 'map' is None when the candidates do not
        span A or the result fails the expectation axioms.
        """
        if self._expectation is not None:
            return self._expectation
        A, R = self.algebra, self.algebra.ring
        _, atoms = self.idempotents_of_B()

        def row(n):
            source = A.mul(self.dagger_of(n), n)
            e = functools.reduce(A.add, [
                a for a in atoms if A.mul(a, source) == a and
                self.in_B(A.mul(n, a))], A.zero())
            return n + A.mul(n, e)

        candidates = [row(n) for n in A.basis_vectors
                      if self.dagger_of(n) is not None]
        images = finring.standard_basis_tails(R, candidates, A.dim)
        if images is None:
            candidates += map(row, self._deciding_normalisers())
            images = finring.standard_basis_tails(R, candidates, A.dim)
        if images is None:
            self._expectation = {
                "map": None, "reason": "the candidate normalisers do not span A"}
            return self._expectation

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
        implemented by idempotents on every normaliser, for a linear P.
        P fixes B when it fixes sub_basis, which spans B.  The last two are
        decided on one normaliser per class of unit_classes."""
        A = self.algebra
        report = {}
        # fixes B, lands in B
        ok = all(P(b) == b for b in self.sub_basis) and \
            all(self.in_B(P(a)) for a in A.basis_vectors)
        # bimodularity on spanning sets (enough by linearity)
        ok = ok and all(
            P(A.mul(A.mul(b, a), b2)) == A.mul(A.mul(b, P(a)), b2)
            for b in self.sub_basis for b2 in self.sub_basis
            for a in A.basis_vectors)
        report["is_expectation"] = ok
        if not ok:
            report["faithful"] = False
            report["implemented_by_idempotents"] = False
            return report
        report["faithful"] = self._faithfulness_kernel(P) == [A.zero()]
        idem, _ = self.idempotents_of_B()
        _, classes = self.unit_classes()
        implemented = True
        for n in classes:
            pn = P(n)
            if not any(A.mul(n, e) == pn and A.mul(e, n) == pn for e in idem):
                implemented = False
                break
        report["implemented_by_idempotents"] = implemented
        return report

    def _faithfulness_kernel(self, P):
        """The a with P(n·a) = 0 for every normaliser n, for a linear P.
        P(n·a) is linear in n, so any n that span the normalisers give the
        same kernel, over any commutative ring: the n of
        _deciding_normalisers span every normaliser, one n per class of
        unit_classes spans those, and the pivot rows and the rest of
        unit-pivot elimination on the classes (_class_rows) span what the
        classes span, its row operations being invertible.
        Where the classes span A the pivot rows are the standard basis, so
        P is evaluated on at most dim² products there."""
        A = self.algebra
        pivots, rest = self._class_rows()
        return self._common_kernel(
            [P(A.mul(n, b)) for b in A.basis_vectors]
            for n in [*pivots.values(), *rest])

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
        """Some idempotent of B is a two-sided identity for the whole basis;
        decided once per pair."""
        if self._local_units is None:
            A = self.algebra
            idem, _ = self.idempotents_of_B()
            self._local_units = any(
                all(A.mul(e, b) == b and A.mul(b, e) == b
                    for b in A.basis_vectors) for e in idem)
        return self._local_units

    def _deciding_normalisers(self):
        """The normalisers that decide every flag of classify: the minimal
        ones S when the pair has local units, else all of them.

        With local units every normaliser is n = Σ_e m_e over the atoms e,
        with m_e = n·e in {0} ∪ S_e and pairwise distinct ranges, and
        conversely (enumerate_normalisers).  So:
        - span(N) = span(S), as S ⊆ N ⊆ span(S); the faithfulness kernel
          is linear in n, so it is the same over N and over S.
        - A free n has its sources orthogonal to its ranges, or lies in B
          and then so does each n·e; either way each summand is free, so
          span(free N) = span(free S).
        - Let P be an expectation implemented by idempotents on S.  For m
          in S_e with m·f = P(m) = f·m, f an idempotent, e·f is an
          idempotent below the atom e, so P(m) = m·e·f is 0 or m.  When it
          is m, m = P(m) lies in the commutative B, so m = m·e = e·m and
          its range m·m† = e·m·m† is an atom below e, that is e.  Let E be the sum of the atoms e with
          P(m_e) = m_e ≠ 0.  Then n·E = Σ P(m_e) since the atoms are
          orthogonal, and E·n = Σ P(m_e) since each other nonzero m_e
          has a range distinct from every atom of E.  So P is implemented
          by idempotents on all of N.
        """
        if self.has_local_units():
            return self.enumerate_normalisers("minimal")
        return self.enumerate_normalisers("full")

    def unit_classes(self):
        """The R^×-classes of _deciding_normalisers, once per pair, as
        (coordinates, classes): coordinates[p] = (t, rep) with p = t·rep
        over the union of the orbits, rep the atom of a unit class and the
        least member otherwise; classes the sorted reps.  One rep decides
        each flag of classify for its class, for a unit t and a linear P:
        - spans: R·(t·n) = R·n;
        - the faithfulness kernel: P((t·n)·a) = t·P(n·a);
        - by idempotents: n·e = P(n) = e·n gives (t·n)·e = P(t·n) = e·(t·n);
        - freeness: (t·n)† = t⁻¹·n†, so the source and range do not
          change, and t·n lies in B iff n does.
        """
        if self._unit_classes is None:
            A = self.algebra
            units = sorted(finring.ring_units(A.ring))
            _, atoms = self.idempotents_of_B()
            coordinates = {}
            for n in self._deciding_normalisers():
                if n in coordinates:
                    continue
                orbit = [A.scale(t, n) for t in units]
                rep = next((e for e in atoms if e in orbit), min(orbit))
                if rep != n:
                    orbit = [A.scale(t, rep) for t in units]
                coordinates.update(zip(orbit, ((t, rep) for t in units)))
            self._unit_classes = coordinates, sorted(
                {rep for _, rep in coordinates.values()})
        return self._unit_classes

    def _class_rows(self):
        """finring.unit_pivot_rows of the classes of unit_classes, once
        per pair: the faithfulness kernel is evaluated on them, and they
        decide whether the classes span A."""
        if self._class_elimination is None:
            _, classes = self.unit_classes()
            self._class_elimination = finring.unit_pivot_rows(
                self.algebra.ring, classes)
        return self._class_elimination

    def _spans_A(self, vectors):
        """Whether vectors span A as an R-module
        (finring.standard_basis_tails)."""
        A = self.algebra
        return finring.standard_basis_tails(A.ring, vectors, A.dim) is not None

    def classify(self):
        """The full flag report with the implication chain asserted.  The
        normaliser flags are decided on one normaliser per class of
        unit_classes, and the spanning tests by _spans_A.

        Every classify reaches the cap test of enumerate_normalisers; it is
        made first, so that a large A is refused before satisfies_wt lists
        B."""
        if self._classification is not None:
            return self._classification
        A = self.algebra
        if A.size() > self.cap:
            raise CapExceeded(A.size(), self.cap)
        report = {}
        wt, warning = self.satisfies_wt()
        report["WT"] = wt
        if warning:
            report["warnings"] = [warning]
        report["local_units"] = self.has_local_units()
        idem, _ = self.idempotents_of_B()
        # span(I(B)) ⊆ B, so equal sizes make them equal
        report["B_spanned_by_idempotents"] = len(A.span(idem)) == self._b_size
        _, classes = self.unit_classes()
        pivots, rest = self._class_rows()
        report["A_spanned_by_normalisers"] = self._spans_A(
            [*pivots.values(), *rest])
        base = (report["WT"] and report["local_units"] and
                report["B_spanned_by_idempotents"] and
                report["A_spanned_by_normalisers"])
        ce = self.canonical_expectation()
        report["faithful_CE_exists"] = bool(
            ce.get("is_expectation") and ce.get("faithful"))
        base = base and report["faithful_CE_exists"]
        # quasi-Cartan: the expectation is additionally implemented by idempotents
        report["AQP"] = base and bool(ce.get("implemented_by_idempotents"))
        # Cartan: B is a maximal commutative subalgebra (commutant of B = B);
        # the commutative B lies in its commutant, so the sizes decide
        report["ACP"] = base and len(self._commutant()) == self._b_size
        # diagonal: the free normalisers span A
        free = [n for n in classes if self.is_free_normaliser(n)]
        report["ADP"] = base and self._spans_A(free)
        if report["ADP"] and not report["ACP"]:
            raise AssertionError("implication ADP => ACP violated")
        if report["ACP"] and not report["AQP"]:
            raise AssertionError("implication ACP => AQP violated")
        self._classification = report
        return report


def _orbit(A, x, gens):
    """x·H for the group H generated by gens ((element, dagger) pairs),
    walked over the generators: H is finite, so the right products by
    gens reach all of it from x = x·e."""
    orbit, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for g, _ in gens:
            z = A.mul(y, g)
            if z not in orbit:
                orbit.add(z)
                frontier.append(z)
    return orbit


def _adjoin(A, group, gens, g, gd):
    """Close group ({element: dagger}, closed under gens) under the new
    generator g with dagger gd, in place, by Dimino's algorithm (see
    Pair._minimal_normalisers): one right coset H·r of the old group H per
    new representative r, the daggers by (h·r)† = r†·h†."""
    old = list(group.items())
    gens.append((g, gd))
    group.update((A.mul(h, g), A.mul(gd, hd)) for h, hd in old)
    reps = [(g, gd)]
    for r, rd in reps:  # reps grows while it is walked
        for s, sd in gens:
            y = A.mul(r, s)
            if y not in group:
                yd = A.mul(sd, rd)
                group.update((A.mul(h, y), A.mul(yd, hd)) for h, hd in old)
                reps.append((y, yd))


def pair_from_twist(cocycle, cap=DEFAULT_CAP):
    """The convolution algebra of a twist with its diagonal subalgebra,
    presented on the arrow basis."""
    A = ConvolutionAlgebra(cocycle)
    G = cocycle.groupoid
    pair = Pair(A, [A.basis_vectors[A.index[G.unit_at[x]]] for x in G.objects],
                cap=cap)
    pair.cocycle = cocycle
    return pair


def element_to_vector(pair, f):
    """Convert a convolution-algebra element to the pair's tuple form."""
    A = pair.algebra
    vec = [A.ring.zero] * A.dim
    for g, v in f.coeffs.items():
        vec[A.index[g]] = v
    return tuple(vec)


def vector_to_element(pair, vec):
    return steinberg.AlgebraElement(
        pair.cocycle, {g: vec[i] for g, i in pair.algebra.index.items()})


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
    # grouprings subclasses ConvolutionAlgebra, so it is imported here,
    # not at the top of this module
    from .grouprings import TwistedGroupRing, enumerate_units

    cocycle, A = pair.cocycle, pair.algebra
    R, G = A.ring, cocycle.groupoid
    holds, witness = True, None
    for x in G.objects:
        H = isotropy_fibre_group(G, x)
        ring_T = TwistedGroupRing(R, H, {(a, b): cocycle.value(a, b)
                                         for a, b in H.mul})
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
