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
import math

from . import finring, steinberg, twist as twist_mod
from .finring import CapExceeded, DEFAULT_CAP, InputError
from .groupoid import is_effective, is_principal, isotropy_fibre_group, \
    validate_groupoid


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
        add, neg = self.ring.add_table, self.ring._neg
        return tuple([add[a][neg[b]] for a, b in zip(x, y)])

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
        # a FiniteGroupoid is sound by construction but for
        # associativity, the one axiom validate_groupoid checks
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
        self.cocycle = None  # the twist, set by pair_from_twist
        A, R = algebra, algebra.ring
        pivots, rest = finring.unit_pivot_rows(R, self.sub_basis)
        self._pivot_rows = sorted(pivots.values())
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
        self._end_cache = {}
        self._local_units = None
        self._membership = None
        self._normalisers = {}  # mode -> sorted list
        self._unit_classes = None
        self._class_elimination = None
        self._idempotents = None
        self._atoms = None
        self._expectation = {}  # walk -> report
        self._classification = {}  # oracle -> report
        self._isotropy = None
        self._profiles = None  # _census, False where the pair walks
        # the ultrafilter groupoid, set by reconstruct.build_ultra_groupoid
        self.ultra_groupoid = None

    # -- idempotents --------------------------------------------------

    def atoms_of_B(self):
        """The atoms of B, its minimal nonzero idempotents, sorted; the
        idempotents themselves are built only by idempotents_of_B.

        B is commutative with finitely many idempotents, ordered by f ≤ e
        when e·f = f, so each nonzero idempotent lies above an atom.  The
        atoms are orthogonal: for atoms e ≠ e′, e·e′ is an idempotent below
        e, so 0 or e, and e·e′ = e would put e below the atom e′.  Each
        idempotent f is the sum s of the atoms below it: f·e is an
        idempotent below the atom e, so 0 or e, and f·s = s makes r = f − s
        an idempotent with r·e = 0 for every atom e; an atom e ≤ r would
        give e = e·r = 0, so r = 0.

        B is not listed when it is free on its pivot rows e_i, R is local
        and e_i·e_j = δ_ij·e_i: the atoms are then the e_i.  Each b in B is
        Σ t_i·e_i with unique t_i, so b² = Σ t_i²·e_i, and b² = b iff each
        t_i² = t_i, that is t_i in {0, 1}, the only idempotents of a local
        ring (Lam, A First Course in Noncommutative Rings, GTM 131, §21).
        So the idempotents are the subset sums of the e_i, and e_i·f is e_i
        or 0 for each of them, so the idempotents below e_i are 0 and e_i.
        This holds for every twist pair on the arrow basis; any other B is
        listed."""
        if self._atoms is None:
            A = self.algebra
            atoms, zero = self._pivot_rows, A.zero()
            if not (len(self._rest) == 1 and
                    len(finring.local_factors(A.ring)) == 1 and
                    all(A.mul(e, f) == (e if e == f else zero)
                        for e in atoms for f in atoms)):
                idem = [e for e in A.span(self.sub_basis) if A.mul(e, e) == e]
                # f ≤ e in the idempotent order when e·f = f
                atoms = sorted(e for e in idem if e != zero and not any(
                    f not in (e, zero) and A.mul(e, f) == f for f in idem))
            self._atoms = atoms
        return self._atoms

    def idempotents_of_B(self):
        """I(B) and the atoms (atoms_of_B).  I(B) is built on the first
        call, as the 2^k subset sums of the k atoms, since only
        check_expectation without local units and the oracles read it.
        Each idempotent is the sum of the atoms below it (atoms_of_B), a
        sum of orthogonal idempotents is one, and two subsets give distinct
        sums, as an atom e in only one of them gives e times one sum and 0
        times the other."""
        atoms = self.atoms_of_B()
        if self._idempotents is None:
            A = self.algebra
            idem = [A.zero()]
            for e in atoms:
                idem += [A.add(f, e) for f in idem]
            self._idempotents = sorted(idem)
        return self._idempotents, atoms

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

        WT is decided on the atoms.  They are nonzero idempotents, and each
        nonzero idempotent f lies above an atom e (atoms_of_B), so
        t·f = 0 gives t·e = t·f·e = 0.  So WT holds iff t·e = 0 forces
        t = 0 for every atom e, and I(B) = {0} iff there is no atom.
        """
        A, R = self.algebra, self.algebra.ring
        atoms = self.atoms_of_B()
        if not atoms:
            return True, "I(B) = {0}: (WT) holds vacuously"
        zero = A.zero()
        if any(A.scale(t, e) == zero for e in atoms
               for t in R.all_indices() if t != R.zero):
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
        """n·k·n = n, k·n·k = k, and k·b·n, n·b·k in B for every b in over;
        a factor k·b or n·b that is 0 puts its product in B unmultiplied."""
        A = self.algebra
        zero = A.zero()
        if A.mul(A.mul(k, n), k) != k or A.mul(A.mul(n, k), n) != n:
            return False
        return all(all(x == zero or self.in_B(A.mul(x, y))
                       for x, y in ((A.mul(k, b), n), (A.mul(n, b), k)))
                   for b in over)

    def is_normaliser(self, n):
        return self.dagger_of(n) is not None

    def ends(self, n):
        """(n†·n, n·n†), the source and range of a normaliser n, made once
        per n; a dagger already found is read off the cache."""
        if n not in self._end_cache:
            k = self._dagger_cache.get((n, False)) or self.dagger_of(n)
            self._end_cache[n] = self.algebra.mul(k, n), self.algebra.mul(n, k)
        return self._end_cache[n]

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
        normalisers with source e, and full builds the sums that are
        normalisers (_full_normalisers).  Without such a u, full scans
        every element of A.

        classify reads neither where the census decides (Pair._census),
        and only minimal on the other pairs with local units (see
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
        (enumerate_normalisers), their daggers put in the dagger cache.
        Without local units nothing else is known of them, so every nonzero
        corner element is solved by dagger_of.

        With local units (an idempotent u of B that is an identity of A)
        the dagger is unique, and normalisers multiply with
        (m·n)† = n†·m†.  Each of m†m, mm†, n†n, nn† lies in B
        (m†m = m†·u·m), which is commutative, so
        mn·n†m†·mn = m(nn†)(m†m)n = m(m†m)(nn†)n = mn and likewise
        n†m†·mn·n†m† = n†m†, while n†m†·b·mn = n†(m†bm)n and
        mn·b·n†m† = m(nbn†)m† lie in B.

        Let N_e be the nonzero normalisers of e·A·e, e an atom.  Each n has
        source e, and its range nn† = e·nn† is an atom ≤ e, so it is e;
        n† = n†·n·n† lies in e·A·e too.  So N_e is a group of units of the
        monoid e·A·e, with identity e = e† and n⁻¹ = n†: the source of mn
        is n†(m†m)n = n†n = e, so mn is not 0.  A unit n of e·A·e lies in
        N_e iff n⁻¹ is a dagger of n: then n is a normaliser and not 0,
        and conversely n† = n⁻¹.  _corner_group finds N_e without a solve,
        and _first_normaliser one minimal normaliser n₀ of each f·A·e,
        f ≠ e.  Those of f·A·e are then n₀·N_e.  If n is another, n₀†n
        lies in N_e (n₀·n₀†n = f·n = n, so it is not 0) and
        n = n₀·(n₀†n); conversely n₀·g is a normaliser with dagger g⁻¹·n₀†,
        and not 0, as n₀·g·g⁻¹ = n₀.
        """
        A = self.algebra
        atoms = self.atoms_of_B()
        zero, found = A.zero(), {}
        # the nonzero f·b·e over the basis, which span f·A·e, with e·A·e
        # first among the corners from e; f is applied to each b·e ≠ 0 only
        right = {e: [A.mul(b, e) for b in A.basis_vectors] for e in atoms}
        spanning = {(f, e): {A.mul(f, be) for be in right[e] if be != zero}
                    - {zero} for e in atoms
                    for f in [e] + [a for a in atoms if a != e]}
        if not self.has_local_units():
            for vectors in spanning.values():
                for n in sorted(A.span(vectors) - {zero}):
                    k = self.dagger_of(n)
                    if k is not None and A.mul(k, n) in atoms:
                        found[n] = k
        else:
            groups = {e: self._corner_group(e, A.span(spanning[e, e]))
                      for e in atoms}
            for (f, e), xs in spanning.items():
                if f == e:
                    found.update(groups[e])
                    continue
                n0, k0 = self._first_normaliser(xs, spanning[e, f], groups[e])
                if n0 is not None:
                    found.update((A.mul(n0, g), A.mul(gd, k0))
                                 for g, gd in groups[e].items())
        self._dagger_cache.update(((n, False), k) for n, k in found.items())
        return sorted(found)

    def _corner_group(self, e, corner):
        """N_e as {n: n⁻¹} (_minimal_normalisers): the units of the corner
        e·A·e, a monoid with identity e, found by their powers, less those
        whose inverse is not a dagger.

        Powers.  In a finite monoid with identity e, x is a unit iff
        x^m = e for some m ≥ 1: then x^(m−1) is its inverse (x⁰ = e), and
        the powers of a unit x repeat, x^i = x^j with i < j, so
        x^(j−i) = e.  A power x^j of a non-unit x is a non-unit, else
        x·x^(j−1)·(x^j)⁻¹ = e would make x a unit: a right inverse in a
        finite monoid is two-sided, since y ↦ x·y is then onto, so one to
        one.  Each x of the corner not yet decided is walked through
        x, x², … until the walk reaches
        - a known unit p = x^(L+1): every power is a unit, with
          (x^j)⁻¹ = x^(L+1−j)·p⁻¹, as p⁻¹ commutes with x, and
          (x^j)⁻¹ = x^(L+1−j) when p = e;
        - a known non-unit: x is one, so every power is one;
        - a repeat x^j = x^i, i < j: were x a unit, x^(j−i) = e, known
          from the start, would have stopped the walk before x^j, so
          every power is a non-unit.
        The walk decides every power it passes, so the corner costs about
        one product per element and one per unit.

        Membership.  Where B·e = R·e, the inverse k of every unit n is its
        dagger, so no test is made: for b in B, e·b·e = b·e = λ·e for some
        λ in R, so k·b·n = k·(e·b·e)·n = λ·e and n·b·k = λ·e lie in B, and
        n·k·n = n, k·n·k = k.  B·e is spanned by the b·e over sub_basis,
        so it is R·e iff each of these is a multiple of e: |sub_basis|
        products, once per atom.  Elsewhere each unit is tested by
        _is_dagger over sub_basis.
        """
        A = self.algebra
        inverse = {e: e, A.zero(): None}  # None for a non-unit
        for x in sorted(corner):
            walk, p = {}, x  # the powers x, x², … as an ordered set
            while p not in inverse and p not in walk:
                walk[p] = None
                p = A.mul(p, x)
            powers, p_inverse = list(walk), inverse.get(p)
            inverse.update((xj, None if p_inverse is None else
                            powers[-j] if p == e else
                            A.mul(powers[-j], p_inverse))
                           for j, xj in enumerate(powers, 1))
        multiples = {A.scale(t, e) for t in A.ring.all_indices()}
        scalar = all(A.mul(b, e) in multiples for b in self.sub_basis)
        return {n: k for n, k in inverse.items() if k is not None and
                (scalar or self._is_dagger(n, k, self.sub_basis))}

    def _first_normaliser(self, xs, ys, group):
        """One minimal normaliser n₀ of f·A·e, f ≠ e, with its dagger, or
        (None, None) when there is none, for xs and ys the nonzero f·b·e
        and e·b·f over the basis and group N_e (_minimal_normalisers).

        Pairing.  Let x in xs and y in ys have u = y·x in N_e, and set
        k = u⁻¹·y.  Then k·x = e, so x·k·x = x and k·x·k = k; x is a
        minimal normaliser with dagger k when k·b·x and x·b·k lie in B for
        b in sub_basis (_is_dagger).  On a twist's arrow basis the one
        arrow a from e to f gives x = δ_a and y = δ_a⁻¹.

        Where no pair gives a dagger, the corner is walked in sorted order
        by dagger_of.  A non-normaliser x decides x·N_e: if x·g were a
        normaliser, so would x = x·e = (x·g)·g⁻¹ be.  The first nonzero
        normaliser is n₀, its source being the atom e
        (enumerate_normalisers).
        """
        A = self.algebra
        for x, y in itertools.product(xs, ys):
            u = A.mul(y, x)
            if u in group:
                k = A.mul(group[u], y)
                if self._is_dagger(x, k, self.sub_basis):
                    return x, k
        decided = set()
        for n in sorted(A.span(xs) - {A.zero()}):
            if n not in decided:
                k = self.dagger_of(n)
                if k is not None:
                    return n, k
                decided.update(A.mul(n, g) for g in group)
        return None, None

    def _full_normalisers(self):
        """Every normaliser.  Without local units A is scanned.  With them
        the normalisers are the sums n = Σ_e m_e over the atoms e, with m_e
        in {0} ∪ S_e, S_e the minimal normalisers with source e, and the
        ranges of the nonzero m_e pairwise distinct; Σ_e m_e† is the
        dagger of n, so no sum is solved.

        Such a sum is a normaliser.  Let f_e be the range of m_e, so
        m_e = f_e·m_e·e and m_e† = e·m_e†·f_e, and let k = Σ_e m_e†.  For
        e ≠ e′, m_e·m_e′† = m_e·e·e′·m_e′† = 0, and
        m_e†·m_e′ = m_e†·f_e·f_e′·m_e′ = 0 as f_e ≠ f_e′, the atoms being
        orthogonal.  So n·k = Σ f_e and k·n = Σ e over the nonzero m_e,
        n·k·n = Σ f_e·m_e = n and k·n·k = Σ e·m_e† = k.  For b in B,
        f_e·b·f_e′ = b·f_e·f_e′, so k·b·n = Σ_e m_e†·b·m_e and
        n·b·k = Σ_e m_e·b·m_e† lie in B.

        Every normaliser n is such a sum: n = Σ_e n·e with n·e in
        {0} ∪ S_e (enumerate_normalisers).  If n·e and n·e′ are not 0 and
        have one range f = n·e·n†, then n†·f·n = e·n†n, the source of n·e,
        which is e; likewise it is e′, so e = e′.
        """
        A = self.algebra
        if not self.has_local_units():
            return [n for n in A.all_elements(cap=self.cap)
                    if self.is_normaliser(n)]
        atoms = self.atoms_of_B()
        zero = A.zero()
        # (m, m†, range) by source, the range of 0 being None
        by_source = {e: [(zero, zero, None)] for e in atoms}
        for m in self.enumerate_normalisers("minimal"):
            source, rng = self.ends(m)
            by_source[source].append((m, self.dagger_of(m), rng))
        found = {}
        for parts in itertools.product(*by_source.values()):
            ranges = [f for _, _, f in parts if f is not None]
            if len(set(ranges)) == len(ranges):
                ms, ks, _ = zip(*parts)
                found[functools.reduce(A.add, ms, zero)] = \
                    functools.reduce(A.add, ks, zero)
        self._dagger_cache.update(((n, False), k) for n, k in found.items())
        return sorted(found)

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
        if self.dagger_of(n) is None:
            raise ValueError("not a normaliser")
        if self.in_B(n):
            return True
        orthogonal = A.mul(*self.ends(n)) == A.zero()
        squared_zero = A.mul(n, n) == A.zero()
        if orthogonal != squared_zero:
            raise AssertionError("orthogonality and n² = 0 disagree")
        return orthogonal

    # -- conditional expectations -------------------------------------

    def canonical_expectation(self, oracle=False):
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

        Where classify decides the pair from its census (_census) the
        report is read off it, with the arrow daggers in closed form
        (_arrow_daggers), and else, or with oracle, by check_expectation.
        On the arrow basis P is the restriction to the units G⁽⁰⁾, which
        is asserted: the source of δ_a is δ_x, x = s(a), the atoms below
        it are the ε·δ_x, ε a primitive idempotent of R, and δ_a·ε·δ_x =
        ε·δ_a lies in B iff a is a unit, so e(δ_a) is δ_x or 0.
        - (b) P is implemented by idempotents iff each ring (ε·R)(H_x, c|)
          has only its |(ε·R)^×|·|H_x| trivial units; over a local R these
          are the rings R(H_x, c|).  The minimal normalisers lie in the
          corners f·A·e of atoms (enumerate_normalisers), and
          P(n) = f·P(n)·e = P(n)·f·e = 0 for e ≠ f, by bimodularity and
          as B is commutative.  The corner of e = ε·δ_x is (ε·R)(H_x, c|),
          its minimal normalisers are its units (_minimal_normalisers, as
          B·e = R·e), and P is implemented by idempotents there iff P(n)
          is 0 or n for each unit n (check_expectation).  P(t·δ_g) is
          t·δ_x or 0 as g is the identity or not, so trivial units pass.
          A nontrivial unit u with u_g ≠ 0 gives the unit v = δ_g⁻¹·u,
          nontrivial and with a nonzero identity coefficient, so
          P(v) ≠ 0, and P(v) ≠ v as v is not in B ∩ e·A·e = R·e, whose
          units are trivial.
        - (c) P is faithful.  For a ≠ 0 take a_g ≠ 0, g from x to y.  The
          normaliser δ_(g⁻¹) gives δ_(g⁻¹)·a = Σ_k c(g⁻¹, k)·a_k·δ_(g⁻¹k),
          and g⁻¹k is a unit only for k = g, so P(δ_(g⁻¹)·a) has the
          coefficient c(g⁻¹, g)·a_g ≠ 0 at x, c taking unit values.

        Returns a report dict; 'map' is None when the candidates do not
        span A or the result fails the expectation axioms.
        """
        census = self._census(oracle)
        walk = census is None
        if walk in self._expectation:
            return self._expectation[walk]
        A, R = self.algebra, self.algebra.ring
        atoms = self.atoms_of_B()
        if not walk:
            self._arrow_daggers()

        def row(n):
            source, _ = self.ends(n)
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
            self._expectation[walk] = {
                "map": None, "reason": "the candidate normalisers do not span A"}
            return self._expectation[walk]

        def P(x):
            out = A.zero()
            for i, xi in enumerate(x):
                if xi != R.zero:
                    out = A.add(out, A.scale(xi, images[i]))
            return out

        if walk:
            report = self.check_expectation(P)
        else:
            G = self.cocycle.groupoid
            if any(image != (n if G.is_unit(a) else A.zero())
                   for a, n, image in zip(A.basis, A.basis_vectors, images)):
                raise AssertionError("P is not the restriction to the units")
            ok = self._is_expectation(P)
            report = {"is_expectation": ok,
                      "faithful": ok,
                      "implemented_by_idempotents": ok and all(
                          u == (q - 1) * ideal * T.dim for T, profile in census
                          for q, ideal, _, u in profile)}
        report["map"] = P if report["is_expectation"] else None
        self._expectation[walk] = report
        return report

    def _is_expectation(self, P):
        """Whether a linear P fixes B, lands in B and is bimodular.  P fixes
        B when it fixes sub_basis, which spans B.

        Bimodularity, P(b·a·b′) = b·P(a)·b′ for spanning b, b′ and basis
        vectors a, makes each P(a), b·a, b·P(a) and product by b′ once; a
        factor 0 gives 0 with no product, as P(0) = 0."""
        A = self.algebra
        zero = A.zero()
        images = [P(a) for a in A.basis_vectors]
        if not (all(P(b) == b for b in self.sub_basis) and
                all(map(self.in_B, images))):
            return False

        def bimodular(b):
            for a, pa in zip(A.basis_vectors, images):
                ba, bpa = A.mul(b, a), zero if pa == zero else A.mul(b, pa)
                for b2 in self.sub_basis:
                    left = zero if ba == zero else A.mul(ba, b2)
                    if (zero if left == zero else P(left)) != \
                            (zero if bpa == zero else A.mul(bpa, b2)):
                        return False
            return True

        # bimodularity on spanning sets (enough by linearity)
        return all(map(bimodular, self.sub_basis))

    def check_expectation(self, P):
        """Evaluate the expectation axioms (_is_expectation),
        faithfulness, and whether P is implemented by idempotents on every
        normaliser, for a linear P.  The last two are decided on one
        normaliser per class of unit_classes.

        With local units the classes are minimal normalisers n in f·A·e,
        f and e atoms (enumerate_normalisers), and P is implemented by
        idempotents on n iff P(n) is 0 or n.  Each idempotent E of B is a
        sum of atoms, so E·f, an idempotent below the atom f, is 0 or f,
        and E·n = E·f·n is 0 or n; likewise n·E = n·e·E.  So P(n) = n·E
        forces P(n) in {0, n}.  Conversely E = 0 gives P(n) = 0, and E = u,
        the sum of the atoms, an identity of A, gives P(n) = n.  Without
        local units every idempotent of B is tried."""
        A = self.algebra
        zero = A.zero()
        report = {"is_expectation": self._is_expectation(P)}
        if not report["is_expectation"]:
            report["faithful"] = False
            report["implemented_by_idempotents"] = False
            return report
        report["faithful"] = self._is_faithful(P)
        _, classes = self.unit_classes()
        if self.has_local_units():
            implemented = all(P(n) in (zero, n) for n in classes)
        else:
            idem, _ = self.idempotents_of_B()
            implemented = all(
                any(A.mul(n, e) == pn and A.mul(e, n) == pn for e in idem)
                for n, pn in zip(classes, map(P, classes)))
        report["implemented_by_idempotents"] = implemented
        return report

    def _is_faithful(self, P):
        """Whether P(n·a) = 0 for every normaliser n forces a = 0, for a
        linear P.  P(n·a) is linear in n, so any n that span the
        normalisers give the same kernel, over any commutative ring: the n
        of _deciding_normalisers span every normaliser, one n per class of
        unit_classes spans those, and the pivot rows and the rest of
        unit-pivot elimination on the classes (_class_rows) span what the
        classes span, its row operations being invertible.
        Where the classes span A the pivot rows are the standard basis, so
        P is evaluated on at most dim² products there."""
        A = self.algebra
        zero = A.zero()
        pivots, rest = self._class_rows()
        return self._kernel_is_zero(
            ([zero if nb == zero else P(nb)
              for nb in (A.mul(n, b) for b in A.basis_vectors)]
             for n in [*pivots.values(), *rest]), A.dim)

    def _is_own_commutant(self):
        """Whether B is its commutant C, the a with a·b = b·a for every
        spanning b, where B is free on its pivot rows.

        Let S be the pivot columns.  B is then the span of the pivot rows,
        and Σ_c x_c·row_c is x_c at each c in S, so only 0 in B vanishes
        on S.  C contains the commutative B, and for a in C,
        b = Σ_c a_c·row_c lies in B and a − b in C vanishes on S.  So
        C = B ⊕ (C ∩ R^(off S)), and C = B iff the commutation system in
        the unknowns off S has only the zero solution.

        classify asks this only under its base conditions, and they make B
        free on its pivot rows.  R is local (satisfies_wt), with maximal
        ideal m and an s ≠ 0 with m·s = 0 (finring.standard_basis_tails).
        B is spanned by its idempotents, so it is the direct sum of the
        R·e over its k atoms e (classify), and WT makes t ↦ t·e
        injective, so |B| = |R|^k.  A combination y = Σ t_e·e with some
        t_e a unit lies outside m^dim, else s·y = 0 gives s·t_e·e = 0 and,
        by WT, s·t_e = 0.  So the images of the atoms modulo m are
        independent, and B's image has dimension k.  The images of the
        pivot rows span it, as the rows left without a pivot lie in
        m^dim, and are independent, so there are k pivot rows.  Their
        span has |R|^k = |B| elements, so it is B, and the rest, in B and
        0 on S, spans {0}.
        """
        if len(self._rest) > 1:
            raise AssertionError("B is not free on its pivot rows")
        A = self.algebra
        off_basis = [A.basis_vectors[i] for i, _ in self._off_terms]
        return self._kernel_is_zero(
            ([A.sub(A.mul(x, b), A.mul(b, x)) for x in off_basis]
             for b in self.sub_basis), len(off_basis))

    def _kernel_is_zero(self, maps, width):
        """Whether linear maps from R^width to A, each given by its images
        of the standard basis, have only 0 in their common kernel: one
        homogeneous system in the coordinates, decided by whether its rows
        span R^width (finring.standard_basis_tails, Kernels).  No kernel
        is listed."""
        rows = {row for images in maps for row in zip(*images)}
        return finring.standard_basis_tails(
            self.algebra.ring, rows, width) is not None

    # -- classification -----------------------------------------------

    def has_local_units(self):
        """Some idempotent of B is a two-sided identity for the whole basis;
        decided once per pair, on the sum u of the atoms alone.  u is an
        idempotent of B, the atoms being orthogonal (atoms_of_B), and
        an idempotent of B that is an identity of A is u (the proof is in
        enumerate_normalisers)."""
        if self._local_units is None:
            A = self.algebra
            atoms = self.atoms_of_B()
            u = functools.reduce(A.add, atoms, A.zero())
            self._local_units = all(A.mul(u, b) == b and A.mul(b, u) == b
                                    for b in A.basis_vectors)
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
            atoms = self.atoms_of_B()
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

    def isotropy_rings(self):
        """[R(H_x, c|)] over the first object x of each orbit of a
        pair_from_twist pair, in the order of the objects: the twisted
        group ring of the isotropy group H_x at x, with the pair's cocycle
        restricted to it, built once per pair.  It is the corner δ_x·A·δ_x
        in the same coordinates.  The other objects y of x's orbit need no
        ring of their own: for an arrow a from x to y,
        u ↦ δ_a·u·δ_a† is an isomorphism of R-algebras from δ_x·A·δ_x onto
        δ_y·A·δ_y, with inverse v ↦ δ_a†·v·δ_a (δ_a†·δ_a = δ_x and
        δ_a·δ_a† = δ_y, _arrow_daggers), so it keeps units, trivial units
        (t·δ_h goes to t·c(a, h)·c(ah, a⁻¹)·t′·δ_(aha⁻¹), t′ the scalar
        of δ_a†) and the census."""
        if self._isotropy is None:
            # grouprings subclasses ConvolutionAlgebra, so it is imported
            # here, not at the top of this module
            from .grouprings import TwistedGroupRing

            c, G = self.cocycle, self.cocycle.groupoid
            self._isotropy, seen = [], set()
            for x in G.objects:
                if x not in seen:
                    seen.update(G.rng[a] for a in G.arrows if G.src[a] == x)
                    H = isotropy_fibre_group(G, x)
                    self._isotropy.append(TwistedGroupRing(
                        c.ring, H, {(a, b): c.value(a, b) for a, b in H.mul}))
        return self._isotropy

    def _census(self, oracle=False):
        """[(T, profile)] over the isotropy rings T of a pair_from_twist
        pair, profile T's unit profile (grouprings.count_units), when
        classify decides the pair from it; else None, and classify walks:
        with oracle, on an abstract pair, and where some T is not
        commutative or its census would pass the cap.

        (a) Spanning.  The normalisers span A iff, in every local factor
        ε·R of R with residue field GF(2), each T has at most one field
        factor GF(2) (n_1 ≤ 1).  They span what the minimal normalisers
        span (_deciding_normalisers), which lie in the corners f·A·e of
        the atoms ε·δ_x.  The corner of e = ε·δ_x is (ε·R)(H_x, c|), and
        its minimal normalisers are its units (_minimal_normalisers, as
        B·e = R·e).  A corner f·A·e with f ≠ e is 0 unless f = ε·δ_y with
        an arrow a from x to y, and then its minimal normalisers are
        δ_a·N_e, whose span is δ_a times the span of N_e, δ_a· being a
        bijection from e·A·e onto f·A·e (δ_a†· is its inverse).  So they
        span A iff the units of each commutative L(H_x, c|), L = ε·R,
        span it over L.  Those units contain 1 + J, J its radical, so
        their span holds J and 1, and it is everything iff the images of
        the units, Π_k F_k^×, span Π_k F_k = L(H_x, c|)/J over the
        residue field GF(q) of L.  A field F_k ≠ GF(2) holds units a ≠ b
        with a − b any given element, so the differences of two units
        that differ only at k span F_k; so if at most one F_k is GF(2),
        the span holds every other F_k and then, from 1, that one too.
        Two fields F_k = F_l = GF(2) force q = 2, and the GF(2)-linear
        x ↦ x_k + x_l vanishes on every unit but not on the identity of
        F_k: the units do not span.  On a twist pair (a) always holds:
        where q = 2, c is 1 modulo m, and GF(2)[H] has the one field factor
        GF(2) of its one homomorphism to GF(2).  So a census that breaks
        it is a fault, and raises.
        """
        if oracle or self.cocycle is None:
            return None
        if self._profiles is None:
            from .grouprings import census_charge, count_units

            rings = self.isotropy_rings()
            census = None
            if all(T.is_commutative() and
                   census_charge(T.ring, T.dim, True) <= self.cap
                   for T in rings):
                census = [(T, count_units(T, cap=self.cap)[1])
                          for T in rings]
                if any(q == 2 and degrees[1] > 1 for _, profile in census
                       for q, _, degrees, _ in profile):
                    raise AssertionError("the normalisers do not span A")
            self._profiles = census or False
        return self._profiles or None

    def _arrow_daggers(self):
        """Put the dagger of each arrow basis vector of a twist pair in the
        dagger cache, δ_a† = c(a⁻¹, a)⁻¹·δ_(a⁻¹), each checked by
        _is_dagger, so that no dagger system is solved for it.

        The cocycle is normalised, so its identity at (a, a⁻¹, a) gives
        c(a, a⁻¹) = c(a⁻¹, a) = t.  With k = t⁻¹·δ_(a⁻¹), k·δ_a = δ_x and
        δ_a·k = δ_y for a from x to y, so δ_a·k·δ_a = δ_a and
        k·δ_a·k = k, and for b in B, k·b·δ_a = b(y)·δ_x and
        δ_a·b·k = b(x)·δ_y lie in B."""
        A, c = self.algebra, self.cocycle
        G, R = c.groupoid, c.ring
        for a, n in zip(A.basis, A.basis_vectors):
            if (n, False) not in self._dagger_cache:
                inverse = G.inv[a]
                k = A.basis_vector(A.index[inverse],
                                   R.unit_inverse(c.value(inverse, a)))
                if not self._is_dagger(n, k, self.sub_basis):
                    raise AssertionError(f"no closed-form dagger of {a}")
                self._dagger_cache[n, False] = k

    def classify(self, oracle=False):
        """The full flag report with the implication chain asserted, once
        per pair and value of oracle.

        Every classify makes the cap test of enumerate_normalisers on |A|
        first, so that a large A is refused before satisfies_wt lists B,
        whichever path decides.  The flags on B read its atoms (atoms_of_B):
        span(I(B)) = span(atoms), each idempotent being a sum of atoms, and
        that span is the direct sum of the R·e, since Σ r_e·e = 0 times an
        atom e′ gives r_e′·e′ = 0.  It lies in B, so it is B exactly when
        Π_e |R·e| = |B|, and no span is listed.

        Where the census decides (_census), nothing is listed: the
        normalisers span A by (a), implementation by idempotents is read
        off it and P is faithful (canonical_expectation, (b) and (c)), and:
        - (d) ADP iff every arrow a is a unit or has s(a) ≠ r(a).  A
          minimal m ∈ f·A·e is free iff e ≠ f or m lies in B, its source
          e and range f being atoms, orthogonal iff distinct.  For e ≠ f,
          f·A·e lies in the span of the δ_a with s(a) ≠ r(a), and B in
          that of the δ_x, so the free normalisers, sums of free minimal
          ones (_deciding_normalisers), span the δ_a with a a unit or
          s(a) ≠ r(a).  That is A iff every arrow is one.  It is read off
          the arrows, not by is_principal, so that the geometry claim
          below still checks is_principal.
        Otherwise, and with oracle, the walk decides: the normaliser flags
        on one normaliser per class of unit_classes, and the spanning
        tests by _spans_A.

        On a twist pair (pair_from_twist) where AQP holds, the geometry
        claims are asserted beside the implication chain: ADP iff the base
        groupoid is principal, and ACP iff it is effective."""
        if oracle in self._classification:
            return self._classification[oracle]
        A = self.algebra
        if A.size() > self.cap:
            raise CapExceeded(A.size(), self.cap)
        report = {}
        wt, warning = self.satisfies_wt()
        report["WT"] = wt
        if warning:
            report["warnings"] = [warning]
        report["local_units"] = self.has_local_units()
        atoms = self.atoms_of_B()
        report["B_spanned_by_idempotents"] = math.prod(
            len({A.scale(t, e) for t in A.ring.all_indices()})
            for e in atoms) == self._b_size
        walk = self._census(oracle) is None
        if walk:
            pivots, rest = self._class_rows()
            report["A_spanned_by_normalisers"] = self._spans_A(
                [*pivots.values(), *rest])
        else:
            report["A_spanned_by_normalisers"] = True
        base = (report["WT"] and report["local_units"] and
                report["B_spanned_by_idempotents"] and
                report["A_spanned_by_normalisers"])
        ce = self.canonical_expectation(oracle)
        report["faithful_CE_exists"] = bool(
            ce.get("is_expectation") and ce.get("faithful"))
        base = base and report["faithful_CE_exists"]
        # quasi-Cartan: the expectation is additionally implemented by idempotents
        report["AQP"] = base and bool(ce.get("implemented_by_idempotents"))
        # Cartan: B is a maximal commutative subalgebra (commutant of B = B)
        report["ACP"] = base and self._is_own_commutant()
        # diagonal: the free normalisers span A
        if walk:
            _, deciding = self.unit_classes()
            report["ADP"] = base and self._spans_A(
                [n for n in deciding if self.is_free_normaliser(n)])
        else:
            G = self.cocycle.groupoid
            report["ADP"] = base and all(
                G.is_unit(a) or G.src[a] != G.rng[a] for a in G.arrows)
        if report["ADP"] and not report["ACP"]:
            raise AssertionError("implication ADP => ACP violated")
        if report["ACP"] and not report["AQP"]:
            raise AssertionError("implication ACP => AQP violated")
        if report["AQP"] and self.cocycle is not None:
            G = self.cocycle.groupoid
            if report["ADP"] != is_principal(G):
                raise AssertionError("ADP <=> principal base violated")
            if report["ACP"] != is_effective(G):
                raise AssertionError("ACP <=> effective base violated")
        self._classification[oracle] = report
        return report


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


def check_lbh(pair):
    """The local bisection hypothesis for the twist of a pair_from_twist pair.

    Primary path: for each object x, the twisted group ring R(H, c|) of
    the isotropy group H at x, with c| the pair's cocycle restricted to H,
    must have trivial units only (grouprings.unit_census, which counts
    them when the ring is commutative).  One x per orbit decides its
    orbit (Pair.isotropy_rings, shared with classify's census), so the
    first x with a nontrivial unit is the first object of its orbit.
    That ring is the corner
    δ_x·A·δ_x in the same coordinates, so a nontrivial unit u is a
    normaliser of the pair (its dagger is its inverse in the corner, and
    δ_x·b·δ_x = b(x)·δ_x for b in B) whose base support is not a
    bisection: the witness.  When
    |A| <= 256 the result is checked against the definition over the
    pair's full normaliser enumeration.
    """
    from .grouprings import unit_census  # see Pair.isotropy_rings

    cocycle, A = pair.cocycle, pair.algebra
    R, G = A.ring, cocycle.groupoid
    holds, witness = True, None
    for ring_T in pair.isotropy_rings():
        u = unit_census(ring_T, cap=pair.cap)[2]
        if u is not None:
            coeffs = {g: u[i] for i, g in enumerate(ring_T.group.elements)
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
