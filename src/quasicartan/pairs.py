"""Algebras with a distinguished commutative subalgebra: normalisers, the
dagger, the induced partial order, conditional expectations, and the
diagonal/Cartan/quasi-Cartan classifier.

Works uniformly for convolution algebras of twists (via their arrow basis)
and for hand-given structure-constant algebras.  Elements are coefficient
tuples over the basis, with ring elements as table indices.
"""

from __future__ import annotations

import itertools

from . import grouprings, steinberg, twist as twist_mod
from .finring import CapExceeded, DEFAULT_CAP


class AbstractAlgebra:
    """A finite-dimensional associative algebra by structure constants.

    structure maps a basis index pair (i, j) to a sparse {k: coeff} dict
    describing b_i·b_j.
    """

    def __init__(self, name, ring, basis, structure):
        self.name = name
        self.ring = ring
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.structure = {}
        for i in range(self.dim):
            for j in range(self.dim):
                entry = structure.get((i, j), {})
                self.structure[(i, j)] = {k: v for k, v in entry.items()
                                          if v != ring.zero}
        self._check_associative()

    def _check_associative(self):
        for i, j, k in itertools.product(range(self.dim), repeat=3):
            left = self.mul(self.mul(self.basis_vector(i), self.basis_vector(j)),
                            self.basis_vector(k))
            right = self.mul(self.basis_vector(i),
                             self.mul(self.basis_vector(j), self.basis_vector(k)))
            if left != right:
                raise ValueError(f"structure constants not associative at ({i},{j},{k})")

    def zero(self):
        return tuple([self.ring.zero] * self.dim)

    def basis_vector(self, i, coeff=None):
        if coeff is None:
            coeff = self.ring.one
        vec = [self.ring.zero] * self.dim
        vec[i] = coeff
        return tuple(vec)

    def add(self, x, y):
        R = self.ring
        return tuple(R.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        R = self.ring
        return tuple(R.sub(a, b) for a, b in zip(x, y))

    def scale(self, t, x):
        R = self.ring
        return tuple(R.mul(t, a) for a in x)

    def mul(self, x, y):
        R = self.ring
        out = [R.zero] * self.dim
        for i, xi in enumerate(x):
            if xi == R.zero:
                continue
            for j, yj in enumerate(y):
                if yj == R.zero:
                    continue
                coeff = R.mul(xi, yj)
                for k, s in self.structure[(i, j)].items():
                    out[k] = R.add(out[k], R.mul(s, coeff))
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
        """Closure of a vector set under addition and ring scalars."""
        R = self.ring
        out = {self.zero()}
        queue = []
        for v in vectors:
            for t in R.all_indices():
                w = self.scale(t, tuple(v))
                if w not in out:
                    out.add(w)
                    queue.append(w)
        # worklist closure under addition: every new element is eventually
        # paired with everything present when it is processed, and later
        # arrivals pair with it in their own turn
        while queue:
            v = queue.pop()
            for w in list(out):
                s = self.add(v, w)
                if s not in out:
                    out.add(s)
                    queue.append(s)
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
        for b in self.B:
            for b2 in self.B:
                if A.mul(b, b2) != A.mul(b2, b):
                    raise ValueError("subalgebra is not commutative")
                if A.mul(b, b2) not in self.B:
                    raise ValueError("sub_basis span is not closed under multiplication")
        self._dagger_cache = {}
        self._normalisers = None
        self._minimal = None
        self._idempotents = None
        self._atoms = None
        self._expectation = None
        self._classification = None
        self._twist = None

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

        Primary strategy: solve the linear system n·k·n = n for k (with
        linear membership constraints when B is a coordinate subspace),
        then filter the survivors by k·n·k = k and the B-conjugation
        conditions, finally re-verifying the winner against the full
        definition.  oracle=True instead scans every k against the full
        definition directly.
        """
        n = tuple(n)
        key = (n, oracle)
        if key in self._dagger_cache:
            return self._dagger_cache[key]
        A, R = self.algebra, self.algebra.ring
        if A.size() > self.cap:
            raise CapExceeded(A.size(), self.cap)
        if oracle:
            winners = [k for k in A.all_elements(cap=self.cap)
                       if self._full_dagger_check(n, k)]
        else:
            candidates = self._solve_dagger_system(n)
            winners = []
            for k in candidates:
                if A.mul(A.mul(k, n), k) != k:
                    continue
                if all(self.in_B(A.mul(A.mul(k, b), n)) and
                       self.in_B(A.mul(A.mul(n, b), k)) for b in self.sub_basis):
                    winners.append(k)
            winners = [k for k in winners if self._full_dagger_check(n, k)]
        if len(winners) > 1:
            raise AssertionError(
                f"dagger not unique for {n}: found {len(winners)} candidates")
        result = winners[0] if winners else None
        self._dagger_cache[key] = result
        return result

    def _solve_dagger_system(self, n):
        """All k with n·k·n = n (plus the coordinate membership constraints
        when B is a coordinate subspace).

        The system is linear in k, so k ↦ Σ k_j·(n·b_j·n) is evaluated by
        meet-in-the-middle over a coordinate split instead of scanning all
        |R|^dim candidates one multiplication at a time.
        """
        A, R = self.algebra, self.algebra.ring
        if A.size() > self.cap:
            raise CapExceeded(A.size(), self.cap)
        conj = [A.mul(A.mul(n, A.basis_vector(j)), n) for j in range(A.dim)]
        half = A.dim // 2
        right_idx = list(range(half, A.dim))
        right_sums = {}
        for combo in itertools.product(R.all_indices(), repeat=len(right_idx)):
            acc = A.zero()
            for j, kj in zip(right_idx, combo):
                if kj != R.zero:
                    acc = A.add(acc, A.scale(kj, conj[j]))
            right_sums.setdefault(acc, []).append(combo)
        candidates = []
        for combo in itertools.product(R.all_indices(), repeat=half):
            acc = A.zero()
            for j, kj in enumerate(combo):
                if kj != R.zero:
                    acc = A.add(acc, A.scale(kj, conj[j]))
            need = A.sub(n, acc)
            for rcombo in right_sums.get(need, ()):
                candidates.append(tuple(combo) + tuple(rcombo))
        support = self._b_coordinate_support()
        if support is None:
            return candidates
        off = [i for i in range(A.dim) if i not in support]
        out = []
        for k in candidates:
            if self._coordinate_membership_ok(k, n, off):
                out.append(k)
        return out

    def _coordinate_membership_ok(self, k, n, off):
        """k·b·n and n·b·k supported inside B's coordinate support, for every
        spanning b of B."""
        A, R = self.algebra, self.algebra.ring
        for b in self.sub_basis:
            kbn = A.mul(A.mul(k, b), n)
            nbk = A.mul(A.mul(n, b), k)
            if any(kbn[i] != R.zero or nbk[i] != R.zero for i in off):
                return False
        return True

    def _full_dagger_check(self, n, k):
        A = self.algebra
        if A.mul(A.mul(n, k), n) != n or A.mul(A.mul(k, n), k) != k:
            return False
        for b in self.B:
            if not self.in_B(A.mul(A.mul(k, b), n)):
                return False
            if not self.in_B(A.mul(A.mul(n, b), k)):
                return False
        return True

    def is_normaliser(self, n, oracle=False):
        return self.dagger_of(n, oracle=oracle) is not None

    def enumerate_normalisers(self, mode="full", oracle=False):
        """full: every normaliser of B; minimal: the nonzero normalisers n
        whose source idempotent n†n is an atom (scanned corner-by-corner)."""
        A = self.algebra
        if mode == "full":
            if self._normalisers is None:
                self._normalisers = [n for n in A.all_elements(cap=self.cap)
                                     if self.is_normaliser(n, oracle=oracle)]
            return self._normalisers
        if mode == "minimal":
            if self._minimal is None:
                _, atoms = self.idempotents_of_B()
                found = set()
                for e in atoms:
                    for f in atoms:
                        corner = {A.mul(A.mul(f, x), e)
                                  for x in A.all_elements(cap=self.cap)}
                        for n in corner:
                            if n == A.zero() or n in found:
                                continue
                            k = self.dagger_of(n, oracle=oracle)
                            if k is None:
                                continue
                            if A.mul(k, n) in atoms:
                                found.add(n)
                self._minimal = sorted(found)
            return self._minimal
        raise ValueError(f"unknown mode {mode!r}")

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
        for i in range(A.dim):
            n = A.basis_vector(i)
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
            for i in range(A.dim):
                if not self.in_B(P(A.basis_vector(i))):
                    ok = False
                    break
        # bimodularity on spanning sets (enough by linearity)
        if ok:
            for b in self.sub_basis:
                for b2 in self.sub_basis:
                    for i in range(A.dim):
                        a = A.basis_vector(i)
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
        faithful = True
        for a in A.all_elements(cap=self.cap):
            if a == A.zero():
                continue
            if not any(P(A.mul(n, a)) != A.zero() for n in normalisers):
                faithful = False
                break
        report["faithful"] = faithful
        idem, _ = self.idempotents_of_B()
        implemented = True
        for n in normalisers:
            pn = P(n)
            if not any(A.mul(n, e) == pn and A.mul(e, n) == pn for e in idem):
                implemented = False
                break
        report["implemented_by_idempotents"] = implemented
        return report

    # -- classification -----------------------------------------------

    def has_local_units(self):
        """Some idempotent of B is a two-sided identity for the whole basis."""
        A = self.algebra
        idem, _ = self.idempotents_of_B()
        for e in idem:
            if all(A.mul(e, A.basis_vector(i)) == A.basis_vector(i) and
                   A.mul(A.basis_vector(i), e) == A.basis_vector(i)
                   for i in range(A.dim)):
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
        all_elements = set(A.all_elements(cap=self.cap))
        report["A_spanned_by_normalisers"] = A.span(normalisers) == all_elements
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
        commutant = {a for a in all_elements
                     if all(A.mul(a, b) == A.mul(b, a) for b in self.sub_basis)}
        report["ACP"] = base and commutant == self.B
        # diagonal: the free normalisers span A
        free = [n for n in normalisers if self.is_free_normaliser(n)]
        report["ADP"] = base and A.span(free) == all_elements
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
    sub_basis = [A.basis_vector(index[G.unit_at[x]]) for x in G.objects]
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

    Primary path: for each object, the twisted group ring of the isotropy
    fibre must have trivial units only; a nontrivial fibre unit yields a
    normaliser witness whose base support is not a bisection.  When
    |A| <= 256 the result is checked against the definition over the
    pair's full normaliser enumeration.
    """
    cocycle, A = pair.cocycle, pair.algebra
    R, G = A.ring, cocycle.groupoid
    T = pair.explicit_twist()
    holds, witness = True, None
    for x in G.objects:
        fibre = twist_mod.fibre_cocycle(T, x)
        ring_T = grouprings.TwistedGroupRing(R, fibre.group, fibre.values)
        _, _, nontrivial = grouprings.enumerate_units(ring_T, cap=pair.cap)
        if nontrivial:
            u = nontrivial[0]
            coeffs = {g: u[i] for i, g in enumerate(fibre.group.elements)
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
