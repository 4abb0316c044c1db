"""Finite commutative unital rings as explicit operation tables.

Elements are represented as integer indices into the ring's label list, so
every operation is a table lookup.  All the rings this package needs are
tiny (at most 16 elements), which makes table form uniform across Z/n,
finite fields, and hand-built examples.
"""

from __future__ import annotations

import itertools

from .groupoid import greedy_generators


class CapExceeded(Exception):
    """Raised when an exhaustive search would exceed the configured cap."""

    def __init__(self, attempted_size, cap):
        try:
            size = str(attempted_size)
        except ValueError:  # past Python's limit of 4300 digits
            size = f"of {attempted_size.bit_length()} bits"
        super().__init__(f"search size {size} exceeds cap {cap}")
        self.attempted_size = attempted_size
        self.cap = cap


class InputError(Exception):
    """Raised when the input is malformed or lies outside the hypotheses a
    computation needs."""


DEFAULT_CAP = 10 ** 6


class FiniteRing:
    """A finite commutative ring with identity, stored as add/mul tables."""

    def __init__(self, name, elements, add_table, mul_table, zero, one):
        self.name = name
        self.elements = list(elements)
        self.add_table = tuple(tuple(row) for row in add_table)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.zero = zero
        self.one = one
        if zero == one:
            raise ValueError("ring must be nontrivial (zero != one)")
        n = len(self.elements)
        self._neg = [None] * n
        for a in range(n):
            for b in range(n):
                if self.add_table[a][b] == zero:
                    self._neg[a] = b
                    break
        if any(v is None for v in self._neg):
            raise ValueError("some element has no additive inverse")
        # unit -> multiplicative inverse
        self._unit_inverse = {}
        for a in range(n):
            for b in range(n):
                if self.mul_table[a][b] == one and self.mul_table[b][a] == one:
                    self._unit_inverse[a] = b
                    break
        self._local_factors = None  # set by local_factors

    @property
    def size(self):
        return len(self.elements)

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add_table[a][self._neg[b]]

    def is_unit(self, a):
        return a in self._unit_inverse

    def unit_inverse(self, a):
        return self._unit_inverse[a]

    def label(self, a):
        return self.elements[a]

    def index(self, label):
        return self.elements.index(label)

    def all_indices(self):
        return range(len(self.elements))

    def __repr__(self):
        return f"FiniteRing({self.name}, {len(self.elements)} elements)"


def validate_ring(R, cap=None):
    """Check the ring axioms.  Returns a list of human-readable violations
    (empty means ok).

    The axioms are decided exactly, by Light's test (groupoid.
    _associativity_faults) over a greedy generating set S of (R, +)
    (groupoid.greedy_generators), every element a sum (…(s₁+s₂)+…)+s_k.
    First the additive group: + commutative, 0 its identity, and
    (a+s)+c = a+(s+c) for s in S.  Then · commutative, 1 its identity,
    and a·(x+s) = a·x + a·s for s in S: the s that pass for every x are
    closed under +, so each x ↦ a·x is additive and · is biadditive.  Both
    sides of (ab)c = a(bc) are then additive in each argument, so it need
    hold only on S³.  That is O(n²·|S| + |S|³) lookups.

    Only a table that fails is walked, a row at a time and then entry by
    entry where a row fails, to name its faults in the order of the loops
    over every pair and every triple; past 20 faults the triple loop stops
    after its next triple.  That walk takes up to n³ steps, charged to the
    cap first when one is given.
    """
    n = R.size
    add, mul = list(map(list, R.add_table)), list(map(list, R.mul_table))
    idx = range(n)

    def pairs_pass(a):
        """a + b = b + a and ab = ba over b, a + 0 = a and a·1 = a."""
        return add[a] == [t[a] for t in add] and \
            mul[a] == [t[a] for t in mul] and \
            add[a][R.zero] == a and mul[a][R.one] == a

    S = greedy_generators([0] * n, [0] * n, lambda y, s: add[y][s])[0]
    if all(pairs_pass(a) for a in idx) and \
            all(add[add[a][s]] == [add[a][x] for x in add[s]] and
                [mul[a][x] for x in add[s]] == [add[y][mul[a][s]]
                                                for y in mul[a]]
                for a in idx for s in S) and \
            all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
                for a in S for b in S for c in S):
        return []
    if cap is not None and n ** 3 > cap:
        raise CapExceeded(n ** 3, cap)
    bad = []
    for a in idx:
        if pairs_pass(a):
            continue
        for b in idx:
            if R.add(a, b) != R.add(b, a):
                bad.append(f"addition not commutative at ({a},{b})")
            if R.mul(a, b) != R.mul(b, a):
                bad.append(f"multiplication not commutative at ({a},{b})")
        if R.add(a, R.zero) != a:
            bad.append(f"zero not additive identity at {a}")
        if R.mul(a, R.one) != a:
            bad.append(f"one not multiplicative identity at {a}")

    def row_passes(a, b):
        """(a+b)+c, (ab)c and a(b+c) against a+(b+c), a(bc) and ab+ac,
        over c."""
        add_a, mul_a, add_ab = add[a], mul[a], add[mul[a][b]]
        return add[add_a[b]] == [add_a[x] for x in add[b]] and \
            mul[mul_a[b]] == [mul_a[x] for x in mul[b]] and \
            [mul_a[x] for x in add[b]] == [add_ab[y] for y in mul_a]

    triples = ((a, b, c) for a, b in itertools.product(idx, idx)
               if len(bad) > 20 or not row_passes(a, b) for c in idx)
    for a, b, c in triples:
        if R.add(R.add(a, b), c) != R.add(a, R.add(b, c)):
            bad.append(f"addition not associative at ({a},{b},{c})")
        if R.mul(R.mul(a, b), c) != R.mul(a, R.mul(b, c)):
            bad.append(f"multiplication not associative at ({a},{b},{c})")
        if R.mul(a, R.add(b, c)) != R.add(R.mul(a, b), R.mul(a, c)):
            bad.append(f"distributivity fails at ({a},{b},{c})")
        if len(bad) > 20:
            break
    return bad


def make_zmod(n):
    """The ring of integers modulo n, n >= 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    elements = [str(i) for i in range(n)]
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return FiniteRing(f"zmod({n})", elements, add, mul, 0, 1)


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mod(poly, modulus, p):
    """Reduce a coefficient list modulo a monic modulus over GF(p)."""
    poly = [c % p for c in poly]
    deg_m = len(modulus) - 1
    while len(poly) > deg_m:
        lead = poly[-1]
        if lead:
            shift = len(poly) - 1 - deg_m
            for i, c in enumerate(modulus):
                poly[shift + i] = (poly[shift + i] - lead * c) % p
        poly.pop()
    while len(poly) < deg_m:
        poly.append(0)
    return poly


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _poly_is_irreducible(modulus, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(modulus) - 1
    if deg < 1 or modulus[-1] % p != 1:
        return False
    return all(any(_poly_mod(modulus, list(coeffs) + [1], p))
               for d in range(1, deg // 2 + 1)
               for coeffs in itertools.product(range(p), repeat=d))


def _find_irreducible(p, k):
    for coeffs in itertools.product(range(p), repeat=k):
        candidate = list(coeffs) + [1]
        if _poly_is_irreducible(candidate, p):
            return candidate
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


def make_gf(p, k=1, modulus=None):
    """The field GF(p^k).  Elements are labeled by their base-p encoding.

    For k > 1 a monic irreducible modulus (coefficient list, low degree
    first, length k+1) may be supplied; otherwise one is found by search.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1:
        R = make_zmod(p)
        R.name = f"gf({p},1)"
        return R
    if modulus is None:
        modulus = _find_irreducible(p, k)
    else:
        modulus = [c % p for c in modulus]
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _poly_is_irreducible(modulus, p):
            raise ValueError("modulus is reducible")
    vectors = list(itertools.product(range(p), repeat=k))  # low coeff first
    index = {v: i for i, v in enumerate(vectors)}
    labels = [str(sum(c * p ** i for i, c in enumerate(v))) for v in vectors]
    n = p ** k
    add = [[index[tuple((x + y) % p for x, y in zip(u, v))] for v in vectors]
           for u in vectors]
    mul = []
    for u in vectors:
        row = []
        for v in vectors:
            prod = _poly_mod(_poly_mul(list(u), list(v), p), modulus, p)
            row.append(index[tuple(prod)])
        mul.append(row)
    zero = index[tuple([0] * k)]
    one = index[tuple([1] + [0] * (k - 1))]
    return FiniteRing(f"gf({p},{k})", labels, add, mul, zero, one)


def ring_units(R):
    """The group of units {t : exists s with ts = 1}."""
    return set(R._unit_inverse)


def ring_idempotents(R):
    return {e for e in R.all_indices() if R.mul(e, e) == e}


def local_factors(R):
    """[(ε, inverse)] over the primitive idempotents ε of R, inverse the
    unit inverses of the ring ε·R (x ↦ y with x·y = ε), once per ring.
    The ε are orthogonal and sum to 1, and R is the product of the rings
    ε·R, each local as its only idempotents are 0 and ε (Atiyah and
    Macdonald, Introduction to Commutative Algebra, Thm 8.7; McDonald,
    Finite Rings with Identity, 1974).  A local R gives the one factor
    (1, R's unit inverses)."""
    if R._local_factors is None:
        mul = R.mul_table
        nonzero = sorted(ring_idempotents(R) - {R.zero})
        R._local_factors = []
        for eps in nonzero:
            if not any(f != eps and mul[eps][f] == f for f in nonzero):
                part = {mul[eps][x] for x in R.all_indices()}
                R._local_factors.append((eps, {
                    x: y for x in part for y in part if mul[x][y] == eps}))
    return R._local_factors


def _eliminate(R, rows, width, inverse=None):
    """Unit-pivot elimination on rows (lists, reduced in place) over their
    first width columns.  Returns (pivots, rest, free): pivots lists the
    (column, row) with the identity at its column and 0 at every other
    pivot's column, rest the rows left without a pivot, whose entries in
    the free columns are all non-units.  Scaling a row by a unit and adding
    multiples of rows are invertible over any commutative ring, so the
    rows keep their span; over a field this is full Gaussian elimination.

    The units are the keys of inverse, by default R's; for rows in
    (ε·R)^n, inverse may be that of the local factor ε·R (local_factors),
    whose identity ε then stands at each pivot.
    """
    add, mul, neg = R.add_table, R.mul_table, R._neg
    inverse = R._unit_inverse if inverse is None else inverse
    zero = R.zero
    pivots = []
    free = list(range(width))
    while True:
        found = next(((i, col) for i, row in enumerate(rows) for col in free
                      if row[col] in inverse), None)
        if found is None:
            return pivots, rows, free
        i, col = found
        row = rows.pop(i)
        inv = inverse[row[col]]
        row[:] = [mul[inv][v] for v in row]
        for other in rows + [r for _, r in pivots]:
            t = neg[other[col]]
            if t != zero:
                other[:] = [add[v][mul[t][w]] for v, w in zip(other, row)]
        pivots.append((col, row))
        free.remove(col)


def unit_pivot_rows(R, vectors):
    """(pivots, rest) from unit-pivot elimination on vectors (_eliminate):
    pivots maps each pivot column to its row, 1 there and 0 at every other
    pivot column, and rest lists the nonzero rows left, 0 at every pivot
    column.  Each x of the span is Σ_c x_c·row_c plus an element of
    span(rest), so the span has |R|^len(pivots)·|span(rest)| elements."""
    width = len(next(iter(vectors))) if vectors else 0
    pivots, rest, _ = _eliminate(R, [list(v) for v in vectors], width)
    return ({col: tuple(row) for col, row in pivots},
            [tuple(row) for row in rest if row.count(R.zero) < width])


def standard_basis_tails(R, rows, width):
    """For each column c < width, the entries past width of a combination
    of rows that is the basis vector e_c on the first width columns; None
    when the rows cut to those columns do not span R^width.

    For each local factor ε·R (local_factors) the rows times ε are
    eliminated on the units of ε·R (_eliminate).  Unless every factor has
    a pivot in each of the first width columns the result is None; else
    the tail at c is the sum over the factors of the pivot row at c past
    width.

    Proof.  The rows times ε span ε·S, S the span of the rows, and
    elimination keeps that span, so the pivot row at c lies in S and is ε
    at c and 0 at the other columns below width.  The ε sum to 1, so the
    pivot rows at c sum to e_c followed by the tail.  Conversely, if the
    cut rows span R^width, their multiples by ε span (ε·R)^width, and
    their images modulo the maximal ideal m of ε·R, its non-units, span
    (ε·R/m)^width.  After elimination the pivot rows are independent
    modulo m and the other rows lie in m^width, so there are width
    pivots.  A local R has the one factor ε = 1: a rank test.

    Kernels.  So the homogeneous system Σ_(j<width) row_j·x_j = 0 over
    the rows has only the zero solution iff the result is not None.  If
    the cut rows span R^width, each e_c is a combination of them, and
    x_c = 0.  If not, some factor ε·R leaves a column c free.  Its maximal
    ideal m is nilpotent, so ε·R has an s ≠ 0 with m·s = 0: ε when m = 0,
    else a nonzero element of the last nonzero power of m.  Put x_c = s,
    x_p = −row_p[c]·s at each pivot column p, with row_p its pivot row,
    and 0 elsewhere.  Then row_p gives ε·x_p + row_p[c]·s = 0, and each
    row left without a pivot is 0 at the pivot columns and in m at c, so
    it gives 0.  These rows span ε times the span of the rows, and
    x = ε·x, so x is a nonzero solution.
    """
    add, mul = R.add_table, R.mul_table
    tails = None
    for eps, inverse in local_factors(R):
        pivots, _, free = _eliminate(
            R, [[mul[eps][v] for v in row] for row in rows], width, inverse)
        if free:
            return None
        part = [row[width:] for _, row in sorted(pivots)]
        tails = part if tails is None else [
            [add[a][b] for a, b in zip(t, p)] for t, p in zip(tails, part)]
    return [tuple(tail) for tail in tails]


def solve_linear(R, equations, num_unknowns, cap=DEFAULT_CAP, one=False):
    """All solution vectors of a system of R-linear equations, sorted.

    Each equation is (coefficients, rhs) with len(coefficients) equal to
    num_unknowns, meaning sum_i coefficients[i]*x_i = rhs.  Elimination
    pivots on unit coefficients only (_eliminate).  The unknowns left
    without a pivot are then enumerated against the remaining rows, whose
    coefficients are all non-units; that search space |R|^free must stay
    below cap, unless a remaining row times some ε of local_factors has
    non-units of the local ring ε·R for coefficients and a unit of it on
    the right: the non-units form its maximal ideal, so ε times the
    equation, and with it the system, has no solution.

    one=True asks for at most one solution, the first one found.  When
    elimination leaves no row to satisfy (always over a field), any values
    of the free unknowns give a solution, so the first is taken without a
    search and the cap is not consulted.
    """
    add, mul, neg = R.add_table, R.mul_table, R._neg
    zero = R.zero

    def combine(acc, terms, values):
        for f, c in terms:
            acc = add[acc][mul[c][values[f]]]
        return acc

    # a row of zeros states 0 = 0 and is dropped before elimination
    rows = [row for row in (list(coeffs) + [rhs] for coeffs, rhs in equations)
            if row.count(zero) < len(row)]
    pivots, rows, free = _eliminate(R, rows, num_unknowns)
    # the rows without a pivot and the pivot rows, as sparse
    # (position in free, coefficient) terms
    residual = []
    for row in rows:
        terms = [(f, row[c]) for f, c in enumerate(free) if row[c] != zero]
        if terms:
            residual.append((terms, row[-1]))
        elif row[-1] != zero:
            return []
    if any(mul[eps][rhs] in inverse and
           not any(mul[eps][c] in inverse for _, c in terms)
           for terms, rhs in residual for eps, inverse in local_factors(R)):
        return []
    size = R.size ** len(free)
    if size > cap and (residual or not one):
        raise CapExceeded(size, cap)
    back = [(col, row[-1], [(f, neg[row[c]]) for f, c in enumerate(free)
                            if row[c] != zero]) for col, row in pivots]
    solutions = []
    for values in itertools.product(R.all_indices(), repeat=len(free)):
        if all(combine(zero, terms, values) == rhs for terms, rhs in residual):
            x = [zero] * num_unknowns
            for f, col in enumerate(free):
                x[col] = values[f]
            for col, rhs, terms in back:
                x[col] = combine(rhs, terms, values)
            solutions.append(tuple(x))
            if one:
                break
    solutions.sort()
    return solutions
