"""Finite commutative unital rings as explicit operation tables.

Elements are represented as integer indices into the ring's label list, so
every operation is a table lookup.  All the rings this package needs are
tiny (at most 16 elements), which makes table form uniform across Z/n,
finite fields, and hand-built examples.
"""

from __future__ import annotations

import itertools


class CapExceeded(Exception):
    """Raised when an exhaustive search would exceed the configured cap."""

    def __init__(self, attempted_size, cap):
        super().__init__(f"search size {attempted_size} exceeds cap {cap}")
        self.attempted_size = attempted_size
        self.cap = cap


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


# validate_ring checks this many seeded random triples for |R| > 16
VALIDATION_SAMPLES = 2000
VALIDATION_SEED = 0


def validate_ring(R):
    """Check the ring axioms, exhaustively for |R| <= 16, sampled above.

    Returns a list of human-readable violations (empty means ok).
    """
    import random

    n = R.size
    bad = []
    idx = range(n)
    for a in idx:
        for b in idx:
            if R.add(a, b) != R.add(b, a):
                bad.append(f"addition not commutative at ({a},{b})")
            if R.mul(a, b) != R.mul(b, a):
                bad.append(f"multiplication not commutative at ({a},{b})")
        if R.add(a, R.zero) != a:
            bad.append(f"zero not additive identity at {a}")
        if R.mul(a, R.one) != a:
            bad.append(f"one not multiplicative identity at {a}")
    if n <= 16:
        triples = itertools.product(idx, idx, idx)
    else:
        rng = random.Random(VALIDATION_SEED)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(VALIDATION_SAMPLES))
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
    for d in range(1, deg // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            divisor = list(coeffs) + [1]
            # long-divide modulus by divisor and check the remainder
            rem = [c % p for c in modulus]
            inv_lead = 1  # divisor is monic
            while len(rem) - 1 >= d and any(rem):
                lead = rem[-1]
                if lead:
                    shift = len(rem) - 1 - d
                    for i, c in enumerate(divisor):
                        rem[shift + i] = (rem[shift + i] - lead * c * inv_lead) % p
                rem.pop()
            if not any(rem):
                return False
    return True


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


def is_indecomposable(R):
    """True when the only idempotents are 0 and 1."""
    return ring_idempotents(R) == {R.zero, R.one}


def is_reduced(R):
    """True when the ring has no nonzero nilpotents."""
    for x in R.all_indices():
        if x == R.zero:
            continue
        power = x
        for _ in range(R.size):
            power = R.mul(power, x)
            if power == R.zero:
                return False
    return True


def solve_linear(R, equations, num_unknowns, cap=DEFAULT_CAP):
    """All solution vectors of a system of R-linear equations.

    Each equation is (coefficients, rhs) with len(coefficients) equal to
    num_unknowns, meaning sum_i coefficients[i]*x_i = rhs.  Solutions are
    found by exhaustive enumeration, which is exact over any finite ring;
    the search space |R|^num_unknowns must stay below cap.
    """
    size = R.size ** num_unknowns
    if size > cap:
        raise CapExceeded(size, cap)
    solutions = []
    for vec in itertools.product(R.all_indices(), repeat=num_unknowns):
        ok = True
        for coeffs, rhs in equations:
            acc = R.zero
            for c, x in zip(coeffs, vec):
                acc = R.add(acc, R.mul(c, x))
            if acc != rhs:
                ok = False
                break
        if ok:
            solutions.append(vec)
    return solutions
