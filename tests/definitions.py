"""The tests' definitional references: constructions the commands never run,
written from the definitions and kept here so that the tests can check the
package against them.

- Twisted convolution algebras: the contravariant indicator of a twist
  bisection, the product of two twist bisections, a decomposition into
  bisection indicators, every element of an algebra, the restriction
  expectation and the value at a twist point.
- Twisted group rings: the nontrivial units built from a ring idempotent
  and from a ring nilpotent.
- Rings: whether a ring is reduced.
- Pairs: the convolution-algebra element of a coefficient tuple.
- Homomorphisms, on every pair where the package decides them on
  generators: the algebra map of a twist map and the twist map (β, σ) of
  reconstruct's φ; and the extension axioms of an explicit twist, each
  over every arrow, object and unit it quantifies over.
"""

import itertools

from quasicartan import finring
from quasicartan.groupoid import validate_groupoid
from quasicartan.steinberg import AlgebraElement, convolve, is_bisection


# -- twisted convolution algebras ---------------------------------------


def indicator_tilde(cocycle, assignment):
    """The contravariant indicator of a twist bisection.

    The bisection is given as a map from a base bisection to units: the
    arrow γ with assigned unit u stands for the twist point (γ, u), where
    the indicator takes value 1; on the canonical section this reads as
    coeffs(γ) = u.
    """
    G = cocycle.groupoid
    R = cocycle.ring
    if not is_bisection(G, assignment.keys()):
        raise ValueError("arrow set is not a bisection")
    for g, u in assignment.items():
        if not R.is_unit(u):
            raise ValueError(f"assigned value at {g} is not a unit")
    return AlgebraElement(cocycle, dict(assignment))


def multiply_bisections(cocycle, X, Y):
    """The pointwise product of two twist bisections (as assignments)."""
    G, R = cocycle.groupoid, cocycle.ring
    out = {}
    for a, u in X.items():
        for b, v in Y.items():
            if G.src[a] != G.rng[b]:
                continue
            g = G.composite(a, b)
            if g in out:
                raise ValueError("product of assignments is not single-valued")
            out[g] = R.mul(cocycle.value(a, b), R.mul(u, v))
    if not is_bisection(G, out.keys()):
        raise ValueError("product is not a bisection")
    return out


def decompose_as_bisections(f):
    """Write f as a sum of ring coefficients times bisection indicators.

    Groups the support by coefficient value and greedily splits each group
    into bisections; the resulting base supports are mutually disjoint and
    reassemble to f exactly.
    """
    c = f.cocycle
    G = c.groupoid
    by_value = {}
    for g, v in sorted(f.coeffs.items(), key=lambda kv: str(kv[0])):
        by_value.setdefault(v, []).append(g)
    terms = []
    for v, arrows in sorted(by_value.items()):
        chunks = []
        for g in arrows:
            for chunk in chunks:
                if is_bisection(G, chunk + [g]):
                    chunk.append(g)
                    break
            else:
                chunks.append([g])
        for chunk in chunks:
            terms.append((v, indicator_tilde(c, {g: c.ring.one for g in chunk})))
    return terms


def enumerate_elements(cocycle, cap=finring.DEFAULT_CAP):
    """Every element of the algebra; |R|^(#arrows) must stay under the cap."""
    R, G = cocycle.ring, cocycle.groupoid
    size = R.size ** len(G.arrows)
    if size > cap:
        raise finring.CapExceeded(size, cap)
    out = []
    for vec in itertools.product(R.all_indices(), repeat=len(G.arrows)):
        out.append(AlgebraElement(cocycle, dict(zip(G.arrows, vec))))
    return out


def restriction_expectation(cocycle):
    """The map keeping unit-arrow coefficients and zeroing the rest."""
    unit_arrows = set(cocycle.groupoid.units)

    def P(f):
        return AlgebraElement(cocycle,
                              {g: v for g, v in f.coeffs.items() if g in unit_arrows})

    return P


def value_at_point(f, g, t):
    """The function value of f at the twist point (γ, t): t⁻¹·coeffs(γ)."""
    R = f.cocycle.ring
    return R.mul(R.unit_inverse(t), f.coeffs.get(g, R.zero))


# -- twisted group rings ------------------------------------------------


def decomposable_unit(T, f_idem, g):
    """A nontrivial unit built from a nontrivial ring idempotent f:
    a = f·δ_e + (1−f)·δ_g, with verified inverse f·δ_e + (1−f)·c(g,g⁻¹)⁻¹·δ_{g⁻¹}.
    """
    R, H = T.ring, T.group
    if R.mul(f_idem, f_idem) != f_idem or f_idem in (R.zero, R.one):
        raise ValueError("need a nontrivial idempotent of the ring")
    if g == H.identity:
        raise ValueError("need a non-identity group element")
    comp = R.sub(R.one, f_idem)
    a = T.add(T.delta(H.identity, f_idem), T.delta(g, comp))
    cg = T.cocycle.value(g, H.inverse[g])
    b = T.add(T.delta(H.identity, f_idem),
              T.delta(H.inverse[g], R.mul(comp, R.unit_inverse(cg))))
    if T.mul(a, b) != T.one() or T.mul(b, a) != T.one():
        raise AssertionError("constructed inverse failed verification")
    if T.is_trivial_unit(a):
        raise AssertionError("constructed unit is unexpectedly trivial")
    return a, b


def nonreduced_unit(T, n, g):
    """A nontrivial unit built from a nonzero ring nilpotent n:
    δ_e − n·δ_g, inverted by the geometric series δ_e + n·δ_g + (n·δ_g)² + ...
    (for n² = 0 the series stops at the first-order term).
    """
    R, H = T.ring, T.group
    if n == R.zero:
        raise ValueError("need a nonzero nilpotent")
    power, nilpotent = n, False
    for _ in range(R.size):
        power = R.mul(power, n)
        if power == R.zero:
            nilpotent = True
            break
    if not nilpotent:
        raise ValueError(f"{R.label(n)} is not nilpotent")
    if g == H.identity:
        raise ValueError("need a non-identity group element")
    x = T.delta(g, n)
    a = T.sub(T.one(), x)
    inv = T.one()
    term = x
    while term != T.zero():
        inv = T.add(inv, term)
        term = T.mul(term, x)
    if T.mul(a, inv) != T.one() or T.mul(inv, a) != T.one():
        raise AssertionError("geometric-series inverse failed verification")
    if T.is_trivial_unit(a):
        raise AssertionError("constructed unit is unexpectedly trivial")
    return a, inv


# -- rings and pairs ----------------------------------------------------


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


def vector_to_element(pair, vec):
    """The convolution-algebra element of a pair_from_twist pair with the
    coefficient tuple vec; pairs.element_to_vector inverts it."""
    return AlgebraElement(
        pair.cocycle, {g: vec[i] for g, i in pair.algebra.index.items()})


# -- homomorphisms on every pair ----------------------------------------


def induced_algebra_map(c1, c2, arrow_map, u):
    """ψ(f) = Σ f(g)·u(g)·δ_ψg, the linear map of a twist map (ψ, u)."""
    R = c1.ring

    def psi(f):
        out = AlgebraElement(c2, {})
        for g, v in f.coeffs.items():
            out = out + AlgebraElement(c2, {arrow_map[g]: R.mul(u[g], v)})
        return out

    return psi


def algebra_map_is_multiplicative(c1, psi):
    """ψ(δ_a*δ_b) = ψ(δ_a)*ψ(δ_b) for every pair of arrows (a, b)."""
    basis = [AlgebraElement(c1, {g: c1.ring.one}) for g in c1.groupoid.arrows]
    return all(psi(convolve(x, y)) == convolve(psi(x), psi(y))
               for x in basis for y in basis)


def is_twist_homomorphism(c1, c2, sigma, beta):
    """β(a∘b) = β(a)∘β(b) and c1(a,b)·σ(a∘b) = c2(βa,βb)·σ(a)·σ(b) for
    every composable pair (a, b)."""
    R, G, H = c1.ring, c1.groupoid, c2.groupoid
    for (a, b), ab in G.compose.items():
        if (beta[a], beta[b]) not in H.compose or \
                H.compose[(beta[a], beta[b])] != beta[ab] or \
                R.mul(c1.value(a, b), sigma[ab]) != \
                R.mul(c2.value(beta[a], beta[b]), R.mul(sigma[a], sigma[b])):
            return False
    return True


def twist_axiom_faults(T):
    """twist.check_twist_axioms by its definition: each axiom a loop over
    the arrows, objects and units it quantifies over."""
    R = T.ring
    units = T.units_of_ring()
    total, base = T.total, T.base
    bad = []
    bad.extend("total groupoid: " + v for v in validate_groupoid(total))
    bad.extend("base groupoid: " + v for v in validate_groupoid(base))
    if bad:
        return bad
    image = set()
    for s in total.arrows:
        g = T.proj.get(s)
        if g is None:
            bad.append(f"proj undefined on {s}")
            continue
        image.add(g)
        if base.src[g] != total.src[s] or base.rng[g] != total.rng[s]:
            bad.append(f"proj does not respect src/rng at {s}")
    proj_is_a_map = not bad
    if image != set(base.arrows):
        bad.append("proj is not surjective")
    # every later axiom reads proj as a map that keeps the ends
    if not proj_is_a_map:
        return bad
    for (a, b), ab in total.compose.items():
        pa, pb = T.proj[a], T.proj[b]
        if base.compose.get((pa, pb)) != T.proj[ab]:
            bad.append(f"proj not multiplicative at ({a},{b})")
    seen = {}
    for (x, t), s in T.inj.items():
        if s in seen:
            bad.append(f"inj not injective: {(x, t)} and {seen[s]} collide")
        seen[s] = (x, t)
        if total.src[s] != total.rng[s] or T.proj[s] != base.unit_at[x]:
            bad.append(f"inj({x},{t}) does not sit over the unit at {x}")
    # the axioms that compose with inj need each inj(x, t) at x
    composable = all(total.src[s] == x == total.rng[s]
                     for (x, _), s in T.inj.items())
    for x in base.objects if composable else ():
        for t in units:
            for u in units:
                lhs = total.compose[(T.inj[(x, t)], T.inj[(x, u)])]
                if lhs != T.inj[(x, R.mul(t, u))]:
                    bad.append(f"inj not multiplicative at ({x},{t},{u})")
    for x in base.objects:
        fibre = {s for s in total.arrows if T.proj[s] == base.unit_at[x]}
        if fibre != {T.inj[(x, t)] for t in units}:
            bad.append(f"exactness fails over object {x}")
    for s in total.arrows if composable else ():
        xr = base.rng[T.proj[s]]
        xs = base.src[T.proj[s]]
        for t in units:
            left = total.compose[(T.inj[(xr, t)], s)]
            right = total.compose[(s, T.inj[(xs, t)])]
            if left != right:
                bad.append(f"centrality fails at ({s},{t})")
    for g in base.arrows:
        fibre = [s for s in total.arrows if T.proj[s] == g]
        if len(fibre) != len(units):
            bad.append(f"fibre over {g} has size {len(fibre)}, "
                       f"expected {len(units)}")
    tot_units = {total.unit_at[x] for x in total.objects}
    proj_units = {T.proj[u] for u in tot_units}
    if proj_units != {base.unit_at[x] for x in base.objects} or \
            len(proj_units) != len(tot_units):
        bad.append("unit spaces do not correspond bijectively")
    for s in total.arrows if composable else ():
        for t in units:
            if t != R.one and T.act(t, s) == s:
                bad.append(f"action not free: {t}·{s} = {s}")
    return bad
