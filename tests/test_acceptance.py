"""Acceptance gate: the nine headline checks, one pass/fail line each."""

import itertools
import random

from quasicartan import finring as fr, groupoid as gp, grouprings as gr, \
    pairs as pr, reconstruct as rc, steinberg as sb, twist as tw

from helpers import FIXTURE_NAMES, SMALL_FIXTURES, make_pair, make_twist, \
    classification, recon, matrix_pair


def _verdict(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_matrix_pairs():
    ok = True
    for n, q, p, k in [(2, 2, 2, 1), (2, 3, 3, 1), (3, 2, 2, 1)]:
        pair = matrix_pair(n, p, k)
        flags = pair.classify()
        ok &= flags["ADP"] and flags["ACP"] and flags["AQP"]
        report = rc.verify_reconstruction_theorem(pair)
        ok &= report["sigma_prime_points"] == n * n * (q - 1)
        ok &= report["g_prime_arrows"] == n * n
        rebuilt = rc.build_ultra_groupoid(pair).rebuilt_cocycle()
        trivial = tw.trivial_cocycle(fr.make_gf(p, k), gp.full_relation(n))
        ok &= rc.compare_twists(rebuilt, trivial) is not None
    _verdict(1, ok, "matrix pairs classify as diagonal pairs with exact "
                    "reconstruction counts and rebuilt twists isomorphic to "
                    "the trivial one")


def test_criterion_2_gf3_group_fixture():
    pair = make_pair("z2_gf3")
    T = gr.TwistedGroupRing(fr.make_gf(3), gp.cyclic_group(2))
    units, trivial, nontrivial = gr.enumerate_units(T)
    ok = len(units) == 4 and len(nontrivial) == 0
    flags = classification("z2_gf3")
    ok &= flags["AQP"] and not flags["ACP"] and not flags["ADP"]
    report = recon("z2_gf3")
    ok &= report["phi_injective"] and report["phi_surjective"]
    ok &= report["sigma_prime_points"] == 4
    _, ahat_report = rc.ahat_iso(pair)
    ok &= ahat_report["skipped"] is None
    ok &= ahat_report["bijective"] and ahat_report["multiplicative"]
    ok &= pair.algebra.size() == 9
    _verdict(2, ok, "GF(3)[Z/2] has exactly 4 trivial units, is quasi-Cartan "
                    "but not Cartan, and the coordinate map is a bijective "
                    "multiplicative isomorphism on all 9 elements")


def test_criterion_3_z4_group_fixture():
    T = gr.TwistedGroupRing(fr.make_zmod(4), gp.cyclic_group(2))
    # 1 - 2δ_g via the geometric-series inverse construction
    a, inv = gr.nonreduced_unit(T, 2, 1)
    ok = a == (1, 2) and T.mul(a, inv) == T.one()
    ok &= not T.is_trivial_unit(a)
    flags = classification("z2_z4")
    lbh, witness = pr.check_lbh(make_pair("z2_z4"))
    ok &= not flags["AQP"] and not lbh and witness is not None
    report = recon("z2_z4")
    ok &= report["phi_injective"] and not report["phi_surjective"]
    ok &= report["sigma_points"] == 4 and report["sigma_prime_points"] == 8
    _verdict(3, ok, "Z/4[Z/2] has the verified nontrivial unit 1 - 2d_g, "
                    "fails quasi-Cartan and the bisection hypothesis, and "
                    "its embedding is injective but hits only 4 of 8 points")


def test_criterion_4_three_way_equivalence():
    ok = len(FIXTURE_NAMES) >= 8
    for name in FIXTURE_NAMES:
        report = recon(name)
        ok &= report["aqp"] == report["lbh"] == report["phi_surjective"]
    _verdict(4, ok, f"on all {len(FIXTURE_NAMES)} fixtures the quasi-Cartan "
                    "flag, the bisection hypothesis and embedding "
                    "surjectivity are pairwise equal")


def test_criterion_5_geometry_of_the_base():
    ok = True
    checked = 0
    for name in FIXTURE_NAMES:
        flags = classification(name)
        if not flags["AQP"]:
            continue
        G = make_twist(name).groupoid
        ok &= flags["ADP"] == gp.is_principal(G)
        ok &= flags["ACP"] == gp.is_effective(G)
        checked += 1
    ok &= checked >= 4
    _verdict(5, ok, f"on the {checked} quasi-Cartan fixtures the diagonal "
                    "flag equals principality and the Cartan flag equals "
                    "effectiveness of the base")


def test_criterion_6_coboundary_invariance():
    R = fr.make_gf(5)
    G = gp.full_relation(3)
    trivial = tw.trivial_cocycle(R, G)
    units = sorted(fr.ring_units(R))
    nonunits = [g for g in G.arrows if g not in set(G.units)]
    rng = random.Random(2024)
    ok = True
    for _ in range(20):
        b = {g: units[rng.randrange(len(units))] for g in nonunits}
        c = tw.coboundary_cocycle(R, G, b)
        iso = rc.compare_twists(c, trivial)
        ok &= iso is not None
        if iso is None:
            break
        psi, rep = rc.algebra_iso_from_twist_iso(c, trivial, iso)
        ok &= rep["multiplicative"] and rep["bijective_on_basis"]
        ok &= rep["diagonal_preserving"]
    _verdict(6, ok, "20 random coboundary twists over full_relation(3)/GF(5) "
                    "are isomorphic to the trivial twist with a diagonal-"
                    "preserving algebra isomorphism")


def test_criterion_7_algebraic_laws():
    ok = True
    rng = random.Random(7)
    # convolution associativity: exhaustive while the triple count is
    # tractable, otherwise split 10^4 random triples across the fixtures
    random_budget = 10 ** 4 // len(FIXTURE_NAMES)
    for name in FIXTURE_NAMES:
        c = make_twist(name)
        R, G = c.ring, c.groupoid
        size = R.size ** len(G.arrows)
        if size ** 3 <= 3 * 10 ** 4:
            elems = sb.enumerate_elements(c)
            triples = itertools.product(elems, elems, elems)
        else:
            triples = ((sb.AlgebraElement(c, {g: rng.randrange(R.size)
                                              for g in G.arrows})
                        for _ in range(3)) for _ in range(random_budget))
            triples = (tuple(t) for t in triples)
        for f, g, h in triples:
            if (f * g) * h != f * (g * h):
                ok = False
                break
    # indicator multiplication on all bisection pairs
    for name in FIXTURE_NAMES:
        c = make_twist(name)
        G, R = c.groupoid, c.ring
        units = sorted(fr.ring_units(R))
        arrows = sorted(G.arrows, key=str)
        assignments = []
        for r in range(1, len(arrows) + 1):
            for combo in itertools.combinations(arrows, r):
                if not sb.is_bisection(G, combo):
                    continue
                for labels in itertools.product(units, repeat=r):
                    assignments.append(dict(zip(combo, labels)))
        for X in assignments:
            for Y in assignments:
                try:
                    XY = sb.multiply_bisections(c, X, Y)
                except ValueError:
                    continue
                lhs = sb.indicator_tilde(c, X) * sb.indicator_tilde(c, Y)
                rhs = sb.AlgebraElement(c, XY)
                if lhs != rhs:
                    ok = False
    # inverse-semigroup, order and scalar laws of the normalisers
    for name in ["pair2_gf3", "z2_z4", "z2_gf5_twisted", "z3_gf2"]:
        pair = make_pair(name)
        A, R = pair.algebra, pair.algebra.ring
        N = pair.enumerate_normalisers("full")
        nset = set(N)
        units = sorted(fr.ring_units(R))
        for m in N:
            k = pair.dagger_of(m)
            ok &= k in nset and pair.dagger_of(k) == m
            ok &= A.mul(A.mul(m, k), m) == m
            ok &= pair.leq(m, m) and pair.leq(A.zero(), m)
            for t in units:
                tm = A.scale(t, m)
                ok &= tm in nset
                ok &= pair.dagger_of(tm) == A.scale(R.unit_inverse(t), k)
        sample = N[:15]
        for m in sample:
            for n in sample:
                ok &= A.mul(m, n) in nset
                ok &= pair.dagger_of(A.mul(m, n)) == \
                    A.mul(pair.dagger_of(n), pair.dagger_of(m))
                if pair.leq(m, n) and pair.leq(n, m):
                    ok &= m == n
    # conditional expectation axioms and faithfulness
    for name in FIXTURE_NAMES:
        ce = make_pair(name).canonical_expectation()
        ok &= ce.get("is_expectation", False) and ce.get("faithful", False)
    # uniqueness of the implemented-by-idempotents expectation at tiny scale
    for name in ["z2_gf3", "z3_gf2"]:
        pair = make_pair(name)
        A, R = pair.algebra, pair.algebra.ring
        ok &= A.dim <= 4 and R.size <= 3
        count = 0
        for images in itertools.product(A.all_elements(), repeat=A.dim):
            def P(x, images=images):
                out = A.zero()
                for i, xi in enumerate(x):
                    if xi != R.zero:
                        out = A.add(out, A.scale(xi, images[i]))
                return out
            rep = pair.check_expectation(P)
            if rep["is_expectation"] and rep["implemented_by_idempotents"]:
                count += 1
        ok &= count == 1
    _verdict(7, ok, "associativity, the indicator product rule, the inverse-"
                    "semigroup/order/scalar laws, the expectation axioms and "
                    "tiny-scale expectation uniqueness all hold")


def test_criterion_8_oracle_cross_validation():
    ok = True
    dagger_checked = 0
    for name in SMALL_FIXTURES:
        pair = make_pair(name)
        if pair.algebra.size() > 256:
            continue
        for n in pair.algebra.all_elements():
            if pair.dagger_of(n) != pair.dagger_of(n, oracle=True):
                ok = False
        dagger_checked += 1
    ultra_checked = 0
    for name in SMALL_FIXTURES:
        pair = make_pair(name)
        if len(pair.enumerate_normalisers("full")) > 64:
            continue
        report = rc.ultrafilter_oracle(pair)
        ok &= report["agrees_with_minimal_enumeration"]
        ok &= report["minima_agree"]
        if "all_filters_principal" in report:
            ok &= report["all_filters_principal"]
            ok &= report["exhaustive_maximal_agrees"]
        ultra_checked += 1
    ok &= dagger_checked >= 6 and ultra_checked >= 2
    _verdict(8, ok, f"dagger solve-then-filter matches brute force on "
                    f"{dagger_checked} small algebras and the minimal-"
                    f"normaliser ultrafilters match the direct filter oracle "
                    f"on {ultra_checked} normaliser posets")


def test_criterion_9_unique_products():
    ok = True
    rng = random.Random(5150)
    trials = 0
    while trials < 50:
        if trials % 2 == 0:
            A = sorted({(rng.randrange(-8, 9),) for _ in range(rng.randrange(1, 6))})
            B = sorted({(rng.randrange(-8, 9),) for _ in range(rng.randrange(1, 6))})
        else:
            A = sorted({(rng.randrange(-5, 6), rng.randrange(-5, 6))
                        for _ in range(rng.randrange(1, 6))})
            B = sorted({(rng.randrange(-5, 6), rng.randrange(-5, 6))
                        for _ in range(rng.randrange(1, 6))})
        w = gr.unique_product_search("free_abelian", A, B)
        ok &= w is not None
        if len(A) + len(B) > 2:
            ok &= gr.strojnowski_check("free_abelian", A, B)
        trials += 1
    for H, sub in [(gp.cyclic_group(4), [0, 2]),
                   (gp.cyclic_group(6), [0, 2, 4]),
                   (gp.cyclic_group(2), [0, 1])]:
        ok &= gr.unique_product_search(H, sub, sub) is None
    _verdict(9, ok, "50 random subset pairs of Z and Z^2 all admit a unique "
                    "product (with a second witness where required) and "
                    "finite subgroups certify that none exists")
