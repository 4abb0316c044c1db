"""Seeded benchmark inputs: instance builders, the CLI input renderer, and
the job list of each workload with its expected exit code and summary.

Every instance is a ring, a groupoid and a base cocycle c.  The seed picks
a random coboundary b per instance and the job runs on c·∂b.  A coboundary
changes neither a verdict nor a count, so the expected summaries below are
literals that hold at every seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from quasicartan import finring, groupoid as gpd, twist
from quasicartan.finring import make_gf, make_zmod


@dataclass(frozen=True)
class Job:
    """One CLI command on one input text, with its expected exit code and
    summary.  `source` is the (ring, groupoid, cocycles, group_section)
    that `text` renders, or None for a hand-written text."""
    name: str
    command: str
    text: str
    expected: dict
    expected_code: int = 0
    source: tuple | None = None


def rendered_job(name, command, expected, ring, groupoid, cocycles,
                 group_section=False):
    source = (ring, groupoid, cocycles, group_section)
    return Job(name, command, render(*source), expected, source=source)


# -- instances ----------------------------------------------------------


def _c2():
    return gpd.cyclic_group(2)


def klein():
    return gpd.group_as_groupoid(gpd.direct_product_group(_c2(), _c2()))


def c2_cubed():
    return gpd.group_as_groupoid(
        gpd.direct_product_group(gpd.direct_product_group(_c2(), _c2()), _c2()))


def full_plus_c2():
    """full_relation(2) ⊔ C2, the shape of the mixed_gf3 test fixture."""
    return gpd.disjoint_union(gpd.full_relation(2),
                              gpd.group_as_groupoid(_c2()))


def cyclic(n):
    return gpd.group_as_groupoid(gpd.cyclic_group(n))


def heisenberg_cocycle(R, G):
    """c(x, y) = (-1)^(x₁·y₂) on C2³ = ((x₁, x₂), x₃): a bilinear cocycle
    that is not symmetric, so not a coboundary, and its twisted group
    algebra is not commutative."""
    minus_one = R.neg(R.one)
    return twist.Cocycle(R, G, {(x, y): minus_one for x in G.arrows
                                for y in G.arrows if x[0][0] and y[0][1]})


def random_coboundary(R, G, rng):
    """∂b for a random b: arrows → units with b = 1 on unit arrows."""
    units = sorted(finring.ring_units(R))
    b = {g: rng.choice(units) for g in G.arrows if not G.is_unit(g)}
    return twist.coboundary_cocycle(R, G, b)


def times(c, d):
    """The pointwise product c·d of two cocycles on one groupoid."""
    R = c.ring
    return twist.Cocycle(R, c.groupoid,
                         {p: R.mul(v, d.values[p]) for p, v in c.values.items()})


# -- rendering ----------------------------------------------------------

_NAMED = re.compile(r"full_relation\(\d+\)|group\(cyclic\(\d+\)\)")
_CYCLIC = re.compile(r"group\((cyclic\(\d+\))\)")


def _token(arrow):
    """The CLI arrow token of a full_relation or cyclic-group arrow."""
    if isinstance(arrow, tuple):
        return f"{arrow[0]}-{arrow[1]}"
    return str(arrow)


def render(ring, groupoid, cocycles, group_section=False, options=()):
    """The CLI's sectioned input text.

    `cocycles` maps a section name ("cocycle", "cocycle2") to a cocycle on
    `groupoid`.  full_relation(n) and group(cyclic(n)) are written by name,
    because their arrow tokens parse; every other groupoid is written in the
    explicit objects / arrows / compositions form, relabelled x0.. and
    a0.. so that no label is numeric or contains a '-'.  With
    group_section the groupoid must be a cyclic group and is written as the
    `[group]` section that the units command reads.
    """
    G = groupoid
    lines = ["[ring]", ring.name]
    if group_section:
        m = _CYCLIC.fullmatch(G.name)
        if m is None:
            raise ValueError(f"{G.name} is not a cyclic group")
        lines += ["[group]", m.group(1)]
        token = {a: _token(a) for a in G.arrows}
    elif _NAMED.fullmatch(G.name):
        lines += ["[groupoid]", G.name]
        token = {a: _token(a) for a in G.arrows}
    else:
        obj = {x: f"x{i}" for i, x in enumerate(G.objects)}
        token = {a: f"a{i}" for i, a in enumerate(G.arrows)}
        lines += ["[groupoid]", "objects = " + " ".join(obj.values())]
        lines += [f"{token[a]} : {obj[G.src[a]]} -> {obj[G.rng[a]]}"
                  for a in G.arrows]
        lines += [f"{token[a]} . {token[b]} = {token[ab]}"
                  for (a, b), ab in G.compose.items()]
    for section, c in cocycles.items():
        rows = [f"c({token[a]}, {token[b]}) = {ring.label(v)}"
                for (a, b), v in c.values.items() if v != ring.one]
        lines += [f"[{section}]"] + (rows or ["trivial"])
    if options:
        lines += ["[options]", *options]
    return "\n".join(lines) + "\n"


# -- expected results ---------------------------------------------------

def _flags(*false_keys):
    keys = ("wt", "local_units", "b_spanned_by_idempotents",
            "a_spanned_by_normalisers", "faithful_ce_exists",
            "adp", "acp", "aqp")
    return {k: "false" if k in false_keys else "true" for k in keys}


def _recon(aqp, sigma, sigma_prime, g_prime):
    flag = "true" if aqp else "false"
    return {"aqp": flag, "lbh": flag, "phi_injective": "true",
            "phi_surjective": flag, "sigma_points": str(sigma),
            "sigma_prime_points": str(sigma_prime),
            "g_prime_arrows": str(g_prime), "consistent": "true"}


def _units(units, trivial):
    return {"units": str(units), "trivial_units": str(trivial),
            "nontrivial_units": str(units - trivial)}


_CHECK_OK = {"ring_ok": "true", "groupoid_ok": "true", "cocycle_ok": "true",
             "twist_ok": "true", "ok": "true"}


# (name, ring, groupoid, base cocycle builder or None for the trivial one,
# expected summary).  Each literal carries its source on the line above.
_CLASSIFY = [
    # criterion 1: matrix pairs M_n(GF(q)) are ADP, ACP and AQP
    ("m2_gf4", make_gf(2, 2), gpd.full_relation(2), None, _flags()),
    # fixture pair2_z4: AQP on a principal base, so ADP and ACP (criterion 5)
    ("m2_z4", make_zmod(4), gpd.full_relation(2), None, _flags()),
    # criterion 3's unit 1 - 2·δ_g also lies in Z/4[C2×C2], so LBH and with
    # it AQP fail (criterion 4); the other flags from a one-off run
    ("z4_klein", make_zmod(4), klein(), None, _flags("adp", "acp", "aqp")),
    # criterion 1 (fixture pair3_gf2)
    ("m3_gf2", make_gf(2), gpd.full_relation(3), None, _flags()),
    # criterion 1
    ("m2_gf5", make_gf(5), gpd.full_relation(2), None, _flags()),
    # fixture mixed_gf3: AQP, base not principal so neither ADP nor ACP
    ("mixed_gf3", make_gf(3), full_plus_c2(), None, _flags("adp", "acp")),
]

_RECONSTRUCT = [
    # one-off run: 4 arrows · 2 units; the 128 rebuilt points form the
    # twist over 64 base arrows that the job validates
    ("z4_klein", make_zmod(4), klein(), None, _recon(False, 8, 128, 64)),
    # fixture pair2_z4; criterion 1 counts n²·|R*| = 4·2 and n² = 4
    ("m2_z4", make_zmod(4), gpd.full_relation(2), None, _recon(True, 8, 8, 4)),
    # fixture z2_gf5_twisted: c(1, 1) = 4 = 2² is a coboundary, so the
    # fibre ring is GF(5)² with nontrivial units; 2·4 points, 16 rebuilt
    ("z2_gf5_twisted", make_gf(5), cyclic(2),
     lambda R, G: twist.Cocycle(R, G, {(1, 1): 4}), _recon(False, 8, 16, 4)),
    # fixture klein_gf3: GF(3)[C2×C2] ≅ GF(3)⁴ has 16 units, 8 trivial
    ("klein_gf3", make_gf(3), klein(), None, _recon(False, 8, 16, 8)),
    # fixture mixed_gf3: 6 arrows · 2 units
    ("mixed_gf3", make_gf(3), full_plus_c2(), None, _recon(True, 12, 12, 6)),
]

# Each count below also matches a one-off `oracle = on` run.
_UNITS = [
    # GF(3)[C6] ≅ (GF(3)[x]/(x-1)³)²: 18² units; 2·6 trivial
    ("units_gf3_c6", make_gf(3), 6, _units(324, 12)),
    # GF(5)[C4] ≅ GF(5)⁴: 4⁴ units; 4·4 trivial
    ("units_gf5_c4", make_gf(5), 4, _units(256, 16)),
    # Z/9[C3] is local with residue field GF(3): 729 - 243 units; 6·3 trivial
    ("units_z9_c3", make_zmod(9), 3, _units(486, 18)),
    # GF(2)[C8] ≅ GF(2)[x]/(x-1)⁸ is local: 128 units; 8 trivial
    ("units_gf2_c8", make_gf(2), 8, _units(128, 8)),
]

# group = z2 subsets: the six sums other than (1, 1) are unique, and
# "(0, 0)" sorts first among them
_UPP_TEXT = "[upp]\ngroup = z2\nA = (0,0) (1,0) (0,1) (1,1)\nB = (0,0) (1,1)\n"
_UPP_EXPECTED = {"witness": "(0, 0)", "second_witness": "true"}


def _rng(seed, name):
    return random.Random(f"{seed}/{name}")


def _pair_jobs(command, table, seed):
    jobs = []
    for name, R, G, base, expected in table:
        rng = _rng(seed, f"{command}/{name}")
        c = base(R, G) if base else twist.trivial_cocycle(R, G)
        jobs.append(rendered_job(
            f"{command}/{name}", command, expected, R, G,
            {"cocycle": times(c, random_coboundary(R, G, rng))}))
    return jobs


def _units_twists_jobs(seed):
    jobs = []
    for name, R, n, expected in _UNITS:
        G = cyclic(n)
        jobs.append(rendered_job(
            name, "units", expected, R, G,
            {"cocycle": random_coboundary(R, G, _rng(seed, name))},
            group_section=True))
    # not isomorphic: the twisted algebra is not commutative; the search
    # over all 168 automorphisms of C2³ is exhaustive
    R, G, rng = make_gf(5), c2_cubed(), _rng(seed, "compare_c2cubed")
    jobs.append(rendered_job(
        "compare_c2cubed", "compare", {"isomorphic": "false"}, R, G,
        {"cocycle": times(heisenberg_cocycle(R, G), random_coboundary(R, G, rng)),
         "cocycle2": random_coboundary(R, G, rng)}))
    # criterion 6: coboundaries are isomorphic to the trivial twist, so to
    # each other
    R, G, rng = make_gf(7), gpd.full_relation(6), _rng(seed, "compare_full6")
    jobs.append(rendered_job(
        "compare_full6", "compare", {"isomorphic": "true"}, R, G,
        {"cocycle": random_coboundary(R, G, rng),
         "cocycle2": random_coboundary(R, G, rng)}))
    # a coboundary passes every axiom (tests/test_cli.py checks the trivial
    # twist the same way)
    R, G, rng = make_gf(7), gpd.full_relation(6), _rng(seed, "check_full6")
    jobs.append(rendered_job("check_full6", "check", _CHECK_OK, R, G,
                             {"cocycle": random_coboundary(R, G, rng)}))
    jobs.append(Job("upp_z2", "upp", _UPP_TEXT, _UPP_EXPECTED))
    return jobs


WORKLOADS = {
    "classify": lambda seed: _pair_jobs("classify", _CLASSIFY, seed),
    "reconstruct": lambda seed: _pair_jobs("reconstruct", _RECONSTRUCT, seed),
    "units_twists": _units_twists_jobs,
}
