import collections
import os
import resource
import subprocess
import sys

import pytest

from quasicartan import cli, groupoid as gpd, pairs, reconstruct, twist

from helpers import LOOP_TABLE


CLASSIFY_PAIR2 = """\
[ring]
gf(3,1)
[groupoid]
full_relation(2)
[cocycle]
trivial
"""

CLASSIFY_Z2_Z4 = """\
[ring]
zmod(4)
[groupoid]
group(cyclic(2))
[cocycle]
trivial
"""

RECONSTRUCT_Z2_GF3 = """\
[ring]
gf(3,1)
[groupoid]
group(cyclic(2))
[cocycle]
trivial
"""

UNITS_Z4 = """\
[ring]
zmod(4)
[group]
cyclic(2)
"""

UPP_Z = """\
[upp]
group = z
A = 0 1 5
B = 0 2
"""

UPP_SUBGROUP = """\
[upp]
group = cyclic(4)
A = 0 2
B = 0 2
"""

COMPARE_GF5 = """\
[ring]
gf(5,1)
[groupoid]
group(cyclic(2))
[cocycle]
c(1, 1) = 4
[cocycle2]
trivial
"""

ABSTRACT_PAIR = """\
[ring]
gf(2,1)
[algebra]
basis = e n
e * e = e
e * n = n
n * e = n
n * n = 0
[pair]
sub_basis = e
"""


def _run(command, text, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = cli.main([command, str(path)])
    out = capsys.readouterr().out
    return code, out


def test_check_valid_input(tmp_path, capsys):
    code, out = _run("check", CLASSIFY_PAIR2, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["ok"] == "true"
    assert summary["twist_ok"] == "true"


def test_classify_cartan(tmp_path, capsys):
    code, out = _run("classify", CLASSIFY_PAIR2, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["aqp"] == "true"
    assert summary["acp"] == "true"
    assert summary["adp"] == "true"


def test_classify_failing_pair(tmp_path, capsys):
    code, out = _run("classify", CLASSIFY_Z2_Z4, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["aqp"] == "false"
    assert summary["faithful_ce_exists"] == "true"


def test_classify_abstract_pair(tmp_path, capsys):
    code, out = _run("classify", ABSTRACT_PAIR, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["wt"] == "true"


def test_reconstruct(tmp_path, capsys):
    code, out = _run("reconstruct", RECONSTRUCT_Z2_GF3, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["consistent"] == "true"
    assert summary["sigma_prime_points"] == "4"
    assert summary["phi_surjective"] == "true"


def test_reconstruct_non_surjective(tmp_path, capsys):
    code, out = _run("reconstruct", CLASSIFY_Z2_Z4, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["phi_injective"] == "true"
    assert summary["phi_surjective"] == "false"
    assert summary["sigma_points"] == "4"
    assert summary["sigma_prime_points"] == "8"


@pytest.mark.parametrize("ring,group", [
    ("gf(2,2)", "cyclic(2)"), ("gf(2,2)", "cyclic(3)"), ("gf(3,2)", "cyclic(2)"),
])
def test_reconstruct_over_gf_pk_with_nontrivial_fibre_units(ring, group,
                                                          tmp_path, capsys):
    # the fibre ring GF(p^k)[H] has nontrivial units, so LBH fails with a
    # witness that must be a normaliser of the pair (exit 1 would claim a
    # theorem failure)
    text = RECONSTRUCT_Z2_GF3.replace("gf(3,1)", ring).replace("cyclic(2)", group)
    code, out = _run("reconstruct", text, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert (summary["lbh"], summary["aqp"], summary["consistent"]) == \
        ("false", "false", "true")


def test_units(tmp_path, capsys):
    code, out = _run("units", UNITS_Z4, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["units"] == "8"
    assert summary["nontrivial_units"] == "4"
    assert "witness" in out


def test_units_oracle_caps_its_pairwise_products(tmp_path, capsys):
    # 81 elements, so the pairwise scan would make 81² = 6561 > 1000 products
    text = "[ring]\ngf(3,1)\n[group]\ncyclic(4)\n[options]\n" \
           "oracle = on\ncap = 1000\n"
    code, _ = _run("units", text, tmp_path, capsys)
    assert code == 2


def test_upp_witness(tmp_path, capsys):
    code, out = _run("upp", UPP_Z, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["witness"] != "none"
    assert summary["second_witness"] == "true"


def test_upp_subgroup_has_none(tmp_path, capsys):
    code, out = _run("upp", UPP_SUBGROUP, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["witness"] == "none"


def test_upp_klein_group(tmp_path, capsys):
    # Klein elements are pairs, so subset rows parse at rank 2
    text = "[upp]\ngroup = klein\nA = (0,0) (1,0)\nB = (0,0)\n"
    code, out = _run("upp", text, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["witness"] == "(0, 0)"
    assert summary["second_witness"] == "true"


def test_compare(tmp_path, capsys):
    code, out = _run("compare", COMPARE_GF5, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["isomorphic"] == "true"


def _c2_copies(k):
    """k disjoint copies of C2 over GF(3); c(g0, g0) = 2 is not a coboundary
    (2 is not a square), so the walk tries all k! object bijections."""
    rows = ["[ring]", "gf(3,1)", "[groupoid]",
            "objects = " + " ".join(f"x{i}" for i in range(k))]
    for i in range(k):
        rows += [f"e{i} : x{i} -> x{i}", f"g{i} : x{i} -> x{i}"]
    for i in range(k):
        rows += [f"e{i} . e{i} = e{i}", f"e{i} . g{i} = g{i}",
                 f"g{i} . e{i} = g{i}", f"g{i} . g{i} = e{i}"]
    return "\n".join(rows + ["[cocycle]", "c(g0, g0) = 2",
                              "[cocycle2]", "trivial", ""])


def test_compare_exhaustive_under_the_default_cap(tmp_path, capsys):
    code, out = _run("compare", _c2_copies(5), tmp_path, capsys)
    assert code == 0
    assert out.splitlines()[0] == \
        "the twists are not isomorphic (exhaustive search)"
    assert cli.parse_summary(out)["isomorphic"] == "false"


def _c2_cubed_heisenberg():
    """C2³ on one object over GF(5), the arrow gi the bits (x₁, x₂, x₃) of
    i; c(x, y) = 4 = −1 where x₁y₂ = 1, against a coboundary.  That
    cocycle is not symmetric, so its commutator pairing is not 1."""
    def bit(i, k):
        return i >> (2 - k) & 1
    b = {i: 1 + i % 4 for i in range(1, 8)}
    b[0] = 1
    rows = ["[ring]", "gf(5,1)", "[groupoid]", "objects = x"]
    rows += [f"g{i} : x -> x" for i in range(8)]
    rows += [f"g{i} . g{j} = g{i ^ j}" for i in range(8) for j in range(8)]
    rows += ["[cocycle]"] + [f"c(g{i}, g{j}) = 4" for i in range(8)
                             for j in range(8) if bit(i, 0) and bit(j, 1)]
    # ∂b(x, y) = b(x)·b(y)·b(x + y)⁻¹ over GF(5), where 2·3 = 4·4 = 1
    inverse = {1: 1, 2: 3, 3: 2, 4: 4}
    rows += ["[cocycle2]"] + [f"c(g{i}, g{j}) = {b[i] * b[j] * inverse[b[i ^ j]] % 5}"
                              for i in range(8) for j in range(8)]
    return "\n".join(rows + ["[options]", "cap = 1000", ""])


def test_compare_decides_by_the_commutator_pairing(tmp_path, capsys,
                                                   monkeypatch):
    # the exhaustive walk over the 168 automorphisms of C2³ passes the cap
    # of 1000; the commutator pairings differ, so no map is solved
    solved = []
    adjustment = reconstruct._TwistWalk.adjustment
    monkeypatch.setattr(reconstruct._TwistWalk, "adjustment",
                        lambda walk, arrow_map: solved.append(arrow_map)
                        or adjustment(walk, arrow_map))
    code, out = _run("compare", _c2_cubed_heisenberg(), tmp_path, capsys)
    assert code == 0
    assert out.splitlines()[0] == \
        "the twists are not isomorphic (commutator pairings differ)"
    assert cli.parse_summary(out) == {"isomorphic": "false"}
    assert solved == []


def test_compare_exits_on_the_cap(tmp_path, capsys):
    # 7! = 5040 object bijections alone pass the cap
    text = _c2_copies(7) + "[options]\ncap = 1000\n"
    code, _ = _run("compare", text, tmp_path, capsys)
    assert code == 2


def test_missing_ring_exit_code(tmp_path, capsys):
    code, _ = _run("classify", "[groupoid]\nfull_relation(2)\n[cocycle]\ntrivial\n",
                   tmp_path, capsys)
    assert code == 3


def test_missing_file_exit_code(capsys):
    assert cli.main(["classify", "/nonexistent/input.txt"]) == 3


def test_bad_cocycle_exit_code(tmp_path, capsys):
    bad = CLASSIFY_PAIR2.replace("trivial", "c(1-2, 2-1) = 0")
    code, _ = _run("classify", bad, tmp_path, capsys)
    assert code == 3


def test_check_reports_an_invalid_cocycle(tmp_path, capsys):
    # c(1, 1) = 2 is not a unit of Z/4: check reports the violation and
    # exits 1, and builds no twist from it
    text = CLASSIFY_Z2_Z4.replace("trivial", "c(1, 1) = 2")
    code, out = _run("check", text, tmp_path, capsys)
    assert code == 1
    assert "cocycle: value at (1, 1) is not a unit" in out
    summary = cli.parse_summary(out)
    assert summary == {"ring_ok": "true", "groupoid_ok": "true",
                       "cocycle_ok": "false", "ok": "false"}


def test_reconstruct_builds_the_pair_and_the_twist_once(tmp_path, capsys,
                                                       monkeypatch):
    # Z/4[Z/2]: |A| = 16, so LBH is cross-validated, and LBH fails, so the
    # witness is checked too; every stage shares the one pair, and both
    # twists stay cocycles: no explicit twist is built or checked
    calls = collections.Counter()
    for module, name in ((pairs, "pair_from_twist"),
                         (twist, "twist_from_cocycle"),
                         (twist, "check_twist_axioms")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    code, out = _run("reconstruct", CLASSIFY_Z2_Z4, tmp_path, capsys)
    assert code == 0
    assert cli.parse_summary(out)["lbh"] == "false"
    assert calls["twist_from_cocycle"] == calls["check_twist_axioms"] == 0
    assert calls == {"pair_from_twist": 1}


MALFORMED = {
    "ring_order_not_prime": ("classify", CLASSIFY_PAIR2.replace("gf(3,1)", "gf(4,1)")),
    "empty_group": ("classify", CLASSIFY_Z2_Z4.replace("cyclic(2)", "cyclic(0)")),
    "arrow_token": ("classify",
                    CLASSIFY_PAIR2.replace("trivial", "c(1-2-3, 2-1) = 1")),
    "sub_basis_coefficient": ("classify",
                              ABSTRACT_PAIR.replace("sub_basis = e", "sub_basis = 7*e")),
    "upp_integer": ("upp", UPP_Z.replace("A = 0 1 5", "A = 0 x")),
}


@pytest.mark.parametrize("command,text", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_malformed_input_exit_code(command, text, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = cli.main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_cap_exit_code(tmp_path, capsys):
    text = CLASSIFY_PAIR2 + "[options]\ncap = 10\n"
    code, _ = _run("classify", text, tmp_path, capsys)
    assert code == 2


@pytest.mark.parametrize("command,text", [
    ("check", "[ring]\nzmod(11)\n"),                          # 11² table entries
    ("check", "[ring]\ngf(2,1)\n[groupoid]\nfull_relation(5)\n"),  # 5³ compositions
    ("upp", "[upp]\ngroup = cyclic(11)\nA = 0 1\nB = 0\n"),  # 11² products
], ids=["ring", "full_relation", "cyclic"])
def test_oversize_tables_exit_on_the_cap(command, text, tmp_path, capsys):
    # each of these inputs exits 0 under the default cap
    code, _ = _run(command, text + "[options]\ncap = 100\n", tmp_path, capsys)
    assert code == 2


# full_relation(4) over GF(11): 16 arrows, 64 compositions and 10 units,
# so the explicit twist has 160 arrows and 6,400 composites
FULL4_GF11 = "[ring]\ngf(11,1)\n[groupoid]\nfull_relation(4)\n" \
    "[cocycle]\ntrivial\n"


@pytest.mark.parametrize("options,expected", [("[options]\ncap = 1000\n", 2),
                                              ("", 0)],
                         ids=["cap_1000", "default_cap"])
def test_check_charges_the_explicit_twist_to_the_cap(options, expected,
                                                     tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(FULL4_GF11 + options)
    assert cli.main(["check", str(path)]) == expected
    captured = capsys.readouterr()
    if expected == 2:
        assert captured.err.startswith("cap exceeded:")
    else:
        assert cli.parse_summary(captured.out)["twist_ok"] == "true"


def _run_limited(command, path, timeout=60):
    """The CLI in a child process with a 1.5 GB address space, stopped
    after timeout seconds."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                 else [])))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    return subprocess.run(
        [sys.executable, "-m", "quasicartan.cli", command, str(path)],
        env=env, preexec_fn=limit_address_space, capture_output=True,
        text=True, timeout=timeout)


def test_check_exits_on_the_cap_before_building_a_large_twist(tmp_path):
    # 1,000 compositions under the default cap, but 10⁷ composites in the
    # explicit twist over GF(101): refused before any is built, within a
    # 1.5 GB address space
    path = tmp_path / "input.txt"
    path.write_text(FULL4_GF11.replace("gf(11,1)", "gf(101,1)")
                    .replace("full_relation(4)", "full_relation(10)"))
    result = _run_limited("check", path)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("cap exceeded:")


@pytest.mark.parametrize("ring, n", [("gf(2,1)", 24), ("gf(3,1)", 13),
                                     ("gf(3,1)", 12)])
def test_classify_exits_on_the_cap_before_listing_B(ring, n, tmp_path):
    # |B| = 2^24 and 3^13, past the default cap of 10^6: B is charged to
    # the cap from the rank of sub_basis before a set of |B| vectors of
    # length n² is built, so within a 1.5 GB address space the command
    # exits 2 at once.  |B| = 3^12 is under the cap, but |A| = 3^144 is
    # not, and classify tests |A| before satisfies_wt lists B
    path = tmp_path / "input.txt"
    path.write_text(FULL4_GF11.replace("gf(11,1)", ring)
                    .replace("full_relation(4)", f"full_relation({n})"))
    result = _run_limited("classify", path, timeout=10)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("cap exceeded:")


@pytest.mark.parametrize("command, text, code", [
    ("classify", "[ring]\ngf(3,1)\n[groupoid]\ngroup(cyclic(300))\n"
                 "[cocycle]\ntrivial\n", 2),
    ("upp", "[upp]\ngroup = cyclic(300)\nA = 0 1 5\nB = 0 2\n", 0)],
    ids=["classify", "upp"])
def test_a_group_table_is_checked_in_time(command, text, code, tmp_path):
    # the table of cyclic(300) is charged 300² to the cap; its
    # associativity is decided on the greedy generators (Light's test),
    # not on all 300³ triples
    path = tmp_path / "input.txt"
    path.write_text(text)
    result = _run_limited(command, path, timeout=5)
    assert result.returncode == code, result.stderr


def _conjugated_diagonal(n, p):
    """M_n(GF(p)) by matrix units with B = g·D·g⁻¹, g = 1 + e12: B is
    spanned by e11 − e12, e22 + e12 and the other e_ii."""
    labels = {(i, j): f"e{i}{j}" for i in range(1, n + 1)
              for j in range(1, n + 1)}
    rows = [f"{x} * {y} = {labels[(i, l)]}"
            for (i, j), x in labels.items() for (k, l), y in labels.items()
            if j == k]
    sub_basis = [f"e11 + {p - 1}*e12", "e22 + e12"] + \
        [f"e{i}{i}" for i in range(3, n + 1)]
    return "\n".join(["[ring]", f"gf({p},1)", "[algebra]",
                      "basis = " + " ".join(labels.values()), *rows,
                      "[pair]", "sub_basis = " + ", ".join(sub_basis), ""])


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (3, 3)])
def test_classify_a_conjugated_diagonal(n, p, tmp_path, capsys):
    # the pair is isomorphic to the diagonal pair, though no basis vector
    # off the diagonal but e12 is a normaliser
    code, out = _run("classify", _conjugated_diagonal(n, p), tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    for key in ("faithful_ce_exists", "adp", "acp", "aqp"):
        assert summary[key] == "true", key


# Z/6[C2] in the basis u = δ₁ + δ_g, v = δ_g, with B = R·δ₁, δ₁ = u − v
Z6_C2_SHIFTED = """\
[ring]
zmod(6)
[algebra]
basis = u v
u * u = 2*u
u * v = u
v * u = u
v * v = u + 5*v
[pair]
sub_basis = u + 5*v
"""


def test_a_group_ring_over_a_ring_that_is_not_local_in_another_basis(
        tmp_path, capsys):
    # v is the one basis vector that is a normaliser, and no minimal
    # normaliser (2, 3 or 4 times δ₁ or δ_g) has a unit entry; eliminated
    # per factor of Z/6 = Z/2 × Z/3 they span A, so the expectation is
    # found as in the arrow basis
    code, out = _run("classify", Z6_C2_SHIFTED, tmp_path, capsys)
    assert code == 0
    assert cli.parse_summary(out)["faithful_ce_exists"] == "true"


def test_a_conjugated_diagonal_solves_for_one_dagger(tmp_path, capsys,
                                                     monkeypatch):
    # B is free on its pivot rows and the pair has local units, so every
    # dagger system gets membership rows and one solution
    asked = []
    solve = pairs.Pair._solve_dagger_system

    def spy(self, n, one=False):
        asked.append(one)
        return solve(self, n, one=one)

    monkeypatch.setattr(pairs.Pair, "_solve_dagger_system", spy)
    code, _ = _run("classify", _conjugated_diagonal(3, 3), tmp_path, capsys)
    assert code == 0
    assert asked and all(asked)


def test_deterministic_output(tmp_path, capsys):
    _, out1 = _run("classify", CLASSIFY_PAIR2, tmp_path, capsys)
    _, out2 = _run("classify", CLASSIFY_PAIR2, tmp_path, capsys)
    assert out1 == out2


def test_summary_round_trip():
    text = cli.format_output("some report\nsecond line", {"a": "1", "b": "true"})
    assert cli.parse_summary(text) == {"a": "1", "b": "true"}


def test_ring_tables_input(tmp_path, capsys):
    text = """\
[ring.tables]
elements = 0 1
zero = 0
one = 1
add: 0 0 = 0
add: 0 1 = 1
add: 1 0 = 1
add: 1 1 = 0
mul: 0 0 = 0
mul: 0 1 = 0
mul: 1 0 = 0
mul: 1 1 = 1
[groupoid]
full_relation(2)
[cocycle]
trivial
"""
    code, out = _run("classify", text, tmp_path, capsys)
    assert code == 0
    assert cli.parse_summary(out)["aqp"] == "true"


def test_explicit_groupoid_input(tmp_path, capsys):
    text = """\
[ring]
gf(2,1)
[groupoid]
objects = x
e: x -> x
g: x -> x
e . e = e
e . g = g
g . e = g
g . g = e
[cocycle]
trivial
"""
    code, out = _run("classify", text, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["aqp"] == "true"
    assert summary["acp"] == "false"  # the base has isotropy


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "x.txt"])


def _explicit_full_relation_3(replace=None):
    """full_relation(3) in the explicit form: aij runs from j to i.  With
    replace=(row, new) the composition row `row` becomes `new` (None drops it)."""
    objects = "1 2 3"
    rows = [f"a{i}{j}: {j} -> {i}" for i in objects.split() for j in objects.split()]
    for i in objects.split():
        for j in objects.split():
            for k in objects.split():
                row = f"a{i}{j} . a{j}{k} = a{i}{k}"
                if replace and row == replace[0]:
                    row = replace[1]
                if row is not None:
                    rows.append(row)
    return "\n".join(["[ring]", "gf(2,1)", "[groupoid]", f"objects = {objects}",
                      *rows, "[cocycle]", "trivial", ""])


BAD_COMPOSITION = {
    "missing": ("a12 . a23 = a13", None),
    "not_an_arrow": ("a12 . a23 = a13", "a12 . a23 = zzz"),
    "wrong_ends": ("a12 . a23 = a13", "a12 . a23 = a11"),
}


def test_explicit_full_relation_3_is_accepted(tmp_path, capsys):
    code, out = _run("check", _explicit_full_relation_3(), tmp_path, capsys)
    assert code == 0 and cli.parse_summary(out)["groupoid_ok"] == "true"


@pytest.mark.parametrize("command", ["check", "classify", "reconstruct"])
@pytest.mark.parametrize("defect", list(BAD_COMPOSITION))
def test_bad_composition_table_exit_code(defect, command, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(_explicit_full_relation_3(BAD_COMPOSITION[defect]))
    code = cli.main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("input error:")


LONG = "1" * 5000  # past Python's 4300-digit limit on int()


@pytest.mark.parametrize("command,text", [
    ("check", f"[ring]\ngf(2,1)\n[groupoid]\nfull_relation({LONG})\n"),
    ("units", f"[ring]\nzmod(2)\n[group]\ncyclic({LONG})\n"),
    ("classify", CLASSIFY_PAIR2 + f"[options]\ncap = {LONG}\n"),
    ("classify", CLASSIFY_PAIR2.replace("trivial", f"c(1-{LONG}, 1-1) = 0")),
], ids=["full_relation", "cyclic", "cap", "arrow_token"])
def test_overlong_numbers_exit_code(command, text, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = cli.main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("input error:")


def test_reconstruct_refuses_a_pair_that_fails_wt(tmp_path, capsys):
    # over Z/6 the atom 4·δ_e of B has 3·(4·δ_e) = 0; classify reports
    # wt=false, and reconstruct, which needs WT, exits 3
    text = "[ring]\nzmod(6)\n[groupoid]\ngroup(cyclic(2))\n[cocycle]\ntrivial\n"
    code, out = _run("classify", text, tmp_path, capsys)
    assert code == 0 and cli.parse_summary(out)["wt"] == "false"
    path = tmp_path / "input.txt"
    code = cli.main(["reconstruct", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "input error: reconstruct needs a pair that " \
        "satisfies WT, the nondegeneracy condition\n"


def test_dagger_not_unique_without_local_units(tmp_path, capsys):
    # M_2(GF(3)) with B = span(e11): e22 has 9 daggers, and no idempotent
    # of B is an identity of A
    names = {(1, 1): "a", (1, 2): "b", (2, 1): "c", (2, 2): "d"}
    rows = [f"{x} * {y} = {names[(i, l)]}"
            for (i, j), x in names.items() for (k, l), y in names.items()
            if j == k]
    text = "\n".join(["[ring]", "gf(3,1)", "[algebra]", "basis = a b c d",
                      *rows, "[pair]", "sub_basis = a", ""])
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = cli.main(["classify", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("input error: dagger not unique for (0, 0, 0, 1)")
    assert "no local units" in err


LOOP_LABELS = "eabcd"


def _one_object_groupoid(arrow_rows, compose, objects="x"):
    rows = ["[ring]", "gf(2,1)", "[groupoid]", f"objects = {objects}",
            *arrow_rows]
    rows += [f"{a} . {b} = {ab}" for (a, b), ab in compose.items()]
    return "\n".join(rows + ["[cocycle]", "trivial", "[cocycle2]", "trivial",
                             "[group]", "cyclic(2)", ""])


REPEATED_ARROW = _one_object_groupoid(
    ["e : x -> x", "e : x -> x"], {("e", "e"): "e"})
LOOP = _one_object_groupoid(
    [f"{g} : x -> x" for g in LOOP_LABELS],
    {(a, b): LOOP_LABELS[LOOP_TABLE[i][j]]
     for i, a in enumerate(LOOP_LABELS) for j, b in enumerate(LOOP_LABELS)})

NOT_A_GROUPOID = {
    "repeated_arrow": (["check", "classify", "reconstruct", "compare"],
                       REPEATED_ARROW),
    "repeated_object": (["check", "classify", "reconstruct", "compare"],
                        _one_object_groupoid(["e : x -> x"], {("e", "e"): "e"},
                                             objects="x x")),
    "loop": (["classify", "reconstruct", "compare"], LOOP),
    "repeated_basis": (["classify", "reconstruct"],
                       "[ring]\ngf(2,1)\n[algebra]\nbasis = e e\ne * e = e\n"
                       "[pair]\nsub_basis = e\n"),
    # a∘b = a for all a, b: no arrow is a left identity
    "no_unit": (["check", "classify", "compare"],
                _one_object_groupoid(["a : x -> x", "b : x -> x"],
                                     {(a, b): a for a in "ab" for b in "ab"})),
    # the monoid {e, z} with z∘z = z
    "no_inverse": (["check", "classify", "compare"],
                   _one_object_groupoid(["e : x -> x", "z : x -> x"],
                                        {("e", "e"): "e", ("e", "z"): "z",
                                         ("z", "e"): "z", ("z", "z"): "z"})),
}

# the message make_groupoid gives, where a test pins it
NOT_A_GROUPOID_ERRORS = {
    "no_unit": "input error: [groupoid]: no unit arrow at object x\n",
    "no_inverse": "input error: [groupoid]: arrow z has no inverse\n",
}


@pytest.mark.parametrize("command,text,error", [
    (command, text, NOT_A_GROUPOID_ERRORS.get(name, "input error:"))
    for name, (commands, text) in NOT_A_GROUPOID.items()
    for command in commands],
    ids=[f"{name}-{command}" for name, (commands, _) in NOT_A_GROUPOID.items()
         for command in commands])
def test_input_that_is_not_a_groupoid_exit_code(command, text, error,
                                                tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = cli.main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(error)
    assert "Traceback" not in err


def test_check_reports_the_loop(tmp_path, capsys):
    code, out = _run("check", LOOP, tmp_path, capsys)
    assert code == 1
    assert "groupoid custom: associativity fails at" in out


# C8 with g3 . g4 = g6 instead of g7: a group table broken at a pair of
# non-generators (the generating set is g0, g1)
C8_BROKEN = _one_object_groupoid(
    [f"g{i} : x -> x" for i in range(8)],
    {(f"g{a}", f"g{b}"): "g6" if (a, b) == (3, 4) else f"g{(a + b) % 8}"
     for a in range(8) for b in range(8)})


def test_check_names_the_first_fault_of_the_triple_loop(tmp_path, capsys):
    # the generator test finds a fault; the first one named is the triple
    # loop's, whose middle g2 is not a generator
    code, out = _run("check", C8_BROKEN, tmp_path, capsys)
    assert code == 1
    assert out.splitlines()[1:4] == [
        "groupoid custom: associativity fails at (g1,g2,g4)",
        "cocycle: ok",
        "twist axioms: total groupoid: associativity fails at "
        "(('g1', 1),('g2', 1),('g4', 1))"]


@pytest.mark.parametrize("command,text", [
    ("classify", CLASSIFY_PAIR2.replace("trivial", "c(1-2, 2-1) = 2")),
    ("reconstruct", CLASSIFY_PAIR2.replace("trivial", "c(1-2, 2-1) = 2")),
    ("units", UNITS_Z4 + "[cocycle]\nc(1, 1) = 2\n"),
], ids=["classify", "reconstruct", "units"])
def test_bad_cocycle_is_refused_by_the_algebra(command, text, tmp_path,
                                               capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = cli.main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("input error: cocycle invalid: ")


EXPLICIT_C2_GF5 = """\
[ring]
gf(5,1)
[groupoid]
objects = x
e: x -> x
g: x -> x
e . e = e
e . g = g
g . e = g
g . g = e
[cocycle]
c(g, g) = 4
[cocycle2]
trivial
"""

# name -> (input, whether its groupoid is in the explicit form)
VIEW_INPUTS = {
    "full_relation": (CLASSIFY_PAIR2 + "[cocycle2]\ntrivial\n", False),
    "group": (COMPARE_GF5, False),
    "explicit": (EXPLICIT_C2_GF5, True),
}
WITHOUT_VIEWS = [
    *[pytest.param(command, *VIEW_INPUTS[name], id=f"{command}-{name}")
      for command in ("check", "classify", "reconstruct", "compare")
      for name in VIEW_INPUTS],
    pytest.param("units", UNITS_Z4 + "[cocycle]\nc(1, 1) = 3\n", False,
                 id="units-group"),
]


@pytest.mark.parametrize("command, text, explicit", WITHOUT_VIEWS)
def test_the_commands_read_rows_not_the_dict_views(command, text, explicit,
                                                   tmp_path, capsys,
                                                   monkeypatch):
    # compose and values are views for callers outside the package: with
    # their builders patched to raise, every command prints what it prints
    # with them, and only the explicit form indexes a dict
    expected = _run(command, text, tmp_path, capsys)
    assert expected[0] == 0
    indexed = []
    index = gpd.index_composition

    def counted(arrows, *args):
        indexed.append(arrows)
        return index(arrows, *args)

    def refused(_):
        raise AssertionError("a dict view was built")

    monkeypatch.setattr(gpd, "index_composition", counted)
    monkeypatch.setattr(gpd, "composition_dict", refused)
    monkeypatch.setattr(twist, "cocycle_dict", refused)
    assert _run(command, text, tmp_path, capsys) == expected
    assert indexed == ([["e", "g"]] if explicit else [])
