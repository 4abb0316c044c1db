import collections
import os
import re
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from quasicartan import cli, finring, groupoid as gpd, grouprings, pairs, \
    reconstruct, twist

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


# the four group rings of the benchmark's units jobs, by name
BENCH_UNITS = {"gf3_c6": ("gf(3,1)", 6), "gf5_c4": ("gf(5,1)", 4),
               "z9_c3": ("zmod(9)", 3), "gf2_c8": ("gf(2,1)", 8)}


def _units_text(ring, n):
    return f"[ring]\n{ring}\n[group]\ncyclic({n})\n"


@pytest.mark.parametrize("name", list(BENCH_UNITS))
def test_units_of_a_commutative_ring_are_not_listed(name, tmp_path, capsys,
                                                    monkeypatch):
    # the census counts a commutative R[H] and walks it only up to its
    # first nontrivial unit, so nothing lists the ring
    text = _units_text(*BENCH_UNITS[name])
    expected = _run("units", text, tmp_path, capsys)
    assert expected[0] == 0

    def refused(*_, **__):
        raise AssertionError("the ring was listed")

    monkeypatch.setattr(pairs.AbstractAlgebra, "all_elements", refused)
    assert _run("units", text, tmp_path, capsys) == expected


@pytest.mark.parametrize("ring, n, witness", [
    ("gf(3,1)", 6, "1·δ[3] + 1·δ[5]"), ("zmod(9)", 6, "1·δ[4] + 3·δ[5]")])
def test_units_name_the_first_nontrivial_unit(ring, n, witness, tmp_path,
                                              capsys):
    code, out = _run("units", _units_text(ring, n), tmp_path, capsys)
    assert code == 0
    assert f"nontrivial witness: {witness}\n" in out


Z2_GF5_TWISTED = COMPARE_GF5.replace("[cocycle2]\ntrivial\n", "")

# full_relation(2) ⊔ C2 over GF(3) in the explicit form
MIXED_GF3 = """\
[ring]
gf(3,1)
[groupoid]
objects = 1 2 z
a11: 1 -> 1
a12: 2 -> 1
a21: 1 -> 2
a22: 2 -> 2
e: z -> z
g: z -> z
""" + "".join(f"a{i}{j} . a{j}{k} = a{i}{k}\n"
              for i in "12" for j in "12" for k in "12") + """\
e . e = e
e . g = g
g . e = g
g . g = e
[cocycle]
trivial
"""


@pytest.mark.parametrize("text", [Z2_GF5_TWISTED, MIXED_GF3],
                         ids=["z2_gf5_twisted", "mixed_gf3"])
def test_reconstruct_counts_the_fibre_units(text, tmp_path, capsys,
                                            monkeypatch):
    # every isotropy fibre ring here is commutative, so check_lbh counts
    # its units and lists none
    expected = _run("reconstruct", text, tmp_path, capsys)
    assert expected[0] == 0

    def refused(*_, **__):
        raise AssertionError("a fibre ring was listed")

    monkeypatch.setattr(grouprings, "enumerate_units", refused)
    assert _run("reconstruct", text, tmp_path, capsys) == expected


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


@pytest.mark.parametrize("content", [None, b"[ring]\ngf(3,1)\n\xff\n"],
                         ids=["directory", "not_utf8"])
def test_an_unreadable_input_exit_code(content, tmp_path, capsys):
    # an input that cannot be read as UTF-8 text is malformed, not a
    # theorem failure
    path = tmp_path / "input.txt"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert cli.main(["classify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


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


def test_check_checks_the_cocycle_once(tmp_path, capsys, monkeypatch):
    # twist_from_cocycle reads the pass of check_cocycle off the cocycle;
    # check still builds the explicit twist through it
    calls = collections.Counter()
    for name in ("check_cocycle", "twist_from_cocycle"):
        def counted(c, fn=getattr(twist, name), name=name):
            calls[name] += 1
            return fn(c)
        monkeypatch.setattr(twist, name, counted)
    code, out = _run("check", FULL4_GF11, tmp_path, capsys)
    assert code == 0 and cli.parse_summary(out)["twist_ok"] == "true"
    assert calls == {"check_cocycle": 1, "twist_from_cocycle": 1}


def _run_limited(command, path, timeout=60, limit=1_500_000_000):
    """The CLI in a child process with an address space of limit bytes,
    stopped after timeout seconds."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                 else [])))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

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


def test_reconstruct_charges_the_rebuilt_class_table(tmp_path):
    # GF(3)[C9] fails LBH, so G′ has 6,561 classes on one object and
    # 6,561² composable pairs, past the default cap: they are charged
    # before to_twist allocates a row, within 5 s and a 1 GB address space
    path = tmp_path / "input.txt"
    path.write_text("[ring]\ngf(3,1)\n[groupoid]\ngroup(cyclic(9))\n"
                    "[cocycle]\ntrivial\n")
    result = _run_limited("reconstruct", path, timeout=5, limit=1_000_000_000)
    assert result.returncode == 2, result.stderr
    assert result.stderr == "cap exceeded: search size 43046721 exceeds " \
                            "cap 1000000\n"


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


@pytest.mark.parametrize("groupoid, size", [
    ("group(cyclic(1000))", str(3 ** 1000)), ("full_relation(96)", "of 14608 bits")],
    ids=["cyclic1000", "full96"])
def test_classify_exits_on_the_cap_before_building_A(groupoid, size, tmp_path):
    # each table is under the default cap, but |A| = 3^1000 and 3^9216 are
    # not: |A| is charged as soon as the arrows are read, so the algebra's
    # structure constants are never built and the command exits 2 within a
    # 400 MB address space.  3^9216 has more than 4300 digits, past what
    # Python converts to a string, so the message gives its bits
    path = tmp_path / "input.txt"
    path.write_text(f"[ring]\ngf(3,1)\n[groupoid]\n{groupoid}\n"
                    "[cocycle]\ntrivial\n")
    result = _run_limited("classify", path, timeout=30, limit=400_000_000)
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"cap exceeded: search size {size} exceeds cap " \
                            "1000000\n"


def test_classify_on_m11_gf3_does_not_list_B(tmp_path):
    # |B| = 3^11: B's atoms are its pivot rows, so B is not listed and the
    # command runs within a 200 MB address space, with the cap lifted past
    # |A| = 3^121
    path = tmp_path / "input.txt"
    path.write_text("[ring]\ngf(3,1)\n[groupoid]\nfull_relation(11)\n"
                    f"[cocycle]\ntrivial\n[options]\ncap = {3 ** 121}\n")
    result = _run_limited("classify", path, timeout=30, limit=200_000_000)
    assert result.returncode == 0, result.stderr
    summary = cli.parse_summary(result.stdout)
    assert len(summary) == 8 and set(summary.values()) == {"true"}


def test_classify_on_m16_gf3_keeps_to_100_mb(tmp_path):
    # B has 2^16 idempotents, but classify reads its 16 atoms alone, so
    # with the cap lifted past |A| = 3^256 the command runs within a 100 MB
    # address space
    path = tmp_path / "input.txt"
    path.write_text("[ring]\ngf(3,1)\n[groupoid]\nfull_relation(16)\n"
                    f"[cocycle]\ntrivial\n[options]\ncap = {3 ** 256}\n")
    result = _run_limited("classify", path, timeout=60, limit=100_000_000)
    assert result.returncode == 0, result.stderr
    summary = cli.parse_summary(result.stdout)
    assert len(summary) == 8 and set(summary.values()) == {"true"}


def test_classify_on_gf3_c16_keeps_to_200_mb(tmp_path):
    # |A| = 3^16: the flags are read off the unit census of GF(3)[C16],
    # and none of its units is listed, so with the cap lifted the command
    # runs within a 200 MB address space.  The ring has nontrivial units,
    # and C16 is not principal, so ADP, ACP and AQP are false
    path = tmp_path / "input.txt"
    path.write_text("[ring]\ngf(3,1)\n[groupoid]\ngroup(cyclic(16))\n"
                    f"[cocycle]\ntrivial\n[options]\ncap = {3 ** 16}\n")
    result = _run_limited("classify", path, timeout=30, limit=200_000_000)
    assert result.returncode == 0, result.stderr
    summary = cli.parse_summary(result.stdout)
    assert [key for key, value in summary.items() if value == "false"] == \
        ["adp", "acp", "aqp"]


def _union_text(ring, G):
    """classify's input for G in the explicit form, with the trivial
    cocycle."""
    obj = {x: f"x{i}" for i, x in enumerate(G.objects)}
    arrow = {a: f"a{i}" for i, a in enumerate(G.arrows)}
    return "\n".join(
        ["[ring]", ring, "[groupoid]", "objects = " + " ".join(obj.values())]
        + [f"{arrow[a]} : {obj[G.src[a]]} -> {obj[G.rng[a]]}" for a in G.arrows]
        + [f"{arrow[a]} . {arrow[b]} = {arrow[ab]}"
           for a, b, ab in G.composable_pairs()]
        + ["[cocycle]", "trivial", ""])


_PARTS = [gpd.full_relation(n) for n in (1, 2, 3)] + \
    [gpd.cyclic_group(m).groupoid for m in (2, 3, 4)]
_UNIONS = _PARTS + [gpd.disjoint_union(G, H)
                    for i, G in enumerate(_PARTS) for H in _PARTS[i:]]


@pytest.mark.parametrize("ring, size, principal", [
    ("gf(2,1)", 2, {True, False}), ("gf(3,1)", 3, {True, False}),
    # 1 + 2·δ_g is a nontrivial unit of Z/4[C_m], so over Z/4 only the
    # principal bases are AQP
    ("zmod(4)", 4, {True})])
def test_classify_checks_the_geometry_of_generated_bases(
        ring, size, principal, tmp_path, capsys):
    # classify asserts ADP iff the base is principal and ACP iff it is
    # effective wherever AQP holds, so each union under the default cap on
    # |A| exits 0; seen collects, over the AQP unions, whether ADP and ACP
    # hold, and principal and other bases both occur where the ring allows
    seen = set()
    for G in _UNIONS:
        if size ** len(G.arrows) > 10 ** 6:
            continue
        code, out = _run("classify", _union_text(ring, G), tmp_path, capsys)
        assert code == 0, G.name
        flags = cli.parse_summary(out)
        if flags["aqp"] == "true":
            seen.add(flags["adp"] == flags["acp"] == "true")
    assert seen == principal


@pytest.mark.parametrize("name", ["is_principal", "is_effective"])
def test_a_wrong_geometry_is_a_theorem_failure(name, tmp_path, capsys,
                                               monkeypatch):
    # full_relation(2) over GF(3) is AQP on a principal base: a predicate
    # that reads the other way makes classify exit 1
    monkeypatch.setattr(pairs, name,
                        lambda G, fn=getattr(gpd, name): not fn(G))
    path = tmp_path / "input.txt"
    path.write_text(CLASSIFY_PAIR2)
    assert cli.main(["classify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("theorem verification failure:")


@pytest.mark.parametrize("text", [
    # an abstract pair: reconstruct needs a groupoid+cocycle input
    "[ring]\ngf(2,1)\n[algebra]\nbasis = " + " ".join(f"b{i}" for i in range(20))
    + "\nb0 * b0 = b0\n[pair]\nsub_basis = b0\n",
    # a pair that fails WT: over Z/6, 2·(3·δ_0) = 0 with 3·δ_0 idempotent
    "[ring]\nzmod(6)\n[groupoid]\ngroup(cyclic(8))\n[cocycle]\ntrivial\n"],
    ids=["abstract", "not_wt"])
def test_reconstruct_charges_A_before_its_input_errors(text, tmp_path, capsys):
    # |A| = 2^20 and 6^8 exceed the default cap, which is charged before
    # reconstruct refuses an abstract pair or a pair that fails WT; under a
    # cap of 10^7 the input is refused
    assert _run("reconstruct", text, tmp_path, capsys)[0] == 2
    text += "[options]\ncap = 10000000\n"
    assert _run("reconstruct", text, tmp_path, capsys)[0] == 3


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


@pytest.mark.parametrize("ring, n, units", [
    ("gf(5,1)", 12, "84934656"), ("gf(2,1)", 30, "331776000"),
    ("zmod(9)", 6, "236196")], ids=["gf5_c12", "gf2_c30", "z9_c6"])
def test_units_are_counted_at_the_default_cap(ring, n, units, tmp_path):
    # 5^12 and 2^30 elements are past the default cap, and each ring is
    # counted, not listed.  GF(5)[C12] ≅ GF(5)⁴ × GF(25)⁴ has 4⁴·24⁴
    # units; GF(2)[C30] = GF(2)[C15][y]/(y − 1)², with GF(2)[C15] ≅
    # GF(2) × GF(4) × GF(16)³, has 2^15·1·3·15³; Z/9[C6] has 3^6 times
    # the 324 units of GF(3)[C6]
    path = tmp_path / "input.txt"
    path.write_text(_units_text(ring, n))
    result = _run_limited("units", path, timeout=10)
    assert result.returncode == 0, result.stderr
    assert cli.parse_summary(result.stdout)["units"] == units


def test_units_of_a_large_group_ring_exit_on_the_cap(tmp_path):
    # the count of GF(2)[C100] is charged 100⁴ ring operations before
    # its first product
    path = tmp_path / "input.txt"
    path.write_text(_units_text("gf(2,1)", 100))
    result = _run_limited("units", path, timeout=5)
    assert result.returncode == 2
    assert result.stderr == "cap exceeded: search size 100000000 exceeds " \
                            "cap 1000000\n"


def test_the_census_is_charged_before_the_group_ring_is_built(tmp_path):
    # GF(2)[C1000]: the product table fits the default cap, but the count
    # is charged 1000⁴ before H's table and T's 10⁶ structure constants
    path = tmp_path / "input.txt"
    path.write_text(_units_text("gf(2,1)", 1000))
    result = _run_limited("units", path, timeout=10, limit=200_000_000)
    assert result.returncode == 2
    assert result.stderr == "cap exceeded: search size 1000000000000 " \
                            "exceeds cap 1000000\n"


KLEIN_BILINEAR = "[cocycle]\n" + "".join(
    f"c({a}, {b}) = 2\n" for a in ("1-0", "1-1") for b in ("0-1", "1-1"))


def _main(command, text, tmp_path, capsys):
    """(exit code, stderr) of the command on text."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = cli.main([command, str(path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("text, size", [
    (_units_text("gf(2,1)", 10), 10 ** 4),
    (_units_text("gf(3,1)", 4) + "[cocycle]\nc(1, 3) = 2\nc(3, 1) = 2\n"
     "c(2, 2) = 2\nc(2, 3) = 2\nc(3, 2) = 2\nc(3, 3) = 2\n", 4 ** 4),
    ("[ring]\ngf(3,1)\n[group]\nklein\n" + KLEIN_BILINEAR, 3 ** 4),
], ids=["count", "symmetric-cocycle", "bilinear"])
def test_the_census_charge_is_the_first_charge_of_its_path(text, size,
                                                           tmp_path, capsys):
    # a cap one below the charge: count_units' len(local_factors)·|H|⁴ on a
    # commutative ring, enumerate_units' |R|^|H| on the bilinear twist of
    # C2×C2, whose ring is not commutative
    assert _main("units", text + f"[options]\ncap = {size - 1}\n",
                 tmp_path, capsys) == \
        (2, f"cap exceeded: search size {size} exceeds cap {size - 1}\n")
    assert _main("units", text + f"[options]\ncap = {size}\n",
                 tmp_path, capsys) == (0, "")


@pytest.mark.parametrize("cocycle, error", [
    ("c(1, 1) = 7\n", "line 6: unknown ring element '7'"),
    ("c(1, 1) = 0\n", "cocycle invalid: "),
], ids=["malformed", "not-a-cocycle"])
def test_a_faulty_cocycle_is_refused_before_the_census_charge(
        cocycle, error, tmp_path, capsys):
    # Z/3[C100] is past the cap, but its [cocycle] is refused first
    code, err = _main("units", _units_text("zmod(3)", 100) + "[cocycle]\n" +
                      cocycle, tmp_path, capsys)
    assert code == 3
    assert err.startswith("input error: " + error)


def _zmod_tables(n):
    """Z/n as a [ring.tables] section, which charges no table to the cap."""
    rows = [f"{op}: {a} {b} = {f(a, b) % n}" for op, f in
            (("add", int.__add__), ("mul", int.__mul__))
            for a in range(n) for b in range(n)]
    return "\n".join(["[ring.tables]", "elements = " +
                      " ".join(map(str, range(n))), "zero = 0", "one = 1",
                      *rows, ""])


@pytest.mark.parametrize("cap, code", [(18, 2), (19, 0)])
def test_the_witness_walk_is_charged_to_the_cap(cap, code, tmp_path):
    # Z/16[C2]: a + b·δ_1 is a unit iff a + b is odd, so the witness
    # 1·δ_0 + 2·δ_1 is the 19th element in order; the count charges only
    # 2⁴, so the walk to the witness is what the cap of 18 stops
    path = tmp_path / "input.txt"
    path.write_text(_zmod_tables(16) + f"[group]\ncyclic(2)\n"
                    f"[options]\ncap = {cap}\n")
    result = _run_limited("units", path, timeout=10)
    assert result.returncode == code, result.stderr
    if code:
        assert result.stderr == "cap exceeded: search size 19 exceeds " \
                                "cap 18\n"
    else:
        assert "nontrivial witness: 1·δ[0] + 2·δ[1]\n" in result.stdout


@pytest.mark.parametrize("cap, code", [(None, 2), (150 ** 3, 3)])
def test_naming_the_faults_of_large_tables_is_charged_to_the_cap(
        cap, code, tmp_path):
    # Z/150 with 2·3 = 3·2 = 7: the exact check fails at once, and naming
    # a fault walks up to 150³ triples, which exceed the default cap
    text = _zmod_tables(150)
    for row in ("mul: 2 3 = 6", "mul: 3 2 = 6"):
        text = text.replace(f"\n{row}\n", f"\n{row[:-1]}7\n")
    path = tmp_path / "input.txt"
    path.write_text(text + "[group]\ncyclic(2)\n" +
                    (f"[options]\ncap = {cap}\n" if cap else ""))
    result = _run_limited("units", path, timeout=30)
    assert (result.returncode, result.stderr) == (code, {
        2: "cap exceeded: search size 3375000 exceeds cap 1000000\n",
        3: "input error: ring tables violate the ring axioms: "
           "distributivity fails at (2,1,2)\n"}[code])


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


RING_TABLES_GF2 = """\
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

def test_ring_tables_input(tmp_path, capsys):
    code, out = _run("classify", RING_TABLES_GF2, tmp_path, capsys)
    assert code == 0
    assert cli.parse_summary(out)["aqp"] == "true"


def test_check_validates_ring_tables_once(tmp_path, capsys, monkeypatch):
    # build_ring refuses tables that fail validate_ring, so check reports
    # that verdict instead of validating the tables again
    calls = []

    def counted(R, *args, fn=finring.validate_ring):
        calls.append(R)
        return fn(R, *args)

    monkeypatch.setattr(finring, "validate_ring", counted)
    code, out = _run("check", RING_TABLES_GF2, tmp_path, capsys)
    assert code == 0 and cli.parse_summary(out)["ring_ok"] == "true"
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["classify", "units"])
def test_ring_and_ring_tables_together_are_refused(tmp_path, capsys,
                                                   command):
    # the tables would be read and the [ring] row dropped unseen
    text = "[ring]\ngf(3,1)\n" + RING_TABLES_GF2
    if command == "units":
        text = text.split("[groupoid]")[0] + "[group]\ncyclic(2)\n"
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 3
    assert capsys.readouterr() == (
        "", "input error: give either [ring] or [ring.tables], not both\n")


@pytest.mark.parametrize("rows", [["trivial", "c(1, 1) = 4"],
                                  ["c(1, 1) = 4", "trivial"]])
def test_a_trivial_cocycle_with_values_is_refused(tmp_path, capsys, rows):
    # the second of the two rows, on line 7, contradicts the first
    text = "\n".join(["[ring]", "gf(5,1)", "[groupoid]", "group(cyclic(2))",
                      "[cocycle]", *rows]) + "\n"
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert cli.main(["classify", str(path)]) == 3
    assert capsys.readouterr() == ("", "input error: line 7: [cocycle] gives "
                                   "both trivial and c(a, b) rows\n")


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


def test_unknown_command_rejected(tmp_path, capsys):
    # a bad command line is malformed input: exit 3, not argparse's 2,
    # which is the cap's code
    assert cli.main(["frobnicate", "x.txt"]) == 3
    assert capsys.readouterr().err.startswith(
        "input error: argument command: invalid choice: 'frobnicate'")


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


# name -> (command, input, the one line of its input error): a section or
# row missing, a label that names nothing, or tables and cocycles that are
# not what they claim
REFUSED = {
    "tables_without_one": ("check", RING_TABLES_GF2.replace("one = 1\n", ""),
                           "[ring.tables] needs elements, zero and one"),
    "tables_entry_missing": ("check", RING_TABLES_GF2.replace(
        "mul: 1 1 = 1\n", ""), "[ring.tables] missing entry for ('1', '1')"),
    "tables_zero_is_one": ("check", RING_TABLES_GF2.replace("one = 1", "one = 0"),
                           "[ring.tables]: ring must be nontrivial (zero != one)"),
    "tables_not_a_ring": ("check", RING_TABLES_GF2.replace(
        "mul: 1 1 = 1", "mul: 1 1 = 0"), "ring tables violate the ring "
        "axioms: one not multiplicative identity at 1"),
    "upp_group": ("upp", UPP_SUBGROUP.replace("cyclic(4)", "dihedral(4)"),
                  "cannot parse group spec 'dihedral(4)'"),
    "no_objects_row": ("check", EXPLICIT_C2_GF5.replace("objects = x\n", ""),
                       "[groupoid] needs an objects row"),
    "compare_non_unit": ("compare", COMPARE_GF5.replace("c(1, 1) = 4",
                                                        "c(1, 1) = 0"),
                         "cocycle invalid: value at (1, 1) is not a unit"),
    "no_cocycle": ("classify", CLASSIFY_PAIR2.replace("[cocycle]\ntrivial\n",
                                                      ""),
                   "missing [cocycle] section"),
    "not_composable": ("classify", CLASSIFY_PAIR2.replace(
        "trivial", "c(1-2, 1-2) = 1"), "line 6: pair (1-2,1-2) is not composable"),
    "product_label": ("classify", ABSTRACT_PAIR.replace("n * n = 0", "n * n = m"),
                      "line 8: unknown basis label 'm'"),
    "no_basis_row": ("classify", ABSTRACT_PAIR.replace("basis = e n\n", ""),
                     "[algebra] needs a basis row"),
    "factor_label": ("classify", ABSTRACT_PAIR.replace("n * n = 0", "m * n = 0"),
                     "line 8: unknown basis label"),
    "not_associative": ("classify", ABSTRACT_PAIR.replace(
        "e * e = e", "e * e = n"), "structure constants not associative "
        "at (0,0,1)"),
    "no_pair": ("classify", ABSTRACT_PAIR.split("[pair]")[0],
                "[pair] needs a sub_basis row"),
    "sub_basis_not_closed": ("classify", ABSTRACT_PAIR.replace(
        "sub_basis = e", "sub_basis = e + n"),
        "sub_basis span is not closed under multiplication"),
    "twist_and_algebra": ("classify", ABSTRACT_PAIR + "[groupoid]\n"
                          "full_relation(1)\n",
                          "give either groupoid+cocycle or algebra+pair, not both"),
    "upp_rank": ("upp", UPP_SUBGROUP.replace("group = cyclic(4)",
                                             "group = klein"),
                 "subset element '0' has wrong rank"),
    "upp_outside": ("upp", UPP_SUBGROUP.replace("A = 0 2", "A = 0 5"),
                    "subset element outside cyclic(4)"),
}


@pytest.mark.parametrize("command, text, message", list(REFUSED.values()),
                         ids=list(REFUSED))
def test_each_refusal_is_one_input_error_line(command, text, message,
                                              tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 3
    assert capsys.readouterr() == ("", f"input error: {message}\n")


GF3_SQUARED = """\
[ring]
gf(3,1)
[algebra]
basis = e f
e * e = e
f * f = f
e * f = 0
f * e = 0
[pair]
sub_basis = e
"""


def test_an_idempotent_that_is_no_identity_is_classified(tmp_path, capsys):
    # B = span(e) in GF(3)²: the identity e + f of A is not in B, so the
    # pair lacks local units and its expectation is tested on I(B)
    code, out = _run("classify", GF3_SQUARED, tmp_path, capsys)
    summary = cli.parse_summary(out)
    assert code == 0
    assert (summary["local_units"], summary["a_spanned_by_normalisers"],
            summary["faithful_ce_exists"]) == ("false", "true", "false")


def test_a_nilpotent_sub_basis_warns_that_wt_is_vacuous(tmp_path, capsys):
    code, out = _run("classify", ABSTRACT_PAIR.replace("sub_basis = e",
                                                       "sub_basis = n"),
                     tmp_path, capsys)
    assert code == 0
    assert "  warning: I(B) = {0}: (WT) holds vacuously\n" in out


# name -> (command, input, its row, the second row for the same key)
REPEATED_ROWS = {
    "cocycle": ("classify", COMPARE_GF5.replace("c(1, 1) = 4", "c(1,1) = 2"),
                "c(1,1) = 2", "c(1, 1) = 1"),
    "objects": ("classify", EXPLICIT_C2_GF5, "objects = x", "objects = x y"),
    "compose": ("check", EXPLICIT_C2_GF5, "g . g = e", "g . g = g"),
    "add_table": ("classify", RING_TABLES_GF2, "add: 1 1 = 0", "add: 1 1 = 1"),
    "zero": ("classify", RING_TABLES_GF2, "zero = 0", "zero = 1"),
    "product": ("classify", ABSTRACT_PAIR, "n * n = 0", "n * n = n"),
    "basis": ("classify", ABSTRACT_PAIR, "basis = e n", "basis = n e"),
    "sub_basis": ("classify", ABSTRACT_PAIR, "sub_basis = e", "sub_basis = n"),
    "upp": ("upp", UPP_Z, "A = 0 1 5", "A = 0"),
    "cap": ("classify", CLASSIFY_PAIR2 + "[options]\ncap = 10\n", "cap = 10",
            "cap = 1000"),
    # one pair of arrows written two ways: pairs are keyed by the arrows
    "cocycle_pair_spelling": (
        "classify", CLASSIFY_PAIR2.replace("(2)", "(3)").replace(
            "trivial", "c(01-2, 2-3) = 1"),
        "c(01-2, 2-3) = 1", "c(1-2, 2-3) = 1"),
}


@pytest.mark.parametrize("command, text, row, again",
                         list(REPEATED_ROWS.values()), ids=list(REPEATED_ROWS))
def test_a_key_given_twice_in_a_section_is_refused(command, text, row, again,
                                                   tmp_path, capsys):
    # the later row would silently replace the earlier one
    lines = text.splitlines()
    first = lines.index(row) + 1
    lines.insert(first, again)
    path = tmp_path / "input.txt"
    path.write_text("\n".join(lines) + "\n")
    code = cli.main([command, str(path)])
    key = again.split("=", 1)[0].strip()
    assert (code, capsys.readouterr().err) == (
        3, f"input error: line {first + 1}: {key} is given twice, "
           f"first on line {first}\n")


# name -> (command, input, the line refused): rows that the row grammar
# does not accept, each of which a reader that matched keys by prefix or
# skipped unknown rows and sections read as some other input
UNREAD = {
    "pair_row": ("classify", ABSTRACT_PAIR + "this row is ignored\n", 11),
    "after_full_relation": ("classify", CLASSIFY_PAIR2.replace(
        "full_relation(2)\n", "full_relation(2)\nthis is not a row\n"), 5),
    "objects_after_full_relation": ("classify", CLASSIFY_PAIR2.replace(
        "full_relation(2)\n", "full_relation(2)\nobjects = x\n"), 4),
    "basis_prefix": ("classify", ABSTRACT_PAIR.replace(
        "basis = e n", "basis_of_mine = e n"), 4),
    "sub_basis_prefix": ("classify", ABSTRACT_PAIR.replace(
        "sub_basis = e", "sub_basisx = e"), 10),
    "objects_prefix": ("classify", EXPLICIT_C2_GF5.replace(
        "objects = x", "objectsX = x"), 4),
    "elements_prefix": ("classify", RING_TABLES_GF2.replace(
        "elements = 0 1", "elements_x = 0 1"), 2),
    "one_prefix": ("classify", RING_TABLES_GF2.replace("one = 1", "oneish = 1"),
                   4),
    "upp_prefix": ("upp", UPP_Z.replace("A = 0 1 5", "Alpha = (0) (1)"), 3),
    "unknown_section": ("classify", CLASSIFY_PAIR2 + "[optoins]\ncap = 10\n", 7),
    "bracket_row": ("classify", CLASSIFY_PAIR2 + "[options] cap = 10\n", 7),
}


@pytest.mark.parametrize("command, text, line", list(UNREAD.values()),
                         ids=list(UNREAD))
def test_a_row_outside_the_grammar_is_refused(command, text, line, tmp_path,
                                              capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"input error: line {line}: ")


def test_a_trailing_comment_is_not_read(tmp_path, capsys):
    commented = CLASSIFY_PAIR2.replace("full_relation(2)",
                                       "full_relation(2)  # two objects")
    assert _run("classify", commented, tmp_path, capsys) == \
        _run("classify", CLASSIFY_PAIR2, tmp_path, capsys)


GRAMMAR_CAP = 1000
# section -> a row of one of its forms, drawn from the form's pattern in
# printable ASCII without the comment sign, so that it stays one row
GRAMMAR_ROWS = {
    name: st.one_of([st.from_regex(pattern, fullmatch=True, alphabet=st.characters(
        min_codepoint=32, max_codepoint=126, exclude_characters="#"))
        for pattern in forms.values()])
    for name, forms in cli.SECTIONS.items()}
GRAMMAR_BASES = [CLASSIFY_PAIR2, ABSTRACT_PAIR, EXPLICIT_C2_GF5, RING_TABLES_GF2,
                 UNITS_Z4 + "[cocycle]\nc(1, 1) = 3\n", UPP_Z, COMPARE_GF5]


@st.composite
def _grammar_documents(draw):
    """An input of the suite with up to three rows of the grammar inserted,
    each drawn for the section it lands in, a line dropped or a line of
    any text inserted."""
    lines = draw(st.sampled_from(GRAMMAR_BASES)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        headers = [line[1:-1] for line in lines[:at] if line.startswith("[")]
        lines.insert(at, draw(GRAMMAR_ROWS[headers[-1] if headers else "ring"]))
    if draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=20)))
    return "\n".join(lines) + "\n"


def _built(build, *args):
    """build(*args), or None where it refuses the input or meets the cap."""
    try:
        return build(*args)
    except (cli.InputError, cli.CapExceeded):
        return None


@settings(max_examples=120)
@given(_grammar_documents())
def test_a_document_of_the_grammar_is_built_or_refused(text):
    # the fuzz seed of the input format: whatever rows the table accepts,
    # parsing and every builder end in a value, InputError or CapExceeded
    doc = _built(cli.parse_input, text)
    if doc is None:
        return
    _built(cli.get_options, doc)
    for command in ("units", "upp"):
        _built(cli.COMMANDS[command], doc, GRAMMAR_CAP, False)
    R = _built(cli.build_ring, doc, GRAMMAR_CAP)
    if R is None:
        return
    _built(cli.build_abstract_pair, doc, R, GRAMMAR_CAP)
    for groupoid, cocycle in (("groupoid", "cocycle"), ("groupoid2", "cocycle2")):
        G = _built(cli.build_groupoid, doc, groupoid, GRAMMAR_CAP)
        if G is not None:
            _built(cli.build_cocycle, doc, R, G, cocycle)


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _readme_examples():
    """(command, input) of each block under README's "Example inputs": the
    command is the first one the text before the block names."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("### Example inputs\n", 1)[1]
    parts = re.split(r"\n#+ ", section, maxsplit=1)[0].split("```")
    names = re.compile(r"\b(" + "|".join(cli.COMMANDS) + r")\b", re.IGNORECASE)
    return [(names.search(prose).group(1).lower(), block.lstrip("\n"))
            for prose, block in zip(parts[0::2], parts[1::2])]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command, text", README_EXAMPLES, ids=[
    f"{i}-{command}" for i, (command, _) in enumerate(README_EXAMPLES)])
def test_the_readme_examples_run(command, text, tmp_path, capsys):
    code, _ = _run(command, text, tmp_path, capsys)
    assert code == 0
