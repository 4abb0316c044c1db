import collections

import pytest

from quasicartan import cli, pairs, twist


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
    assert cli.parse_summary(out)["isomorphic"] == "false"


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
    # witness is checked too; every stage shares the one pair and twist
    calls = collections.Counter()
    for module, name in ((pairs, "pair_from_twist"),
                         (twist, "twist_from_cocycle")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    code, out = _run("reconstruct", CLASSIFY_Z2_Z4, tmp_path, capsys)
    assert code == 0
    assert cli.parse_summary(out)["lbh"] == "false"
    assert calls == {"pair_from_twist": 1, "twist_from_cocycle": 1}


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
