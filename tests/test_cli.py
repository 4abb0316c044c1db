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


def test_units(tmp_path, capsys):
    code, out = _run("units", UNITS_Z4, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["units"] == "8"
    assert summary["nontrivial_units"] == "4"
    assert "witness" in out


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


def test_compare(tmp_path, capsys):
    code, out = _run("compare", COMPARE_GF5, tmp_path, capsys)
    assert code == 0
    summary = cli.parse_summary(out)
    assert summary["isomorphic"] == "true"


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
