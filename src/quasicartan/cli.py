"""Command line front end: a small sectioned input format plus the
check / classify / reconstruct / units / upp / compare commands.

Exit codes: 0 success, 1 a verified theorem failed to hold (should never
happen), 2 an enumeration cap was exceeded, 3 malformed input.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import finring, groupoid as gpd, grouprings, pairs as pairs_mod, \
    reconstruct, steinberg, twist as twist_mod
from .finring import CapExceeded, DEFAULT_CAP, InputError


class InputDocument:
    def __init__(self):
        self.sections = {}   # name -> list of (lineno, text)


def parse_input(text):
    doc = InputDocument()
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"\[([a-zA-Z0-9_.]+)\]", line)
        if m:
            current = m.group(1)
            doc.sections.setdefault(current, [])
            continue
        if current is None:
            # allow a bare top-level `ring = ...` row
            if line.startswith("ring"):
                doc.sections.setdefault("ring", []).append((lineno, line))
                continue
            raise InputError(f"line {lineno}: content before any [section]")
        doc.sections[current].append((lineno, line))
    return doc


def _section_value(doc, name):
    rows = doc.sections.get(name, [])
    if len(rows) != 1:
        return None
    return rows[0][1]


def _once(seen, key, lineno, line):
    """Record the key of a row in seen; a key given twice in one section
    is malformed, as the later row would replace the earlier one."""
    if key in seen:
        raise InputError(f"line {lineno}: {line.split('=', 1)[0].strip()} "
                         f"is given twice, first on line {seen[key]}")
    seen[key] = lineno


def _int(digits):
    """int() of a matched digit string; past Python's conversion limit
    (4300 digits) the input is malformed."""
    try:
        return int(digits)
    except ValueError as exc:
        raise InputError(str(exc))


def _check_size(size, cap):
    """Refuse a table of size entries before it is allocated."""
    if size > cap:
        raise CapExceeded(size, cap)


def build_ring(doc, cap=DEFAULT_CAP):
    rows = doc.sections.get("ring")
    tables = doc.sections.get("ring.tables")
    if tables is not None:
        return _ring_from_tables(tables)
    if not rows:
        raise InputError("missing [ring] section")
    if len(rows) != 1:
        raise InputError(f"line {rows[1][0]}: [ring] takes a single row")
    lineno, line = rows[0]
    try:
        # the add and mul tables have |R|² entries each
        m = re.fullmatch(r"(?:ring\s*=\s*)?zmod\((\d+)\)", line)
        if m:
            n = int(m.group(1))
            _check_size(n * n, cap)
            return finring.make_zmod(n)
        m = re.fullmatch(r"(?:ring\s*=\s*)?gf\((\d+)\s*,\s*(\d+)\)", line)
        if m:
            p, k = int(m.group(1)), int(m.group(2))
            # past cap.bit_length() the power already exceeds the cap
            _check_size(p ** (2 * min(k, cap.bit_length())), cap)
            return finring.make_gf(p, k)
    except ValueError as exc:
        raise InputError(f"line {lineno}: {exc}")
    raise InputError(f"line {lineno}: cannot parse ring spec {line!r}")


def _ring_from_tables(rows):
    elements, zero, one = None, None, None
    add_rows, mul_rows, seen = {}, {}, {}
    for lineno, line in rows:
        if line.startswith("elements"):
            _once(seen, "elements", lineno, line)
            elements = line.split("=", 1)[1].split()
        elif line.startswith("zero"):
            _once(seen, "zero", lineno, line)
            zero = line.split("=", 1)[1].strip()
        elif line.startswith("one"):
            _once(seen, "one", lineno, line)
            one = line.split("=", 1)[1].strip()
        else:
            m = re.fullmatch(r"(add|mul):\s*(\S+)\s+(\S+)\s*=\s*(\S+)", line)
            if not m:
                raise InputError(f"line {lineno}: bad table row {line!r}")
            _once(seen, m.group(1, 2, 3), lineno, line)
            table = add_rows if m.group(1) == "add" else mul_rows
            table[(m.group(2), m.group(3))] = m.group(4)
    if elements is None or zero is None or one is None:
        raise InputError("[ring.tables] needs elements, zero and one")
    index = {e: i for i, e in enumerate(elements)}
    try:
        add = [[index[add_rows[(a, b)]] for b in elements] for a in elements]
        mul = [[index[mul_rows[(a, b)]] for b in elements] for a in elements]
        R = finring.FiniteRing("custom", elements, add, mul, index[zero], index[one])
    except KeyError as missing:
        raise InputError(f"[ring.tables] missing entry for {missing}")
    except ValueError as exc:
        raise InputError(f"[ring.tables]: {exc}")
    bad = finring.validate_ring(R)
    if bad:
        raise InputError("ring tables violate the ring axioms: " + bad[0])
    return R


def _parse_group(spec, cap=DEFAULT_CAP):
    m = re.fullmatch(r"cyclic\(([1-9]\d*)\)", spec)
    if m:
        n = _int(m.group(1))
        _check_size(n * n, cap)  # the product table
        return gpd.cyclic_group(n)
    if spec == "klein":
        return gpd.direct_product_group(gpd.cyclic_group(2), gpd.cyclic_group(2))
    raise InputError(f"cannot parse group spec {spec!r}")


def _arrow_token(token, G):
    token = token.strip()
    m = re.fullmatch(r"(\d+)-(\d+)", token)
    if m:
        arrow = (_int(m.group(1)), _int(m.group(2)))
    else:
        try:
            arrow = int(token)
        except ValueError:
            arrow = token
    if arrow not in G.src:  # keyed by the arrows
        raise InputError(f"unknown arrow {token!r}")
    return arrow


def build_groupoid(doc, section="groupoid", cap=DEFAULT_CAP):
    rows = doc.sections.get(section)
    if not rows:
        raise InputError(f"missing [{section}] section")
    first = rows[0][1]
    m = re.fullmatch(r"full_relation\(([1-9]\d*)\)", first)
    if m:
        n = _int(m.group(1))
        _check_size(n ** 3, cap)  # the composition table
        return gpd.full_relation(n)
    m = re.fullmatch(r"group\((.+)\)", first)
    if m:
        return gpd.group_as_groupoid(_parse_group(m.group(1), cap))
    # explicit form
    objects, arrows, src, rng, compose, seen = None, [], {}, {}, {}, {}
    for lineno, line in rows:
        if line.startswith("objects"):
            _once(seen, "objects", lineno, line)
            objects = line.split("=", 1)[1].split()
            continue
        m = re.fullmatch(r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)", line)
        if m:
            arrows.append(m.group(1))
            src[m.group(1)] = m.group(2)
            rng[m.group(1)] = m.group(3)
            continue
        m = re.fullmatch(r"(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)", line)
        if m:
            _once(seen, m.group(1, 2), lineno, line)
            compose[m.group(1, 2)] = m.group(3)
            continue
        raise InputError(f"line {lineno}: bad groupoid row {line!r}")
    if objects is None:
        raise InputError(f"[{section}] needs an objects row")
    try:
        return gpd.make_groupoid("custom", objects, arrows, src, rng, compose)
    except ValueError as exc:
        raise InputError(f"[{section}]: {exc}")


def build_cocycle(doc, R, G, section="cocycle"):
    """The cocycle of a section; InputError when it fails check_cocycle."""
    c = _parse_cocycle(doc, R, G, section)
    bad = twist_mod.check_cocycle(c)
    if bad:
        raise InputError("cocycle invalid: " + bad[0])
    return c


def _parse_cocycle(doc, R, G, section="cocycle"):
    """The cocycle of a section as written; ConvolutionAlgebra checks it."""
    rows = doc.sections.get(section)
    if rows is None:
        raise InputError(f"missing [{section}] section")
    values, seen = {}, {}
    for lineno, line in rows:
        if line == "trivial":
            continue
        m = re.fullmatch(r"c\((.+?)\s*,\s*(.+?)\)\s*=\s*(\S+)", line)
        if not m:
            raise InputError(f"line {lineno}: bad cocycle row {line!r}")
        a = _arrow_token(m.group(1), G)
        b = _arrow_token(m.group(2), G)
        if G.src[a] != G.rng[b]:
            raise InputError(f"line {lineno}: pair ({m.group(1)},{m.group(2)}) "
                             "is not composable")
        _once(seen, (a, b), lineno, line)
        values[(a, b)] = _ring_element(R, m.group(3), lineno)
    return twist_mod.Cocycle(R, G, values)


def _ring_element(R, label, lineno):
    try:
        return R.index(label)
    except ValueError:
        raise InputError(f"line {lineno}: unknown ring element {label!r}")


def _parse_combination(expr, labels, R, lineno):
    """Parse a `2*a + b` style linear combination over the algebra basis
    into a sparse {basis index: coefficient} dict."""
    out = {}
    for term in expr.split("+"):
        term = term.strip()
        if term == "0":
            continue
        coeff, star, label = term.rpartition("*")
        label = label.strip()
        if label not in labels:
            raise InputError(f"line {lineno}: unknown basis label {label!r}")
        i = labels.index(label)
        t = _ring_element(R, coeff.strip(), lineno) if star else R.one
        out[i] = R.add(out.get(i, R.zero), t)
    return out


def build_abstract_pair(doc, R, cap):
    rows = doc.sections.get("algebra")
    if not rows:
        raise InputError("missing [algebra] section")
    labels, product_rows, seen = None, [], {}
    for lineno, line in rows:
        if line.startswith("basis"):
            _once(seen, "basis", lineno, line)
            labels = line.split("=", 1)[1].split()
            if len(set(labels)) < len(labels):
                raise InputError(f"line {lineno}: a basis label is repeated")
        else:
            m = re.fullmatch(r"(\S+)\s*\*\s*(\S+)\s*=\s*(.+)", line)
            if not m:
                raise InputError(f"line {lineno}: bad algebra row {line!r}")
            _once(seen, m.group(1, 2), lineno, line)
            product_rows.append((lineno, m.group(1), m.group(2), m.group(3)))
    if labels is None:
        raise InputError("[algebra] needs a basis row")
    _check_size(R.size ** len(labels), cap)  # |A|, before A is built
    structure = {}
    for lineno, a, b, rhs in product_rows:
        if a not in labels or b not in labels:
            raise InputError(f"line {lineno}: unknown basis label")
        structure[(labels.index(a), labels.index(b))] = \
            _parse_combination(rhs, labels, R, lineno)
    try:
        A = pairs_mod.AbstractAlgebra("custom", R, labels, structure)
    except ValueError as exc:
        raise InputError(str(exc))
    sub_basis, seen = [], {}
    for lineno, line in doc.sections.get("pair", []):
        if line.startswith("sub_basis"):
            _once(seen, "sub_basis", lineno, line)
            sub_basis = [_parse_combination(e, labels, R, lineno)
                         for e in line.split("=", 1)[1].split(",")]
    if not sub_basis:
        raise InputError("[pair] needs a sub_basis row")
    try:
        return pairs_mod.Pair(
            A, [[v.get(i, R.zero) for i in range(A.dim)] for v in sub_basis],
            cap=cap)
    except ValueError as exc:
        raise InputError(str(exc))


def get_options(doc):
    cap, oracle, seen = DEFAULT_CAP, False, {}
    for lineno, line in doc.sections.get("options", []):
        m = re.fullmatch(r"(cap)\s*=\s*(\d+)|(oracle)\s*=\s*(on|off)", line)
        if not m:
            raise InputError(f"line {lineno}: bad options row {line!r}")
        _once(seen, m.group(1) or m.group(3), lineno, line)
        if m.group(1):
            cap = _int(m.group(2))
        else:
            oracle = m.group(4) == "on"
    return cap, oracle


def _flag(v):
    return "true" if v else "false"


def _build_pair(doc, cap):
    """Either a twist pair (groupoid+cocycle) or an abstract one.  |A| is
    charged to the cap as soon as the arrows or the basis are read, so
    a pair over the cap is refused before its algebra is built."""
    R = build_ring(doc, cap)
    if "algebra" in doc.sections:
        if "groupoid" in doc.sections or "cocycle" in doc.sections:
            raise InputError("give either groupoid+cocycle or algebra+pair, not both")
        return R, None, build_abstract_pair(doc, R, cap)
    G = build_groupoid(doc, cap=cap)
    _check_size(R.size ** len(G.arrows), cap)  # |A|, before A is built
    c = _parse_cocycle(doc, R, G)
    try:
        return R, c, pairs_mod.pair_from_twist(c, cap=cap)
    except pairs_mod.InvalidTwist as exc:
        raise InputError(str(exc))


def cmd_check(doc, cap, oracle):
    report, summary = [], {}
    R = build_ring(doc, cap)
    bad = finring.validate_ring(R)
    report.append(f"ring {R.name}: {'ok' if not bad else bad[0]}")
    summary["ring_ok"] = _flag(not bad)
    violations = len(bad)
    if "groupoid" in doc.sections:
        G = build_groupoid(doc, cap=cap)
        gb = gpd.validate_groupoid(G)
        violations += len(gb)
        report.append(f"groupoid {G.name}: {'ok' if not gb else gb[0]}")
        summary["groupoid_ok"] = _flag(not gb)
        if "cocycle" in doc.sections:
            c = _parse_cocycle(doc, R, G)
            cb = twist_mod.check_cocycle(c)
            violations += len(cb)
            report.append(f"cocycle: {'ok' if not cb else cb[0]}")
            summary["cocycle_ok"] = _flag(not cb)
            # twist_from_cocycle refuses an invalid cocycle
            if not cb:
                # the explicit twist has |G|·|R^×| arrows and
                # |compose|·|R^×|² composites
                n = len(finring.ring_units(R))
                pairs = sum(1 for _ in G.composable_pairs())
                _check_size((pairs * n + len(G.arrows)) * n, cap)
                tb = twist_mod.check_twist_axioms(twist_mod.twist_from_cocycle(c))
                violations += len(tb)
                report.append(f"twist axioms: {'ok' if not tb else tb[0]}")
                summary["twist_ok"] = _flag(not tb)
    summary["ok"] = _flag(violations == 0)
    return report, summary, 0 if violations == 0 else 1


def cmd_classify(doc, cap, oracle):
    R, c, pair = _build_pair(doc, cap)
    flags = pair.classify()
    report = [f"pair over {R.name}: classification"]
    summary = {}
    for key in ("WT", "local_units", "B_spanned_by_idempotents",
                "A_spanned_by_normalisers", "faithful_CE_exists",
                "ADP", "ACP", "AQP"):
        report.append(f"  {key} = {_flag(flags[key])}")
        summary[key.lower()] = _flag(flags[key])
    for w in flags.get("warnings", []):
        report.append(f"  warning: {w}")
    return report, summary, 0


def cmd_reconstruct(doc, cap, oracle):
    R, c, pair = _build_pair(doc, cap)
    if c is None:
        raise InputError("reconstruct needs a groupoid+cocycle input")
    # the points are rebuilt only under WT; classify reports it as a flag
    if not pair.satisfies_wt()[0]:
        raise InputError("reconstruct needs a pair that satisfies WT, "
                         "the nondegeneracy condition")
    res = reconstruct.verify_reconstruction_theorem(pair)
    report = [
        f"twist over {c.groupoid.name}, coefficients {R.name}",
        f"original twist points: {res['sigma_points']}",
        f"rebuilt twist points: {res['sigma_prime_points']}",
        f"rebuilt base arrows: {res['g_prime_arrows']}",
        f"embedding injective: {_flag(res['phi_injective'])}, "
        f"surjective: {_flag(res['phi_surjective'])}",
        f"quasi-Cartan: {_flag(res['aqp'])}; "
        f"local bisection hypothesis: {_flag(res['lbh'])}",
    ]
    if not res["phi_surjective"]:
        report.append("embedding misses some rebuilt points; "
                      "pair is not quasi-Cartan")
    summary = {
        "aqp": _flag(res["aqp"]),
        "lbh": _flag(res["lbh"]),
        "phi_injective": _flag(res["phi_injective"]),
        "phi_surjective": _flag(res["phi_surjective"]),
        "sigma_points": str(res["sigma_points"]),
        "sigma_prime_points": str(res["sigma_prime_points"]),
        "g_prime_arrows": str(res["g_prime_arrows"]),
        "consistent": _flag(res["consistent"]),
    }
    return report, summary, 0 if res["consistent"] else 1


def cmd_units(doc, cap, oracle):
    R = build_ring(doc, cap)
    spec = _section_value(doc, "group")
    if spec is None:
        raise InputError("units needs a [group] section with one row")
    H = _parse_group(spec, cap)
    values = None
    if "cocycle" in doc.sections:
        c = _parse_cocycle(doc, R, gpd.group_as_groupoid(H))
        values = {(a, b): c.value(a, b) for a, b in H.mul}
    try:
        T = grouprings.TwistedGroupRing(R, H, values)
    except pairs_mod.InvalidTwist as exc:
        raise InputError(str(exc))
    units, trivial, witness = grouprings.unit_census(T, cap=cap, oracle=oracle)
    report = [f"group ring of {H.name} over {R.name}: "
              f"{units} units, {units - trivial} nontrivial"]
    if witness is not None:
        pretty = " + ".join(f"{R.label(v)}·δ[{g}]" for g, v in
                            zip(H.elements, witness) if v != R.zero)
        report.append(f"nontrivial witness: {pretty}")
    summary = {"units": str(units), "trivial_units": str(trivial),
               "nontrivial_units": str(units - trivial)}
    return report, summary, 0


def _parse_subset(line, rank):
    """The elements of an [upp] A or B row as integer tuples of length rank."""
    out = []
    for token in line.split("=", 1)[1].split():
        parts = token.strip("()").split(",")
        if len(parts) != rank:
            raise InputError(f"subset element {token!r} has wrong rank")
        try:
            out.append(tuple(int(p) for p in parts))
        except ValueError:
            raise InputError(f"subset element {token!r} is not an integer")
    if not out:
        raise InputError("empty subset")
    return out


def cmd_upp(doc, cap, oracle):
    rows = doc.sections.get("upp")
    if not rows:
        raise InputError("missing [upp] section")
    group_spec, a_line, b_line, seen = "z", None, None, {}
    for lineno, line in rows:
        if line.startswith(("group", "A", "B")):
            _once(seen, line[0], lineno, line)
        if line.startswith("group"):
            group_spec = line.split("=", 1)[1].strip()
        elif line.startswith("A"):
            a_line = line
        elif line.startswith("B"):
            b_line = line
        else:
            raise InputError(f"line {lineno}: bad upp row {line!r}")
    if a_line is None or b_line is None:
        raise InputError("[upp] needs A and B rows")
    if group_spec in ("z", "z1"):
        H, rank = "free_abelian", 1
    elif group_spec == "z2":
        H, rank = "free_abelian", 2
    else:
        H = _parse_group(group_spec, cap)
        e = H.identity
        rank = len(e) if isinstance(e, tuple) else 1
    A = _parse_subset(a_line, rank)
    B = _parse_subset(b_line, rank)
    if H != "free_abelian":
        if rank == 1:  # cyclic group elements are plain integers
            A, B = [a for (a,) in A], [b for (b,) in B]
        if not set(A + B) <= set(H.elements):
            raise InputError(f"subset element outside {H.name}")
    witness = grouprings.unique_product_search(H, A, B)
    report = []
    summary = {}
    if witness is None:
        report.append("no unique product element exists for these subsets")
        summary["witness"] = "none"
    else:
        report.append(f"unique product witness: {witness}")
        summary["witness"] = str(witness)
        if len(A) + len(B) > 2:
            second = grouprings.strojnowski_check(H, A, B)
            report.append(f"second distinct witness exists: {_flag(second)}")
            summary["second_witness"] = _flag(second)
    return report, summary, 0


def cmd_compare(doc, cap, oracle):
    R = build_ring(doc, cap)
    G1 = build_groupoid(doc, "groupoid", cap)
    G2 = build_groupoid(doc, "groupoid2", cap) if "groupoid2" in doc.sections else G1
    for G in dict.fromkeys((G1, G2)):
        bad = gpd.validate_groupoid(G)
        if bad:
            raise InputError("groupoid invalid: " + bad[0])
    c1 = build_cocycle(doc, R, G1, "cocycle")
    c2 = build_cocycle(doc, R, G2, "cocycle2")
    iso = reconstruct.compare_twists(c1, c2, cap)
    report = []
    summary = {"isomorphic": _flag(iso is not None)}
    if iso is None:
        decided = reconstruct.pairings_differ(
            reconstruct.commutator_pairing(c1), reconstruct.commutator_pairing(c2))
        reason = "commutator pairings differ" if decided else "exhaustive search"
        report.append(f"the twists are not isomorphic ({reason})")
    else:
        obj_map, arrow_map, u = iso
        report.append("the twists are isomorphic")
        report.append("object map: " + ", ".join(
            f"{x}→{y}" for x, y in sorted(obj_map.items(), key=str)))
        _, psi_report = reconstruct.algebra_iso_from_twist_iso(c1, c2, iso)
        report.append("induced diagonal-preserving algebra isomorphism: "
                      + _flag(psi_report["multiplicative"]
                              and psi_report["diagonal_preserving"]))
    return report, summary, 0


COMMANDS = {
    "check": cmd_check,
    "classify": cmd_classify,
    "reconstruct": cmd_reconstruct,
    "units": cmd_units,
    "upp": cmd_upp,
    "compare": cmd_compare,
}


def run_command(doc, command):
    """Dispatch; returns (report text, summary dict, exit code)."""
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    cap, oracle = get_options(doc)
    report, summary, code = COMMANDS[command](doc, cap, oracle)
    return "\n".join(report), summary, code


def format_output(report_text, summary):
    lines = [report_text, "---"]
    lines.extend(f"{k}={v}" for k, v in summary.items())
    return "\n".join(lines)


def parse_summary(text):
    """Read back the flat key=value block after the --- marker."""
    after = text.split("\n---\n", 1)
    if len(after) != 2:
        raise ValueError("no summary block found")
    out = {}
    for line in after[1].splitlines():
        if line.strip():
            k, v = line.split("=", 1)
            out[k] = v
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="quasicartan",
        description="finite twisted convolution algebras: checking, "
                    "classification and twist reconstruction")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("input", help="path to a sectioned input file")
    args = parser.parse_args(argv)
    try:
        with open(args.input, encoding="utf-8") as fh:
            doc = parse_input(fh.read())
        report_text, summary, code = run_command(doc, args.command)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"theorem verification failure: {exc}", file=sys.stderr)
        return 1
    print(format_output(report_text, summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
