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
    reconstruct, twist as twist_mod
from .finring import CapExceeded, DEFAULT_CAP, InputError


def _forms(**patterns):
    return {form: re.compile(pattern) for form, pattern in patterns.items()}


_GROUPS = {"cyclic": r"cyclic\(([1-9]\d*)\)", "klein": r"klein"}
_GROUPOID = _forms(
    full_relation=r"full_relation\(([1-9]\d*)\)",
    **{form: rf"group\({pattern}\)" for form, pattern in _GROUPS.items()},
    objects=r"objects\s*=\s*(.+)", arrow=r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)",
    compose=r"(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)")
_COCYCLE = _forms(trivial=r"trivial",
                  c=r"c\((.+?)\s*,\s*(.+?)\)\s*=\s*(\S+)")
_TABLE = r":\s*(\S+)\s+(\S+)\s*=\s*(\S+)"

# The row grammar: section -> {form: pattern}.  A row is the first form of
# its section whose pattern matches it in full, read as (form, groups).
# Its key is the form and every group but the last, the value; a section
# gives each key once.
SECTIONS = {
    "ring": _forms(zmod=r"(?:ring\s*=\s*)?zmod\((\d+)\)",
                   gf=r"(?:ring\s*=\s*)?gf\((\d+)\s*,\s*(\d+)\)"),
    "ring.tables": _forms(elements=r"elements\s*=\s*(.+)",
                          zero=r"zero\s*=\s*(\S+)", one=r"one\s*=\s*(\S+)",
                          add="add" + _TABLE, mul="mul" + _TABLE),
    "groupoid": _GROUPOID, "groupoid2": _GROUPOID,
    "cocycle": _COCYCLE, "cocycle2": _COCYCLE,
    "group": _forms(**_GROUPS),
    "algebra": _forms(basis=r"basis\s*=\s*(.+)",
                      product=r"(\S+)\s*\*\s*(\S+)\s*=\s*(.+)"),
    "pair": _forms(sub_basis=r"sub_basis\s*=\s*(.+)"),
    "options": _forms(cap=r"cap\s*=\s*(\d+)", oracle=r"oracle\s*=\s*(on|off)"),
    "upp": _forms(group=r"group\s*=\s*(\S+)", A=r"A\s*=\s*(.+)",
                  B=r"B\s*=\s*(.+)"),
}
_HEADER = re.compile(r"\[([a-zA-Z0-9_.]+)\]")
_PAIR_TOKEN = re.compile(r"(\d+)-(\d+)")


class InputDocument:
    def __init__(self):
        # name -> list of (lineno, text, form, groups)
        self.sections = {}


def _read(section, text):
    """The (form, groups) of text in a section, or None."""
    for form, pattern in SECTIONS[section].items():
        m = pattern.fullmatch(text)
        if m:
            return form, m.groups()
    return None


def _twice(lineno, text, first):
    """A key given twice in one section is malformed, as the later row
    would replace the earlier one."""
    return InputError(f"line {lineno}: {text.split('=', 1)[0].strip()} "
                      f"is given twice, first on line {first}")


def parse_input(text):
    """Every row read once through SECTIONS; rows before the first header
    are [ring] rows.  An unknown section, a row that matches no form of
    its section and a key given twice are refused.  A header is tried
    only on a line that starts with [; such a line that is not a header
    is read as a row of the current section."""
    doc = InputDocument()
    current, first = "ring", {}
    forms = SECTIONS[current].items()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = (line.split("#", 1)[0] if "#" in line else line).strip()
        if not line:
            continue
        m = line[0] == "[" and _HEADER.fullmatch(line)
        if m:
            current = m.group(1)
            if current not in SECTIONS:
                raise InputError(f"line {lineno}: unknown section [{current}]")
            forms = SECTIONS[current].items()
            doc.sections.setdefault(current, [])
            continue
        for form, pattern in forms:
            m = pattern.fullmatch(line)
            if m:
                break
        else:
            raise InputError(f"line {lineno}: bad {current} row {line!r}")
        groups = m.groups()
        key = (current, form, *groups[:-1])
        if key in first:
            raise _twice(lineno, line, first[key])
        first[key] = lineno
        doc.sections.setdefault(current, []).append(
            (lineno, line, form, groups))
    return doc


def _values(rows):
    """{form: value} of a section's rows: the value of its one row for a
    form keyed by its name alone."""
    return {form: groups[-1] for _, _, form, groups in rows}


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
    tables, rows = doc.sections.get("ring.tables"), doc.sections.get("ring")
    if tables is not None:
        if rows is not None:
            raise InputError("give either [ring] or [ring.tables], not both")
        return _ring_from_tables(tables, cap)
    if not rows:
        raise InputError("missing [ring] section")
    if len(rows) != 1:
        raise InputError(f"line {rows[1][0]}: [ring] takes a single row")
    lineno, _, form, groups = rows[0]
    try:
        # the add and mul tables have |R|² entries each
        if form == "zmod":
            n = int(groups[0])
            _check_size(n * n, cap)
            return finring.make_zmod(n)
        p, k = int(groups[0]), int(groups[1])
        # past cap.bit_length() the power already exceeds the cap
        _check_size(p ** (2 * min(k, cap.bit_length())), cap)
        return finring.make_gf(p, k)
    except ValueError as exc:
        raise InputError(f"line {lineno}: {exc}")


def _ring_from_tables(rows, cap=DEFAULT_CAP):
    values = _values(rows)
    if not {"elements", "zero", "one"} <= values.keys():
        raise InputError("[ring.tables] needs elements, zero and one")
    tables = {"add": {}, "mul": {}}
    for _, _, form, groups in rows:
        if form in tables:
            tables[form][groups[:2]] = groups[2]
    elements = values["elements"].split()
    index = {e: i for i, e in enumerate(elements)}
    try:
        add, mul = ([[index[table[(a, b)]] for b in elements] for a in elements]
                    for table in tables.values())
        R = finring.FiniteRing("custom", elements, add, mul,
                               index[values["zero"]], index[values["one"]])
    except KeyError as missing:
        raise InputError(f"[ring.tables] missing entry for {missing}")
    except ValueError as exc:
        raise InputError(f"[ring.tables]: {exc}")
    bad = finring.validate_ring(R, cap)
    if bad:
        raise InputError("ring tables violate the ring axioms: " + bad[0])
    return R


def _group_order(form, groups, cap=DEFAULT_CAP):
    """The order of the group of a [group] row, its product table charged
    to the cap."""
    if form == "klein":
        return 4
    n = _int(groups[0])
    _check_size(n * n, cap)
    return n


def _group(form, groups, cap=DEFAULT_CAP):
    """The group of a [group] row."""
    n = _group_order(form, groups, cap)
    if form == "klein":
        return gpd.direct_product_group(gpd.cyclic_group(2), gpd.cyclic_group(2))
    return gpd.cyclic_group(n)


def _parse_group(spec, cap=DEFAULT_CAP):
    read = _read("group", spec)
    if read is None:
        raise InputError(f"cannot parse group spec {spec!r}")
    return _group(*read, cap)


def _arrow_token(token, G):
    token = token.strip()
    m = _PAIR_TOKEN.fullmatch(token)
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
    _, _, form, groups = rows[0]
    if len(rows) == 1 and form == "full_relation":
        n = _int(groups[0])
        _check_size(n ** 3, cap)  # the composition table
        return gpd.full_relation(n)
    if len(rows) == 1 and form in _GROUPS:
        return gpd.group_as_groupoid(_group(form, groups, cap))
    objects, arrows, src, rng, compose = None, [], {}, {}, {}
    for lineno, line, form, groups in rows:
        if form == "objects":
            objects = groups[0].split()
        elif form == "arrow":
            a = groups[0]
            arrows.append(a)
            src[a], rng[a] = groups[1:]
        elif form == "compose":
            compose[groups[:2]] = groups[2]
        else:
            raise InputError(f"line {lineno}: {line} must be the only row "
                             f"of [{section}]")
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
    """The cocycle of a section as written; ConvolutionAlgebra checks it.
    A pair is keyed by the arrows its tokens name, and a trivial row is
    refused beside c(a, b) rows, which it would contradict.  Each token
    and ring label is resolved once per section."""
    rows = doc.sections.get(section)
    if rows is None:
        raise InputError(f"missing [{section}] section")
    values, first, arrows, elements = {}, {}, {}, {}
    for lineno, line, form, groups in rows:
        if form != rows[0][2]:
            raise InputError(f"line {lineno}: [{section}] gives both trivial "
                             "and c(a, b) rows")
        if form == "trivial":
            continue
        x, y, label = groups
        for token in (x, y):
            if token not in arrows:
                arrows[token] = _arrow_token(token, G)
        a, b = arrows[x], arrows[y]
        if G.src[a] != G.rng[b]:
            raise InputError(f"line {lineno}: pair ({x},{y}) "
                             "is not composable")
        if (a, b) in first:
            raise _twice(lineno, line, first[(a, b)])
        first[(a, b)] = lineno
        if label not in elements:
            elements[label] = _ring_element(R, label, lineno)
        values[(a, b)] = elements[label]
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
    basis = [row for row in rows if row[2] == "basis"]
    if not basis:
        raise InputError("[algebra] needs a basis row")
    lineno, _, _, (spec,) = basis[0]
    labels = spec.split()
    if len(set(labels)) < len(labels):
        raise InputError(f"line {lineno}: a basis label is repeated")
    _check_size(R.size ** len(labels), cap)  # |A|, before A is built
    structure = {}
    for lineno, _, form, groups in rows:
        if form == "product":
            a, b, rhs = groups
            if a not in labels or b not in labels:
                raise InputError(f"line {lineno}: unknown basis label")
            structure[(labels.index(a), labels.index(b))] = \
                _parse_combination(rhs, labels, R, lineno)
    try:
        A = pairs_mod.AbstractAlgebra("custom", R, labels, structure)
    except ValueError as exc:
        raise InputError(str(exc))
    rows = doc.sections.get("pair")
    if not rows:
        raise InputError("[pair] needs a sub_basis row")
    lineno, _, _, (spec,) = rows[0]
    sub_basis = [_parse_combination(e, labels, R, lineno)
                 for e in spec.split(",")]
    try:
        return pairs_mod.Pair(
            A, [[v.get(i, R.zero) for i in range(A.dim)] for v in sub_basis],
            cap=cap)
    except ValueError as exc:
        raise InputError(str(exc))


def get_options(doc):
    options = _values(doc.sections.get("options", []))
    cap = _int(options["cap"]) if "cap" in options else DEFAULT_CAP
    return cap, options.get("oracle") == "on"


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
    # build_ring has refused [ring.tables] that fail validate_ring
    bad = [] if "ring.tables" in doc.sections else finring.validate_ring(R)
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
            # twist_from_cocycle refuses an invalid cocycle, and reads this
            # pass off c rather than checking it again
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
    summary = {key: _flag(res[key]) for key in
               ("aqp", "lbh", "phi_injective", "phi_surjective")}
    summary.update((key, str(res[key])) for key in
                   ("sigma_points", "sigma_prime_points", "g_prime_arrows"))
    summary["consistent"] = _flag(res["consistent"])
    return report, summary, 0 if res["consistent"] else 1


def cmd_units(doc, cap, oracle):
    R = build_ring(doc, cap)
    rows = doc.sections.get("group", [])
    if len(rows) != 1:
        raise InputError("units needs a [group] section with one row")
    form, groups = rows[0][2:]
    n = _group_order(form, groups, cap)
    H = values = None
    if "cocycle" in doc.sections:
        H = _group(form, groups, cap)
        c = build_cocycle(doc, R, gpd.group_as_groupoid(H))
        values = {(a, b): c.value(a, b) for a, b in H.mul}
    # the census's first charge, before T (and H, with no [cocycle]) is
    # built: H is abelian, so T is commutative iff c is symmetric
    symmetric = values is None or all(v == values[(b, a)]
                                      for (a, b), v in values.items())
    _check_size(grouprings.census_charge(R, n, symmetric, oracle), cap)
    if H is None:
        H = _group(form, groups, cap)
    T = grouprings.TwistedGroupRing(R, H, values)
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


def _parse_subset(value, rank):
    """The elements of an [upp] A or B value as integer tuples of length rank."""
    out = []
    for token in value.split():
        parts = token.strip("()").split(",")
        if len(parts) != rank:
            raise InputError(f"subset element {token!r} has wrong rank")
        try:
            out.append(tuple(int(p) for p in parts))
        except ValueError:
            raise InputError(f"subset element {token!r} is not an integer")
    # never empty: the row grammar gives a value with a non-blank token
    return out


def cmd_upp(doc, cap, oracle):
    values = _values(doc.sections.get("upp", []))
    if "A" not in values or "B" not in values:
        raise InputError("[upp] needs A and B rows")
    group_spec = values.get("group", "z")
    if group_spec in ("z", "z1"):
        H, rank = "free_abelian", 1
    elif group_spec == "z2":
        H, rank = "free_abelian", 2
    else:
        H = _parse_group(group_spec, cap)
        e = H.identity
        rank = len(e) if isinstance(e, tuple) else 1
    A = _parse_subset(values["A"], rank)
    B = _parse_subset(values["B"], rank)
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
    """Dispatch; returns (report text, summary dict, exit code).  The
    command is one of COMMANDS, which the argument parser's choices
    enforce."""
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


def _refuse(message):  # a bad command line is malformed input
    raise InputError(message)


_PARSER = argparse.ArgumentParser(
    prog="quasicartan",
    description="finite twisted convolution algebras: checking, "
                "classification and twist reconstruction")
_PARSER.add_argument("command", choices=sorted(COMMANDS))
_PARSER.add_argument("input", help="path to a sectioned input file")
_PARSER.error = _refuse


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        with open(args.input, encoding="utf-8") as fh:
            doc = parse_input(fh.read())
        report_text, summary, code = run_command(doc, args.command)
    except (InputError, OSError, UnicodeDecodeError) as exc:
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
