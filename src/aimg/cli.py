"""Command line interface.

Subcommands: classify, check-curve, genus, commutator, surjectivity,
condition.  The group-size cap can be set with --cap-order or the
AIMG_CAP_ORDER environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .arithcond import eval_condition
from .classifier import (
    check_curve,
    classify,
    find_entry,
    load_catalog,
    trace_rows,
)
from .errors import AimgError, InvariantViolation, SchemaError, is_json_int, \
    json_list, json_rational, read_json_file
from .matgroup import _prime_factors
from .modgenus import genus
from .opengroup import (
    OpenSubgroup,
    commutator_open,
    full_gl2,
    transpose_group,
)
from .ratfunc import INFINITY
from .surjectivity import TruncatedAdelicGroup, surjectivity_check


def _load_group(path) -> OpenSubgroup:
    return OpenSubgroup.from_json_dict(read_json_file(path))


def _default_catalog():
    ref = resources.files("aimg").joinpath("data/sample_catalog.json")
    return load_catalog(json.loads(ref.read_text()))


def _catalog_from(args):
    if args.catalog:
        return load_catalog(args.catalog)
    return _default_catalog()


def _print_json(obj, fh=None):
    """Write obj as indented JSON and a newline, to stdout by default."""
    json.dump(obj, fh or sys.stdout, indent=2)
    print(file=fh)


def _cmd_classify(args):
    report = classify(_catalog_from(args))
    payload = report.to_json_dict()
    if args.out:
        with open(args.out, "w") as fh:
            _print_json(payload, fh)
    else:
        _print_json(payload)
    for e in report.entries:
        line = f"{e.label}: {e.bucket or 'error'}"
        if e.commutator_index is not None:
            line += f" (commutator index {e.commutator_index})"
        print(line, file=sys.stderr)
        for m in e.members:
            print(f"  v={m.v}: {m.bucket or 'error'}", file=sys.stderr)
    return 1 if report.had_violations else 0


def _cmd_check_curve(args):
    catalog = _catalog_from(args)
    j = INFINITY if args.j == "oo" else json_rational(args.j, "--j")
    result = check_curve(args.label, j, catalog)
    out = {"label": args.label, "j": args.j, "result": result.kind}
    if result.kind == "Member":
        out["witnesses"] = [
            "oo" if w is INFINITY else str(w) for w in result.witnesses]
    _print_json(out)
    return 0


def _cmd_genus(args):
    g = genus(_load_group(args.group))
    _print_json({"genus": g.genus, "degree": g.degree, "e2": g.e2,
                 "e3": g.e3, "e_inf": g.e_inf})
    return 0


def _cmd_commutator(args):
    G = _load_group(args.group)
    if args.transpose:
        G = transpose_group(G)
    res = commutator_open(G)
    _print_json({
        "index_in_sl2": res.index_in_sl,
        "saturation_level": res.saturation_level,
        "det_full": res.det_full,
        "commutator": res.commutator.to_json_dict(),
    })
    return 0


def _load_truncation(path) -> TruncatedAdelicGroup:
    data = read_json_file(path)
    if not isinstance(data, dict) or "m_part" not in data:
        raise SchemaError("truncation JSON needs an 'm_part' group")
    m_sub = OpenSubgroup.from_json_dict(data["m_part"])
    m_part = m_sub.mod_level_group()
    parts = []
    for p in json_list(data.get("primes", []), "truncation 'primes'"):
        if not is_json_int(p) or _prime_factors(p) != {p: 1}:
            raise SchemaError(f"bad prime {p!r}")
        parts.append(full_gl2(p))
    for raw in json_list(data.get("prime_parts", []),
                         "truncation 'prime_parts'"):
        parts.append(OpenSubgroup.from_json_dict(raw).mod_level_group())
    try:
        return TruncatedAdelicGroup(m_part, tuple(parts))
    except ValueError as e:  # a part off a prime power, or a prime reused
        raise SchemaError(str(e))


def _cmd_surjectivity(args):
    G = _load_truncation(args.group)
    sub = _load_group(args.subgroup)
    if sub.level != G.modulus:
        raise SchemaError(
            f"subgroup level {sub.level} != truncation modulus {G.modulus}")
    verdict = surjectivity_check(G, list(sub.gens))
    out = {"verdict": verdict.kind}
    if verdict.factor is not None:
        out["factor"] = str(verdict.factor)
    _print_json(out)
    return 0


def _cmd_condition(args):
    entry = find_entry(_catalog_from(args), args.label)
    v = json_rational(args.v, "--v")
    cond = entry.conditions
    if cond is None:
        for m in entry.members:
            if m.v == v and m.conditions is not None:
                cond = m.conditions
                break
    if cond is None:
        print(f"{args.label}: no conditions recorded", file=sys.stderr)
        return 1
    result = eval_condition(cond, v, entry.J)
    _print_json({
        "label": args.label,
        "v": str(v),
        "holds": result.ok,
        "trace": trace_rows(result),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aimg",
        description="Genus-0 adelic Galois image computations")
    parser.add_argument(
        "--cap-order", type=int, default=None,
        help="override the group-size cap (also AIMG_CAP_ORDER)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a catalog")
    p.add_argument("--catalog", help="catalog JSON (default: shipped sample)")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check-curve", help="membership of j on a curve")
    p.add_argument("--label", required=True)
    p.add_argument("--j", required=True, help="rational NUM/DEN, or 'oo'")
    p.add_argument("--catalog")
    p.set_defaults(func=_cmd_check_curve)

    p = sub.add_parser("genus", help="genus of the curve of a group")
    p.add_argument("--group", required=True, help="open-subgroup JSON file")
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("commutator", help="commutator of an open subgroup")
    p.add_argument("--group", required=True, help="open-subgroup JSON file")
    p.add_argument("--transpose", action="store_true",
                   help="work with the transposed group")
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("surjectivity",
                       help="finite-truncation surjectivity check")
    p.add_argument("--group", required=True,
                   help="truncation JSON: m_part + primes/prime_parts")
    p.add_argument("--subgroup", required=True,
                   help="subgroup generators at the combined modulus")
    p.set_defaults(func=_cmd_surjectivity)

    p = sub.add_parser("condition", help="evaluate a v-condition")
    p.add_argument("--label", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--catalog")
    p.set_defaults(func=_cmd_condition)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = os.environ.get("AIMG_CAP_ORDER")
    if args.cap_order is not None:
        os.environ["AIMG_CAP_ORDER"] = str(args.cap_order)
    try:
        return args.func(args)
    except InvariantViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AimgError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        if previous is None:
            os.environ.pop("AIMG_CAP_ORDER", None)
        else:
            os.environ["AIMG_CAP_ORDER"] = previous


if __name__ == "__main__":
    sys.exit(main())
