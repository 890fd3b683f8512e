"""Command-line front end.

Subcommands: ``algebra verify|dump``, ``singular find|check``, ``classify``,
``gram`` and ``realization verify``.  All numeric inputs are exact rationals
in p/q form.  Exit codes: 0 success / all checks passed, 1 a verification
failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .quotient import classify, gram
from .realization import build_realization, verify_chi_eta, verify_relations
from .scalars import parse_rational
from .singular import (check_recurrences, closed_form_n1, closed_form_n2,
                       find_singular, ANNIHILATORS)
from .superalgebra import (_shared_table, build_adjoint, identity_adjoint,
                           triangular_decompose, verify_adjoint,
                           verify_structure)
from .verma import LowestWeight, VermaModule

ENV_CUTOFF = "SUPERSCHROD_CUTOFF"

# Largest accepted degree, cutoff, --p or --weight, and of the degree 2d + 7
# that classify reaches when 2d is an integer: a bound on the size of one
# request (the action engine builds its rows without recursion).
MAX_DEGREE = 500


@dataclass
class RunConfig:
    algebra: str
    d: Optional[Fraction] = None
    m: Optional[Fraction] = None
    r: Optional[Fraction] = None


class UsageError(Exception):
    pass


def _default_cutoff() -> int:
    raw = os.environ.get(ENV_CUTOFF, "8")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if not 0 < value <= MAX_DEGREE:
        raise UsageError("%s must be an integer from 1 to %d, got %r"
                         % (ENV_CUTOFF, MAX_DEGREE, raw))
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _config(args) -> RunConfig:
    cfg = RunConfig(algebra=args.algebra)
    if getattr(args, "d", None) is not None:
        cfg.d = _rational(args.d)
    if getattr(args, "m", None) is not None:
        cfg.m = _rational(args.m)
    if getattr(args, "r", None) is not None:
        cfg.r = _rational(args.r)
    for name in ("max_degree", "cutoff"):
        if hasattr(args, name) and getattr(args, name) is None:
            setattr(args, name, _default_cutoff())
    for name in ("max_degree", "degree", "cutoff"):
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise UsageError("--%s must be positive" % name.replace("_", "-"))
    for name in ("max_degree", "degree", "cutoff", "p", "weight"):
        value = getattr(args, name, None)
        if value is not None and value > MAX_DEGREE:
            raise UsageError("--%s must be at most %d"
                             % (name.replace("_", "-"), MAX_DEGREE))
    return cfg


def _lowest_weight(args) -> LowestWeight:
    cfg = _config(args)
    if cfg.d is None or cfg.m is None:
        raise UsageError("--d and --m are required")
    if cfg.algebra == "ssch2":
        if cfg.r is None:
            raise UsageError("--r is required for ssch2")
        return LowestWeight("ssch2", cfg.d, cfg.m, cfg.r)
    if cfg.algebra == "ssch1":
        if cfg.r is not None:
            raise UsageError("--r applies to ssch2 only")
        return LowestWeight("ssch1", cfg.d, cfg.m)
    raise UsageError("modules are defined for ssch1/ssch2, not %r"
                     % cfg.algebra)


def _emit(payload, as_json: bool, text_lines) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


# -- algebra ----------------------------------------------------------------


def cmd_algebra_verify(args) -> int:
    table = _shared_table(args.algebra)
    structure = verify_structure(table)
    payload = {
        "algebra": args.algebra,
        "generators": len(table.names),
        "jacobi": "pass" if not structure.jacobi_failures else "fail",
        "antisymmetry": "pass" if not structure.antisymmetry_failures else "fail",
        "degree_additivity": "pass" if not structure.degree_failures else "fail",
        "adjoints": [],
    }
    ok = structure.ok
    names = []
    if args.adjoint == "all":
        names = ["omega1", "omega2"]
        if args.algebra == "ssch2":
            names += ["sigma1", "sigma2"]
    elif args.adjoint != "none":
        names = [args.adjoint]
    for name in names:
        if name == "identity":
            amap = identity_adjoint(table)
        else:
            try:
                amap = build_adjoint(table, name, args.epsilon, args.lam)
            except ValueError as exc:
                raise UsageError(str(exc))
        rep = verify_adjoint(table, amap)
        payload["adjoints"].append({
            "name": name,
            "epsilon": rep.epsilon,
            "lam": rep.lam,
            "antilinear": rep.antilinear,
            "involution": rep.involution,
            "convention": rep.convention,
            "completed_images": list(rep.completed),
            "ok": rep.ok,
        })
        ok = ok and rep.ok
    lines = [
        "algebra %s: %d generators" % (args.algebra, len(table.names)),
        "jacobi: %s" % payload["jacobi"],
        "antisymmetry: %s" % payload["antisymmetry"],
        "degree additivity: %s" % payload["degree_additivity"],
    ]
    for entry in payload["adjoints"]:
        lines.append(
            "adjoint %s (eps=%d, lam=%d): involution=%s convention=%s -> %s"
            % (entry["name"], entry["epsilon"], entry["lam"],
               entry["involution"], entry["convention"],
               "pass" if entry["ok"] else "fail"))
    payload["ok"] = ok
    _emit(payload, args.json, lines)
    return 0 if ok else 1


def cmd_algebra_dump(args) -> int:
    table = _shared_table(args.algebra)
    data = table.to_json_dict()
    plus, zero, minus = triangular_decompose(table)
    data["triangular"] = {"plus": plus, "zero": zero, "minus": minus}
    sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return 0


# -- singular ----------------------------------------------------------------


def cmd_singular_find(args) -> int:
    lw = _lowest_weight(args)
    module = VermaModule(lw)
    reports = find_singular(module, args.max_degree)
    payload = {
        "algebra": lw.kind,
        "d": str(lw.d),
        "m": str(lw.m),
        "r": None if lw.r is None else str(lw.r),
        "max_degree": args.max_degree,
        "reports": [rep.to_json_dict() for rep in reports],
    }
    lines = ["singular vectors for %s (%s), degree <= %d:"
             % (lw.kind, lw.label(), args.max_degree)]
    if not reports:
        lines.append("  none")
    for rep in reports:
        lines.append("  weight %s: kernel dim %d, matched %s"
                     % (rep.weight, rep.kernel_dim, rep.matched))
        for vec in rep.vectors:
            lines.append("    %s" % vec)
    _emit(payload, args.json, lines)
    return 0


def cmd_singular_check(args) -> int:
    lw = _lowest_weight(args)
    module = VermaModule(lw)
    p = args.p
    try:
        if lw.kind == "ssch1":
            vec = closed_form_n1(module, p)
        else:
            vec = closed_form_n2(module, p)
    except ValueError as exc:
        raise UsageError(str(exc))
    residuals = {}
    ok = True
    for ann in ANNIHILATORS[lw.kind]:
        res = module.act(ann, vec)
        residuals[ann] = str(res)
        ok = ok and not res
    payload = {
        "algebra": lw.kind,
        "d": str(lw.d), "m": str(lw.m),
        "r": None if lw.r is None else str(lw.r),
        "p": p,
        "vector": vec.render(),
        "annihilated": ok,
        "residuals": residuals,
    }
    lines = ["closed form p=%d for %s (%s):" % (p, lw.kind, lw.label()),
             "  %s" % vec,
             "  annihilated by %s: %s"
             % ("/".join(ANNIHILATORS[lw.kind]), "yes" if ok else "NO")]
    if lw.kind == "ssch2" and lw.m:
        rec = check_recurrences(p, lw)
        payload["recurrences"] = {k: bool(v) for k, v in rec.passed.items()}
        payload["recurrence_constraints_ok"] = not rec.constraint_failures
        ok = ok and rec.ok
        lines.append("  recurrences: %s"
                     % ", ".join("%s=%s" % (k, "pass" if v else "fail")
                                 for k, v in sorted(rec.passed.items())))
    payload["ok"] = ok
    _emit(payload, args.json, lines)
    return 0 if ok else 1


# -- classify / gram ----------------------------------------------------------


def cmd_classify(args) -> int:
    lw = _lowest_weight(args)
    if (2 * lw.d).denominator == 1 and 2 * lw.d + 7 > MAX_DEGREE:
        # the chain reaches degree 2d + 2, and --certify searches to 2d + 7
        raise UsageError("classify reaches degree 2d + 7 = %s at d = %s; "
                         "the largest accepted degree is %d"
                         % (2 * lw.d + 7, lw.d, MAX_DEGREE))
    record = classify(lw, cutoff=args.max_degree, certify=args.certify)
    payload = record.to_json_dict()
    dim = "infinite" if record.dimension is None else str(record.dimension)
    lines = ["classification for %s (%s):" % (lw.kind, lw.label()),
             "  verdict: %s" % record.verdict,
             "  dimension: %s" % dim,
             "  chain: %s" % " -> ".join(record.chain)]
    if record.no_singular_up_to is not None:
        lines.append("  no singular vectors up to degree %d: %s"
                     % (record.depth,
                        "confirmed" if record.no_singular_up_to >= 0 else "FAILED"))
    _emit(payload, args.json, lines)
    if record.no_singular_up_to is not None and record.no_singular_up_to < 0:
        return 1
    return 0


def cmd_gram(args) -> int:
    lw = _lowest_weight(args)
    module = VermaModule(lw)
    if args.weight > args.cutoff:
        raise UsageError("--weight %d exceeds --cutoff %d"
                         % (args.weight, args.cutoff))
    if lw.kind == "ssch1":
        if args.rweight is not None:
            raise UsageError("--rweight applies to ssch2 only")
        weight = args.weight
    else:
        if args.rweight is None:
            raise UsageError("--rweight is required for ssch2 gram matrices")
        weight = (args.weight, args.rweight)
    if not module.subspace_basis(weight):
        raise UsageError("weight %s has an empty subspace" % (weight,))
    gm = gram(module, weight, epsilon=args.epsilon, lam=args.lam)
    payload = gm.to_json_dict(module)
    payload.update({
        "algebra": lw.kind, "d": str(lw.d), "m": str(lw.m),
        "r": None if lw.r is None else str(lw.r),
        "epsilon": args.epsilon, "lam": args.lam,
    })
    lines = ["gram matrix at weight %s (%s):" % (gm.weight, lw.label())]
    for label, row in zip(payload["basis"], payload["matrix"]):
        lines.append("  %-28s %s" % (label, " ".join(row)))
    lines.append("  det = %s" % payload["det"])
    _emit(payload, args.json, lines)
    return 0


# -- realization ---------------------------------------------------------------


def cmd_realization_verify(args) -> int:
    cfg = _config(args)
    if cfg.algebra not in ("ssch1", "ssch2"):
        raise UsageError("realizations exist for ssch1/ssch2")
    if cfg.d is None or cfg.m is None:
        raise UsageError("--d and --m are required")
    table = _shared_table(cfg.algebra)
    ops = build_realization(cfg.algebra, cfg.d, cfg.m)
    report = verify_relations(ops, table, args.degree, d=cfg.d, m=cfg.m)
    chi_eta = verify_chi_eta(cfg.m)
    chi_ok = all(bool(v) for k, v in chi_eta.items() if k != "scale_square")
    payload = {
        "algebra": cfg.algebra,
        "d": str(cfg.d), "m": str(cfg.m),
        "degree": args.degree,
        "certified_degree": report.certified_degree,
        "max_degree_raise": report.degree_raise,
        "parity_ok": report.parity_ok,
        "relations_ok": not report.failures,
        "failures": [
            {"x": x, "y": y, "monomial": str(mono), "residual": res}
            for x, y, mono, res in report.failures
        ],
        "chi_eta": {k: bool(v) for k, v in chi_eta.items()
                    if k != "scale_square"},
        "ok": report.ok and chi_ok,
    }
    lines = ["realization %s (d=%s, m=%s), degree <= %d:"
             % (cfg.algebra, cfg.d, cfg.m, args.degree),
             "  relations: %s" % ("pass" if not report.failures else "fail"),
             "  operator parities: %s" % ("pass" if report.parity_ok else "fail"),
             "  chi/eta identities: %s" % ("pass" if chi_ok else "fail"),
             "  certified on polynomials of degree <= %d"
             % report.certified_degree]
    for x, y, mono, res in report.failures:
        lines.append("  FAIL [%s,%s} on %s: %s" % (x, y, mono, res))
    _emit(payload, args.json, lines)
    return 0 if payload["ok"] else 1


# -- parser --------------------------------------------------------------------


# the flags that take a rational value, with their help
_VALUE_FLAGS = {"--d": "conformal weight (rational p/q)",
                "--m": "mass eigenvalue (rational p/q)",
                "--r": "R eigenvalue, ssch2 only"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="superschrod",
        description="Exact computer algebra for the N=1/N=2 super "
                    "Schroedinger algebras: structure checks, lowest-weight "
                    "modules, singular vectors, classification, bilinear "
                    "form and vector-field realizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kinds=("sch1", "ssch1", "ssch2"), values=()):
        p.add_argument("--algebra", required=True, choices=kinds)
        for flag in values:
            p.add_argument(flag, help=_VALUE_FLAGS[flag])
        p.add_argument("--json", action="store_true")

    algebra = sub.add_parser("algebra", help="structure table commands")
    algebra_sub = algebra.add_subparsers(dest="subcommand", required=True)
    averify = algebra_sub.add_parser("verify")
    add_common(averify)
    averify.add_argument("--adjoint", default="all",
                         choices=["all", "none", "omega1", "omega2",
                                  "sigma1", "sigma2", "identity"])
    averify.add_argument("--epsilon", type=int, default=0, choices=[0, 1])
    averify.add_argument("--lam", type=int, default=0, choices=[0, 1])
    averify.set_defaults(func=cmd_algebra_verify)
    adump = algebra_sub.add_parser("dump")
    add_common(adump)
    adump.set_defaults(func=cmd_algebra_dump)

    singular = sub.add_parser("singular", help="singular vector commands")
    singular_sub = singular.add_subparsers(dest="subcommand", required=True)
    sfind = singular_sub.add_parser("find")
    add_common(sfind, kinds=("ssch1", "ssch2"), values=_VALUE_FLAGS)
    sfind.add_argument("--max-degree", type=int, default=None)
    sfind.set_defaults(func=cmd_singular_find)
    scheck = singular_sub.add_parser("check")
    add_common(scheck, kinds=("ssch1", "ssch2"), values=_VALUE_FLAGS)
    scheck.add_argument("--p", type=int, required=True)
    scheck.set_defaults(func=cmd_singular_check)

    cls = sub.add_parser("classify", help="irreducible module classification")
    add_common(cls, kinds=("ssch1", "ssch2"), values=_VALUE_FLAGS)
    cls.add_argument("--max-degree", type=int, default=None)
    cls.add_argument("--certify", action="store_true",
                     help="search the terminal module for singular vectors")
    cls.set_defaults(func=cmd_classify)

    gramp = sub.add_parser("gram", help="bilinear form Gram matrix")
    add_common(gramp, kinds=("ssch1", "ssch2"), values=_VALUE_FLAGS)
    gramp.add_argument("--weight", type=int, required=True)
    gramp.add_argument("--rweight", type=int, default=None)
    gramp.add_argument("--cutoff", type=int, default=None)
    gramp.add_argument("--epsilon", type=int, default=0, choices=[0, 1])
    gramp.add_argument("--lam", type=int, default=0, choices=[0, 1])
    gramp.set_defaults(func=cmd_gram)

    real = sub.add_parser("realization", help="vector-field realization")
    real_sub = real.add_subparsers(dest="subcommand", required=True)
    rverify = real_sub.add_parser("verify")
    # the paper's realization has no R eigenvalue, so no --r
    add_common(rverify, kinds=("ssch1", "ssch2"), values=("--d", "--m"))
    rverify.add_argument("--degree", type=int, default=8)
    rverify.set_defaults(func=cmd_realization_verify)
    return parser


def _merge_negative_values(argv):
    """Fold "--d -1/2" into "--d=-1/2" so argparse accepts negative
    rationals."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and \
                argv[i + 1].startswith("-"):
            out.append("%s=%s" % (tok, argv[i + 1]))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
