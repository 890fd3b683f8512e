"""Golden-output corpus: the SHA-256 of every library output at fixed points.

    PYTHONPATH=src python3 tests/golden/record.py          # re-record
    PYTHONPATH=src python3 tests/golden/record.py --check  # recompute all

Each case is one library call at fixed parameters.  Its output is rendered
as canonical JSON (sorted keys, no whitespace) and ``digests.json`` stores
the SHA-256 of that text under the case id.  ``--check`` recomputes every
case and exits 1 when a digest differs or a case is missing; the tier-1
suite recomputes the ``QUICK`` subset.

The cases cover ``find_singular`` reports, ``classify(certify=True)``
records (also on every massless N=2 branch), ``gram`` at every weight for every (epsilon, lambda) and
``closure_failures`` lists (``max_report=10**6``) on the seed 0-5
benchmark strata, on passing and on mutated modules and, to degree 7, on
massive N=1 modules with chi^2 away from m/2; ``verify_relations``
reports: passing realizations, every drop and double mutant
(``max_failures=10**6``) and an order-3 operator; and the exit code,
stdout and stderr of ``algebra verify --json`` for every kind, adjoint map
and (epsilon, lambda), and of ``algebra dump`` for every kind.  A call
that raises records its exception class and message.
Known-bad points are recorded as they behave today and listed under
``known_bad`` with the ROADMAP item that changes them; that item then shows
its intended change as a digest diff.  Re-record only when a change alters
an output on purpose, and list the changed ids in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction as F

from superschrod import cli
from superschrod.quotient import FactorModule, classify, gram
from superschrod.realization import (SuperDiffOp, build_realization,
                                     poly_mono, verify_relations)
from superschrod.singular import find_singular
from superschrod.superalgebra import (EVEN, Generator, StructureTable,
                                      build_algebra)
from superschrod.verma import LowestWeight, VermaModule

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

# The shapovalov benchmark strata, one cycle each for seeds 0, 1 and 2, as
# drawn by perfbench/workloads.py: (kind, d, m, r, degree).
SHAPOVALOV = [
    ("ssch1", "-4/3", "2", None, 6), ("ssch1", "1/2", "5/2", None, 6),
    ("ssch1", "2/5", "0", None, 13), ("ssch1", "4", "0", None, 13),
    ("ssch2", "-8/3", "2/3", "7/3", 6), ("ssch2", "5/2", "1", "-19/7", 6),
    ("ssch2", "11/3", "0", "1/5", 7), ("ssch2", "5/3", "0", "2/3", 7),
    ("ssch1", "-4/3", "2/3", None, 6), ("ssch1", "1/2", "1/2", None, 6),
    ("ssch1", "4/5", "0", None, 13), ("ssch1", "6", "0", None, 13),
    ("ssch2", "-19/5", "2", "7/5", 6), ("ssch2", "5/2", "5", "-3/5", 6),
    ("ssch2", "-2/3", "0", "-19/5", 7), ("ssch2", "8/3", "0", "-7/3", 7),
    ("ssch1", "-1/3", "1", None, 6), ("ssch1", "3/2", "2/3", None, 6),
    ("ssch1", "-4/5", "0", None, 13), ("ssch1", "4", "0", None, 13),
    ("ssch2", "-7/3", "2/3", "12/5", 6), ("ssch2", "3/2", "1", "-11/7", 6),
    ("ssch2", "-1/3", "0", "-8/7", 7), ("ssch2", "1/3", "0", "-14/3", 7),
]

# The shapovalov strata of seeds 3, 4 and 5, drawn the same way.
SHAPOVALOV_GRAM = [
    ("ssch1", "-20/7", "2/3", None, 6), ("ssch1", "1/2", "1", None, 6),
    ("ssch1", "9/7", "0", None, 13), ("ssch1", "0", "0", None, 13),
    ("ssch2", "-4/5", "5", "-16/7", 6), ("ssch2", "5/2", "3", "2/7", 6),
    ("ssch2", "8/3", "0", "-6/5", 7), ("ssch2", "4/3", "0", "-8/3", 7),
    ("ssch1", "11/3", "1", None, 6), ("ssch1", "-1/2", "2", None, 6),
    ("ssch1", "-10/3", "0", None, 13), ("ssch1", "0", "0", None, 13),
    ("ssch2", "-17/5", "4/3", "4/3", 6), ("ssch2", "3/2", "5/2", "-4/3", 6),
    ("ssch2", "8/3", "0", "23/7", 7), ("ssch2", "-7/3", "0", "-16/3", 7),
    ("ssch1", "-6/7", "5/2", None, 6), ("ssch1", "3/2", "2", None, 6),
    ("ssch1", "-27/7", "0", None, 13), ("ssch1", "6", "0", None, 13),
    ("ssch2", "-25/7", "4", "-1/3", 6), ("ssch2", "3/2", "4", "-22/7", 6),
    ("ssch2", "11/3", "0", "6/5", 7), ("ssch2", "-7/3", "0", "-19/3", 7),
]

# Massive N=2 points on the lines r = d and r = -d-1, where S- v0 and
# (G X+ - m S+) v0 are singular but ``classify`` takes no branch for them.
LINES = [
    ("ssch2", "0", "1", "0", 5), ("ssch2", "-1", "1", "0", 5),
    ("ssch2", "1/2", "1", "1/2", 5), ("ssch2", "3/2", "1", "3/2", 5),
    ("ssch2", "1/2", "1", "-3/2", 5), ("ssch2", "3/2", "1", "-5/2", 5),
    ("ssch2", "2/3", "2", "2/3", 5), ("ssch2", "2/3", "2", "-5/3", 5),
    ("ssch2", "-19/5", "4", "14/5", 5),
]

# Massless N=2 points on the classify branches that no point above
# reaches: r = d and r = -d with an integer d (L-^l/II^l, L+^l/II^l) and
# with a non-integer d (L-^d, L+^d), d = r = 0, and an integer d off both
# lines (L^{p,r}).
BRANCHES = [
    ("ssch2", "2", "0", "2", 6), ("ssch2", "1", "0", "-1", 6),
    ("ssch2", "3/2", "0", "3/2", 6), ("ssch2", "-2/3", "0", "2/3", 6),
    ("ssch2", "0", "0", "0", 6), ("ssch2", "2", "0", "1/3", 6),
    ("ssch2", "1", "0", "1/2", 6),
]

# Massive N=1 points, each with chi^2 at its default m/2, 1/3 and -3/4.
CHI_POINTS = [("ssch1", "1/2", "1", None, 6), ("ssch1", "3/2", "1", None, 6),
              ("ssch1", "2/3", "3/2", None, 6)]
CHI_SQUARES = (None, "1/3", "-3/4")
# closure on those points to this degree, at the chi^2 values other than m/2
CHI_CLOSURE_DEGREE = 7

# The realization benchmark strata, one cycle each for seeds 0, 1 and 2,
# as drawn by perfbench/workloads.py: (kind, d, m, degree).
REALIZATION = [
    ("ssch1", "-4/3", "2", 4), ("ssch1", "1/2", "5/2", 4),
    ("ssch1", "2/5", "0", 5), ("ssch1", "2", "0", 5),
    ("ssch2", "-8/3", "2/3", 2), ("ssch2", "1/2", "1", 2),
    ("ssch2", "-2/3", "0", 3), ("ssch2", "1/3", "0", 3),
    ("ssch1", "-4/3", "2/3", 4), ("ssch1", "1/2", "1/2", 4),
    ("ssch1", "4/5", "0", 5), ("ssch1", "0", "0", 5),
    ("ssch2", "1/3", "1/2", 2), ("ssch2", "1/2", "1/3", 2),
    ("ssch2", "-2/3", "0", 3), ("ssch2", "8/3", "0", 3),
    ("ssch1", "-1/3", "1", 4), ("ssch1", "1/2", "2/3", 4),
    ("ssch1", "18/5", "0", 5), ("ssch1", "0", "0", 5),
    ("ssch2", "15/7", "5", 2), ("ssch2", "1/2", "3", 2),
    ("ssch2", "-11/3", "0", 3), ("ssch2", "-2/3", "0", 3),
]

# One point per kind for the drop and double realization mutants.
MUTANT_POINTS = [("ssch1", "3/4", "1"), ("ssch2", "1", "2")]

# Known-bad points: case id -> the ROADMAP item that changes its output.
_ITEM3 = ("ROADMAP item 3: verdict misses the r = d / r = -d-1 branch, "
          "so the certificate fails")


def _lw(kind, d, m, r):
    return LowestWeight(kind, F(d), F(m), None if r is None else F(r))


def _point_id(kind, d, m, r, chi_square=None):
    text = "%s d=%s m=%s" % (kind, d, m)
    if r is not None:
        text += " r=%s" % r
    if chi_square is not None:
        text += " chi2=%s" % chi_square
    return text


def _module(point, chi_square=None):
    kind, d, m, r, _ = point
    return VermaModule(_lw(kind, d, m, r),
                       chi_square=None if chi_square is None else F(chi_square))


def _find(point, chi_square=None):
    module = _module(point, chi_square)
    return [rep.to_json_dict() for rep in find_singular(module, point[4])]


def _classify(point):
    kind, d, m, r, degree = point
    try:
        record = classify(_lw(kind, d, m, r), cutoff=min(degree, 6),
                          certify=True)
    except RuntimeError as exc:
        return {"raises": "RuntimeError", "message": str(exc)}
    return record.to_json_dict()


def _grams(point, chi_square=None):
    module = _module(point, chi_square)
    out = []
    for weight in module.enumerate_weights(min(point[4], 6)):
        for epsilon in (0, 1):
            for lam in (0, 1):
                gm = gram(module, weight, epsilon, lam)
                data = gm.to_json_dict(module)
                data["epsilon"], data["lambda"] = epsilon, lam
                data["parity_violations"] = [
                    [list(a[0]), a[1], list(b[0]), b[1], why]
                    for a, b, why in gm.parity_violations]
                out.append(data)
    return out


def _closure(space, degree):
    return [[x, y, list(mono)] for x, y, mono in
            space.closure_failures(degree, max_report=10 ** 6)]


# the closure mutants, shared with tests/test_verma.py; each alters the
# kind's parametric rows as a module reads them, so its point rows, its
# ``act`` and its closure certificate all see the mutation


class DoubledH(VermaModule):
    """H acting twice over, which breaks the brackets that involve H."""

    def _parametric_row(self, gen, mono):
        row = super()._parametric_row(gen, mono)
        if gen != "H":
            return row
        return tuple((mn, *(2 * v for v in coeffs)) for mn, *coeffs in row)


def add_one(row, mono):
    """A parametric row with 1 added to the constant term at ``mono``."""
    out = [(mn, a0 + 1, *rest) if mn == mono else (mn, a0, *rest)
           for mn, a0, *rest in row]
    if all(mn != mono for mn, *_ in row):
        out.append((mono, 1, 0, 0, 0, 0))
    return tuple(entry for entry in out if any(entry[1:]))


class MutatedTable(VermaModule):
    """The N=1 action with Q on G^k K^l S v0 giving d - l - k + 1 on
    G^k K^l v0 instead of d - l - k."""

    def _parametric_row(self, gen, mono):
        row = super()._parametric_row(gen, mono)
        if gen != "Q" or mono[2] != 1:
            return row
        return add_one(row, (mono[0], mono[1], 0))


# realization reports


def _report(report):
    return {"kind": report.kind, "d": str(report.d), "m": str(report.m),
            "max_degree": report.max_degree,
            "certified_degree": report.certified_degree,
            "failures": [[x, y, None if mono is None else list(mono), res]
                         for x, y, mono, res in report.failures],
            "parity_ok": report.parity_ok,
            "degree_raise": report.degree_raise}


def _verify(kind, d, m, degree):
    ops = build_realization(kind, F(d), F(m))
    return _report(verify_relations(ops, build_algebra(kind), degree,
                                    d=F(d), m=F(m)))


def term_mutants(ops):
    """(gen, term index, "drop" or "double", mutated operator map) for
    every term of every operator, in operator and term order; shared with
    tests/test_realization.py."""
    for gen, op in ops.items():
        for j, (coeff, dt, dx, odds) in enumerate(op.terms):
            for how in ("drop", "double"):
                terms = list(op.terms)
                if how == "drop":
                    del terms[j]
                else:
                    terms[j] = (coeff.scale(2), dt, dx, odds)
                yield gen, j, how, dict(ops, **{gen: SuperDiffOp(op.space,
                                                                 terms)})


def _verify_mutants(kind, d, m, degree):
    table = build_algebra(kind)
    base = build_realization(kind, F(d), F(m))
    return [[gen, j, how, _report(verify_relations(
                 ops, table, degree, max_failures=10 ** 6))]
            for gen, j, how, ops in term_mutants(base)]


def order_three_case():
    """ssch1's H and D at d = 3/4, m = 1 on a two-generator table with
    [H, D] = 2H, H given an extra d_t^3 term: the residual of [H, D] is
    4 d_t^3, which vanishes on every monomial of degree <= 2 and is 24 on
    t^3."""
    ops = build_realization("ssch1", F(3, 4), F(1))
    h = ops["H"]
    ops = {"H": SuperDiffOp(h.space, h.terms + [(poly_mono(h.space), 3, 0,
                                                  ())]),
           "D": ops["D"]}
    table = StructureTable("ssch1", [Generator("H", EVEN, (-2,)),
                                     Generator("D", EVEN, (0,))],
                           {("H", "D"): {"H": 2}})
    return ops, table


def _realization_cases():
    for kind, d, m, degree in dict.fromkeys(REALIZATION):
        for deg in dict.fromkeys((degree, 8)):
            yield ("verify_relations %s d=%s m=%s deg%d" % (kind, d, m, deg),
                   lambda kind=kind, d=d, m=m, deg=deg: _verify(kind, d, m,
                                                                deg))
    for kind, d, m in MUTANT_POINTS:
        yield ("verify_relations mutants %s d=%s m=%s deg3" % (kind, d, m),
               lambda kind=kind, d=d, m=m: _verify_mutants(kind, d, m, 3))
    for deg in (2, 3, 4):
        yield ("verify_relations order3 ssch1 d=3/4 m=1 deg%d" % deg,
               lambda deg=deg: _report(verify_relations(
                   *order_three_case(), deg)))


def _not_singular_quotient(kind, d, m, r):
    """The quotient by G v0, which is not singular when m != 0."""
    module = VermaModule(_lw(kind, d, m, r))
    g_v0 = module.basis_vector((1,) + module.vacuum[1:])
    return FactorModule(module, [g_v0])


def _closure_cases():
    yield "closure mutant DoubledH ssch1 d=3/4 m=1", lambda: _closure(
        DoubledH(_lw("ssch1", "3/4", "1", None)), 3)
    yield "closure mutant MutatedTable ssch1 d=1/2 m=1", lambda: _closure(
        MutatedTable(_lw("ssch1", "1/2", "1", None)), 3)
    yield "closure mutant chi2=-1/2 ssch1 d=1/2 m=1", lambda: _closure(
        VermaModule(_lw("ssch1", "1/2", "1", None), chi_square=F(-1, 2)), 3)
    yield "closure mutant G-quotient ssch1 d=7/3 m=1", lambda: _closure(
        _not_singular_quotient("ssch1", "7/3", "1", None), 3)
    yield "closure mutant G-quotient ssch2 d=2 m=3/2 r=1/3", lambda: _closure(
        _not_singular_quotient("ssch2", "2", "3/2", "1/3"), 2)
    for kind, d, m, r, degree in (("ssch1", "1/2", "1", None, 4),
                                  ("ssch1", "3", "0", None, 5),
                                  ("ssch2", "3/2", "1", "0", 3),
                                  ("ssch2", "2", "0", "-2", 3)):
        yield ("closure terminal %s" % _point_id(kind, d, m, r),
               lambda kind=kind, d=d, m=m, r=r, degree=degree: _closure(
                   classify(_lw(kind, d, m, r)).terminal, degree))


def _cli(argv):
    """Exit code, stdout and stderr of one in-process CLI request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _algebra_cases():
    for kind in ("sch1", "ssch1", "ssch2"):
        for adjoint in ("all", "omega1", "omega2", "sigma1", "sigma2",
                        "identity"):
            for epsilon in (0, 1):
                for lam in (0, 1):
                    argv = ["algebra", "verify", "--algebra", kind,
                            "--adjoint", adjoint, "--epsilon", str(epsilon),
                            "--lam", str(lam), "--json"]
                    yield ("algebra verify %s %s eps=%d lam=%d"
                           % (kind, adjoint, epsilon, lam),
                           lambda argv=argv: _cli(argv))
        yield ("algebra dump %s" % kind,
               lambda kind=kind: _cli(["algebra", "dump", "--algebra", kind]))


def _point_cases(point):
    """find, classify, gram and closure at one benchmark point."""
    pid = _point_id(*point[:4])
    closure_degree = 4 if point[0] == "ssch1" else 2
    return [("find %s deg%d" % (pid, point[4]),
             lambda point=point: _find(point)),
            ("classify %s" % pid, lambda point=point: _classify(point)),
            ("gram %s" % pid, lambda point=point: _grams(point)),
            ("closure %s" % pid,
             lambda point=point, degree=closure_degree: _closure(
                 _module(point), degree))]


def cases():
    """(case id, thunk) pairs in a fixed order."""
    out = []
    # seeds 0 and 2 both draw ssch1 d=4 m=0: each point once
    for point in dict.fromkeys(SHAPOVALOV + LINES):
        out += _point_cases(point)
    for point in CHI_POINTS:
        for chi_square in CHI_SQUARES:
            pid = _point_id(*point[:4], chi_square=chi_square)
            out += [("find %s deg%d" % (pid, point[4]),
                     lambda point=point, c=chi_square: _find(point, c)),
                    ("gram %s" % pid,
                     lambda point=point, c=chi_square: _grams(point, c)),
                    ("closure %s" % pid,
                     lambda point=point, c=chi_square: _closure(
                         _module(point, c), 4))]
        out.append(("classify %s" % _point_id(*point[:4]),
                    lambda point=point: _classify(point)))
    # points drawn again (or already among the chi^2 points) once each
    seen = {case_id for case_id, _ in out}
    for point in SHAPOVALOV_GRAM:
        for case_id, thunk in _point_cases(point):
            if case_id not in seen:
                seen.add(case_id)
                out.append((case_id, thunk))
    out += [("classify %s" % _point_id(*point[:4]),
             lambda point=point: _classify(point)) for point in BRANCHES]
    out += list(_closure_cases())
    out += list(_realization_cases())
    for point in CHI_POINTS:
        for chi_square in CHI_SQUARES[1:]:
            out.append(("closure %s deg%d" % (
                _point_id(*point[:4], chi_square=chi_square),
                CHI_CLOSURE_DEGREE),
                lambda point=point, c=chi_square: _closure(
                    _module(point, c), CHI_CLOSURE_DEGREE)))
    out += list(_algebra_cases())
    ids = [case_id for case_id, _ in out]
    assert len(set(ids)) == len(ids), "duplicate case ids"
    return out


# A subset cheap enough for the tier-1 suite (about a third of the
# corpus time): the line points (d = r = 1/2 among them), the chi^2
# variants (the degree-7 closures among them), the closure mutants, the
# ssch1 realization mutants, the order-3 realization, the algebra
# requests, one point of each kind of module and the classify branch
# points.
QUICK = ("d=1/2 m=1 r=1/2", "d=0 m=1 r=0", "chi2=", "closure mutant",
         "closure terminal", "verify_relations mutants ssch1",
         "verify_relations order3", "algebra ", "ssch1 d=-4/3 m=2 ",
         "ssch1 d=6 m=0", "ssch1 d=1/2 m=1 ", "ssch2 d=5/2 m=1 r=-19/7",
         "ssch2 d=3/2 m=1 r=-11/7", "ssch2 d=5/3 m=0 r=2/3",
         "classify ssch2 d=2 m=0 ", "classify ssch2 d=1 m=0 ",
         "classify ssch2 d=3/2 m=0 ", "classify ssch2 d=-2/3 m=0 ",
         "classify ssch2 d=0 m=0 ")


def is_quick(case_id):
    # a tag that ends in a space matches a whole parameter value
    return any(tag in case_id + " " for tag in QUICK)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def known_bad():
    return {"classify %s" % _point_id(*point[:4]): _ITEM3 for point in LINES}


def load():
    with open(DIGESTS) as fh:
        return json.load(fh)


def mismatches(selected, recorded):
    """Ids among ``selected`` (case id, thunk) whose digest differs from
    ``recorded`` or is missing there, or whose call raises."""
    out = []
    for case_id, thunk in selected:
        try:
            value = thunk()
        except Exception as exc:  # a case that newly raises differs too
            out.append("%s (raises %s: %s)" % (case_id, type(exc).__name__,
                                               exc))
            continue
        if recorded.get(case_id) != digest(value):
            out.append(case_id)
    return out


def main(argv):
    all_cases = cases()
    if argv == ["--check"]:
        recorded = load()["sha256"]
        bad = mismatches(all_cases, recorded)
        extra = sorted(set(recorded) - {case_id for case_id, _ in all_cases})
        print("%d cases, %d differ, %d recorded ids without a case"
              % (len(all_cases), len(bad), len(extra)))
        for case_id in bad + extra:
            print("  " + case_id)
        return 1 if bad or extra else 0
    if argv:
        sys.exit(__doc__)
    data = {"sha256": {case_id: digest(thunk()) for case_id, thunk in all_cases},
            "known_bad": known_bad()}
    with open(DIGESTS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
