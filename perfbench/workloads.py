"""Workload definitions for the superschrod benchmark.

A workload is a cycle of strata.  Each stratum fixes the properties the
kernel's cost depends on (N=1 or N=2, massive or massless, critical or
generic d, degree); the seed draws the exact rational parameters inside
each stratum, one fresh draw per cycle.  Degrees are chosen per stratum so
that the strata of one workload cost about the same, which keeps the median
and the tail percentile inside a stratum rather than on a jump between two.

Every case has a known answer that is not the timed code path checking
itself: the paper's closed-form families and branch data, the determinant
criterion (Gram determinants against annihilator kernels), or a stdout
digest recorded from the CLI.

Kernel entry points are looked up through their modules at call time, so
that the tracer's wrappers (``tracing.py``) see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from superschrod import cli, quotient, realization, singular, superalgebra, verma

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOGUE = os.path.join(HERE, "cli_catalogue.json")

# (kind, massive, critical, degree).  The degrees bring every stratum of a
# workload to about the same case time (70-250 ms on a 2-core x86-64
# sandbox under Python 3.11); DESIGN.md gives the sizing basis.
STRATA = {
    "closure": [
        ("ssch1", True, False, 7),
        ("ssch1", True, True, 7),
        ("ssch1", False, False, 11),
        ("ssch1", False, True, 11),
        ("ssch2", True, False, 3),
        ("ssch2", True, True, 3),
        ("ssch2", False, False, 3),
        ("ssch2", False, True, 3),
    ],
    "shapovalov": [
        ("ssch1", True, False, 6),
        ("ssch1", True, True, 6),
        ("ssch1", False, False, 13),
        ("ssch1", False, True, 13),
        ("ssch2", True, False, 6),
        ("ssch2", True, True, 6),
        ("ssch2", False, False, 7),
        ("ssch2", False, True, 7),
    ],
    "realization": [
        ("ssch1", True, False, 4),
        ("ssch1", True, True, 4),
        ("ssch1", False, False, 5),
        ("ssch1", False, True, 5),
        ("ssch2", True, False, 2),
        ("ssch2", True, True, 2),
        ("ssch2", False, False, 3),
        ("ssch2", False, True, 3),
    ],
}


# ---------------------------------------------------------------------------
# seeded parameter draws


def _generic(rng, dens=(3, 5, 7)):
    """A rational that is neither an integer nor a half-integer."""
    q = rng.choice(dens)
    while True:
        p = rng.randint(-4 * q, 4 * q)
        if p % q:
            return Fraction(p, q)


def _mass(rng):
    return Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))


def _draw(rng, kind, massive, critical, degree):
    """Lowest-weight parameters for one stratum.

    Critical means: ssch1 massive d = p - 1/2, ssch1 massless d = p,
    ssch2 massive d = p + 1/2, ssch2 massless r = d - p - 1; p is drawn so
    that the singular vector it predicts lies within ``degree``.
    """
    m = _mass(rng) if massive else Fraction(0)
    r = None
    if kind == "ssch1":
        if not critical:
            d = _generic(rng)
        elif massive:
            d = Fraction(2 * rng.randint(0, (degree - 1) // 2) - 1, 2)
        else:
            d = Fraction(rng.randint(0, degree // 2))
        return {"kind": kind, "d": d, "m": m, "r": r, "degree": degree}
    if massive:
        d = (Fraction(2 * rng.randint(0, (degree - 2) // 2) + 1, 2)
             if critical else _generic(rng))
        r = _generic(rng)
    else:
        d = _generic(rng, dens=(3,))
        if critical:
            r = d - rng.randint(0, degree - 2) - 1
        else:
            r = _generic(rng, dens=(5, 7))
    return {"kind": kind, "d": d, "m": m, "r": r, "degree": degree}


def _catalogue():
    with open(CATALOGUE) as fh:
        return json.load(fh)["requests"]


def make_cycle(workload, rng):
    """One cycle of cases: every stratum (or catalogue entry) once."""
    if workload == "cli":
        entries = _catalogue()
        rng.shuffle(entries)
        return [dict(entry, workload="cli") for entry in entries]
    return [dict(_draw(rng, *stratum), workload=workload,
                 stratum="%s/%s/%s/deg%d" % (
                     stratum[0], "massive" if stratum[1] else "massless",
                     "critical" if stratum[2] else "generic", stratum[3]))
            for stratum in STRATA[workload]]


def case_list(workload, seed, cycles):
    rng = random.Random(seed)
    return [case for _ in range(cycles) for case in make_cycle(workload, rng)]


def describe(case):
    """Stable one-line description of a case, for failure reports and the
    self-check's case-list comparison."""
    if case["workload"] == "cli":
        return "cli " + " ".join(case["argv"])
    return "%s %s d=%s m=%s r=%s" % (case["workload"], case["stratum"],
                                    case["d"], case["m"], case["r"])


# ---------------------------------------------------------------------------
# running a case (the timed part)


def setup(workload):
    """Build what every case of the workload starts from: the structure
    tables, and for the CLI its argument parser."""
    tables = [superalgebra.build_algebra(kind) for kind in ("ssch1", "ssch2")]
    if workload == "cli":
        cli.build_parser()
    return tables


def _lowest_weight(case):
    return verma.LowestWeight(case["kind"], case["d"], case["m"], case["r"])


def _run_closure(case):
    module = verma.VermaModule(_lowest_weight(case))
    return module.closure_failures(case["degree"])


def _run_shapovalov(case):
    module = verma.VermaModule(_lowest_weight(case))
    reports = singular.find_singular(module, case["degree"])
    grams = [quotient.gram(module, w, check_adjoint=False)
             for w in module.enumerate_weights(case["degree"])]
    return module, reports, grams


def _run_realization(case):
    ops = realization.build_realization(case["kind"], case["d"], case["m"])
    table = superalgebra.build_algebra(case["kind"])
    return realization.verify_relations(ops, table, case["degree"],
                                        d=case["d"], m=case["m"])


def _run_cli(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(case["argv"]))
    return code, out.getvalue().encode()


RUNNERS = {"closure": _run_closure, "shapovalov": _run_shapovalov,
           "realization": _run_realization, "cli": _run_cli}


def run_case(case):
    return RUNNERS[case["workload"]](case)


# ---------------------------------------------------------------------------
# known answers (untimed)


def _check_closure(case, failures):
    if failures != []:
        return "closure failures %s" % (failures[:2],)
    return None


def _check_realization(case, report):
    if not report.ok or report.failures:
        return "realization failures %s" % (report.failures[:2],)
    if report.certified_degree != case["degree"]:
        return "certified degree %s" % report.certified_degree
    return None


def _check_cli(case, result):
    code, stdout = result
    if code != case["exit_code"]:
        return "exit code %s, expected %s" % (code, case["exit_code"])
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != case["sha256"]:
        return "stdout digest %s differs from the recorded one" % digest[:12]
    return None


def predicted_singular_weights(case):
    """Lowest singular weights of the Verma module.

    From the paper (Props. 2 and 4): ssch1 massive, one at 2p+1 when
    d = p - 1/2; ssch1 massless, G v0 at 1; ssch2 massive, one at (2p+2, 0)
    when d = p + 1/2; ssch2 massless, X+ v0 at (0, 1), G v0 at (1, 0) and
    G^p S- X+ v0 at (p+1, 0) when r = d - p - 1.

    Not among the paper's branches, but immediate from the brackets
    {Q+, S-} = -D - R, [P, S-] = X-, {Q-, S+} = -D + R and [Q-, G] = X-:
    on the massive ssch2 lines r = d, S- v0 at (1, -1), and r = -d - 1,
    (G X+ - m S+) v0 at (1, 1), are singular.  The Gram determinants agree.
    ``classify`` takes neither branch, so ``classify --certify`` fails its
    certificate at such points.
    """
    kind, d, m, r, top = (case["kind"], case["d"], case["m"], case["r"],
                          case["degree"])
    if kind == "ssch1":
        if not m:
            return [1]
        p = d + Fraction(1, 2)
        return [int(2 * p + 1)] if (p.denominator == 1 and p >= 0
                                    and 2 * p + 1 <= top) else []
    if m:
        out = [(1, -1)] if r == d else []
        if r == -d - 1:
            out.append((1, 1))
        p = d - Fraction(1, 2)
        if p.denominator == 1 and p >= 0 and 2 * p + 2 <= top:
            out.append((int(2 * p + 2), 0))
        return out
    out = [(0, 1), (1, 0)]
    p = d - r - 1
    if p.denominator == 1 and 0 <= p and p + 1 <= top:
        out.append((int(p) + 1, 0))
    return out


def _massive_closed_form(module, weight):
    if weight == (1, -1):
        return module.basis_vector((0, 0, 0, 1, 0))
    if weight == (1, 1):
        return module.basis_vector((1, 0, 0, 0, 1)) - module.basis_vector(
            (0, 0, 1, 0, 0), module.lw.m)
    if module.kind == "ssch1":
        return singular.closed_form_n1(module, (weight - 1) // 2)
    return singular.closed_form_n2(module, weight[0] // 2 - 1)


def raising_reachable(kind, source, target):
    """Whether target = source + weight of a raising PBW monomial.

    Raising monomials: G^k K^l S^a (N=1, weight k + 2l + a) and
    G^k K^l S+^a S-^b X+^c (N=2, weight (k + 2l + a + b, a - b + c)).
    """
    if kind == "ssch1":
        return target >= source
    d1, d2 = target[0] - source[0], target[1] - source[1]
    return any(a - b + c == d2 and d1 - a - b >= 0
               for a in (0, 1) for b in (0, 1) for c in (0, 1))


def _check_shapovalov(case, result):
    module, reports, grams = result
    kind, top = case["kind"], case["degree"]
    found = {rep.weight: rep for rep in reports}
    predicted = predicted_singular_weights(case)
    if case["m"]:
        if sorted(found) != sorted(predicted):
            return "singular weights %s, predicted %s" % (
                sorted(found), predicted)
        for weight in predicted:
            rep = found[weight]
            if rep.kernel_dim != 1:
                return "kernel dim %d at %s" % (rep.kernel_dim, weight)
            closed = _massive_closed_form(module, weight)
            if rep.vectors[0] != closed.normalized():
                return "vector at %s differs from the closed form" % (weight,)
    elif kind == "ssch1":
        for p in range(1, top + 1):
            if p not in found or not singular.in_span(
                    module, p, found[p].vectors, module.basis_vector((p, 0, 0))):
                return "G^%d v0 missing from the kernel" % p
    else:
        for p in range(0, top + 1):
            weight = (p, 1)
            if weight not in found or not singular.in_span(
                    module, weight, found[weight].vectors,
                    module.basis_vector((p, 0, 0, 0, 1))):
                return "G^%d X+ v0 missing from the kernel" % p
        for p in range(0, top):
            weight = (p + 1, 0)
            extra = module.basis_vector((p, 0, 0, 1, 1))
            present = weight in found and singular.in_span(
                module, weight, found[weight].vectors, extra)
            if present != (case["r"] == case["d"] - p - 1):
                return "extra family at p=%d present=%s" % (p, present)
    for gm in grams:
        if gm.parity_violations:
            return "parity violations at %s" % (gm.weight,)
        below = any(raising_reachable(kind, s, gm.weight) for s in predicted)
        if (not gm.det) != below:
            return "det at %s is %s, singular vector below: %s" % (
                gm.weight, gm.det, below)
    return None


CHECKS = {"closure": _check_closure, "shapovalov": _check_shapovalov,
          "realization": _check_realization, "cli": _check_cli}


def check_case(case, result):
    """None when the result matches the known answer, else a reason."""
    return CHECKS[case["workload"]](case, result)
