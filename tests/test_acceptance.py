"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact rational arithmetic; there are no numeric
tolerances to tune.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from fractions import Fraction as F

import pytest

from oracles import intertwiner_failures, reachable_weight
from superschrod.cli import main as cli_main
from superschrod.quotient import classify, gram, quotient_by_singular
from superschrod.realization import (build_realization, verify_chi_eta,
                                     verify_relations)
from superschrod.scalars import QI
from superschrod.singular import (closed_form_n1, closed_form_n2,
                                  closed_form_n2_extra, check_recurrences,
                                  find_singular, in_span)
from superschrod.superalgebra import (build_adjoint, build_algebra,
                                      verify_adjoint, verify_structure)
from superschrod.verma import LowestWeight, VermaModule

_T0 = time.monotonic()

N1_MASSIVE_CRITICAL = [F(2 * p - 1, 2) for p in (0, 1, 2, 3)]
N1_MASSIVE_REGULAR = [F(0), F(1, 4), F(1), F(7, 3)]
N1_MASSLESS = [F(0), F(1, 2), F(3)]
N2_MASSIVE = [(F(2 * p + 1, 2), r, p)
              for p in (1, 2) for r in (F(0), F(1), F(-3, 2))]
N2_MASSLESS = [(F(3), F(1)), (F(5, 2), F(1, 3)), (F(2), F(0)),
               (F(1), F(-5, 2))]


def _report(criterion, text):
    print("PASS criterion %d: %s" % (criterion, text))


def test_criterion_01_algebra_consistency():
    sizes = {"sch1": 6, "ssch1": 9, "ssch2": 13}
    for kind, size in sizes.items():
        table = build_algebra(kind)
        assert len(table.names) == size
        report = verify_structure(table)
        assert not report.jacobi_failures, (kind, report.jacobi_failures[:3])
        assert not report.antisymmetry_failures
        assert not report.degree_failures
    _report(1, "super-Jacobi, antisymmetry and degree additivity pass "
               "exhaustively for sch1/ssch1/ssch2")


def test_criterion_02_adjoint_maps():
    checked = 0
    for kind in ("ssch1", "ssch2"):
        table = build_algebra(kind)
        names = ["omega1", "omega2"]
        if kind == "ssch2":
            names += ["sigma1", "sigma2"]
        for name in names:
            for eps in (0, 1):
                for lam in (0, 1):
                    amap = build_adjoint(table, name, eps, lam)
                    rep = verify_adjoint(table, amap)
                    assert rep.ok, (kind, name, eps, lam)
                    if name.startswith("omega"):
                        # omega^2 = id; omega2 carries factors of i and is
                        # idempotent precisely with antilinear scalar action
                        assert rep.involution == "identity"
                        assert rep.convention == "plain"
                        assert amap.antilinear == (name == "omega2")
                    else:
                        # sigma^2 = +id on even, -id on odd
                        assert rep.involution == "parity"
                        assert rep.convention == "graded"
                        assert amap.antilinear
                    checked += 1
    _report(2, "%d adjoint-map verifications: omega maps are plain "
               "involutive anti-automorphisms, sigma maps graded with "
               "sigma^2 = parity, for all epsilon/lambda choices" % checked)


def test_criterion_03_representation_closure():
    count = 0
    for m in (F(0), F(1), F(3, 2)):
        for d in (F(-1, 2), F(0), F(1, 2), F(2)):
            mod = VermaModule(LowestWeight("ssch1", d, m))
            assert not mod.closure_failures(8), ("ssch1", m, d)
            count += 1
    for m in (F(0), F(1), F(3, 2)):
        for d in (F(-1, 2), F(0), F(1, 2), F(2)):
            for r in (F(0), F(1), F(-5, 2)):
                mod = VermaModule(LowestWeight("ssch2", d, m, r))
                assert not mod.closure_failures(8), ("ssch2", m, d, r)
                count += 1
    _report(3, "bracket compatibility holds on all monomials of degree <= 8 "
               "for all generator pairs across %d parameter points" % count)


def test_criterion_04_n1_singular_vectors():
    # massive critical line: exactly one singular vector per module
    for p, d in enumerate(N1_MASSIVE_CRITICAL):
        mod = VermaModule(LowestWeight("ssch1", d, 1))
        reports = find_singular(mod, 2 * p + 2)
        assert len(reports) == 1, (p, [r.weight for r in reports])
        rep = reports[0]
        assert rep.weight == 2 * p + 1
        assert rep.kernel_dim == 1
        assert rep.matched == "prop2-massive"
        assert rep.vectors[0] == closed_form_n1(mod, p).normalized()
    # regular points: no singular vectors at all
    for d in N1_MASSIVE_REGULAR:
        mod = VermaModule(LowestWeight("ssch1", d, 1))
        assert find_singular(mod, 8) == [], d
    # massless: G^p v0 found at every degree 1..8
    for d in N1_MASSLESS:
        mod = VermaModule(LowestWeight("ssch1", d, 0))
        reports = {rep.weight: rep for rep in find_singular(mod, 8)}
        for p in range(1, 9):
            assert p in reports, (d, p)
            assert in_span(mod, p, reports[p].vectors,
                           mod.basis_vector((p, 0, 0))), (d, p)
    _report(4, "N=1 singular vectors: unique closed-form match at "
               "d = p-1/2 (p=0..3), none for regular d, and G^p v0 at "
               "every degree 1..8 for the massless sweep")


def test_criterion_05_n2_singular_vectors():
    for d, r, p in N2_MASSIVE:
        mod = VermaModule(LowestWeight("ssch2", d, 1, r))
        reports = find_singular(mod, 2 * p + 2)
        assert len(reports) == 1, (d, r, [x.weight for x in reports])
        rep = reports[0]
        assert rep.weight == (2 * p + 2, 0)
        assert rep.kernel_dim == 1
        assert rep.matched == "prop4-massive"
        # the closed form including its (d+r+1)/(2d+1) coefficient
        assert rep.vectors[0] == closed_form_n2(mod, p).normalized()
        rec = check_recurrences(p, mod.lw)
        assert rec.ok, (d, r, rec.passed, rec.constraint_failures)
    for d, r in N2_MASSLESS:
        mod = VermaModule(LowestWeight("ssch2", d, 0, r))
        reports = {rep.weight: rep for rep in find_singular(mod, 6)}
        for p in range(0, 7):
            rep = reports[(p, 1)]
            assert in_span(mod, (p, 1), rep.vectors,
                           mod.basis_vector((p, 0, 0, 0, 1))), (d, r, p)
        # extra family exactly when r = d - p - 1
        for p in range(0, 5):
            weight = (p + 1, 0)
            extra = closed_form_n2_extra(mod, p)
            present = weight in reports and \
                in_span(mod, weight, reports[weight].vectors, extra)
            assert present == (r == d - p - 1), (d, r, p)
    _report(5, "N=2 singular vectors: unique closed-form match (with the "
               "(d+r+1)/(2d+1) coefficient and recurrences) on the massive "
               "line, G^p X+ v0 everywhere and G^p S- X+ v0 exactly at "
               "r = d-p-1 in the massless sweep")


def test_criterion_06_n1_classification():
    # all four branches
    rec = classify(LowestWeight("ssch1", F(2), 1))
    assert rec.verdict == "V^d" and rec.dimension is None
    rec = classify(LowestWeight("ssch1", F(1, 2), 1))
    assert rec.verdict == "V^d/I^d" and rec.dimension is None
    rec = classify(LowestWeight("ssch1", F(7, 3), 0))
    assert rec.verdict == "V^d/I^1" and rec.dimension is None
    for p in (1, 2, 3):
        rec = classify(LowestWeight("ssch1", F(p), 0))
        assert rec.verdict == "(V^p/I^1)/I^p"
        assert rec.dimension == 2 * p + 1
        terminal = rec.terminal
        assert len(terminal.all_basis_monomials()) == 2 * p + 1
        # P, G, M, X act as zero (chi = 0 in the massless module)
        for gen in ("P", "G", "M", "X"):
            for mono in terminal.all_basis_monomials():
                assert not terminal.act(gen, mono), (p, gen, mono)
    # the massive factor module carries no singular vectors up to degree 8
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    fm = quotient_by_singular(mod, closed_form_n1(mod, 1))
    assert find_singular(fm, 8) == []
    _report(6, "N=1 classification: all four branches, dims 3/5/7 by "
               "explicit basis count, trivial P/G/M/X in the massless "
               "terminals, massive factor has no singular vectors <= 8")


def test_criterion_07_n2_classification():
    rec = classify(LowestWeight("ssch2", F(5, 2), 1, F(1, 3)))
    assert rec.verdict == "V^{d,r}/I^{d,r}"
    rec = classify(LowestWeight("ssch2", F(3, 4), 1, F(1, 3)))
    assert rec.verdict == "V^{d,r}"
    rec = classify(LowestWeight("ssch2", F(5, 2), 0, F(1, 3)))
    assert rec.verdict == "L^{d,r}" and rec.dimension is None
    rec = classify(LowestWeight("ssch2", F(1, 3), 0, F(-1, 3)))
    assert rec.verdict == "L+^d" and rec.dimension is None
    rec = classify(LowestWeight("ssch2", F(2), 0, F(1, 3)))
    assert rec.verdict == "L^{p,r}" and rec.dimension == 8
    for ell in (0, 1, 2, 3):
        rec = classify(LowestWeight("ssch2", F(ell), 0, F(-ell)))
        assert rec.verdict == "L+^l/II^l"
        assert rec.dimension == 2 * ell + 1
        assert len(rec.terminal.all_basis_monomials()) == 2 * ell + 1
    # explicit intertwiner between the plus and minus massless factors
    for d in (F(1, 3), F(-2)):
        assert intertwiner_failures(d, max_weight=8) == [], d
    # SV-iv appears exactly when d = l + 1
    for d, expect in ((F(2), True), (F(5, 2), False), (F(3), True)):
        mod = VermaModule(LowestWeight("ssch2", d, 0, F(1, 3)))
        fm = quotient_by_singular(mod, mod.basis_vector((0, 0, 0, 0, 1)))
        fm = quotient_by_singular(fm, mod.basis_vector((1, 0, 0, 0, 0)))
        reports = find_singular(fm, 8)
        if expect:
            ell = int(d) - 1
            expected = mod.basis_vector((0, ell, 1, 1, 0)) \
                + mod.basis_vector((0, ell + 1, 0, 0, 0)).scale(
                    QI((d - F(1, 3)) / d))
            assert any(rep.weight == (2 * ell + 2, 0)
                       and rep.vectors[0] == expected.normalized()
                       for rep in reports), d
        else:
            assert reports == [], d
    _report(7, "N=2 classification: all branches, dims 1/3/5/7 for the "
               "finite chain, explicit plus/minus intertwiner at weights "
               "<= 8, and the factor-module singular vector exactly at "
               "d = l+1")


def test_criterion_08_shapovalov_form():
    from oracles import gram_pair
    mod = VermaModule(LowestWeight("ssch1", F(2, 3), 1))
    assert gram_pair(mod, (mod.vacuum, 0), (mod.vacuum, 0)) == mod.ring.one
    # cross-weight orthogonality on all pairs up to degree 8
    labels = []
    for w in range(0, 9):
        for mono in mod.subspace_basis(w):
            labels.append((w, (mono, 0)))
            labels.append((w, (mono, 1)))
    pairs_checked = 0
    for w1, lab1 in labels:
        for w2, lab2 in labels:
            if w1 != w2:
                assert not gram_pair(mod, lab1, lab2)
                pairs_checked += 1
    mod2 = VermaModule(LowestWeight("ssch2", F(3, 2), 1, F(1, 3)))
    labels2 = [((0, 0), (mod2.vacuum, 0))]
    for w in mod2.enumerate_weights(8):
        for mono in mod2.subspace_basis(w):
            labels2.append((w, (mono, 0)))
    for w1, lab1 in labels2:
        for w2, lab2 in labels2:
            if w1 != w2:
                assert not gram_pair(mod2, lab1, lab2)
                pairs_checked += 1
    # determinant vanishes at a weight iff a singular vector sits at or
    # below it, across the criterion 4/5 parameter sweep
    sweep = [("ssch1", d, F(1), None) for d in
             N1_MASSIVE_CRITICAL + N1_MASSIVE_REGULAR]
    sweep += [("ssch1", d, F(0), None) for d in N1_MASSLESS]
    sweep += [("ssch2", d, F(1), r) for d, r, _ in N2_MASSIVE]
    sweep += [("ssch2", d, F(0), r) for d, r in N2_MASSLESS]
    grams = 0
    for kind, d, m, r in sweep:
        module = VermaModule(LowestWeight(kind, d, m, r))
        deg = 8 if kind == "ssch1" else 5
        singular_weights = [rep.weight
                            for rep in find_singular(module, deg)]
        for w in module.enumerate_weights(deg):
            gm = gram(module, w, check_adjoint=False)
            assert not gm.parity_violations
            for row in gm.matrix:
                for entry in row:
                    assert isinstance(entry, F)
            vanish = not gm.det
            below = any(reachable_weight(module, s, w)
                        for s in singular_weights)
            assert vanish == below, (kind, d, m, r, w)
            grams += 1
    _report(8, "(v0,v0)=1, %d cross-weight pairs orthogonal, and %d Gram "
               "determinants vanish exactly where a singular vector sits "
               "at or below the weight" % (pairs_checked, grams))


def test_criterion_09_realizations():
    for kind in ("ssch1", "ssch2"):
        table = build_algebra(kind)
        for d, m in ((F(3, 4), F(1)), (F(1), F(2)), (F(1, 2), F(0))):
            ops = build_realization(kind, d, m)
            report = verify_relations(ops, table, 8, d=d, m=m)
            assert report.ok, (kind, d, m, report.failures[:2])
            assert report.certified_degree == 8
    for _, m in ((None, F(1)), (None, F(2)), (None, F(0))):
        results = verify_chi_eta(m)
        assert results["chi_square"] and results["eta_square"] \
            and results["anticommutator"], m
    _report(9, "both realizations satisfy every defining relation on all "
               "superspace monomials of degree <= 8 at the three (d,m) "
               "points; chi^2 = m/2, eta^2 = -m/2, {chi,eta} = 0 exactly")


def test_criterion_10_determinism_and_exactness(capsys):
    # byte-reproducibility of a representative pipeline
    args = ["singular", "find", "--algebra", "ssch2", "--d", "3/2",
            "--m", "1", "--r", "0", "--max-degree", "4", "--json"]
    assert cli_main(list(args)) == 0
    out1 = capsys.readouterr().out
    assert cli_main(list(args)) == 0
    out2 = capsys.readouterr().out
    assert out1.encode() == out2.encode()
    cls_args = ["classify", "--algebra", "ssch2", "--d", "3", "--m", "0",
                "--r", "-3", "--json"]
    assert cli_main(list(cls_args)) == 0
    out3 = capsys.readouterr().out
    assert cli_main(list(cls_args)) == 0
    out4 = capsys.readouterr().out
    assert out3 == out4
    # no floating point anywhere: constructors refuse floats and every
    # coefficient in a computed kernel is Fraction-backed
    with pytest.raises(TypeError):
        QI(0.5)
    with pytest.raises(TypeError):
        LowestWeight("ssch1", 0.5, 1)
    mod = VermaModule(LowestWeight("ssch1", F(-1, 2), 1))
    rep = find_singular(mod, 2)[0]
    for vec in rep.vectors:
        for coeff in vec.terms.values():
            for part in (coeff.even, coeff.odd):
                assert isinstance(part, F)
    data = json.loads(out1)
    assert "." not in json.dumps(data["reports"])  # no decimal literals
    elapsed = time.monotonic() - _T0
    assert elapsed < 600, "acceptance suite exceeded the 10 minute budget"
    _report(10, "byte-identical reruns, float-free arithmetic, suite "
                "runtime %.1fs" % elapsed)
