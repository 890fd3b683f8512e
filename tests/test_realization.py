import contextlib
import dataclasses
import functools
import random
import re
from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from golden.record import order_three_case, term_mutants
from oracles import (Poly, derive_odd, realization_certificate_oracle,
                     realization_oracle, reference_apply,
                     verify_relations_oracle)
from superschrod import realization
from superschrod.realization import (SuperDiffOp, SuperPoly, SuperSpace,
                                     build_realization, chi_eta_ops,
                                     enumerate_polyspace, poly_mono,
                                     verify_chi_eta, verify_relations)
from superschrod.superalgebra import StructureTable, build_algebra


def test_operator_shapes():
    ops = build_realization("ssch1", F(3, 4), 1)
    # H = d_t, P = d_x, M = m
    assert ops["H"].terms == [(poly_mono(ops["H"].space), 1, 0, ())]
    assert ops["P"].terms == [(poly_mono(ops["P"].space), 0, 1, ())]
    m_terms = ops["M"].terms
    assert len(m_terms) == 1 and m_terms[0][1:] == (0, 0, ())
    ops2 = build_realization("ssch2", 1, 2)
    # X+ = -phi d_x - m rho
    space = ops2["X+"].space
    assert sorted(ops2["X+"].terms, key=str) == sorted([
        (poly_mono(space, word=("phi",), coeff=-1), 0, 1, ()),
        (poly_mono(space, word=("rho",), coeff=-2), 0, 0, ()),
    ], key=str)


def assert_same_operators(ops, expected):
    """Term-by-term equality of two operator tables: generator order, the
    operator type, the space's names, order and squares (dict order
    included), each term's dt, dx and odd word in order, and each
    coefficient on the operator's space with its dict in insertion order,
    every value a Fraction."""
    assert list(ops) == list(expected)
    for gen, op in ops.items():
        ref = expected[gen]
        assert type(op) is type(ref) is SuperDiffOp, gen
        space, space0 = op.space, ref.space
        assert space.names == space0.names and space.order == space0.order
        assert list(space.squares.items()) == list(space0.squares.items())
        assert space.square_den == space0.square_den
        assert len(op.terms) == len(ref.terms), gen
        for (coeff, dt, dx, odds), (c0, dt0, dx0, odds0) in zip(op.terms,
                                                                ref.terms):
            assert (dt, dx, odds) == (dt0, dx0, odds0), gen
            assert coeff.space is space
            assert list(coeff.terms.items()) == list(c0.terms.items()), gen
            assert all(type(c) is F for c in coeff.terms.values()), gen


def assert_realizations_match_the_oracle(points, seed=0):
    """``build_realization`` against ``realization_oracle`` for both kinds
    at ``points`` seeded (d, m), each also with d = 0 and with m = 0, and
    at (0, 0); returns the number of tables compared."""
    rng = random.Random(seed)
    grid = [(0, 0)]
    for _ in range(points):
        d, m = (F(rng.randint(-12, 12), rng.randint(1, 9)) for _ in "dm")
        grid += [(d, m), (0, m), (d, 0)]
    for kind in ("ssch1", "ssch2"):
        for d, m in grid:
            assert_same_operators(build_realization(kind, d, m),
                                  realization_oracle(kind, d, m))
    return 2 * len(grid)


_weights = st.one_of(st.just(0), st.builds(F, st.integers(-12, 12),
                                           st.integers(1, 9)))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["ssch1", "ssch2"]), d=_weights, m=_weights)
@example(kind="ssch1", d=0, m=0)
@example(kind="ssch2", d=0, m=0)
@example(kind="ssch1", d=F(-3, 2), m=0)
@example(kind="ssch2", d=0, m=F(2, 7))
def test_build_realization_equals_the_oracle(kind, d, m):
    # zero weights drop the terms -d, m x, m/2 x^2, ... as the oracle does
    assert_same_operators(build_realization(kind, d, m),
                          realization_oracle(kind, d, m))


def test_seeded_realizations_equal_the_oracle():
    # the check CI runs at 200 points
    assert assert_realizations_match_the_oracle(10, seed=1) == 62


@pytest.mark.parametrize("kind", ["ssch1", "ssch2"])
def test_build_realization_results_are_independent(kind):
    # editing a result's terms list, a coefficient dict or its space leaves
    # every later result as the oracle's
    d, m = F(3, 4), F(5, 2)
    edited = build_realization(kind, d, m)
    for op in edited.values():
        for coeff, _, _, _ in op.terms:
            for mono in coeff.terms:
                coeff.terms[mono] *= 3
            coeff.terms[(9, 9, ())] = F(1)
        op.terms.append(op.terms[0])
        op.terms.reverse()
    space = edited["H"].space
    space.squares[space.names[-1]] = F(7)
    space.order[space.names[0]] = 5
    space.names = space.names[::-1]
    edited["G"].terms.clear()
    assert_same_operators(build_realization(kind, d, m),
                          realization_oracle(kind, d, m))


@pytest.mark.parametrize("kind", ["ssch1", "ssch2"])
def test_constant_coefficients_are_shared_fractions(kind):
    # a coefficient free of d and m is the table's own Fraction in every
    # result, not a fresh copy per call
    at, other = build_realization(kind, F(3, 4), F(5, 2)), \
        build_realization(kind, F(-2, 7), 3)
    shared = 0
    for gen, op in at.items():
        for (coeff, _, _, _), (coeff2, _, _, _) in zip(op.terms,
                                                       other[gen].terms):
            for (mono, c), (mono2, c2) in zip(coeff.terms.items(),
                                              coeff2.terms.items()):
                assert mono == mono2
                if c == c2:
                    assert c is c2, (gen, mono)
                    shared += 1
    assert shared > 15


def test_odd_derivative_examples():
    space = SuperSpace.for_kind("ssch1", 1)
    theta = poly_mono(space, word=("theta",))
    theta_eta = poly_mono(space, word=("theta", "eta"))
    assert derive_odd("theta", theta) == poly_mono(space)
    assert derive_odd("theta", theta_eta) == poly_mono(space, word=("eta",))
    assert derive_odd("eta", theta_eta) == poly_mono(space, word=("theta",),
                                                     coeff=-1)


def test_odd_words_are_canonicalised():
    s1 = SuperSpace.for_kind("ssch1", 1)
    swapped = poly_mono(s1, word=("eta", "theta"))
    assert swapped == -poly_mono(s1, word=("theta", "eta"))
    assert not swapped + poly_mono(s1, word=("theta", "eta"))
    # eta^2 = -m/2 is folded in, theta^2 = 0 is dropped
    assert poly_mono(s1, word=("eta", "eta")) == poly_mono(s1, coeff=F(-1, 2))
    assert not poly_mono(s1, t=1, word=("theta", "theta"))
    assert poly_mono(s1, word=("eta", "theta", "eta")) == \
        poly_mono(s1, word=("theta",), coeff=F(1, 2))
    s2 = SuperSpace.for_kind("ssch2", 0)
    # words that canonicalise to one key are summed
    poly = SuperPoly(s2, {(0, 1, ("rho", "theta", "phi")): F(1),
                          (0, 1, ("theta", "phi", "rho")): F(2),
                          (0, 1, ("phi", "theta")): F(1),
                          (0, 1, ("theta", "phi")): F(1)})
    assert poly.terms == {(0, 1, ("theta", "phi", "rho")): F(3)}


def test_apply_g_to_constant():
    ops = build_realization("ssch1", F(3, 4), 1)
    space = ops["G"].space
    out = ops["G"].apply(poly_mono(space))
    assert out == poly_mono(space, x=1) + poly_mono(space,
                                                    word=("theta", "eta"))


def test_clifford_eta_multiplication():
    # eta * eta inside polynomial products folds to -m/2
    space = SuperSpace.for_kind("ssch1", F(2, 3))
    eta = poly_mono(space, word=("eta",))
    assert eta * eta == poly_mono(space, coeff=F(-1, 3))


@pytest.mark.parametrize("kind,d,m,deg", [
    ("ssch1", F(3, 4), 1, 5),
    ("ssch1", F(1, 2), 0, 5),
    ("ssch2", 1, 2, 4),
    ("ssch2", F(1, 2), 0, 4),
])
def test_relations_hold(kind, d, m, deg):
    table = build_algebra(kind)
    ops = build_realization(kind, d, m)
    report = verify_relations(ops, table, deg, d=d, m=m)
    assert report.ok, report.failures[:3]
    assert report.certified_degree == deg


def test_failure_cap_counts_parity_mismatches():
    table = build_algebra("ssch1")
    ops = build_realization("ssch1", F(3, 4), 1)
    ops["X"] = ops["H"]
    ops["Q"] = ops["P"]
    report = verify_relations(ops, table, 2, max_failures=1)
    assert report.failures == [("Q", "Q", None, "parity mismatch")]
    assert not report.parity_ok and report.degree_raise == 3
    assert verify_relations(ops, table, 2, max_failures=3).failures == [
        ("Q", "Q", None, "parity mismatch"),
        ("X", "X", None, "parity mismatch"),
        ("H", "S", (0, 0, ("theta",)), "(1)1")]
    for cap in (0, -1):
        with pytest.raises(ValueError):
            verify_relations(ops, table, 2, max_failures=cap)


def test_negative_degree_is_rejected():
    table = build_algebra("ssch1")
    ops = build_realization("ssch1", F(3, 4), 1)
    with pytest.raises(ValueError):
        verify_relations(ops, table, -1)
    assert verify_relations(ops, table, 0).certified_degree == 0


@pytest.mark.parametrize("kind,d,m", [
    ("ssch1", F(3, 4), F(5, 2)), ("ssch1", F(-1, 3), 0),
    ("ssch2", F(2, 5), 2), ("ssch2", 1, 0),
    # two Clifford squares with coprime, then equal, denominators: a
    # product that contracts both needs their product, not their lcm
    ((F(1, 3), F(-2, 5)), None, None), ((F(1, 3), F(2, 3)), None, None),
])
def test_apply_matches_term_by_term_reference(kind, d, m):
    if isinstance(kind, tuple):
        space = SuperSpace(list(zip(("a", "b"), kind)))
        ops = {}
    else:
        ops = build_realization(kind, d, m)
        space = ops["H"].space
    monos = enumerate_polyspace(space, 4)
    poly = SuperPoly(space, {mono: F(i + 1, 3) for i, mono in
                             enumerate(monos[::7])})
    # derivative orders above 1 and two-letter odd words, which the
    # realizations themselves do not use; a b times a b contracts both
    # squares
    a, b = space.names[:2]
    ops["extra"] = SuperDiffOp(space, [
        (poly_mono(space, t=1, word=(a,), coeff=F(2, 3)), 0, 3, ()),
        (poly_mono(space, x=2, coeff=-1), 2, 0, (b,)),
        (poly_mono(space, word=(b,)), 1, 1, (b, a)),
        (poly_mono(space, word=(a, b), coeff=F(5, 7)), 0, 1, ()),
    ])
    for gen, op in ops.items():
        for t, x, word in monos:
            f = poly_mono(space, t=t, x=x, word=word)
            assert op.apply(f) == reference_apply(op, f), (gen, t, x, word)
        assert op.apply(poly) == reference_apply(op, poly), gen


def test_non_integer_scaled_value_raises():
    # eta^2 = -1/3 clears with the factor 3, but a coefficient word set
    # directly on the terms, bypassing canonicalisation, contracts eta
    # twice: eta^4 = 1/9 is not an integer after scaling by 3
    table = build_algebra("ssch1")
    ops = build_realization("ssch1", 1, F(2, 3))
    space = ops["M"].space
    coeff = SuperPoly(space)
    coeff.terms = {(0, 0, ("eta",) * 4): F(1)}
    ops["M"] = SuperDiffOp(space, [(coeff, 0, 0, ())])
    assert reference_apply(ops["M"], poly_mono(space)) == \
        poly_mono(space, coeff=F(1, 9))
    with pytest.raises(ValueError):
        ops["M"].image((0, 0, ()))
    with pytest.raises(ValueError):
        ops["M"].apply(poly_mono(space))
    with pytest.raises(ValueError):
        verify_relations(ops, table, 1)


@pytest.mark.parametrize("kind,d,m", [
    ("ssch1", F(3, 4), 1), ("ssch1", F(3, 4), 0),
    ("ssch2", 1, 2), ("ssch2", 1, 0),
])
def test_every_term_mutant_is_detected(kind, d, m):
    # dropping any one operator term, or doubling its coefficient, breaks
    # some bracket on the degree <= 3 monomials
    table = build_algebra(kind)
    base = build_realization(kind, d, m)
    assert verify_relations(base, table, 3).ok
    for gen, j, how, ops in term_mutants(base):
        report = verify_relations(ops, table, 3, max_failures=1)
        assert not report.ok, (gen, j, how)
        assert report == verify_relations_oracle(
            ops, table, 3, max_failures=1), (gen, j, how)


_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 9))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["ssch1", "ssch2"]), d=_rationals, m=_rationals,
       degree=st.integers(0, 4), max_failures=st.integers(1, 12),
       mutation=st.sampled_from([None, "drop", "scale", "deepen"]),
       data=st.data())
def test_verify_relations_matches_fraction_oracle(kind, d, m, degree,
                                                  max_failures, mutation,
                                                  data):
    # degrees above 2 take the low-degree shortcut; "deepen" raises one
    # term's t-derivative order, so the shortcut's bound must follow it
    table = build_algebra(kind)
    ops = build_realization(kind, d, m)
    if mutation:
        # M has no terms at m = 0
        gen = data.draw(st.sampled_from(sorted(g for g, op in ops.items()
                                               if op.terms)))
        op = ops[gen]
        j = data.draw(st.integers(0, len(op.terms) - 1))
        terms = list(op.terms)
        coeff, dt, dx, odds = terms[j]
        if mutation == "drop":
            del terms[j]
        elif mutation == "deepen":
            terms[j] = (coeff, dt + data.draw(st.integers(1, 2)), dx, odds)
        else:
            factor = data.draw(st.builds(F, st.integers(-9, 9),
                                         st.integers(2, 9)).filter(
                lambda q: q.denominator > 1))
            terms[j] = (coeff.scale(factor), dt, dx, odds)
        ops[gen] = SuperDiffOp(op.space, terms)
    args = (ops, table, degree, max_failures, d, m)
    assert verify_relations(*args) == verify_relations_oracle(*args)


def test_order_bound_is_read_from_the_operators():
    # H = d_t + d_t^3 against D: the residual of [H, D] = 2H is 4 d_t^3,
    # zero on every monomial of degree <= 2, so a bound of 2 that ignored
    # the operators would pass it at degree 3
    ops, table = order_three_case()
    assert ops["H"].order() == 3 and ops["D"].order() == 1
    assert verify_relations(ops, table, 2).ok
    assert verify_relations(ops, table, 3).failures == [
        ("H", "D", (3, 0, ()), "(24)1")]
    for degree in (2, 3, 4):
        assert verify_relations(ops, table, degree) == \
            verify_relations_oracle(ops, table, degree), degree


def test_operator_parity_additivity():
    for kind, m in (("ssch1", 1), ("ssch2", 2)):
        table = build_algebra(kind)
        ops = build_realization(kind, F(1, 3), m)
        for gen, op in ops.items():
            assert op.parity() == table.parity(gen), gen


def test_corrupted_realization_detected():
    table = build_algebra("ssch1")
    ops = build_realization("ssch1", F(3, 4), 1)
    g = ops["G"]
    theta_eta = poly_mono(g.space, word=("theta", "eta"))
    ops["G"] = SuperDiffOp(g.space, [t for t in g.terms
                                     if t[0] != theta_eta])
    assert len(ops["G"].terms) == len(g.terms) - 1
    report = verify_relations(ops, table, 3)
    assert not report.ok
    # [P,K] = G is the first relation whose right side lost the theta*eta
    # piece; the witness residual names it
    x, y, mono, residual = report.failures[0]
    assert (x, y) == ("P", "K")
    assert "thetaeta" in residual


def test_degree_raise_is_tracked():
    ops = build_realization("ssch1", F(3, 4), 1)
    # the x theta eta term of K raises total degree by 3
    assert ops["K"].max_degree_raise() == 3
    assert ops["H"].max_degree_raise() == -1


def test_chi_eta_identities():
    for m in (0, 1, 2, F(2, 3)):
        results = verify_chi_eta(m)
        assert results["chi_square"], m
        assert results["eta_square"], m
        assert results["anticommutator"], m
        assert results["scale_square"] == F(m, 2)


def test_chi_eta_raw_ops():
    raw_chi, raw_eta, s2 = chi_eta_ops(2)
    space = raw_chi.space
    one = poly_mono(space)
    phi = poly_mono(space, word=("phi",))
    assert raw_chi.apply(one) == phi
    assert raw_chi.apply(phi) == one
    assert raw_eta.apply(one) == phi
    assert raw_eta.apply(phi) == -one
    assert s2 == 1


def test_polyspace_enumeration():
    space = SuperSpace.for_kind("ssch2", 0)
    monos = enumerate_polyspace(space, 2)
    assert (0, 0, ()) in monos and (2, 0, ()) in monos
    assert (0, 0, ("theta", "phi")) in monos
    assert all(a + b + len(w) <= 2 for a, b, w in monos)


def test_malformed_operator_tables_are_rejected():
    table = build_algebra("ssch1")
    with pytest.raises(ValueError, match=re.escape(
            "no operator for generator(s) " + ", ".join(table.names))):
        verify_relations({}, table, 2)
    ops = build_realization("ssch1", F(3, 4), 1)
    del ops["G"]
    with pytest.raises(ValueError, match=r"generator\(s\) G$"):
        verify_relations(ops, table, 2, d=F(3, 4), m=1)
    ops = build_realization("ssch1", F(3, 4), 1)
    ops["Y"] = ops["H"]
    with pytest.raises(ValueError, match="unknown generator 'Y'"):
        verify_relations(ops, table, 2, d=F(3, 4), m=1)


# the realization certificate


@contextlib.contextmanager
def certificates(installed=()):
    """Run with the realization certificates set to ``installed`` (a dict,
    empty by default), restoring the ones before afterwards; yields the
    live dict."""
    live = realization._CERTIFICATES
    saved = dict(live)
    live.clear()
    live.update(installed)
    try:
        yield live
    finally:
        live.clear()
        live.update(saved)


@contextlib.contextmanager
def counting_point_checks():
    """Yields a list that gets one entry per residual pass run."""
    calls = []
    original = realization._point_check

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    realization._point_check = counted
    try:
        yield calls
    finally:
        realization._point_check = original


def _verdicts(live):
    """id(compiled table) -> (the table, whether it certifies its kind)."""
    return {key: entry[:2] for key, entry in live.items()}


def _verdict(kind, certified=True):
    """The ``_verdicts`` of the kind's compiled table alone."""
    compiled = realization._COMPILED[kind]
    return {id(compiled): (compiled, certified)}


@functools.cache
def symbolic_certificates():
    """Both kinds' certificates, each formed by one guarded call."""
    with certificates() as live, counting_point_checks() as calls:
        for kind in ("ssch1", "ssch2"):
            assert verify_relations(build_realization(kind, 1, 1),
                                    build_algebra(kind), 2, d=1, m=1).ok
        assert calls == []
        assert _verdicts(live) == {**_verdict("ssch1"), **_verdict("ssch2")}
        return dict(live)


def certified_and_point_reports(kind, d, m, degree, max_failures):
    """verify_relations on the paper's realization at (d, m), first with
    the ``symbolic_certificates`` (no residual pass may run), then without
    d and m, which takes the point path (one residual pass must run), its
    report given the same d and m."""
    table = build_algebra(kind)
    ops = build_realization(kind, d, m)
    with certificates(symbolic_certificates()), \
            counting_point_checks() as calls:
        certified = verify_relations(ops, table, degree, max_failures, d, m)
    assert calls == []
    with certificates(), counting_point_checks() as calls:
        point = verify_relations(ops, table, degree, max_failures)
    assert calls == [degree]
    return certified, dataclasses.replace(point, d=F(d), m=F(m))


def assert_certified_reports(points, seed=0):
    """Compare the certified and the point-path report at ``points``
    seeded draws of kind, d, m, degree 0-6 and failure cap 1-12; returns
    the number compared."""
    rng = random.Random(seed)
    for _ in range(points):
        kind = rng.choice(("ssch1", "ssch2"))
        d, m = (F(rng.randint(-12, 12), rng.randint(1, 9)) for _ in "dm")
        degree, cap = rng.randint(0, 6), rng.randint(1, 12)
        certified, point = certified_and_point_reports(kind, d, m, degree,
                                                       cap)
        assert certified == point, (kind, d, m, degree, cap)
    return points


def _coefficients(ops):
    """(gen, dt, dx, odd word, monomial) -> coefficient, summed over the
    terms of one derivative word."""
    out = defaultdict(F)
    for gen, op in ops.items():
        for coeff, dt, dx, odds in op.terms:
            for mono, c in coeff.terms.items():
                out[gen, dt, dx, odds, mono] += c
    return out


@pytest.mark.parametrize("kind", ["ssch1", "ssch2"])
def test_realization_is_affine_in_the_lowest_weight(kind):
    # the premise of the symbolic pass: coefficients affine in (d, m),
    # Clifford squares linear in m
    at_0, along_d, along_m = (_coefficients(build_realization(kind, d, m))
                              for d, m in ((0, 0), (1, 0), (0, 1)))
    unit = SuperSpace.for_kind(kind, 1).squares
    for d, m in ((F(3, 4), F(5, 2)), (F(-7, 3), F(2, 9)), (5, -4), (0, 3)):
        at = _coefficients(build_realization(kind, d, m))
        for key in set(at) | set(at_0) | set(along_d) | set(along_m):
            c0 = at_0.get(key, 0)
            assert at.get(key, 0) == c0 + d * (along_d.get(key, 0) - c0) \
                + m * (along_m.get(key, 0) - c0), (key, d, m)
        assert SuperSpace.for_kind(kind, m).squares == {
            name: m * sq for name, sq in unit.items()}


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["ssch1", "ssch2"]), d=_rationals, m=_rationals,
       degree=st.integers(0, 6), max_failures=st.integers(1, 12))
def test_certified_report_equals_the_point_report(kind, d, m, degree,
                                                  max_failures):
    certified, point = certified_and_point_reports(kind, d, m, degree,
                                                   max_failures)
    assert certified == point


def test_seeded_certified_reports():
    # the check CI runs at 50 points
    assert assert_certified_reports(10, seed=1) == 10


@pytest.mark.parametrize("kind", ["ssch1", "ssch2"])
@pytest.mark.parametrize("line", ["origin", "d = 2/3", "m = 0"])
def test_the_first_guarded_call_certifies_the_kind(kind, line):
    # a point where the point check could not tell a residual that
    # vanishes on the line from zero certifies the kind all the same, and
    # then no guarded call runs a residual pass, on the line or off it
    table = build_algebra(kind)
    points = {"origin": [(0, 0)],
              "d = 2/3": [(F(2, 3), j) for j in range(1, 7)],
              "m = 0": [(i, 0) for i in range(1, 7)]}[line]
    rng = random.Random(line)
    points += [(F(rng.randint(-12, 12), rng.randint(1, 9)),
                F(rng.randint(-12, 12), rng.randint(1, 9)))
               for _ in range(10)]
    with certificates() as live, counting_point_checks() as calls:
        for i, (d, m) in enumerate(points):
            report = verify_relations(build_realization(kind, d, m), table,
                                      rng.randint(0, 5), d=d, m=m)
            assert report.ok and _verdicts(live) == _verdict(kind), (d, m)
            if not i:
                first = live[id(realization._COMPILED[kind])]
            assert live[id(realization._COMPILED[kind])] is first
    assert calls == []


@pytest.mark.parametrize("kind", ["ssch1", "ssch2"])
def test_points_on_one_line_never_certify(kind, monkeypatch):
    # a table that adds d - 2/3 or m to one triple of K equals the paper's
    # operators on the line d = 2/3 or m = 0: every point check on the
    # line passes, and the symbolic pass still refuses the table
    table = build_algebra(kind)
    operators = realization._OPERATORS[kind]
    (coeff, dt, dx, odds), *rest = operators["K"]
    (mono, triple), = coeff.items()
    for shift, line in (((F(-2, 3), 1, 0), [(F(2, 3), j) for j in range(12)]),
                        ((0, 0, 1), [(i, 0) for i in range(12)])):
        shifted = {mono: tuple(a + b for a, b in zip(triple, shift))}
        compiled = realization._compile(
            dict(operators, K=[(shifted, dt, dx, odds), *rest]))
        monkeypatch.setitem(realization._COMPILED, kind, compiled)
        with certificates() as live, counting_point_checks() as calls:
            for d, m in line:
                assert verify_relations(build_realization(kind, d, m), table,
                                        3, d=d, m=m).ok, (d, m)
            assert _verdicts(live) == {id(compiled): (compiled, False)}
            assert calls == [3] * len(line)
            # off both lines the same table fails its point check
            assert not verify_relations(build_realization(kind, 1, 1), table,
                                        3, d=1, m=1).ok


def test_certificate_is_fed_only_by_guarded_passing_checks():
    # no certificate is formed by a call without a point, at a point the
    # operators are not taken at, with an edited operator or with an
    # edited table; the first call that passes the guard forms it, at any
    # degree
    table = build_algebra("ssch2")
    with certificates() as live, counting_point_checks() as calls:
        ops = build_realization("ssch2", 1, 2)
        verify_relations(ops, table, 3)  # no point given
        verify_relations(ops, table, 3, d=1)  # no m given
        verify_relations(ops, table, 3, d=2, m=2)  # another point
        verify_relations(ops, _corrupted_table("ssch2"), 3, d=1, m=2)
        ops["G"] = SuperDiffOp(ops["G"].space, ops["G"].terms[1:])
        verify_relations(ops, table, 3, d=1, m=2)  # an edited operator
        assert live == {} and calls == [3] * 5
        # d and m are read as Fractions, as the report reads them
        report = verify_relations(build_realization("ssch2", F(1, 3), 2),
                                  table, 1, d="1/3", m=2.0)
        assert report.ok and (report.d, report.m) == (F(1, 3), 2)
        assert _verdicts(live) == _verdict("ssch2") and len(calls) == 5


def _scaled(kind, edits):
    """The kind's compiled table with, for each (gen, term index, factor,
    dt) of ``edits``, that term's triples times factor and, unless dt is
    None, its d_t order set to dt."""
    operators = dict(realization._OPERATORS[kind])
    for gen, j, factor, dt in edits:
        terms = list(operators[gen])
        coeff, dt0, dx, odds = terms[j]
        terms[j] = ({mono: tuple(factor * c for c in triple)
                     for mono, triple in coeff.items()},
                    dt0 if dt is None else dt, dx, odds)
        operators[gen] = terms
    return realization._compile(operators)


def _compiled_mutants(kind):
    """(gen, term index, how, compiled table) for every term of the kind's
    ``_OPERATORS`` dropped, doubled or times 2/3."""
    operators = realization._OPERATORS[kind]
    for gen, terms in operators.items():
        for j in range(len(terms)):
            yield gen, j, "drop", realization._compile(
                dict(operators, **{gen: terms[:j] + terms[j + 1:]}))
            for how, factor in (("double", 2), ("two thirds", F(2, 3))):
                yield gen, j, how, _scaled(kind, [(gen, j, factor, None)])


def _at(terms, point):
    """The ((i, j), c) terms of a polynomial sum c d^i m^j at the point
    (d, m)."""
    return sum(c * point[0] ** i * point[1] ** j for (i, j), c in terms)


@pytest.mark.parametrize("kind", ["ssch1", "ssch2"])
def test_no_compiled_term_mutant_certifies(kind, monkeypatch):
    # each mutant leaves a nonzero symbolic residual, and at seeded points
    # the residuals that stay nonzero there name the brackets and
    # monomials that the point check on the mutant's operators names
    table = build_algebra(kind)
    rng = random.Random(kind)
    points = [tuple(F(rng.choice([-1, 1]) * rng.randint(1, 12),
                      rng.randint(1, 9)) for _ in "dm") for _ in range(3)]
    for gen, j, how, compiled in _compiled_mutants(kind):
        residuals = list(realization._symbolic_residuals(compiled, table))
        monkeypatch.setitem(realization._COMPILED, kind, compiled)
        with certificates() as live, counting_point_checks() as calls:
            for point in points:
                named = [(x, y, mono) for x, y, mono, acc, _ in residuals
                         if any(_at(v, point) for v in acc.values())]
                report = verify_relations(build_realization(kind, *point),
                                          table, 2, 10 ** 6, *point)
                assert [f[:3] for f in report.failures] == named, (
                    gen, j, how, point)
                assert named, (gen, j, how, point)
            assert _verdicts(live) == {id(compiled): (compiled, False)}
        assert calls == [2] * len(points)


def _big_mutants():
    """(kind, compiled table) for mutants whose residual coefficients
    reach each part of the Kronecker bound of ``_symbolic_residuals``:
    one triple times 10^30; Q = 10^30 (-theta d_t^3 + d_theta), whose
    square -10^60 d_t^3 is a falling factorial of three factors; the ssch1
    Clifford term eta of X times 10^30, whose square is a contraction; and
    every triple over 10^30, where the bracket part, N times the scale,
    outweighs the composites."""
    big = 10 ** 30
    yield "ssch2", _scaled("ssch2", [("G", 1, big, None)])
    yield "ssch1", _scaled("ssch1", [("Q", 0, big, 3), ("Q", 1, big, None)])
    yield "ssch1", _scaled("ssch1", [("X", 1, big, None)])
    yield "ssch2", _scaled("ssch2", [
        (gen, j, F(1, big), None)
        for gen, terms in realization._OPERATORS["ssch2"].items()
        for j in range(len(terms))])


def _decoded(residuals):
    """Residuals with each nonzero value, decoded terms, an int or a
    ``Poly``, as a {(i, j): c} dict."""
    def terms(value):
        return {(0, 0): value} if isinstance(value, int) else dict(value)

    return [(x, y, mono, {mn: terms(v) for mn, v in acc.items() if v}, den)
            for x, y, mono, acc, den in residuals]


def assert_certificate_equals_the_oracle():
    """``_symbolic_residuals`` on both kinds' tables, every compiled term
    mutant and the ``_big_mutants`` against
    ``realization_certificate_oracle``; returns how many tables."""
    tables = [(kind, realization._COMPILED[kind])
              for kind in ("ssch1", "ssch2")]
    tables += [(kind, compiled) for kind in ("ssch1", "ssch2")
               for *_, compiled in _compiled_mutants(kind)]
    tables += list(_big_mutants())
    for kind, compiled in tables:
        table = build_algebra(kind)
        residuals = _decoded(realization._symbolic_residuals(compiled, table))
        assert residuals == _decoded(realization_certificate_oracle(
            compiled, table)), kind
        assert bool(residuals) != (compiled is realization._COMPILED[kind])
    return len(tables)


def test_realization_certificate_equals_the_oracle():
    # the decoded polynomials equal the Poly pass's key by key, also where
    # coefficients pass 10^60 and on each part of the bound
    assert assert_certificate_equals_the_oracle() == 2 + 210 + 4


# the oracle's sparse polynomials in (d, m)

def _leaf(terms):
    """A polynomial given by ``terms`` as the sum of its monomials, each
    built from the variables with Poly and int operations."""
    d, m = Poly({(1, 0): 1}), Poly({(0, 1): 1})
    total = 0
    for (i, j), c in terms.items():
        mono = c
        for _ in range(i):
            mono = mono * d
        for _ in range(j):
            mono = m * mono
        total = mono + total
    return total


_coefficient_dicts = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool), max_size=3)
_expressions = st.recursive(
    st.one_of(st.integers(-4, 4), _coefficient_dicts),
    lambda inner: st.tuples(st.sampled_from(["+", "*", "cancel"]), inner,
                            inner),
    max_leaves=6)


def _build(expr):
    """(value, coefficient dict) of an expression: the value from Poly
    and int operations, the dict from a dense oracle."""
    if isinstance(expr, int):
        return expr, {(0, 0): expr} if expr else {}
    if isinstance(expr, dict):
        return _leaf(expr), dict(expr)
    op, left, right = expr
    (a, da), (b, db) = _build(left), _build(right)
    if op == "cancel":  # (a + b) + (-1)a is b, a constant when b is one
        return (a + b) + a * -1, db
    out = defaultdict(int)
    if op == "+":
        for coeffs in (da, db):
            for e, c in coeffs.items():
                out[e] += c
        value = a + b
    else:
        for (i, j), c in da.items():
            for (k, l), c2 in db.items():
                out[i + k, j + l] += c * c2
        value = a * b
    return value, {e: c for e, c in out.items() if c}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(expr=_expressions,
       point=st.tuples(*[st.builds(F, st.integers(-9, 9), st.integers(1, 9))
                         for _ in "dm"]))
def test_poly_sums_and_products_evaluate_as_numbers(expr, point):
    # evaluation is a ring homomorphism; a result is falsy iff every
    # coefficient cancels, and a constant comes back as an int
    value, coeffs = _build(expr)

    def evaluate(e):
        if isinstance(e, int):
            return e
        if isinstance(e, dict):
            return sum(c * point[0] ** i * point[1] ** j
                       for (i, j), c in e.items())
        op, left, right = e
        a, b = evaluate(left), evaluate(right)
        return b if op == "cancel" else a + b if op == "+" else a * b

    at = value if type(value) is int else sum(
        c * point[0] ** i * point[1] ** j for (i, j), c in value.items())
    assert at == evaluate(expr)
    assert bool(value) == bool(coeffs)
    if set(coeffs) <= {(0, 0)}:
        assert type(value) is int and value == coeffs.get((0, 0), 0)
    else:
        assert type(value) is Poly and value == coeffs


def test_poly_rejects_fractions():
    d = Poly({(1, 0): 1})
    for bad in (F(1, 2), 0.5):
        with pytest.raises(TypeError):
            d * bad
        with pytest.raises(TypeError):
            bad + d


def test_a_replaced_builder_takes_the_point_path(monkeypatch):
    # a double of build_realization whose operators differ from the
    # compiled table fails the guard on a certified kind: the point path
    # runs and reports what it reports with no certificate
    def doubled_g(kind, d, m):
        ops = build_realization(kind, d, m)
        g = ops["G"]
        ops["G"] = SuperDiffOp(g.space, [(coeff.scale(2), dt, dx, odds)
                                         for coeff, dt, dx, odds in g.terms])
        return ops

    monkeypatch.setattr(realization, "build_realization", doubled_g)
    for kind, d, m in (("ssch1", F(3, 4), 1), ("ssch2", 1, F(5, 2))):
        table = build_algebra(kind)
        ops = realization.build_realization(kind, d, m)
        with certificates() as live:
            without = verify_relations(ops, table, 3, 10, d, m)
            assert live == {}
        with certificates(symbolic_certificates()), \
                counting_point_checks() as calls:
            assert verify_relations(ops, table, 3, 10, d, m) == without
        assert calls == [3] and not without.ok


@pytest.mark.parametrize("kind", ["ssch1", "ssch2"])
def test_guarded_parity_and_degree_raise_equal_the_operators(kind):
    # read once per pattern of vanishing triples, also where d = 0 or m = 0
    # drops terms, and equal to the operators' own at every point
    table = build_algebra(kind)
    rng = random.Random(kind)
    points = [(0, F(5, 2)), (F(-3, 4), 0), (0, 0)] + [
        (F(rng.randint(-12, 12), rng.randint(1, 9)),
         F(rng.randint(-12, 12), rng.randint(1, 9))) for _ in range(50)]
    with certificates():
        for d, m in points:
            ops = build_realization(kind, d, m)
            guarded = verify_relations(ops, table, 2, 10, d, m)
            point = verify_relations(ops, table, 2, 10)
            assert (guarded.parity_ok, guarded.degree_raise) == (
                point.parity_ok, point.degree_raise), (d, m)
            (_, _, shapes), zeros = realization._paper_operators(
                ops, table, F(d), F(m))
            parities, degree_raise = shapes[zeros]
            assert parities == {g: op.parity() for g, op in ops.items()}
            assert degree_raise == max(0, *(op.max_degree_raise()
                                            for op in ops.values()))
        # d = 0, m = 0, both, and every other point
        assert len(shapes) == 4


def test_degree_raise_follows_the_triples_that_vanish(monkeypatch):
    # a table whose largest raise, K's x theta eta, has coefficient d: at
    # d = 0 the raise is that of m/2 x^2, on the guarded path as well
    operators = dict(realization._OPERATORS["ssch1"])
    operators["K"] = [({mono: (0, 1, 0) if mono == (0, 1, ("theta", "eta"))
                        else triple for mono, triple in coeff.items()},
                       dt, dx, odds)
                      for coeff, dt, dx, odds in operators["K"]]
    monkeypatch.setitem(realization._COMPILED, "ssch1",
                        realization._compile(operators))
    table = build_algebra("ssch1")
    with certificates():
        for d, raised in ((1, 3), (0, 2), (2, 3), (0, 2)):
            ops = build_realization("ssch1", d, 1)
            guarded = verify_relations(ops, table, 2, 1, d, 1)
            assert guarded.degree_raise == raised == verify_relations(
                ops, table, 2, 1).degree_raise, d


def _corrupted_table(kind):
    """The kind's table with its first nonzero bracket doubled."""
    data = build_algebra(kind).to_json_dict()
    bracket = next(b for b in data["brackets"] if b["value"])
    bracket["value"] = {g: str(2 * F(c)) for g, c in bracket["value"].items()}
    return StructureTable.from_json_dict(data)


@pytest.mark.parametrize("kind,d,m", [
    ("ssch1", F(3, 4), 1), ("ssch1", F(3, 4), 0),
    ("ssch2", 1, 2), ("ssch2", 1, 0),
])
def test_certified_kind_still_checks_edited_inputs(kind, d, m):
    # mutants, a corrupted table and a non-canonical coefficient word take
    # the point path on a certified kind, with the reports they get
    # without a certificate
    table = build_algebra(kind)
    base = build_realization(kind, d, m)
    cases = [(ops, table) for _, _, _, ops in term_mutants(base)]
    cases.append((base, _corrupted_table(kind)))
    if kind == "ssch1":
        g = base["G"]
        theta_eta = poly_mono(g.space, word=("theta", "eta"))
        cases.append((dict(base, G=SuperDiffOp(g.space, [
            t for t in g.terms if t[0] != theta_eta])), table))
    with certificates() as live:
        before = [verify_relations(ops, tab, 3, 1, d, m)
                  for ops, tab in cases]
        assert live == {}
    with certificates(symbolic_certificates()), \
            counting_point_checks() as calls:
        after = [verify_relations(ops, tab, 3, 1, d, m) for ops, tab in cases]
        # a parity mismatch that fills the cap returns before either path
        assert len(calls) == sum(report.parity_ok for report in after)
        assert after == before
        assert not any(report.ok for report in after)
        if kind == "ssch1":
            x, y, _, residual = after[-1].failures[0]
            assert (x, y) == ("P", "K") and "thetaeta" in residual
            ops = build_realization(kind, d, F(2, 3))
            coeff = SuperPoly(ops["M"].space)
            coeff.terms = {(0, 0, ("eta",) * 4): F(1)}
            ops["M"] = SuperDiffOp(ops["M"].space, [(coeff, 0, 0, ())])
            with pytest.raises(ValueError, match="not an integer"):
                verify_relations(ops, table, 1, d=d, m=F(2, 3))
