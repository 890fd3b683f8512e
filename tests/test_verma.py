import functools
import random
import sys
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import golden.record as golden
from golden.record import DoubledH as _DoubledH
from golden.record import MutatedTable as _MutatedTable
from oracles import (act_oracle, chi_rule, closed_form_rows_oracle,
                     closure_certificate_oracle, closure_failures_oracle,
                     engine_rows_oracle, normal_order, raise_oracle)
from superschrod.quotient import FactorModule, classify, quotient_by_singular
from superschrod.realization import _DM_LAYOUT
from superschrod.scalars import QI, _kronecker
from superschrod.singular import closed_form_n1
from superschrod.superalgebra import build_algebra
from superschrod.verma import (_LAYOUT, ClosureCertificate, LowestWeight,
                               ModuleVector, VermaModule, _first_degree,
                               _times)


@pytest.fixture(scope="module")
def mod_m1():
    return VermaModule(LowestWeight("ssch1", F(7, 3), 1))


@pytest.fixture(scope="module")
def mod_n2():
    return VermaModule(LowestWeight("ssch2", F(1, 2), 1, F(-5, 2)))


def test_lowest_weight_validation():
    with pytest.raises(ValueError):
        LowestWeight("ssch1", 1, 1, r=0)
    with pytest.raises(ValueError):
        LowestWeight("ssch2", 1, 1)
    with pytest.raises(ValueError):
        LowestWeight("sch2", 1, 1)
    with pytest.raises(TypeError):
        LowestWeight("ssch1", 0.5, 1)


def test_diagonal_actions(mod_m1, mod_n2):
    d = mod_m1.lw.d
    v = mod_m1.act("D", (2, 1, 0))
    assert v == mod_m1.basis_vector((2, 1, 0), QI(2 + 2 - d))
    n2 = mod_n2.act("R", (1, 2, 1, 0, 1))
    assert n2 == mod_n2.basis_vector((1, 2, 1, 0, 1),
                                     QI(1 - 0 + 1 + mod_n2.lw.r))
    n1 = mod_n2.act("D", (1, 2, 1, 0, 1))
    assert n1 == mod_n2.basis_vector((1, 2, 1, 0, 1),
                                     QI(1 + 4 + 1 + 0 - mod_n2.lw.d))


def test_modules_of_one_kind_share_their_structure_table():
    # the table is built once per kind; build_algebra still returns a
    # fresh table, which mutants may alter
    a = VermaModule(LowestWeight("ssch2", 1, 1, 0))
    b = VermaModule(LowestWeight("ssch2", F(1, 2), 0, 3))
    assert a.table is b.table
    c = VermaModule(LowestWeight("ssch1", 1, 1))
    d = VermaModule(LowestWeight("ssch1", 2, 0), chi_square=F(1, 3))
    assert c.table is d.table and c.table is not a.table
    for kind in ("sch1", "ssch1", "ssch2"):
        assert build_algebra(kind) is not build_algebra(kind)


def test_lowering_action_rows(mod_m1):
    # P v_{2,1} = 1 v_{3,0} + m*2 v_{1,1} with m=1
    v = mod_m1.act("P", (2, 1, 0))
    assert v == (mod_m1.basis_vector((3, 0, 0))
                 + mod_m1.basis_vector((1, 1, 0), 2))
    # lowest weight conditions
    assert not mod_m1.act("P", mod_m1.vacuum)
    assert not mod_m1.act("Q", mod_m1.vacuum)
    assert not mod_m1.act("H", mod_m1.vacuum)


def _parts(vec):
    """A vector's terms as (monomial, even, chi) in term order; every part
    must be a Fraction."""
    out = tuple((mn, c.even, c.odd) for mn, c in vec.terms.items())
    assert all(type(e) is F and type(c) is F for _, e, c in out), out
    return out


def _act_at_flag(mod, gen, mono, flag):
    """``act`` on a monomial (flag 0) or on chi times it (flag 1)."""
    if flag:
        return mod.act(gen, mod.basis_vector(mono, mod.ring.chi))
    return mod.act(gen, mono)


def _assert_rows_match_the_table(mod, pairs):
    """``act`` and ``int_row`` on a monomial and on chi times it (flags 0
    and 1) against the closed-form N=1 table, at each (generator,
    monomial)."""
    table = closed_form_rows_oracle(mod)
    D = mod.scale
    for gen, mono in pairs:
        expected = table(gen, mono)
        at_chi = chi_rule(expected, mod.table.parity(gen), mod.ring.chi_square)
        for flag, rows in ((0, expected), (1, at_chi)):
            got = _parts(_act_at_flag(mod, gen, mono, flag))
            nonzero = [(mn, e, c) for mn, e, c in rows if e or c]
            assert len(got) == len(nonzero)
            assert {mn: (e, c) for mn, e, c in got} == \
                {mn: (e, c) for mn, e, c in nonzero}, (gen, mono, flag)
            want = {(mn, f): v * D for mn, e, c in rows
                    for f, v in ((0, e), (1, c)) if v}
            scale, entries = mod.int_row(gen, (mono, flag))
            assert scale == D and len(entries) == len(want)
            assert all(type(v) is int for _, v in entries)
            assert dict(entries) == want, (gen, mono, flag)


def test_engine_matches_table():
    for m in (0, 1, F(3, 2)):
        for d in (F(-1, 2), 0, F(7, 3)):
            for chi_square in (None, F(1, 3), F(-3, 4)):
                mod = VermaModule(LowestWeight("ssch1", d, m), chi_square)
                _assert_rows_match_the_table(
                    mod, [(gen, mono) for mono in mod.enumerate_monomials(8)
                          for gen in mod.table.names])


def test_normal_order_examples():
    mod = VermaModule(LowestWeight("ssch1", F(2, 3), 1))
    assert normal_order(mod, ["K"]) == mod.basis_vector((0, 1, 0))
    # [Q,G] = X acting as chi on the vacuum
    assert normal_order(mod, ["Q", "G"]) == \
        mod.vacuum_vector().scale(mod.ring.chi)
    # H G G v0 = (1/2) m k (k-1) v0 = 1 v0 at m=1
    assert normal_order(mod, ["H", "G", "G"]) == mod.vacuum_vector()
    # massless: chi acts as zero
    mod0 = VermaModule(LowestWeight("ssch1", F(2, 3), 0))
    assert not normal_order(mod0, ["Q", "G"])
    assert not mod0.uses_chi


def test_subspace_enumeration(mod_m1, mod_n2):
    assert mod_m1.subspace_basis(0) == [(0, 0, 0)]
    assert set(mod_m1.subspace_basis(1)) == {(1, 0, 0), (0, 0, 1)}
    assert set(mod_n2.subspace_basis((1, 1))) == \
        {(0, 0, 1, 0, 0), (1, 0, 0, 0, 1)}


def test_weight_additivity(mod_n2):
    rng = random.Random(5)
    monos = mod_n2.enumerate_monomials(5)
    for _ in range(60):
        mono = rng.choice(monos)
        gen = rng.choice(mod_n2.table.names)
        out = mod_n2.act(gen, mono)
        target = mod_n2.shift_weight(mod_n2.weight(mono), gen)
        for m2 in out.terms:
            assert mod_n2.weight(m2) == target


def test_monomial_rendering_roundtrip(mod_m1, mod_n2):
    for mod in (mod_m1, mod_n2):
        for mono in mod.enumerate_monomials(3):
            assert mod.parse_monomial(mod.monomial_str(mono)) == mono


@pytest.mark.parametrize("text", [
    "G^-1 K^0 S^0 v0",  # a negative exponent
    "X^1 Y^2 Z^0 v0",  # generators that are not the raising ones
    "G^1 K^0 S^3 v0",  # an odd exponent above 1
    "G^1 K^0 v0", "G^1 K^0 S^0", "G^1 K^0 S^+1 v0", "G^1  K^0 S^0 v0",
    "G^x K^0 S^0 v0", ""])
def test_parse_monomial_rejects_what_monomial_str_never_renders(mod_m1, text):
    with pytest.raises(ValueError, match="malformed monomial"):
        mod_m1.parse_monomial(text)


def test_raising_products_equal_the_hand_written_table(mod_m1, mod_n2):
    # the products derived from the brackets against the ones listed by
    # hand, for every raising generator on every monomial to degree 6
    for mod in (mod_m1, mod_n2):
        for mono in mod.enumerate_monomials(6):
            for gen in mod.plus_set:
                assert list(mod._raise(gen, mono)) == \
                    raise_oracle(mod, gen, mono), (gen, mono)


def test_closure_small_grid():
    for m in (0, 1):
        for d in (F(-1, 2), 2):
            mod = VermaModule(LowestWeight("ssch1", d, m))
            assert not mod.closure_failures(5), (m, d)
    mod = VermaModule(LowestWeight("ssch2", 2, F(3, 2), F(1, 3)))
    assert not mod.closure_failures(4)


def test_closure_fixes_chi_sign():
    # chi^2 = -m/2 is incompatible with the bracket table
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1), chi_square=F(-1, 2))
    assert mod.closure_failures(3)
    # chi^2 = +m/2 (default) passes
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    assert not mod.closure_failures(3)


class _TableRows(VermaModule):
    """Every N=1 row that ``act`` and ``int_row`` read from the closed-form
    table.  ``closure_failures`` still decides on the engine's certificate,
    so the table's own closure goes through ``closure_failures_oracle``."""

    def __init__(self, lw, chi_square=None):
        super().__init__(lw, chi_square)
        self._closed_form = closed_form_rows_oracle(self)

    def _act_mono_engine(self, gen, mono):
        return tuple(((mn, f), _times(v, self.scale))
                     for mn, e, c in self._closed_form(gen, mono)
                     for f, v in ((0, e), (1, c)) if v)


def test_closure_table_n1():
    mod = _TableRows(LowestWeight("ssch1", F(3, 4), F(1, 2)))
    assert not closure_failures_oracle(mod, 4)


def test_module_vector_algebra(mod_m1):
    v = mod_m1.basis_vector((1, 0, 0), 2) + mod_m1.basis_vector((0, 0, 1))
    w = v.scale(F(1, 2))
    assert w.terms[(1, 0, 0)] == mod_m1.ring.one
    assert (v - v) == 0
    assert v.leading_monomial() == (1, 0, 0)
    assert v.normalized().terms[(1, 0, 0)] == mod_m1.ring.one
    other = VermaModule(LowestWeight("ssch1", F(7, 3), 1))
    with pytest.raises(ValueError):
        v + other.basis_vector((0, 0, 0))


def test_engine_deeper_than_the_recursion_limit():
    # rows are built bottom-up, so a canonical word longer than the
    # recursion limit is no obstacle
    depth = sys.getrecursionlimit() + 200
    for chi_square in (None, F(-3, 4)):
        mod = VermaModule(LowestWeight("ssch1", 1, 1), chi_square)
        _assert_rows_match_the_table(mod, (("H", (0, depth, 1)),
                                           ("Q", (3, depth, 1)),
                                           ("P", (depth, 2, 0))))
    n2 = VermaModule(LowestWeight("ssch2", F(1, 2), 1, F(1, 3)))
    assert n2.act("Q+", (2, depth, 1, 1, 1))


def _vanishes(form, substitution):
    """Whether a quadratic form, ((i, j), c) terms over v = (1, d, m, r,
    chi^2) by index, is zero as a polynomial after each variable index in
    ``substitution`` is replaced by (index, factor) times that variable, or
    by zero where it maps to None."""
    out = {}
    for (i, j), c in form:
        subs = [substitution.get(v, (v, 1)) for v in (i, j)]
        if None in subs:
            continue
        (a, fa), (b, fb) = subs
        key = (min(a, b), max(a, b))
        out[key] = out.get(key, 0) + c * fa * fb
    return not any(out.values())


# the lowest weights where each chi seed's modules are representations:
# chi^2 = m/2 with the seed on (massive N=1), m = 0 with it off
_ON_SHELL = {True: {4: (2, F(1, 2))}, False: {2: None}}


def _certificate_modules(cls=VermaModule):
    """One module per (kind, chi seed): massive and massless N=1, N=2."""
    return [cls(LowestWeight("ssch1", 1, 1)), cls(LowestWeight("ssch1", 1, 0)),
            cls(LowestWeight("ssch2", 1, 1, 0))]


def assert_certificate_structure(degree_n1, degree_n2):
    """The closure certificate to degree_n1 on both N=1 chi seeds and to
    degree_n2 on N=2: N=2 has no nonzero residual, so closure holds at every
    (d, m, r); every N=1 residual vanishes identically on its seed's shell.
    Returns the number of residuals per module."""
    counts = []
    for mod in _certificate_modules():
        if mod.kind == "ssch2":
            residuals = mod.closure_certificate(degree_n2)
            assert residuals == []
        else:
            residuals = mod.closure_certificate(degree_n1)
            assert residuals
            shell = _ON_SHELL[mod.uses_chi]
            for x, y, f, residual in residuals:
                assert all(_vanishes(form, shell) for _, form in residual), \
                    (x, y, f)
        counts.append((mod.kind, mod.uses_chi, len(residuals)))
    return counts


def test_closure_certificate_structure():
    assert assert_certificate_structure(9, 6) == [
        ("ssch1", True, 217), ("ssch1", False, 217), ("ssch2", False, 0)]


def test_mutated_table_fails_the_certificate_itself():
    # d - l - k + 1 leaves residuals that are nonzero on the whole shell,
    # not only at some lowest weights
    for mod in _certificate_modules(_MutatedTable)[:2]:  # N=1 only
        shell = _ON_SHELL[mod.uses_chi]
        residuals = mod.closure_certificate(3)
        assert any(not _vanishes(form, shell)
                   for _, _, _, residual in residuals for _, form in residual)


def test_certificate_growth_does_not_depend_on_request_order():
    mutants = _certificate_modules(_MutatedTable)[:2]  # N=1 only
    for mod in _certificate_modules() + mutants:
        degrees = range(7 if mod.kind == "ssch1" else 4)
        fresh = {n: ClosureCertificate().residuals(mod, n) for n in degrees}
        for order in (degrees, reversed(degrees)):
            certificate = ClosureCertificate()
            for n in order:
                assert certificate.residuals(mod, n) == fresh[n], (order, n)


class _ScaledRow(VermaModule):
    """Q's (N=2: Q+'s) rows times 10^30 with 1 added at the monomial acted
    on: residual coefficients far above any the kind's rows give."""

    def _parametric_row(self, gen, mono):
        row = super()._parametric_row(gen, mono)
        if gen not in ("Q", "Q+"):
            return row
        scaled = tuple((mn, *(10 ** 30 * v for v in coeffs))
                       for mn, *coeffs in row)
        return golden.add_one(scaled, mono)


class _BigRow(VermaModule):
    """Q's (N=2: Q+'s) rows at the monomials of degree above ``above``
    with 10^30 added at the first ``spread`` of v0, G v0 and K v0."""

    spread, above = 3, -1

    def _parametric_row(self, gen, mono):
        row = super()._parametric_row(gen, mono)
        if gen not in ("Q", "Q+") or _first_degree(self, mono) <= self.above:
            return row
        v0 = (0,) * len(mono)
        big = dict.fromkeys((v0, (1,) + v0[1:], (0, 1) + v0[2:])[:self.spread],
                            10 ** 30)
        return tuple((mn, a0 + big.pop(mn, 0), *rest)
                     for mn, a0, *rest in row) + tuple(
                         (mn, c, 0, 0, 0, 0) for mn, c in big.items())


class _PeakRow(_BigRow):
    spread = 1


class _FarRow(_BigRow):
    spread, above = 1, 3


def assert_certificate_equals_the_oracle(degree_n1, degree_n2):
    """A fresh certificate's residuals equal ``closure_certificate_oracle``
    to degree_n1 on N=1 and degree_n2 on N=2, on the modules of every kind
    and chi seed, the two closure mutants and chi^2 = -1/2; returns the
    number of residuals per module."""
    modules = _certificate_modules() + [
        _DoubledH(LowestWeight("ssch1", F(3, 4), 1)),
        _MutatedTable(LowestWeight("ssch1", F(1, 2), 1)),
        _MutatedTable(LowestWeight("ssch1", F(1, 2), 0)),
        VermaModule(LowestWeight("ssch1", 1, 1), chi_square=F(-1, 2))]
    counts = []
    for mod in modules:
        degree = degree_n1 if mod.kind == "ssch1" else degree_n2
        residuals = ClosureCertificate().residuals(mod, degree)
        assert residuals == closure_certificate_oracle(mod, degree), \
            (type(mod).__name__, mod.lw, mod.ring.chi_square)
        counts.append(len(residuals))
    return counts


def test_certificate_equals_the_oracle():
    assert assert_certificate_equals_the_oracle(9, 6) == [
        217, 217, 0, 396, 319, 319, 217]


# (mutant, N=1 degree, largest coefficient the certificate must read
# exactly on N=1 and on N=2, at degree 3).  Each _BigRow variant reaches
# it through a different term of the bound M = (2A + N) A: _BigRow makes
# Q(Q f) sum three products of 10^30 (above twice the square of the largest
# entry), _PeakRow makes it 2 10^60 (above A^2), and _FarRow puts 10^30
# only in rows beyond the degree asked for, which the composites still read
_BOUND_CASES = [(_ScaledRow, 5, 10 ** 60, 10 ** 30),
                (_BigRow, 5, 5 * 10 ** 60, 5 * 10 ** 60),
                (_PeakRow, 5, 10 ** 60, 10 ** 60),
                (_FarRow, 3, 10 ** 29, 10 ** 29)]


def test_certificate_reads_coefficients_above_the_rows_exactly():
    for cls, degree_n1, largest_n1, largest_n2 in _BOUND_CASES:
        for mod in _certificate_modules(cls):
            degree, largest = ((degree_n1, largest_n1) if mod.kind == "ssch1"
                               else (3, largest_n2))
            residuals = ClosureCertificate().residuals(mod, degree)
            assert residuals == closure_certificate_oracle(mod, degree), cls
            assert max(abs(c) for *_, residual in residuals
                       for _, form in residual for _, c in form) > largest


@st.composite
def _bounded_forms(draw):
    bound = draw(st.sampled_from([0, 1, 2, 2 ** 20 - 1, 2 ** 20])
                 | st.integers(0, 10 ** 70))
    coeff = st.sampled_from([-bound, bound]) | st.integers(-bound, bound)
    return bound, draw(st.lists(coeff, min_size=15, max_size=15))


# each certificate's digit layout, and the value of its term with label
# (i, j) at its Kronecker point, written out here as the certificate reads it
_LAYOUTS = {
    # v_i v_j at v = (1, d, m, r, chi^2) = (1, B, B^3, B^7, B^12)
    "closure": (_LAYOUT, lambda B, i, j: (1, B, B ** 3, B ** 7, B ** 12)[i]
                * (1, B, B ** 3, B ** 7, B ** 12)[j]),
    # d^i m^j at d = B, m = B^3
    "realization": (_DM_LAYOUT, lambda B, i, j: B ** i * (B ** 3) ** j),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_bounded_forms())
@example((5, [5] * 15))
@example((5, [-5] * 15))
@example((1, [1, -1] * 7 + [1]))
def test_kronecker_digits_round_trip(layout, case):
    layout, term = _LAYOUTS[layout]
    labels = [label for label, _ in layout]
    bound, coeffs = case
    B, decode = _kronecker(bound, layout)
    assert B > 2 * bound + 1 and B & (B - 1) == 0
    value = sum(c * term(B, *label) for label, c in zip(labels, coeffs))
    assert decode(value) == tuple(
        (label, c) for label, c in zip(labels, coeffs) if c)


def test_closure_rejects_a_negative_degree():
    mod = VermaModule(LowestWeight("ssch1", F(7, 3), 1))
    fm = FactorModule(mod, [mod.basis_vector((1, 0, 0))])
    for space in (mod, fm):
        with pytest.raises(ValueError):
            space.closure_failures(-1)
    assert mod.closure_failures(0) == []
    assert fm.closure_failures(0) == [("P", "G", (0, 0, 0)),
                                      ("G", "Q", (0, 0, 0))]


def test_closure_failure_cap():
    # the report cap must be at least one, as for verify_relations and
    # verify_structure
    mod = _DoubledH(LowestWeight("ssch1", F(3, 4), 1))
    full = mod.closure_failures(2, max_report=10 ** 6)
    assert len(full) > 1
    assert mod.closure_failures(2, max_report=1) == full[:1]
    fm = FactorModule(mod, [mod.basis_vector((1, 0, 0))])
    for cap in (0, -1):
        with pytest.raises(ValueError):
            mod.closure_failures(2, max_report=cap)
        with pytest.raises(ValueError):
            fm.closure_failures(2, max_report=cap)


_RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _closure_cases(draw):
    kind = draw(st.sampled_from(["ssch1", "ssch2"]))
    d = draw(_RATIONAL)
    m = draw(st.sampled_from([F(0), F(1)]) | _RATIONAL)
    r = draw(_RATIONAL) if kind == "ssch2" else None
    chi_square = draw(st.sampled_from([m / 2, -m / 2]) | _RATIONAL)
    variants = ["verma", "quotient"]
    if kind == "ssch1":
        variants += ["table", "mutated"]
    variant = draw(st.sampled_from(variants))
    degree = draw(st.integers(0, 4 if kind == "ssch1" else 3))
    return kind, d, m, r, chi_square, variant, degree


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_closure_cases())
@example(("ssch1", F(7, 3), F(1), None, F(1, 2), "quotient", 2))
@example(("ssch1", F(1, 2), F(1), None, F(-1, 2), "verma", 3))
@example(("ssch1", F(1, 2), F(1), None, F(1, 2), "mutated", 3))
@example(("ssch1", F(2, 3), F(3, 2), None, F(-3, 4), "table", 4))
def test_closure_matches_the_graded_scalar_oracle(case):
    kind, d, m, r, chi_square, variant, degree = case
    lw = LowestWeight(kind, d, m, r)
    cls = {"mutated": _MutatedTable, "table": _TableRows}.get(
        variant, VermaModule)
    mod = cls(lw, chi_square=chi_square)
    if variant == "quotient":
        # G v0 is not singular when m != 0 (P G v0 = m v0), so dividing it
        # out breaks [P, G] = M on v0
        g_v0 = mod.basis_vector((1,) + mod.vacuum[1:])
        space = FactorModule(mod, [g_v0])
        got = space.closure_failures(degree, max_report=10 ** 6)
    else:
        space = mod
        got = mod.closure_failures(degree, max_report=10 ** 6)
    assert got == closure_failures_oracle(space, degree, max_report=10 ** 6)
    if variant == "mutated" or (variant == "quotient" and m):
        assert got


@st.composite
def _chi_vector_cases(draw):
    space_kind = draw(st.sampled_from(["default", "chi_square", "factor"]))
    m = draw(_RATIONAL.filter(bool))
    if space_kind == "factor":
        p = draw(st.integers(0, 1))
        mod = VermaModule(LowestWeight("ssch1", F(2 * p - 1, 2), m))
        space = quotient_by_singular(mod, closed_form_n1(mod, p))
    else:
        chi_square = None if space_kind == "default" else \
            draw(_RATIONAL.filter(lambda c: c != m / 2))
        mod = VermaModule(LowestWeight("ssch1", draw(_RATIONAL), m),
                          chi_square=chi_square)
        space = mod
    monos = draw(st.lists(st.sampled_from(space.enumerate_monomials(3)),
                          min_size=1, max_size=5, unique=True))
    vec = ModuleVector(mod, {
        mono: mod.ring.scalar(draw(_RATIONAL), draw(_RATIONAL.filter(bool)))
        for mono in monos})
    return space, vec, draw(st.sampled_from(mod.table.names))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_chi_vector_cases())
def test_vector_action_is_the_twisted_sum_of_monomial_actions(case):
    # g (c w) = c' (g w), c' the parity twist of c when g is odd
    space, vec, gen = case
    odd = space.table.parity(gen)
    expected = ModuleVector(vec.module)
    for mono, coeff in vec.terms.items():
        expected += space.act(gen, mono).scale(coeff.twist() if odd else coeff)
    assert space.act(gen, vec) == expected


def test_act_rejects_a_vector_of_another_module():
    a = VermaModule(LowestWeight("ssch1", F(1, 3), 1))
    b = VermaModule(LowestWeight("ssch1", F(5, 7), 2))
    vec = b.basis_vector((2, 0, 0))
    assert b.act("P", vec) == b.basis_vector((1, 0, 0), 4)
    fm = FactorModule(a, [a.basis_vector((0, 0, 1))])
    for space in (a, fm):
        with pytest.raises(ValueError, match="module mismatch"):
            space.act("P", vec)
    assert fm.act("P", a.basis_vector((2, 0, 0))) == \
        a.basis_vector((1, 0, 0), 2)


# coefficient parts with denominators above 1 among them
_COEFF = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def _act_cases(draw):
    kind = draw(st.sampled_from(["ssch1", "ssch2"]))
    m = draw(st.sampled_from([F(0), F(1)]) | _RATIONAL)
    r = draw(_RATIONAL) if kind == "ssch2" else None
    # None is chi^2 = m/2
    chi_square = draw(st.sampled_from([None, F(0)]) | _RATIONAL)
    mod = VermaModule(LowestWeight(kind, draw(_RATIONAL), m, r), chi_square)
    monos = draw(st.lists(st.sampled_from(mod.enumerate_monomials(
        4 if kind == "ssch1" else 3)), min_size=1, max_size=6, unique=True))
    vec = ModuleVector(mod, {mono: mod.ring.scalar(draw(_COEFF), draw(_COEFF))
                             for mono in monos})
    return mod, vec, draw(st.sampled_from(mod.table.names))


def _example_vector(kind, d, m, r, chi_square, gen, coeffs):
    mod = VermaModule(LowestWeight(kind, d, m, r), chi_square)
    return mod, ModuleVector(mod, {mono: mod.ring.scalar(e, c)
                                   for mono, (e, c) in coeffs.items()}), gen


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_act_cases())
@example(_example_vector("ssch1", F(7, 3), F(3, 2), None, None, "Q",
                         {(1, 0, 1): (F(2, 3), F(-5, 4)),
                          (0, 1, 0): (F(1, 6), F(7, 9))}))
@example(_example_vector("ssch1", F(1, 2), 0, None, None, "H",
                         {(2, 0, 1): (F(3, 5), F(1, 7)),
                          (0, 1, 1): (F(0), F(-4, 3))}))
@example(_example_vector("ssch1", F(-1, 2), 1, None, F(0), "P",
                         {(1, 1, 1): (F(1, 2), F(1, 3))}))
@example(_example_vector("ssch2", F(5, 2), F(2, 3), F(-1, 3), None, "Q-",
                         {(1, 0, 1, 1, 0): (F(3, 4), F(2, 5)),
                          (0, 1, 1, 0, 1): (F(-5, 6), F(0))}))
@example(_example_vector("ssch2", F(4, 3), 0, F(1, 5), F(1, 3), "X-",
                         {(0, 1, 0, 1, 1): (F(1, 9), F(5, 2))}))
def test_act_equals_the_fraction_oracle(case):
    # int sums over one denominator against Fraction row sums, on a vector
    # and on each of its monomials
    mod, vec, gen = case
    got = mod.act(gen, vec)
    _parts(got)
    assert got == act_oracle(mod, gen, vec)
    for mono in vec.terms:
        assert _parts(mod.act(gen, mono)) == _parts(act_oracle(mod, gen, mono))


# lowest weights whose ``classify`` chain ends in a factor module: massive
# and massless N=1, massive N=2 and each massless N=2 chain (L^{d,r},
# L^{p,r}, L+^d, L-^d, L+^l/II^l, L-^l/II^l)
_CHAIN_POINTS = (
    ("ssch1", F(1, 2), 1, None), ("ssch1", F(-1, 2), F(3, 2), None),
    ("ssch1", F(3, 2), F(2, 3), None), ("ssch1", F(2, 3), 0, None),
    ("ssch1", 2, 0, None), ("ssch2", F(3, 2), 1, F(-11, 7)),
    ("ssch2", F(5, 2), F(1, 2), F(1, 3)), ("ssch2", F(5, 3), 0, F(2, 3)),
    ("ssch2", 2, 0, F(1, 3)), ("ssch2", F(2, 3), 0, F(-2, 3)),
    ("ssch2", F(2, 3), 0, F(2, 3)), ("ssch2", 2, 0, -2), ("ssch2", 1, 0, 1))


@functools.cache
def _chain_terminal(point):
    terminal = classify(LowestWeight(*point), cutoff=4).terminal
    assert isinstance(terminal, FactorModule), point
    return terminal


def _fractions(scale, entries):
    """An ``int_row`` as (monomial, even, chi) Fractions, by monomial."""
    parts = {}
    for (mn, f), v in entries:
        parts.setdefault(mn, [F(0), F(0)])[f] = F(v, scale)
    return {mn: tuple(ec) for mn, ec in parts.items()}


def assert_factor_rows_follow_the_chi_rule(fm, gen, mono):
    """``FactorModule.int_row`` at flag 1 equals the chi rule applied to
    its flag-0 row, and ``act`` on chi times the monomial."""
    at_zero = _fractions(*fm.int_row(gen, (mono, 0)))
    want = {mn: (e, c) for mn, e, c in chi_rule(
        [(mn, e, c) for mn, (e, c) in at_zero.items()],
        fm.table.parity(gen), fm.ring.chi_square) if e or c}
    assert _fractions(*fm.int_row(gen, (mono, 1))) == want, (gen, mono)
    at_chi = fm.act(gen, fm.base.basis_vector(mono, fm.ring.chi))
    assert {mn: (e, c) for mn, e, c in _parts(at_chi)} == want, (gen, mono)


@st.composite
def _factor_cases(draw):
    fm = _chain_terminal(draw(st.sampled_from(_CHAIN_POINTS)))
    mod = fm.base
    monos = draw(st.lists(st.sampled_from(fm.enumerate_monomials(3)),
                          min_size=1, max_size=4, unique=True))
    vec = ModuleVector(mod, {mono: mod.ring.scalar(draw(_COEFF), draw(_COEFF))
                             for mono in monos})
    return fm, vec, draw(st.sampled_from(mod.table.names))


def golden_classify_terminals():
    """(case id, terminal module) of every ``classify`` case of the golden
    corpus whose recorded call does not raise, in corpus order."""
    points = {golden._point_id(*point[:4]): point for point in
              golden.SHAPOVALOV + golden.LINES + golden.CHI_POINTS
              + golden.SHAPOVALOV_GRAM + golden.BRANCHES}
    out = []
    for case_id, thunk in golden.cases():
        if case_id.startswith("classify ") and "raises" not in thunk():
            kind, d, m, r, degree = points[case_id[len("classify "):]]
            out.append((case_id, classify(golden._lw(kind, d, m, r),
                                          cutoff=min(degree, 6)).terminal))
    return out


def assert_act_matches_the_oracle(space, max_degree, seed=0):
    """``act`` of every generator on every (surviving) monomial up to
    max_degree, as a monomial, as a vector with a seeded coefficient e + c
    chi and on the seeded sum of each weight's basis, against
    ``act_oracle`` (reduced on a factor module, whose flag-1 rows must also
    follow the chi rule); returns the number of comparisons."""
    rng = random.Random(seed)
    factor = isinstance(space, FactorModule)
    mod = space.base if factor else space
    reduce = space.reduce if factor else (lambda vec: vec)

    def coeff():
        return mod.ring.scalar(*(F(rng.randint(-9, 9), rng.randint(1, 9))
                                 for _ in range(2)))

    monos = space.enumerate_monomials(max_degree)
    vectors = monos + [mod.basis_vector(mono, coeff()) for mono in monos]
    vectors += [ModuleVector(mod, {mono: coeff() for mono
                                   in space.subspace_basis(weight)})
                for weight in sorted({mod.weight(mono) for mono in monos})]
    count = 0
    for gen in mod.table.names:
        for target in vectors:
            got = space.act(gen, target)
            _parts(got)
            assert got == reduce(act_oracle(mod, gen, target)), (gen, target)
            count += 1
        if factor:
            for mono in monos:
                assert_factor_rows_follow_the_chi_rule(space, gen, mono)
    return count


def test_golden_terminal_actions_equal_the_oracle():
    terminals = golden_classify_terminals()
    assert len(terminals) == 63 and any(
        isinstance(space, VermaModule) for _, space in terminals)
    assert sum(assert_act_matches_the_oracle(space, 2)
               for _, space in terminals[::5]) > 0


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(_factor_cases())
def test_factor_action_equals_the_reduced_fraction_oracle(case):
    fm, vec, gen = case
    got = fm.act(gen, vec)
    _parts(got)
    assert got == fm.reduce(act_oracle(fm.base, gen, vec))
    for mono in vec.terms:
        assert_factor_rows_follow_the_chi_rule(fm, gen, mono)


@st.composite
def _engine_cases(draw):
    kind = draw(st.sampled_from(["ssch1", "ssch2"]))
    m = draw(st.sampled_from([F(0), F(1)]) | _RATIONAL)
    r = draw(_RATIONAL) if kind == "ssch2" else None
    chi_square = draw(st.sampled_from([None, F(1, 3)]) | _RATIONAL)
    return LowestWeight(kind, draw(_RATIONAL), m, r), chi_square


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(_engine_cases())
@example((LowestWeight("ssch1", F(1, 2), 0), F(2, 3)))
@example((LowestWeight("ssch2", F(-7, 3), F(2, 3), F(12, 5)), None))
def test_evaluated_engine_table_equals_the_fraction_walk(case):
    # the kind's parametric table evaluated at one module's parameters
    # against the engine's Fraction walk at those parameters: massless
    # ssch1 (chi zeroed) and ssch2 included, up to degree 8 and 5
    lw, chi_square = case
    assert_rows_match_the_engine_oracle(
        VermaModule(lw, chi_square=chi_square),
        8 if lw.kind == "ssch1" else 5)


def assert_rows_match_the_engine_oracle(mod, max_degree):
    """``act`` on a monomial and on chi times it, and the engine's int row,
    of every generator on every monomial up to max_degree against
    ``engine_rows_oracle`` (in order); returns the number of rows
    compared."""
    oracle = engine_rows_oracle(mod)
    D = mod.scale
    pairs = [(gen, mono) for mono in mod.enumerate_monomials(max_degree)
             for gen in mod.table.names]
    for gen, mono in pairs:
        expected = oracle(gen, mono)
        at_chi = chi_rule(expected, mod.table.parity(gen), mod.ring.chi_square)
        for flag, rows in ((0, expected), (1, at_chi)):
            assert _parts(_act_at_flag(mod, gen, mono, flag)) == tuple(
                entry for entry in rows if entry[1] or entry[2]), \
                (gen, mono, flag)
        assert mod._act_mono_engine(gen, mono) == tuple(
            ((mn, f), v * D) for mn, e, c in expected
            for f, v in ((0, e), (1, c)) if v), (gen, mono)
    return len(pairs)


class _OffDenominator(VermaModule):
    """A module whose scale D leaves out den chi^2: D = lcm(den d, den m)."""

    def __init__(self, lw, chi_square=None):
        super().__init__(lw, chi_square)
        D = self.scale = lcm(lw.d.denominator, lw.m.denominator)
        self._point = (D, _times(lw.d, D), _times(lw.m, D), 0,
                       D if self.uses_chi else 0)


def test_an_entry_off_the_module_denominator_raises():
    # d = 1/2, m = 1, chi^2 = 1/7: D = 2, and Q on chi G v0 gives
    # -chi^2 v0 = -2/7 over D
    mod = _OffDenominator(LowestWeight("ssch1", F(1, 2), 1), F(1, 7))
    assert mod.scale == 2
    assert mod.int_row("G", ((0, 1, 0), 0)) == (2, ((((1, 1, 0), 0), 2),))
    assert mod.int_row("Q", ((1, 0, 0), 0)) == (2, ((((0, 0, 0), 1), 2),))
    with pytest.raises(ValueError, match="not an integer"):
        mod.int_row("Q", ((1, 0, 0), 1))
    with pytest.raises(ValueError, match="not an integer"):
        mod.closure_failures(2)
    # a denominator that divides D converts exactly
    # (m = 1/7: D = lcm(2, 7) = 14 and chi^2 = 1/14)
    mod = _OffDenominator(LowestWeight("ssch1", F(1, 2), F(1, 7)))
    assert mod.scale == 14
    assert mod.int_row("Q", ((1, 0, 0), 1)) == (14, ((((0, 0, 0), 0), -1),))
