import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import golden.record as golden
from golden.record import add_one
from oracles import (RewritingError, build_pm_pair, gram_pair,
                     intertwiner_failures, reachable_weight,
                     rewriting_quotient_oracle)
from superschrod.scalars import QI
from superschrod.singular import (ANNIHILATORS, WeightCoords,
                                  closed_form_n1, find_singular, rank)
from superschrod.quotient import (ClassificationRecord, FactorModule,
                                  classify, gram, quotient_by_singular)
from superschrod.verma import LowestWeight, ModuleVector, VermaModule


# -- factor modules ------------------------------------------------------------


@pytest.fixture(scope="module")
def massive_factor():
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    return quotient_by_singular(mod, closed_form_n1(mod, 1))


def test_quotient_requires_singular():
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    with pytest.raises(ValueError):
        quotient_by_singular(mod, mod.basis_vector((1, 0, 0)))


def test_a_submodule_without_chi_partners_is_refused():
    # at chi^2 = 1 the line through (1 + chi) G v0 is closed under chi, so
    # its pivot G v0 has no chi partner and the survivors would not be
    # monomials
    mod = VermaModule(LowestWeight("ssch1", F(1, 3), 2))
    vec = mod.basis_vector((1, 0, 0), mod.ring.scalar(1, 1))
    fm = FactorModule(mod, [vec])
    with pytest.raises(ValueError, match="chi multiples"):
        fm.subspace_basis(1)


def test_defining_vector_reduces_to_zero(massive_factor):
    vs = closed_form_n1(massive_factor.base, 1)
    assert not massive_factor.reduce(vs)


def test_massive_factor_basis_caps_g_power(massive_factor):
    # p = 1: the quotient basis keeps k <= 2p = 2
    for weight in range(1, 7):
        for mono in massive_factor.subspace_basis(weight):
            assert mono[0] <= 2
    assert (3, 0, 0) not in massive_factor.subspace_basis(3)


def test_g_cubed_rewrites_to_the_stated_combination(massive_factor):
    # G^3 w0 = 2 chi G^2 S w0 - sum_{j<p} C(p,j)(-2m)^{p-j} G^{2j} K^{p-j}
    #          (G - 2 chi S) w0   at p = 1, m = 1
    mod = massive_factor.base
    chi = mod.ring.chi
    reduced = massive_factor.reduce(mod.basis_vector((3, 0, 0)))
    expected = mod.basis_vector((2, 0, 1)).scale(chi).scale(2) \
        + (mod.basis_vector((1, 1, 0))
           - mod.basis_vector((0, 1, 1)).scale(chi).scale(2)).scale(2)
    assert reduced == massive_factor.reduce(expected)
    assert reduced.leading_monomial()[0] <= 2


def test_massive_factor_has_no_singular_vectors(massive_factor):
    assert find_singular(massive_factor, 6) == []


def test_massive_factor_closure(massive_factor):
    assert not massive_factor.closure_failures(4)


def test_factor_closure_fails_for_a_non_singular_quotient():
    # G v0 is not singular (P G v0 = m v0), so dividing it out breaks
    # [P, G] = M on v0: both sides of P G - G P vanish, M v0 does not.
    mod = VermaModule(LowestWeight("ssch1", F(7, 3), 1))
    fm = FactorModule(mod, [mod.basis_vector((1, 0, 0))])
    failures = fm.closure_failures(2, max_report=50)
    assert ("P", "G", (0, 0, 0)) in failures
    assert all(mono[0] == 0 for _, _, mono in failures)
    assert len(fm.closure_failures(2)) == 5


def test_massless_factor_n1():
    mod = VermaModule(LowestWeight("ssch1", F(7, 3), 0))
    fm = quotient_by_singular(mod, closed_form_n1(mod, 1))
    # basis K^l w0, K^l S w0
    for weight in range(1, 7):
        for mono in fm.subspace_basis(weight):
            assert mono[0] == 0
    # submodule containment: G^p v0 lies in <G v0> for every p >= 1
    for p in range(1, 6):
        assert not fm.reduce(mod.basis_vector((p, 0, 0)))
    # and the boundary vector G^d S v0 dies in the quotient for d >= 1
    assert not fm.reduce(mod.basis_vector((2, 0, 1)))


def test_massless_factor_singular_vector_at_integer_d():
    mod = VermaModule(LowestWeight("ssch1", 2, 0))
    fm = quotient_by_singular(mod, closed_form_n1(mod, 1))
    reports = find_singular(fm, 6)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.weight == 5
    assert rep.vectors[0] == mod.basis_vector((0, 2, 1))
    # non-integer d: no singular vectors in the factor
    mod2 = VermaModule(LowestWeight("ssch1", F(7, 3), 0))
    fm2 = quotient_by_singular(mod2, closed_form_n1(mod2, 1))
    assert find_singular(fm2, 6) == []


def test_terminal_n1_dimensions_and_trivial_actions():
    for p in (1, 2, 3):
        record = classify(LowestWeight("ssch1", p, 0))
        assert record.dimension == 2 * p + 1
        terminal = record.terminal
        monos = terminal.all_basis_monomials()
        assert len(monos) == 2 * p + 1
        for gen in ("P", "G", "M", "X"):
            for mono in monos:
                assert not terminal.act(gen, mono), (p, gen, mono)


def test_quotient_dims_match_linear_algebra_oracle():
    # independent route: dim of the weight space of U(plus part) * v_s
    # computed by spanning, compared against the survivor count
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    vs = closed_form_n1(mod, 1)
    fm = quotient_by_singular(mod, vs)
    oracle = rewriting_quotient_oracle(mod, [vs])
    raising = [(0, 0, 0)] + mod.enumerate_monomials(6)
    for weight in range(1, 7):
        coords = WeightCoords(mod, weight)
        rows = []
        for mono in raising:
            shift = mod.weight(mono)
            if shift + 3 != weight:  # vs sits at weight 3 (p=1)
                continue
            vec = oracle.prefix_apply(mono, vs)
            rows.append(coords.to_coords(vec))
            rows.append(coords.to_coords(vec.scale(mod.ring.chi)))
        submodule_dim = rank(rows)
        full_dim = coords.dim
        survivor_dim = 2 * len(fm.subspace_basis(weight))
        assert survivor_dim == full_dim - submodule_dim, weight


def test_n2_massless_chain_bases():
    mod = VermaModule(LowestWeight("ssch2", F(5, 2), 0, F(1, 3)))
    fm = quotient_by_singular(mod, mod.basis_vector((0, 0, 0, 0, 1)))
    # basis G^k K^l S+^a S-^b w0 (no X+)
    for mono in fm.subspace_basis((2, 1)):
        assert mono[4] == 0
    fm2 = quotient_by_singular(fm, mod.basis_vector((1, 0, 0, 0, 0)))
    for weight in [(2, 0), (3, 1), (4, 0)]:
        for mono in fm2.subspace_basis(weight):
            assert mono[0] == 0 and mono[4] == 0
    assert not fm2.closure_failures(3)


def test_sv_iv_found_exactly_at_integer_d():
    # L^{d,r} has K^l S+ S- z0 + ((d-r)/d) K^{l+1} z0 iff d = l+1
    for d, r, expect in ((2, F(1, 3), True), (F(5, 2), F(1, 3), False)):
        mod = VermaModule(LowestWeight("ssch2", d, 0, r))
        fm = quotient_by_singular(mod, mod.basis_vector((0, 0, 0, 0, 1)))
        fm = quotient_by_singular(fm, mod.basis_vector((1, 0, 0, 0, 0)))
        reports = find_singular(fm, 6)
        if not expect:
            assert reports == []
        else:
            assert len(reports) == 1
            rep = reports[0]
            assert rep.weight == (4, 0)
            expected = mod.basis_vector((0, 1, 1, 1, 0)) \
                + mod.basis_vector((0, 2, 0, 0, 0)).scale(QI((d - r) / d))
            assert rep.vectors[0] == expected.normalized()


# -- the echelon quotient against the rewriting oracle and the Gram rank ---------


# (kind, d, m, r) of every golden classify point, as texts
_GOLDEN_POINTS = tuple(dict.fromkeys(
    point[:4] for point in golden.SHAPOVALOV + golden.SHAPOVALOV_GRAM
    + golden.LINES + golden.CHI_POINTS + golden.BRANCHES))
# the two golden points where rule rewriting breaks down (ROADMAP item 5)
_REWRITING_BREAKS = (("ssch2", "1/2", "1", "1/2"), ("ssch2", "3/2", "1", "3/2"))
# the classify requests of perfbench/cli_catalogue.json
_CATALOGUE_POINTS = (("ssch1", "2", "0", None), ("ssch1", "1/2", "1", None),
                     ("ssch2", "3", "0", "-3"), ("ssch2", "2", "0", "1/3"),
                     ("ssch2", "5/2", "1", "1/3"))


@functools.cache
def _terminal_and_oracle(point, cutoff=4):
    """classify's terminal at a (kind, d, m, r) point and the rewriting
    oracle of its generators, or the RewritingError that building it
    raises (None for a Verma terminal)."""
    terminal = classify(golden._lw(*point), cutoff=cutoff).terminal
    if not isinstance(terminal, FactorModule):
        return terminal, None
    try:
        return terminal, rewriting_quotient_oracle(terminal.base,
                                                   terminal.generators)
    except RewritingError as exc:
        return terminal, exc


def assert_reduce_matches_the_rewriting_oracle(point, max_degree, seed=0):
    """``reduce`` of classify's terminal at ``point`` against the rewriting
    oracle: on every monomial up to max_degree, on chi times it and on a
    seeded combination of each weight's basis.  Returns (comparisons,
    vectors on which the oracle raised); the oracle raises only at the
    ``_REWRITING_BREAKS`` points."""
    terminal, oracle = _terminal_and_oracle(point, max_degree)
    mod = terminal.base
    rng = random.Random(seed)
    monos = mod.enumerate_monomials(max_degree)
    vectors = [mod.basis_vector(mono, c) for mono in monos
               for c in (mod.ring.one, mod.ring.chi)]
    vectors += [ModuleVector(mod, {mono: mod.ring.scalar(
        F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), 7))
        for mono in mod.subspace_basis(weight)})
        for weight in mod.enumerate_weights(max_degree)]
    compared = raised = 0
    for vec in vectors:
        try:
            if isinstance(oracle, RewritingError):
                raise oracle
            want = oracle.reduce(vec)
        except RewritingError:
            assert point in _REWRITING_BREAKS, (point, vec)
            raised += 1
            continue
        assert terminal.reduce(vec) == want, (point, vec)
        compared += 1
    return compared, raised


def _golden_factor_points():
    return [point for point in _GOLDEN_POINTS
            if isinstance(_terminal_and_oracle(point)[0], FactorModule)]


@st.composite
def _oracle_cases(draw):
    if draw(st.booleans()):
        point = draw(st.sampled_from(_golden_factor_points()))
    else:
        # a massless point with integer d, on or off the lines r = +-d
        kind = draw(st.sampled_from(["ssch1", "ssch2"]))
        d = draw(st.integers(-2, 4))
        r = None if kind == "ssch1" else str(draw(
            st.sampled_from([d, -d, d - 1, d - 2]) | st.fractions(
                min_value=-4, max_value=4, max_denominator=5)))
        point = (kind, str(d), "0", r)
    terminal, _ = _terminal_and_oracle(point)
    mod = terminal.base
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    monos = draw(st.lists(st.sampled_from(mod.enumerate_monomials(4)),
                          min_size=1, max_size=5, unique=True))
    return point, ModuleVector(mod, {
        mono: mod.ring.scalar(draw(coeff), draw(coeff)) for mono in monos})


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(_oracle_cases())
def test_reduce_equals_the_rewriting_oracle(case):
    # wherever rule rewriting does not break down, the echelon quotient
    # reduces every vector to the rewriting's canonical representative
    point, vec = case
    terminal, oracle = _terminal_and_oracle(point)
    try:
        if isinstance(oracle, RewritingError):
            raise oracle
        want = oracle.reduce(vec)
    except RewritingError:
        assert point in _REWRITING_BREAKS, point
        return
    assert terminal.reduce(vec) == want


def test_reduce_equals_the_rewriting_oracle_on_the_golden_chains():
    counts = {point: assert_reduce_matches_the_rewriting_oracle(point, 4)
              for point in _golden_factor_points()}
    assert sum(compared for compared, _ in counts.values()) > 3000
    assert [point for point, (_, raised) in counts.items() if raised] == \
        list(_REWRITING_BREAKS)


@pytest.mark.parametrize("d, lead", [(F(1, 2), (1, 0, 1, 0, 1)),
                                     (F(3, 2), (3, 0, 1, 0, 1))])
def test_the_rewriting_oracle_breaks_at_the_item_5_points(d, lead):
    # a rule's lead divides the monomial, but the rule shifted there loses
    # its lead: the monomial is not in the submodule, and it survives in
    # the echelon quotient
    terminal = classify(LowestWeight("ssch2", d, 1, d)).terminal
    oracle = rewriting_quotient_oracle(terminal.base, terminal.generators)
    vec = terminal.base.basis_vector(lead)
    assert not oracle.survives(lead)
    with pytest.raises(RewritingError, match="reduction order violated"):
        oracle.reduce(vec)
    assert terminal.reduce(vec) == vec


# (d, m) on the line r = d, and the weights find_singular reports up to
# degree 6 in V / <S- v0>: at d = p + 1/2, probe (e)'s subsingular (2p+3, 1)
LINE_QUOTIENTS = ((0, 1, []), (F(2, 3), 2, []), (F(1, 2), 1, [(3, 1)]),
                  (F(3, 2), 1, [(5, 1)]), (-1, 1, []))


@pytest.mark.parametrize("d, m, reported", LINE_QUOTIENTS)
def test_line_quotients_build(d, m, reported):
    # V / <S- v0> on r = d, where rule rewriting broke down
    module = VermaModule(LowestWeight("ssch2", d, m, d))
    s_minus = module.basis_vector((0, 0, 0, 1, 0))
    with pytest.raises(RewritingError):
        rewriting_quotient_oracle(module, [s_minus])
    fm = quotient_by_singular(module, s_minus)
    reports = find_singular(fm, 6)
    assert [rep.weight for rep in reports] == reported
    assert all(rep.kernel_dim == 1 for rep in reports)


def _gram_rank_points():
    lines = {point[:4] for point in golden.LINES}
    for point in dict.fromkeys(_GOLDEN_POINTS + _CATALOGUE_POINTS):
        marks = [pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 3: classify takes no r = d / r = -d-1 branch, "
            "so the terminal is not irreducible"))] if point in lines else []
        yield pytest.param(point, marks=marks, id=golden._point_id(*point))


@pytest.mark.parametrize("point", _gram_rank_points())
def test_gram_rank_equals_the_terminal_dimension(point):
    # the radical of the contravariant form is the maximal submodule, so
    # at each weight the Gram rank is the irreducible quotient's dimension
    lw = golden._lw(*point)
    terminal = classify(lw).terminal
    module = VermaModule(lw)
    double = 2 if module.uses_chi else 1
    for weight in [module.weight(module.vacuum)] + \
            module.enumerate_weights(6):
        gm = gram(module, weight, check_adjoint=False)
        assert rank(gm.matrix) == \
            double * len(terminal.subspace_basis(weight)), weight


# -- classification -------------------------------------------------------------


def test_classification_examples():
    rec = classify(LowestWeight("ssch1", 2, 1))
    assert rec.verdict == "V^d" and rec.dimension is None

    rec = classify(LowestWeight("ssch1", 2, 0))
    assert rec.verdict == "(V^p/I^1)/I^p" and rec.dimension == 5

    rec = classify(LowestWeight("ssch2", 3, 0, -3))
    assert rec.dimension == 7

    rec = classify(LowestWeight("ssch2", F(5, 2), 0, F(1, 3)))
    assert rec.verdict == "L^{d,r}" and rec.dimension is None

    rec = classify(LowestWeight("ssch2", F(5, 2), 1, F(1, 3)))
    assert rec.verdict == "V^{d,r}/I^{d,r}" and rec.dimension is None

    rec = classify(LowestWeight("ssch2", F(3, 4), 1, 5))
    assert rec.verdict == "V^{d,r}" and rec.dimension is None


def test_classification_finite_branches_n2():
    for ell in (0, 1, 2):
        rec = classify(LowestWeight("ssch2", ell, 0, -ell))
        assert rec.verdict == "L+^l/II^l"
        assert rec.dimension == 2 * ell + 1
    rec = classify(LowestWeight("ssch2", 2, 0, 2))
    assert rec.dimension == 5
    # positive integer d with r != +-d: the 4p-dimensional terminal
    rec = classify(LowestWeight("ssch2", 2, 0, F(1, 3)))
    assert rec.verdict == "L^{p,r}" and rec.dimension == 8


def test_terminal_modules_carry_representations():
    # closure holds in every terminal quotient, including the 4p-dimensional
    # integer-d branch, and P/G/M/X+- act trivially in the massless N=2
    # terminals
    for lw in (LowestWeight("ssch2", 2, 0, F(1, 3)),
               LowestWeight("ssch2", 2, 0, -2),
               LowestWeight("ssch1", 2, 0)):
        rec = classify(lw)
        assert not rec.terminal.closure_failures(5), lw
    rec = classify(LowestWeight("ssch2", 1, 0, -1))
    for gen in ("P", "G", "M", "X+", "X-"):
        for mono in rec.terminal.all_basis_monomials():
            assert not rec.terminal.act(gen, mono), (gen, mono)


def test_classification_certify():
    rec = classify(LowestWeight("ssch1", F(1, 2), 1), cutoff=6, certify=True)
    assert rec.no_singular_up_to == 6
    rec = classify(LowestWeight("ssch1", 1, 0), certify=True)
    assert rec.no_singular_up_to is not None and rec.no_singular_up_to > 0


def test_certify_flags_the_r_equals_d_line():
    # on the line r = d the vector S- w0 stays singular after the massive
    # chain, so the generic-irreducibility verdict fails certification there
    rec = classify(LowestWeight("ssch2", 2, 1, 2), cutoff=3, certify=True)
    assert rec.verdict == "V^{d,r}"
    assert rec.no_singular_up_to == -1
    # off the line the same verdict certifies cleanly
    rec = classify(LowestWeight("ssch2", 2, 1, F(1, 3)), cutoff=3,
                   certify=True)
    assert rec.no_singular_up_to == 3


def test_classification_record_roundtrip():
    rec = classify(LowestWeight("ssch2", 3, 0, -3))
    data = rec.to_json_dict()
    again = ClassificationRecord.from_json_dict(data)
    assert again.to_json_dict() == data


def test_submodule_inclusion_massless():
    # v_s^p = G^{p-1} v_s^1 puts every I^p inside I^1
    mod = VermaModule(LowestWeight("ssch1", F(1, 3), 0))
    fm = quotient_by_singular(mod, closed_form_n1(mod, 1))
    for p in (2, 3, 4):
        assert not fm.reduce(closed_form_n1(mod, p))


# -- the plus/minus intertwiner ---------------------------------------------------


@pytest.mark.parametrize("d", [F(1, 3), -2])
def test_intertwiner(d):
    assert intertwiner_failures(d, max_weight=6) == []


def test_pm_pair_shapes():
    plus, minus = build_pm_pair(F(1, 3), cutoff=4)
    for mono in plus.subspace_basis((2, -1)):
        assert mono[2] == 0 and mono[4] == 0  # only S- powers survive
    for mono in minus.subspace_basis((2, 1)):
        assert mono[3] == 0 and mono[4] == 0  # only S+ powers survive


# -- the bilinear form -------------------------------------------------------------


def test_vacuum_pairing_is_one():
    mod = VermaModule(LowestWeight("ssch1", F(1, 3), 1))
    value = gram_pair(mod, (mod.vacuum, 0), (mod.vacuum, 0))
    assert value == mod.ring.one


def test_cross_weight_orthogonality():
    mod = VermaModule(LowestWeight("ssch1", F(2, 3), 1))
    labels = []
    for w in range(0, 5):
        for mono in mod.subspace_basis(w):
            for e in (0, 1):
                labels.append((w, (mono, e)))
    for w1, lab1 in labels:
        for w2, lab2 in labels:
            if w1 != w2:
                assert not gram_pair(mod, lab1, lab2), (lab1, lab2)


def test_gram_weight1_determinant_formula():
    # the doubled weight-1 Gram determinant is [(m^2/4)(2d+1)]^2
    for d, m in ((F(-1, 2), 1), (F(1, 2), 1), (2, F(3, 2))):
        mod = VermaModule(LowestWeight("ssch1", d, m))
        gm = gram(mod, 1, check_adjoint=False)
        factor = QI(F(m * m, 4) * (2 * d + 1))
        assert gm.det == factor * factor
        assert not gm.parity_violations


def test_gram_entries_real_and_blocked():
    mod = VermaModule(LowestWeight("ssch2", F(3, 2), 1, F(1, 3)))
    gm = gram(mod, (2, 0), check_adjoint=False)
    assert not gm.parity_violations
    for i, row in enumerate(gm.matrix):
        for j, value in enumerate(row):
            assert isinstance(value, F)
            if gm.parities[i] != gm.parities[j]:
                assert not value


def _assert_gram_pair_agrees(mod, gm, epsilon, lam):
    """Every entry of ``gm`` is the even part of ``gram_pair``, and its
    parity violations are read from the full chi-carrying values."""
    violations = []
    for i, left in enumerate(gm.labels):
        for j, right in enumerate(gm.labels):
            value = gram_pair(mod, left, right, epsilon, lam)
            assert gm.matrix[i][j] == value.even
            if gm.parities[i] == gm.parities[j]:
                if value.odd:
                    violations.append(
                        (left, right, "chi part on diagonal block"))
            elif value.even:
                violations.append((left, right, "even part across parities"))
    assert gm.parity_violations == violations
    return violations


def test_gram_matches_gram_pair():
    # gram builds each row from memoised one-letter-shorter functionals;
    # gram_pair applies the whole omega1 word for every pair, so it is the
    # entry-by-entry oracle
    cases = [("ssch1", F(2, 3), 1, None, 5), ("ssch1", F(3, 2), 0, None, 5),
             ("ssch2", F(3, 2), 1, F(1, 3), 4),
             ("ssch2", F(4, 3), 0, F(-2, 5), 4)]
    for kind, d, m, r, deg in cases:
        mod = VermaModule(LowestWeight(kind, d, m, r))
        for eps in (0, 1):
            for lam in (0, 1):
                for w in mod.enumerate_weights(deg):
                    gm = gram(mod, w, eps, lam, check_adjoint=False)
                    assert any(e for _, e in gm.labels) == mod.uses_chi
                    _assert_gram_pair_agrees(mod, gm, eps, lam)


class _ParityBreaking(VermaModule):
    """The N=1 action with P also sending G^k K^l S v0 to G^k K^l v0: an
    even generator that changes parity, so the form gets entries across
    the parity blocks (and, with chi, chi parts inside them)."""

    def _parametric_row(self, gen, mono):
        row = super()._parametric_row(gen, mono)
        if gen != "P" or mono[2] != 1:
            return row
        return add_one(row, (mono[0], mono[1], 0))


_RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_N2_WEIGHTS = VermaModule(LowestWeight("ssch2", 0, 0, 0)).enumerate_weights(3)


@st.composite
def _gram_cases(draw):
    kind = draw(st.sampled_from(["ssch1", "ssch2"]))
    d = draw(_RATIONAL)
    m = draw(st.sampled_from([F(0), F(1)]) | _RATIONAL)
    r = draw(_RATIONAL) if kind == "ssch2" else None
    chi_square = draw(st.sampled_from([m / 2]) | _RATIONAL)
    mutated = kind == "ssch1" and draw(st.booleans())
    weight = draw(st.integers(0, 5) if kind == "ssch1"
                  else st.sampled_from(_N2_WEIGHTS))
    epsilon, lam = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    return kind, d, m, r, chi_square, mutated, weight, epsilon, lam


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_gram_cases())
@example(("ssch1", F(1, 3), F(1), None, F(1, 3), True, 2, 1, 0))
@example(("ssch1", F(1, 2), F(3, 2), None, F(3, 4), False, 5, 0, 1))
def test_gram_matches_gram_pair_on_random_modules(case):
    # int functionals against the whole-word GradedScalar oracle
    kind, d, m, r, chi_square, mutated, weight, epsilon, lam = case
    cls = _ParityBreaking if mutated else VermaModule
    mod = cls(LowestWeight(kind, d, m, r), chi_square=chi_square)
    gm = gram(mod, weight, epsilon, lam, check_adjoint=False)
    violations = _assert_gram_pair_agrees(mod, gm, epsilon, lam)
    if mutated and (weight % 2 or (m and weight)):
        assert violations


@st.composite
def _gram_sequences(draw):
    kind, d, m, r, chi_square, mutated, *_ = draw(_gram_cases())
    cls = _ParityBreaking if mutated else VermaModule
    lw = LowestWeight(kind, d, m, r)
    mod = cls(lw, chi_square=chi_square)
    weights = [mod.weight(mod.vacuum)] + mod.enumerate_weights(5)
    order = draw(st.permutations(weights))
    signs = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                          min_size=len(order), max_size=len(order)))
    return cls, lw, chi_square, [(w, e, l) for w, (e, l) in zip(order, signs)]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_gram_sequences())
@example((_ParityBreaking, LowestWeight("ssch1", F(1, 3), 1), F(-2, 3),
          [(w, w % 2, w // 3) for w in (5, 0, 3, 1, 4, 2)]))
def test_gram_memo_does_not_depend_on_request_order(case):
    # one module answers a drawn sequence of requests, twice over, from
    # the functionals it keeps; each answer is that of a fresh module
    cls, lw, chi_square, requests = case
    mod = cls(lw, chi_square=chi_square)
    for _ in range(2):
        for weight, epsilon, lam in requests:
            gm = gram(mod, weight, epsilon, lam, check_adjoint=False)
            fresh = gram(cls(lw, chi_square=chi_square), weight, epsilon,
                         lam, check_adjoint=False)
            assert gm == fresh, (weight, epsilon, lam)
            _assert_gram_pair_agrees(mod, gm, epsilon, lam)


def test_gram_epsilon_lambda_sign_pattern():
    # flipping epsilon/lambda rescales the pairing by the sign carried by
    # the left word: (-1)^{eps k + lam a + (eps+lam) e}
    mod = VermaModule(LowestWeight("ssch1", F(3, 4), 1))
    coords = WeightCoords(mod, 2)
    for eps in (0, 1):
        for lam in (0, 1):
            for left in coords.labels:
                (k, l, a), e = left
                sign = (-1) ** (eps * k + lam * a + (eps + lam) * e)
                for right in coords.labels:
                    base = gram_pair(mod, left, right)
                    flipped = gram_pair(mod, left, right, epsilon=eps, lam=lam)
                    assert flipped == (base if sign > 0 else -base)


def test_det_vanishes_iff_singular_below():
    cases = [
        ("ssch1", F(-1, 2), 1, None, 5),
        ("ssch1", F(1, 2), 1, None, 5),
        ("ssch1", 1, 1, None, 5),
        ("ssch1", 3, 0, None, 5),
        ("ssch2", F(3, 2), 1, 0, 4),
        ("ssch2", 3, 0, 1, 3),
    ]
    for kind, d, m, r, deg in cases:
        mod = VermaModule(LowestWeight(kind, d, m, r))
        sing = [rep.weight for rep in find_singular(mod, deg)]
        for w in mod.enumerate_weights(deg):
            gm = gram(mod, w, check_adjoint=False)
            vanish = not gm.det
            below = any(reachable_weight(mod, s, w) for s in sing)
            assert vanish == below, (kind, d, m, r, w)


def _chain(terminal):
    """The spaces of a classify chain, in order: the base module, the
    quotient by each shorter prefix of the terminal's generators, and the
    terminal itself."""
    return [terminal.base] + [FactorModule(terminal.base,
                                           terminal.generators[:n])
                              for n in range(1, len(terminal.generators))] \
        + [terminal]


def test_survivor_lists_are_fresh_filters_along_the_chains():
    # along classify's chains of both kinds, each quotient's lists equal a
    # filter through _survives of a fresh quotient by the same generators
    # (asked in the opposite order), and callers get lists of their own
    shrunk = []
    for lw in (LowestWeight("ssch1", F(1, 2), 1), LowestWeight("ssch1", 1, 0),
               LowestWeight("ssch1", 2, 0),
               LowestWeight("ssch2", 3, 0, -3), LowestWeight("ssch2", 2, 0, 2),
               LowestWeight("ssch2", 1, 0, -1),
               LowestWeight("ssch2", F(5, 2), 0, F(1, 3))):
        chain = _chain(classify(lw, cutoff=6).terminal)
        base = chain[0]
        weights = base.enumerate_weights(6)
        for parent, space in zip(chain, chain[1:]):
            fresh = FactorModule(base, space.generators)
            expected = {w: list(filter(fresh._survives,
                                       base.subspace_basis(w)))
                        for w in reversed(weights)}
            for w in weights:
                basis = space.subspace_basis(w)
                assert basis == expected[w], (lw, w)
                basis.append("edited")
                assert space.subspace_basis(w) == expected[w], (lw, w)
                before = parent.subspace_basis(w)
                assert set(expected[w]) <= set(before), (lw, w)
                shrunk.append(len(expected[w]) < len(before))
            for n in range(5):
                monos = space.enumerate_monomials(n)
                assert monos == list(filter(
                    fresh._survives, base.enumerate_monomials(n))), (lw, n)
                monos.clear()
                assert space.enumerate_monomials(n) == list(filter(
                    fresh._survives, base.enumerate_monomials(n))), (lw, n)
            found = space.enumerate_weights(6)
            assert found == [w for w in weights if expected[w]], lw
            found.clear()
            assert space.enumerate_weights(6) == [
                w for w in weights if expected[w]], lw
    # each step removes monomials from many weights
    assert len(shrunk) > 300 and sum(shrunk) > 100


def test_the_singularity_check_is_the_parents():
    # quotient_by_singular checks ann vec in the quotient it builds; below
    # wt(vec) that quotient's submodule is the parent's, so it raises
    # exactly where the parent space's own act leaves a residual
    passed, raised, steps = [], [], []
    for point in _golden_factor_points():
        chain = _chain(_terminal_and_oracle(point)[0])
        base = chain[0]
        generators = chain[-1].generators
        steps += generators
        for n, space in enumerate(chain):
            # each basis monomial to degree 4, and the chain's own next step
            vectors = [base.basis_vector(mono)
                       for mono in space.enumerate_monomials(4)]
            for vec in vectors + generators[n:n + 1]:
                if any(space.act(ann, vec) for ann in ANNIHILATORS[base.kind]):
                    with pytest.raises(ValueError, match="not singular"):
                        quotient_by_singular(space, vec)
                    raised.append(vec)
                else:
                    fm = quotient_by_singular(space, vec)
                    assert fm.generators == generators[:n] + [vec]
                    passed.append(vec)
    assert len(passed) > 200 and len(raised) > 2000
    assert {id(vec) for vec in steps} <= {id(vec) for vec in passed}
