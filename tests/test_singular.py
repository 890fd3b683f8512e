import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import annihilator_matrix_oracle, closed_form_rows_oracle
from superschrod.quotient import classify, gram
from superschrod.scalars import QI, QI_ZERO
from superschrod.singular import (ANNIHILATORS, SingularVectorReport,
                                  WeightCoords, _annihilator_matrix,
                                  bareiss_echelon,
                                  binomial_coefficients, check_recurrences,
                                  closed_form_n1, closed_form_n2,
                                  closed_form_n2_extra, determinant,
                                  find_singular, in_span, nullspace, rank)
from superschrod.verma import LowestWeight, VermaModule


# -- exact linear algebra -----------------------------------------------------


def _qi_matrix(rows):
    return [[F(x) for x in row] for row in rows]


def _cleared(rows):
    """Each rational row times the lcm of its denominators: int rows with
    the same row space, which is what ``nullspace`` takes."""
    out = []
    for row in rows:
        lcm = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (lcm // v.denominator) for v in row])
    return out


def test_nullspace_known_kernel():
    m = _qi_matrix([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(_cleared(m), 3)
    assert len(basis) == 2
    for vec in basis:
        for row in m:
            acc = QI_ZERO
            for a, b in zip(row, vec):
                acc = acc + a * b
            assert not acc


def test_nullspace_trivial():
    m = _qi_matrix([[1, 0], [0, 1]])
    assert nullspace(_cleared(m), 2) == []
    assert rank(m) == 2


def cofactor_det(m):
    n = len(m)
    if n == 0:
        return F(1)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(99)

    def rand_entry():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    for n in range(1, 7):
        for trial in range(6):
            m = [[rand_entry() for _ in range(n)] for _ in range(n)]
            if trial == 1:
                # a zero leading column entry forces a row swap
                m[0][0] = F(0)
            elif trial == 2 and n > 1:
                # the last row is a combination of the first ones: singular
                k = rand_entry()
                m[-1] = [k * a + (b if n > 2 else 0)
                         for a, b in zip(m[0], m[1])]
            elif trial == 3:
                # a zero column: singular, found before the last step
                col = rng.randrange(n)
                for row in m:
                    row[col] = F(0)
            assert determinant(m) == cofactor_det(m)
            assert isinstance(determinant(m), F)
    assert determinant([]) == 1
    with pytest.raises(TypeError):
        determinant([[QI(1, 1)]])
    with pytest.raises(TypeError):
        determinant([[F(1), F(0)], [F(2), QI(F(1, 2), -1)]])


def test_int_row_determinant_matches_cofactor_expansion():
    # int rows, each the matrix row times a nonzero factor (negative ones
    # included), with the product of the factors as ``scale``
    rng = random.Random(7)
    for n in range(0, 6):
        for trial in range(8):
            factors = [rng.choice((-6, -1, 1, 2, 9, 36)) for _ in range(n)]
            ints = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if trial == 1 and n > 1:
                ints[-1] = [2 * a for a in ints[0]]
            matrix = [[F(v, f) for v in row] for row, f in zip(ints, factors)]
            scale = 1
            for f in factors:
                scale *= f
            det = determinant(ints, scale=scale)
            assert det == cofactor_det(matrix) == determinant(matrix)
            assert isinstance(det, F)
    # the Gram form takes its determinant from its int rows
    for kind, d, m, r, weights in (("ssch1", F(1, 2), 1, None, (1, 2)),
                                   ("ssch1", F(-4, 3), F(2, 3), None, (2, 3)),
                                   ("ssch2", F(5, 2), 1, F(-19, 7),
                                    ((1, 0), (1, 1), (2, 0)))):
        mod = VermaModule(LowestWeight(kind, d, m, r))
        for weight in weights:
            for epsilon, lam in ((0, 0), (1, 1)):
                gm = gram(mod, weight, epsilon, lam)
                assert gm.det == cofactor_det(gm.matrix), (kind, weight)


def test_bareiss_stays_integral():
    m = _qi_matrix([[2, 4, 1], [3, 1, 5], [7, 2, 2]])
    ech, pivots = bareiss_echelon(m)
    for row in ech:
        for entry in row:
            assert entry.denominator == 1
    assert len(pivots) == 3


_ENTRY = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def _rational_matrices(draw):
    """Up to 7x7 rational matrices with forced dependent rows and zero
    columns."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    row = st.lists(_ENTRY, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    combos = st.tuples(st.integers(0, 6), st.integers(0, 6),
                       st.integers(0, 6), _ENTRY, _ENTRY)
    for i, j, k, a, b in draw(st.lists(combos, max_size=3)):
        if nrows > 1:
            i = 1 + i % (nrows - 1)
            rows[i] = [a * x + b * y
                       for x, y in zip(rows[j % i], rows[k % i])]
    for col in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for r in rows:
            r[col] = F(0)
    return rows


def _gauss_jordan(rows):
    """Reference (rank, determinant) by plain Fraction Gauss-Jordan
    elimination; the determinant is meaningful for square input only."""
    m = [list(r) for r in rows]
    ncols = len(m[0])
    r = 0
    det = F(1)
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            det = F(0)
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            det = -det
        p = m[r][col]
        det *= p
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r, det


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_rational_matrices())
def test_elimination_matches_gauss_jordan(rows):
    ncols = len(rows[0])
    ref_rank, _ = _gauss_jordan(rows)
    assert rank(rows) == ref_rank
    echelon, pivots = bareiss_echelon(rows)
    assert len(pivots) == ref_rank
    assert all(type(entry) is int for row in echelon for entry in row)
    for row, col in zip(echelon, pivots):
        assert row[col] and not any(row[:col])
    kernel = nullspace(_cleared(rows), ncols)
    assert len(kernel) == ncols - ref_rank
    for vec in kernel:
        for row in rows:
            assert not sum(a * b for a, b in zip(row, vec))
    if kernel:
        assert _gauss_jordan(kernel)[0] == len(kernel)
    n = min(len(rows), ncols)
    square = [row[:n] for row in rows[:n]]
    _, ref_det = _gauss_jordan(square)
    assert determinant(square) == ref_det


# -- N=1 closed forms and search ---------------------------------------------


def test_closed_form_n1_p0():
    # G v0 - 2 chi S v0
    mod = VermaModule(LowestWeight("ssch1", F(-1, 2), 1))
    vec = closed_form_n1(mod, 0)
    assert vec.terms == {(1, 0, 0): mod.ring.one,
                         (0, 0, 1): mod.ring.scalar(QI_ZERO, QI(-2))}


def test_closed_form_n1_p1_expansion():
    # (G^2-2K)(G-2chi S) v0 = v_{3,0} - 2chi nu_{2,0} - 2 v_{1,1} + 4chi nu_{0,1}
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    vec = closed_form_n1(mod, 1)
    ring = mod.ring
    assert vec.terms == {
        (3, 0, 0): ring.one,
        (2, 0, 1): ring.scalar(QI_ZERO, QI(-2)),
        (1, 1, 0): ring.scalar(QI(-2)),
        (0, 1, 1): ring.scalar(QI_ZERO, QI(4)),
    }
    for ann in ANNIHILATORS["ssch1"]:
        assert not mod.act(ann, vec)


def test_closed_form_n1_parameter_mismatch():
    mod = VermaModule(LowestWeight("ssch1", 0, 1))
    with pytest.raises(ValueError):
        closed_form_n1(mod, 1)
    mod0 = VermaModule(LowestWeight("ssch1", 0, 0))
    with pytest.raises(ValueError):
        closed_form_n1(mod0, 0)
    assert closed_form_n1(mod0, 2).terms == {(2, 0, 0): mod0.ring.one}


@pytest.mark.parametrize("p", [0, 1, 2])
def test_find_singular_massive_n1(p):
    mod = VermaModule(LowestWeight("ssch1", F(2 * p - 1, 2), 1))
    reports = find_singular(mod, 2 * p + 2)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.weight == 2 * p + 1
    assert rep.kernel_dim == 1
    assert rep.matched == "prop2-massive"
    assert rep.vectors[0] == closed_form_n1(mod, p).normalized()
    assert rep.proportionality == "1"


@pytest.mark.parametrize("d", [0, F(1, 4), 1, F(7, 3)])
def test_find_singular_massive_n1_negative(d):
    mod = VermaModule(LowestWeight("ssch1", d, 1))
    assert find_singular(mod, 6) == []


def test_find_singular_massless_n1():
    mod = VermaModule(LowestWeight("ssch1", F(7, 3), 0))
    reports = {rep.weight: rep for rep in find_singular(mod, 6)}
    for p in range(1, 7):
        assert p in reports
        rep = reports[p]
        assert rep.matched == "prop2-massless"
        assert in_span(mod, p, rep.vectors, mod.basis_vector((p, 0, 0)))


def test_massless_boundary_vector_n1():
    # at integer d the massless module has the extra singular vector
    # G^d S v0 at degree d+1 (the closed-form list covers only G^p v0)
    mod = VermaModule(LowestWeight("ssch1", 3, 0))
    reports = {rep.weight: rep for rep in find_singular(mod, 5)}
    rep = reports[4]
    assert rep.kernel_dim == 2
    assert in_span(mod, 4, rep.vectors, mod.basis_vector((4, 0, 0)))
    assert in_span(mod, 4, rep.vectors, mod.basis_vector((3, 0, 1)))
    for ann in ANNIHILATORS["ssch1"]:
        assert not mod.act(ann, mod.basis_vector((3, 0, 1)))


# -- N=2 closed forms and search ---------------------------------------------


def test_closed_form_n2_gamma_coefficient():
    # gamma = (d+r+1)/(2d+1) = (5/2)/4 = 5/8 at d=3/2, r=0; it multiplies
    # G^2 v0 inside u0 and survives as the top G^4 coefficient at p=1
    mod = VermaModule(LowestWeight("ssch2", F(3, 2), 1, 0))
    vec = closed_form_n2(mod, 1)
    assert vec.terms[(4, 0, 0, 0, 0)] == mod.ring.scalar(QI(F(5, 8)))
    mod0 = VermaModule(LowestWeight("ssch2", F(1, 2), 1, F(1, 4)))
    u0 = closed_form_n2(mod0, 0)
    gamma = (mod0.lw.d + mod0.lw.r + 1) / (2 * mod0.lw.d + 1)
    assert u0.terms[(2, 0, 0, 0, 0)] == mod0.ring.scalar(QI(gamma))


@pytest.mark.parametrize("p,r", [(0, F(1, 3)), (1, 0), (1, 1), (2, F(-3, 2))])
def test_closed_form_n2_is_singular(p, r):
    mod = VermaModule(LowestWeight("ssch2", F(2 * p + 1, 2), 1, r))
    vec = closed_form_n2(mod, p)
    for ann in ANNIHILATORS["ssch2"]:
        assert not mod.act(ann, vec), (p, r, ann)


@pytest.mark.parametrize("p,r", [(1, 0), (1, 1), (2, F(-3, 2))])
def test_find_singular_massive_n2(p, r):
    mod = VermaModule(LowestWeight("ssch2", F(2 * p + 1, 2), 1, r))
    reports = find_singular(mod, 2 * p + 2)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.weight == (2 * p + 2, 0)
    assert rep.kernel_dim == 1
    assert rep.matched == "prop4-massive"
    assert rep.vectors[0] == closed_form_n2(mod, p).normalized()


def test_massive_n2_allows_p_zero():
    # d = 1/2 carries the weight-(2,0) singular vector u0 itself
    mod = VermaModule(LowestWeight("ssch2", F(1, 2), 1, F(1, 3)))
    reports = find_singular(mod, 3)
    assert [rep.weight for rep in reports] == [(2, 0)]
    assert reports[0].matched == "prop4-massive"


def test_s_minus_vacuum_singular_iff_r_equals_d():
    # {Q+,S-} = -D-R makes S- v0 singular exactly on the line r = d
    for m in (0, 1):
        mod = VermaModule(LowestWeight("ssch2", F(3, 4), m, F(3, 4)))
        reports = {rep.weight: rep for rep in find_singular(mod, 1)}
        assert (1, -1) in reports
        assert reports[(1, -1)].vectors[0] == \
            mod.basis_vector((0, 0, 0, 1, 0))
        mod2 = VermaModule(LowestWeight("ssch2", F(3, 4), m, F(1, 4)))
        assert all(rep.weight != (1, -1) for rep in find_singular(mod2, 1))


def test_in_span_is_over_the_chi_ring():
    # massive ssch1 at d = 1/2: one singular line over Q[chi] at weight 3,
    # reported by one generator
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    rep = {r.weight: r for r in find_singular(mod, 3)}[3]
    assert (rep.kernel_dim, rep.qi_dim, len(rep.vectors)) == (1, 2, 1)
    v = rep.vectors[0]
    chi = mod.ring.chi
    assert in_span(mod, 3, rep.vectors, v.scale(2))
    assert in_span(mod, 3, rep.vectors, v.scale(chi))
    assert in_span(mod, 3, rep.vectors, v.scale(chi) + v.scale(F(1, 3)))
    for mono in mod.subspace_basis(3):
        assert not in_span(mod, 3, rep.vectors, mod.basis_vector(mono))


def test_find_singular_massless_n2():
    mod = VermaModule(LowestWeight("ssch2", 3, 0, 1))
    reports = {rep.weight: rep for rep in find_singular(mod, 4)}
    # G^p X+ v0 at every weight (p, 1)
    for p in range(0, 5):
        rep = reports[(p, 1)]
        assert rep.matched == "prop4-massless"
        assert in_span(mod, (p, 1), rep.vectors,
                       mod.basis_vector((p, 0, 0, 0, 1)))
    # extra family G^p S- X+ v0 exactly when r = d - p - 1 (p = 1 here)
    rep = reports[(2, 0)]
    assert rep.matched == "prop4-massless-extra"
    assert rep.vectors[0] == closed_form_n2_extra(mod, 1).normalized()
    # r != d - p - 1: the plain extra monomial is not singular
    assert not in_span(mod, (3, 0), reports[(3, 0)].vectors,
                       mod.basis_vector((2, 0, 0, 1, 1)))


def test_massive_n2_gamma_zero_line():
    # r = -d-1 zeroes the (d+r+1)/(2d+1) mix, so the closed form loses its
    # G^{2p+2} head; it stays singular, and the line additionally carries
    # (G X+ - m S+) v0 at weight (1,1)
    mod = VermaModule(LowestWeight("ssch2", F(3, 2), 1, F(-5, 2)))
    vec = closed_form_n2(mod, 1)
    assert vec.leading_monomial() == (3, 0, 0, 1, 1)
    for ann in ANNIHILATORS["ssch2"]:
        assert not mod.act(ann, vec)
    reports = {rep.weight: rep for rep in find_singular(mod, 4)}
    assert reports[(4, 0)].matched == "prop4-massive"
    extra = mod.basis_vector((1, 0, 0, 0, 1)) \
        - mod.basis_vector((0, 0, 1, 0, 0)).scale(QI(mod.lw.m))
    assert reports[(1, 1)].vectors[0] == extra.normalized()
    # away from the line the weight-(1,1) kernel is empty
    mod2 = VermaModule(LowestWeight("ssch2", F(3, 2), 1, 0))
    assert all(rep.weight != (1, 1) for rep in find_singular(mod2, 2))


def test_massless_n2_mixed_family():
    # the weight-(p,0) kernels hold (G^p + c G^{p-1} S- X+) v0: the search
    # finds them and re-verifies annihilation even though no closed-form
    # label applies
    mod = VermaModule(LowestWeight("ssch2", 3, 0, 1))
    reports = {rep.weight: rep for rep in find_singular(mod, 3)}
    rep = reports[(1, 0)]
    assert rep.kernel_dim == 1 and rep.matched == "none"
    vec = rep.vectors[0]
    assert set(vec.terms) == {(1, 0, 0, 0, 0), (0, 0, 0, 1, 1)}


# -- kernel exactness and the chi-doubled coordinates -------------------------


def test_kernel_exactness_by_matrix_reapplication():
    mod = VermaModule(LowestWeight("ssch1", F(3, 2), 1))
    reports = find_singular(mod, 6)
    assert len(reports) == 1
    rep = reports[0]
    # annihilators re-applied through the closed-form N=1 table, which is
    # independent of the engine rows the kernel matrices are assembled
    # from: g ((a + b chi) w) = a (g w) + (-1)^{|g|} b chi (g w)
    table = closed_form_rows_oracle(mod)
    chi_square = mod.ring.chi_square
    for vec in rep.vectors:
        for ann in ANNIHILATORS["ssch1"]:
            sign = -1 if mod.table.parity(ann) else 1
            even, chi = {}, {}
            for mono, coeff in vec.terms.items():
                a, b = coeff.even, sign * coeff.odd
                for mn, e, c in table(ann, mono):
                    even[mn] = even.get(mn, 0) + a * e + b * c * chi_square
                    chi[mn] = chi.get(mn, 0) + a * c + b * e
            assert not any(even.values()) and not any(chi.values()), ann


def test_chi_doubling_roundtrip():
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    coords = WeightCoords(mod, 2)
    vec = mod.basis_vector((2, 0, 0), mod.ring.scalar(QI(2), QI(F(1, 3)))) \
        + mod.basis_vector((0, 1, 0), mod.ring.chi)
    assert coords.from_coords(coords.to_coords(vec)) == vec
    assert coords.dim == 2 * len(mod.subspace_basis(2))


# -- recurrences ---------------------------------------------------------------


def test_binomial_coefficients_solve_rec3():
    m = F(1)
    for p in (1, 2, 3):
        a = binomial_coefficients(p, m)
        n = 2 * p
        for l in range(0, p):
            assert (l + 1) * a[l + 1] + (n - 2 * l) * m * a[l] == 0


def test_recurrences_pass_for_solved_coefficients():
    lw = LowestWeight("ssch2", F(3, 2), 1, 0)
    report = check_recurrences(1, lw)
    assert report.ok, (report.passed, report.constraint_failures)
    lw2 = LowestWeight("ssch2", F(5, 2), 1, F(-3, 2))
    assert check_recurrences(2, lw2).ok


def test_recurrences_catch_perturbation():
    lw = LowestWeight("ssch2", F(3, 2), 1, 0)
    gamma = (lw.d + lw.r + 1) / (2 * lw.d + 1)
    bad = check_recurrences(1, lw, delta=2 * lw.m * (1 - gamma) + 1)
    assert not bad.ok
    assert not all(bad.passed.values()) or bad.constraint_failures


def test_report_json_roundtrip():
    mod = VermaModule(LowestWeight("ssch1", F(-1, 2), 1))
    rep = find_singular(mod, 2)[0]
    data = rep.to_json_dict()
    again = SingularVectorReport.from_json_dict(data)
    assert again.to_json_dict() == data


def _annihilator_spaces():
    for kind, d, m, r, chi_square in (
            ("ssch1", F(1, 3), 1, None, None),
            ("ssch1", F(3, 2), F(3, 2), None, F(-2, 3)),
            ("ssch1", 2, 0, None, None),
            ("ssch2", F(3, 2), 1, F(1, 3), None),
            ("ssch2", F(4, 3), 0, F(-2, 5), None)):
        yield VermaModule(LowestWeight(kind, d, m, r), chi_square=chi_square)
    # chi-doubled factor modules: the massive N=1 quotients V^d/I^d
    for d in (F(1, 2), F(3, 2)):
        terminal = classify(LowestWeight("ssch1", d, 1)).terminal
        assert terminal.uses_chi and terminal.generators
        yield terminal
    yield classify(LowestWeight("ssch2", 2, 0, -2)).terminal


def test_annihilator_matrix_matches_the_act_loop():
    # int blocks filled from space.int_row (chi labels by the Koszul twist)
    # against acting on each basis vector, chi-dressed ones included: the
    # blocks are the oracle's Fraction matrix times their scale, exactly,
    # and that scale is the module's D on a Verma module
    for space in _annihilator_spaces():
        module = space if isinstance(space, VermaModule) else space.base
        anns = ANNIHILATORS[module.kind]
        for weight in space.enumerate_weights(5):
            coords = WeightCoords(space, weight)
            rows, scale = _annihilator_matrix(space, coords, anns)
            if space is module:
                assert scale == module.scale
            assert all(type(v) is int for row in rows for v in row)
            oracle = annihilator_matrix_oracle(space, coords, anns)
            assert rows == [[v * scale for v in row] for row in oracle], \
                weight
