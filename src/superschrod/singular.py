"""Exact location of singular vectors.

Each homogeneous weight subspace is searched for the joint kernel of the
lowering generators that annihilate the lowest weight vector (Q, P for the
N=1 module; Q+, Q-, P, X- for N=2).  Coefficients carrying the odd scalar
chi are handled by doubling the linear system: the even and chi components
of every coefficient become separate rational coordinates.  The annihilator
blocks are filled with Python ints from the module's ``int_row`` (the
matrix times one scale, which leaves its row space alone), and the kernel
is back-substituted, as a ``Fraction`` basis, from an ``Echelon``.  That
class is the package's one routine that reduces rows: int rows go in one
at a time, each cleared against the rows before it and divided by its
content.  Ranks, span tests, kernels, determinants and the factor modules'
submodules (``quotient``) all come from it.  Kernel bases are then
regrouped into generators over the chi-extended ring Q[chi] so that one
reported vector corresponds to one singular line.  The JSON key ``qi_dim`` keeps its name
and reports the dimension of the doubled rational kernel.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from .scalars import parse_gs
from .verma import LowestWeight, ModuleVector, VermaModule

ANNIHILATORS = {"ssch1": ("Q", "P"), "ssch2": ("Q+", "Q-", "P", "X-")}

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals: one integer echelon


def _integer_row(row):
    """An int/Fraction row times the lcm of its denominators, as Python
    ints, and that lcm; other entries raise TypeError."""
    try:
        lcm = math.lcm(*(entry.denominator for entry in row))
    except AttributeError:
        raise TypeError("rational (int or Fraction) entries expected") \
            from None
    return [entry.numerator * (lcm // entry.denominator) for entry in row], lcm


class Echelon:
    """The row space of dense int vectors over columns 0..ncols-1, the one
    routine that reduces rows.  ``pivots`` is sorted; ``rows[p]`` is a
    sparse int row {column: value} whose first column is p, divided by its
    content with a positive entry at p, and zero at the pivots of the rows
    added before it.  ``units`` are pivot columns whose rows start as unit
    vectors.  ``inversions`` counts the pairs of rows added in the opposite
    order to their pivots."""

    def __init__(self, ncols, units=()):
        self.ncols = ncols
        self.pivots = sorted(units)
        self.rows = {p: {p: 1} for p in self.pivots}
        self.inversions = 0

    def full(self) -> bool:
        return len(self.pivots) == self.ncols

    def clear(self, v):
        """(f, v') for an int vector v: v' = f v less a combination of the
        rows is zero at every pivot, so v' / f is v modulo the rows."""
        factor, v = 1, list(v)
        for p in self.pivots:
            if v[p]:
                row = self.rows[p]
                g = math.gcd(row[p], v[p])
                a, b = row[p] // g, v[p] // g
                if a != 1:
                    v = [a * x for x in v]
                    factor *= a
                for col, x in row.items():
                    v[col] -= b * x
        return factor, v

    def add(self, v):
        """``clear`` v, and insert v' at its first nonzero column unless it
        is zero; returns (f, v') as ``clear``."""
        factor, v = self.clear(v)
        p = next((col for col, x in enumerate(v) if x), None)
        if p is not None:
            g = math.gcd(*v)
            g = g if v[p] > 0 else -g
            self.rows[p] = {col: x // g for col, x in enumerate(v) if x}
            i = bisect(self.pivots, p)
            self.inversions += len(self.pivots) - i
            self.pivots.insert(i, p)
        return factor, v


def _span(ncols, rows) -> Echelon:
    """The Echelon of int/Fraction rows."""
    span = Echelon(ncols)
    for row in rows:
        span.add(_integer_row(row)[0])
    return span


def _in_span(span: Echelon, row) -> bool:
    return not any(span.clear(_integer_row(row)[0])[1])


def bareiss_echelon(rows, ints=False):
    """Echelon rows of int/Fraction rows: (dense int rows, sorted pivot
    columns), from ``Echelon``.  Each input row is cleared of denominators
    once; with ``ints`` the rows are Python ints already.  The input lists
    are not modified.  The name, from the Bareiss elimination that this
    replaced, is what the benchmark's tracer wraps."""
    ncols = len(rows[0]) if rows else 0
    span = Echelon(ncols)
    for row in rows:
        if span.full():
            break
        span.add(row if ints else _integer_row(row)[0])
    dense = []
    for p in span.pivots:
        row = [0] * ncols
        for col, x in span.rows[p].items():
            row[col] = x
        dense.append(row)
    return dense, span.pivots


def nullspace(rows, ncols):
    """Deterministic kernel basis of a matrix given as Python int rows, as
    Fraction vectors: each free column is 1 in one vector and 0 in the
    others, the pivot entries back-substituted from the echelon rows.  The
    basis depends only on the row space, so a rational matrix with its rows
    scaled to ints by any nonzero factors has the same one."""
    ech, pivots = bareiss_echelon(rows, ints=True)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for row, pc in zip(reversed(ech), reversed(pivots)):
            acc = sum(row[c] * vec[c] for c in range(pc + 1, ncols)
                      if vec[c] and row[c])
            if acc:
                vec[pc] = -acc / row[pc]
        basis.append(vec)
    return basis


def rank(rows):
    return len(bareiss_echelon(rows)[1])


def determinant(rows, scale=None):
    """Exact determinant of a square matrix of int/Fraction entries.

    The rows are cleared of denominators (their lcms multiply to
    ``scale``), or with ``scale`` are Python ints already, the matrix's
    rows each multiplied by a nonzero factor whose product is ``scale``.
    Added to an ``Echelon`` in turn, row i clears to f_i row_i less earlier
    rows, whose leading entry x_i is its content times its stored lead, so
    the determinant is sign * prod x_i / (prod f_i * scale), the sign that
    of the permutation sorting the rows by pivot.  It is 0 as soon as a row
    clears to zero.  The empty matrix has determinant 1; entries other than
    int or Fraction raise TypeError.
    """
    if scale is None:
        cleared = [_integer_row(row) for row in rows]
        rows = [row for row, _ in cleared]
        scale = math.prod(lcm for _, lcm in cleared)
    span = Echelon(len(rows))
    num = 1
    for row in rows:
        factor, v = span.add(row)
        lead = next((x for x in v if x), 0)
        if not lead:
            return _ZERO
        num *= lead
        scale *= factor
    return Fraction(-num if span.inversions % 2 else num, scale)


# ---------------------------------------------------------------------------
# coordinates on a weight subspace (chi-part doubling)


class WeightCoords:
    """Rational (Fraction) coordinates on one weight subspace.

    When the module's coefficients can carry chi, each monomial contributes
    two coordinates (even part, chi part); otherwise one.  ``weight_coords``
    keeps one per (space, weight); the module is held weakly, so that cache
    makes no reference cycle.
    """

    def __init__(self, space, weight):
        self._module = weakref.ref(_space_module(space))
        self.weight = weight
        self.doubled = space.uses_chi
        slots = (0, 1) if self.doubled else (0,)
        self.labels = tuple((mono, e) for mono in space.subspace_basis(weight)
                            for e in slots)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.dim = len(self.labels)

    @property
    def module(self) -> VermaModule:
        return self._module()

    def to_coords(self, vec: ModuleVector):
        out = [_ZERO] * self.dim
        for mono, coeff in vec.terms.items():
            idx = self.index.get((mono, 0))
            if idx is None:
                raise ValueError("vector leaves the weight subspace")
            out[idx] = coeff.even
            if self.doubled:
                out[idx + 1] = coeff.odd
            elif coeff.odd:
                raise ValueError("unexpected chi component")
        return out

    def from_coords(self, coords) -> ModuleVector:
        module = self.module
        vec = ModuleVector(module)
        for (mono, e), value in zip(self.labels, coords):
            if not value:
                continue
            coeff = module.ring.scalar(value) if e == 0 else \
                module.ring.scalar(0, value)
            vec.add_term(mono, coeff)
        return vec

    def with_chi_multiples(self, rows):
        """The coordinate rows followed, on a doubled subspace, by their chi
        multiples: a rational spanning set of their span over Q[chi]."""
        rows = list(rows)
        if not self.doubled:
            return rows
        chi_sq = self.module.ring.chi_square
        return rows + [[v for even, odd in zip(row[0::2], row[1::2])
                        for v in (odd * chi_sq, even)] for row in rows]


def weight_coords(space, weight) -> WeightCoords:
    """The space's coordinates at a weight, built once per (space, weight)
    and kept in the space's ``_coords``."""
    coords = space._coords.get(weight)
    if coords is None:
        coords = space._coords[weight] = WeightCoords(space, weight)
    return coords


@dataclass
class SingularVectorReport:
    kind: str
    d: Fraction
    m: Fraction
    r: Optional[Fraction]
    weight: object
    kernel_dim: int
    qi_dim: int
    vectors: List[ModuleVector]
    matched: str = "none"
    contains: tuple = ()
    proportionality: Optional[str] = None
    cutoff: int = 0
    annihilators_checked: bool = False

    def to_json_dict(self) -> dict:
        weight = list(self.weight) if isinstance(self.weight, tuple) else self.weight
        return {
            "algebra": self.kind,
            "d": str(self.d),
            "m": str(self.m),
            "r": None if self.r is None else str(self.r),
            "weight": weight,
            "kernel_dim": self.kernel_dim,
            "qi_dim": self.qi_dim,
            "vectors": [v.render() for v in self.vectors],
            "matched": self.matched,
            "contains": list(self.contains),
            "proportionality": self.proportionality,
            "cutoff": self.cutoff,
            "annihilators_checked": self.annihilators_checked,
        }

    @staticmethod
    def from_json_dict(data) -> "SingularVectorReport":
        r = data.get("r")
        lw = LowestWeight(data["algebra"], Fraction(data["d"]), Fraction(data["m"]),
                          None if r is None else Fraction(r))
        module = VermaModule(lw)
        vectors = []
        for vec in data["vectors"]:
            mv = ModuleVector(module)
            for mono_text, coeff_text in vec.items():
                mv.add_term(module.parse_monomial(mono_text),
                            parse_gs(module.ring, coeff_text))
            vectors.append(mv)
        weight = data["weight"]
        if isinstance(weight, list):
            weight = tuple(weight)
        return SingularVectorReport(
            kind=data["algebra"], d=lw.d, m=lw.m, r=lw.r, weight=weight,
            kernel_dim=data["kernel_dim"], qi_dim=data["qi_dim"],
            vectors=vectors, matched=data["matched"],
            contains=tuple(data["contains"]),
            proportionality=data["proportionality"], cutoff=data["cutoff"],
            annihilators_checked=data["annihilators_checked"],
        )

    def __eq__(self, other):
        if not isinstance(other, SingularVectorReport):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()


# ---------------------------------------------------------------------------
# the kernel search


def _space_module(space) -> VermaModule:
    return space if isinstance(space, VermaModule) else space.base


def find_singular(space, max_degree: int):
    """Joint annihilator kernels on every weight subspace up to max_degree.

    ``space`` is a VermaModule or a FactorModule (anything exposing the
    subspace/row/act protocol).  Returns the nonempty-kernel reports; on a
    VermaModule each is matched against the closed-form families.
    """
    module = _space_module(space)
    annihilators = ANNIHILATORS[module.kind]
    reports = []
    for weight in space.enumerate_weights(max_degree):
        coords = weight_coords(space, weight)
        if coords.dim == 0:
            continue
        rows, _ = _annihilator_matrix(space, coords, annihilators)
        kernel = nullspace(rows, coords.dim)
        if not kernel:
            continue
        generators = _ring_generators(coords, kernel)
        vectors = []
        # independent re-check of the integer elimination: annihilate each
        # normalised vector again, through GradedScalar vectors
        for gen_coords in generators:
            vec = coords.from_coords(gen_coords).normalized()
            for ann in annihilators:
                residual = space.act(ann, vec)
                if residual:
                    raise AssertionError(
                        "kernel vector not annihilated by %s at weight %s"
                        % (ann, weight))
            vectors.append(vec)
        report = SingularVectorReport(
            kind=module.kind, d=module.lw.d, m=module.lw.m, r=module.lw.r,
            weight=weight, kernel_dim=len(generators), qi_dim=len(kernel),
            vectors=vectors, cutoff=max_degree, annihilators_checked=True,
        )
        if isinstance(space, VermaModule):
            _compare_closed_forms(space, report)
        reports.append(report)
    return reports


def _annihilator_matrix(space, coords, annihilators):
    """The stacked annihilator blocks as int rows, and their scale: the
    blocks are the matrix times it.  Column j is filled from the
    ``space.int_row`` of label j; a column whose row has another scale than
    the lcm of them all (never on a VermaModule, whose rows share its
    ``scale``) is multiplied up to it."""
    module = _space_module(space)
    blocks = []
    for ann in annihilators:
        target = weight_coords(space, module.shift_weight(coords.weight, ann))
        if target.dim:
            blocks.append((target, [space.int_row(ann, label)
                                    for label in coords.labels]))
    scale = math.lcm(*(col_scale for _, columns in blocks
                       for col_scale, _ in columns))
    rows = []
    for target, columns in blocks:
        block = [[0] * coords.dim for _ in range(target.dim)]
        for col, (col_scale, entries) in enumerate(columns):
            factor = scale // col_scale
            for key, value in entries:
                idx = target.index.get(key)
                if idx is None:
                    raise ValueError("image outside the target coordinates")
                block[idx][col] = value * factor
        rows.extend(block)
    return rows, scale


def _ring_generators(coords, kernel):
    """Minimal generating set of the kernel over the chi-extended ring."""
    if not coords.doubled:
        return kernel
    # The kernel and the span of the selected {v, chi v} are both closed
    # under chi: a kernel vector lies in the span exactly when adding it with
    # its chi multiple keeps the rank, and once the rank reaches the kernel
    # dimension every remaining vector does.
    selected = []
    span = Echelon(coords.dim)
    for vec in kernel:
        if len(span.pivots) == len(kernel):
            break
        before = len(span.pivots)
        for row in coords.with_chi_multiples([vec]):
            span.add(_integer_row(row)[0])
        if len(span.pivots) > before:
            selected.append(vec)
    return selected


def in_span(space, weight, vectors, candidate) -> bool:
    """Exact span membership test inside one weight subspace.

    The span is over the module's scalar ring: on chi-carrying modules the
    chi multiple of each vector joins it, as for the generators that
    ``find_singular`` reports one per line over Q[chi].
    """
    coords = weight_coords(space, weight)
    span = _span(coords.dim, coords.with_chi_multiples(
        coords.to_coords(v) for v in vectors))
    return _in_span(span, coords.to_coords(candidate))


# ---------------------------------------------------------------------------
# closed forms


def closed_form_n1(module: VermaModule, p: int) -> ModuleVector:
    """Massive: (G^2-2mK)^p (G-2chi S) v0 at d = p-1/2; massless: G^p v0."""
    if module.kind != "ssch1":
        raise ValueError("closed_form_n1 needs an ssch1 module")
    lw = module.lw
    if lw.m:
        if p < 0:
            raise ValueError("massive N=1 closed form needs p >= 0")
        if lw.d != Fraction(2 * p - 1, 2):
            raise ValueError("massive N=1 closed form needs d = p - 1/2")
        vec = module.act("G", module.vacuum_vector())
        svec = module.act("S", module.vacuum_vector())
        vec = vec - svec.scale(module.ring.chi).scale(2)
        return _apply_quadratic(module, vec, p)
    if p < 1:
        raise ValueError("massless N=1 closed form needs p >= 1")
    return module.basis_vector((p, 0, 0))


def closed_form_n2(module: VermaModule, p: int) -> ModuleVector:
    """Massive: (G^2-2mK)^p u0 at d = p+1/2 with the (d+r+1)/(2d+1) mix;
    massless: G^p X+ v0."""
    if module.kind != "ssch2":
        raise ValueError("closed_form_n2 needs an ssch2 module")
    lw = module.lw
    if not lw.m:
        if p < 0:
            raise ValueError("massless N=2 closed form needs p >= 0")
        return module.basis_vector((p, 0, 0, 0, 1))
    if p < 0:
        raise ValueError("massive N=2 closed form needs p >= 0")
    if lw.d != Fraction(2 * p + 1, 2):
        raise ValueError("massive N=2 closed form needs d = p + 1/2")
    gamma = (lw.d + lw.r + 1) / (2 * lw.d + 1)
    u0 = ModuleVector(module, {
        (1, 0, 0, 1, 1): module.ring.one,
        (0, 0, 1, 1, 0): module.coerce_scalar(lw.m),
        (0, 1, 0, 0, 0): module.coerce_scalar(2 * lw.m),
    })
    u0 = u0 + ModuleVector(module, {
        (2, 0, 0, 0, 0): module.coerce_scalar(gamma),
        (0, 1, 0, 0, 0): module.coerce_scalar(-2 * lw.m * gamma),
    })
    return _apply_quadratic(module, u0, p)


def closed_form_n2_extra(module: VermaModule, p: int) -> ModuleVector:
    """Massless extra family G^p S- X+ v0 (singular exactly when
    r = d - p - 1)."""
    if module.kind != "ssch2" or module.lw.m:
        raise ValueError("the extra closed form lives in massless N=2 modules")
    if p < 0:
        raise ValueError("p must be nonnegative")
    return module.basis_vector((p, 0, 0, 1, 1))


def _apply_quadratic(module, vec, power):
    """Apply (G^2 - 2mK)^power."""
    two_m = 2 * module.lw.m
    for _ in range(power):
        gg = module.act("G", module.act("G", vec))
        kk = module.act("K", vec).scale(two_m)
        vec = gg - kk
    return vec


def expected_closed_forms(module: VermaModule, weight):
    """Applicable closed-form families (label, vector) at one weight."""
    lw = module.lw
    out = []
    if module.kind == "ssch1":
        if lw.m:
            p2 = lw.d + Fraction(1, 2)
            if p2.denominator == 1 and p2 >= 0 and weight == 2 * p2 + 1:
                out.append(("prop2-massive", closed_form_n1(module, int(p2))))
        else:
            if isinstance(weight, int) and weight >= 1:
                out.append(("prop2-massless", closed_form_n1(module, weight)))
    else:
        if lw.m:
            p2 = lw.d - Fraction(1, 2)
            if p2.denominator == 1 and p2 >= 0 and weight == (2 * p2 + 2, 0):
                out.append(("prop4-massive", closed_form_n2(module, int(p2))))
        else:
            n1, n2 = weight
            if n2 == 1:
                out.append(("prop4-massless", closed_form_n2(module, n1)))
            if n2 == 0 and n1 >= 1 and lw.r == lw.d - n1:
                out.append(("prop4-massless-extra",
                            closed_form_n2_extra(module, n1 - 1)))
    return out


def _compare_closed_forms(module: VermaModule, report: SingularVectorReport):
    expected = expected_closed_forms(module, report.weight)
    if not expected:
        return
    coords = weight_coords(module, report.weight)
    # the generators and their chi multiples span the doubled kernel
    kernel = _span(coords.dim, coords.with_chi_multiples(
        coords.to_coords(v) for v in report.vectors))
    expected_rows = [coords.to_coords(vec) for _, vec in expected]
    contains = [label for (label, _), row in zip(expected, expected_rows)
                if _in_span(kernel, row)]
    report.contains = tuple(contains)
    exact = (
        len(contains) == len(expected)
        and len(_span(coords.dim, coords.with_chi_multiples(
            expected_rows)).pivots) == report.qi_dim
        and len(expected) == report.kernel_dim
    )
    if exact:
        report.matched = expected[0][0] if len(expected) == 1 else \
            "+".join(label for label, _ in expected)
        if len(expected) == 1 and report.kernel_dim == 1:
            cf = expected[0][1]
            if cf.normalized() == report.vectors[0]:
                report.proportionality = str(cf.terms[cf.leading_monomial()])


# ---------------------------------------------------------------------------
# the recurrence system for the N=2 massive coefficients


@dataclass
class RecurrenceReport:
    passed: dict = field(default_factory=dict)
    constraint_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.passed.values()) and not self.constraint_failures


def binomial_coefficients(p: int, m) -> list:
    """Coefficients a_l of (G^2 - 2mK)^p as a polynomial sum over G^{n-2l}K^l."""
    m = Fraction(m)
    coeffs = [Fraction(1)]
    for l in range(1, p + 1):
        coeffs.append(coeffs[-1] * (-2 * m) * Fraction(p - l + 1, l))
    return coeffs


def check_recurrences(p: int, lw: LowestWeight,
                      delta=None) -> RecurrenceReport:
    """Verify the five recurrences for the degree-(2,0) ansatz coefficients.

    The ansatz vector is (G S- X+ + beta S+ S- + gamma G^2 + delta K) v0
    spread along sum_l a_l G^{n-2l} K^l with n = 2p, binomial a_l and the
    solved values beta = m, gamma = (d+r+1)/(2d+1) and, unless given,
    delta = 2m(1 - gamma).
    """
    if lw.kind != "ssch2" or not lw.m:
        raise ValueError("recurrence check applies to massive N=2 parameters")
    d, r, m = lw.d, lw.r, lw.m
    n = 2 * p
    gamma = (d + r + 1) / (2 * d + 1)
    if delta is None:
        delta = 2 * m * (1 - gamma)
    a = binomial_coefficients(p, m)

    def coeff(l):
        return a[l] if 0 <= l < len(a) else Fraction(0)

    report = RecurrenceReport()
    ok1 = ok2 = ok3 = ok4 = ok5 = True
    for l in range(-1, p + 1):
        k = n - 2 * l
        if (d - r - n + 2 * l + k * gamma) * coeff(l + 1) \
                + (n - 2 * l) * delta * coeff(l):
            ok1 = False
        if (l + 1) * gamma * coeff(l + 1) \
                + ((-d + r + n - 2 * l) * m + (l + 1) * delta) * coeff(l):
            ok2 = False
        if (l + 1) * coeff(l + 1) + (n - 2 * l) * m * coeff(l):
            ok3 = False
        if (l + 1) * gamma * coeff(l + 1) \
                + ((d + r - 2 * l - 1) * m + (l + 1) * delta) * coeff(l):
            ok4 = False
        if (-2 * m + (n - 2 * l) * m * gamma + (l + 2) * delta) * coeff(l + 1) \
                + (n - 2 * l) * m * delta * coeff(l) + (l + 2) * gamma * coeff(l + 2):
            ok5 = False
    report.passed = {"rec1": ok1, "rec2": ok2, "rec3": ok3, "rec4": ok4,
                     "rec5": ok5}
    if d != Fraction(n + 1, 2):
        report.constraint_failures.append("d != (n+1)/2")
    if delta != 2 * m * (1 - gamma):  # the ansatz's alpha is 1
        report.constraint_failures.append("delta != 2m(alpha-gamma)")
    return report
