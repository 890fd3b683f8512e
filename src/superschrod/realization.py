"""Vector-field realizations on polynomial superspace.

Polynomials live in one even time variable t, one even space variable x and
a small set of odd variables: (theta, eta) with eta Clifford for the N=1
algebra, (theta, phi, rho) all Grassmann for N=2.  Differential operators
are sums of (superpolynomial coefficient) x (derivative word); odd
derivatives obey the graded Leibniz rule, realised here by differentiating
monomials directly with the Koszul sign of the variables passed over.
The paper's operators are written once per kind as data, each coefficient
affine in the lowest weight (d, m); ``build_realization`` evaluates them.

``verify_relations`` checks the brackets at one lowest weight (d, m) on the
monomials up to twice the operators' order, which decides them at every
degree.  The paper's realization is certified once per kind for every
(d, m): a bracket residual of ``build_realization(kind, d, m)`` is a
polynomial in (d, m) of bounded degree, so once the point check has passed
at enough points in general position (15 for ssch1, 6 for ssch2) every
residual is the zero polynomial.  A ``RealizationCertificate`` per kind and
``build_realization`` gathers those points from the checks callers run
anyway; once it is complete, a call on the paper's operators at any (d, m)
is answered without a residual pass.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd, lcm, prod

from .scalars import as_fraction, mul_odd_words
from .superalgebra import StructureTable, _shared_table

_ZERO = Fraction(0)


class SuperSpace:
    """Variable configuration: odd generator order and squares."""

    def __init__(self, odd_generators):
        self.names = tuple(name for name, _ in odd_generators)
        self.order = {name: i for i, (name, _) in enumerate(odd_generators)}
        self.squares = {name: as_fraction(sq) for name, sq in odd_generators}
        # clears any product of two canonical words (see verify_relations)
        self.square_den = prod(sq.denominator for sq in self.squares.values())

    @staticmethod
    def for_kind(kind: str, m) -> "SuperSpace":
        m = as_fraction(m)
        if kind == "ssch1":
            # {eta, eta} = -m, so eta^2 = -m/2
            return SuperSpace([("theta", _ZERO), ("eta", -m / 2)])
        if kind == "ssch2":
            return SuperSpace([("theta", _ZERO), ("phi", _ZERO),
                               ("rho", _ZERO)])
        raise ValueError("unknown realization kind %r" % kind)


class SuperPoly:
    """Sparse polynomial: (t exponent, x exponent, odd word) -> Fraction.

    Odd words are canonical (increasing generator order, no repeats).  The
    constructor canonicalises the words it is given through
    ``mul_odd_words``, folding in the reordering sign and a Clifford square
    and dropping a Grassmann square; ``copy``, ``add_term`` and
    ``SuperDiffOp.image`` only ever produce canonical words.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: SuperSpace, terms=None):
        self.space = space
        self.terms = {}
        if terms:
            order, squares = space.order, space.squares
            for (t, x, word), coeff in terms.items():
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError("coefficient %r is not an int or Fraction"
                                    % (coeff,))
                sign, word = mul_odd_words(word, (), order, squares)
                if sign:
                    self.add_term((t, x, word), coeff * sign)

    def copy(self) -> "SuperPoly":
        out = SuperPoly(self.space)
        out.terms = dict(self.terms)
        return out

    def _check(self, other):
        if not isinstance(other, SuperPoly) or other.space is not self.space:
            raise ValueError("superspace mismatch")

    def add_term(self, mono, coeff):
        cur = self.terms.get(mono)
        new = coeff if cur is None else cur + coeff
        if new:
            self.terms[mono] = new
        elif cur is not None:
            del self.terms[mono]

    def __add__(self, other):
        self._check(other)
        out = self.copy()
        for mono, c in other.terms.items():
            out.add_term(mono, c)
        return out

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        out = SuperPoly(self.space)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def scale(self, coeff) -> "SuperPoly":
        coeff = as_fraction(coeff)
        out = SuperPoly(self.space)
        if coeff:
            out.terms = {m: c * coeff for m, c in self.terms.items()}
        return out

    def __mul__(self, other):
        self._check(other)
        out = SuperPoly(self.space)
        order, squares = self.space.order, self.space.squares
        for (t1, x1, w1), c1 in self.terms.items():
            for (t2, x2, w2), c2 in other.terms.items():
                sign, word = mul_odd_words(w1, w2, order, squares)
                if sign:
                    out.add_term((t1 + t2, x1 + x2, word), c1 * c2 * sign)
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.space is other.space and self.terms == other.terms

    def parity(self):
        parities = {len(w) % 2 for (_, _, w) in self.terms}
        if not parities:
            return 0
        return parities.pop() if len(parities) == 1 else None

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms):
            t, x, word = mono
            label = "".join(
                (["t^%d" % t] if t else []) + (["x^%d" % x] if x else [])
                + list(word)
            ) or "1"
            bits.append("(%s)%s" % (self.terms[mono], label))
        return " + ".join(bits)

    __repr__ = __str__


def _exact_int(value) -> int:
    """An int or Fraction that must be an integer, as an int."""
    if value.denominator != 1:
        raise ValueError("scaled value %s is not an integer" % (value,))
    return value.numerator


def poly_mono(space, t=0, x=0, word=(), coeff=1) -> SuperPoly:
    return SuperPoly(space, {(t, x, tuple(word)): as_fraction(coeff)})


@dataclass
class SuperDiffOp:
    """Sum of terms coeff(t,x,odds) * d_t^a d_x^b d_odd...; application is
    derivative word first (rightmost factor first), then coefficient."""

    space: SuperSpace
    terms: list = field(default_factory=list)  # (SuperPoly, dt, dx, odd tuple)

    def denominator(self) -> int:
        """lcm of the denominators of every coefficient of every term."""
        return lcm(*(c.denominator for coeff, _, _, _ in self.terms
                     for c in coeff.terms.values()))

    def int_terms(self, scale) -> list:
        """The terms as (dt, dx, odds, ((t, x, word, n), ...)), each
        coefficient c scaled to the int n = scale * c (ValueError if it is
        not one)."""
        return [(dt, dx, odds, tuple((t, x, w, _exact_int(c * scale))
                                     for (t, x, w), c in coeff.terms.items()))
                for coeff, dt, dx, odds in self.terms]

    def int_image(self, mono, int_terms, products) -> dict:
        """Image of one monomial as ``{monomial: int}`` over the scale of
        ``int_terms`` times ``space.square_den``, zeros dropped.

        Each term's derivative word takes the monomial to a single monomial
        times an integer (or to zero), which its coefficient then multiplies.
        ``products`` memoises each odd-word product (w1, w) as
        (square_den * sign, word); a sign that is not cleared to an int
        raises ValueError."""
        t, x, word = mono
        space = self.space
        out = defaultdict(int)
        for dt, dx, odds, coeffs in int_terms:
            if dt > t or dx > x:
                continue
            w, k = word, 1
            for od in reversed(odds):
                if od not in w:
                    k = 0
                    break
                pos = w.index(od)
                if pos % 2:
                    k = -k
                w = w[:pos] + w[pos + 1:]
            if not k:
                continue
            for i in range(dx):
                k *= x - i
            for i in range(dt):
                k *= t - i
            t0, x0 = t - dt, x - dx
            for t1, x1, w1, n in coeffs:
                hit = products.get((w1, w))
                if hit is None:
                    sign, prod_word = mul_odd_words(w1, w, space.order,
                                                    space.squares)
                    hit = products[(w1, w)] = (
                        _exact_int(sign * space.square_den), prod_word)
                s, prod_word = hit
                if s:
                    out[(t1 + t0, x1 + x0, prod_word)] += n * k * s
        return {mn: v for mn, v in out.items() if v}

    def image(self, mono) -> dict:
        """Image of one monomial as ``{monomial: Fraction}``, zeros
        dropped: ``int_image`` over the operator's own denominator."""
        scale = self.denominator()
        den = scale * self.space.square_den
        return {mn: Fraction(v, den) for mn, v in
                self.int_image(mono, self.int_terms(scale), {}).items()}

    def apply(self, poly: SuperPoly) -> SuperPoly:
        """Sum of c * image(mono) over the terms c * mono of ``poly``."""
        if poly.space is not self.space:
            raise ValueError("superspace mismatch")
        out = SuperPoly(self.space)
        for mono, c in poly.terms.items():
            for mn, val in self.image(mono).items():
                out.add_term(mn, c * val)
        return out

    def parity(self):
        parities = set()
        for coeff, dt, dx, odds in self.terms:
            cp = coeff.parity()
            if cp is None:
                return None
            parities.add((cp + len(odds)) % 2)
        if not parities:
            return 0
        return parities.pop() if len(parities) == 1 else None

    def order(self) -> int:
        """Largest derivative order dt + dx + (odd derivatives) over all
        terms, 0 for an operator with no terms."""
        return max((dt + dx + len(odds) for _, dt, dx, odds in self.terms),
                   default=0)

    def max_degree_raise(self) -> int:
        """Largest possible total-degree increase over all terms."""
        best = None
        for coeff, dt, dx, odds in self.terms:
            drop = dt + dx + len(odds)
            for (t, x, w) in coeff.terms:
                raise_by = t + x + len(w) - drop
                best = raise_by if best is None else max(best, raise_by)
        return 0 if best is None else best


def _op(space, *terms) -> SuperDiffOp:
    packed = []
    for coeff, dt, dx, odds in terms:
        if coeff:
            packed.append((coeff, dt, dx, tuple(odds)))
    return SuperDiffOp(space, packed)


# The paper's operators, one table per kind: generator -> terms
# (coefficient, dt, dx, odd derivative word), the coefficient a dict from a
# canonical monomial (t, x, odd word) to (c0, c_d, c_m), the value
# c0 + c_d d + c_m m.  Terms and monomials are in the order in which the
# paper's formulas write them.
_1, _MINUS_1, _2 = (1, 0, 0), (-1, 0, 0), (2, 0, 0)
_D, _MINUS_D = (0, 1, 0), (0, -1, 0)
_M, _MINUS_M, _HALF_M = (0, 0, 1), (0, 0, -1), (0, 0, Fraction(1, 2))
_OPERATORS = {
    "ssch1": {
        "H": [({(0, 0, ()): _1}, 1, 0, ())],  # d_t
        "P": [({(0, 0, ()): _1}, 0, 1, ())],  # d_x
        "M": [({(0, 0, ()): _M}, 0, 0, ())],  # m
        # 2t d_t + x d_x + theta d_theta - d
        "D": [({(1, 0, ()): _2}, 1, 0, ()),
              ({(0, 1, ()): _1}, 0, 1, ()),
              ({(0, 0, ("theta",)): _1}, 0, 0, ("theta",)),
              ({(0, 0, ()): _MINUS_D}, 0, 0, ())],
        # t d_x + m x + theta eta
        "G": [({(1, 0, ()): _1}, 0, 1, ()),
              ({(0, 1, ()): _M}, 0, 0, ()),
              ({(0, 0, ("theta", "eta")): _1}, 0, 0, ())],
        # t^2 d_t + t x d_x + t theta d_theta + m/2 x^2 + x theta eta - d t
        "K": [({(2, 0, ()): _1}, 1, 0, ()),
              ({(1, 1, ()): _1}, 0, 1, ()),
              ({(1, 0, ("theta",)): _1}, 0, 0, ("theta",)),
              ({(0, 2, ()): _HALF_M}, 0, 0, ()),
              ({(0, 1, ("theta", "eta")): _1}, 0, 0, ()),
              ({(1, 0, ()): _MINUS_D}, 0, 0, ())],
        # -theta d_t + d_theta
        "Q": [({(0, 0, ("theta",)): _MINUS_1}, 1, 0, ()),
              ({(0, 0, ()): _1}, 0, 0, ("theta",))],
        # -t theta d_t - x theta d_x + t d_theta + x eta + d theta
        "S": [({(1, 0, ("theta",)): _MINUS_1}, 1, 0, ()),
              ({(0, 1, ("theta",)): _MINUS_1}, 0, 1, ()),
              ({(1, 0, ()): _1}, 0, 0, ("theta",)),
              ({(0, 1, ("eta",)): _1}, 0, 0, ()),
              ({(0, 0, ("theta",)): _D}, 0, 0, ())],
        # -theta d_x + eta
        "X": [({(0, 0, ("theta",)): _MINUS_1}, 0, 1, ()),
              ({(0, 0, ("eta",)): _1}, 0, 0, ())],
    },
    "ssch2": {
        "H": [({(0, 0, ()): _1}, 1, 0, ())],  # d_t
        "P": [({(0, 0, ()): _1}, 0, 1, ())],  # d_x
        "M": [({(0, 0, ()): _M}, 0, 0, ())],  # m
        # 2t d_t + x d_x + theta d_theta + phi d_phi - d
        "D": [({(1, 0, ()): _2}, 1, 0, ()),
              ({(0, 1, ()): _1}, 0, 1, ()),
              ({(0, 0, ("theta",)): _1}, 0, 0, ("theta",)),
              ({(0, 0, ("phi",)): _1}, 0, 0, ("phi",)),
              ({(0, 0, ()): _MINUS_D}, 0, 0, ())],
        # -theta d_theta + phi d_phi + rho d_rho
        "R": [({(0, 0, ("theta",)): _MINUS_1}, 0, 0, ("theta",)),
              ({(0, 0, ("phi",)): _1}, 0, 0, ("phi",)),
              ({(0, 0, ("rho",)): _1}, 0, 0, ("rho",))],
        # t d_x + m x - m theta rho + phi d_rho
        "G": [({(1, 0, ()): _1}, 0, 1, ()),
              ({(0, 1, ()): _M, (0, 0, ("theta", "rho")): _MINUS_M}, 0, 0, ()),
              ({(0, 0, ("phi",)): _1}, 0, 0, ("rho",))],
        # t^2 d_t + t x d_x + t theta d_theta + t phi d_phi
        # + theta phi rho d_rho - m x theta rho + m/2 x^2 + x phi d_rho - d t
        "K": [({(2, 0, ()): _1}, 1, 0, ()),
              ({(1, 1, ()): _1}, 0, 1, ()),
              ({(1, 0, ("theta",)): _1}, 0, 0, ("theta",)),
              ({(1, 0, ("phi",)): _1}, 0, 0, ("phi",)),
              ({(0, 0, ("theta", "phi", "rho")): _1}, 0, 0, ("rho",)),
              ({(0, 1, ("theta", "rho")): _MINUS_M}, 0, 0, ()),
              ({(0, 2, ()): _HALF_M}, 0, 0, ()),
              ({(0, 1, ("phi",)): _1}, 0, 0, ("rho",)),
              ({(1, 0, ()): _MINUS_D}, 0, 0, ())],
        # -phi d_t + d_theta
        "Q+": [({(0, 0, ("phi",)): _MINUS_1}, 1, 0, ()),
               ({(0, 0, ()): _1}, 0, 0, ("theta",))],
        # -theta d_t + d_phi
        "Q-": [({(0, 0, ("theta",)): _MINUS_1}, 1, 0, ()),
               ({(0, 0, ()): _1}, 0, 0, ("phi",))],
        # -t phi d_t - x phi d_x + theta phi d_theta + phi rho d_rho
        # + t d_theta - m x rho + d phi
        "S+": [({(1, 0, ("phi",)): _MINUS_1}, 1, 0, ()),
               ({(0, 1, ("phi",)): _MINUS_1}, 0, 1, ()),
               ({(0, 0, ("theta", "phi")): _1}, 0, 0, ("theta",)),
               ({(0, 0, ("phi", "rho")): _1}, 0, 0, ("rho",)),
               ({(1, 0, ()): _1}, 0, 0, ("theta",)),
               ({(0, 1, ("rho",)): _MINUS_M}, 0, 0, ()),
               ({(0, 0, ("phi",)): _D}, 0, 0, ())],
        # -t theta d_t - x theta d_x - theta phi d_phi - theta rho d_rho
        # + t d_phi + x d_rho + d theta
        "S-": [({(1, 0, ("theta",)): _MINUS_1}, 1, 0, ()),
               ({(0, 1, ("theta",)): _MINUS_1}, 0, 1, ()),
               ({(0, 0, ("theta", "phi")): _MINUS_1}, 0, 0, ("phi",)),
               ({(0, 0, ("theta", "rho")): _MINUS_1}, 0, 0, ("rho",)),
               ({(1, 0, ()): _1}, 0, 0, ("phi",)),
               ({(0, 1, ()): _1}, 0, 0, ("rho",)),
               ({(0, 0, ("theta",)): _D}, 0, 0, ())],
        # -phi d_x - m rho
        "X+": [({(0, 0, ("phi",)): _MINUS_1}, 0, 1, ()),
               ({(0, 0, ("rho",)): _MINUS_M}, 0, 0, ())],
        # -theta d_x + d_rho
        "X-": [({(0, 0, ("theta",)): _MINUS_1}, 0, 1, ()),
               ({(0, 0, ()): _1}, 0, 0, ("rho",))],
    },
}


def _compile(operators):
    """A kind's operators as (triples, generators): the distinct affine
    triples, each as c0 and its nonzero parts ((c_d, 0), (c_m, 1)) in
    Fractions, and per generator its terms with each monomial paired with
    the index of its triple."""
    index = {}  # triple -> its position in triples
    generators = []
    for gen, terms in operators.items():
        compiled = tuple(
            (tuple((mono, index.setdefault(triple, len(index)))
                   for mono, triple in coeff.items()), dt, dx, odds)
            for coeff, dt, dx, odds in terms)
        generators.append((gen, compiled))
    triples = tuple((Fraction(c0), tuple((Fraction(c), i) for i, c in
                                         enumerate((c_d, c_m)) if c))
                    for c0, c_d, c_m in index)
    return triples, tuple(generators)


_COMPILED = {kind: _compile(ops) for kind, ops in _OPERATORS.items()}


def _affine(c0, parts, point):
    """c0 plus c times point[i] for each part (c, i): a constant is c0
    itself."""
    for c, i in parts:
        part = c * point[i]
        c0 = c0 + part if c0 else part
    return c0


def build_realization(kind: str, d, m):
    """Operator table for the generators, on the kind's superspace: the
    kind's ``_OPERATORS`` at (d, m), each coefficient in a fresh
    ``SuperPoly`` on a fresh ``SuperSpace.for_kind(kind, m)``, zero
    coefficients dropped and a term without one dropped.  Each triple is
    evaluated once per call, and a constant is the table's own Fraction."""
    d, m = as_fraction(d), as_fraction(m)
    space = SuperSpace.for_kind(kind, m)
    triples, generators = _COMPILED[kind]
    values = [_affine(c0, parts, (d, m)) or None for c0, parts in triples]
    ops = {}
    for gen, terms in generators:
        packed = []
        for entries, dt, dx, odds in terms:
            coeff = SuperPoly(space)
            for mono, i in entries:
                if values[i] is not None:
                    coeff.terms[mono] = values[i]
            if coeff.terms:
                packed.append((coeff, dt, dx, odds))
        ops[gen] = SuperDiffOp(space, packed)
    return ops


def enumerate_polyspace(space: SuperSpace, max_degree: int):
    """All monomials t^a x^b (odd subset) of total degree <= max_degree."""
    subsets = [()]
    for name in space.names:
        subsets = subsets + [s + (name,) for s in subsets]
    out = []
    for word in subsets:
        for a in range(max_degree - len(word) + 1):
            for b in range(max_degree - len(word) - a + 1):
                out.append((a, b, word))
    out.sort()
    return out


@dataclass
class RealizationReport:
    kind: str
    d: Fraction
    m: Fraction
    max_degree: int
    certified_degree: int
    failures: list = field(default_factory=list)
    parity_ok: bool = True
    degree_raise: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and self.parity_ok


def verify_relations(realization, table: StructureTable, max_degree: int,
                     max_failures=10, d=None, m=None) -> RealizationReport:
    """Check every defining bracket as an operator identity on all
    superspace monomials of total degree <= max_degree.

    Operator application here is exact (no truncation), so agreement on the
    degree <= N monomial basis certifies each identity on every polynomial
    of degree <= N.  For each pair (X, Y) and basis monomial f the residual
    Z f = X(Y f) - (-1)^{|X||Y|} Y(X f) - sum_h c_h H_h f must vanish.

    Order bound.  Let k be the largest ``SuperDiffOp.order`` of the
    operators passed in.  d_t and d_x are derivations of C[t, x] (x) Cl,
    and an odd derivative, which removes a letter with the Koszul sign of
    the letters it passes, is an interior product and so a superderivation
    of the Clifford algebra, a nonzero square included.  Moving a
    derivative word past a coefficient therefore never raises the order,
    and Z = sum c_{a,I} d^a d_I has order <= 2k.  Such a Z that kills every
    monomial t^a x^b theta^J with a + b + |J| <= 2k is zero: by induction
    on a + b + |J|, Z(t^a x^b theta^J) = +-a! b! c_{(a,b),J} plus terms
    whose coefficients are already zero.  So when ``max_degree`` > 2k the
    brackets are decided on the degree <= 2k monomials alone.  Only if one
    fails there is the degree <= ``max_degree`` basis enumerated and
    checked, so the failures and their order are those of the full check.

    The check runs in Python ints over one D = L prod(den(sq)), L the lcm
    of all coefficient denominators and prod(den(sq)) the product of the
    denominators of the Clifford squares: a monomial's odd word and a
    coefficient's are both canonical, so neither repeats a letter and their
    product contracts each square at most once.  Each operator's image of
    a monomial is computed once per call, as ``{monomial: int}`` over D,
    and shared by every bracket; with B the table's ``denominator``,
    ``StructureTable.residuals`` sums B D^2 times each residual in ints.
    Only a failing residual is turned into Fractions.

    Degree bound in (d, m).  ``build_realization(kind, d, m)`` evaluates
    the kind's ``_OPERATORS`` table, whose every coefficient is an affine
    triple (c0, c_d, c_m), so every coefficient is affine in (d, m) by the
    shape of the data; every Clifford square is -m/2, linear in m (a zero
    term is dropped, which changes no operator).  A derivative word sends
    a monomial to an integer multiple of one monomial, free of (d, m); the
    coefficient then multiplies it, and that product of two canonical
    words contracts each square at most once.  So an entry of one
    operator's image of a monomial is a polynomial in (d, m) of degree
    <= 1 + c, with c the number of odd variables whose square is nonzero
    (``SuperSpace.for_kind``: c = 1 for ssch1, 0 for ssch2).  A composite
    X(Y f) has degree <= 2(1 + c) and the bracket part, whose structure
    constants are numbers, degree <= 1 + c <= 2.
    Every entry of every residual on a fixed monomial is therefore a
    polynomial of total degree <= n = 2(1 + c): 4 for ssch1, 2 for ssch2.
    Such a polynomial that vanishes at points whose rows (d^i m^j), i + j
    <= n, have rank (n + 1)(n + 2)/2 (15 and 6) is zero, since those rows
    then span every evaluation functional.  Every operator of the paper's
    realization has order <= 1 and H = d_t has order 1 at every (d, m), so
    2k = 2 everywhere, and a passing check with ``max_degree`` >= 2k shows
    that the residuals vanish on the degree <= 2 monomials at its point.
    Once the rows of such points reach full rank, those residuals are zero
    at every (d, m), and by the order bound every bracket holds at every
    degree and every (d, m).

    Certificate.  That evidence is a ``RealizationCertificate`` per kind,
    keyed by (kind, the ``build_realization`` in use) so that a replaced
    builder (a test double) starts from an empty one.  It answers for or
    learns from a call only if the guard holds: d and m are given (read
    as Fractions, as the report reads them), the kind is ssch1 or ssch2,
    ``table`` has the generators and constants of
    ``build_algebra(table.kind)``, the operators are keyed by exactly the
    table's names, and each equals ``build_realization(kind, d, m)``'s
    term by term (its type, its space's names and squares, and each
    term's coefficient dict, dt, dx and odd word, in order).  Every other
    call (without d and m, with an edited term or table) runs the point
    check.  A guarded point check with ``max_degree`` >= 2k whose report
    has no failure records a new point; its row is kept only if it raises
    the rank of the rows kept (it does not reduce to zero against their
    integer echelon form).  On a certified kind a guarded call returns
    RealizationReport(kind, d, m, max_degree, max_degree) after the shared
    argument checks and parity loop, which is the point check's report at
    every degree and failure cap.

    Failures are (X, Y, monomial, residual string) in bracket-table order,
    after one (gen, gen, None, "parity mismatch") per operator of the wrong
    parity, at most ``max_failures`` in all.  Raises ValueError for a
    negative ``max_degree``, which would check no monomial at all, for
    ``max_failures < 1``, for a table generator without an operator, for an
    operator of a generator the table does not have and for a scaled value
    that is not an integer.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0, got %r" % (max_degree,))
    if max_failures < 1:
        raise ValueError("max_failures must be >= 1, got %r"
                         % (max_failures,))
    missing = [g for g in table.names if g not in realization]
    if missing:
        raise ValueError("no operator for generator(s) %s"
                         % ", ".join(missing))
    report = RealizationReport(table.kind,
                               Fraction(0) if d is None else Fraction(d),
                               Fraction(0) if m is None else Fraction(m),
                               max_degree, max_degree)
    failures = report.failures
    for gen, op in realization.items():
        if op.parity() != table.parity(gen):
            report.parity_ok = False
            if len(failures) < max_failures:
                failures.append((gen, gen, None, "parity mismatch"))
        report.degree_raise = max(report.degree_raise, op.max_degree_raise())
    if len(failures) >= max_failures:
        return report
    certificate = None if d is None or m is None else _guarded_certificate(
        realization, table, report.d, report.m)
    if certificate is not None and certificate.certified:
        return report
    bound = _point_check(realization, table, max_degree,
                         max_failures - len(failures), failures)
    if certificate is not None and max_degree >= bound and report.ok:
        certificate.record(report.d, report.m)
    return report


def _point_check(realization, table, max_degree, cap, failures):
    """The residual pass of ``verify_relations`` at one point: appends at
    most ``cap`` failures and returns the order bound 2k."""
    space = next(iter(realization.values())).space
    scale = lcm(*(realization[g].denominator() for g in table.names))
    # gen -> monomial -> image items, local to this call so that an edit
    # to an operator's terms between calls is always seen
    images = {g: {} for g in table.names}
    terms = {g: realization[g].int_terms(scale) for g in table.names}
    products = {}

    def read(batch):
        for g, by_mono in images.items():
            op, int_terms = realization[g], terms[g]
            for mono in batch:
                if mono not in by_mono:
                    by_mono[mono] = op.int_image(mono, int_terms,
                                                 products).items()

    def residuals(monos):
        # the images of monos, then those of every monomial they reach
        read(monos)
        read({mn for by_mono in images.values() for img in by_mono.values()
              for mn, _ in img})
        return table.residuals(images, monos, scale * space.square_den)

    bound = 2 * max(op.order() for op in realization.values())
    if max_degree > bound and next(
            residuals(enumerate_polyspace(space, bound)), None) is None:
        return bound
    for x, y, mono, acc, den in islice(
            residuals(enumerate_polyspace(space, max_degree)), cap):
        residual = SuperPoly(space, {mn: Fraction(v, den)
                                     for mn, v in acc.items() if v})
        failures.append((x, y, mono, str(residual)))
    return bound


class RealizationCertificate:
    """The points where the point check of one kind's paper realization
    passed, kept while their rows (d^i m^j), i + j <= ``degree``, raise
    the rank; ``certified`` once the rank is (n + 1)(n + 2)/2, and then
    every bracket holds at every degree and every (d, m) (see
    ``verify_relations``).  Fed only by ``verify_relations``.

    ``echelon`` spans the kept rows: one integer row per kept row, as
    (pivot column, row), each zero at the pivots of the rows before it."""

    def __init__(self, kind):
        squares = SuperSpace.for_kind(kind, 1).squares.values()
        # the squares are linear in m, so nonzero at m = 1 unless always 0
        self.degree = n = 2 * (1 + sum(1 for sq in squares if sq))
        self.exponents = [(i, j) for i in range(n + 1)
                          for j in range(n + 1 - i)]
        self.points = set()
        self.rows = []
        self.echelon = []

    @property
    def certified(self) -> bool:
        return len(self.rows) == len(self.exponents)

    def record(self, d, m):
        """Record a passing point (d, m); keep its row if it raises the
        rank of the rows kept, that is if its integer multiple does not
        reduce to zero against ``echelon``."""
        if (d, m) in self.points:
            return
        self.points.add((d, m))
        # the row d^i m^j times (den d den m)^n, in ints
        n, (p, q), (r, s) = (self.degree, d.as_integer_ratio(),
                             m.as_integer_ratio())
        row = [p ** i * q ** (n - i) * r ** j * s ** (n - j)
               for i, j in self.exponents]
        reduced = row
        for col, kept in self.echelon:
            c = reduced[col]
            if c:
                k = kept[col]
                reduced = [k * v - c * w for v, w in zip(reduced, kept)]
        pivot = next((j for j, v in enumerate(reduced) if v), None)
        if pivot is not None:
            g = gcd(*reduced)
            self.echelon.append((pivot, [v // g for v in reduced]))
            den = (q * s) ** n
            self.rows.append([Fraction(v, den) for v in row])


# (kind, build_realization) -> RealizationCertificate, filled on first use
_CERTIFICATES = {}


def _guarded_certificate(realization, table, d, m):
    """The certificate that may answer for or learn from a call of
    ``verify_relations`` at the Fractions d and m, or None when the guard
    fails."""
    kind = table.kind
    if kind not in ("ssch1", "ssch2"):
        return None
    algebra = _shared_table(kind)  # what build_algebra(kind) copies
    if table is not algebra and (table.generators != algebra.generators
                                 or table.constants != algebra.constants):
        return None
    build = build_realization
    reference = build(kind, d, m)
    if realization.keys() != reference.keys():
        return None
    checked = None, None  # the last space and reference space found equal
    for gen, expected in reference.items():
        op = realization[gen]
        space, space0 = op.space, expected.space
        if type(op) is not SuperDiffOp or len(op.terms) != len(expected.terms):
            return None
        if space is not checked[0] or space0 is not checked[1]:
            if (type(space) is not SuperSpace or space.names != space0.names
                    or space.squares != space0.squares):
                return None
            checked = space, space0
        for (coeff, dt, dx, odds), (c0, dt0, dx0, odds0) in zip(
                op.terms, expected.terms):
            if (dt != dt0 or dx != dx0 or odds != odds0
                    or coeff.terms != c0.terms):
                return None
    key = (kind, build)
    certificate = _CERTIFICATES.get(key)
    if certificate is None:
        certificate = _CERTIFICATES[key] = RealizationCertificate(kind)
    return certificate


# ---------------------------------------------------------------------------
# chi and eta from a single Grassmann variable


def chi_eta_ops(m):
    """Unscaled operator pair: chi = s(phi + d/dphi), eta = s(phi - d/dphi)
    with the formal even scale s satisfying s^2 = m/2.

    Returns (chi_raw, eta_raw, scale_square); every identity of interest is
    polynomial in s^2, so the raw operators together with scale_square carry
    the full content.
    """
    m = as_fraction(m)
    space = SuperSpace([("phi", 0)])
    phi = poly_mono(space, word=("phi",))
    raw_chi = _op(space, (phi, 0, 0, ()), (poly_mono(space), 0, 0, ("phi",)))
    raw_eta = _op(space, (phi, 0, 0, ()),
                  (poly_mono(space, coeff=-1), 0, 0, ("phi",)))
    return raw_chi, raw_eta, Fraction(m, 2)


def verify_chi_eta(m) -> dict:
    """Exact operator identities chi^2 = m/2, eta^2 = -m/2, {chi,eta} = 0.

    The phi-polynomial space is 2-dimensional, so checking the basis {1, phi}
    establishes the identities exactly.
    """
    raw_chi, raw_eta, s2 = chi_eta_ops(m)
    space = raw_chi.space
    basis = [poly_mono(space), poly_mono(space, word=("phi",))]
    results = {"chi_square": True, "eta_square": True, "anticommutator": True}
    for f in basis:
        chi2 = raw_chi.apply(raw_chi.apply(f)).scale(s2)
        if chi2 != f.scale(Fraction(m, 2)):
            results["chi_square"] = False
        eta2 = raw_eta.apply(raw_eta.apply(f)).scale(s2)
        if eta2 != f.scale(Fraction(-m, 2)):
            results["eta_square"] = False
        anti = raw_chi.apply(raw_eta.apply(f)) + raw_eta.apply(raw_chi.apply(f))
        if anti:
            results["anticommutator"] = False
    results["scale_square"] = s2
    return results
