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
(d, m): the first call on the paper's operators forms every bracket
residual of the kind's table once, with coefficients that are polynomials
in (d, m) read off one int pass at the Kronecker point d = B, m = B^3, and
the kind is certified when each is the zero polynomial.  After that a call
on the paper's operators at any (d, m) is answered without a residual
pass.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import lcm, prod

from .scalars import _kronecker, as_fraction, mul_odd_words
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
        """Largest possible total-degree increase over all terms, 0 for an
        operator with no coefficient monomial."""
        return max((t + x + len(w) - dt - dx - len(odds)
                    for coeff, dt, dx, odds in self.terms
                    for t, x, w in coeff.terms), default=0)


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

    Certificate.  ``build_realization(kind, d, m)`` evaluates the compiled
    table ``_COMPILED[kind]``, whose every coefficient is an affine triple
    (c0, c_d, c_m), and every Clifford square is -m/2.  So the same pass
    has a meaning over Z[d, m], each triple times the lcm L of the table's
    denominators a polynomial and each Clifford contraction times
    ``square_den`` an int times m.  The order bound holds over the
    integral domain Z[d, m], and evaluation at (d, m) is a ring
    homomorphism taking each image of the pass to L ``square_den`` times
    the image under the operators at (d, m), whose vanishing terms are
    dropped.  So if every residual on the monomials of degree <= 2k is the
    zero polynomial, every bracket holds at every degree and every (d, m),
    and the table certifies its kind.  ``_symbolic_residuals`` reads those
    polynomials off the same int pass, run once per table at the Kronecker
    point d = B, m = B^3.  A residual is a sum of c d^i m^j with i <= 2 and
    j <= 4 (d enters only through the triples, at most two per composite,
    and m also through at most one contraction per image), so its terms
    sit at the distinct powers B^(i + 3j), and with B = 2^b > 2M + 1 for a
    bound M on |c| each c is a balanced base-B digit.  The first guarded
    call forms the verdict, kept per table in ``_CERTIFICATES``.
    A call is guarded when d and m are given (read as Fractions, as the
    report reads them), ``table`` has the generators and constants of
    ``build_algebra(kind)`` for a kind with a compiled table, and the
    operators equal the table at (d, m) as ``build_realization`` returns
    them: same generators, type, space names and squares, and each term's
    coefficient dict, dt, dx and odd word, in order.  Their parities and
    degree raise depend only on which triples vanish, so they are read once
    per table and vanishing pattern.  A certified guarded call returns after
    the parity check, with the point check's report at every degree and
    failure cap; every other call runs the point check.

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
    guarded = None if d is None or m is None else _paper_operators(
        realization, table, report.d, report.m)
    (_, certified, shapes), zeros = guarded or ((None, False, {}), None)
    if zeros not in shapes:
        shapes[zeros] = ({gen: op.parity() for gen, op in realization.items()},
                         max([0] + [op.max_degree_raise()
                                    for op in realization.values()]))
    parities, report.degree_raise = shapes[zeros]
    failures = report.failures
    for gen in realization:
        if parities[gen] != table.parity(gen):
            report.parity_ok = False
            if len(failures) < max_failures:
                failures.append((gen, gen, None, "parity mismatch"))
    if len(failures) >= max_failures or certified:
        return report
    _point_check(realization, table, max_degree,
                 max_failures - len(failures), failures)
    return report


def _residual_pass(table, ops, terms, products, scale):
    """``residuals(monos)``: ``table.residuals`` on the images of ``monos``
    under each ``ops[g].int_image`` with ``terms[g]`` and the ``products``
    memo, over the images' common ``scale``."""
    # gen -> monomial -> image items, read once per pass and shared by its
    # calls, so that an edit to an operator's terms between passes is seen
    images = {g: {} for g in table.names}

    def read(batch):
        for g, by_mono in images.items():
            op, int_terms = ops[g], terms[g]
            for mono in batch:
                if mono not in by_mono:
                    by_mono[mono] = op.int_image(mono, int_terms,
                                                 products).items()

    def residuals(monos):
        # the images of monos, then those of every monomial they reach
        read(monos)
        read({mn for by_mono in images.values() for img in by_mono.values()
              for mn, _ in img})
        return table.residuals(images, monos, scale)

    return residuals


def _point_check(realization, table, max_degree, cap, failures):
    """The residual pass of ``verify_relations`` at one point: appends at
    most ``cap`` failures."""
    space = next(iter(realization.values())).space
    scale = lcm(*(realization[g].denominator() for g in table.names))
    residuals = _residual_pass(
        table, realization,
        {g: realization[g].int_terms(scale) for g in table.names}, {},
        scale * space.square_den)
    bound = 2 * max(op.order() for op in realization.values())
    if max_degree > bound and next(
            residuals(enumerate_polyspace(space, bound)), None) is None:
        return
    for x, y, mono, acc, den in islice(
            residuals(enumerate_polyspace(space, max_degree)), cap):
        residual = SuperPoly(space, {mn: Fraction(v, den)
                                     for mn, v in acc.items() if v})
        failures.append((x, y, mono, str(residual)))


# the terms d^i m^j of a residual (i <= 2 and j <= 4, see
# ``verify_relations``) and the power of B each is at d = B, m = B^3
_DM_LAYOUT = tuple(((i, j), i + 3 * j) for i in range(3) for j in range(5))


def _symbolic_residuals(compiled, table):
    """The nonzero residuals of a compiled table (``_compile``) on the
    monomials of degree <= twice its largest order, as
    ``StructureTable.residuals`` yields them, over Z[d, m]: each residual
    a dict from monomial to its nonzero ((i, j), c) terms, the sum of c
    d^i m^j, read off one int pass at d = B, m = B^3.  Over the scale L
    ``square_den``, no image has an L1 norm above A, the largest sum over
    a generator's terms of top^(dt + dx) ``square_den`` times the L1 norms
    of their triples times L, top the largest degree of a monomial whose
    image the pass reads; M is ``StructureTable._residual_bound``."""
    triples, generators = compiled
    scale = lcm(*(c.denominator for c0, parts in triples
                  for c in (c0, *(c for c, _ in parts))))
    space = SuperSpace.for_kind(table.kind, 1)
    bound = 2 * max(dt + dx + len(odds) for _, gen_terms in generators
                    for _, dt, dx, odds in gen_terms)
    top = bound + max([0] + [t + x + len(w) - dt - dx - len(odds)
                             for _, gen_terms in generators
                             for entries, dt, dx, odds in gen_terms
                             for (t, x, w), _ in entries])
    scaled = [(_exact_int(c0 * scale),
               [(_exact_int(c * scale), i) for c, i in parts])
              for c0, parts in triples]  # each triple times L
    norms = [abs(c0) + sum(abs(c) for c, _ in parts) for c0, parts in scaled]
    A = max(sum(top ** (dt + dx) * space.square_den
                * sum(norms[i] for _, i in entries)
                for entries, dt, dx, _ in gen_terms)
            for _, gen_terms in generators)
    B, decode = _kronecker(
        table._residual_bound(A, scale * space.square_den), _DM_LAYOUT)
    d_m = B, B ** 3
    values = [_affine(c0, parts, d_m) for c0, parts in scaled]
    terms = {gen: [(dt, dx, odds, tuple((t, x, w, values[i])
                                        for (t, x, w), i in entries))
                   for entries, dt, dx, odds in gen_terms]
             for gen, gen_terms in generators}
    # a square is linear in m: its value at m = 1, times m per contraction
    words = {w for _, _, w in enumerate_polyspace(space, len(space.names))}
    products = {}
    for w1 in words:
        for w in words:
            sign, word = mul_odd_words(w1, w, space.order, space.squares)
            products[w1, w] = _exact_int(sign * space.square_den) * d_m[1] \
                ** len(set(w1) & set(w)), word
    residuals = _residual_pass(table, dict.fromkeys(terms, SuperDiffOp(space)),
                               terms, products, scale * space.square_den)
    for x, y, mono, acc, den in residuals(enumerate_polyspace(space, bound)):
        yield x, y, mono, {mn: decode(v) for mn, v in acc.items() if v}, den


# id(compiled table) -> (the table, whether it certifies its kind, {indices
# of the triples that vanish: (parity per generator, degree raise)})
_CERTIFICATES = {}


def _paper_operators(realization, table, d, m):
    """(the ``_CERTIFICATES`` entry of the compiled table, made on first
    use, and the indices of its triples that vanish at (d, m)) when a call
    of ``verify_relations`` at the Fractions d and m is guarded, else
    None."""
    compiled = _COMPILED.get(table.kind)
    if compiled is None:
        return None
    algebra = _shared_table(table.kind)  # what build_algebra(kind) copies
    triples, generators = compiled
    if len(realization) != len(generators) or table is not algebra and (
            table.generators != algebra.generators
            or table.ad != algebra.ad
            or table.denominator != algebra.denominator):
        return None
    values = [_affine(c0, parts, (d, m)) for c0, parts in triples]
    space = SuperSpace.for_kind(table.kind, m)
    for gen, terms in generators:
        op = realization.get(gen)
        if type(op) is not SuperDiffOp or type(op.space) is not SuperSpace \
                or (op.space.names, op.space.squares) != (space.names,
                                                          space.squares):
            return None
        expected = [(live, dt, dx, odds) for entries, dt, dx, odds in terms
                    if (live := {mono: values[i] for mono, i in entries
                                 if values[i]})]
        if [(c.terms, dt, dx, odds) for c, dt, dx, odds in op.terms] \
                != expected:
            return None
    entry = _CERTIFICATES.get(id(compiled))
    if entry is None or entry[0] is not compiled:
        entry = _CERTIFICATES[id(compiled)] = compiled, next(
            _symbolic_residuals(compiled, algebra), None) is None, {}
    return entry, tuple(i for i, value in enumerate(values) if not value)


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
