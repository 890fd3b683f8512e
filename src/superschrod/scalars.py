"""Exact coefficient arithmetic.

Everything is built on ``fractions.Fraction`` (no floating point anywhere):

* ``as_fraction`` -- the one coercion point into the real rationals.
* ``ScalarRing`` / ``GradedScalar`` -- the ring Q[chi] with the odd
  generator chi squaring to a fixed even value (mass/2 by default, so that
  the mass eigenvalue equals 2*chi^2).  Module, elimination, Gram and
  realization coefficients all live here.
* ``mul_odd_words`` -- the Koszul-signed product of odd words, squaring
  each generator to 0 (Grassmann) or to a prescribed scalar (Clifford).
  Algebras on named odd variables are ``realization.SuperSpace`` with
  ``SuperPoly`` elements.
* ``QI`` -- Gaussian rationals a + b*i, needed only by the omega2/sigma1/
  sigma2 adjoint images in ``superalgebra``.
* ``_kronecker`` -- the decoder of a polynomial identity read at one
  large integer point: the closure certificate (``verma``) and the
  realization certificate (``realization``) evaluate their residuals at
  powers of B = 2^b and read the coefficients off balanced base-B digits.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or real QI to Fraction.

    Floats (and other types) raise TypeError; a QI with a nonzero imaginary
    part raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, QI):
        if value.im:
            raise ValueError("real rational expected, got %s" % value)
        return value.re
    raise TypeError("exact rational expected, got %s" % type(value).__name__)


_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (q > 0 after reduction); decimals are not accepted."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError("malformed rational %r (expected p or p/q)" % text)
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError("malformed rational %r (zero denominator)" % text) from exc


_F0 = Fraction(0)
_F1 = Fraction(1)


def _mk_qi(re_part: Fraction, im_part: Fraction) -> "QI":
    q = QI.__new__(QI)
    q.re = re_part
    q.im = im_part
    return q


class QI:
    """Gaussian rational re + im*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce_qi(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _coerce_qi(other)
        if other is None:
            return NotImplemented
        return _mk_qi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_qi(other)
        if other is None:
            return NotImplemented
        return _mk_qi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_qi(other)
        if other is None:
            return NotImplemented
        return _mk_qi(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return _mk_qi(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce_qi(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return _mk_qi(self.re * other.re, _F0)
        return _mk_qi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_qi(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if not other.im:
            return _mk_qi(self.re / other.re, self.im / other.re)
        norm = other.re * other.re + other.im * other.im
        return _mk_qi(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def conjugate(self) -> "QI":
        return _mk_qi(self.re, -self.im)

    def __repr__(self):
        return "QI(%s)" % qi_str(self)

    def __str__(self):
        return qi_str(self)


def _coerce_qi(value):
    if isinstance(value, QI):
        return value
    if isinstance(value, (int, Fraction)):
        return _mk_qi(as_fraction(value), _F0)
    return None


QI_ZERO = QI(0)
QI_ONE = QI(1)


def qi_str(value: QI) -> str:
    """Canonical rendering: "p/q", "r/si", "p/q+r/si" or "p/q-r/si"."""
    if not value.im:
        return str(value.re)
    imag = ("%si" % value.im) if value.im > 0 else ("-%si" % (-value.im))
    if not value.re:
        return imag
    if value.im > 0:
        return "%s+%s" % (value.re, imag)
    return "%s%s" % (value.re, imag)


class ScalarRing:
    """The coefficient ring Q[chi] with chi*chi folded to ``chi_square``.

    ``chi_square`` defaults to mass/2, the unique choice for which the odd
    scalar (anticommuting past odd operators) is compatible with the module
    closure checks.  A mass of 0 makes chi a Grassmann generator.
    """

    __slots__ = ("mass", "chi_square")

    def __init__(self, mass, chi_square=None):
        self.mass = as_fraction(mass)
        self.chi_square = self.mass / 2 if chi_square is None \
            else as_fraction(chi_square)

    # built on each access: stored, they would hold the ring in a cycle
    zero = property(lambda self: _mk_gs(self, _F0, _F0))
    one = property(lambda self: _mk_gs(self, _F1, _F0))
    chi = property(lambda self: _mk_gs(self, _F0, _F1))

    def scalar(self, even=0, odd=0) -> "GradedScalar":
        return _mk_gs(self, as_fraction(even), as_fraction(odd))

    def __repr__(self):
        return "ScalarRing(m=%s, chi^2=%s)" % (self.mass, self.chi_square)


def _mk_gs(ring, even, odd):
    g = GradedScalar.__new__(GradedScalar)
    g.ring = ring
    g.even = even
    g.odd = odd
    return g


class GradedScalar:
    """Element even + odd*chi of a ScalarRing, with Fraction parts.

    The ring product is commutative; the Koszul sign of moving chi past an
    odd operator or basis vector lives in :meth:`twist`, which callers apply
    exactly when an odd operator crosses the coefficient.
    """

    __slots__ = ("ring", "even", "odd")

    def __init__(self, ring, even=0, odd=0):
        self.ring = ring
        self.even = as_fraction(even)
        self.odd = as_fraction(odd)

    def _check(self, other) -> "GradedScalar":
        if isinstance(other, GradedScalar):
            if other.ring is not self.ring:
                raise ValueError("scalar ring mismatch")
            return other
        return _mk_gs(self.ring, as_fraction(other), _F0)

    def __bool__(self):
        return bool(self.even) or bool(self.odd)

    def __eq__(self, other):
        if not isinstance(other, GradedScalar):
            other = self._check(other)
        return (
            self.ring is other.ring
            and self.even == other.even
            and self.odd == other.odd
        )

    def __hash__(self):
        return hash((id(self.ring), self.even, self.odd))

    def __add__(self, other):
        other = self._check(other)
        return _mk_gs(self.ring, self.even + other.even, self.odd + other.odd)

    def __sub__(self, other):
        other = self._check(other)
        return _mk_gs(self.ring, self.even - other.even, self.odd - other.odd)

    def __neg__(self):
        return _mk_gs(self.ring, -self.even, -self.odd)

    def __mul__(self, other):
        other = self._check(other)
        if not self.odd:
            if not self.even:
                return self.ring.zero
            return _mk_gs(self.ring, self.even * other.even, self.even * other.odd)
        if not other.odd:
            return _mk_gs(self.ring, self.even * other.even, self.odd * other.even)
        even = self.even * other.even + self.odd * other.odd * self.ring.chi_square
        odd = self.even * other.odd + self.odd * other.even
        return _mk_gs(self.ring, even, odd)

    __rmul__ = __mul__

    def twist(self) -> "GradedScalar":
        """Image under the parity involution (negates the chi part)."""
        if not self.odd:
            return self
        return _mk_gs(self.ring, self.even, -self.odd)

    def inverse(self) -> "GradedScalar":
        """Multiplicative inverse; raises ValueError when not a unit."""
        norm = self.even * self.even - self.odd * self.odd * self.ring.chi_square
        if not norm:
            raise ValueError("GradedScalar %s is not invertible" % self)
        return _mk_gs(self.ring, self.even / norm, -self.odd / norm)

    def __str__(self):
        return gs_str(self)

    def __repr__(self):
        return "GradedScalar(%s)" % gs_str(self)


def gs_str(value: GradedScalar) -> str:
    if not value.odd:
        return str(value.even)
    chi_part = "(%s)*chi" % value.odd
    if not value.even:
        return chi_part
    return "%s+%s" % (value.even, chi_part)


def parse_gs(ring: ScalarRing, text: str) -> GradedScalar:
    text = text.strip().replace(" ", "")
    if "chi" not in text:
        return ring.scalar(parse_rational(text))
    head, _, _ = text.partition("*chi")
    if head.endswith(")") and "(" in head:
        open_pos = head.rindex("(")
        even_text = head[:open_pos].rstrip("+")
        odd_text = head[open_pos + 1 : -1]
    else:
        raise ValueError("malformed graded scalar %r" % text)
    even = parse_rational(even_text) if even_text else _F0
    return ring.scalar(even, parse_rational(odd_text))


def mul_odd_words(word1, word2, order, squares):
    """Multiply two canonical odd words with Koszul signs.

    ``order`` maps generator name -> rank, ``squares`` maps name -> Fraction
    value of the generator's square.  Returns ``(coefficient, word)`` with
    an int or Fraction coefficient; a Grassmann square gives coefficient 0.
    """
    seq = list(word1) + list(word2)
    coeff = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(seq):
            a, b = seq[i], seq[i + 1]
            if a == b:
                sq = squares[a]
                if not sq:
                    return 0, ()
                coeff = coeff * sq
                del seq[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            elif order[a] > order[b]:
                seq[i], seq[i + 1] = b, a
                coeff = -coeff
                changed = True
                i += 1
            else:
                i += 1
    return coeff, tuple(seq)


def _kronecker(bound, layout):
    """(B, decode), B = 2^b > 2 bound + 1: ``layout`` pairs each label of
    a polynomial's monomials with the power of B the monomial takes at the
    point read (distinct powers), and decode maps the value there of a
    polynomial with coefficients in [-bound, bound] to its nonzero (label,
    c) terms in ``layout`` order, the balanced base-B digits (B/2 added at
    every digit makes each a b-bit field c + B/2)."""
    bits = (2 * bound + 1).bit_length()
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    offset = sum(half << (bits * p)
                 for p in range(max(p for _, p in layout) + 1))
    shifts = tuple((label, bits * p) for label, p in layout)

    def decode(value):
        value += offset
        return tuple((label, c) for label, s in shifts
                     if (c := (value >> s & mask) - half))
    return 1 << bits, decode
