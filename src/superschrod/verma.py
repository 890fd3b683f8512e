"""Weight-graded lowest-weight modules over the N=1 and N=2 superalgebras.

Basis monomials are exponent tuples applied to the lowest weight vector v0:

* ssch1: (k, l, a)          <->  G^k K^l S^a v0,  a in {0,1}
* ssch2: (k, l, a, b, c)    <->  G^k K^l S+^a S-^b X+^c v0, a,b,c in {0,1}

The basis, its order and the raising products come from the structure
table, once per kind (``_KindData``): the exponents follow the raising
generators of ``triangular_decompose`` in table order, a weight is the
exponents times the generators' degrees, the order is k, then the fermion
count, then the other exponents, and an odd raising generator acts by
anticommuting into the monomial's odd word with the table's brackets.

The action of both kinds comes from the generic normal-ordering engine; the
closed-form N=1 table of the paper is kept in the tests as its oracle.  A
row is the image of one generator on one basis monomial.  The engine is
compiled once per algebra kind into parametric rows, whose entries are
integer combinations of 1, d, m, r and the chi seed; a module evaluates
them once, as Python ints over its ``scale`` D, on the chi-doubled basis
whose keys are (monomial, 0) for the even part of a coefficient and
(monomial, 1) for its chi part.  ``int_row`` is the one read path: the
kernel search and the Gram form sum its ints, and ``act`` sums e' row(w, 0)
+ c' row(w, 1) in ints over the coefficients e + c chi of a vector written
as (e', c') over one denominator, making one ``Fraction`` per output part.

Closure is decided once per algebra kind and chi seed, not per module.  An
entry of a parametric row is linear in (1, d, m, r, chi^2) on the doubled
basis, so every bracket residual x(y f) - (-1)^{|x||y|} y(x f) - [x,y} f is
a quadratic form in them: the ``ClosureCertificate``, grown by degree,
shared by the modules of the kind and seed, and read off one int pass of
``StructureTable.residuals`` at a Kronecker point.  A module's
``closure_failures`` evaluates those forms at its lowest weight; as
evaluation is a ring homomorphism, its list is the one a check over the
module's own rows gives (the check ``FactorModule`` still runs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import add, mul, sub
from typing import Optional

from .scalars import (GradedScalar, ScalarRing, _kronecker, _mk_gs,
                      as_fraction, gs_str)
from .superalgebra import _shared_table, triangular_decompose

_F0 = Fraction(0)

# kind -> {(gen, monomial): parametric row}, filled on first use
_PARAMETRIC = {}
# the vacuum rows: D v0 = -d v0, M v0 = m v0, R v0 = r v0, X v0 = chi v0
_VACUUM_PARAMS = {"D": (0, -1, 0, 0, 0), "M": (0, 0, 1, 0, 0),
                  "R": (0, 0, 0, 1, 0), "X": (0, 0, 0, 0, 1)}


def _times(value, factor) -> int:
    """value * factor for an int or Fraction value, as an int; ValueError
    when the product is not an integer (it is never truncated)."""
    num, rem = divmod(value.numerator * factor, value.denominator)
    if rem:
        raise ValueError("%s times %s is not an integer" % (value, factor))
    return num


@dataclass(frozen=True)
class LowestWeight:
    """Lowest weight data: D v0 = -d v0, M v0 = m v0 and, for ssch2,
    R v0 = r v0."""

    kind: str
    d: Fraction
    m: Fraction
    r: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "d", as_fraction(self.d))
        object.__setattr__(self, "m", as_fraction(self.m))
        if self.kind == "ssch1":
            if self.r is not None:
                raise ValueError("ssch1 lowest weights carry no r")
        elif self.kind == "ssch2":
            if self.r is None:
                raise ValueError("ssch2 lowest weights need r")
            object.__setattr__(self, "r", as_fraction(self.r))
        else:
            raise ValueError("unknown module kind %r" % self.kind)

    def label(self) -> str:
        if self.kind == "ssch1":
            return "d=%s, m=%s" % (self.d, self.m)
        return "d=%s, m=%s, r=%s" % (self.d, self.m, self.r)


class ModuleVector:
    """Sparse GradedScalar-weighted combination of basis monomials."""

    __slots__ = ("module", "terms")

    def __init__(self, module, terms=None):
        self.module = module
        self.terms = {}
        if terms:
            ring = module.ring
            for mono, coeff in terms.items():
                if not isinstance(coeff, GradedScalar) or coeff.ring is not ring:
                    raise TypeError("coefficient %r is not a scalar of the "
                                    "module's ring" % (coeff,))
                if coeff:
                    self.terms[mono] = coeff

    def _check(self, other):
        if not isinstance(other, ModuleVector) or other.module is not self.module:
            raise ValueError("module mismatch")

    def copy(self) -> "ModuleVector":
        out = ModuleVector(self.module)
        out.terms = dict(self.terms)
        return out

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
        self._check(other)
        out = self.copy()
        for mono, c in other.terms.items():
            out.add_term(mono, -c)
        return out

    def __neg__(self):
        out = ModuleVector(self.module)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def scale(self, coeff) -> "ModuleVector":
        coeff = self.module.coerce_scalar(coeff)
        out = ModuleVector(self.module)
        if coeff:
            for mono, c in self.terms.items():
                val = coeff * c
                if val:
                    out.terms[mono] = val
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.module is other.module and self.terms == other.terms

    def leading_monomial(self):
        if not self.terms:
            return None
        return max(self.terms, key=self.module.order_key)

    def normalized(self) -> "ModuleVector":
        """Scale so the leading monomial has coefficient 1 (or chi when the
        leading coefficient is a pure chi multiple of a non-unit)."""
        lead = self.leading_monomial()
        if lead is None:
            return self
        c = self.terms[lead]
        try:
            return self.scale(c.inverse())
        except ValueError:
            # pure chi coefficient with nilpotent chi: divide the part out
            part = c.odd if c.odd else c.even
            return self.scale(1 / part)

    def render(self) -> dict:
        """Deterministic str->str rendering used by the JSON layer."""
        module = self.module
        out = {}
        for mono in sorted(self.terms, key=module.order_key, reverse=True):
            out[module.monomial_str(mono)] = gs_str(self.terms[mono])
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=self.module.order_key, reverse=True):
            bits.append("(%s) %s" % (gs_str(self.terms[mono]),
                                     self.module.monomial_str(mono)))
        return " + ".join(bits)

    __repr__ = __str__


class _KindData:
    """What every module of one kind reads from its structure table: the
    table, the raising generators in table order (``plus_set``) and as a
    set, the lowering set, the parity of each generator, and the monomial
    layer.

    A basis monomial lists the exponents of ``plus_set``: the even letters
    (G, K) first, then the odd ones, each 0 or 1.  Its weight is the sum of
    the exponents times their generators' degrees (``degree_columns`` holds
    them by component).  In both tables the even letters commute with every
    raising generator and the bracket of two odd ones is an integral
    combination of even ones, even on a square; so a raising generator acts
    on a monomial through its odd tail alone: ``products[gen, tail]`` is
    that PBW-ordered product as (int coefficient, exponent shift) pairs,
    read off the brackets by ``_product``.  ``by_degree``, ``bases``,
    ``weights`` and ``raised`` keep the monomials of one degree, the basis
    of one weight, the weight of one monomial and one raising product.
    """

    def __init__(self, kind):
        self.table = table = _shared_table(kind)
        if table.denominator != 1:
            raise ValueError("the engine needs integral structure constants")
        plus, _, minus = triangular_decompose(table)
        self.plus_set = plus = tuple(plus)
        self.raising = frozenset(plus)
        self.minus_set = frozenset(minus)
        self.parity = {g: table.parity(g) for g in table.names}
        self.vacuum = (0,) * len(plus)
        self.degree_columns = tuple(zip(*map(table.degree, plus)))
        self.n_even = n = sum(not self.parity[g] for g in plus)
        self.products = {(g, tail): self._product(g, tail) for g in plus
                         for tail in product((0, 1), repeat=len(plus) - n)}
        self.by_degree = {}
        self.bases = {}
        self.weights = {}
        self.raised = {}

    def _product(self, gen, tail):
        """A raising generator times the odd word of ``tail``, as (int
        coefficient, exponent shift) pairs.  An even one commutes past it.
        An odd one moves right past the letters before its own place, each
        move a sign -1: at its place it squares to [gen, gen}/2 if the word
        has it, else joins it, and each letter o it passed leaves a term
        [gen, o} times the word without o (an even raising combination,
        which commutes out to the even exponents)."""
        n, brackets = self.n_even, self.table.ad
        evens, odds = self.plus_set[:n], self.plus_set[n:]
        if gen in evens:
            terms = [(1, gen, tail)]  # (coefficient, even letter, new tail)
        else:
            i = odds.index(gen)
            sign = (-1) ** sum(tail[:i])
            rest = tail[:i] + (1 - tail[i],) + tail[i + 1:]
            terms = [(sign * c // 2, h, rest) for h, c in brackets[gen][gen]] \
                if tail[i] else [(sign, None, rest)]
            for j in range(i):
                if tail[j]:
                    sign = (-1) ** sum(tail[:j])
                    rest = tail[:j] + (0,) + tail[j + 1:]
                    terms += [(sign * c, h, rest)
                              for h, c in brackets[gen][odds[j]]]
        return tuple((c, tuple(int(g == h) for g in evens)
                      + tuple(map(sub, rest, tail))) for c, h, rest in terms)


# kind -> its _KindData, built on first use
_kind_data = functools.cache(_KindData)


class VermaModule:
    """Lowest-weight module with PBW monomial basis and exact action.

    ``scale`` is D = lcm(den d, den m, den r, den chi^2), and every row is
    integral over it.  Both bracket tables are integral, so the engine only
    ever adds integer multiples of rows; its vacuum rows are -d, m and r
    (even) and chi (X v0 = chi v0).  An even part is therefore an integer
    combination of 1, d, m and r, and a chi part is an integer, because chi
    parts start only at X v0 and only change sign after that.  A row at chi
    times a monomial multiplies a chi part by chi^2; that product is
    checked: an entry whose denominator does not divide D raises
    ValueError.
    """

    def __init__(self, lw: LowestWeight, chi_square=None):
        self.lw = lw
        self.kind = lw.kind
        shared = _kind_data(lw.kind)
        self.table = shared.table
        self.ring = ScalarRing(lw.m, chi_square)
        self.plus_set = shared.plus_set
        self.minus_set = shared.minus_set
        self.vacuum = shared.vacuum
        self._parity = shared.parity
        self._raising = shared.raising
        self._brackets = shared.table.ad
        self._n_even = shared.n_even
        self._degree_columns = shared.degree_columns
        self._products = shared.products
        self._by_degree = shared.by_degree
        self._bases = shared.bases
        self._weights = shared.weights
        self._raised = shared.raised
        self._cache_table = {}  # the int rows
        self._cache_engine = {}
        self._coords = {}  # weight -> WeightCoords, see singular.weight_coords
        self._m = lw.m
        r = lw.r or _F0
        self.scale = D = lcm(lw.d.denominator, lw.m.denominator, r.denominator,
                             self.ring.chi_square.denominator)
        # the parametric coordinates (1, d, m, r, chi seed) times D
        self._point = (D, _times(lw.d, D), _times(lw.m, D), _times(r, D),
                       D if self.uses_chi else 0)

    # -- scalars ------------------------------------------------------------

    def coerce_scalar(self, value) -> GradedScalar:
        if isinstance(value, GradedScalar):
            if value.ring is not self.ring:
                raise ValueError("scalar ring mismatch")
            return value
        return self.ring.scalar(value)

    @property
    def uses_chi(self) -> bool:
        """True when coefficients can carry a nonzero chi part: X v0 = chi v0
        on massive N=1 modules.  The massless module represents chi by zero,
        which is what makes G^p v0 singular and P,G,M,X trivial in the
        terminal massless quotients; N=2 coefficients carry no chi."""
        return self.kind == "ssch1" and bool(self._m)

    # -- monomials ----------------------------------------------------------

    def weight(self, mono):
        """Weight relative to the lowest weight: the exponents times their
        generators' degrees (an int when degrees have one component).
        Kept per kind."""
        weight = self._weights.get(mono)
        if weight is None:
            weight = tuple(sum(map(mul, mono, column))
                           for column in self._degree_columns)
            weight = self._weights[mono] = \
                weight if len(weight) > 1 else weight[0]
        return weight

    def monomial_parity(self, mono) -> int:
        return sum(mono[self._n_even:]) & 1

    def order_key(self, mono):
        """k (the first exponent), then the fermion count, then the other
        exponents in order."""
        return (mono[0], sum(mono[self._n_even:])) + mono[1:]

    def monomial_str(self, mono) -> str:
        return " ".join("%s^%d" % pair for pair in zip(self.plus_set, mono)) \
            + " v0"

    def parse_monomial(self, text: str):
        """The monomial that ``monomial_str`` renders as ``text``:
        ValueError for any other text."""
        try:
            mono = tuple(int(part.partition("^")[2])
                         for part in text.split()[:-1])
        except ValueError:
            mono = ()
        if len(mono) != len(self.vacuum) or min(mono) < 0 \
                or max(mono[self._n_even:], default=0) > 1 \
                or self.monomial_str(mono) != text:
            raise ValueError("malformed monomial %r" % text)
        return mono

    def basis_vector(self, mono, coeff=1) -> ModuleVector:
        return ModuleVector(self, {mono: self.coerce_scalar(coeff)})

    def vacuum_vector(self) -> ModuleVector:
        return self.basis_vector(self.vacuum)

    def _degree_monomials(self, n):
        """The monomials of degree n (first weight component): every
        exponent but the first ranges, and the first is solved for.
        Shared by the modules of the kind."""
        monos = self._by_degree.get(n)
        if monos is None:
            first, *rest = self._degree_columns[0]
            ranges = [range(n // deg + 1) for deg in rest[:self._n_even - 1]]
            ranges += [(0, 1)] * (len(rest) + 1 - self._n_even)
            monos = self._by_degree[n] = tuple(
                (e,) + tail for tail in product(*ranges)
                for e, rem in [divmod(n - sum(map(mul, tail, rest)), first)]
                if e >= 0 and not rem)
        return monos

    def enumerate_monomials(self, max_degree: int):
        """All monomials of first-weight component <= max_degree, in
        order_key order."""
        return sorted((mono for n in range(max_degree + 1)
                       for mono in self._degree_monomials(n)),
                      key=self.order_key)

    def subspace_basis(self, weight):
        """Monomials of the given relative weight, leading order first."""
        basis = self._bases.get(weight)
        if basis is None:
            basis = self._bases[weight] = sorted(
                (mono for mono in self._degree_monomials(_degree(weight))
                 if self.weight(mono) == weight),
                key=self.order_key, reverse=True)
        return list(basis)

    def enumerate_weights(self, max_degree: int):
        """Weights with nonempty subspace, the lowest-weight line excluded."""
        weights = {self.weight(mono) for n in range(max_degree + 1)
                   for mono in self._degree_monomials(n)}
        weights.discard(self.weight(self.vacuum))
        return sorted(weights)

    def shift_weight(self, weight, gen: str):
        deg = self.table.degree(gen)
        if len(deg) == 1:
            return weight + deg[0]
        return tuple(map(add, weight, deg))

    # -- action -------------------------------------------------------------
    #
    # A row is the image of one generator on one basis monomial, with no
    # zero entries.  ``int_row`` gives it as ((monomial, flag), int) pairs
    # over one scale; ``act`` sums those rows into GradedScalar vectors.

    def int_row(self, gen: str, key):
        """Row at a doubled-basis key (monomial, flag), flag 1 for chi times
        the monomial, as (D, ((key, int), ...)): D = ``scale`` times the
        rational row.  Flag 0 is the engine's row, flag 1 its
        ``chi_entries`` (exact, as den chi^2 divides D).  Entries go by
        monomial, flag 0 first.  Cached per module in ``_cache_table``."""
        cached = self._cache_table.get((gen, key))
        if cached is None:
            mono, flag = key
            entries = self._act_mono_engine(gen, mono)
            if flag:
                entries = chi_entries(entries, self._parity[gen],
                                      self.ring.chi_square)
            cached = self._cache_table[(gen, key)] = (self.scale, entries)
        return cached

    def act(self, gen: str, target) -> ModuleVector:
        """Action of a generator on a monomial or on a vector of this
        module (ValueError for a vector of another module).  With each
        coefficient e + c chi written as (e', c') over L, the lcm of the
        vector's denominators, g (e + c chi) w is the int sum e'
        ``int_row(g, (w, 0))`` + c' ``int_row(g, (w, 1))`` over L D."""
        if isinstance(target, tuple):
            L, weights = 1, ((target, 1, 0),)
        else:
            if target.module is not self:
                raise ValueError("module mismatch")
            coeffs = target.terms.items()
            L = lcm(*(v.denominator for _, c in coeffs for v in (c.even, c.odd)))
            weights = [(mono, c.even.numerator * (L // c.even.denominator),
                        c.odd.numerator * (L // c.odd.denominator))
                       for mono, c in coeffs]
        acc = {}  # monomial -> [even, chi] ints over L D
        for mono, e, c in weights:
            for flag, w in ((0, e), (1, c)):
                if w:
                    for (mn, f), v in self.int_row(gen, (mono, flag))[1]:
                        parts = acc.get(mn)
                        if parts is None:
                            parts = acc[mn] = [0, 0]
                        parts[f] += w * v
        ring, den = self.ring, L * self.scale
        out = ModuleVector(self)
        out.terms = {mn: _mk_gs(ring, Fraction(e, den) if e else _F0,
                                Fraction(c, den) if c else _F0)
                     for mn, (e, c) in acc.items() if e or c}
        return out

    # the name the benchmark tracer wraps next to ``act``
    act_engine = act

    # -- normal-ordering engine ----------------------------------------------

    def _raise(self, gen, mono):
        """Raising generator on a monomial: ((int coeff, monomial), ...),
        the kind's product of ``gen`` with the monomial's odd tail.  Kept
        per kind."""
        raised = self._raised.get((gen, mono))
        if raised is None:
            raised = self._raised[gen, mono] = tuple(
                (c, tuple(map(add, mono, shift)))
                for c, shift in self._products[gen, mono[self._n_even:]])
        return raised

    def _leading_factor(self, mono):
        """First generator of the canonical word and the remaining monomial."""
        for i, e in enumerate(mono):
            if e:
                return self.plus_set[i], mono[:i] + (e - 1,) + mono[i + 1:]
        return None, None

    def _act_mono_engine(self, gen, mono):
        """Row of ``gen`` at ``mono`` through the engine, as ((monomial,
        flag), int) pairs over D: the kind's parametric row evaluated at
        (D, dD, mD, rD, chi), chi = D on massive N=1 modules and 0
        otherwise.  Cached per module."""
        row = self._cache_engine.get((gen, mono))
        if row is None:
            row = self._cache_engine[(gen, mono)] = _evaluate(
                self._parametric_row(gen, mono), self._point)
        return row

    def _parametric_row(self, gen, mono):
        """Row of ``gen`` at ``mono`` for every lowest weight at once, from
        the table shared by the modules of one kind.

        Entries are (monomial, a0, a_d, a_m, a_r, chi) ints, standing for
        a0 + a_d d + a_m m + a_r r plus chi times the chi seed.  With mono =
        w rest (w the first letter of the canonical word), gen w rest =
        (-1)^{|gen||w|} w (gen rest) + [gen, w} rest.  The walk down the word
        collects, suffix by suffix, the generators whose rows the level
        above still needs; the rows are then built bottom-up, so the depth
        of the word costs no recursion.
        """
        table = _PARAMETRIC.setdefault(self.kind, {})
        row = table.get((gen, mono))
        if row is not None:
            return row
        if gen not in self._parity:
            raise ValueError("unknown generator %r" % gen)
        levels = []
        need, cur = (gen,), mono
        while need:
            todo = [g for g in need if (g, cur) not in table]
            if not todo:
                break
            w, rest = self._leading_factor(cur)
            levels.append((cur, todo, w, rest))
            if w is None:  # cur is the vacuum
                break
            below = set()
            for g in todo:
                if g not in self._raising:
                    below.add(g)
                    below.update(h for h, _ in self._brackets[g][w])
            need, cur = below, rest
        for cur, todo, w, rest in reversed(levels):
            for g in todo:
                table[(g, cur)] = self._compile_row(table, g, cur, w, rest)
        return table[(gen, mono)]

    def _compile_row(self, table, gen, mono, w, rest):
        """One parametric row, from the rows at the remaining monomial
        (already in ``table``); w and rest are ``_leading_factor(mono)``."""
        if gen in self._raising:
            return tuple((mn, c, 0, 0, 0, 0) for c, mn in self._raise(gen, mono))
        if w is None:  # the vacuum
            params = _VACUUM_PARAMS.get(gen)
            return ((mono,) + params,) if params else ()
        sign = -1 if (self._parity[gen] and self._parity[w]) else 1
        # moving past an odd w twists the coefficient: its chi part flips
        chi_sign = -sign if self._parity[w] else sign
        # (monomial, even factor, chi factor, entry) of every contribution
        parts = [(mn2, sign * k, chi_sign * k, entry)
                 for entry in table[(gen, rest)]
                 for k, mn2 in self._raise(w, entry[0])]
        parts += [(entry[0], ch, ch, entry) for h, ch in self._brackets[gen][w]
                  for entry in table[(h, rest)]]
        acc = {}  # monomial -> (a0, a_d, a_m, a_r, chi)
        for mn, k, kx, (_, a0, ad, am, ar, x) in parts:
            cur = acc.get(mn)
            if cur is None:
                acc[mn] = (k * a0, k * ad, k * am, k * ar, kx * x)
            else:
                b0, bd, bm, br, bx = cur
                acc[mn] = (b0 + k * a0, bd + k * ad, bm + k * am, br + k * ar,
                           bx + kx * x)
        order_key = self.order_key
        return tuple((mn, *params) for mn, params in
                     sorted(acc.items(), key=lambda item: order_key(item[0]))
                     if any(params))

    # -- bracket compatibility ------------------------------------------------

    def _certificate(self):
        """The ``ClosureCertificate`` of this module's kind and chi seed,
        shared by those modules (and by the modules of a subclass that
        keeps ``_parametric_row``); built on first use."""
        source = (type(self)._parametric_row, self.kind, self.uses_chi)
        certificate = _CERTIFICATES.get(source)
        if certificate is None:
            certificate = _CERTIFICATES[source] = ClosureCertificate()
        return certificate

    def closure_certificate(self, max_degree: int):
        """The nonzero bracket residuals of every module of this one's kind
        and chi seed on the monomials up to max_degree, as polynomials in
        the lowest weight (``ClosureCertificate.residuals``)."""
        return self._certificate().residuals(self, max_degree)

    def closure_failures(self, max_degree: int, max_report=5):
        """Bracket-compatibility check on all monomials up to max_degree.

        x (y w) - (-1)^{|x||y|} y (x w) must equal [x,y} w for every
        generator pair.  Returns a list of failing (x, y, monomial) triples
        (empty means the identity holds), at most ``max_report`` of them.
        Raises ValueError for a negative ``max_degree``, which would check
        no monomial at all, and for ``max_report < 1``.

        The check is decided once per kind and chi seed, by the residuals
        of ``closure_certificate``: quadratic forms in v = (1, d, m, r,
        chi^2) read exactly off a Kronecker point above the coefficient
        bound (``ClosureCertificate``), evaluated here at the module's point
        over D, (D, dD, mD, rD, chi^2 D) (the last a checked conversion).
        Evaluation at a point is a ring homomorphism from the polynomials
        to the rationals, and the module's rows are the parametric rows
        evaluated at its point, so a form's value is D^2 times the residual
        that sums the module's own rows.  A residual therefore fails here
        exactly when the point check over the rows finds it, and the list,
        order included, is the same.  A factor module, whose rows are not
        parametric, runs that point check (``FactorModule.closure_failures``).
        """
        closure_arguments(max_degree, max_report)
        D, dD, mD, rD, _ = self._point
        point = (D, dD, mD, rD, _times(self.ring.chi_square, D))
        return self._certificate().failures(self, max_degree, point,
                                            max_report)


def _evaluate(row, point):
    """A parametric row at point = (p0, p_d, p_m, p_r, p_chi), values of 1,
    d, m, r and the chi seed, as nonzero ((monomial, flag), int) pairs: a0
    p0 + a_d p_d + a_m p_m + a_r p_r at flag 0, x p_chi at flag 1."""
    p0, pd, pm, pr, px = point
    out = []
    for mn, a0, ad, am, ar, x in row:
        e = a0 * p0 + ad * pd + am * pm + ar * pr
        if e:
            out.append(((mn, 0), e))
        if x and px:
            out.append(((mn, 1), x * px))
    return tuple(out)


def chi_entries(entries, odd, chi_square):
    """An int row at chi times a monomial from the row at the monomial,
    over the same scale: g (chi w) = (-1)^{|g|} chi (g w), and chi (e + c
    chi) = c chi^2 + e chi.  ValueError when c chi^2 is not an integer."""
    sign = -1 if odd else 1
    parts = {}
    for (mn, f), v in entries:
        parts.setdefault(mn, [0, 0])[f] = sign * v
    return tuple(((mn, f), v) for mn, (e, c) in parts.items()
                 for f, v in ((0, _times(chi_square, c)), (1, e)) if v)


def closure_arguments(max_degree, max_report):
    """ValueError unless max_degree >= 0 and max_report >= 1."""
    if max_degree < 0 or max_report < 1:
        raise ValueError("max_degree >= 0 and max_report >= 1 expected, "
                         "got %r and %r" % (max_degree, max_report))


# (rows' source, kind, chi seed) -> ClosureCertificate, filled on first use
_CERTIFICATES = {}
# the terms v_i v_j (i <= j) of a quadratic form in v = (1, d, m, r, chi^2),
# in order, and the power of B each is at v = (1, B, B^3, B^7, B^12)
_PAIRS = tuple((i, j) for i in range(5) for j in range(i, 5))
_LAYOUT = tuple(((i, j), (0, 1, 3, 7, 12)[i] + (0, 1, 3, 7, 12)[j])
                for i, j in _PAIRS)


class ClosureCertificate:
    """The bracket residuals of one kind's Verma modules for every lowest
    weight at once, on one chi seed (on for massive N=1, else off).

    A parametric row's entry a0 + a_d d + a_m m + a_r r + x chi becomes, on
    the chi-doubled basis, linear forms in v = (1, d, m, r, q), q = chi^2:
    at flag 0 the even entry a0 + a_d d + a_m m + a_r r and the chi entry
    x (seed on); at flag 1 (chi times the monomial), with s = (-1)^{|g|},
    the even entry s x q and the chi entry s (a0 + a_d d + a_m m + a_r r).
    So for x <= y in table order and f over the monomials, each residual
    x(y f) - (-1)^{|x||y|} y(x f) - [x,y} f is, per key, a quadratic form
    in v with int coefficients (the structure constants are integral).
    One int pass of ``StructureTable.residuals`` finds them all, on those
    rows at the Kronecker point v = (1, B, B^3, B^7, B^12), D = 1, where
    the 15 products v_i v_j are distinct powers of B ({0, 1, 3, 7, 12} is
    a Sidon set).  With A the largest L1 norm of a row read (its |a0| +
    |a_d| + |a_m| + |a_r| + |x| summed) and N that of a bracket, no
    coefficient exceeds M = (2A + N) A (two composites of norm <= A^2, the
    bracket part <= N A; ``StructureTable._residual_bound``), so with B =
    2^b > 2M + 1 (``scalars._kronecker``) a residual's balanced
    base-B digits are its coefficients.  A residual that is zero as a
    polynomial vanishes at every lowest weight; the rest are kept, each
    form as an int multiple of a primitive form (coefficient gcd 1, first
    coefficient positive) in ``forms``, which is nonzero at the same
    points, so a module evaluates each primitive form once.  Up to degree
    16 (N=1) and 8 (N=2), every N=1 residual vanishes at chi^2 = m/2 (seed
    on) or at m = 0 (seed off) and N=2 has none.
    """

    def __init__(self):
        self.degree = -1
        self.forms = []  # the distinct primitive forms
        self._form_index = {}
        # (pair index, degree of f, x, y, f, ((key, multiple, form index),
        # ...)) per nonzero residual, sorted by pair, then by order_key f
        self._records = []

    def residuals(self, module, max_degree):
        """(x, y, f, residual) for every nonzero residual with f of degree
        <= max_degree, in ``closure_failures`` order.  A residual is a
        tuple of (key, form) pairs, key a (monomial, flag) of the doubled
        basis and form a nonempty tuple of ((i, j), c) terms standing for
        the sum of c v_i v_j, v = (1, d, m, r, chi^2) by index (i <= j).
        ``module`` supplies the rows and the monomials when the
        certificate grows to max_degree."""
        self._grow(module, max_degree)
        return [(x, y, f, tuple((key, tuple((ij, g * c) for ij, c
                                             in self.forms[index]))
                                for key, g, index in terms))
                for _, degree, x, y, f, terms in self._records
                if degree <= max_degree]

    def failures(self, module, max_degree, point, max_report):
        """(x, y, f) of the first ``max_report`` residuals with f of degree
        <= max_degree that are nonzero at ``point``, the values of v as
        ints over one denominator."""
        self._grow(module, max_degree)
        nonzero = {k for k, form in enumerate(self.forms)
                   if sum(c * point[i] * point[j] for (i, j), c in form)}
        failures = []
        if nonzero:
            for _, degree, x, y, f, terms in self._records:
                if degree <= max_degree and any(
                        index in nonzero for _, _, index in terms):
                    failures.append((x, y, f))
                    if len(failures) == max_report:
                        break
        return failures

    def _split(self, form):
        """(g, index): the form is g times ``forms[index]``."""
        g = gcd(*(c for _, c in form))
        if form[0][1] < 0:
            g = -g
        primitive = tuple((ij, c // g) for ij, c in form)
        index = self._form_index.get(primitive)
        if index is None:
            index = self._form_index[primitive] = len(self.forms)
            self.forms.append(primitive)
        return g, index

    def _grow(self, module, max_degree):
        """Add the residuals at the monomials of degree in (``degree``,
        max_degree], decoded from one int pass at the Kronecker point."""
        if max_degree <= self.degree:
            return
        table, names = module.table, module.table.names
        basis = [(mono, 0) for mono in module.enumerate_monomials(max_degree)
                 if _first_degree(module, mono) > self.degree]
        # rows are read at the new monomials and the keys their rows reach:
        # A bounds the L1 norm of each
        def parametric(mono):
            return [module._parametric_row(g, mono) for g in names]

        rows_at = {mono: parametric(mono) for mono, _ in basis}
        reached = dict.fromkeys(entry[0] for by_gen in rows_at.values()
                                for row in by_gen for entry in row)
        rows_at.update((mono, parametric(mono)) for mono in reached
                       if mono not in rows_at)
        A = max(sum(sum(map(abs, entry[1:])) for entry in row)
                for by_gen in rows_at.values() for row in by_gen)
        B, decode = _kronecker(table._residual_bound(A, 1), _LAYOUT)
        point = (1, B, B ** 3, B ** 7, 1 if module.uses_chi else 0)
        q = B ** 12  # chi^2 there
        # keys are numbered in the order they are met, the new monomials
        # first; rows[g][n] is the row of g at key n, entries numbered too,
        # for the new monomials and every key their rows reach
        index = {key: n for n, key in enumerate(basis)}
        rows = {g: [] for g in names}

        def read(mono, flag):
            for g, row in zip(names, rows_at[mono]):
                entries = _evaluate(row, point)
                if flag:
                    entries = chi_entries(entries, module._parity[g], q)
                rows[g].append(tuple((index.setdefault(key2, len(index)), v)
                                     for key2, v in entries))

        for key in basis:
            read(*key)
        for key in list(index)[len(basis):]:
            read(*key)
        keys = list(index)
        pairs = {xy: n for n, xy in enumerate(
            (x, y) for i, x in enumerate(names) for y in names[i:])}
        for x, y, f, acc, _ in table.residuals(rows, range(len(basis)), 1):
            mono = basis[f][0]
            self._records.append((
                pairs[x, y], _first_degree(module, mono), x, y, mono,
                tuple((key, *self._split(decode(v))) for key, v in
                      sorted((keys[k], v) for k, v in acc.items() if v))))
        self._records.sort(key=lambda r: (r[0], module.order_key(r[4])))
        self.degree = max_degree


def _degree(weight):
    """The first component of a weight: its degree."""
    return weight[0] if isinstance(weight, tuple) else weight


def _first_degree(module, mono):
    """The first weight component of a monomial: its degree."""
    return _degree(module.weight(mono))
