"""Factor modules, the irreducibility classification, and the bilinear form.

A factor module is the base module modulo the submodule N that singular
vectors generate, kept as one integer echelon per weight and built lazily
from the base's ``int_row`` rows.  Columns follow the base's weight
coordinates, so the pivots sit at the largest monomials under
``order_key``: they are the monomials that do not survive, and a vector is
reduced by clearing them, by exact linear algebra as in the other layers.
A factor module keeps the generators it is built with; a chain step is a
new quotient, built by ``quotient_by_singular``.  ``classify`` lists the
steps of a lowest weight's chain (singular vector, its label, the
quotient's label) and walks them; its verdict is the chain's last label.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import sub
from typing import List, Optional
from weakref import WeakKeyDictionary

from .scalars import _mk_gs
from .singular import (ANNIHILATORS, _integer_rows, _space_module,
                       determinant, weight_coords, find_singular,
                       closed_form_n1, closed_form_n2)
from .superalgebra import build_adjoint, verify_adjoint
from .verma import (LowestWeight, ModuleVector, VermaModule, _degree,
                    chi_entries, closure_arguments)

_ZERO = Fraction(0)


class _Echelon:
    """N_w over the columns of ``weight_coords(base, w)``: the sorted pivot
    columns and, by pivot, a sparse int row {column: value}, divided by its
    content and zero at the pivot columns of the rows before it.  ``units``
    holds the keys whose unit vector lies in N_w: the starting units, each
    added row with a single entry, and every key once N_w is full."""

    def __init__(self, coords, units):
        self.labels, self.index = coords.labels, coords.index
        self.pivots = [self.index[key] for key in units]
        self.rows = {p: {p: 1} for p in self.pivots}
        self.units = set(units)
        self.dead = {mono for mono, _ in units}  # pivot monomials

    def full(self) -> bool:
        return len(self.pivots) == len(self.labels)

    def clear(self, entries):
        """(f, e') for int ((key, value), ...) entries e: e' = f e less a
        combination of the rows has no pivot key, so e' / f is e mod N_w."""
        v = [0] * len(self.labels)
        for key, x in entries:
            v[self.index[key]] += x
        factor = 1
        for p in self.pivots:
            if v[p]:
                row = self.rows[p]
                g = gcd(row[p], v[p])
                a, b = row[p] // g, v[p] // g
                if a != 1:
                    v = [a * x for x in v]
                    factor *= a
                for col, x in row.items():
                    v[col] -= b * x
        return factor, tuple((key, x) for key, x in zip(self.labels, v) if x)

    def add(self, entries):
        """Insert int entries at their pivot unless they clear to zero."""
        entries = self.clear(entries)[1]
        if entries:
            (lead, first), g = entries[0], gcd(*(x for _, x in entries))
            p = self.index[lead]
            self.rows[p] = {self.index[key]: x // (g if first > 0 else -g)
                            for key, x in entries}
            insort(self.pivots, p)
            self.dead.add(lead[0])
            if self.full():
                self.units = set(self.labels)
            elif len(entries) == 1:
                self.units.add(lead)


class FactorModule:
    """Quotient of a Verma module by N = U(n+) (homogeneous generators).
    N_w is spanned by the generators of weight w, with their chi multiples
    on chi-doubled coordinates, and by g n for each raising g and row n of
    N_{w - deg g}, summed in ints from ``base.int_row``.  On chi-doubled
    coordinates a pivot without its chi partner raises ValueError: N would
    not be spanned by monomials and their chi multiples.

    The generators are fixed at construction.  The constructor does not
    check that N is a submodule, that is, closed under the lowering
    generators too; only ``quotient_by_singular`` checks singularity."""

    def __init__(self, base: VermaModule, generators):
        self.base = base
        self.ring = base.ring
        self.kind = base.kind
        self.table = base.table
        self.lw = base.lw
        self.generators = list(generators)
        # the _Echelon of every weight to degree _top, the int rows and the
        # WeightCoords (singular.weight_coords)
        self._echelons, self._top, self._ints, self._coords = {}, -1, {}, {}

    def _echelon(self, weight) -> _Echelon:
        """N_w, built degree by degree and each degree in sorted order: as
        raising degrees are lexicographically positive, N_{w - deg g} first."""
        while self._top < _degree(weight):
            self._top += 1
            for w in sorted({self.base.weight(mono) for mono in
                             self.base._degree_monomials(self._top)}):
                self._echelons[w] = self._build(w)
        return self._echelons[weight]

    def _build(self, weight) -> _Echelon:
        """N_w.  A key (mono, f) is a unit row when (rest, f) is a unit of
        the weight below, for g the first letter of mono and rest the
        monomial without it: g rest = mono exactly, as g is the first
        letter of the word (an even letter commutes with every raising
        generator, and an odd first letter has none before it), and
        g (chi rest) = +-chi mono; so g (rest, f) = +-(mono, f) lies in N.
        The spanning rows follow until the rank is dim V_w; a row whose
        nonzero keys are all units lies in their span and is skipped."""
        base = self.base
        coords = weight_coords(base, weight)
        units = []
        for mono, f in coords.labels:
            if mono != base.vacuum:
                rest = base._leading_factor(mono)[1]
                if (rest, f) in self._echelons[base.weight(rest)].units:
                    units.append((mono, f))
        ech = _Echelon(coords, units)
        for v in () if ech.full() else self._spanning(weight, coords):
            if any(x and key not in ech.units for key, x in v):
                ech.add(v)
                if ech.full():
                    break
        if coords.doubled and len(ech.pivots) != 2 * len(ech.dead):
            raise ValueError("the submodule at weight %s is not spanned by "
                             "monomials and their chi multiples" % (weight,))
        return ech

    def _spanning(self, weight, coords):
        base = self.base
        for row in _integer_rows(coords.with_chi_multiples(
                coords.to_coords(vec) for vec in self.generators
                if vec and base.weight(next(iter(vec.terms))) == weight))[0]:
            yield list(zip(coords.labels, row))
        for g in base.plus_set:
            deg = self.table.degree(g)
            below = self._echelons.get(weight - deg[0] if len(deg) == 1
                                       else tuple(map(sub, weight, deg)))
            for n in below.rows.values() if below else ():
                yield [(key, c * x) for col, c in n.items()
                       for key, x in base.int_row(g, below.labels[col])[1]]

    def reduce(self, vec: ModuleVector) -> ModuleVector:
        """The vector modulo N, on the surviving monomials."""
        if not self.generators:
            return vec
        L = lcm(*(v.denominator for c in vec.terms.values()
                  for v in (c.even, c.odd)))
        parts = {}  # (weight, part) -> int entries over L
        for mono, c in vec.terms.items():
            for f, v in ((0, c.even), (1, c.odd)):
                if v:  # without chi doubling the chi part is cleared alone
                    part, key = (0, (mono, f)) if self.uses_chi else \
                        (f, (mono, 0))
                    parts.setdefault((self.base.weight(mono), part), []).append(
                        (key, v.numerator * (L // v.denominator)))
        acc = {}  # monomial -> [even, chi]
        for (weight, part), entries in parts.items():
            factor, entries = self._echelon(weight).clear(entries)
            for (mono, f), x in entries:
                acc.setdefault(mono, [_ZERO, _ZERO])[f + part] = \
                    Fraction(x, L * factor)
        out = ModuleVector(self.base)
        out.terms = {mono: _mk_gs(self.ring, *ec) for mono, ec in acc.items()}
        return out

    # -- module protocol (mirrors VermaModule where it matters) ---------------

    @property
    def uses_chi(self) -> bool:
        return self.base.uses_chi

    def _survives(self, mono) -> bool:
        """Whether a base monomial is a basis vector of the quotient: not
        a pivot of its weight's echelon."""
        return mono not in self._echelon(self.base.weight(mono)).dead

    def subspace_basis(self, weight):
        """The base module's basis at ``weight`` without the pivots."""
        return list(filter(self._survives, self.base.subspace_basis(weight)))

    def enumerate_monomials(self, max_degree: int):
        """The surviving monomials up to ``max_degree``, in order."""
        return list(filter(self._survives,
                           self.base.enumerate_monomials(max_degree)))

    def enumerate_weights(self, max_degree: int):
        return [weight for weight in self.base.enumerate_weights(max_degree)
                if self.subspace_basis(weight)]

    def act(self, gen, target) -> ModuleVector:
        return self.reduce(self.base.act(gen, target))

    def int_row(self, gen, key):
        """Row at a doubled-basis key (monomial, flag), as in
        ``VermaModule.int_row``: the base row cleared by its echelon, over
        the base scale times the clearing factor.  Without chi doubling,
        flag 1 is ``chi_entries`` of the flag-0 row over L q, q = den
        chi^2.  Cached."""
        cached = self._ints.get((gen, key))
        if cached is None:
            mono, flag = key
            if flag and not self.uses_chi:
                L, entries = self.int_row(gen, (mono, 0))
                q = self.ring.chi_square.denominator
                cached = (L * q, chi_entries(
                    [(k, v * q) for k, v in entries],
                    self.table.parity(gen), self.ring.chi_square))
            else:
                D, entries = cached = self.base.int_row(gen, key)
                if entries:
                    factor, entries = self._echelon(self.base.shift_weight(
                        self.base.weight(mono), gen)).clear(entries)
                    cached = (D * factor, entries)
            self._ints[(gen, key)] = cached
        return cached

    def closure_failures(self, max_degree: int, max_report=5):
        """Bracket-compatibility check on the surviving monomials up to
        max_degree, as ``VermaModule.closure_failures`` (same arguments,
        same list), decided at this module's point on its reduced rows.

        Every row the check touches is read once through ``int_row`` on
        the chi-doubled basis: the monomials up to the degree, then the
        keys their images reach.  Rows are rescaled to the lcm D of their
        scales, and ``StructureTable.residuals`` sums each residual in
        ints.
        """
        closure_arguments(max_degree, max_report)
        names = self.table.names
        basis = [(mono, 0) for mono in self.enumerate_monomials(max_degree)]
        rows = {g: {} for g in names}

        def read(key):
            for g in names:
                rows[g][key] = self.int_row(g, key)

        for key in basis:
            read(key)
        seen = set(basis)
        for g in names:
            for key in basis:
                for key2, _ in rows[g][key][1]:
                    if key2 not in seen:
                        seen.add(key2)
                        read(key2)
        D = lcm(*(scale for by_key in rows.values()
                  for scale, _ in by_key.values()))
        for by_key in rows.values():
            for key, (scale, entries) in by_key.items():
                by_key[key] = entries if scale == D else tuple(
                    (k, v * (D // scale)) for k, v in entries)
        return [(x, y, f[0]) for x, y, f, _, _ in
                islice(self.table.residuals(rows, basis, D), max_report)]

    # -- dimensions -----------------------------------------------------------

    def _top_degree(self) -> Optional[int]:
        """2d when the quotient is finite, else None.  It is infinite if
        m != 0: [P, G] = M, and a commutator has trace 0 on a finite module.
        Otherwise D, K and -H span sl2, so on a finite quotient D = n - d at
        degree n has an integral spectrum symmetric about 0: d is an integer
        >= 0 and the top degree is 2d.  A monomial of positive degree starts
        with a raising letter of degree 1 or 2, so if degrees 2d+1 and 2d+2
        have no survivor, no higher degree has one."""
        d = None if self.lw.m else _integer_ge(self.lw.d, 0)
        if d is not None and all(_degree(self.base.weight(mono)) <= 2 * d for
                                 mono in self.enumerate_monomials(2 * d + 2)):
            return 2 * d
        return None

    def dimension(self) -> Optional[int]:
        """Total dimension (None when infinite)."""
        top = self._top_degree()
        return None if top is None else len(self.enumerate_monomials(top))

    def all_basis_monomials(self):
        """Every surviving monomial (finite quotients only)."""
        top = self._top_degree()
        if top is None:
            raise ValueError("module is infinite dimensional")
        return self.enumerate_monomials(top)


def quotient_by_singular(space, vec: ModuleVector) -> FactorModule:
    """Quotient a Verma module or an existing factor by one more vector,
    which must be singular in ``space``: ``ValueError`` unless the new
    quotient sends ann vec to zero for every annihilator.

    That is the check in ``space`` itself.  ann vec has weight
    wt(vec) + deg(ann), lexicographically below wt(vec), while U(n+) vec
    only has weights wt(vec) + (a sum of raising degrees); so at the
    weight of ann vec the new submodule N equals the old one.
    """
    fm = FactorModule(_space_module(space),
                      getattr(space, "generators", []) + [vec])
    residuals = [ann for ann in ANNIHILATORS[fm.kind] if fm.act(ann, vec)]
    if residuals:
        raise ValueError(
            "quotient generator is not singular (fails %s)" % residuals)
    return fm


# ---------------------------------------------------------------------------
# classification


@dataclass
class ClassificationRecord:
    kind: str
    d: Fraction
    m: Fraction
    r: Optional[Fraction]
    verdict: str
    dimension: Optional[int]          # None = infinite
    chain: List[str] = field(default_factory=list)
    cutoff: int = 0
    no_singular_up_to: Optional[int] = None
    terminal: object = field(default=None, repr=False, compare=False)
    depth: Optional[int] = None       # the certificate's search degree

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.kind,
            "d": str(self.d),
            "m": str(self.m),
            "r": None if self.r is None else str(self.r),
            "verdict": self.verdict,
            "dimension": "infinite" if self.dimension is None else self.dimension,
            "chain": list(self.chain),
            "cutoff": self.cutoff,
            "no_singular_up_to": self.no_singular_up_to,
        }

    @staticmethod
    def from_json_dict(data) -> "ClassificationRecord":
        dim = data["dimension"]
        r = data.get("r")
        return ClassificationRecord(
            kind=data["algebra"], d=Fraction(data["d"]), m=Fraction(data["m"]),
            r=None if r is None else Fraction(r), verdict=data["verdict"],
            dimension=None if dim == "infinite" else dim,
            chain=list(data["chain"]), cutoff=data["cutoff"],
            no_singular_up_to=data["no_singular_up_to"],
        )

    def __eq__(self, other):
        if not isinstance(other, ClassificationRecord):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()


def _integer_ge(value, bound) -> Optional[int]:
    value = Fraction(value)
    if value.denominator == 1 and value >= bound:
        return int(value)
    return None


def classify(lw: LowestWeight, cutoff: int = 8,
             certify: bool = False) -> ClassificationRecord:
    """Follow the quotient chain to the terminal irreducible module.  Each
    branch lists its steps (singular vector, its chain label, the label of
    the quotient by it); one walk takes the quotients in turn, and the
    verdict is the last chain label.  The certificate searches the
    terminal to the cutoff, or to 2d + 7 when it is finite."""
    module, d, r = VermaModule(lw), lw.d, lw.r
    vec, steps = module.basis_vector, []
    chain = ["V^d" if lw.kind == "ssch1" else "V^{d,r}"]
    if lw.kind == "ssch1" and lw.m:
        p = _integer_ge(d + Fraction(1, 2), 0)
        if p is not None:
            steps.append((closed_form_n1(module, p),
                          "I^d = <(G^2-2mK)^%d (G-2chi S) v0>" % p, "V^d/I^d"))
    elif lw.kind == "ssch1":
        steps.append((closed_form_n1(module, 1), "I^1 = <G v0>", "V^d/I^1"))
        p = _integer_ge(d, 0)
        if p is not None:
            steps.append((vec((0, p, 1)), "I^p = <K^%d S w0>" % p,
                          "(V^p/I^1)/I^p"))
    elif lw.m:
        p = _integer_ge(d - Fraction(1, 2), 0)
        if p is not None:
            steps.append((closed_form_n2(module, p),
                          "I^{d,r} = <(G^2-2mK)^%d u0>" % p, "V^{d,r}/I^{d,r}"))
    else:
        steps += [(vec((0, 0, 0, 0, 1)), "I^0 = <X+ v0>", "V^{d,r}/I^0"),
                  (vec((1, 0, 0, 0, 0)), "II^1 = <G w0>", "L^{d,r}")]
        if r == -d or r == d:
            s, t = "+-" if r == -d else "-+"
            ell, exps = _integer_ge(d, 0), {"+": (1, 0), "-": (0, 1)}
            steps.append((vec((0, 0) + exps[s] + (0,)), "<S%s z0>" % s,
                          "L%s^d" % s))
            if ell is not None:
                steps.append((vec((0, ell) + exps[t] + (0,)),
                              "II^l = <K^%d S%s |0>>" % (ell, t),
                              "L%s^l/II^l" % s))
        else:
            p = _integer_ge(d, 1)
            if p is not None:
                steps.append((ModuleVector(module, {
                    (0, p - 1, 1, 1, 0): module.ring.one,
                    (0, p, 0, 0, 0): module.coerce_scalar((d - r) / d)}),
                    "<z_s^%d>" % (p - 1), "L^{p,r}"))
    terminal = module
    for singular, label, quotient in steps:
        terminal = quotient_by_singular(terminal, singular)
        chain += [label, quotient]
    dimension = terminal.dimension() if steps else None
    depth = found = None
    if certify:
        depth = cutoff if dimension is None else max(cutoff, int(2 * d) + 7)
        found = depth if not find_singular(terminal, depth) else -1
    return ClassificationRecord(lw.kind, d, lw.m, r, chain[-1], dimension,
                                chain, cutoff, found, terminal, depth)


# ---------------------------------------------------------------------------
# the bilinear (Shapovalov-style) form


@dataclass
class GramMatrix:
    weight: object
    labels: list           # [(monomial, chi exponent)]
    parities: list         # total parity per label
    matrix: list           # Fraction entries, even scalar parts
    det: Fraction
    parity_violations: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.labels)

    def to_json_dict(self, module) -> dict:
        return {
            "weight": list(self.weight) if isinstance(self.weight, tuple)
            else self.weight,
            "basis": ["%s%s" % ("chi*" if e else "", module.monomial_str(m))
                      for m, e in self.labels],
            "parities": list(self.parities),
            "matrix": [[str(v) for v in row] for row in self.matrix],
            "det": str(self.det),
        }


# The omega1 image of each raising exponent, in monomial order: G -> P,
# K -> H, S -> Q (N=2: S+ -> Q-, S- -> Q+, X+ -> X-); chi maps to X.
_OMEGA1_LETTERS = {"ssch1": ("P", "H", "Q"),
                   "ssch2": ("P", "H", "Q-", "Q+", "X-")}

# module -> {label: vacuum functional}, see ``_functional``
_FUNCTIONALS = WeakKeyDictionary()


def _omega1_word(module, label, epsilon, lam):
    """Reversed omega1-image word for a (monomial, chi) label, with sign.

    chi^e G^k K^l ... v0 equals (+-1) (word X^e suffix) v0; omega1 reverses
    the word and maps each letter to a signed single generator, so the
    pairing reduces to applying lowering generators to the right argument.
    """
    mono, e = label
    if module.kind == "ssch1":
        k, l, a = mono
        word = ["X"] * e + ["Q"] * a + ["H"] * l + ["P"] * k
        sign = (-1) ** (a * e + epsilon * k + lam * a + (epsilon + lam) * e)
    else:
        k, l, a, b, c = mono
        if e:
            raise ValueError("N=2 coefficients carry no chi")
        word = ["X-"] * c + ["Q+"] * b + ["Q-"] * a + ["H"] * l + ["P"] * k
        sign = (-1) ** (lam * (a + b) + (epsilon + lam) * c + epsilon * k)
    return word, sign


def _first_letter(kind, label):
    """The letter a label's omega1 word applies first, and the label whose
    word is the rest: the first nonzero exponent lowered by one."""
    mono, e = label
    for i, n in enumerate(mono):
        if n:
            return (_OMEGA1_LETTERS[kind][i],
                    (mono[:i] + (n - 1,) + mono[i + 1:], e))
    return "X", (mono, e - 1)


def _functional(module: VermaModule, label):
    """The vacuum functional of a label: each key at the label's weight ->
    (even, chi) ints over D^len(word), the coefficients of v0 and chi v0 in
    the label's omega1 word (without its sign) applied to the key; zeros
    are not stored.  With g the word's first letter and label' the rest,
    f(key) = sum of c f'(key') over ``int_row(g, key)``.  The labels missing
    from the module's memo are built bottom-up, without recursion.
    """
    vac = module.vacuum
    memo = _FUNCTIONALS.setdefault(
        module, {(vac, 0): {(vac, 0): (1, 0), (vac, 1): (0, 1)}})
    todo, cur = [], label
    while cur not in memo:
        gen, below = _first_letter(module.kind, cur)
        todo.append((cur, gen, below))
        cur = below
    for cur, gen, below in reversed(todo):
        lower = memo[below]
        out = memo[cur] = {}
        for key in weight_coords(module, module.weight(cur[0])).labels:
            even = chi = 0
            for key2, c in module.int_row(gen, key)[1]:
                value = lower.get(key2)
                if value:
                    even += c * value[0]
                    chi += c * value[1]
            if even or chi:
                out[key] = (even, chi)
    return memo[label]


def gram(module: VermaModule, weight, epsilon=0, lam=0,
         check_adjoint=True) -> GramMatrix:
    """Gram matrix of the weight subspace for the omega1-induced pairing.

    The basis doubles chi-dressed monomials (chi v is realised through the
    odd zero-degree generator, so every basis vector is a generator word
    applied to v0).  Entries of mixed total parity vanish in their even
    scalar part; the matrix of even parts is therefore parity-block-diagonal
    and its determinant detects the radical exactly.

    Row i is the left label's vacuum functional (``_functional``) at the
    right labels: ints over D^len(word_i), D the module's ``scale``, times
    the word's sign.  The module keeps every functional it builds, each from
    the one a letter shorter; only the sign depends on (epsilon, lambda), so
    the four forms share them.  The determinant is taken from the int rows;
    the Fraction matrix is only rendered.
    """
    if check_adjoint:
        amap = build_adjoint(module.table, "omega1", epsilon, lam)
        rep = verify_adjoint(module.table, amap)
        if not rep.ok:
            raise ValueError("omega1 failed its anti-automorphism check")
    labels = list(weight_coords(module, weight).labels)

    def parity_of(label):
        return (module.monomial_parity(label[0]) + label[1]) & 1

    labels.sort(key=lambda lab: (parity_of(lab),
                                 [-x for x in module.order_key(lab[0])], lab[1]))
    parities = [parity_of(lab) for lab in labels]
    matrix, int_matrix, violations = [], [], []
    scale = 1
    for left, p_left in zip(labels, parities):
        word, wsign = _omega1_word(module, left, epsilon, lam)
        den = module.scale ** len(word) * wsign
        values = _functional(module, left)
        row = []
        for right, p_right in zip(labels, parities):
            even, chi = values.get(right, (0, 0))
            if p_left == p_right:
                if chi:
                    violations.append((left, right,
                                       "chi part on diagonal block"))
            elif even:
                violations.append((left, right, "even part across parities"))
            row.append(even)
        int_matrix.append(row)
        matrix.append([Fraction(v, den) if v else _ZERO for v in row])
        scale *= den
    return GramMatrix(weight, labels, parities, matrix,
                      determinant(int_matrix, scale=scale),
                      parity_violations=violations)
