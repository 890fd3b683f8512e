"""Reference implementations that only the tests use.

Each computes what a library function computes along an older or more
direct path, and must agree with the library exactly.  Most apply
generators to whole GradedScalar-weighted vectors through ``act``, the way
the library did before it read integer rows; ``act`` itself sums the ints
of ``int_row``, and ``act_oracle`` keeps the Fraction row sums it replaced:

* ``closure_failures_oracle`` -- the bracket-compatibility loop on
  ``space.act`` vectors that ``closure_failures`` replaced: integer sums
  over ``int_row`` on a factor module, the kind's closure certificate
  evaluated at the lowest weight on a Verma module; same failure triples,
  in the same order.  A module subclass that overrides ``_parametric_row``
  changes both sides alike; one that overrides ``_act_mono_engine`` changes
  only the oracle's rows, not the certificate.
* ``closure_certificate_oracle`` -- the closure certificate's residuals
  as the library summed them before it read them off one int pass at a
  Kronecker point: every row entry a linear form in (1, d, m, r, chi^2),
  every composite a product of two of them, summed per key into the 15
  coefficients of a quadratic form; ``ClosureCertificate.residuals`` must
  equal it form by form, in the same order.
* ``gram_pair`` -- one pairing value of the bilinear form, applying the
  whole omega1 word of the left label to the right one; ``quotient.gram``,
  which builds each row from memoised one-letter-shorter functionals, must
  agree with its even part entry by entry, and its chi part decides the
  parity violations.
* ``annihilator_matrix_oracle`` -- the per-label act/to_coords loop that
  ``singular._annihilator_matrix`` replaced.
* ``rewriting_quotient_oracle`` -- the rule rewriting that
  ``FactorModule`` used before it kept one integer echelon of the
  submodule per weight: rules oriented by their leading monomials,
  completed under the raising generators, and a reduction that assumes a
  shifted rule keeps its lead (``RewritingError`` where it does not, as at
  ssch2 d = r = 1/2 and 3/2).  Wherever it does not raise, ``reduce`` must
  equal ``FactorModule.reduce``.
* ``normal_order`` -- a generator word applied to v0, rewritten into the
  canonical basis through the engine.
* ``raise_oracle`` -- the hand-written products of a raising generator
  with a PBW monomial that the library kept before it derived them from
  the bracket table; ``VermaModule._raise`` must equal it.
* ``engine_rows_oracle`` -- the normal-ordering engine as it was before it
  was compiled once per algebra kind: the same bottom-up walk, in Fraction
  arithmetic at one module's d, m, r and chi, on ``raise_oracle``'s
  products; the module's evaluated parametric rows must equal its rows
  exactly.
* ``chi_rule`` -- the row at chi times a monomial from the row at the
  monomial, in Fractions: the Koszul/chi^2 rule that ``int_row`` applies
  at flag 1.
* ``act_oracle`` -- ``VermaModule.act`` as it was before it summed int
  rows: e row + c ``chi_rule(row)`` in Fractions over the coefficients
  e + c chi of a vector, on ``engine_rows_oracle``'s rows; ``act`` must
  equal it, and ``FactorModule.act`` its reduction.
* ``closed_form_rows_oracle`` -- the paper's closed-form N=1 action table,
  which the library read for every N=1 row before it took them from the
  engine: an oracle independent of the normal-ordering walk, one formula
  per generator; the module's ``act`` and ``int_row`` on a monomial and on
  chi times it must equal it exactly at every degree.
* ``derive_even`` / ``derive_odd`` -- one derivative on a whole superspace
  polynomial; ``reference_apply`` builds the term-by-term reference for
  ``SuperDiffOp.apply`` from them and ``SuperPoly`` products.
* ``realization_oracle`` -- the paper's vector-field realization written as
  products and sums of ``SuperPoly`` monomials, the way the library built
  it before it evaluated one table of affine coefficients per kind;
  ``build_realization`` must equal it term by term, coefficient dicts in
  insertion order included.
* ``verify_relations_oracle`` -- the Fraction residual loop that
  ``realization.verify_relations`` replaced, on ``reference_apply``
  images, always over every monomial up to the full degree: the reference
  for the library's shortcut that decides each bracket on the monomials
  of degree <= 2 (operator order); same report, failure strings included.
  Images are kept per operator object across calls, so a mutant
  recomputes only its own.
* ``Poly`` / ``realization_certificate_oracle`` -- sparse polynomials with
  int coefficients, and the realization certificate's residuals summed as
  ``Poly`` values in (d, m), the way the library formed them before it
  read them off one int pass at a Kronecker point; the decoded residuals
  of ``realization._symbolic_residuals`` must equal them key by key.
* ``verify_structure_oracle`` / ``verify_adjoint_oracle`` -- the Fraction
  and ``QI`` dict loops that ``superalgebra.verify_structure`` and
  ``verify_adjoint`` replaced: Jacobi over every ordered triple, and both
  adjoint laws through ``adjoint_apply``; same reports.
* ``adjoint_apply`` -- an adjoint map on a whole ``QI`` element dict.

After them come helpers that only the tests call, kept out of the package:

* ``parse_qi`` -- the Gaussian literal syntax that ``scalars.qi_str``
  renders, read back.
* ``closes_under_bracket`` -- (closed, escapes) for a generator subset of
  a structure table.
* ``reachable_weight`` -- whether a weight lies above another by a weight
  of the raising part, as the Gram-determinant tests ask.
* ``rho_relabel`` / ``build_pm_pair`` / ``intertwiner_failures`` -- the
  +/- swapping automorphism of ssch2, the massless factor pair L+^d, L-^d
  that ``classify`` builds on r = -d and r = d, and the check that the
  relabelling carries one action onto the other.
"""

from fractions import Fraction
from math import lcm, prod
from operator import add, sub
from weakref import WeakKeyDictionary

from superschrod.quotient import _omega1_sign, classify
from superschrod.realization import (RealizationReport, SuperDiffOp,
                                     SuperPoly, SuperSpace, _affine,
                                     _exact_int, _op, _residual_pass,
                                     enumerate_polyspace, poly_mono)
from superschrod.scalars import (QI, QI_ONE, QI_ZERO, _RATIONAL_RE,
                                 as_fraction, mul_odd_words, parse_rational)
from superschrod.singular import WeightCoords, _space_module
from superschrod.superalgebra import AdjointReport, StructureReport
from superschrod.verma import LowestWeight, ModuleVector


def _label_vector(module, label):
    """The basis vector of a (monomial, chi exponent) label."""
    mono, e = label
    return ModuleVector(module, {mono: module.ring.chi if e else
                                 module.ring.one})


# The omega1 image of each raising exponent, in monomial order: G -> P,
# K -> H, S -> Q (N=2: S+ -> Q-, S- -> Q+, X+ -> X-); chi maps to X.
_OMEGA1_IMAGES = {"ssch1": ("P", "H", "Q"),
                  "ssch2": ("P", "H", "Q-", "Q+", "X-")}


def gram_pair(module, left_label, right_label, epsilon=0, lam=0):
    """Single pairing value as a GradedScalar (full chi-carrying value):
    the left label's whole reversed omega1 word, X^e then the images of its
    exponents from the last, applied to the right label's vector."""
    sign = _omega1_sign(module.kind, left_label, epsilon, lam)
    vec = _label_vector(module, right_label)
    mono, e = left_label
    word = ["X"] * e + [letter for letter, n in
                        reversed(list(zip(_OMEGA1_IMAGES[module.kind], mono)))
                        for _ in range(n)]
    for gen in reversed(word):
        vec = module.act(gen, vec)
    value = vec.terms.get(module.vacuum, module.ring.zero)
    return value if sign > 0 else -value


def annihilator_matrix_oracle(space, coords, annihilators):
    """Stacked annihilator blocks, column by column through ``space.act``."""
    module = _space_module(space)
    targets = [WeightCoords(space, module.shift_weight(coords.weight, ann))
               for ann in annihilators]
    blocks = [[[Fraction(0)] * coords.dim for _ in range(target.dim)]
              for target in targets]
    for col, label in enumerate(coords.labels):
        vec = _label_vector(module, label)
        for ann, target, block in zip(annihilators, targets, blocks):
            image = space.act(ann, vec)
            if not target.dim:
                continue
            for row_idx, value in enumerate(target.to_coords(image)):
                if value:
                    block[row_idx][col] = value
    return [row for block in blocks for row in block]


class RewritingError(RuntimeError):
    """The rule rewriting broke down: a shifted rule lost its expected
    lead, or completion did not stabilise."""


_COMPLETION_CAP = 60


def _divides(lead, mono) -> bool:
    return all(l <= m for l, m in zip(lead, mono))


class RewritingQuotient:
    """The rule-rewriting quotient that ``FactorModule`` was before it kept
    one echelon of the submodule per weight.  Each generator, reduced and
    made monic, becomes a rule whose leading monomial (largest under
    ``order_key``) rewrites to smaller ones; completion adds the rules that
    the raising generators make of it, at most ``_COMPLETION_CAP`` of them.
    Reducing a monomial that a rule's lead divides applies the raising
    word of the difference to the rule and assumes that its lead is the
    monomial: where a leading coefficient cancels, that fails and
    ``RewritingError`` is raised."""

    def __init__(self, base, generators):
        self.base = base
        self.rules = []  # list of (lead monomial, monic ModuleVector)
        for vec in generators:
            self._install(vec)

    def _install(self, vec):
        queue = [self.reduce(vec)]
        steps = 0
        while queue:
            steps += 1
            if steps > _COMPLETION_CAP:
                raise RewritingError("rule completion did not stabilise")
            f = self.reduce(queue.pop(0))
            if not f:
                continue
            lead = f.leading_monomial()
            f = f.scale(f.terms[lead].inverse())
            self.rules.append((lead, f))
            for gen in self.base.plus_set:
                queue.append(self.base.act(gen, f))

    def prefix_apply(self, delta, vec):
        """Apply the raising word with exponent vector ``delta``."""
        for gen, count in reversed(tuple(zip(self.base.plus_set, delta))):
            for _ in range(count):
                vec = self.base.act(gen, vec)
        return vec

    def reduce(self, vec):
        """Confluent reduction to the quotient's canonical representatives."""
        if not self.rules:
            return vec
        vec = vec.copy()
        while True:
            target = None
            for mono in sorted(vec.terms, key=self.base.order_key,
                               reverse=True):
                for lead, rule_vec in self.rules:
                    if _divides(lead, mono):
                        target = (mono, lead, rule_vec)
                        break
                if target:
                    break
            if target is None:
                return vec
            mono, lead, rule_vec = target
            delta = tuple(m - l for m, l in zip(mono, lead))
            shifted = self.prefix_apply(delta, rule_vec)
            s_lead = shifted.leading_monomial()
            if s_lead != mono:
                raise RewritingError(
                    "reduction order violated: expected lead %s, got %s"
                    % (mono, s_lead))
            factor = vec.terms[mono] * shifted.terms[mono].inverse()
            vec = vec - shifted.scale(factor)

    def survives(self, mono) -> bool:
        return not any(_divides(lead, mono) for lead, _ in self.rules)


def rewriting_quotient_oracle(base, generators):
    """The rewriting quotient of ``base`` by ``generators``, installed in
    order (``RewritingQuotient``); RewritingError where rewriting breaks."""
    return RewritingQuotient(base, generators)


def normal_order(module, word):
    """Rewrite a generator word applied to v0 into the canonical basis."""
    vec = module.vacuum_vector()
    for gen in reversed(list(word)):
        vec = module.act(gen, vec)
    return vec


def _odd_tail_products(kind, gen, tail):
    """Product of a raising odd generator with the odd tail of a monomial.

    Returns [(int coeff, dk, dl, new tail)] with Koszul signs and the
    anticommutator corrections (S S, S+ S- -> K; S- X+ -> G) folded in.
    """
    if kind == "ssch1":
        (a,) = tail
        if gen == "S":
            return [(1, 0, 0, (1,))] if a == 0 else [(-1, 0, 1, (0,))]
        raise ValueError(gen)
    a, b, c = tail
    if gen == "S+":
        return [] if a else [(1, 0, 0, (1, b, c))]
    if gen == "S-":
        if b:
            # S- S+ S- = -2 K S-  (S-^2 = 0)
            return [(-2, 0, 1, (0, 1, c))] if a else []
        if a:
            return [(-1, 0, 0, (1, 1, c)), (-2, 0, 1, (0, 0, c))]
        return [(1, 0, 0, (0, 1, c))]
    if gen == "X+":
        if c:
            if not a and not b:
                return []
            if a and not b:
                return []
            if b and not a:
                return [(-1, 1, 0, (0, 0, 1))]
            return [(1, 1, 0, (1, 0, 1))]
        if not a and not b:
            return [(1, 0, 0, (0, 0, 1))]
        if a and not b:
            return [(-1, 0, 0, (1, 0, 1))]
        if b and not a:
            return [(-1, 0, 0, (0, 1, 1)), (-1, 1, 0, (0, 0, 0))]
        return [(1, 0, 0, (1, 1, 1)), (1, 1, 0, (1, 0, 0))]
    raise ValueError(gen)


def raise_oracle(module, gen, mono):
    """Raising generator on a monomial of G^k K^l (odd tail) v0: [(int
    coeff, monomial)].  G and K commute with every raising generator."""
    if gen == "G":
        return [(1, (mono[0] + 1,) + mono[1:])]
    if gen == "K":
        return [(1, (mono[0], mono[1] + 1) + mono[2:])]
    k, l = mono[0], mono[1]
    return [(c, (k + dk, l + dl) + tail) for c, dk, dl, tail
            in _odd_tail_products(module.kind, gen, mono[2:])]


def engine_rows_oracle(module):
    """(gen, monomial) -> row of (monomial, even, chi) Fractions, computed
    by the Fraction walk of the engine, cached per returned function."""
    F0, F1 = Fraction(0), Fraction(1)
    cache = {}
    vacuum_values = {"D": -module.lw.d, "M": module.lw.m, "R": module.lw.r}

    def one_row(gen, mono):
        if gen in module._raising:
            return tuple((mn, Fraction(c), F0)
                         for c, mn in raise_oracle(module, gen, mono))
        if mono == module.vacuum:
            value = vacuum_values.get(gen)
            if value:
                return ((mono, value, F0),)
            if gen == "X" and module.uses_chi:
                return ((mono, F0, F1),)
            return ()
        w, rest = module._leading_factor(mono)
        parity = module.table.parity
        sign = -1 if (parity(gen) and parity(w)) else 1
        chi_sign = -sign if parity(w) else sign
        even, chi = {}, {}
        for mn, e, c in cache[(gen, rest)]:
            for k, mn2 in raise_oracle(module, w, mn):
                even[mn2] = even.get(mn2, 0) + sign * k * e
                chi[mn2] = chi.get(mn2, 0) + chi_sign * k * c
        for h, ch in module._brackets[gen][w]:
            for mn, e, c in cache[(h, rest)]:
                even[mn] = even.get(mn, 0) + ch * e
                chi[mn] = chi.get(mn, 0) + ch * c
        row = sorted(((mn, Fraction(e), Fraction(chi[mn]))
                      for mn, e in even.items()),
                     key=lambda entry: module.order_key(entry[0]))
        return tuple(entry for entry in row if entry[1] or entry[2])

    def row(gen, mono):
        levels = []
        need, cur = (gen,), mono
        while need:
            todo = [g for g in need if (g, cur) not in cache]
            if not todo:
                break
            levels.append((cur, todo))
            if cur == module.vacuum:
                break
            w, rest = module._leading_factor(cur)
            below = set()
            for g in todo:
                if g not in module._raising:
                    below.add(g)
                    below.update(h for h, _ in module._brackets[g][w])
            need, cur = below, rest
        for cur, todo in reversed(levels):
            for g in todo:
                cache[(g, cur)] = one_row(g, cur)
        return cache[(gen, mono)]

    return row


def chi_rule(row, odd, chi_square):
    """The row at chi times a monomial, from the row at the monomial, as
    (monomial, even, chi) Fractions: g (chi w) = (-1)^{|g|} chi (g w), and
    chi (e + c chi) = c chi^2 + e chi."""
    sign = -1 if odd else 1
    return tuple((mn, sign * c * chi_square, sign * e) for mn, e, c in row)


# module -> its ``engine_rows_oracle``, for ``act_oracle``
_ENGINE_ROWS = WeakKeyDictionary()


def act_oracle(module, gen, target):
    """A generator on a monomial or a vector of a Verma module, summed in
    Fractions: e row + c ``chi_rule(row)`` per coefficient e + c chi, the
    rows from ``engine_rows_oracle``."""
    rows = _ENGINE_ROWS.get(module)
    if rows is None:
        rows = _ENGINE_ROWS[module] = engine_rows_oracle(module)
    if isinstance(target, tuple):
        target = module.basis_vector(target)
    ring = module.ring
    odd = module.table.parity(gen)
    even, chi = {}, {}
    for mono, coeff in target.terms.items():
        row = rows(gen, mono)
        parts = [(coeff.even, row)] if coeff.even else []
        if coeff.odd:
            parts.append((coeff.odd, chi_rule(row, odd, ring.chi_square)))
        for scale, entries in parts:
            for mn, e, c in entries:
                even[mn] = even.get(mn, 0) + scale * e
                chi[mn] = chi.get(mn, 0) + scale * c
    return ModuleVector(module, {mn: ring.scalar(e, chi[mn])
                                 for mn, e in even.items()})


def closed_form_rows_oracle(module):
    """(gen, monomial) -> row of (monomial, even, chi) Fractions of an N=1
    module, from the closed-form table, cached per returned function."""
    F0, F1 = Fraction(0), Fraction(1)
    d, m = module.lw.d, module.lw.m
    chi = F1 if module.uses_chi else F0  # X v0 = chi v0, or 0
    cache = {}

    def row(gen, mono):
        cached = cache.get((gen, mono))
        if cached is not None:
            return cached
        k, l, a = mono
        out = []
        if gen == "K":
            out = [((k, l + 1, a), F1, F0)]
        elif gen == "G":
            out = [((k + 1, l, a), F1, F0)]
        elif gen == "S":
            # raising: S v_{k,l} = nu_{k,l}; S nu_{k,l} = -v_{k,l+1} (S^2 = -K)
            out = [((k, l, 1), F1, F0)] if a == 0 else \
                [((k, l + 1, 0), -F1, F0)]
        elif gen == "D":
            out = [((k, l, a), k + 2 * l + a - d, F0)]
        elif gen == "M":
            out = [((k, l, a), m, F0)]
        elif gen == "X":
            out = [((k, l, a), F0, chi)]
            if a:
                out.append(((k + 1, l, 0), -F1, F0))
        elif gen == "P":
            if l:
                out.append(((k + 1, l - 1, a), Fraction(l), F0))
            if a:
                out.append(((k, l, 0), F0, chi))
            if m and k:
                out.append(((k - 1, l, a), m * k, F0))
        elif gen == "Q":
            if a == 0:
                if k and chi:
                    out.append(((k - 1, l, 0), F0, chi * k))
                if l:
                    out.append(((k, l - 1, 1), Fraction(l), F0))
            else:
                if k and chi:
                    out.append(((k - 1, l, 1), F0, chi * k))
                coeff = d - l - k
                if coeff:
                    out.append(((k, l, 0), coeff, F0))
        elif gen == "H":
            if a == 0:
                c1 = l * (k + l - d - 1)
                if l and c1:
                    out.append(((k, l - 1, 0), c1, F0))
                c2 = m * k * (k - 1) / 2
                if k >= 2 and c2:
                    out.append(((k - 2, l, 0), c2, F0))
            else:
                c1 = l * (k + l - d)
                if l and c1:
                    out.append(((k, l - 1, 1), c1, F0))
                if k and chi:
                    out.append(((k - 1, l, 0), F0, chi * k))
                c2 = m * k * (k - 1) / 2
                if k >= 2 and c2:
                    out.append(((k - 2, l, 1), c2, F0))
        else:
            raise ValueError("unknown generator %r" % gen)
        out = tuple(row for row in out if row[1] or row[2])
        cache[(gen, mono)] = out
        return out

    return row


def closure_failures_oracle(space, max_degree, max_report=5):
    """Failing (x, y, monomial) triples of act(x, act(y, w)) -
    (-1)^{|x||y|} act(y, act(x, w)) - act([x,y}, w), in the library's
    order, at most ``max_report`` of them."""
    act = space.act
    table = space.table
    names = table.names
    monos = space.enumerate_monomials(max_degree)
    failures = []
    vectors = {(g, mono): act(g, mono) for g in names for mono in monos}
    for i, x in enumerate(names):
        px = table.parity(x)
        for y in names[i:]:
            sign = -1 if (px and table.parity(y)) else 1
            minus_bracket = [(h, -c) for h, c in
                             table.bracket_gens(x, y).items()]
            for mono in monos:
                residual = act(x, vectors[(y, mono)])
                for mn, coeff in act(y, vectors[(x, mono)]).terms.items():
                    residual.add_term(mn, -coeff if sign == 1 else coeff)
                for h, c in minus_bracket:
                    for mn, coeff in vectors[(h, mono)].terms.items():
                        residual.add_term(mn, coeff * c)
                if residual:
                    failures.append((x, y, mono))
                    if len(failures) >= max_report:
                        return failures
    return failures


# the terms v_i v_j (i <= j) of a quadratic form in v = (1, d, m, r, chi^2),
# in order, and _PAIR_INDEX[i][j] = _PAIR_INDEX[j][i], the place of v_i v_j
_PAIRS = tuple((i, j) for i in range(5) for j in range(i, 5))
_PAIR_INDEX = tuple(tuple(_PAIRS.index((min(i, j), max(i, j)))
                          for j in range(5)) for i in range(5))


def _form_row(module, gen, key):
    """Row of ``gen`` at a doubled-basis key of ``module`` as (key, linear
    form) pairs, a linear form being ((variable, int), ...) with nonzero
    ints, over the variables (1, d, m, r, chi^2) by index."""
    mono, flag = key
    seed = module.uses_chi
    sign = -1 if flag and module._parity[gen] else 1
    row = []
    for mn, a0, ad, am, ar, x in module._parametric_row(gen, mono):
        even = tuple((i, sign * a) for i, a in enumerate((a0, ad, am, ar)) if a)
        chi = ((4 if flag else 0, sign * x),) if x and seed else ()
        row += [((mn, f), form) for f, form in
                enumerate((chi, even) if flag else (even, chi)) if form]
    return tuple(row)


def closure_certificate_oracle(module, max_degree):
    """``ClosureCertificate().residuals(module, max_degree)`` summed as
    polynomials: every composite term a product of two linear forms and
    the bracket part times v_0 = 1, each residual a list of the 15
    coefficients of v_i v_j per key; same residuals, in the same order."""
    table = module.table
    names = table.names
    basis = [(mono, 0) for mono in module.enumerate_monomials(max_degree)]
    # keys are numbered in the order they are met, the monomials first;
    # rows[g][n] is the row of g at key n, entries numbered too, for the
    # monomials and every key their rows reach
    index = {key: n for n, key in enumerate(basis)}
    rows = {g: [] for g in names}

    def read(key):
        for g in names:
            rows[g].append(tuple(
                (index.setdefault(key2, len(index)), form)
                for key2, form in _form_row(module, g, key)))

    for key in basis:
        read(key)
    for key in list(index)[len(basis):]:
        read(key)
    keys = list(index)
    records = []
    pairs = [(x, y) for i, x in enumerate(names) for y in names[i:]]
    for n, (x, y) in enumerate(pairs):
        rx, ry = rows[x], rows[y]
        if y != x:
            swap = 1 if (table.parity(x) and table.parity(y)) else -1
            composites = ((ry, rx, 1), (rx, ry, swap))
        elif table.parity(x):
            composites = ((rx, rx, 2),)
        else:
            composites = ()
        minus_bracket = [(rows[h], -c) for h, c in table.ad[x][y]]
        for f in range(len(basis)):
            acc = {}  # key -> coefficients of the v_i v_j by _PAIRS
            for first, second, factor in composites:
                for key, form in first[f]:
                    for key2, form2 in second[key]:
                        terms = acc.get(key2)
                        if terms is None:
                            terms = acc[key2] = [0] * len(_PAIRS)
                        for i, a in form:
                            a *= factor
                            place = _PAIR_INDEX[i]
                            for j, b in form2:
                                terms[place[j]] += a * b
            for rh, c in minus_bracket:
                for key2, form in rh[f]:
                    terms = acc.get(key2)
                    if terms is None:
                        terms = acc[key2] = [0] * len(_PAIRS)
                    for j, b in form:
                        terms[j] += c * b  # v_0 v_j is in place j
            nonzero = [(keys[k], terms) for k, terms in acc.items()
                       if any(terms)]
            if nonzero:
                mono = basis[f][0]
                records.append((n, module.order_key(mono), x, y, mono, tuple(
                    (key, tuple((ij, v) for ij, v in zip(_PAIRS, terms) if v))
                    for key, terms in sorted(nonzero))))
    records.sort(key=lambda record: record[:2])
    return [(x, y, f, residual) for _, _, x, y, f, residual in records]


def derive_even(which: str, poly: SuperPoly) -> SuperPoly:
    out = SuperPoly(poly.space)
    for (t, x, w), c in poly.terms.items():
        if which == "t" and t:
            out.add_term((t - 1, x, w), c * t)
        elif which == "x" and x:
            out.add_term((t, x - 1, w), c * x)
    return out


def derive_odd(name: str, poly: SuperPoly) -> SuperPoly:
    """Left derivative: the sign counts the odd variables passed over."""
    out = SuperPoly(poly.space)
    for (t, x, w), c in poly.terms.items():
        if name not in w:
            continue
        pos = w.index(name)
        out.add_term((t, x, w[:pos] + w[pos + 1:]), -c if pos % 2 else c)
    return out


def reference_apply(op, poly: SuperPoly) -> SuperPoly:
    """Term by term: derivative word on the whole polynomial, then the
    coefficient product."""
    out = SuperPoly(op.space)
    for coeff, dt, dx, odds in op.terms:
        g = poly
        for od in reversed(odds):
            g = derive_odd(od, g)
        for _ in range(dx):
            g = derive_even("x", g)
        for _ in range(dt):
            g = derive_even("t", g)
        out = out + coeff * g
    return out


def realization_oracle(kind: str, d, m):
    """Operator table for the generators, on the kind's superspace."""
    d, m = as_fraction(d), as_fraction(m)
    space = SuperSpace.for_kind(kind, m)
    one = poly_mono(space)
    t = poly_mono(space, t=1)
    x = poly_mono(space, x=1)

    if kind == "ssch1":
        theta = poly_mono(space, word=("theta",))
        eta = poly_mono(space, word=("eta",))
        tt = poly_mono(space, t=2)
        tx = poly_mono(space, t=1, x=1)
        return {
            "H": _op(space, (one, 1, 0, ())),
            "P": _op(space, (one, 0, 1, ())),
            "M": _op(space, (one.scale(m), 0, 0, ())),
            "D": _op(space, (t.scale(2), 1, 0, ()), (x, 0, 1, ()),
                     (theta, 0, 0, ("theta",)), (one.scale(-d), 0, 0, ())),
            "G": _op(space, (t, 0, 1, ()), (x.scale(m), 0, 0, ()),
                     (theta * eta, 0, 0, ())),
            "K": _op(space, (tt, 1, 0, ()), (tx, 0, 1, ()),
                     (t * theta, 0, 0, ("theta",)),
                     (poly_mono(space, x=2, coeff=Fraction(m, 2)), 0, 0, ()),
                     (x * theta * eta, 0, 0, ()),
                     (t.scale(-d), 0, 0, ())),
            "Q": _op(space, (-theta, 1, 0, ()), (one, 0, 0, ("theta",))),
            "S": _op(space, (-(theta * t), 1, 0, ()), (-(theta * x), 0, 1, ()),
                     (t, 0, 0, ("theta",)), (x * eta, 0, 0, ()),
                     (theta.scale(d), 0, 0, ())),
            "X": _op(space, (-theta, 0, 1, ()), (eta, 0, 0, ())),
        }

    if kind == "ssch2":
        theta = poly_mono(space, word=("theta",))
        phi = poly_mono(space, word=("phi",))
        rho = poly_mono(space, word=("rho",))
        tt = poly_mono(space, t=2)
        tx = poly_mono(space, t=1, x=1)
        return {
            "H": _op(space, (one, 1, 0, ())),
            "P": _op(space, (one, 0, 1, ())),
            "M": _op(space, (one.scale(m), 0, 0, ())),
            "D": _op(space, (t.scale(2), 1, 0, ()), (x, 0, 1, ()),
                     (theta, 0, 0, ("theta",)), (phi, 0, 0, ("phi",)),
                     (one.scale(-d), 0, 0, ())),
            "R": _op(space, (-theta, 0, 0, ("theta",)),
                     (phi, 0, 0, ("phi",)), (rho, 0, 0, ("rho",))),
            "G": _op(space, (t, 0, 1, ()),
                     (x.scale(m) - (theta * rho).scale(m), 0, 0, ()),
                     (phi, 0, 0, ("rho",))),
            "K": _op(space, (tt, 1, 0, ()), (tx, 0, 1, ()),
                     (t * theta, 0, 0, ("theta",)), (t * phi, 0, 0, ("phi",)),
                     (theta * phi * rho, 0, 0, ("rho",)),
                     (-(x * theta * rho).scale(m), 0, 0, ()),
                     (poly_mono(space, x=2, coeff=Fraction(m, 2)), 0, 0, ()),
                     (x * phi, 0, 0, ("rho",)),
                     (t.scale(-d), 0, 0, ())),
            "Q+": _op(space, (-phi, 1, 0, ()), (one, 0, 0, ("theta",))),
            "Q-": _op(space, (-theta, 1, 0, ()), (one, 0, 0, ("phi",))),
            "S+": _op(space, (-(phi * t), 1, 0, ()), (-(phi * x), 0, 1, ()),
                      (-(phi * theta), 0, 0, ("theta",)),
                      (phi * rho, 0, 0, ("rho",)),
                      (t, 0, 0, ("theta",)),
                      (-(x * rho).scale(m), 0, 0, ()),
                      (phi.scale(d), 0, 0, ())),
            "S-": _op(space, (-(theta * t), 1, 0, ()), (-(theta * x), 0, 1, ()),
                      (-(theta * phi), 0, 0, ("phi",)),
                      (-(theta * rho), 0, 0, ("rho",)),
                      (t, 0, 0, ("phi",)), (x, 0, 0, ("rho",)),
                      (theta.scale(d), 0, 0, ())),
            "X+": _op(space, (-phi, 0, 1, ()), (-rho.scale(m), 0, 0, ())),
            "X-": _op(space, (-theta, 0, 1, ()), (one, 0, 0, ("rho",))),
        }


# id(op) -> (op, snapshot of its terms, {monomial: reference image}), least
# recently used first; holding op keeps its id from being reused
_IMAGES = {}


def _op_images(op):
    """The reference images of one operator object, kept across calls so
    that a mutant realization recomputes only the operator it replaced."""
    snapshot = [(tuple(c.terms.items()), dt, dx, odds)
                for c, dt, dx, odds in op.terms]
    hit = _IMAGES.pop(id(op), None)
    if hit is None or hit[1] != snapshot:
        hit = (op, snapshot, {})
    _IMAGES[id(op)] = hit
    if len(_IMAGES) > 64:
        del _IMAGES[next(iter(_IMAGES))]
    return hit[2]


def verify_relations_oracle(realization, table, max_degree, max_failures=10,
                            d=None, m=None):
    """``verify_relations`` in Fractions: each image through
    ``reference_apply``, each residual accumulated into one dict."""
    if max_degree < 0 or max_failures < 1:
        raise ValueError("max_degree >= 0 and max_failures >= 1 expected")
    space = next(iter(realization.values())).space
    report = RealizationReport(table.kind,
                               Fraction(0) if d is None else Fraction(d),
                               Fraction(0) if m is None else Fraction(m),
                               max_degree, max_degree)
    for gen, op in realization.items():
        if op.parity() != table.parity(gen):
            report.parity_ok = False
            if len(report.failures) < max_failures:
                report.failures.append((gen, gen, None, "parity mismatch"))
        report.degree_raise = max(report.degree_raise, op.max_degree_raise())
    if len(report.failures) >= max_failures:
        return report
    images = {gen: _op_images(op) for gen, op in realization.items()}

    def image(gen, mono):
        if mono not in images[gen]:
            f = SuperPoly(space, {mono: Fraction(1)})
            images[gen][mono] = reference_apply(realization[gen], f).terms
        return images[gen][mono]

    names = table.names
    for i, xg in enumerate(names):
        for yg in names[i:]:
            sign = -1 if (table.parity(xg) and table.parity(yg)) else 1
            minus_bracket = [(h, -c) for h, c in
                             table.bracket_gens(xg, yg).items()]
            for mono in enumerate_polyspace(space, max_degree):
                acc = {}
                # X(Y f), then -(-1)^{|X||Y|} Y(X f)
                for gen, first, factor in ((xg, yg, 1), (yg, xg, -sign)):
                    for mn, c in image(first, mono).items():
                        for mn2, v in image(gen, mn).items():
                            acc[mn2] = acc.get(mn2, 0) + factor * c * v
                for h, c in minus_bracket:
                    for mn, v in image(h, mono).items():
                        acc[mn] = acc.get(mn, 0) + c * v
                if any(acc.values()):
                    residual = SuperPoly(space, acc)
                    report.failures.append((xg, yg, mono, str(residual)))
                    if len(report.failures) >= max_failures:
                        return report
    return report


class Poly(dict):
    """Sparse polynomial with int coefficients: a dict from exponent tuples
    (one entry per variable) to nonzero ints.  Sums and products mix with
    ints, and a constant result comes back as an int (0 when every
    coefficient cancels), so a ``Poly`` is never constant and is truthy."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, int):
            if not other:
                return self
            other = {(0,) * len(next(iter(self))): other}
        elif not isinstance(other, Poly):
            return NotImplemented
        terms = Poly(self)
        for e, c in other.items():
            c += terms.get(e, 0)
            if c:
                terms[e] = c
            else:
                del terms[e]
        if len(terms) == 1 and not any(*terms):  # a constant
            return terms.popitem()[1]
        return terms or 0

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            return Poly({e: c * other for e, c in self.items()}) if other \
                else 0
        if not isinstance(other, Poly):
            return NotImplemented
        terms = {}
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        # a product of two polynomials of positive degree has one
        return Poly({e: c for e, c in terms.items() if c})

    __rmul__ = __mul__


def realization_certificate_oracle(compiled, table):
    """``realization._symbolic_residuals`` summed over Z[d, m] as ``Poly``
    values: each triple times the lcm L of the table's denominators a
    polynomial and each Clifford contraction times ``square_den`` an int
    times m, fed to the same ``StructureTable.residuals`` pass; yields
    (x, y, monomial, {monomial: int or Poly}, denominator) in the same
    order, zero values kept."""
    triples, generators = compiled
    scale = lcm(*(c.denominator for c0, parts in triples
                  for c in (c0, *(c for c, _ in parts))))
    d_m = Poly({(1, 0): 1}), Poly({(0, 1): 1})
    values = [_affine(_exact_int(c0 * scale),
                      [(_exact_int(c * scale), i) for c, i in parts], d_m)
              for c0, parts in triples]
    terms = {gen: [(dt, dx, odds, tuple((t, x, w, values[i])
                                        for (t, x, w), i in entries))
                   for entries, dt, dx, odds in gen_terms]
             for gen, gen_terms in generators}
    space = SuperSpace.for_kind(table.kind, 1)
    words = {w for _, _, w in enumerate_polyspace(space, len(space.names))}
    products = {}
    for w1 in words:
        for w in words:
            sign, word = mul_odd_words(w1, w, space.order, space.squares)
            products[w1, w] = prod([d_m[1]] * len(set(w1) & set(w)), start=(
                _exact_int(sign * space.square_den))), word
    bound = 2 * max(dt + dx + len(odds) for _, gen_terms in generators
                    for _, dt, dx, odds in gen_terms)
    residuals = _residual_pass(table, dict.fromkeys(terms, SuperDiffOp(space)),
                               terms, products, scale * space.square_den)
    return residuals(enumerate_polyspace(space, bound))


def _elem_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for g, c in b.items():
        val = out.get(g, 0) - c
        if val:
            out[g] = val
        elif g in out:
            del out[g]
    return out


def bracket(table, x, y) -> dict:
    """Bilinear bracket of elements given as dicts name -> coefficient
    (or names)."""
    ex = {x: 1} if isinstance(x, str) else x
    ey = {y: 1} if isinstance(y, str) else y
    out = {}
    for gx, cx in ex.items():
        for gy, cy in ey.items():
            for g, c in table.bracket_gens(gx, gy).items():
                val = out.get(g, 0) + cx * cy * c
                if val:
                    out[g] = val
                elif g in out:
                    del out[g]
    return out


def verify_structure_oracle(table, max_failures=20):
    """Antisymmetry and degrees on every ordered pair, Jacobi on every
    ordered triple, in Fraction dicts."""
    if max_failures < 1:
        raise ValueError("max_failures must be >= 1, got %r"
                         % (max_failures,))
    report = StructureReport(table.kind)
    names = table.names
    for x in names:
        for y in names:
            sign = -1 if (table.parity(x) and table.parity(y)) else 1
            lhs = table.bracket_gens(x, y)
            rhs = {g: c * sign for g, c in table.bracket_gens(y, x).items()}
            if _elem_sub(lhs, {g: -c for g, c in rhs.items()}) != {}:
                # [x,y} + (-1)^{|x||y|}[y,x} must vanish
                report.antisymmetry_failures.append((x, y))
            expected = tuple(
                dx + dy for dx, dy in zip(table.degree(x), table.degree(y))
            )
            for g in lhs:
                if table.degree(g) != expected:
                    report.degree_failures.append((x, y, g))
    for x in names:
        px = table.parity(x)
        for y in names:
            py = table.parity(y)
            sign = -1 if (px and py) else 1
            for z in names:
                lhs = bracket(table, x, table.bracket_gens(y, z))
                rhs = bracket(table, table.bracket_gens(x, y), z)
                for g, c in bracket(table, y,
                                    table.bracket_gens(x, z)).items():
                    val = rhs.get(g, 0) + c * sign
                    if val:
                        rhs[g] = val
                    elif g in rhs:
                        del rhs[g]
                if _elem_sub(lhs, rhs):
                    report.jacobi_failures.append((x, y, z))
                    if len(report.jacobi_failures) >= max_failures:
                        return report
    return report


def adjoint_apply(amap, elem) -> dict:
    """Apply an adjoint map to an element dict (or generator name),
    conjugating scalars when the map is antilinear.  Coefficients may be
    Fractions or QIs; both provide ``conjugate``."""
    if isinstance(elem, str):
        elem = {elem: QI_ONE}
    out = {}
    for g, c in elem.items():
        if g not in amap.images:
            raise ValueError("adjoint %s undefined on %r" % (amap.name, g))
        cc = c.conjugate() if amap.antilinear else c
        for h, w in amap.images[g].items():
            val = out.get(h, QI_ZERO) + cc * w
            if val:
                out[h] = val
            elif h in out:
                del out[h]
    return out


def verify_adjoint_oracle(table, amap):
    """Both adjoint laws on whole ``QI`` dicts through ``adjoint_apply``."""
    report = AdjointReport(amap.name, amap.epsilon, amap.lam, amap.antilinear,
                           completed=amap.completed)
    id_ok, par_ok = True, True
    for g in table.names:
        twice = adjoint_apply(amap, adjoint_apply(amap, g))
        sign = -1 if table.parity(g) else 1
        if twice != {g: QI_ONE}:
            id_ok = False
        if twice != {g: QI(sign)}:
            par_ok = False
        if twice not in ({g: QI_ONE}, {g: QI(sign)}):
            report.involution_failures.append((g, twice))
    report.involution = "identity" if id_ok else ("parity" if par_ok else "none")

    for x in table.names:
        for y in table.names:
            lhs = adjoint_apply(amap, table.bracket_gens(x, y))
            rhs = bracket(table, adjoint_apply(amap, y),
                          adjoint_apply(amap, x))
            sign = -1 if (table.parity(x) and table.parity(y)) else 1
            if _elem_sub(lhs, rhs):
                report.plain_failures.append((x, y))
            if _elem_sub(lhs, {g: c * sign for g, c in rhs.items()}):
                report.graded_failures.append((x, y))
    if not report.plain_failures:
        report.convention = "plain"
    elif not report.graded_failures:
        report.convention = "graded"
    else:
        report.convention = "none"
    return report


# -- helpers that only the tests call ---------------------------------------


def parse_qi(text: str) -> QI:
    """Parse the Gaussian literal syntax "p/q", "r/si" or "p/q+r/si"."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty Gaussian rational literal")
    if not text.endswith("i"):
        return QI(parse_rational(text))
    body = text[:-1]
    # split "a+bi" / "a-bi" / "bi": scan for the sign introducing the i-part
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            re_text, im_text = body[:pos], body[pos:]
            if _RATIONAL_RE.match(re_text) and _RATIONAL_RE.match(im_text):
                return QI(parse_rational(re_text), parse_rational(im_text))
    if body in ("", "+"):
        return QI(0, 1)
    if body == "-":
        return QI(0, -1)
    return QI(0, parse_rational(body))


def closes_under_bracket(table, subset):
    """Return (closed, escapes) for a generator subset."""
    subset = set(subset)
    escapes = []
    for x in sorted(subset, key=lambda n: table._index[n]):
        for y in sorted(subset, key=lambda n: table._index[n]):
            for g in table.bracket_gens(x, y):
                if g not in subset:
                    escapes.append((x, y, g))
    return not escapes, escapes


_RHO_SWAP = {"Q+": "Q-", "Q-": "Q+", "S+": "S-", "S-": "S+",
             "X+": "X-", "X-": "X+"}


def rho_relabel(gen: str):
    """The +/- swapping automorphism: A+- -> A-+, R -> -R, rest fixed."""
    if gen in _RHO_SWAP:
        return _RHO_SWAP[gen], 1
    if gen == "R":
        return "R", -1
    return gen, 1


def build_pm_pair(d, cutoff=8):
    """The massless factor pair (L+^d from r=-d, L-^d from r=+d)."""
    d = Fraction(d)
    rec_plus = classify(LowestWeight("ssch2", d, 0, -d), cutoff=cutoff)
    rec_minus = classify(LowestWeight("ssch2", d, 0, d), cutoff=cutoff)
    return rec_plus.terminal, rec_minus.terminal


def intertwiner_failures(d, max_weight=8):
    """Check that relabelling +<->- carries the L+^d action onto L-^d.

    The map T sends K^l S-^a |0> in L+^d to K^l S+^a |0> in L-^d and must
    satisfy act(g, T v) = T act(rho(g), v) for every generator.
    """
    plus, minus = build_pm_pair(d, cutoff=max_weight)

    def t_map(vec: ModuleVector) -> ModuleVector:
        out = ModuleVector(minus.base)
        for (k, l, a, b, c), coeff in vec.terms.items():
            if a or c:
                raise ValueError("unexpected monomial in L+^d")
            out.add_term((k, l, b, 0, c),
                         minus.base.ring.scalar(coeff.even, coeff.odd))
        return out

    failures = []
    monos = []
    for weight in [(0, 0)] + plus.enumerate_weights(max_weight):
        monos.extend(plus.subspace_basis(weight) if weight != (0, 0)
                     else [plus.base.vacuum])
    for gen in plus.base.table.names:
        image, sign = rho_relabel(gen)
        for mono in monos:
            lhs = minus.act(gen, t_map(plus.base.basis_vector(mono)))
            rhs = t_map(plus.act(image, mono)).scale(sign)
            if lhs != rhs:
                failures.append((gen, mono))
    return failures


def reachable_weight(module, source, target) -> bool:
    """Whether target lies in source + (weight monoid of the raising part):
    whether the subspace at target - source is nonempty."""
    if isinstance(target, tuple):
        return bool(module.subspace_basis(tuple(map(sub, target, source))))
    return bool(module.subspace_basis(target - source))
