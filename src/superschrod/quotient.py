"""Factor modules, the irreducibility classification, and the bilinear form.

A factor module is the base module together with rewriting rules extracted
from singular vectors: each rule orients its vector so the leading monomial
(largest in the k-then-fermion-count order) rewrites to strictly smaller
monomials.  Reduction of a monomial divisible by a rule's lead applies the
appropriate raising prefix to the rule vector, so submodule membership is
decided by confluent rewriting instead of per-weight linear algebra.  New
rules appear during completion only when an odd raising generator collapses
a lead into a new shape (S S -> -K and friends).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product
from math import lcm
from operator import sub
from typing import List, Optional
from weakref import WeakKeyDictionary

from .singular import (ANNIHILATORS, determinant, weight_coords,
                       find_singular, closed_form_n1, closed_form_n2)
from .superalgebra import build_adjoint, verify_adjoint
from .verma import (LowestWeight, ModuleVector, VermaModule, chi_entries,
                    closure_arguments)

_COMPLETION_CAP = 60
_ZERO = Fraction(0)


class RewritingError(RuntimeError):
    """The quotient's rule rewriting broke down: a shifted rule lost its
    expected lead, or completion did not stabilise."""


def _divides(lead, mono) -> bool:
    return all(l <= m for l, m in zip(lead, mono))


class FactorModule:
    """Quotient of a Verma module by the submodule a set of singular
    vectors generates."""

    def __init__(self, base: VermaModule, rule_vectors, chain=None,
                 verify_singular=True):
        self.base = base
        self.ring = base.ring
        self.kind = base.kind
        self.table = base.table
        self.lw = base.lw
        self.chain = list(chain or [])
        self.rules = []  # list of (lead monomial, monic ModuleVector)
        self._ints = {}
        self._coords = {}  # weight -> WeightCoords, see singular.weight_coords
        # weight -> surviving basis, max degree -> surviving monomials;
        # cleared with the other caches whenever a rule is added
        self._bases = {}
        self._monomials = {}
        for vec in rule_vectors:
            self._install(vec, verify=verify_singular)

    # -- rule machinery ------------------------------------------------------

    def _install(self, vec: ModuleVector, verify=True):
        if verify:
            residuals = [ann for ann in ANNIHILATORS[self.kind]
                         if self.reduce(self.base.act(ann, vec))]
            if residuals:
                raise ValueError(
                    "quotient generator is not singular (fails %s)" % residuals)
        queue = [self.reduce(vec)]
        steps = 0
        while queue:
            steps += 1
            if steps > _COMPLETION_CAP:
                raise RewritingError("rule completion did not stabilise")
            f = self.reduce(queue.pop(0))
            if not f:
                continue
            f = self._monic(f)
            self.rules.append((f.leading_monomial(), f))
            self._ints.clear()
            self._coords.clear()
            self._bases.clear()
            self._monomials.clear()
            for gen in self.base.plus_set:
                queue.append(self.base.act(gen, f))

    def _monic(self, vec: ModuleVector) -> ModuleVector:
        lead = vec.leading_monomial()
        coeff = vec.terms[lead]
        try:
            return vec.scale(coeff.inverse())
        except ValueError as exc:
            raise ValueError("rule with non-invertible leading coefficient "
                             "%s at %s" % (coeff, lead)) from exc

    def _prefix_apply(self, delta, vec: ModuleVector) -> ModuleVector:
        """Apply the raising word with exponent vector ``delta``."""
        for gen, count in reversed(tuple(zip(self.base.plus_set, delta))):
            for _ in range(count):
                vec = self.base.act(gen, vec)
        return vec

    def reduce(self, vec: ModuleVector) -> ModuleVector:
        """Confluent reduction to the quotient's canonical representatives."""
        if not self.rules:
            return vec
        vec = vec.copy()
        while True:
            target = None
            for mono in sorted(vec.terms, key=self.base.order_key, reverse=True):
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
            shifted = self._prefix_apply(delta, rule_vec)
            s_lead = shifted.leading_monomial()
            if s_lead != mono:
                raise RewritingError(
                    "reduction order violated: expected lead %s, got %s"
                    % (mono, s_lead))
            factor = vec.terms[mono] * shifted.terms[mono].inverse()
            vec = vec - shifted.scale(factor)

    # -- module protocol (mirrors VermaModule where it matters) ---------------

    @property
    def uses_chi(self) -> bool:
        return self.base.uses_chi

    def _survives(self, mono) -> bool:
        """Whether a base monomial is a basis vector of the quotient."""
        return not any(_divides(lead, mono) for lead, _ in self.rules)

    def subspace_basis(self, weight):
        """The base module's basis at ``weight`` without the monomials a
        rule lead divides, memoised per weight; a fresh list per call."""
        basis = self._bases.get(weight)
        if basis is None:
            basis = self._bases[weight] = tuple(filter(
                self._survives, self.base.subspace_basis(weight)))
        return list(basis)

    def enumerate_monomials(self, max_degree: int):
        """The surviving monomials up to ``max_degree``, memoised as
        ``subspace_basis``."""
        monos = self._monomials.get(max_degree)
        if monos is None:
            monos = self._monomials[max_degree] = tuple(filter(
                self._survives, self.base.enumerate_monomials(max_degree)))
        return list(monos)

    def enumerate_weights(self, max_degree: int):
        out = []
        for weight in self.base.enumerate_weights(max_degree):
            if self.subspace_basis(weight):
                out.append(weight)
        return out

    def act(self, gen, target) -> ModuleVector:
        return self.reduce(self.base.act(gen, target))

    def int_row(self, gen, key):
        """Row at a doubled-basis key (monomial, flag), as in
        ``VermaModule.int_row``.  Flag 0 is the reduced image of the
        monomial under ``base.act``, over L, the lcm of the denominators
        of its parts; flag 1 is ``chi_entries`` of it over L q, q = den
        chi^2.  Cached until a rule is added."""
        cached = self._ints.get((gen, key))
        if cached is None:
            mono, flag = key
            if flag:
                L, entries = self.int_row(gen, (mono, 0))
                q = self.ring.chi_square.denominator
                cached = (L * q, chi_entries(
                    [(k, v * q) for k, v in entries],
                    self.table.parity(gen), self.ring.chi_square))
            else:
                terms = self.reduce(self.base.act(gen, mono)).terms.items()
                L = lcm(*(v.denominator for _, c in terms
                          for v in (c.even, c.odd)))
                cached = (L, tuple(
                    ((mn, f), v.numerator * (L // v.denominator)) for mn, c
                    in terms for f, v in ((0, c.even), (1, c.odd)) if v))
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

    def _caps(self):
        """Pure-G^j / pure-K^j rule leads bound the even exponents; the
        survivor set is downward closed, so it is finite iff both exist."""
        k_cap = l_cap = None
        zeros = self.base.vacuum[1:]
        for lead, _ in self.rules:
            if lead[1:] == zeros and (k_cap is None or lead[0] < k_cap):
                k_cap = lead[0]
            if (lead[0],) + lead[2:] == zeros and \
                    (l_cap is None or lead[1] < l_cap):
                l_cap = lead[1]
        return k_cap, l_cap

    def dimension(self) -> Optional[int]:
        """Total dimension (None when infinite)."""
        if None in self._caps():
            return None
        return len(self.all_basis_monomials())

    def all_basis_monomials(self):
        """Every surviving monomial (finite quotients only)."""
        k_cap, l_cap = self._caps()
        if k_cap is None or l_cap is None:
            raise ValueError("module is infinite dimensional")
        odd = [(0, 1)] * (len(self.base.vacuum) - 2)
        box = product(range(k_cap + 1), range(l_cap + 1), *odd)
        return sorted(filter(self._survives, box), key=self.base.order_key)


def quotient_by_singular(space, vec: ModuleVector, label: str) -> FactorModule:
    """Quotient a Verma module or an existing factor by one singular vector."""
    if isinstance(space, VermaModule):
        return FactorModule(space, [vec], chain=[label])
    fm = FactorModule(space.base, [], chain=space.chain + [label],
                      verify_singular=False)
    fm.rules = list(space.rules)
    fm._install(vec, verify=True)
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
    """Follow the quotient chain to the terminal irreducible module."""
    module = VermaModule(lw)
    record = ClassificationRecord(lw.kind, lw.d, lw.m, lw.r, "", None,
                                  cutoff=cutoff)
    terminal = module
    if lw.kind == "ssch1":
        if lw.m:
            p = _integer_ge(lw.d + Fraction(1, 2), 0)
            if p is None:
                record.verdict, record.chain = "V^d", ["V^d"]
            else:
                fm = quotient_by_singular(module, closed_form_n1(module, p),
                                          "I^d")
                record.verdict = "V^d/I^d"
                record.chain = ["V^d", "I^d = <(G^2-2mK)^%d (G-2chi S) v0>" % p,
                                "V^d/I^d"]
                terminal = fm
        else:
            fm1 = quotient_by_singular(module, closed_form_n1(module, 1), "I^1")
            p = _integer_ge(lw.d, 0)
            if p is None:
                record.verdict = "V^d/I^1"
                record.chain = ["V^d", "I^1 = <G v0>", "V^d/I^1"]
                terminal = fm1
            else:
                omega_p = fm1.base.basis_vector((0, p, 1))
                fm2 = quotient_by_singular(fm1, omega_p, "I^p")
                record.verdict = "(V^p/I^1)/I^p"
                record.chain = ["V^d", "I^1 = <G v0>", "V^d/I^1",
                                "I^p = <K^%d S w0>" % p, "(V^p/I^1)/I^p"]
                terminal = fm2
    else:
        if lw.m:
            p = _integer_ge(lw.d - Fraction(1, 2), 0)
            if p is None:
                record.verdict, record.chain = "V^{d,r}", ["V^{d,r}"]
            else:
                fm = quotient_by_singular(module, closed_form_n2(module, p),
                                          "I^{d,r}")
                record.verdict = "V^{d,r}/I^{d,r}"
                record.chain = ["V^{d,r}", "I^{d,r} = <(G^2-2mK)^%d u0>" % p,
                                "V^{d,r}/I^{d,r}"]
                terminal = fm
        else:
            fm = quotient_by_singular(module,
                                      module.basis_vector((0, 0, 0, 0, 1)),
                                      "I^0")
            fm = quotient_by_singular(fm,
                                      module.basis_vector((1, 0, 0, 0, 0)),
                                      "II^1")
            record.chain = ["V^{d,r}", "I^0 = <X+ v0>", "V^{d,r}/I^0",
                            "II^1 = <G w0>", "L^{d,r}"]
            d, r = lw.d, lw.r
            if r == -d or r == d:
                sign = "+" if r == -d else "-"
                mono = (0, 0, 1, 0, 0) if sign == "+" else (0, 0, 0, 1, 0)
                fm = quotient_by_singular(fm, module.basis_vector(mono),
                                          "<S%s z0>" % sign)
                record.chain += ["<S%s z0>" % sign, "L%s^d" % sign]
                ell = _integer_ge(d, 0)
                if ell is None:
                    record.verdict = "L%s^d" % sign
                else:
                    other = (0, ell, 0, 1, 0) if sign == "+" else \
                        (0, ell, 1, 0, 0)
                    fm = quotient_by_singular(fm, module.basis_vector(other),
                                              "II^l")
                    record.verdict = "L%s^l/II^l" % sign
                    record.chain += ["II^l = <K^%d S%s |0>>" % (ell,
                                     "-" if sign == "+" else "+"),
                                     record.verdict]
            else:
                p = _integer_ge(d, 1)
                if p is None:
                    record.verdict = "L^{d,r}"
                else:
                    zvec = ModuleVector(module, {
                        (0, p - 1, 1, 1, 0): module.ring.one,
                        (0, p, 0, 0, 0): module.coerce_scalar((d - r) / d),
                    })
                    fm = quotient_by_singular(fm, zvec, "<z_s^{p-1}>")
                    record.verdict = "L^{p,r}"
                    record.chain += ["<z_s^%d>" % (p - 1), "L^{p,r}"]
            terminal = fm
    if isinstance(terminal, FactorModule):
        record.dimension = terminal.dimension()
    else:
        record.dimension = None
    if certify:
        depth = cutoff
        if record.dimension is not None:
            k_cap, l_cap = terminal._caps()
            depth = max(cutoff, k_cap + 2 * l_cap + 4)
        reports = find_singular(terminal, depth)
        record.no_singular_up_to = depth if not reports else -1
    record.terminal = terminal
    return record


# ---------------------------------------------------------------------------
# the plus/minus isomorphism for the massless N=2 chain


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


def reachable_weight(module: VermaModule, source, target) -> bool:
    """Whether target lies in source + (weight monoid of the raising part):
    whether the subspace at target - source is nonempty."""
    if isinstance(target, tuple):
        return bool(module.subspace_basis(tuple(map(sub, target, source))))
    return bool(module.subspace_basis(target - source))
