"""Weight-graded lowest-weight modules over the N=1 and N=2 superalgebras.

Basis monomials are exponent tuples applied to the lowest weight vector v0:

* ssch1: (k, l, a)          <->  G^k K^l S^a v0,  a in {0,1}
* ssch2: (k, l, a, b, c)    <->  G^k K^l S+^a S-^b X+^c v0, a,b,c in {0,1}

The N=1 action is available both as the closed-form table and through the
generic normal-ordering engine; the N=2 action comes from the engine alone.
Coefficients are GradedScalars over Q[chi] (Fraction even and chi parts); a
coefficient's chi part anticommutes with odd generators, which is realised
by twisting the coefficient whenever an odd generator moves across it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .scalars import GradedScalar, ScalarRing, as_fraction, gs_str
from .superalgebra import StructureTable, build_algebra, triangular_decompose


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


class VermaModule:
    """Lowest-weight module with PBW monomial basis and exact action."""

    def __init__(self, lw: LowestWeight, chi_square=None, table: StructureTable = None):
        self.lw = lw
        self.kind = lw.kind
        self.table = table if table is not None else build_algebra(lw.kind)
        self.ring = ScalarRing(lw.m, chi_square)
        plus, zero, minus = triangular_decompose(self.table)
        self.plus_set = tuple(plus)
        self.minus_set = frozenset(minus)
        self.n_exponents = 3 if self.kind == "ssch1" else 5
        self.vacuum = (0, 0, 0) if self.kind == "ssch1" else (0, 0, 0, 0, 0)
        # X v0 = chi v0; the massless module represents chi by zero, which is
        # what makes G^p v0 singular and P,G,M,X trivial in the terminal
        # massless quotients.
        if self.kind == "ssch1":
            self.chi = self.ring.chi if lw.m else self.ring.zero
        else:
            self.chi = self.ring.zero
        self._parity = {g: self.table.parity(g) for g in self.table.names}
        self._cache_table = {}
        self._cache_engine = {}
        self._d = lw.d
        self._m = lw.m
        self._r = lw.r

    # -- scalars ------------------------------------------------------------

    def coerce_scalar(self, value) -> GradedScalar:
        if isinstance(value, GradedScalar):
            if value.ring is not self.ring:
                raise ValueError("scalar ring mismatch")
            return value
        return self.ring.scalar(value)

    @property
    def uses_chi(self) -> bool:
        """True when coefficients can carry a nonzero chi part."""
        return self.kind == "ssch1" and bool(self._m)

    # -- monomials ----------------------------------------------------------

    def weight(self, mono):
        """Weight relative to the lowest weight (int for N=1, pair for N=2)."""
        if self.kind == "ssch1":
            k, l, a = mono
            return k + 2 * l + a
        k, l, a, b, c = mono
        return (k + 2 * l + a + b, a - b + c)

    def monomial_parity(self, mono) -> int:
        if self.kind == "ssch1":
            return mono[2] & 1
        return (mono[2] + mono[3] + mono[4]) & 1

    def order_key(self, mono):
        if self.kind == "ssch1":
            k, l, a = mono
            return (k, a, l)
        k, l, a, b, c = mono
        return (k, a + b + c, l, a, b, c)

    def monomial_str(self, mono) -> str:
        if self.kind == "ssch1":
            k, l, a = mono
            return "G^%d K^%d S^%d v0" % (k, l, a)
        k, l, a, b, c = mono
        return "G^%d K^%d S+^%d S-^%d X+^%d v0" % (k, l, a, b, c)

    def parse_monomial(self, text: str):
        parts = text.split()
        if not parts or parts[-1] != "v0":
            raise ValueError("malformed monomial %r" % text)
        try:
            exps = tuple(int(p.split("^")[1]) for p in parts[:-1])
        except (IndexError, ValueError) as exc:
            raise ValueError("malformed monomial %r" % text) from exc
        if len(exps) != self.n_exponents:
            raise ValueError("malformed monomial %r" % text)
        return exps

    def basis_vector(self, mono, coeff=1) -> ModuleVector:
        return ModuleVector(self, {mono: self.coerce_scalar(coeff)})

    def vacuum_vector(self) -> ModuleVector:
        return self.basis_vector(self.vacuum)

    def enumerate_monomials(self, max_degree: int):
        """All monomials of first-weight component <= max_degree."""
        out = []
        if self.kind == "ssch1":
            for a in (0, 1):
                for l in range((max_degree - a) // 2 + 1):
                    for k in range(max_degree - 2 * l - a + 1):
                        out.append((k, l, a))
        else:
            for a in (0, 1):
                for b in (0, 1):
                    for c in (0, 1):
                        top = max_degree - a - b
                        for l in range(top // 2 + 1):
                            for k in range(top - 2 * l + 1):
                                out.append((k, l, a, b, c))
        out.sort(key=self.order_key)
        return out

    def subspace_basis(self, weight, cutoff=None):
        """Monomials of the given relative weight, leading order first."""
        out = []
        if self.kind == "ssch1":
            n = weight
            if cutoff is not None and n > cutoff:
                raise ValueError("weight %s beyond cutoff %s" % (n, cutoff))
            if n >= 0:
                for a in (0, 1):
                    rem = n - a
                    if rem < 0:
                        continue
                    for l in range(rem // 2 + 1):
                        out.append((rem - 2 * l, l, a))
        else:
            n1, n2 = weight
            if cutoff is not None and n1 > cutoff:
                raise ValueError("weight %s beyond cutoff %s" % ((n1, n2), cutoff))
            for a in (0, 1):
                for b in (0, 1):
                    c = n2 - a + b
                    if c not in (0, 1):
                        continue
                    rem = n1 - a - b
                    if rem < 0:
                        continue
                    for l in range(rem // 2 + 1):
                        out.append((rem - 2 * l, l, a, b, c))
        out.sort(key=self.order_key, reverse=True)
        return out

    def enumerate_weights(self, max_degree: int):
        """Weights with nonempty subspace, the lowest-weight line excluded."""
        if self.kind == "ssch1":
            return [n for n in range(1, max_degree + 1)]
        out = []
        for n1 in range(0, max_degree + 1):
            for n2 in (-1, 0, 1, 2):
                if (n1, n2) == (0, 0):
                    continue
                if self.subspace_basis((n1, n2)):
                    out.append((n1, n2))
        return out

    def shift_weight(self, weight, gen: str):
        deg = self.table.degree(gen)
        if self.kind == "ssch1":
            return weight + deg[0]
        return (weight[0] + deg[0], weight[1] + deg[1])

    # -- action -------------------------------------------------------------

    def act(self, gen: str, target) -> ModuleVector:
        """Action of a generator on a monomial or a vector."""
        if self.kind == "ssch1":
            return self._act_with(self._act_mono_table, gen, target)
        return self._act_with(self._act_mono_engine, gen, target)

    def act_engine(self, gen: str, target) -> ModuleVector:
        """Action through the normal-ordering engine (both kinds)."""
        return self._act_with(self._act_mono_engine, gen, target)

    def _act_with(self, mono_fn, gen: str, target) -> ModuleVector:
        if isinstance(target, tuple):
            out = ModuleVector(self)
            for coeff, mono in mono_fn(gen, target):
                out.add_term(mono, coeff)
            return out
        self_odd = self._parity[gen]
        out = ModuleVector(self)
        for mono, c in target.terms.items():
            cc = c.twist() if (self_odd and c.odd) else c
            for coeff, mono2 in mono_fn(gen, mono):
                out.add_term(mono2, cc * coeff)
        return out

    def normal_order(self, word) -> ModuleVector:
        """Rewrite a generator word applied to v0 into the canonical basis."""
        vec = self.vacuum_vector()
        for gen in reversed(list(word)):
            vec = self.act_engine(gen, vec)
        return vec

    # closed-form action rows for the N=1 module
    def _act_mono_table(self, gen, mono):
        cached = self._cache_table.get((gen, mono))
        if cached is not None:
            return cached
        k, l, a = mono
        ring = self.ring
        d, m = self._d, self._m
        chi = self.chi
        sc = ring.scalar
        out = []
        if gen == "K":
            out = [(ring.one, (k, l + 1, a))]
        elif gen == "G":
            out = [(ring.one, (k + 1, l, a))]
        elif gen == "S":
            # raising: S v_{k,l} = nu_{k,l}; S nu_{k,l} = -v_{k,l+1} (S^2 = -K)
            out = [(ring.one, (k, l, 1))] if a == 0 else \
                [(-ring.one, (k, l + 1, 0))]
        elif gen == "D":
            out = [(sc(k + 2 * l + a - d), (k, l, a))]
        elif gen == "M":
            out = [(sc(m), (k, l, a))]
        elif gen == "X":
            out = [(chi, (k, l, a))]
            if a:
                out.append((-ring.one, (k + 1, l, 0)))
        elif gen == "P":
            if l:
                out.append((sc(l), (k + 1, l - 1, a)))
            if a:
                out.append((chi, (k, l, 0)))
            if m and k:
                out.append((sc(m * k), (k - 1, l, a)))
        elif gen == "Q":
            if a == 0:
                if k and chi:
                    out.append((chi * sc(k), (k - 1, l, 0)))
                if l:
                    out.append((sc(l), (k, l - 1, 1)))
            else:
                if k and chi:
                    out.append((chi * sc(k), (k - 1, l, 1)))
                coeff = d - l - k
                if coeff:
                    out.append((sc(coeff), (k, l, 0)))
        elif gen == "H":
            if a == 0:
                c1 = l * (k + l - d - 1)
                if l and c1:
                    out.append((sc(c1), (k, l - 1, 0)))
                c2 = m * k * (k - 1) / 2
                if k >= 2 and c2:
                    out.append((sc(c2), (k - 2, l, 0)))
            else:
                c1 = l * (k + l - d)
                if l and c1:
                    out.append((sc(c1), (k, l - 1, 1)))
                if k and chi:
                    out.append((chi * sc(k), (k - 1, l, 0)))
                c2 = m * k * (k - 1) / 2
                if k >= 2 and c2:
                    out.append((sc(c2), (k - 2, l, 1)))
        else:
            raise ValueError("unknown generator %r" % gen)
        out = tuple((c, mn) for c, mn in out if c)
        self._cache_table[(gen, mono)] = out
        return out

    # -- normal-ordering engine ----------------------------------------------

    def _raise_odd_tail(self, gen, tail):
        """Product of a raising odd generator with the odd tail of a monomial.

        Returns [(int coeff, dk, dl, new tail)] with Koszul signs and the
        anticommutator corrections (S+S- -> K, S-X+ -> G) folded in.
        """
        if self.kind == "ssch1":
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

    def _leading_factor(self, mono):
        """First generator of the canonical word and the remaining monomial."""
        if self.kind == "ssch1":
            k, l, a = mono
            if k:
                return "G", (k - 1, l, a)
            if l:
                return "K", (k, l - 1, a)
            if a:
                return "S", (k, l, 0)
            return None, None
        k, l, a, b, c = mono
        if k:
            return "G", (k - 1, l, a, b, c)
        if l:
            return "K", (k, l - 1, a, b, c)
        if a:
            return "S+", (k, l, 0, b, c)
        if b:
            return "S-", (k, l, a, 0, c)
        if c:
            return "X+", (k, l, a, b, 0)
        return None, None

    def _act_mono_engine(self, gen, mono):
        cached = self._cache_engine.get((gen, mono))
        if cached is not None:
            return cached
        ring = self.ring
        out_map = {}

        def add(coeff, mn):
            if not coeff:
                return
            cur = out_map.get(mn)
            new = coeff if cur is None else cur + coeff
            if new:
                out_map[mn] = new
            elif cur is not None:
                del out_map[mn]

        if gen == "G":
            add(ring.one, (mono[0] + 1,) + mono[1:])
        elif gen == "K":
            add(ring.one, (mono[0], mono[1] + 1) + mono[2:])
        elif gen in self.plus_set:
            # odd raising generator: pass the even G/K head, resolve the tail
            head, tail = mono[:2], mono[2:]
            for c, dk, dl, new_tail in self._raise_odd_tail(gen, tail):
                add(ring.scalar(c), (head[0] + dk, head[1] + dl) + new_tail)
        elif mono == self.vacuum:
            if gen in self.minus_set:
                pass
            elif gen == "D":
                add(ring.scalar(-self._d), mono)
            elif gen == "M":
                add(ring.scalar(self._m), mono)
            elif gen == "R":
                add(ring.scalar(self._r), mono)
            elif gen == "X" and self.kind == "ssch1":
                add(self.chi, mono)
            else:
                raise ValueError("unknown generator %r" % gen)
        else:
            w1, rest = self._leading_factor(mono)
            gp = self._parity[gen]
            sign = -1 if (gp and self._parity[w1]) else 1
            # gen w1 rest = (-1)^{|gen||w1|} w1 (gen rest) + [gen,w1} rest
            sub = self._act_mono_engine(gen, rest)
            for coeff, mn in sub:
                cc = coeff.twist() if (self._parity[w1] and coeff.odd) else coeff
                if sign < 0:
                    cc = -cc
                for c2, mn2 in self._act_mono_engine(w1, mn):
                    add(cc * c2, mn2)
            for h, c in self.table.bracket_gens(gen, w1).items():
                ch = ring.scalar(c)
                for c2, mn2 in self._act_mono_engine(h, rest):
                    add(ch * c2, mn2)
        out = tuple((c, mn) for mn, c in
                    sorted(out_map.items(), key=lambda kv: self.order_key(kv[0])))
        self._cache_engine[(gen, mono)] = out
        return out

    # -- bracket compatibility ------------------------------------------------

    def closure_failures(self, max_degree: int, act_fn=None, max_report=5):
        """Bracket-compatibility check on all monomials up to max_degree.

        act(x, act(y, w)) - (-1)^{|x||y|} act(y, act(x, w)) must equal
        act([x,y}, w) for every generator pair.  Returns a list of failing
        (x, y, monomial) triples (empty means the identity holds).  Factor
        modules run the same loop over their surviving monomials.  ``act_fn``
        (default ``self.act``) must return a new vector on every call: the
        residual is accumulated into the first action's result.
        """
        act = act_fn or self.act
        table = self.table
        names = table.names
        monos = self.enumerate_monomials(max_degree)
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
