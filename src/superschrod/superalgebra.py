"""Finite-dimensional Z2-graded Lie superalgebras as structure-constant tables.

Provides the Schroedinger algebra of (1+1)d spacetime with central mass
(``sch1``), its N=1 extension (``ssch1``) and its N=2 extension in the
raising/lowering basis (``ssch2``), together with bracket evaluation,
consistency verifiers, the triangular decomposition and the four adjoint
(anti-automorphism) maps.
"""

from __future__ import annotations

import copy
import functools
import json
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .scalars import QI, QI_ONE, as_fraction, parse_rational

KINDS = ("sch1", "ssch1", "ssch2")

EVEN = 0
ODD = 1


@dataclass(frozen=True)
class Generator:
    name: str
    parity: int
    degree: tuple


class StructureTable:
    """Bracket table stored once per unordered generator pair.

    Odd-odd pairs are anticommutators, every other pair a commutator; the
    lookup direction is fixed by super-(anti)symmetry
    [x,y} = -(-1)^{|x||y|} [y,x}.  Structure constants are Fractions.

    Every ordered pair is compiled once: ``ad[x][y]`` is [x,y} as (h, int)
    pairs over one ``denominator`` B, so ad_x y = [x,y}.
    """

    def __init__(self, kind, generators, brackets):
        self.kind = kind
        self.generators = list(generators)
        self._by_name = {g.name: g for g in self.generators}
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        self._pairs = {}
        for (x, y), value in brackets.items():
            self._store(x, y, {g: as_fraction(c) for g, c in value.items()})
        self.names = names = tuple(g.name for g in self.generators)
        self.denominator = B = lcm(*(c.denominator for v in self._pairs.values()
                                     for c in v.values()))
        self.ad = {x: dict.fromkeys(names, ()) for x in names}
        for (x, y), v in self._pairs.items():
            row = self.ad[x][y] = tuple((h, int(c * B)) for h, c in v.items())
            if x != y:  # [y,x} = -(-1)^{|x||y|} [x,y}
                odd = self.parity(x) and self.parity(y)
                self.ad[y][x] = row if odd else tuple((h, -c) for h, c in row)

    def _store(self, x, y, value):
        if x not in self._by_name or y not in self._by_name:
            raise ValueError("unknown generator in bracket (%s, %s)" % (x, y))
        key = (x, y) if self._index[x] <= self._index[y] else (y, x)
        if key != (x, y):
            sign = 1 if self.parity(x) and self.parity(y) else -1
            value = {g: c * sign for g, c in value.items()}
        if key in self._pairs:
            raise ValueError("duplicate bracket for pair %s" % (key,))
        self._pairs[key] = value

    def generator(self, name) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError("unknown generator %r" % name) from None

    def parity(self, name) -> int:
        return self.generator(name).parity

    def degree(self, name) -> tuple:
        return self.generator(name).degree

    def bracket_gens(self, x, y) -> dict:
        """[x,y} for generator names, as a dict name -> Fraction."""
        self.generator(x), self.generator(y)
        return {h: Fraction(c, self.denominator) for h, c in self.ad[x][y]}

    def residuals(self, rows, basis, scale):
        """Nonzero bracket residuals of a representation on integer rows.

        ``rows[g][f]`` holds g f as (key, int) pairs over one denominator
        D = ``scale``, for f in ``basis`` and every key those reach.  For
        x <= y in table order and f in ``basis``, with B the table's
        ``denominator``, yields (x, y, f, residual, B D^2) for each nonzero
        residual B D^2 (x(y f) - (-1)^{|x||y|} y(x f) - [x,y} f), summed
        in ints as a {key: int} dict.  For y = x the two composites are
        one: they cancel for an even x and add up to 2 x(x f) for an odd x.
        """
        names, B = self.names, self.denominator
        for i, x in enumerate(names):
            rx, ad_x = rows[x], self.ad[x]
            px = self.parity(x)
            for y in names[i:]:
                ry = rows[y]
                # (first row, second row, factor) of each composite
                if y != x:
                    swap = B if (px and self.parity(y)) else -B
                    composites = ((ry, rx, B), (rx, ry, swap))
                elif px:
                    composites = ((rx, rx, 2 * B),)
                else:
                    composites = ()
                minus_bracket = [(rows[h], -n * scale) for h, n in ad_x[y]]
                for f in basis:
                    acc = defaultdict(int)
                    for first, second, factor in composites:
                        for key, c in first[f]:
                            c *= factor
                            for k2, c2 in second[key]:
                                acc[k2] += c * c2
                    for rh, c in minus_bracket:
                        for k2, c2 in rh[f]:
                            acc[k2] += c * c2
                    if any(acc.values()):
                        yield x, y, f, acc, B * scale * scale

    def _residual_bound(self, norm, scale):
        """A bound on the coefficients of a residual of ``residuals`` read
        as a polynomial, on rows of L1 norm <= ``norm``: two composites of
        norm <= B norm^2, the bracket part <= N scale norm (N the largest
        L1 norm of a bracket)."""
        N = max(sum(abs(n) for _, n in bracket)
                for by_y in self.ad.values() for bracket in by_y.values())
        return (2 * self.denominator * norm + N * scale) * norm

    def to_json_dict(self) -> dict:
        gens = [
            {"name": g.name, "parity": "odd" if g.parity else "even",
             "degree": list(g.degree)}
            for g in self.generators
        ]
        brackets = []
        for (x, y) in sorted(self._pairs, key=lambda p: (self._index[p[0]], self._index[p[1]])):
            value = self._pairs[(x, y)]
            brackets.append({
                "x": x, "y": y,
                "value": {g: str(c) for g, c in sorted(value.items())},
            })
        return {"kind": self.kind, "generators": gens, "brackets": brackets}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_json_dict(data) -> "StructureTable":
        gens = [
            Generator(g["name"], ODD if g["parity"] == "odd" else EVEN,
                      tuple(g["degree"]))
            for g in data["generators"]
        ]
        brackets = {}
        for row in data["brackets"]:
            brackets[(row["x"], row["y"])] = {
                g: parse_rational(c) for g, c in row["value"].items()
            }
        return StructureTable(data["kind"], gens, brackets)


def _sch1_generators():
    return [
        Generator("H", EVEN, (-2,)),
        Generator("P", EVEN, (-1,)),
        Generator("G", EVEN, (1,)),
        Generator("D", EVEN, (0,)),
        Generator("K", EVEN, (2,)),
        Generator("M", EVEN, (0,)),
    ]


_SCH1_BRACKETS = {
    ("H", "D"): {"H": 2},
    ("H", "K"): {"D": 1},
    ("D", "K"): {"K": 2},
    ("P", "G"): {"M": 1},
    ("H", "G"): {"P": 1},
    ("D", "G"): {"G": 1},
    ("P", "D"): {"P": 1},
    ("P", "K"): {"G": 1},
}


@functools.cache
def _shared_table(kind: str) -> StructureTable:
    """The structure table for ``sch1``, ``ssch1`` or ``ssch2``, compiled
    once per kind and shared by every reader that does not edit it."""
    if kind == "sch1":
        return StructureTable(kind, _sch1_generators(), dict(_SCH1_BRACKETS))

    if kind == "ssch1":
        gens = _sch1_generators() + [
            Generator("Q", ODD, (-1,)),
            Generator("S", ODD, (1,)),
            Generator("X", ODD, (0,)),
        ]
        brackets = dict(_SCH1_BRACKETS)
        brackets.update({
            ("Q", "Q"): {"H": -2},
            ("S", "S"): {"K": -2},
            ("X", "X"): {"M": -1},
            ("Q", "X"): {"P": -1},
            ("S", "X"): {"G": -1},
            ("Q", "S"): {"D": -1},
            ("Q", "D"): {"Q": 1},
            ("Q", "K"): {"S": 1},
            ("D", "S"): {"S": 1},
            ("H", "S"): {"Q": 1},
            ("Q", "G"): {"X": 1},
            ("P", "S"): {"X": 1},
        })
        return StructureTable(kind, gens, brackets)

    if kind == "ssch2":
        gens = [
            Generator("H", EVEN, (-2, 0)),
            Generator("P", EVEN, (-1, 0)),
            Generator("G", EVEN, (1, 0)),
            Generator("D", EVEN, (0, 0)),
            Generator("K", EVEN, (2, 0)),
            Generator("M", EVEN, (0, 0)),
            Generator("R", EVEN, (0, 0)),
            Generator("Q+", ODD, (-1, 1)),
            Generator("Q-", ODD, (-1, -1)),
            Generator("S+", ODD, (1, 1)),
            Generator("S-", ODD, (1, -1)),
            Generator("X+", ODD, (0, 1)),
            Generator("X-", ODD, (0, -1)),
        ]
        brackets = dict(_SCH1_BRACKETS)
        brackets.update({
            ("Q+", "Q-"): {"H": -2},
            ("S+", "S-"): {"K": -2},
            ("X+", "X-"): {"M": -1},
            ("Q+", "X-"): {"P": -1},
            ("Q-", "X+"): {"P": -1},
            ("S+", "X-"): {"G": -1},
            ("S-", "X+"): {"G": -1},
            ("Q+", "S-"): {"D": -1, "R": -1},
            ("Q-", "S+"): {"D": -1, "R": 1},
        })
        for a, sign in (("+", 1), ("-", -1)):
            brackets.update({
                ("Q" + a, "D"): {"Q" + a: 1},
                ("Q" + a, "K"): {"S" + a: 1},
                ("D", "S" + a): {"S" + a: 1},
                ("H", "S" + a): {"Q" + a: 1},
                ("Q" + a, "G"): {"X" + a: 1},
                ("P", "S" + a): {"X" + a: 1},
                ("R", "Q" + a): {"Q" + a: sign},
                ("R", "S" + a): {"S" + a: sign},
                ("R", "X" + a): {"X" + a: sign},
            })
        return StructureTable(kind, gens, brackets)

    raise ValueError("unknown algebra kind %r" % kind)


def build_algebra(kind: str) -> StructureTable:
    """The structure table for ``sch1``, ``ssch1`` or ``ssch2``: a copy of
    the kind's shared table whose containers (``generators``, ``_by_name``,
    ``_index``, ``_pairs`` and each of its dicts, and ``ad``)
    are its own, so a caller may edit them; the immutable entries are
    shared."""
    shared = _shared_table(kind)
    table = copy.copy(shared)
    table.generators = list(shared.generators)
    table._by_name = dict(shared._by_name)
    table._index = dict(shared._index)
    table._pairs = {key: dict(value) for key, value in shared._pairs.items()}
    table.ad = {x: dict(row) for x, row in shared.ad.items()}
    return table


# ---------------------------------------------------------------------------
# consistency verifiers


@dataclass
class StructureReport:
    kind: str
    jacobi_failures: list = field(default_factory=list)
    antisymmetry_failures: list = field(default_factory=list)
    degree_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.jacobi_failures or self.antisymmetry_failures
                    or self.degree_failures)


def verify_structure(table: StructureTable, max_failures=20) -> StructureReport:
    """Exhaustive super-antisymmetry, degree additivity and Jacobi check;
    at most ``max_failures`` Jacobi failures, ValueError if that is < 1.

    The compiled brackets are super-antisymmetric off the diagonal by
    construction, so only an even generator's self-bracket can fail that
    law.  Jacobi, J(x,y,z) = [x,[y,z}} - (-1)^{|x||y|} [y,[x,z}} -
    [[x,y},z} = 0, is the closure of the adjoint rows ``table.ad``, which
    ``residuals`` checks in ints for x <= y; J(y,x,z) = -(-1)^{|x||y|}
    J(x,y,z) adds the swapped triples.  Failures are in table order.
    """
    if max_failures < 1:
        raise ValueError("max_failures must be >= 1, got %r"
                         % (max_failures,))
    report = StructureReport(table.kind)
    names, ad, B = table.names, table.ad, table.denominator
    for x in names:
        if not table.parity(x) and any(n for _, n in ad[x][x]):
            report.antisymmetry_failures.append((x, x))
        for y in names:
            expected = tuple(
                dx + dy for dx, dy in zip(table.degree(x), table.degree(y))
            )
            report.degree_failures += [(x, y, g) for g, _ in ad[x][y]
                                       if table.degree(g) != expected]
    failing = {t for x, y, z, _, _ in table.residuals(ad, names, B)
               for t in ((x, y, z), (y, x, z))}
    report.jacobi_failures = sorted(
        failing, key=lambda t: [table._index[g] for g in t])[:max_failures]
    return report


def triangular_decompose(table: StructureTable):
    """Split generators by the sign of the first nonzero degree entry."""
    plus, zero, minus = [], [], []
    for g in table.generators:
        sign = 0
        for entry in g.degree:
            if entry:
                sign = 1 if entry > 0 else -1
                break
        (plus if sign > 0 else minus if sign < 0 else zero).append(g.name)
    return plus, zero, minus


# ---------------------------------------------------------------------------
# adjoint maps


@dataclass
class AdjointMap:
    name: str
    epsilon: int
    lam: int
    antilinear: bool
    images: dict           # generator name -> dict name -> QI
    completed: tuple = ()  # generator names whose image was derived, not quoted


def _sgn(k) -> int:
    return -1 if k % 2 else 1


def build_adjoint(table: StructureTable, which: str, epsilon=0, lam=0) -> AdjointMap:
    """Construct omega1/omega2 (any kind) or sigma1/sigma2 (ssch2 only).

    Images the source tables leave implicit (the involution partners, and
    for sigma1 the images of S+/S-/H/G) are completed from the involution
    and anti-automorphism requirements; they are listed in ``completed`` and
    re-validated by :func:`verify_adjoint` rather than trusted.
    """
    if which not in ("omega1", "omega2", "sigma1", "sigma2"):
        raise ValueError("unknown adjoint map %r" % which)
    if which.startswith("sigma") and table.kind != "ssch2":
        raise ValueError(
            "%s is defined for ssch2 only: the N=1 algebra admits no "
            "parity-preserving adjoint squaring to the parity involution"
            % which
        )
    e, l = epsilon % 2, lam % 2
    kind = table.kind
    img = {}
    completed = []

    def one(g, h, coeff):
        img[g] = {h: coeff if isinstance(coeff, QI) else QI(coeff)}

    if which == "omega1":
        one("P", "G", _sgn(e))
        one("G", "P", _sgn(e))
        completed.append("G")
        one("H", "K", 1)
        one("K", "H", 1)
        completed.append("K")
        one("D", "D", 1)
        one("M", "M", 1)
        if kind == "ssch1":
            one("Q", "S", _sgn(l))
            one("S", "Q", _sgn(l))
            completed.append("S")
            one("X", "X", _sgn(e + l))
        elif kind == "ssch2":
            one("R", "R", 1)
            for a, b in (("+", "-"), ("-", "+")):
                one("Q" + a, "S" + b, _sgn(l))
                one("S" + a, "Q" + b, _sgn(l))
                completed.append("S" + a)
                one("X" + a, "X" + b, _sgn(e + l))
        antilinear = False
    elif which == "omega2":
        one("P", "P", _sgn(e))
        one("G", "G", _sgn(e))
        for g in ("H", "K", "D", "M"):
            one(g, g, -1)
        if kind == "ssch1":
            one("Q", "Q", QI(0, _sgn(l)))
            one("S", "S", QI(0, _sgn(l)))
            one("X", "X", QI(0, _sgn(l + e + 1)))
        elif kind == "ssch2":
            one("R", "R", 1)
            for a, b in (("+", "-"), ("-", "+")):
                one("Q" + a, "Q" + b, QI(0, _sgn(l)))
                one("S" + a, "S" + b, QI(0, _sgn(l)))
                one("X" + a, "X" + b, QI(0, _sgn(l + e + 1)))
        # the factors of i force scalar conjugation for idempotence
        antilinear = True
    elif which == "sigma1":
        one("K", "H", 1)
        one("H", "K", 1)
        completed.append("H")
        one("P", "G", 1)
        one("G", "P", 1)
        completed.append("G")
        for g in ("D", "R", "M"):
            one(g, g, 1)
        for a, s in (("+", 1), ("-", -1)):
            b = "-" if a == "+" else "+"
            one("Q" + a, "S" + b, s * _sgn(e))
            one("S" + a, "Q" + b, s * _sgn(e))
            completed.append("S" + a)
            one("X" + a, "X" + b, s * _sgn(e))
        antilinear = True
    else:  # sigma2
        for a, s in (("+", 1), ("-", -1)):
            b = "-" if a == "+" else "+"
            for fam in ("Q", "S", "X"):
                one(fam + a, fam + b, QI(0, s * _sgn(e)))
        one("R", "R", 1)
        for g in ("H", "K", "D", "M", "P", "G"):
            one(g, g, -1)
        antilinear = True

    missing = [g for g in table.names if g not in img]
    if missing:
        raise ValueError("adjoint %s missing images for %s" % (which, missing))
    return AdjointMap(which, e, l, antilinear, img, tuple(completed))


def identity_adjoint(table: StructureTable) -> AdjointMap:
    """The identity map packaged as a candidate adjoint (it is not one)."""
    img = {g: {g: QI_ONE} for g in table.names}
    return AdjointMap("identity", 0, 0, False, img)


@dataclass
class AdjointReport:
    map_name: str
    epsilon: int
    lam: int
    antilinear: bool
    involution: str = ""   # "identity" | "parity" | "none"
    convention: str = ""   # "plain" | "graded" | "none"
    involution_failures: list = field(default_factory=list)
    plain_failures: list = field(default_factory=list)
    graded_failures: list = field(default_factory=list)
    completed: tuple = ()

    @property
    def ok(self) -> bool:
        return self.involution in ("identity", "parity") and \
            self.convention in ("plain", "graded")


def _gauss_add(acc, a, b, row):
    """acc[k, 0], acc[k, 1] += (a + b i)(c + d i) for (k, c, d) in row."""
    for k, c, d in row:
        acc[k, 0] += a * c - b * d
        acc[k, 1] += a * d + b * c


def verify_adjoint(table: StructureTable, amap: AdjointMap) -> AdjointReport:
    """Check the involution law and the anti-automorphism law.

    Two candidate sign conventions are tested on every generator pair:
    plain  sigma([x,y}) = [sigma(y), sigma(x)}
    graded sigma([x,y}) = (-1)^{|x||y|} [sigma(y), sigma(x)}
    and the report states which one holds uniformly.

    Both laws run on Gaussian integers: each image coefficient is a pair
    (re, im) of ints over A, the lcm of every image denominator, and sums
    are {(generator, 0 or 1): int} over A^2 B.  A ValueError names the first
    generator without an image, met in the order of applying the map twice
    to each generator in turn, or an image generator outside the table.
    """
    report = AdjointReport(amap.name, amap.epsilon, amap.lam, amap.antilinear,
                           completed=amap.completed)
    names, ad, images = table.names, table.ad, amap.images
    for g in names:
        for h in (g, *images.get(g, ())):
            if h not in images:
                raise ValueError("adjoint %s undefined on %r" % (amap.name, h))
            table.generator(h)
    A = lcm(*(v.denominator for value in images.values()
              for c in value.values() for v in (c.re, c.im)))
    img = {g: [(h, int(c.re * A), int(c.im * A)) for h, c in value.items()]
           for g, value in images.items()}
    conj = -1 if amap.antilinear else 1
    id_ok, par_ok = True, True
    for g in names:
        twice = defaultdict(int)
        for h, a, b in img[g]:
            _gauss_add(twice, a, conj * b, img[h])
        twice = {k: v for k, v in twice.items() if v}
        one, par = {(g, 0): A * A}, {(g, 0): (-1) ** table.parity(g) * A * A}
        id_ok, par_ok = id_ok and twice == one, par_ok and twice == par
        if twice not in (one, par):
            report.involution_failures.append((g, {
                k: QI(Fraction(twice.get((k, 0), 0), A * A),
                      Fraction(twice.get((k, 1), 0), A * A))
                for k, _ in twice}))
    report.involution = "identity" if id_ok else ("parity" if par_ok else "none")

    for x in names:
        for y in names:
            lhs, rhs = defaultdict(int), defaultdict(int)
            for h, n in ad[x][y]:
                _gauss_add(lhs, A * n, 0, img[h])
            for h, a, b in img[y]:
                for k, c, d in img[x]:
                    _gauss_add(rhs, a * c - b * d, a * d + b * c,
                               ((g, n, 0) for g, n in ad[h][k]))
            sign = -1 if (table.parity(x) and table.parity(y)) else 1
            keys = lhs.keys() | rhs.keys()
            if any(lhs[k] != rhs[k] for k in keys):
                report.plain_failures.append((x, y))
            if any(lhs[k] != sign * rhs[k] for k in keys):
                report.graded_failures.append((x, y))
    if not report.plain_failures:
        report.convention = "plain"
    elif not report.graded_failures:
        report.convention = "graded"
    else:
        report.convention = "none"
    return report
