import gc
import random
from fractions import Fraction as F

import pytest

from oracles import parse_qi
from superschrod.quotient import gram
from superschrod.realization import (SuperPoly, SuperSpace, build_realization,
                                     enumerate_polyspace, poly_mono)
from superschrod.scalars import (QI, ScalarRing, gs_str, parse_gs,
                                 parse_rational, qi_str)
from superschrod.singular import bareiss_echelon, find_singular
from superschrod.verma import LowestWeight, ModuleVector, VermaModule


def test_rational_parsing():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 2/4 ") == F(1, 2)
    for bad in ("0.5", "1e3", "1/3x", "", "1/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_qi_rejects_floats():
    with pytest.raises(TypeError):
        QI(0.5)
    with pytest.raises(TypeError):
        QI(1, 0.25)


def test_qi_arithmetic():
    a = QI(F(1, 2), F(3, 4))
    b = QI(F(-2), F(1, 3))
    assert a + b == QI(F(-3, 2), F(13, 12))
    assert a * b == QI(F(1, 2) * F(-2) - F(3, 4) * F(1, 3),
                       F(1, 2) * F(1, 3) + F(3, 4) * F(-2))
    assert (a / b) * b == a
    assert QI(0, 1) * QI(0, 1) == QI(-1)


def test_qi_parse_render_roundtrip():
    values = [QI(0), QI(F(3, 2)), QI(0, F(-1, 3)), QI(F(3, 2), F(1, 2)),
              QI(F(-1), F(-2, 7)), QI(0, 1), QI(0, -1)]
    for v in values:
        assert parse_qi(qi_str(v)) == v
    assert parse_qi("3/2+1/2i") == QI(F(3, 2), F(1, 2))
    assert parse_qi("i") == QI(0, 1)
    assert parse_qi("-i") == QI(0, -1)


def test_qi_conjugation_is_ring_automorphism():
    rng = random.Random(20240811)
    def rand_qi():
        return QI(F(rng.randint(-9, 9), rng.randint(1, 9)),
                  F(rng.randint(-9, 9), rng.randint(1, 9)))
    for _ in range(50):
        a, b = rand_qi(), rand_qi()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a


def test_graded_scalar_chi_square():
    ring2 = ScalarRing(2)
    # chi * chi = m/2 = 1
    assert ring2.chi * ring2.chi == ring2.one
    ring0 = ScalarRing(0)
    assert ring0.chi * ring0.chi == ring0.zero
    # ring identity
    s = ring2.scalar(QI(F(2, 3)), QI(F(-1, 5)))
    assert ring2.one * s == s


def test_graded_scalar_ring_mismatch():
    r1, r2 = ScalarRing(1), ScalarRing(1)
    with pytest.raises(ValueError):
        r1.one * r2.one


def test_graded_scalar_mul_properties():
    rng = random.Random(7)
    ring = ScalarRing(F(3, 2))
    def rand_gs():
        return ring.scalar(QI(F(rng.randint(-5, 5), rng.randint(1, 4))),
                           QI(F(rng.randint(-5, 5), rng.randint(1, 4))))
    for _ in range(40):
        a, b, c = rand_gs(), rand_gs(), rand_gs()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_graded_scalar_twist_and_inverse():
    ring = ScalarRing(2)
    s = ring.scalar(QI(3), QI(5))
    assert s.twist() == ring.scalar(QI(3), QI(-5))
    assert s * s.inverse() == ring.one
    # nilpotent chi is not invertible at m=0
    ring0 = ScalarRing(0)
    with pytest.raises(ValueError):
        ring0.chi.inverse()


def test_graded_scalar_render_parse():
    ring = ScalarRing(F(1, 3))
    values = [ring.zero, ring.one, ring.chi,
              ring.scalar(QI(F(3, 2)), QI(F(-1, 2)))]
    for v in values:
        assert parse_gs(ring, gs_str(v)) == v
    with pytest.raises(ValueError):
        ring.scalar(QI(0, 1), QI(F(2, 7)))


# Odd-variable algebras are superspaces whose polynomials carry no t or x.


def _n1_odd_space(m):
    # {theta,theta} = {theta,eta} = 0, {eta,eta} = -m
    return SuperSpace([("theta", 0), ("eta", QI(F(-m, 2)))])


def _odd_poly(space, terms):
    return SuperPoly(space, {(0, 0, word): F(c) for word, c in terms.items()})


def _odd_gen(space, name):
    return poly_mono(space, word=(name,))


def test_odd_products():
    space = _n1_odd_space(1)
    theta, eta = _odd_gen(space, "theta"), _odd_gen(space, "eta")
    assert theta * theta == 0
    assert theta * eta == _odd_poly(space, {("theta", "eta"): 1})
    assert eta * theta == _odd_poly(space, {("theta", "eta"): -1})
    # eta^2 = -m/2 per instance square
    assert eta * eta == _odd_poly(space, {(): F(-1, 2)})


def test_odd_anticommutation_of_pure_odd_elements():
    # x, y of odd parity with vanishing cross anticommutators satisfy
    # x y = -y x; all generator squares set to 0 so no cross terms appear.
    space = SuperSpace([("a", 0), ("b", 0), ("c", 0)])
    rng = random.Random(3)
    gens = [_odd_gen(space, n) for n in ("a", "b", "c")]
    triple = gens[0] * gens[1] * gens[2]
    for _ in range(20):
        x = SuperPoly(space)
        y = SuperPoly(space)
        for g in gens:
            x = x + g.scale(QI(rng.randint(-3, 3)))
            y = y + g.scale(QI(rng.randint(-3, 3)))
        x = x + triple.scale(QI(rng.randint(-3, 3)))
        assert x.parity() in (0, 1)
        assert x * y == -(y * x)


def test_odd_associativity_seeded():
    space = SuperSpace([("theta", 0), ("eta", QI(F(-3, 2)))])
    rng = random.Random(11)
    words = [(), ("theta",), ("eta",), ("theta", "eta")]
    def rand_elem():
        return _odd_poly(space, {w: rng.randint(-4, 4) for w in words})
    for _ in range(30):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)


def test_odd_instance_mismatch():
    s1 = _n1_odd_space(1)
    s2 = _n1_odd_space(1)
    with pytest.raises(ValueError):
        _odd_gen(s1, "theta") * _odd_gen(s2, "eta")


# Module coefficients are real: Gaussian rationals appear only in the
# omega2/sigma1/sigma2 adjoint images.


def _is_rational(value):
    return isinstance(value, (int, F))


def test_module_coefficients_are_fractions():
    cases = [(LowestWeight("ssch1", F(1, 2), 1), 4, F(1, 2), 1),
             (LowestWeight("ssch2", F(3, 2), 1, F(1, 3)), 4, F(3, 2), 1)]
    for lw, degree, d, m in cases:
        mod = VermaModule(lw)
        reports = find_singular(mod, degree)
        assert reports, lw
        for rep in reports:
            for vec in rep.vectors:
                for coeff in vec.terms.values():
                    assert _is_rational(coeff.even) and _is_rational(coeff.odd)
        for weight in mod.enumerate_weights(3):
            gm = gram(mod, weight, check_adjoint=False)
            assert _is_rational(gm.det)
            assert all(_is_rational(v) for row in gm.matrix for v in row)
            echelon, _ = bareiss_echelon(gm.matrix)
            assert all(_is_rational(v) for row in echelon for v in row)
        ops = build_realization(lw.kind, d, m)
        space = next(iter(ops.values())).space
        polys = [poly_mono(space, t=a, x=b, word=w)
                 for a, b, w in enumerate_polyspace(space, 2)]
        for op in ops.values():
            for coeff, _, _, _ in op.terms:
                assert all(_is_rational(c) for c in coeff.terms.values())
            for f in polys:
                assert all(_is_rational(c) for c in op.apply(f).terms.values())
        with pytest.raises(ValueError):
            mod.basis_vector(mod.vacuum, QI(0, 1))


def test_constructors_reject_non_rational_coefficients():
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    for bad in (QI(1), QI(0, 1), F(1), 1):
        with pytest.raises(TypeError):
            ModuleVector(mod, {mod.vacuum: bad})
    other = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    with pytest.raises(TypeError):
        ModuleVector(mod, {mod.vacuum: other.ring.one})
    assert ModuleVector(mod, {mod.vacuum: mod.ring.chi}).terms == \
        {mod.vacuum: mod.ring.chi}
    space = SuperSpace.for_kind("ssch1", 1)
    for bad in (QI(1), QI(0, 1), 0.5):
        with pytest.raises(TypeError):
            SuperPoly(space, {(0, 0, ()): bad})
    poly = SuperPoly(space, {(1, 0, ()): 2, (0, 0, ("theta",)): F(1, 3)})
    assert (poly + poly).terms == poly.scale(2).terms
    assert (-poly).terms == poly.scale(-1).terms
    assert not (poly - poly)


def test_a_dropped_module_frees_its_ring_without_the_cycle_collector():
    mod = VermaModule(LowestWeight("ssch1", F(1, 2), 1))
    find_singular(mod, 3)
    gram(mod, 2, check_adjoint=False)
    gc.collect()
    del mod
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        rings = [obj for obj in gc.garbage if isinstance(obj, ScalarRing)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert rings == []
