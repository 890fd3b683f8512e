import json

import pytest

from superschrod.scalars import QI
from superschrod.superalgebra import (AdjointMap, Generator, StructureTable,
                                      build_adjoint, build_algebra,
                                      closes_under_bracket, identity_adjoint,
                                      triangular_decompose, verify_adjoint,
                                      verify_structure)


@pytest.fixture(scope="module")
def tables():
    return {kind: build_algebra(kind) for kind in ("sch1", "ssch1", "ssch2")}


def test_generator_counts(tables):
    assert len(tables["sch1"].names) == 6
    assert len(tables["ssch1"].names) == 9
    assert len(tables["ssch2"].names) == 13


def test_bracket_examples(tables):
    t1 = tables["ssch1"]
    assert t1.bracket_gens("H", "D") == {"H": QI(2)}
    assert t1.bracket_gens("Q", "Q") == {"H": QI(-2)}
    assert t1.bracket_gens("M", "G") == {}
    t2 = tables["ssch2"]
    assert t2.bracket_gens("Q+", "S-") == {"D": QI(-1), "R": QI(-1)}
    assert t2.bracket_gens("Q-", "S+") == {"D": QI(-1), "R": QI(1)}
    with pytest.raises(ValueError):
        t1.bracket_gens("H", "Z")


def test_bracket_super_antisymmetry(tables):
    for table in tables.values():
        for x in table.names:
            for y in table.names:
                sign = -1 if (table.parity(x) and table.parity(y)) else 1
                fwd = table.bracket_gens(x, y)
                back = table.bracket_gens(y, x)
                assert fwd == {g: c * QI(-sign) for g, c in back.items()}


def test_structure_verification_passes(tables):
    for kind, table in tables.items():
        report = verify_structure(table)
        assert report.ok, (kind, report.jacobi_failures[:3])


def test_corrupted_bracket_is_caught():
    gens = [Generator("H", 0, (-2,)), Generator("P", 0, (-1,)),
            Generator("G", 0, (1,)), Generator("D", 0, (0,)),
            Generator("K", 0, (2,)), Generator("M", 0, (0,))]
    brackets = {("H", "D"): {"H": 2}, ("H", "K"): {"D": 2},  # corrupt: D -> 2D
                ("D", "K"): {"K": 2}, ("P", "G"): {"M": 1},
                ("H", "G"): {"P": 1}, ("D", "G"): {"G": 1},
                ("P", "D"): {"P": 1}, ("P", "K"): {"G": 1}}
    table = StructureTable("sch1", gens, brackets)
    report = verify_structure(table)
    assert not report.ok
    assert ("H", "K", "G") in report.jacobi_failures
    # the cap holds: one failure for max_failures=1, none below 1
    assert len(report.jacobi_failures) > 1
    capped = verify_structure(table, max_failures=1)
    assert capped.jacobi_failures == report.jacobi_failures[:1]
    for cap in (0, -1):
        with pytest.raises(ValueError):
            verify_structure(table, max_failures=cap)


def test_degree_additivity(tables):
    for table in tables.values():
        for x in table.names:
            for y in table.names:
                expected = tuple(a + b for a, b in
                                 zip(table.degree(x), table.degree(y)))
                for g in table.bracket_gens(x, y):
                    assert table.degree(g) == expected


def test_triangular_decomposition(tables):
    plus1, zero1, minus1 = triangular_decompose(tables["ssch1"])
    assert set(plus1) == {"K", "G", "S"}
    assert set(zero1) == {"D", "M", "X"}
    assert set(minus1) == {"H", "P", "Q"}
    plus2, zero2, minus2 = triangular_decompose(tables["ssch2"])
    assert set(plus2) == {"K", "G", "S+", "S-", "X+"}
    assert set(zero2) == {"D", "R", "M"}
    assert set(minus2) == {"H", "P", "Q+", "Q-", "X-"}


def test_n1_plus_part_is_abelian(tables):
    table = tables["ssch1"]
    plus, _, _ = triangular_decompose(table)
    for x in plus:
        for y in plus:
            if x == y and table.parity(x):
                continue  # {S,S} = -2K is the Clifford square, not a bracket
            if x != y:
                assert table.bracket_gens(x, y) == {}


def test_osp_subalgebras(tables):
    # the five-generator subset {H,D,K,Q,S} closes (odd part Q, S)
    closed, escapes = closes_under_bracket(tables["ssch1"],
                                           ["H", "D", "K", "Q", "S"])
    assert closed, escapes
    # adding X instead of S does not close ({X,X} = -M escapes)
    closed, escapes = closes_under_bracket(tables["ssch1"],
                                           ["H", "D", "K", "X", "Q"])
    assert not closed
    # N=2 analogue with R
    closed, escapes = closes_under_bracket(
        tables["ssch2"], ["H", "D", "K", "R", "Q+", "Q-", "S+", "S-"])
    assert closed, escapes


@pytest.mark.parametrize("kind,name", [
    ("sch1", "omega1"), ("sch1", "omega2"),
    ("ssch1", "omega1"), ("ssch1", "omega2"),
    ("ssch2", "omega1"), ("ssch2", "omega2"),
    ("ssch2", "sigma1"), ("ssch2", "sigma2"),
])
@pytest.mark.parametrize("epsilon", [0, 1])
@pytest.mark.parametrize("lam", [0, 1])
def test_adjoint_maps(tables, kind, name, epsilon, lam):
    table = tables[kind]
    amap = build_adjoint(table, name, epsilon, lam)
    report = verify_adjoint(table, amap)
    assert report.ok, (kind, name, epsilon, lam,
                       report.involution_failures[:2],
                       report.plain_failures[:2], report.graded_failures[:2])
    if name.startswith("omega"):
        assert report.involution == "identity"
        assert report.convention == "plain"
    else:
        assert report.involution == "parity"
        assert report.convention == "graded"


def test_omega2_needs_conjugation(tables):
    # with linear scalar action the factors of i square to -1 on the odd
    # generators, so the map is no longer idempotent (it lands on the
    # parity involution instead)
    amap = build_adjoint(tables["ssch1"], "omega2")
    linear = AdjointMap(amap.name, amap.epsilon, amap.lam, False, amap.images,
                        amap.completed)
    report = verify_adjoint(tables["ssch1"], linear)
    assert report.involution == "parity"
    assert report.involution != "identity"
    # the antilinear version is the idempotent one
    assert verify_adjoint(tables["ssch1"], amap).involution == "identity"


def test_sigma2_squares_to_minus_one_on_odd(tables):
    amap = build_adjoint(tables["ssch2"], "sigma2")
    twice = amap.apply(amap.apply("Q+"))
    assert twice == {"Q+": QI(-1)}
    assert amap.antilinear


def test_sigma_unavailable_for_n1(tables):
    with pytest.raises(ValueError):
        build_adjoint(tables["ssch1"], "sigma1")


def test_identity_is_not_an_adjoint(tables):
    report = verify_adjoint(tables["ssch1"], identity_adjoint(tables["ssch1"]))
    assert report.convention == "none"
    assert not report.ok


def test_omega1_exchanges_triangular_parts(tables):
    # omega1 swaps the raising and lowering parts for both superalgebras;
    # omega2 fixes each part of ssch1.  On ssch2 omega2 preserves the
    # D-degree but flips the R-degree, so the X+ / X- pair crosses the
    # lexicographic split; only the N=1 preservation statement is asserted.
    for kind in ("ssch1", "ssch2"):
        table = tables[kind]
        plus, zero, minus = map(set, triangular_decompose(table))
        w1 = build_adjoint(table, "omega1")
        for g in table.names:
            img1 = set(w1.apply(g))
            for part in (plus, zero, minus):
                if g in part:
                    swapped = minus if part is plus else \
                        plus if part is minus else zero
                    assert img1 <= swapped
    table = tables["ssch1"]
    plus, zero, minus = map(set, triangular_decompose(table))
    w2 = build_adjoint(table, "omega2")
    for g in table.names:
        img2 = set(w2.apply(g))
        for part in (plus, zero, minus):
            if g in part:
                assert img2 <= part
    # ssch2: omega2 negates only the second grading component
    table2 = tables["ssch2"]
    w2 = build_adjoint(table2, "omega2")
    for g in table2.names:
        for h in w2.apply(g):
            d_g, r_g = table2.degree(g)
            d_h, r_h = table2.degree(h)
            assert (d_h, r_h) == (d_g, -r_g)


def test_sigma1_completed_images_are_reported(tables):
    amap = build_adjoint(tables["ssch2"], "sigma1")
    assert "S+" in amap.completed and "S-" in amap.completed
    assert "H" in amap.completed and "G" in amap.completed
    report = verify_adjoint(tables["ssch2"], amap)
    assert report.completed == amap.completed


def test_table_json_roundtrip(tables):
    for table in tables.values():
        text = table.to_json()
        again = StructureTable.from_json_dict(json.loads(text))
        assert again.to_json() == text
        assert verify_structure(again).ok
