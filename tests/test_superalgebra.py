import copy
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (adjoint_apply, closes_under_bracket,
                     verify_adjoint_oracle, verify_structure_oracle)
from superschrod import superalgebra
from superschrod.scalars import QI
from superschrod.superalgebra import (AdjointMap, Generator, StructureTable,
                                      build_adjoint, build_algebra,
                                      identity_adjoint, triangular_decompose,
                                      verify_adjoint, verify_structure)


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
    twice = adjoint_apply(amap, adjoint_apply(amap, "Q+"))
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
            img1 = set(adjoint_apply(w1, g))
            for part in (plus, zero, minus):
                if g in part:
                    swapped = minus if part is plus else \
                        plus if part is minus else zero
                    assert img1 <= swapped
    table = tables["ssch1"]
    plus, zero, minus = map(set, triangular_decompose(table))
    w2 = build_adjoint(table, "omega2")
    for g in table.names:
        img2 = set(adjoint_apply(w2, g))
        for part in (plus, zero, minus):
            if g in part:
                assert img2 <= part
    # ssch2: omega2 negates only the second grading component
    table2 = tables["ssch2"]
    w2 = build_adjoint(table2, "omega2")
    for g in table2.names:
        for h in adjoint_apply(w2, g):
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


_COMPILED = ("kind", "names", "ad", "denominator", "_index", "_by_name",
             "_pairs", "generators")


def _snapshot(table):
    """Every attribute of a table, its containers copied."""
    return {attr: copy.deepcopy(getattr(table, attr)) for attr in _COMPILED}


@pytest.mark.parametrize("kind", ["sch1", "ssch1", "ssch2"])
def test_build_algebra_copies_the_shared_table(kind):
    shared = superalgebra._shared_table(kind)
    assert superalgebra._shared_table(kind) is shared
    before = _snapshot(shared)
    table = build_algebra(kind)
    assert table is not shared
    # equal to a table compiled from scratch, attribute by attribute
    scratch = superalgebra._shared_table.__wrapped__(kind)
    again = StructureTable(kind, list(table.generators),
                           {key: dict(v) for key, v in table._pairs.items()})
    for fresh in (scratch, again):
        assert table.to_json() == fresh.to_json()
        for attr in _COMPILED:
            assert getattr(table, attr) == getattr(fresh, attr), attr
    # edit every container of the copy
    x, y = next((x, y) for x in table.names for y in table.names
                if table.ad[x][y])
    table.ad[x][y] = tuple((h, 2 * c) for h, c in table.ad[x][y])
    table.ad[y][x] = ()
    key = next(iter(table._pairs))
    g = next(iter(table._pairs[key]))
    table._pairs[key][g] *= 3
    table.generators.reverse()
    table._index[x] = -1
    assert not verify_structure(table).ok
    # the shared table and the next copy are untouched
    assert _snapshot(shared) == before
    assert _snapshot(build_algebra(kind)) == before
    assert verify_structure(build_algebra(kind)).ok


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["sch1", "ssch1", "ssch2"]),
       via_json=st.booleans(),
       mutation=st.sampled_from(["double", "shift", "drop", "degree",
                                 "self"]),
       max_failures=st.integers(1, 20) | st.just(10 ** 6), data=st.data())
def test_verify_structure_matches_fraction_oracle(kind, via_json, mutation,
                                                  max_failures, data):
    # one constant doubled, shifted off the integers (denominator > 1) or
    # dropped, a bracket given a term on a generator of the wrong degree,
    # or a self-bracket added (which breaks antisymmetry for an even one)
    table = build_algebra(kind)
    pairs = {key: dict(value) for key, value in table._pairs.items()}
    if mutation == "self":
        x = data.draw(st.sampled_from([g for g in table.names
                                       if (g, g) not in pairs]))
        key = (x, x)
        pairs[key] = {data.draw(st.sampled_from(table.names)): F(1)}
    else:
        key = data.draw(st.sampled_from(sorted(pairs)))
    value = pairs[key]
    if mutation == "degree":
        degree = tuple(a + b for a, b in zip(table.degree(key[0]),
                                               table.degree(key[1])))
        wrong = [g for g in table.names if table.degree(g) != degree]
        value[data.draw(st.sampled_from(wrong))] = data.draw(
            st.sampled_from([F(1), F(-2), F(3, 4)]))
    elif mutation != "self":
        g = data.draw(st.sampled_from(sorted(value)))
        if mutation == "double":
            value[g] *= 2
        elif mutation == "shift":
            value[g] += data.draw(st.builds(F, st.integers(-9, 9),
                                            st.integers(2, 9)).filter(
                lambda q: q.denominator > 1))
        else:
            del value[g]
    mutant = StructureTable(kind, table.generators, pairs)
    if via_json:
        mutant = StructureTable.from_json_dict(mutant.to_json_dict())
    report = verify_structure(mutant, max_failures)
    assert report == verify_structure_oracle(mutant, max_failures)
    assert report.ok == verify_structure_oracle(mutant).ok


def _all_maps():
    maps = []
    for kind in ("sch1", "ssch1", "ssch2"):
        names = ["omega1", "omega2"] + (["sigma1", "sigma2"]
                                        if kind == "ssch2" else [])
        maps += [(kind, name, e, l) for name in names
                 for e in (0, 1) for l in (0, 1)]
        maps.append((kind, "identity", 0, 0))
    return maps


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(case=st.sampled_from(_all_maps()),
       mutation=st.sampled_from([None, "scale", "antilinear", "missing",
                                 "unknown"]),
       factor=st.sampled_from([QI(2), QI(0, 1), QI(F(1, 3), 1)]),
       data=st.data())
def test_verify_adjoint_matches_qi_oracle(case, mutation, factor, data):
    # one image coefficient scaled by 2, i or 1/3 + i, the antilinear flag
    # flipped, one generator's image removed, or one image sent to a
    # generator Z outside the table (whose own image is g)
    kind, name, e, l = case
    table = build_algebra(kind)
    amap = identity_adjoint(table) if name == "identity" else \
        build_adjoint(table, name, e, l)
    images = {g: dict(img) for g, img in amap.images.items()}
    antilinear = amap.antilinear
    g = data.draw(st.sampled_from(table.names))
    if mutation == "scale":
        h = data.draw(st.sampled_from(sorted(images[g])))
        images[g][h] = images[g][h] * factor
    elif mutation == "antilinear":
        antilinear = not antilinear
    elif mutation == "missing":
        del images[g]
    elif mutation == "unknown":
        images[g], images["Z"] = {"Z": QI(1)}, {g: QI(1)}
    mutant = AdjointMap(amap.name, amap.epsilon, amap.lam, antilinear, images,
                        amap.completed)
    if mutation in ("missing", "unknown"):
        with pytest.raises(ValueError) as got:
            verify_adjoint(table, mutant)
        with pytest.raises(ValueError) as want:
            verify_adjoint_oracle(table, mutant)
        assert str(got.value) == str(want.value)
        return
    report = verify_adjoint(table, mutant)
    assert report == verify_adjoint_oracle(table, mutant)
    if mutation is None:
        assert report.ok == (name != "identity")
