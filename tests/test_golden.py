from golden import record


def test_quick_golden_subset_is_unchanged():
    # the whole corpus is recomputed by ``tests/golden/record.py --check``
    recorded = record.load()["sha256"]
    quick = [(case_id, thunk) for case_id, thunk in record.cases()
             if record.is_quick(case_id)]
    assert len(quick) > 40
    assert record.mismatches(quick, recorded) == []


def test_every_case_is_recorded_and_every_known_bad_id_is_a_case():
    data = record.load()
    ids = [case_id for case_id, _ in record.cases()]
    assert sorted(ids) == sorted(data["sha256"])
    assert set(data["known_bad"]) <= set(ids)
    assert data["known_bad"] == record.known_bad()
