"""Condition checks at the fusion level and the partition level."""

from __future__ import annotations

import pytest

from easyqg import (
    WHITE,
    check_c1,
    check_c2,
    check_c2_partition_proxy,
    classify_cp,
    compose,
    cp2_witness,
    evaluate_conditions,
    family_category,
    get_ring,
    identity_power,
    involute,
    k_param,
    parse_partition,
)
from easyqg.conditions import FAILS, HOLDS, UNDETERMINED

import helpers


def test_check_c1_witnesses():
    status, witnesses = check_c1(get_ring("O+"), 6)
    assert status == HOLDS
    assert witnesses["u3"] == "u3"  # self-contragredient
    status, witnesses = check_c1(get_ring("H+", 3), 5)
    assert status == HOLDS
    assert witnesses["r[1,2]@3"] == "r[1,2]@3"  # (1,2) is self-conjugate
    assert witnesses["r[1]@3"] == "r[2]@3"
    assert witnesses["r[]@3"] == "r[]@3"


def test_check_c1_witnesses_recheckable():
    ring = get_ring("H+", 4)
    status, witnesses = check_c1(ring, 5)
    assert status == HOLDS
    for v_str, w_str in witnesses.items():
        v, w = ring.parse_label(v_str), ring.parse_label(w_str)
        assert ring.decompose(v, w).get((), 0) >= 1


@pytest.mark.parametrize(
    "family,s,expected",
    [("O+", None, (1, 2)), ("S+", None, (1, 1)), ("H+", 2, (1, 2)),
     ("H+", 3, (1, 3)), ("H+", 4, (1, 4))],
)
def test_check_c2_pairs(family, s, expected):
    status, witness, _ = check_c2(get_ring(family, s), 10)
    assert status == HOLDS
    assert witness == expected


def test_check_c2_witness_recheckable():
    ring = get_ring("H+", 3)
    _, (n_pow, k_0), _ = check_c2(ring, 10)
    small = ring.power(n_pow)
    big = ring.power(n_pow + k_0)
    assert all(big.get(label, 0) >= mult for label, mult in small.items())
    for t in range(1, k_0):
        for ell in range(8):
            assert not (ring.support(ell) & ring.support(ell + t))


def test_check_c2_capped_gap_search_undetermined():
    # O+ has k0 = 2; at level cap 1 the supports never get the chance to meet
    status, witness, note = check_c2(get_ring("O+"), 1)
    assert (status, witness) == (UNDETERMINED, None)
    assert "level cap 1" in note
    report = evaluate_conditions("O+", level_cap=1)
    assert report.c2_status == UNDETERMINED
    assert report.consistent


def test_u_plus_proxy_fails():
    sample = family_category("U+", 8)
    status, witness, note = check_c2_partition_proxy(sample, k_param(sample))
    assert status == FAILS
    assert witness is None
    assert "no all-white member" in note


@pytest.mark.parametrize(
    "family,s",
    [("O+", None), ("U+", None), ("S+", None), ("H+", 1), ("H+", 2), ("H+", 3),
     ("H+", 4)],
)
def test_c2_proxy_gap_matches_member_loop(family, s):
    """The gap read off the structures is the least positive l - k over the
    all-white members, each built and tested with ``in``."""
    top = family_category(family, 8, s=s)
    white = [p for p in helpers.white_noncrossing(8) if p in top]
    for bound in range(2, 9):
        sample = family_category(family, bound, s=s)
        gaps = [p.l - p.k for p in white if p.points <= bound and p.l > p.k]
        status, witness, _ = check_c2_partition_proxy(sample, k_param(sample))
        if gaps:
            assert witness[1] == min(gaps)
        else:
            assert (status, witness) == (FAILS, None)


@pytest.mark.parametrize(
    "family,s,cp1,cp2,rule",
    [
        ("O+", None, HOLDS, HOLDS, "b"),
        ("S+", None, HOLDS, HOLDS, "b"),
        ("U+", None, FAILS, FAILS, "a"),
        ("H+", 2, HOLDS, HOLDS, "b"),
        ("H+", 3, HOLDS, HOLDS, "c"),
        ("H+", 4, HOLDS, HOLDS, "c"),
    ],
)
def test_classify_cp(family, s, cp1, cp2, rule):
    sample = family_category(family, 8, s=s)
    result = classify_cp(sample)
    assert result.cp1 == cp1
    assert result.cp2 == cp2
    assert result.rule == rule


def test_generator_beyond_bound_leaves_cp_undetermined():
    # b_9 has 9 points, so the default bound of 8 sees only balanced members
    report = evaluate_conditions("H+", s=9)
    assert report.cp.k == 0
    assert (report.cp.cp1, report.cp.cp2, report.cp.rule) == (
        UNDETERMINED, UNDETERMINED, "none"
    )
    assert (report.c2_status, report.c2_witness) == (HOLDS, (1, 9))
    assert report.consistent


def test_cp2_witness_recheckable():
    for family, s in [("O+", None), ("S+", None), ("H+", 2), ("H+", 3)]:
        sample = family_category(family, 8, s=s)
        witness = cp2_witness(sample, k_param(sample))
        assert witness is not None
        r, n_pow = witness
        assert n_pow == 1
        assert r.all_white()
        assert (r.k, r.l) == (1 + k_param(sample), 1)
        assert compose(r, involute(r))[0] == identity_power(1, WHITE)


def test_cp2_witness_none_for_uplus():
    sample = family_category("U+", 8)
    assert cp2_witness(sample, k_param(sample)) is None


def test_reports_consistent():
    for family, s in [("O+", None), ("S+", None), ("H+", 2), ("H+", 3), ("U+", None)]:
        report = evaluate_conditions(family, s=s)
        assert report.consistent
        d = report.to_dict()
        assert d["bounds_used"]["max_points"] == 8
        if family == "U+":
            assert d["C1"]["status"] == FAILS and d["C2"]["status"] == FAILS
        else:
            assert d["C1"]["status"] == HOLDS and d["C2"]["status"] == HOLDS
            assert d["C2"]["witness"]["N"] == 1
            assert d["C2"]["witness"]["k0"] == d["k"]


def test_report_witness_literals_parse():
    report = evaluate_conditions("H+", s=3).to_dict()
    r = parse_partition(report["CP2"]["witness"])
    assert compose(r, involute(r))[0] == identity_power(1, WHITE)
    cp1_witness = parse_partition(report["CP1"]["witness"])
    assert cp1_witness in family_category("H+", 8, s=3)
