"""Category samples: closure generation, family predicates, k(C)."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from easyqg import (
    BLACK,
    BoundTooSmall,
    WHITE,
    b_block,
    color_counts,
    empty_partition,
    family_category,
    family_generators,
    generate_category,
    identity,
    k_param,
    lower_pair,
    parse_partition,
    singleton,
    tensor,
    vertical_pair,
)
from easyqg import categories
from easyqg.categories import _nc_structures

import helpers


def test_closure_contains_base_and_rotations():
    sample = generate_category([vertical_pair(WHITE, BLACK)], 4)
    for upper in (WHITE, BLACK):
        for lower in (WHITE, BLACK):
            assert vertical_pair(upper, lower) in sample
    assert sample.saturated


def test_closure_insertion_order_irrelevant():
    gens = list(family_generators("S+"))
    a = generate_category(gens, 4)
    b = generate_category(list(reversed(gens)), 4)
    assert a.members == b.members


def test_bound_too_small():
    with pytest.raises(BoundTooSmall):
        generate_category([], 1)
    with pytest.raises(BoundTooSmall):
        generate_category([b_block(5)], 4)


def test_unsaturated_when_member_cap_hit():
    sample = generate_category(family_generators("S+"), 6, max_members=20)
    assert not sample.saturated


def test_member_cap_counts_words():
    """``max_members`` bounds the one-row words, which are the members with
    no upper points."""
    gens = family_generators("S+")
    words = sum(1 for p in generate_category(gens, 4).members if p.k == 0)
    assert generate_category(gens, 4, max_members=words).saturated
    assert not generate_category(gens, 4, max_members=words - 1).saturated


@pytest.mark.parametrize("family,bound", [("O+", 6), ("S+", 4)])
def test_closure_joins_each_glue_structure_once(monkeypatch, family, bound):
    """The blocks of a glue depend only on the two block structures and the
    overlap t, so the closure joins each ``(blocks, t)`` once, however many
    colorings share it.  One join per glue of two words made 19,543 joins
    at O+ 6 and 18,037 at S+ 4."""
    seen = []
    merge_blocks = categories.merge_blocks

    def counted(kept, glued, *parts):
        seen.append((tuple(blocks for blocks, _ in parts), len(glued)))
        return merge_blocks(kept, glued, *parts)

    monkeypatch.setattr(categories, "merge_blocks", counted)
    generate_category(family_generators(family), bound)
    assert len(seen) == len(set(seen))
    assert len(seen) <= 1000


@pytest.mark.parametrize(
    "generators,bound",
    [
        (family_generators("S+"), 4),
        (family_generators("H+", 2), 5),
        (family_generators("H+", 3), 5),
        ((lower_pair(WHITE, WHITE), singleton(WHITE)), 4),
        ((parse_partition("P(2,2;ww;ww;{{1,4},{2,3}})"),), 6),
        ((empty_partition(),), 2),
        ((), 6),
    ],
    ids=["S+", "H+2", "H+3", "cup-singleton", "crossing", "empty", "none"],
)
def test_closure_matches_member_closure(generators, bound):
    """The closure on boundary words gives the members of the closure run
    on whole members."""
    sample = generate_category(generators, bound)
    assert sample.saturated
    assert_sample_is(sample, helpers.member_closure(generators, bound))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(2, 4).flatmap(lambda bound: st.tuples(
    st.lists(helpers.colored_partitions(bound), max_size=2), st.just(bound))))
def test_closure_matches_member_closure_on_random_generators(case):
    """Random seeds, crossing ones too, close to the members of the closure
    run on whole members."""
    generators, bound = case
    sample = generate_category(generators, bound)
    assert sample.saturated
    assert_sample_is(sample, helpers.member_closure(generators, bound))


def assert_sample_is(sample, oracle: frozenset) -> None:
    """Every path that reads a sample's words (``members``,
    ``member_count``, ``k_param``, each slice of ``iter_members`` and
    ``in``) agrees with the member set ``oracle``."""
    bound = sample.max_points
    assert sample.members == oracle
    assert sample.member_count() == len(oracle)
    assert k_param(sample) == math.gcd(*(color_counts(p)[2] for p in oracle))
    sizes = (None, *range(bound + 1))
    for k in sizes:
        for l in sizes:
            for white in (False, True):
                expected = {p for p in oracle if k in (None, p.k) and l in (None, p.l)
                            and (p.all_white() or not white)}
                assert set(sample.iter_members(k=k, l=l, all_white=white)) == expected
    # the noncrossing partitions, then random ones, most of them crossing
    rng = Random(bound)
    others = [*helpers.colored_noncrossing(bound),
              *(helpers.random_partition(rng, bound) for _ in range(300))]
    for p in (*oracle, *others):
        assert (p in sample) == (p in oracle)


def test_closure_member_order_is_the_same_in_every_process():
    """The words are tuples of str, whose hashes change between processes;
    the members still come out in one order."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("from easyqg import family_generators, generate_category, parse_partition\n"
            "for gens, bound in ((family_generators('S+'), 4),\n"
            "                    ([parse_partition('P(2,2;ww;ww;{{1,4},{2,3}})')], 5)):\n"
            "    print(list(generate_category(gens, bound).iter_members()))\n")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("P(") > 1000


def test_saturated_means_fixed_point():
    """One more full closure pass over a saturated sample adds nothing."""
    from easyqg import compose, involute, rotate
    from easyqg.partitions import CORNERS

    sample = generate_category(family_generators("H+", 2), 4)
    assert sample.saturated
    members = sample.members
    for p in members:
        assert involute(p) in members
        for corner in CORNERS:
            row = p.k if corner in ("UL", "UR") else p.l
            if row:
                assert rotate(p, corner) in members
        for q in members:
            if p.points + q.points <= 4:
                assert tensor(p, q) in members
            if p.l == q.k and p.lower_colors == q.upper_colors:
                if q.l + p.k <= 4:
                    assert compose(q, p)[0] in members


@pytest.mark.parametrize(
    "family,s,bound",
    [
        ("U+", None, 6),
        ("O+", None, 5),
        ("S+", None, 4),
        ("H+", 2, 4),
        ("H+", 3, 5),
        ("S+", None, 5),
        ("O+", None, 8),
    ],
)
def test_family_predicate_matches_closure(family, s, bound):
    """The family enumerations agree with the generated closures."""
    closed = generate_category(family_generators(family, s), bound)
    direct = family_category(family, bound, s=s)
    assert closed.members == direct.members


@pytest.mark.parametrize(
    "family,s",
    [("O+", None), ("U+", None), ("S+", None), ("H+", 1), ("H+", 2), ("H+", 3), ("H+", 4)],
)
def test_family_iteration_consistent_with_predicate(family, s):
    sample = family_category(family, 6, s=s)
    members = list(sample.iter_members())
    assert len(members) == len(set(members))
    assert sample.member_count() == sum(1 for _ in sample.iter_members())
    # every colored noncrossing partition is in the sample exactly when
    # iteration yields it
    yielded = set(members)
    assert yielded <= set(helpers.colored_noncrossing(6))
    for p in helpers.colored_noncrossing(6):
        assert (p in sample) == (p in yielded)
    # every slice is the full iteration filtered, in the same order
    for white in (False, True):
        expected = [p for p in members if p.all_white() or not white]
        assert list(sample.iter_members(all_white=white)) == expected
        by_shape: dict[tuple[int, int], list] = {}
        for p in expected:
            by_shape.setdefault((p.k, p.l), []).append(p)
        for m in range(7):
            for k in range(m + 1):
                sliced = sample.iter_members(k=k, l=m - k, all_white=white)
                assert list(sliced) == by_shape.get((k, m - k), [])


def test_h1_equals_splus():
    assert family_category("H+", 5, s=1).members == family_category("S+", 5).members


def test_u_plus_closure_at_six():
    """generate_category({}, 6) builds exactly the balanced pairings."""
    closed = generate_category([], 6)
    assert closed.members == family_category("U+", 6).members
    assert lower_pair(WHITE, BLACK) in closed
    assert lower_pair(WHITE, WHITE) not in closed


@pytest.mark.parametrize(
    "family,s,expected",
    [("O+", None, 2), ("S+", None, 1), ("U+", None, 0), ("H+", 2, 2),
     ("H+", 3, 3), ("H+", 4, 4)],
)
def test_k_param_families(family, s, expected):
    sample = family_category(family, 8, s=s)
    assert k_param(sample) == expected


@pytest.mark.parametrize("bound", range(2, 7))
@pytest.mark.parametrize(
    "family,s",
    [("O+", None), ("U+", None), ("S+", None), ("H+", 1), ("H+", 2), ("H+", 3),
     ("H+", 4)],
)
def test_k_param_table_matches_member_loop(family, s, bound):
    sample = family_category(family, bound, s=s)
    assert k_param(sample) == helpers.member_loop_k(sample)


def test_k_param_gcd_equals_min_positive():
    for family, s in [("O+", None), ("S+", None), ("H+", 2), ("H+", 3)]:
        sample = family_category(family, 6, s=s)
        values = sorted(
            {abs(color_counts(p)[2]) for p in sample.iter_members()} - {0}
        )
        assert values[0] == k_param(sample)


def test_every_c_is_multiple_of_k():
    for family, s in [("O+", None), ("H+", 2), ("H+", 3), ("H+", 4)]:
        sample = family_category(family, 6, s=s)
        k = k_param(sample)
        for p in sample.iter_members():
            assert color_counts(p)[2] % k == 0


def test_o_plus_members_are_colored_pairings():
    sample = family_category("O+", 6)
    for p in sample.iter_members():
        assert all(len(b) == 2 for b in p.blocks)
    # all colorings of the cup are present (orthogonal family)
    for c1 in (WHITE, BLACK):
        for c2 in (WHITE, BLACK):
            assert lower_pair(c1, c2) in sample


def test_s_plus_contains_everything_noncrossing():
    sample = family_category("S+", 4)
    assert singleton(WHITE) in sample
    assert tensor(singleton(BLACK), singleton(WHITE)) in sample
    crossing = None
    from easyqg import ColoredPartition

    crossing = ColoredPartition(0, 4, "", "wwww", [(1, 3), (2, 4)])
    assert crossing not in sample


def test_member_counts_small_bounds():
    # hand-checked: (splits) x (structures) x (admissible colorings)
    assert family_category("U+", 2).member_count() == 1 + 3 * 2
    assert family_category("S+", 2).member_count() == 1 + 2 * 2 + 3 * (4 + 4)


def test_nc_structures_match_filter_oracle():
    for m in range(10):
        assert list(_nc_structures(m)) == helpers.nc_structures_oracle(m)
    for m in range(12):
        assert len(_nc_structures(m)) == math.comb(2 * m, m) // (m + 1)
