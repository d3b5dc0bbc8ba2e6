"""T_p matrices: definition, functoriality, ranks, projections."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from easyqg import (
    ColoredPartition,
    ExactMatrix,
    IndexOutOfRange,
    MissingSubprojectives,
    NotProjective,
    ParseError,
    ShapeMismatch,
    SizeOverflow,
    WHITE,
    check_functoriality,
    compose,
    cp1_witness_check,
    delta_p,
    family_category,
    four_block_wwbb,
    generate_category,
    identity,
    identity_power,
    intertwiner_dim,
    involute,
    is_noncrossing,
    is_projective,
    lower_pair,
    matrix_rank,
    one_block,
    projective_projection,
    singleton,
    t_map,
    tensor,
)
from easyqg import tmaps
from easyqg.tmaps import range_projection, rank_of_vectors, sub_projectives

import helpers


# -- delta and t_map ----------------------------------------------------------


def test_delta_examples():
    assert delta_p(identity(), (3,), (3,), 3) == 1
    assert delta_p(identity(), (1,), (3,), 3) == 0
    assert delta_p(lower_pair(WHITE, WHITE), (), (1, 2), 2) == 0
    assert delta_p(lower_pair(WHITE, WHITE), (), (2, 2), 2) == 1
    assert delta_p(one_block(0, 4, "", "wwww"), (), (2, 2, 2, 2), 3) == 1
    with pytest.raises(IndexOutOfRange):
        delta_p(identity(), (4,), (1,), 3)
    with pytest.raises(ShapeMismatch):
        delta_p(identity(), (1, 1), (1,), 3)


def test_t_map_identity():
    for n in (1, 2, 4):
        assert t_map(identity(), n) == ExactMatrix.identity(n)


def test_t_map_cup_vector():
    m = t_map(lower_pair(WHITE, WHITE), 2)
    assert m.rows == 4 and m.cols == 1
    assert m.entries == {(0, 0): 1, (3, 0): 1}  # e1(x)e1 + e2(x)e2


def test_t_map_ignores_colors():
    rng = Random(7)
    sample = family_category("S+", 5)
    members = list(sample.iter_members())
    for p in rng.sample(members, 80):
        assert t_map(p, 2) == t_map(p.uncolored(), 2)


def _assert_t_map_is_delta(p, n):
    m = t_map(p, n)
    assert (m.rows, m.cols) == (n**p.l, n**p.k)
    for i in itertools.product(range(1, n + 1), repeat=p.k):
        col = 0
        for x in i:
            col = col * n + x - 1
        for j in itertools.product(range(1, n + 1), repeat=p.l):
            row = 0
            for x in j:
                row = row * n + x - 1
            assert m.entries.get((row, col), 0) == delta_p(p, i, j, n)


def test_t_map_matches_delta_entrywise():
    structures = helpers.all_nc_structures(5)
    assert structures[0].points == 0  # the empty partition is included
    rng = Random(10)
    crossing = []
    while len(crossing) < 40:
        p = helpers.random_partition(rng, max_points=5)
        if not is_noncrossing(p):
            crossing.append(p)
    mixed = ColoredPartition(1, 2, "w", "ww", [(1, 3), (2,)])
    for p in [mixed] + structures + crossing:
        for n in (1, 2, 3):
            _assert_t_map_is_delta(p, n)


def test_size_overflow(monkeypatch):
    monkeypatch.setenv("EASYQG_MAX_TMAP_ENTRIES", str(10**3))
    with pytest.raises(SizeOverflow):
        t_map(identity_power(4), 10)


def test_size_cap_env_override(monkeypatch):
    monkeypatch.setenv("EASYQG_MAX_TMAP_ENTRIES", "5")
    with pytest.raises(SizeOverflow):
        t_map(identity_power(2), 3)
    monkeypatch.setenv("EASYQG_MAX_TMAP_ENTRIES", "100")
    assert t_map(identity_power(2), 3).rows == 9
    # built once under the larger cap, the memo still answers to the cap
    monkeypatch.setenv("EASYQG_MAX_TMAP_ENTRIES", "5")
    with pytest.raises(SizeOverflow):
        t_map(identity_power(2), 3)


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5", "1e3"])
def test_size_cap_env_must_be_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("EASYQG_MAX_TMAP_ENTRIES", raw)
    with pytest.raises(ParseError, match="EASYQG_MAX_TMAP_ENTRIES"):
        t_map(identity(), 2)
    with pytest.raises(ParseError):
        intertwiner_dim(family_category("O+", 2), 1, 1, 2)


def test_cached_t_map_is_read_only():
    """T_p is kept per block structure and n and shared, so no caller may
    write to it."""
    colored = ColoredPartition(1, 2, "b", "wb", [(1, 3), (2,)])
    for p in (colored, colored.uncolored(), lower_pair(WHITE, WHITE)):
        for n in (1, 2, 3):
            first = t_map(p, n)
            with pytest.raises(TypeError):
                first.entries[(0, 0)] = 5
            with pytest.raises(TypeError):
                del first.entries[next(iter(first.entries))]
            with pytest.raises(TypeError):  # compared by value, so unhashable
                hash(first)
            assert t_map(p, n) == first
            _assert_t_map_is_delta(p, n)


def test_operations_keep_the_matrix_invariant():
    """Sums, scalings, products, Kronecker products and transposes skip the
    per-entry check; each stores no zero and no key outside its shape, and
    equals itself rebuilt through the checking constructor."""
    structures = helpers.all_nc_structures(4)
    for n in (1, 2, 3):
        maps = [t_map(p, n) for p in structures]
        for tp in maps:
            results = [tp.transpose(), tp.scale(0), tp.scale(Fraction(-2, 3))]
            for tq in maps:
                if (tp.rows, tp.cols) == (tq.rows, tq.cols):
                    results.append(tp + tq.scale(-1))
                if tq.cols == tp.rows:
                    results.append(tq @ tp)
                results.append(tp.kron(tq))
            for m in results:
                assert all(m.entries.values())
                assert all(0 <= r < m.rows and 0 <= c < m.cols for r, c in m.entries)
                assert m == ExactMatrix(m.rows, m.cols, dict(m.entries))


def test_product_whose_entries_cancel_stores_no_zero():
    row = ExactMatrix(1, 2, {(0, 0): 1, (0, 1): 1})
    prod = row @ ExactMatrix(2, 1, {(0, 0): 1, (1, 0): -1})
    assert prod.is_zero() and prod.entries == {}
    # only the cancelled entry is dropped
    mixed = ExactMatrix(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 2})
    prod = mixed @ ExactMatrix(2, 1, {(0, 0): 1, (1, 0): -1})
    assert prod.entries == {(1, 0): 2}


def test_integerize_scales_by_the_lcm_of_the_denominators():
    assert tmaps._integerize({0: 3, 5: -2}) == {0: 3, 5: -2}
    halves = {0: Fraction(1, 2), 1: Fraction(2, 3), 2: 1}
    assert tmaps._integerize(halves) == {0: 3, 1: 4, 2: 6}
    assert rank_of_vectors([halves, {0: 3, 1: 4, 2: 6}, {1: 1}]) == 2


# -- functoriality -------------------------------------------------------------


def test_cap_cup_loop_factor():
    cup = lower_pair(WHITE, WHITE)
    cap = involute(cup)
    n = 2
    prod = t_map(cap, n) @ t_map(cup, n)
    qp, removed = compose(cap, cup)
    assert removed == 1
    assert prod == t_map(qp, n).scale(n**removed)
    assert check_functoriality(cup, cap, n)


def test_transpose_is_involution_image():
    rng = Random(8)
    sample = family_category("S+", 6)
    members = list(sample.iter_members(all_white=True))
    for p in rng.sample(members, 60):
        assert t_map(involute(p), 2) == t_map(p, 2).transpose()


def test_functoriality_small_exhaustive():
    structures = helpers.all_nc_structures(4)
    for n in (2, 3):
        for p in structures:
            for q in structures:
                if p.points + q.points <= 4:
                    assert check_functoriality(p, q, n)


def test_functoriality_propagates_color_mismatch():
    from easyqg import ColorMismatch

    cup_wb = lower_pair(WHITE, "b")
    cap_ww = involute(lower_pair(WHITE, WHITE))
    with pytest.raises(ColorMismatch):
        check_functoriality(cup_wb, cap_ww, 2)


def test_intertwiner_dim_bound_guard():
    sample = family_category("O+", 4)
    with pytest.raises(ShapeMismatch):
        intertwiner_dim(sample, 0, 6, 2)


# -- intertwiner dimensions ----------------------------------------------------


def test_o_plus_hom_spaces():
    sample = family_category("O+", 8)
    assert intertwiner_dim(sample, 0, 2, 2)[0] == 1
    assert intertwiner_dim(sample, 0, 4, 2)[0] == 2
    # odd point counts carry no all-white pairings at all
    assert intertwiner_dim(sample, 0, 3, 2)[0] == 0


def test_s_plus_hom_1_1():
    sample = family_category("S+", 4)
    dim, basis = intertwiner_dim(sample, 1, 1, 4)
    assert dim == 2
    assert identity() in basis
    assert ColoredPartition(1, 1, "w", "w", [(1,), (2,)]) in basis


def test_gram_entries_are_join_powers():
    """<T_p, T_q> = n^|p v q| for every pair of all-white noncrossing
    diagrams of one shape with at most 5 points, and for crossing pairs.
    The common coarsenings sigma of p and q into at most n blocks give the
    same count: each labels (n)_|sigma| multi-indices."""
    by_shape = {}
    for p in helpers.all_nc_structures(5):
        by_shape.setdefault((p.k, p.l), []).append(p)
    pairs = [(p, q) for group in by_shape.values() for p in group for q in group]
    rng = Random(13)
    crossing = []
    while len(crossing) < 40:
        p = helpers.random_partition(rng, max_points=5)
        q = helpers.random_partition(rng, max_points=5)
        if (p.k, p.l) == (q.k, q.l) and not (is_noncrossing(p) and is_noncrossing(q)):
            crossing.append((p, q))
    for n in (1, 2, 3):
        maps = {}
        for p, q in pairs + crossing:
            tp = maps.setdefault(p, t_map(p, n)).entries
            tq = maps.setdefault(q, t_map(q, n)).entries
            inner = sum(v * tq.get(key, 0) for key, v in tp.items())
            assert inner == n ** helpers.join_blocks(p, q)
            assert helpers.join_blocks(p, q) == helpers.join_blocks(q, p)
            common = set(tmaps._coarsenings(p, n)) & set(tmaps._coarsenings(q, n))
            assert sum(math.perm(n, len(set(v))) for v in common) == inner


@settings(derandomize=True, database=None)
@given(helpers.colored_partitions(max_points=6), st.integers(1, 7))
def test_coarsenings_are_the_labellings_constant_on_blocks(p, n):
    """The coarsenings of p into at most n blocks are the restricted-growth
    labellings of its points with at most n labels constant on its blocks."""
    found = list(tmaps._coarsenings(p, n))
    assert len(set(found)) == len(found)
    for v in found:
        assert len(set(v)) <= n
        assert all(len({v[x - 1] for x in b}) == 1 for b in p.blocks)
    expected = [
        v
        for v in helpers.restricted_growth_strings(p.points)
        if len(set(v)) <= n and all(len({v[x - 1] for x in b}) == 1 for b in p.blocks)
    ]
    assert len(found) == len(expected)
    assert sorted(found) == expected


def test_intertwiner_dim_matches_vector_oracle():
    """Same rank and basis as the flattened T_p, whether the m members are
    at most or more than the n^(k+l) entries of a T_p."""
    gram, vector, deficient = set(), set(), set()
    for family, s in (("O+", None), ("S+", None), ("H+", 2)):
        sample = family_category(family, 6, s=s)
        for k, l in ((k, l) for k in range(7) for l in range(7 - k)):
            m = len(list(sample.iter_members(k=k, l=l, all_white=True)))
            for n in (1, 2, 3, 4):
                dim, basis = intertwiner_dim(sample, k, l, n)
                assert (dim, basis) == helpers.vector_intertwiner_dim(sample, k, l, n)
                if m:
                    (gram if m <= n ** (k + l) else vector).add((family, k, l, n))
                if dim < m:
                    deficient.add((family, n))
    assert len(gram) > 20 and len(vector) > 20
    assert {("S+", 1), ("S+", 2), ("S+", 3), ("O+", 1), ("H+", 1), ("H+", 2)} <= deficient
    # noncrossing pairings are independent from n = 2 on (Temperley-Lieb)
    assert ("O+", 2) not in deficient
    assert ("S+", 3, 3, 3) in gram and ("S+", 3, 3, 2) in vector
    for family, k, l, n, oracle in (
        ("S+", 4, 4, 2, helpers.vector_intertwiner_dim),  # m = 1430 against 2^8
        # a benchmark shape: 429 T_p of up to 4^7 entries, so Gram columns
        ("S+", 4, 3, 4, helpers.gram_intertwiner_dim),
        ("O+", 5, 5, 4, helpers.vector_intertwiner_dim),
    ):
        sample = family_category(family, k + l)
        assert intertwiner_dim(sample, k, l, n) == oracle(sample, k, l, n)
    # every coarsening of every member has at most n blocks; T_p has n^6
    # entries here, so these go against the Gram columns
    sample = family_category("S+", 6)
    assert helpers.gram_intertwiner_dim(sample, 3, 3, 4) == helpers.vector_intertwiner_dim(
        sample, 3, 3, 4
    )
    for n in (6, 7):
        assert intertwiner_dim(sample, 3, 3, n) == helpers.gram_intertwiner_dim(sample, 3, 3, n)


def test_rank_matches_naive_oracle():
    rng = Random(9)
    for _ in range(30):
        dim = rng.randint(1, 6)
        vecs = [
            {i: rng.randint(-3, 3) for i in range(dim)} for _ in range(rng.randint(1, 6))
        ]
        vecs = [{k: v for k, v in vec.items() if v} for vec in vecs]
        assert rank_of_vectors(vecs) == helpers.naive_rank(vecs, dim)


# -- projections ---------------------------------------------------------------


def test_projection_of_identity_is_identity():
    sample = family_category("O+", 4)
    rep = projective_projection(identity(), sample, 3)
    assert rep.P_matrix == ExactMatrix.identity(3)
    assert rep.R_matrix.is_zero()
    assert rep.sub_projectives_used == []


def _assert_range_projection(columns, dim):
    """Symmetric, idempotent, fixing every column and of the columns' rank:
    these properties determine the orthogonal projection onto their span."""
    proj = range_projection(columns, dim)
    assert (proj.rows, proj.cols) == (dim, dim)
    assert proj.transpose() == proj
    assert proj @ proj == proj
    cols = ExactMatrix(dim, len(columns), {
        (r, c): v for c, col in enumerate(columns) for r, v in col.items()
    })
    assert proj @ cols == cols
    assert matrix_rank(proj) == rank_of_vectors(columns)


def test_range_projection_random_columns():
    rng = Random(12)
    _assert_range_projection([], 3)
    _assert_range_projection([{}, {}], 2)
    for _ in range(60):
        dim = rng.randint(1, 6)
        columns = []
        for _ in range(rng.randint(0, 7)):
            roll = rng.random()
            if columns and roll < 0.25:
                a, b = rng.choice(columns), rng.choice(columns)
                x = rng.randint(-2, 2)
                y = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                col = {r: x * a.get(r, 0) + y * b.get(r, 0) for r in a | b}
            elif roll < 0.35:
                col = {}
            else:
                col = {r: rng.randint(-3, 3) for r in range(dim) if rng.random() < 0.6}
            columns.append({r: v for r, v in col.items() if v})
        _assert_range_projection(columns, dim)


def test_range_projection_sub_projective_columns():
    sample = family_category("S+", 4)
    members = [p for p in sorted(sample.iter_members(k=2, l=2)) if is_projective(p)]
    assert members
    for p in members:
        for n in (2, 3):
            columns = [
                c
                for q in sub_projectives(p, sample)
                for c in t_map(q, n).columns()
                if c
            ]
            _assert_range_projection(columns, n**2)


def test_projection_rank_arithmetic_splus():
    sample = family_category("S+", 4)
    n = 4
    rep = projective_projection(identity_power(2), sample, n)
    assert rep.verify()
    rank_t = matrix_rank(t_map(identity_power(2), n))
    assert matrix_rank(rep.P_matrix) + matrix_rank(rep.R_matrix) == rank_t
    # the new block of u (x) u for S_n^+ is the SO(3) label u_4, dim 5 at n=4
    assert matrix_rank(rep.P_matrix) == 5


def test_projection_errors():
    sample = family_category("S+", 4)
    with pytest.raises(NotProjective):
        projective_projection(lower_pair(WHITE, WHITE), sample, 2)
    capped = generate_category([singleton(WHITE)], 4, max_members=5)
    assert not capped.saturated
    with pytest.raises(MissingSubprojectives):
        projective_projection(identity(), capped, 2)


def test_projection_word_dims_at_n4():
    """Ranks of P_p for H+ s=2 match the word-family dimension function."""
    from easyqg.fusion import get_ring

    sample = family_category("H+", 4, s=2)
    ring = get_ring("H+", 2)
    n = 4
    rep_id = projective_projection(identity_power(2), sample, n)
    rep_fb = projective_projection(one_block(2, 2, "ww", "ww"), sample, n)
    assert rep_id.verify() and rep_fb.verify()
    assert matrix_rank(rep_id.P_matrix) == ring.dim((1, 1), n)
    assert matrix_rank(rep_fb.P_matrix) == ring.dim((2,), n)


def test_cp1_witness_examples():
    o_sample = family_category("O+", 6)
    assert cp1_witness_check(
        identity(), identity(), lower_pair(WHITE, WHITE), 2, o_sample
    )
    nested = ColoredPartition(0, 4, "", "wwww", [(1, 4), (2, 3)])
    assert cp1_witness_check(
        identity_power(2), identity_power(2), nested, 2, o_sample
    )
    with pytest.raises(ShapeMismatch):
        cp1_witness_check(identity(), identity(), nested, 2, o_sample)


def test_zero_projection_gives_false():
    # a zero factor kills the product even with a valid witness r
    sample = family_category("O+", 6)
    rep = projective_projection(identity(), sample, 2)
    zero = rep.P_matrix - rep.P_matrix
    cup = t_map(lower_pair(WHITE, WHITE), 2)
    assert (zero.kron(rep.P_matrix) @ cup).is_zero()
