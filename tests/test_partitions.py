"""Partition atoms, category operations and the literal format."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from easyqg import (
    BLACK,
    ColorMismatch,
    ColoredPartition,
    EmptyRow,
    ParseError,
    ShapeMismatch,
    WHITE,
    b_block,
    color_counts,
    compose,
    empty_partition,
    four_block_wwbb,
    identity,
    identity_power,
    involute,
    is_noncrossing,
    is_projective,
    lower_pair,
    one_block,
    parse_partition,
    precedes,
    rotate,
    singleton,
    t_map,
    tensor,
    to_literal,
    vertical_pair,
)
from easyqg.partitions import (
    COLORS,
    CORNERS,
    INVERSE_CORNER,
    boundary_blocks,
    boundary_colors,
    boundary_points,
    cut_words,
    flip_color,
    from_boundary,
)

import helpers


# -- construction and literals ------------------------------------------------


def test_canonical_form():
    p = ColoredPartition(0, 4, "", "wwww", [(3, 4), (2, 1)])
    assert p.blocks == ((1, 2), (3, 4))


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        ColoredPartition(0, 2, "", "ww", [(1,)])  # misses point 2
    with pytest.raises(ValueError):
        ColoredPartition(0, 2, "", "ww", [(1, 2), (2,)])  # overlap
    with pytest.raises(ValueError):
        ColoredPartition(1, 1, "w", "x", [(1, 2)])  # bad color


def test_literal_round_trip():
    assert to_literal(identity()) == "P(1,1;w;w;{{1,2}})"
    assert to_literal(lower_pair(WHITE, WHITE)) == "P(0,2;;ww;{{1,2}})"
    assert to_literal(empty_partition()) == "P(0,0;;;{})"
    for text in (
        "P(1,1;w;w;{{1,2}})",
        "P(0,2;;ww;{{1,2}})",
        "P(2,2;wb;bw;{{1,3},{2,4}})",
        "P(0,0;;;{})",
    ):
        assert to_literal(parse_partition(text)) == text


def test_parse_rejects_garbage():
    for bad in (
        "P(1,1;w;w;{{1}})",  # wrong cover
        "P(1,1;ww;w;{{1,2}})",  # color length
        "Q(1,1;w;w;{{1,2}})",
        "P(0,2;;ww;{{2,1}})",  # non-canonical block order
        "P(0,4;;wwww;{{3,4},{1,2}})",  # blocks out of order
        "",
    ):
        with pytest.raises(ParseError):
            parse_partition(bad)


# -- tensor -------------------------------------------------------------------


def test_tensor_side_by_side():
    cup = lower_pair(WHITE, WHITE)
    assert to_literal(tensor(cup, cup)) == "P(0,4;;wwww;{{1,2},{3,4}})"


def test_tensor_identity_element():
    rng = Random(1)
    for _ in range(50):
        p = helpers.random_partition(rng)
        assert tensor(p, empty_partition()) == p
        assert tensor(empty_partition(), p) == p


def test_tensor_of_identities():
    p = tensor(identity(WHITE), identity(BLACK))
    assert p.blocks == ((1, 3), (2, 4))
    assert p.upper_colors == ("w", "b") and p.lower_colors == ("w", "b")


# -- compose ------------------------------------------------------------------


def test_compose_with_identity():
    rng = Random(2)
    for _ in range(50):
        p = helpers.random_partition(rng)
        ids = identity_power(p.l, WHITE)
        if p.lower_colors != ids.upper_colors:
            ids = ColoredPartition(
                p.l,
                p.l,
                p.lower_colors,
                p.lower_colors,
                [(i, p.l + i) for i in range(1, p.l + 1)],
            )
        result, removed = compose(ids, p)
        assert result == p and removed == 0


def test_compose_cap_cup_loop():
    cup = lower_pair(WHITE, WHITE)
    cap = involute(cup)
    result, removed = compose(cap, cup)
    assert result == empty_partition()
    assert removed == 1


def test_compose_four_block_projective():
    fb = one_block(2, 2, "ww", "ww")
    result, removed = compose(fb, fb)
    assert result == fb and removed == 0


def test_compose_color_mismatch():
    cup_wb = lower_pair(WHITE, BLACK)
    cap_ww = involute(lower_pair(WHITE, WHITE))
    with pytest.raises(ColorMismatch):
        compose(cap_ww, cup_wb)
    with pytest.raises(ColorMismatch):
        compose(identity(), lower_pair(WHITE, WHITE))


def test_compose_associative_with_loop_counts():
    """Exhaustive over all-white stacks with at most 6 points total."""
    checked = 0
    for total in range(0, 7):
        for a in range(total + 1):
            for t1 in range(total - a + 1):
                for t2 in range(total - a - t1 + 1):
                    c = total - a - t1 - t2
                    for p in helpers.nc_shapes(a, t1, 6):
                        for q in helpers.nc_shapes(t1, t2, 6):
                            qp, b1 = compose(q, p)
                            for r in helpers.nc_shapes(t2, c, 6):
                                rq, b2 = compose(r, q)
                                left = compose(r, qp)
                                right = compose(rq, p)
                                assert left[0] == right[0]
                                assert b1 + left[1] == b2 + right[1]
                                checked += 1
    assert checked > 1000


def _validated(p: ColoredPartition) -> ColoredPartition:
    return ColoredPartition(p.k, p.l, p.upper_colors, p.lower_colors, p.blocks)


def test_compose_builds_the_canonical_partition():
    """compose skips the checking constructor; its result equals, and hashes
    as, the partition validated from the same parts."""
    white = helpers.white_noncrossing(6)
    checked = 0
    for p in white:
        for q in white:
            if q.k == p.l and p.k + p.l + q.l <= 6:
                qp, _ = compose(q, p)
                assert qp == _validated(qp) and hash(qp) == hash(_validated(qp))
                checked += 1
    assert checked > 10_000
    colored = helpers.colored_noncrossing(4)
    rng = Random(4)
    crossing = [helpers.random_partition(rng, 6) for _ in range(300)]
    for p in colored[::7] + tuple(crossing):
        for q in colored:
            if q.upper_colors == p.lower_colors:
                qp, _ = compose(q, p)
                assert qp == _validated(qp) and hash(qp) == hash(_validated(qp))
                assert all(type(b) is tuple for b in qp.blocks)


def test_tensor_distributes_over_compose():
    pairs = []
    for a in range(3):
        for t in range(3):
            for c in range(3):
                for p in helpers.nc_shapes(a, t, 4):
                    for q in helpers.nc_shapes(t, c, 4):
                        pairs.append((p, q))
    rng = Random(3)
    for _ in range(300):
        p, q = rng.choice(pairs)
        p2, q2 = rng.choice(pairs)
        lhs, b_lhs = compose(tensor(q, q2), tensor(p, p2))
        qp, b1 = compose(q, p)
        qp2, b2 = compose(q2, p2)
        assert lhs == tensor(qp, qp2)
        assert b_lhs == b1 + b2


# -- involution and rotation ----------------------------------------------


def test_involute_examples():
    cup = lower_pair(WHITE, WHITE)
    assert involute(cup) == ColoredPartition(2, 0, "ww", "", [(1, 2)])
    assert involute(identity()) == identity()
    b3_flipped = involute(b_block(3))
    assert (b3_flipped.k, b3_flipped.l) == (3, 0)
    assert len(b3_flipped.blocks) == 1


def test_involute_is_involution():
    rng = Random(4)
    for _ in range(100):
        p = helpers.random_partition(rng)
        assert involute(involute(p)) == p


def test_rotate_examples():
    assert rotate(singleton(WHITE), "LL") == singleton(BLACK, lower=False)
    rotated = rotate(identity(WHITE), "UL")
    assert rotated == ColoredPartition(0, 2, "", "bw", [(1, 2)])
    p = parse_partition("P(2,1;wb;w;{{1,3},{2}})")
    # the black upper-right singleton becomes a white lower-right one
    assert rotate(p, "UR") == parse_partition("P(1,2;w;ww;{{1,2},{3}})")
    # the white lower-right point becomes a black upper-right one, still with 1
    assert rotate(p, "LR") == parse_partition("P(3,0;wbb;;{{1,3},{2}})")
    q = parse_partition("P(1,2;b;wb;{{1},{2,3}})")
    assert rotate(q, "UR") == parse_partition("P(0,3;;wbw;{{1,2},{3}})")
    assert rotate(q, "LR") == parse_partition("P(2,1;bw;w;{{1},{2,3}})")


def test_rotate_inverses_and_c_invariance():
    rng = Random(5)
    for _ in range(200):
        p = helpers.random_partition(rng)
        c = color_counts(p)[2]
        for corner in CORNERS:
            row_size = p.k if corner in ("UL", "UR") else p.l
            if row_size == 0:
                with pytest.raises(EmptyRow):
                    rotate(p, corner)
                continue
            r = rotate(p, corner)
            assert rotate(r, INVERSE_CORNER[corner]) == p
            assert color_counts(r)[2] == c


# -- the boundary word (property tests) ------------------------------------

laws = settings(derandomize=True, database=None)


@laws
@given(helpers.colored_partitions(max_points=6), st.data())
def test_compose_matches_t_maps_on_crossing_diagrams(p, data):
    """T_q T_p = n^removed T_qp for any p and any q below it with at most 3
    lower points, crossing blocks included."""
    l = data.draw(st.integers(0, 3))
    labels: list[int] = []
    for _ in range(p.l + l):
        labels.append(data.draw(st.integers(0, max(labels, default=-1) + 1)))
    blocks: dict[int, list[int]] = {}
    for point, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(point)
    lower = data.draw(st.lists(st.sampled_from(COLORS), min_size=l, max_size=l))
    q = ColoredPartition(p.l, l, p.lower_colors, lower, blocks.values())
    qp, removed = compose(q, p)
    for n in (2, 3):
        assert t_map(q, n) @ t_map(p, n) == t_map(qp, n).scale(n**removed)


def word_of(p: ColoredPartition):
    """The boundary colors and the set of position blocks of p."""
    return boundary_colors(p), {frozenset(b) for b in boundary_blocks(p)}


@laws
@given(helpers.colored_partitions())
def test_from_boundary_inverts_the_word(p):
    points = boundary_points(p.k, p.l)
    assert points == tuple(range(1, p.k + 1)) + tuple(reversed(range(p.k + 1, p.points + 1)))
    assert [[points[i] for i in b] for b in boundary_blocks(p)] == [list(b) for b in p.blocks]
    colors = boundary_colors(p)
    assert colors[: p.k] == tuple(flip_color(c) for c in p.upper_colors)
    assert colors[p.k :] == p.lower_colors[::-1]
    assert from_boundary(p.k, colors, boundary_blocks(p)) == p


@laws
@given(helpers.colored_partitions())
def test_cut_words_cuts_every_word_over_one_structure(p):
    colors, blocks = word_of(p)
    words = [colors, tuple(flip_color(c) for c in colors), colors[::-1]]
    for k in range(p.points + 1):
        cut = list(cut_words(k, words, boundary_blocks(p)))
        assert [q.k for q in cut] == [k] * len(words)
        assert [word_of(q) for q in cut] == [(w, blocks) for w in words]


@laws
@given(helpers.colored_partitions(), st.sampled_from(CORNERS))
def test_rotation_moves_the_cut_and_turns_the_word(p, corner):
    upper = corner in ("UL", "UR")
    assume((p.k if upper else p.l) > 0)
    r = rotate(p, corner)
    assert r.k == (p.k - 1 if upper else p.k + 1)
    # position j of r's word holds position j + turn of p's word
    turn = {"UL": 1, "LL": -1}.get(corner, 0)
    colors, blocks = word_of(p)
    m = p.points
    assert word_of(r) == (
        tuple(colors[(j + turn) % m] for j in range(m)),
        {frozenset((i - turn) % m for i in b) for b in blocks},
    )


@laws
@given(helpers.colored_partitions())
def test_involute_reverses_and_inverts_the_word(p):
    r = involute(p)
    colors, blocks = word_of(p)
    last = p.points - 1
    assert r.k == p.l
    assert word_of(r) == (
        tuple(flip_color(c) for c in reversed(colors)),
        {frozenset(last - i for i in b) for b in blocks},
    )


@laws
@given(helpers.colored_partitions(), st.sampled_from(CORNERS))
def test_rotations_keep_c_and_noncrossing(p, corner):
    assume((p.k if corner in ("UL", "UR") else p.l) > 0)
    r = rotate(p, corner)
    assert color_counts(r)[2] == color_counts(p)[2]
    assert is_noncrossing(r) == is_noncrossing(p)


# -- predicates ---------------------------------------------------------------


def test_noncrossing_examples():
    crossing = ColoredPartition(0, 4, "", "wwww", [(1, 3), (2, 4)])
    nested = ColoredPartition(0, 4, "", "wwww", [(1, 4), (2, 3)])
    assert not is_noncrossing(crossing)
    assert is_noncrossing(nested)


def test_noncrossing_pairings_count_is_catalan():
    pairings = [
        p
        for p in helpers.nc_shapes(0, 6, 6)
        if all(len(b) == 2 for b in p.blocks)
    ]
    assert len(pairings) == 5  # Catalan number C_3


def test_vertical_identity_is_noncrossing_across_rows():
    assert is_noncrossing(identity_power(3))
    # {1,3},{2,4} as a (2,2) diagram is the double identity, not a crossing
    assert is_noncrossing(ColoredPartition(2, 2, "ww", "ww", [(1, 3), (2, 4)]))


def test_projective_examples():
    assert is_projective(identity())
    assert not is_projective(lower_pair(WHITE, WHITE))
    assert is_projective(one_block(2, 2, "ww", "ww"))


def test_precedes():
    ids = identity()
    with pytest.raises(ShapeMismatch):
        precedes(lower_pair(WHITE, WHITE), ids)
    assert not precedes(ids, ids)
    two_singletons = ColoredPartition(1, 1, "w", "w", [(1,), (2,)])
    assert precedes(two_singletons, ids)
    assert not precedes(ids, two_singletons)
    fb = one_block(2, 2, "ww", "ww")
    assert precedes(fb, identity_power(2))
    pairpair = ColoredPartition(2, 2, "ww", "ww", [(1, 2), (3, 4)])
    assert precedes(pairpair, fb)


def test_color_counts():
    assert color_counts(lower_pair(WHITE, WHITE)) == (2, 0, 2)
    assert color_counts(identity()) == (1, 1, 0)
    for s in (1, 2, 5):
        assert color_counts(b_block(s)) == (s, 0, s)
    assert color_counts(four_block_wwbb()) == (2, 2, 0)
    assert color_counts(vertical_pair(WHITE, BLACK)) == (0, 2, -2)
