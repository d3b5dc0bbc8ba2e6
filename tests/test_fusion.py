"""Fusion rings: word calculus, ladder rules, degree, chain group, dims."""

from __future__ import annotations

import itertools
import sys
import tracemalloc
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from easyqg import (
    HWordRing,
    InconsistentDimension,
    ModulusMismatch,
    NotReachable,
    OddLabel,
    ParseError,
    SO3Ring,
    SU2Ring,
    WrongFamily,
    chain_group_order,
    get_ring,
)
from easyqg.fusion import _fusion, format_vector

import helpers


# -- word calculus ---------------------------------------------------------


def test_word_involution():
    assert get_ring("H+", 4).conjugate((1, 2)) == (2, 3)
    assert get_ring("H+", 3).conjugate(()) == ()
    rng = Random(11)
    for _ in range(100):
        s = rng.randint(1, 6)
        ring = get_ring("H+", s)
        letters = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 6)))
        assert ring.conjugate(ring.conjugate(letters)) == letters


def test_word_fusion():
    assert _fusion((2,), (1,), 3) == (3,)
    assert _fusion((1, 2), (1, 1), 4) == (1, 3, 1)
    assert _fusion((), (1,), 3) is None
    assert _fusion((1,), (), 3) is None
    with pytest.raises(ModulusMismatch):
        get_ring("H+", 3).parse_label("r[1]@2")


def test_word_validation():
    ring = get_ring("H+", 3)
    for text in ("r[0]", "r[4]", "r[1,,2]@3", "r[1,]@3", "r[,]@3", "r[1 2]@3"):
        with pytest.raises(ParseError):
            ring.parse_label(text)
    assert ring.parse_label("r[]") == ()
    assert ring.parse_label("r[1, 2]") == (1, 2)


def test_h_decompose_golden():
    h2 = get_ring("H+", 2)
    assert h2.decompose((1,), (1,)) == {
        (1, 1): 1,
        (2,): 1,
        (): 1,
    }
    h3 = get_ring("H+", 3)
    assert h3.decompose((1,), (1,)) == {
        (1, 1): 1,
        (2,): 1,
    }
    assert h3.decompose((2,), (1,)) == {
        (2, 1): 1,
        (3,): 1,
        (): 1,
    }
    with pytest.raises(ModulusMismatch):
        h3.parse_label("r[1]@2")


def splitting_oracle(x: tuple, y: tuple, s: int) -> dict:
    """r_x r_y straight from the module docstring: over all splittings
    x = vz, y = z~ w, the term vw plus the fused term v.w when v, w != ()."""
    out: dict = {}
    for cut in range(len(x) + 1):
        v, z = x[:cut], x[cut:]
        zbar = tuple((-a) % s or s for a in reversed(z))
        if y[: len(z)] != zbar:
            continue
        w = y[len(z):]
        terms = [v + w]
        if v and w:
            terms.append(v[:-1] + ((v[-1] + w[0]) % s or s,) + w[1:])
        for term in terms:
            out[term] = out.get(term, 0) + 1
    return out


def test_decompose_matches_splitting_oracle():
    for s in range(1, 5):
        ring = HWordRing(s)
        words = [
            w for length in range(5)
            for w in itertools.product(range(1, s + 1), repeat=length)
        ]
        for x in words:
            for y in words:
                assert ring.decompose(x, y) == splitting_oracle(x, y, s)


@st.composite
def labels_and_vector(draw):
    """s, word labels and a word vector whose terms cancel into the labels.

    Besides random words, vec holds the conjugate of a suffix of one label,
    so products cancel several letters; most labels are shorter than
    max |y| + 1 or only a little longer.
    """
    s = draw(st.integers(1, 5))
    words = st.lists(st.integers(1, s), max_size=7).map(tuple)
    labels = draw(st.lists(words, min_size=1, max_size=8))
    vec = draw(st.dictionaries(
        st.lists(st.integers(1, s), max_size=3).map(tuple), st.integers(1, 3),
        max_size=4,
    ))
    label = draw(st.sampled_from(labels))
    cut = draw(st.integers(0, min(len(label), 4)))
    suffix = label[len(label) - cut:]
    vec[tuple((-a) % s or s for a in reversed(suffix))] = draw(st.integers(1, 3))
    return s, [()] + labels, vec


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(labels_and_vector())
@example((2, [(), (1,), (2, 1, 1, 2), (1, 2, 1, 1, 2)], {(): 2, (1, 1): 1, (2,): 3}))
@example((5, [(), (3,), (1, 4, 2, 3)], {(2, 3, 1): 2, (4,): 1}))
def test_times_each_matches_splitting_oracle(case):
    # the word ring multiplies each distinct tail once; every column must
    # still be the sum of the pair products over vec
    s, labels, vec = case
    got = HWordRing(s).times_each(labels, vec)
    assert set(got) == set(labels)
    for x in labels:
        expected: dict = {}
        for y, m in vec.items():
            for term, mult in splitting_oracle(x, y, s).items():
                expected[term] = expected.get(term, 0) + mult * m
        assert got[x] == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.sampled_from([SU2Ring, SO3Ring]),
    st.lists(st.integers(0, 8), max_size=6),
    st.dictionaries(st.integers(0, 6), st.integers(1, 3), max_size=4),
)
def test_times_each_on_ladders_is_per_label_multiply(ring_class, steps, vec_steps):
    # SO(3)-type labels are the even ones
    ring = ring_class()
    step = 2 if ring_class is SO3Ring else 1
    labels = [step * k for k in steps]
    vec = {step * k: m for k, m in vec_steps.items()}
    assert ring.times_each(labels, vec) == {x: ring.multiply({x: 1}, vec) for x in labels}


@pytest.mark.parametrize(
    "family,s", [("O+", None), ("S+", None), ("H+", 1), ("H+", 2), ("H+", 3), ("H+", 4)]
)
def test_pair_products_are_positive(family, s):
    # decompose does not check it; multiply and the K-theory supports rely on it
    ring = get_ring(family, s)
    labels = ring.irreducibles_up_to_degree(6)
    for a in labels:
        for b in labels:
            product = ring._pair(a, b)
            assert product and all(m > 0 for m in product.values()), (a, b)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_word_order_is_the_sort_key_order(s):
    ring = HWordRing(s)
    rng = Random(s)
    for _ in range(200):
        words = {(1,), (1, 1)}
        for _ in range(rng.randint(0, 30)):
            word = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 7)))
            # and a prefix of it, as (1,) is of (1, 1)
            words.update((word, word[: rng.randint(0, len(word))]))
        labels = list(words)
        rng.shuffle(labels)
        assert ring.in_order(labels) == sorted(labels, key=ring.sort_key)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_pack_commutes_with_the_order_and_the_products(s):
    ring = HWordRing(s)
    rng = Random(100 + s)
    for _ in range(200):
        labels = list({
            tuple(rng.randint(1, s) for _ in range(rng.randint(0, 7)))
            for _ in range(rng.randint(0, 30))
        })
        rng.shuffle(labels)
        words = [ring.pack(x) for x in labels]
        assert all(type(w) is bytes for w in words)
        assert ring.in_order(words) == [ring.pack(x) for x in ring.in_order(labels)]
        assert sorted(words, key=ring.sort_key) == ring.in_order(words)
    labels = ring.irreducibles_up_to_degree(6)
    words = [ring.pack(x) for x in labels]
    for b in labels:
        for a in labels:
            assert ring._pair(ring.pack(a), ring.pack(b)) == helpers.packed(ring, ring._pair(a, b))
        columns = ring.times_each(labels, {b: 1})
        assert ring.times_each(words, {ring.pack(b): 1}) == {
            ring.pack(x): helpers.packed(ring, col) for x, col in columns.items()
        }


def test_pack_is_the_identity_off_byte_words():
    for ring in (SU2Ring(), SO3Ring()):
        assert all(ring.pack(label) is label for label in range(0, 13, 2))
    # a letter above 255 does not fit a byte, so the word stays a tuple
    h256 = HWordRing(256)
    assert h256.pack((256, 1)) == (256, 1)
    assert h256.decompose((256,), (1,)) == {(256, 1): 1, (1,): 1}


# -- ladder rules ------------------------------------------------------------


def test_su2_decompose():
    su2 = get_ring("O+")
    assert su2.decompose(1, 1) == {0: 1, 2: 1}
    assert su2.decompose(5, 0) == {5: 1}
    assert su2.decompose(2, 3) == {1: 1, 3: 1, 5: 1}


def test_so3_decompose():
    so3 = get_ring("S+")
    assert so3.decompose(2, 2) == {0: 1, 2: 1, 4: 1}
    assert so3.decompose(0, 6) == {6: 1}
    with pytest.raises(OddLabel):
        so3.decompose(1, 2)
    fundamental = so3.fundamental()
    square = so3.multiply(fundamental, fundamental)
    assert square[0] == 2  # trivial occurs twice in u (x) u


def test_power_decompose():
    su2 = get_ring("O+")
    assert su2.vector_power(su2.fundamental(), 0) == {0: 1}
    assert su2.vector_power(su2.fundamental(), 3) == {1: 2, 3: 1}
    h2 = get_ring("H+", 2)
    assert h2.vector_power(h2.fundamental(), 2) == {
        (1, 1): 1,
        (2,): 1,
        (): 1,
    }


# -- degree and length -------------------------------------------------------


def test_degree_examples():
    h3 = get_ring("H+", 3)
    assert h3.degree(()) == 0
    assert h3.degree((1, 2, 1)) == 4
    su2 = get_ring("O+")
    assert su2.degree(4) == 4
    with pytest.raises(NotReachable):
        su2.degree(5, level_cap=3)
    # a degree beyond the cap does not answer
    with pytest.raises(NotReachable):
        su2.degree(4, level_cap=3)


def test_degree_unreachable_labels():
    with pytest.raises(NotReachable, match="u-1 not found in powers up to 32"):
        get_ring("O+").degree(-1)
    with pytest.raises(NotReachable):
        get_ring("S+").degree(3)
    with pytest.raises(NotReachable):
        get_ring("S+").degree(-2)
    h3 = get_ring("H+", 3)
    for word in ((4,), (0,), (1, 4), (2, -1)):
        with pytest.raises(NotReachable):
            h3.degree(word)


def test_ladder_degree_matches_power_sweep():
    for family in ("O+", "S+"):
        ring = get_ring(family)
        for label in range(0, 13):
            expected = helpers.first_power(ring, label, 12)
            if expected is None:
                with pytest.raises(NotReachable):
                    ring.degree(label, level_cap=12)
            else:
                assert ring.degree(label, level_cap=12) == expected
                assert ring.sort_key(label)[0] == expected


def test_degree_bfs_equals_letter_sum_smoke():
    for s in (2, 3):
        ring = get_ring("H+", s)
        for total in range(0, 7):
            for word in helpers.compositions(total, s):
                assert ring.degree(word, level_cap=8) == helpers.first_power(
                    ring, word, 8
                ) == sum(word)


def test_length():
    h2 = get_ring("H+", 2)
    assert len(h2.parse_label("r[]")) == 0
    assert len(h2.parse_label("r[1,1]")) == 2
    with pytest.raises(ParseError):
        get_ring("O+").parse_label("r[1,1]")


def test_length_subadditive():
    rng = Random(12)
    for _ in range(200):
        s = rng.randint(2, 4)
        ring = get_ring("H+", s)
        a = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 4)))
        b = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 4)))
        for gamma in ring.decompose(a, b):
            assert len(gamma) <= len(a) + len(b)


# -- chain group ---------------------------------------------------------------


def test_chain_groups():
    for s in range(1, 6):
        assert chain_group_order(get_ring("H+", s), 10) == s
    assert chain_group_order(get_ring("O+"), 10) == 2
    assert chain_group_order(get_ring("S+"), 10) == 1


@pytest.mark.parametrize(
    "family,s,order",
    [("O+", None, 2), ("S+", None, 1)] + [("H+", s, s) for s in range(1, 5)],
)
def test_chain_group_exact_or_not_reachable_at_every_cap(family, s, order):
    # a cap too small to certify the count raises; it never gives a wrong order
    ring = get_ring(family, s)
    answered = []
    for cap in range(11):
        try:
            got = chain_group_order(ring, cap)
        except NotReachable:
            continue
        assert got == order, (cap, got)
        answered.append(cap)
    assert answered and answered == list(range(answered[0], 11))


@pytest.mark.parametrize(
    "family,s", [("O+", None), ("S+", None)] + [("H+", s) for s in range(1, 5)]
)
def test_chain_group_matches_merged_supports(family, s):
    ring = get_ring(family, s)
    for cap in range(13):
        want = helpers.chain_group_oracle(ring, cap)
        if want is None:
            with pytest.raises(NotReachable):
                chain_group_order(ring, cap)
        else:
            assert chain_group_order(ring, cap) == want, cap


def test_chain_classes_match_degree_mod_s():
    # labels co-occur in a power exactly when their degrees agree mod s
    for s in (2, 3):
        ring = get_ring("H+", s)
        for ell in range(8):
            degrees = {sum(w) % s for w in ring.support(ell)}
            assert degrees == {ell % s}


# -- dimensions -----------------------------------------------------------------


def test_su2_dims():
    su2 = get_ring("O+")
    assert su2.dim(0, 5) == 1
    assert su2.dim(1, 5) == 5
    assert su2.dim(2, 5) == 24  # n^2 - 1
    assert su2.dim(2, 2) == 3  # classical SU(2) at n = 2


def test_so3_dims():
    so3 = get_ring("S+")
    assert [so3.dim(2 * k, 4) for k in range(4)] == [1, 3, 5, 7]
    with pytest.raises(InconsistentDimension):
        so3.dim(2, 3)


def test_hword_dims():
    h2 = get_ring("H+", 2)
    n = 4
    assert h2.dim((), n) == 1
    assert h2.dim((1,), n) == n
    assert h2.dim((2,), n) == n - 1
    assert h2.dim((1, 1), n) == n * n - n
    with pytest.raises(InconsistentDimension):
        h2.dim((1, 2), 2)
    # below the fusion rules' validity range the recursion degenerates
    with pytest.raises(InconsistentDimension):
        get_ring("H+", 3).dim((2, 2, 3, 3), 3)
    # at n = 4 every word of degree <= 8 carries a positive dimension
    for s in (2, 3, 4):
        ring = get_ring("H+", s)
        for total in range(9):
            for w in helpers.compositions(total, s):
                assert ring.dim(w, 4) > 0


def _dim_or_none(dim, *args):
    try:
        return dim(*args)
    except InconsistentDimension:
        return None


def test_hword_dims_match_the_recursion():
    # each word is filled in through its shorter words first; the values, and
    # where a value <= 0 makes it raise, are those of the plain recursion
    for s in (2, 3, 4):
        for n in (2, 3, 4, 5):
            ring = HWordRing(s)
            for total in range(9):
                for w in helpers.compositions(total, s):
                    expected = _dim_or_none(helpers.recursive_word_dim, HWordRing(s), w, n)
                    assert _dim_or_none(ring.dim, w, n) == expected, (s, n, w)


def test_hword_dim_of_a_long_word():
    # a recursion one call per letter deep died here with RecursionError
    ring = HWordRing(3)
    word = (1,) * 1200
    value = ring.dim(word, 10)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        assert value == helpers.recursive_word_dim(ring, word, 10)
    finally:
        sys.setrecursionlimit(limit)


def test_hword_dim_of_a_long_word_keeps_only_its_dims():
    # the products of the expansion are read once each, so after the call the
    # ring keeps the dims of the prefixes it filled in, not those products
    word = tuple(Random(0).choice((1, 2, 3)) for _ in range(1200))
    ring = HWordRing(3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ring.dim(word, 10)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 40 * 2**20


def test_get_ring_takes_only_the_cli_family_names():
    with pytest.raises(WrongFamily):
        get_ring("su2")


def test_hword_s1_dims_match_so3():
    # words over Z/1Z are the even ladder: r_{1^k} corresponds to u_{2k}
    h1 = get_ring("H+", 1)
    so3 = get_ring("S+")
    for n in (4, 7):
        for k in range(6):
            assert h1.dim((1,) * k, n) == so3.dim(2 * k, n)


def test_dimension_count_identity():
    """Sum of mult * dim over u^ell equals n^ell (dimension bookkeeping)."""
    cases = [
        (get_ring("O+"), 3, 6),
        (get_ring("S+"), 4, 6),
        (get_ring("H+", 2), 4, 6),
        (get_ring("H+", 3), 5, 6),
    ]
    for ring, n, max_ell in cases:
        fund_dim = sum(
            mult * ring.dim(label, n) for label, mult in ring.fundamental().items()
        )
        for ell in range(max_ell + 1):
            total = sum(
                mult * ring.dim(label, n)
                for label, mult in ring.power(ell).items()
            )
            assert total == fund_dim**ell


def test_dim_multiplicative_on_random_products():
    rng = Random(13)
    for s, n in [(2, 4), (3, 5), (4, 5)]:
        ring = get_ring("H+", s)
        for _ in range(60):
            a = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 3)))
            b = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 3)))
            lhs = ring.dim(a, n) * ring.dim(b, n)
            rhs = sum(
                mult * ring.dim(g, n) for g, mult in ring.decompose(a, b).items()
            )
            assert lhs == rhs


# -- structural lemmas ------------------------------------------------------------


def test_associativity_exhaustive():
    for s in (2, 3, 4):
        ring = get_ring("H+", s)
        labels = [
            w for total in range(0, 7) for w in helpers.compositions(total, s)
        ]
        for a in labels:
            for b in labels:
                ab = ring.decompose(a, b)
                for c in labels:
                    lhs = ring.multiply(ab, {c: 1})
                    rhs = ring.multiply({a: 1}, ring.decompose(b, c))
                    assert lhs == rhs
    for ring in (get_ring("O+"), get_ring("S+")):
        step = 2 if ring.family == "so3" else 1
        labels = list(range(0, 11, step))
        for a, b, c in itertools.product(labels, repeat=3):
            lhs = ring.multiply(ring.decompose(a, b), {c: 1})
            rhs = ring.multiply({a: 1}, ring.decompose(b, c))
            assert lhs == rhs


def test_ladder_products_commute_exactly():
    for ring in (get_ring("O+"), get_ring("S+")):
        step = 2 if ring.family == "so3" else 1
        for a in range(0, 9, step):
            for b in range(0, 9, step):
                assert ring.decompose(a, b) == ring.decompose(b, a)


def test_word_products_agree_in_dimension_either_order():
    # r_x r_y and r_y r_x can differ even in constituent counts, but both
    # expansions must account for the same total dimension (n >= 4: below
    # that the free rules stop describing an honest representation ring)
    rng = Random(16)
    for _ in range(120):
        s = rng.randint(2, 4)
        n = rng.randint(4, 6)
        ring = get_ring("H+", s)
        x = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 4)))
        y = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 4)))
        total_xy = sum(
            mult * ring.dim(g, n) for g, mult in ring.decompose(x, y).items()
        )
        total_yx = sum(
            mult * ring.dim(g, n) for g, mult in ring.decompose(y, x).items()
        )
        assert total_xy == total_yx == ring.dim(x, n) * ring.dim(y, n)


def test_frobenius_containment():
    for s in (2, 3, 4):
        ring = get_ring("H+", s)
        for total in range(0, 9):
            for w in helpers.compositions(total, s):
                wbar = ring.conjugate(w)
                assert ring.decompose(w, wbar).get((), 0) >= 1


def test_single_letters_below_powers():
    for s in (2, 3, 4, 5):
        ring = get_ring("H+", s)
        for ell in range(1, s + 1):
            assert (ell,) in ring.power(ell)
        assert () in ring.power(s)  # 1 <= r_1^s


def test_word_below_power_of_degree():
    for s in (2, 3):
        ring = get_ring("H+", s)
        for total in range(0, 7):
            for w in helpers.compositions(total, s):
                assert w in ring.power(total)


def test_degree_subadditivity_and_equality_cases():
    """Degree drops strictly on cancellation terms; the concatenation term
    always realizes equality, the product term exactly when no wraparound."""
    rng = Random(14)
    for _ in range(300):
        s = rng.randint(2, 4)
        ring = get_ring("H+", s)
        x = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 4)))
        y = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 4)))
        dx, dy = sum(x), sum(y)
        for gamma, mult in ring.decompose(x, y).items():
            assert sum(gamma) <= dx + dy
        concat = x + y
        assert concat in ring.decompose(x, y)
        assert sum(concat) == dx + dy
        if x and y:
            product = _fusion(x, y, s)
            if x[-1] + y[0] <= s:
                assert sum(product) == dx + dy
            else:
                assert sum(product) < dx + dy


def test_degree_congruence_mod_s():
    rng = Random(15)
    for _ in range(200):
        s = rng.randint(2, 5)
        ring = get_ring("H+", s)
        x = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 4)))
        y = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 4)))
        for gamma in ring.decompose(x, y):
            assert (sum(gamma) - sum(x) - sum(y)) % s == 0


def test_support_decomposition_by_degree():
    # support(u^ell) = union over k <= ell, k = ell mod s, of degree-k labels
    for s in (2, 3):
        ring = get_ring("H+", s)
        for ell in range(9):
            expected = {
                w
                for k in range(ell % s, ell + 1, s)
                for w in helpers.compositions(k, s)
            }
            assert ring.support(ell) == expected


def test_count_growth():
    for s in (2, 3):
        for ell in range(0, 13):
            n_ell = len(helpers.compositions(ell, s))
            n_next = len(helpers.compositions(ell + s, s))
            assert n_next >= 2 * n_ell


# -- labels and serialization ------------------------------------------------------


def test_label_parsing():
    h3 = get_ring("H+", 3)
    assert h3.parse_label("r[1,2]") == (1, 2)
    assert h3.parse_label("r[1,2]@3") == (1, 2)
    assert h3.parse_label("r[]") == ()
    with pytest.raises(ModulusMismatch):
        h3.parse_label("r[1]@2")
    with pytest.raises(ParseError):
        h3.parse_label("r[4]")
    su2 = get_ring("O+")
    assert su2.parse_label("u3") == 3
    with pytest.raises(ParseError):
        su2.parse_label("r[1]")
    with pytest.raises(OddLabel):
        get_ring("S+").parse_label("u3")


def test_format_vector_sorted():
    h2 = get_ring("H+", 2)
    vec = h2.decompose((1,), (1,))
    assert format_vector(h2, vec) == {
        "r[1,1]@2": 1,
        "r[2]@2": 1,
        "r[]@2": 1,
    }
