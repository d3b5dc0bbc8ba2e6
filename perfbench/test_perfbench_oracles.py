"""Tests of the benchmark's oracles against brute force and published values."""

from itertools import product

import oracles as O


def brute_family_count(family, max_points, s=None):
    total = 0
    for m in range(max_points + 1):
        for k in range(m + 1):
            for blocks in O.set_partitions(m):
                p = O.canonical(k, m - k, "w" * k, "w" * (m - k), blocks)
                if not O.is_noncrossing(p):
                    continue
                for colors in product("wb", repeat=m):
                    ok = True
                    for b in blocks:
                        # lower white / upper black count +1, the rest -1
                        c = sum((1 if x > k else -1) * (1 if colors[x - 1] == "w" else -1) for x in b)
                        ok &= {"O+": len(b) == 2, "U+": len(b) == 2 and c == 0,
                               "S+": True, "H+": s and c % s == 0}[family]
                    total += ok
    return total


def test_catalan_and_stirling():
    assert [O.catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert [O.stirling2(6, k) for k in range(1, 7)] == [1, 31, 90, 65, 15, 1]
    assert O.set_partitions_at_most(6, 3) == 122
    assert sum(1 for _ in O.set_partitions(6)) == O.set_partitions_at_most(6, 6) == 203


def test_compositions_and_word_levels():
    for s in (1, 2, 3, 4):
        for total in range(9):
            brute = sum(
                1 for n in range(total + 1) for parts in product(range(1, s + 1), repeat=n)
                if sum(parts) == total
            )
            assert O.compositions(total, s) == brute
    assert O.word_level_basis(3, 6) == 42763
    assert [O.compositions(3 * ell, 3) for ell in range(1, 6)] == [4, 24, 149, 927, 5768]


def test_family_counts_match_brute_force():
    for family, s in (("O+", None), ("U+", None), ("S+", None), ("H+", 2), ("H+", 3)):
        for bound in range(5):
            assert O.family_member_count(family, bound, s) == brute_family_count(family, bound, s)
    assert O.family_member_count("S+", 7) == 507805
    for m in range(9):
        assert O.h_weighted_nc(m, 1) == O.catalan(m) * 2**m


def test_ladder_rules():
    vec = {0: 1}
    for exponent in range(1, 10):
        nxt = {}
        for label, mult in vec.items():
            for out in O.clebsch_gordan(label, 1):
                nxt[out] = nxt.get(out, 0) + mult
        vec = nxt
        assert O.ladder_power(exponent) == vec
    # dimensions add up along u_1 (x) u_k = u_(k-1) + u_(k+1)
    for n in (2, 3, 5):
        for k in range(1, 10):
            assert n * O.ladder_dim(k, n) == O.ladder_dim(k - 1, n) + O.ladder_dim(k + 1, n)


def test_word_product():
    assert O.word_product((1,), (1,), 2) == {(1, 1): 1, (2,): 1, (): 1}
    words = [w for n in range(3) for w in product((1, 2, 3), repeat=n)]

    def times(vec, y):
        out = {}
        for x, mult in vec.items():
            for z, c in O.word_product(x, y, 3).items():
                out[z] = out.get(z, 0) + mult * c
        return out

    for x, y, z in product(words[:7], repeat=3):
        left = times(O.word_product(x, y, 3), z)
        right = {}
        for t, c in O.word_product(y, z, 3).items():
            for u, d in O.word_product(x, t, 3).items():
                right[u] = right.get(u, 0) + c * d
        assert left == right


def test_partition_operations():
    cup = O.parse("P(0,2;;ww;{{1,2}})")
    cap = O.parse("P(2,0;ww;;{{1,2}})")
    assert O.compose(cup, cap) == (O.parse("P(0,0;;;{})"), 1)
    p = O.parse("P(2,3;bw;wbw;{{1,5},{2},{3,4}})")
    assert O.literal(p) == "P(2,3;bw;wbw;{{1,5},{2},{3,4}})"
    assert O.involute(O.involute(p)) == p
    assert O.rotate_lower_left(O.rotate_upper_left(p)) == p
    assert O.tensor(p, cup) == O.parse("P(2,5;bw;wbwww;{{1,5},{2},{3,4},{6,7}})")
    assert O.is_noncrossing(p)
    assert not O.is_noncrossing(O.parse("P(0,4;;wwww;{{1,3},{2,4}})"))
    # shape (1, 1): the through-block and the pair of singletons, each in two colors
    assert O.projective_count(1) == 4
