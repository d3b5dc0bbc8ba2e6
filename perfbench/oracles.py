"""Answers the benchmark checks easyqg's output against, computed apart from it.

Nothing here imports easyqg.  Counts come from closed forms or from short
recursions; the partition operations follow the conventions stated in the
project README (points ``1..k`` upper, ``k+1..k+l`` lower, left to right;
``compose`` stacks the first diagram above the second; rotation flips the
moved point's color and keeps its block).

A partition is the tuple ``(k, l, upper, lower, blocks)`` with color
strings over ``"wb"`` and blocks as sorted tuples ordered by first point,
which is the canonical form of the ``P(k,l;U;L;B)`` literal.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from math import comb


# ---------------------------------------------------------------------------
# Counting.
# ---------------------------------------------------------------------------


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def compositions(total: int, max_part: int) -> int:
    """Compositions of ``total`` with parts in 1..max_part (words of that degree)."""
    counts = [1] + [0] * total
    for t in range(1, total + 1):
        counts[t] = sum(counts[t - p] for p in range(1, min(max_part, t) + 1))
    return counts[total]


def word_level_basis(s: int, level: int) -> int:
    """Labels of u^(level*s) in the word ring: degree <= level*s, degree = 0 mod s."""
    return sum(compositions(d, s) for d in range(0, level * s + 1, s))


def stirling2(n: int, k: int) -> int:
    """Set partitions of n points into exactly k blocks."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def set_partitions_at_most(n: int, blocks: int) -> int:
    return sum(stirling2(n, j) for j in range(1, blocks + 1)) if n else 1


def family_member_count(family: str, max_points: int, s: int | None = None) -> int:
    """Colored partitions of at most ``max_points`` points in a shipped family.

    A diagram with j points has j + 1 splits into (upper, lower) rows.
    """
    total = 0
    for j in range(max_points + 1):
        if family == "O+":
            per = catalan(j // 2) * 2**j if j % 2 == 0 else 0
        elif family == "U+":
            per = catalan(j // 2) * 2 ** (j // 2) if j % 2 == 0 else 0
        elif family == "S+":
            per = catalan(j) * 2**j
        elif family == "H+":
            per = h_weighted_nc(j, s)
        else:
            raise ValueError(f"unknown family {family!r}")
        total += (j + 1) * per
    return total


def h_block_colorings(size: int, s: int) -> int:
    """Colorings of one block whose color sum is 0 mod s.

    Each point contributes +1 or -1 whichever row it sits in, so the count
    is the number of sign sequences with (size - 2 * minus) = 0 mod s.
    """
    return sum(comb(size, t) for t in range(size + 1) if (size - 2 * t) % s == 0)


def h_weighted_nc(m: int, s: int) -> int:
    """Sum over noncrossing partitions of m points of the product of block weights."""
    return _weighted_nc(m, tuple(h_block_colorings(b, s) for b in range(m + 1)))


def _weighted_nc(m: int, weight: tuple[int, ...]) -> int:
    @lru_cache(maxsize=None)
    def nc(n: int) -> int:
        # recurse on the block holding the first point: b points, b gaps
        if n == 0:
            return 1
        return sum(weight[b] * gaps(b, n - b) for b in range(1, n + 1))

    @lru_cache(maxsize=None)
    def gaps(parts: int, total: int) -> int:
        if parts == 0:
            return 1 if total == 0 else 0
        return sum(nc(g) * gaps(parts - 1, total - g) for g in range(total + 1))

    return nc(m)


# ---------------------------------------------------------------------------
# Fusion rules.
# ---------------------------------------------------------------------------


def clebsch_gordan(a: int, b: int) -> dict[int, int]:
    """u_a (x) u_b = u_|a-b| + u_(|a-b|+2) + ... + u_(a+b)."""
    return {m: 1 for m in range(abs(a - b), a + b + 1, 2)}


def ladder_power(exponent: int) -> dict[int, int]:
    """u_1^(x exponent): multiplicity of u_j is a ballot number."""
    out = {}
    for j in range(exponent % 2, exponent + 1, 2):
        down = (exponent - j) // 2
        out[j] = comb(exponent, down) - (comb(exponent, down - 1) if down else 0)
    return out


def ladder_dim(label: int, n: int) -> int:
    """dim u_k for O_n^+: d_0 = 1, d_1 = n, d_(k+1) = n d_k - d_(k-1)."""
    prev, cur = 1, n
    if label == 0:
        return 1
    for _ in range(label - 1):
        prev, cur = cur, n * cur - prev
    return cur


def word_product(x: tuple[int, ...], y: tuple[int, ...], s: int) -> dict[tuple, int]:
    """r_x (x) r_y in the word ring over Z/sZ (letters 1..s, s standing for 0).

    Over every splitting x = v z, y = z~ w add the concatenation v w and,
    when v and w are both nonempty, the fusion of v's last and w's first
    letter.
    """

    def letter(a: int) -> int:
        return a % s or s

    out: dict[tuple, int] = {}
    for cut in range(len(x) + 1):
        v, z = x[:cut], x[cut:]
        z_bar = tuple(letter(-a) for a in reversed(z))
        if y[: len(z)] != z_bar:
            continue
        w = y[len(z):]
        for term in [v + w] + ([v[:-1] + (letter(v[-1] + w[0]),) + w[1:]] if v and w else []):
            out[term] = out.get(term, 0) + 1
    return out


def format_word(word: tuple[int, ...], s: int) -> str:
    return f"r[{','.join(map(str, word))}]@{s}"


# ---------------------------------------------------------------------------
# Partitions.
# ---------------------------------------------------------------------------

_LITERAL = re.compile(r"P\((\d+),(\d+);([wb]*);([wb]*);\{(.*)\}\)\Z")


def canonical(k: int, l: int, upper: str, lower: str, blocks) -> tuple:
    blocks = tuple(sorted(tuple(sorted(b)) for b in blocks if b))
    return (k, l, upper, lower, blocks)


def parse(text: str) -> tuple:
    m = _LITERAL.match(text)
    if not m:
        raise ValueError(f"not a partition literal: {text!r}")
    body = m.group(5)
    blocks = [tuple(map(int, b.split(","))) for b in re.findall(r"\{([\d,]+)\}", body)]
    return canonical(int(m.group(1)), int(m.group(2)), m.group(3), m.group(4), blocks)


def literal(p: tuple) -> str:
    k, l, upper, lower, blocks = p
    body = ",".join("{" + ",".join(map(str, b)) + "}" for b in blocks)
    return f"P({k},{l};{upper};{lower};{{{body}}})"


def tensor(p: tuple, q: tuple) -> tuple:
    pk, pl, pu, pd, pb = p
    qk, ql, qu, qd, qb = q
    blocks = [[x if x <= pk else x + qk for x in b] for b in pb]
    blocks += [[x + pk if x <= qk else x + pk + pl for x in b] for b in qb]
    return canonical(pk + qk, pl + ql, pu + qu, pd + qd, blocks)


def compose(top: tuple, bottom: tuple) -> tuple[tuple, int]:
    """Stack ``top`` above ``bottom``; return the result and the blocks lost in the middle."""
    tk, tl, tu, td, tb = top
    bk, bl, bu, bd, bb = bottom
    if tl != bk or td != bu:
        raise ValueError("middle rows do not match")
    # nodes: ("u", i) result upper, ("m", j) middle, ("d", j) result lower
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    def node_top(x):
        return ("u", x) if x <= tk else ("m", x - tk)

    def node_bottom(x):
        return ("m", x) if x <= bk else ("d", x - bk)

    for blocks, node in ((tb, node_top), (bb, node_bottom)):
        for b in blocks:
            root = find(node(b[0]))
            for x in b[1:]:
                other = find(node(x))
                if other != root:
                    parent[other] = root
    groups: dict = {}
    for x in list(parent):
        groups.setdefault(find(x), []).append(x)
    result, removed = [], 0
    for nodes in groups.values():
        pts = [i if row == "u" else tk + i for row, i in nodes if row != "m"]
        if pts:
            result.append(pts)
        else:
            removed += 1
    return canonical(tk, bl, tu, bd, result), removed


def involute(p: tuple) -> tuple:
    k, l, upper, lower, blocks = p
    flip = [[x - k if x > k else l + x for x in b] for b in blocks]
    return canonical(l, k, lower, upper, flip)


def _flip(color: str) -> str:
    return "b" if color == "w" else "w"


def rotate_upper_left(p: tuple) -> tuple:
    """Move upper point 1 to the left end of the lower row."""
    k, l, upper, lower, blocks = p
    moved = [[k if x == 1 else (x - 1 if x <= k else x) for x in b] for b in blocks]
    return canonical(k - 1, l + 1, upper[1:], _flip(upper[0]) + lower, moved)


def rotate_lower_left(p: tuple) -> tuple:
    """Move the leftmost lower point to the left end of the upper row."""
    k, l, upper, lower, blocks = p
    moved = [[1 if x == k + 1 else (x + 1 if x <= k else x) for x in b] for b in blocks]
    return canonical(k + 1, l - 1, _flip(lower[0]) + upper, lower[1:], moved)


def is_noncrossing(p: tuple) -> bool:
    k, l, _, _, blocks = p
    # boundary cyclic order: upper row left to right, lower row right to left
    position = {x: i for i, x in enumerate(list(range(1, k + 1)) + list(range(k + l, k, -1)))}
    spans = [sorted(position[x] for x in b) for b in blocks]
    for i, a in enumerate(spans):
        for b in spans[i + 1:]:
            for a1, a2 in zip(a, a[1:]):
                inside = [a1 < y < a2 for y in b]
                if any(inside) and not all(inside):
                    return False
    return True


def set_partitions(m: int):
    """Every set partition of 1..m, once, as a list of blocks."""
    for labels in product(range(m), repeat=m):
        # keep one restricted-growth string per set partition
        if all(labels[i] <= max(labels[:i], default=-1) + 1 for i in range(m)):
            blocks: dict[int, list[int]] = {}
            for point, lab in enumerate(labels, start=1):
                blocks.setdefault(lab, []).append(point)
            yield list(blocks.values())


def projective_count(k: int) -> int:
    """Noncrossing colored partitions p of shape (k, k) with p = p* = p p."""
    count = 0
    for blocks in set_partitions(2 * k):
        for upper, lower in product(product("wb", repeat=k), repeat=2):
            p = canonical(k, k, "".join(upper), "".join(lower), blocks)
            if involute(p) == p and is_noncrossing(p) and compose(p, p)[0] == p:
                count += 1
    return count
