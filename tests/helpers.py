"""Shared helpers for the test suite: seeded generators and oracles."""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from random import Random

from hypothesis import strategies as st

from easyqg import (
    BLACK,
    ColoredPartition,
    InconsistentDimension,
    WHITE,
    color_counts,
    compose,
    family_category,
    involute,
    is_noncrossing,
    rotate,
    t_map,
    tensor,
)
from easyqg.partitions import BASE_PARTITIONS, COLORS, CORNERS
from easyqg.tmaps import IntRowReducer


def random_partition(rng: Random, max_points: int = 8) -> ColoredPartition:
    """A uniform-ish random colored partition (not necessarily noncrossing)."""
    m = rng.randint(1, max_points)
    k = rng.randint(0, m)
    labels = []
    top = -1
    for _ in range(m):
        lab = rng.randint(0, top + 1)
        labels.append(lab)
        top = max(top, lab)
    blocks: dict[int, list[int]] = {}
    for point, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(point)
    colors = [rng.choice((WHITE, BLACK)) for _ in range(m)]
    return ColoredPartition(
        k, m - k, colors[:k], colors[k:], blocks.values()
    )


@st.composite
def colored_partitions(draw, max_points: int = 9) -> ColoredPartition:
    """Any colored partition: a restricted-growth string, a cut and colors."""
    m = draw(st.integers(0, max_points))
    k = draw(st.integers(0, m))
    labels: list[int] = []
    for _ in range(m):
        labels.append(draw(st.integers(0, max(labels, default=-1) + 1)))
    colors = draw(st.lists(st.sampled_from(COLORS), min_size=m, max_size=m))
    blocks: dict[int, list[int]] = {}
    for point, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(point)
    return ColoredPartition(k, m - k, colors[:k], colors[k:], blocks.values())


def nc_shapes(k: int, l: int, max_points: int = 8) -> list[ColoredPartition]:
    """All all-white noncrossing partitions of shape (k, l)."""
    sample = family_category("S+", max(max_points, k + l))
    return sorted(sample.iter_members(k=k, l=l, all_white=True))


def all_nc_structures(max_points: int) -> list[ColoredPartition]:
    """All all-white noncrossing partitions with at most max_points points."""
    sample = family_category("S+", max_points)
    return sorted(sample.iter_members(all_white=True))


@lru_cache(maxsize=None)
def white_noncrossing(max_points: int) -> tuple[ColoredPartition, ...]:
    """Every all-white noncrossing partition with at most max_points points:
    each set partition of the points (restricted-growth strings), cut into
    rows every way, kept when noncrossing."""
    out = []
    for m in range(max_points + 1):
        for labels in restricted_growth_strings(m):
            blocks: dict[int, list[int]] = {}
            for point, lab in enumerate(labels, start=1):
                blocks.setdefault(lab, []).append(point)
            for k in range(m + 1):
                p = ColoredPartition(k, m - k, WHITE * k, WHITE * (m - k), blocks.values())
                if is_noncrossing(p):
                    out.append(p)
    return tuple(out)


@lru_cache(maxsize=None)
def colored_noncrossing(max_points: int) -> tuple[ColoredPartition, ...]:
    """Every colored noncrossing partition with at most max_points points."""
    return tuple(
        ColoredPartition(p.k, p.l, colors[: p.k], colors[p.k :], p.blocks)
        for p in white_noncrossing(max_points)
        for colors in itertools.product((WHITE, BLACK), repeat=p.points)
    )


def nc_structures_oracle(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """Noncrossing set partitions of positions 0..m-1, in the order of
    ``categories._nc_structures``: every restricted-growth string in
    lexicographic order, kept when ``is_noncrossing`` accepts it as an
    all-upper partition (whose boundary order is the linear order)."""
    out = []
    for labels in restricted_growth_strings(m):
        blocks: dict[int, list[int]] = {}
        for pos, lab in enumerate(labels):
            blocks.setdefault(lab, []).append(pos)
        struct = tuple(tuple(b) for b in blocks.values())
        points = [[pos + 1 for pos in b] for b in struct]
        if is_noncrossing(ColoredPartition(m, 0, WHITE * m, "", points)):
            out.append(struct)
    return out


def restricted_growth_strings(m: int, labels: tuple[int, ...] = ()):
    """Every set partition of m items as its labels, in lexicographic order."""
    if len(labels) == m:
        yield labels
        return
    for lab in range(max(labels, default=-1) + 2):
        yield from restricted_growth_strings(m, labels + (lab,))


def naive_rank(vectors: list[dict[int, int]], dim: int) -> int:
    """Plain Gaussian elimination over Fraction; independent rank oracle."""
    rows = [[Fraction(vec.get(i, 0)) for i in range(dim)] for vec in vectors]
    rank = 0
    col = 0
    while rows and col < dim:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def join_blocks(p: ColoredPartition, q: ColoredPartition) -> int:
    """|p v q|: the block count of the finest common coarsening of p and q.

    The blocks of p are union-find nodes; each block of q merges the blocks
    of p that it meets, and every merge removes one block.
    """
    owner = [0] * (p.points + 1)
    for i, b in enumerate(p.blocks):
        for x in b:
            owner[x] = i
    parent = list(range(len(p.blocks)))
    count = len(p.blocks)
    for b in q.blocks:
        root = owner[b[0]]
        while parent[root] != root:
            root = parent[root]
        for x in b[1:]:
            other = owner[x]
            while parent[other] != other:
                other = parent[other]
            if other != root:
                parent[other] = root
                count -= 1
    return count


def member_closure(generators, max_points: int):
    """The members of the closure of the base partitions and
    ``generators`` under involution, the four rotations, tensor and compose,
    run on whole members: every operation is applied to every member and
    every pair of members, keeping results within the point bound, until
    nothing new appears."""
    seed = set(BASE_PARTITIONS) | set(generators)
    members = set(seed)
    queue = deque(sorted(seed))
    processed: list[ColoredPartition] = []

    def consider(r: ColoredPartition) -> None:
        if r.points <= max_points and r not in members:
            members.add(r)
            queue.append(r)

    while queue:
        p = queue.popleft()
        consider(involute(p))
        for corner in CORNERS:
            if (p.k if corner[0] == "U" else p.l) > 0:
                consider(rotate(p, corner))
        for q in itertools.chain(processed, (p,)):
            for a, b in ((p, q), (q, p)):
                if a.points + b.points <= max_points:
                    consider(tensor(a, b))
                # compose(a, b): b stacked above a
                if b.l == a.k and b.lower_colors == a.upper_colors:
                    if b.k + a.l <= max_points:
                        consider(compose(a, b)[0])
        processed.append(p)
    return frozenset(members)


def vector_intertwiner_dim(sample, k: int, l: int, n: int):
    """``intertwiner_dim`` on the flattened T_p alone: rank and greedy basis."""
    red = IntRowReducer()
    members = sorted(sample.iter_members(k=k, l=l, all_white=True))
    basis = [p for p in members if red.add(t_map(p, n).flatten())]
    return red.rank, basis


def gram_intertwiner_dim(sample, k: int, l: int, n: int):
    """``intertwiner_dim`` on Gram columns: rank and greedy basis.

    Each member p goes in as its column ``{i: n^|p v q_i|}`` over the sorted
    members q_i.  Over Q, G = V^T V has the kernel of V (G c = 0 gives
    |V c|^2 = 0), so the rank and the greedy basis are those of the T_p.
    """
    red = IntRowReducer()
    members = sorted(sample.iter_members(k=k, l=l, all_white=True))
    basis = [
        p for p in members
        if red.add({i: n ** join_blocks(p, q) for i, q in enumerate(members)})
    ]
    return red.rank, basis


def compositions(total: int, max_part: int) -> list[tuple[int, ...]]:
    """All compositions of ``total`` with parts in 1..max_part.

    These are exactly the words of degree ``total`` for the word family
    with modulus s = max_part, so they give independent irreducible counts.
    """
    if total == 0:
        return [()]
    out = []
    for first in range(1, min(total, max_part) + 1):
        for rest in compositions(total - first, max_part):
            out.append((first,) + rest)
    return out


def first_power(ring, label, cap: int) -> int | None:
    """Least e <= cap with the label in ``ring.power(e)``, None if there is none.

    A degree oracle that sweeps the tensor powers instead of reading the
    ring's grading.
    """
    for e in range(cap + 1):
        if label in ring.power(e):
            return e
    return None


def chain_group_oracle(ring, cap: int) -> int | None:
    """The class count of labels that meet in a power, or None if uncertified.

    Merges the supports of powers 0..cap that meet until no two meet, then
    counts the groups of labels; None when no power 1..cap ends in the group
    of power 0.
    """
    groups = [(set(ring.support(e)), {e}) for e in range(cap + 1)]
    merged = True
    while merged:
        merged = False
        for i, j in itertools.combinations(range(len(groups)), 2):
            if groups[i][0] & groups[j][0]:
                groups[i][0].update(groups[j][0])
                groups[i][1].update(groups[j][1])
                del groups[j]
                merged = True
                break
    trivial = next(powers for _, powers in groups if 0 in powers)
    return len(groups) if len(trivial) > 1 else None


def recursive_word_dim(ring, label: tuple, n: int, cache: dict | None = None) -> int:
    """dim of a word from the expansion of r_y tensor r_j, plain recursion.

    A word-family dim oracle: one call per letter deep, memoized in
    ``cache``, raising ``InconsistentDimension`` on a value <= 0 as the
    ring does.
    """
    cache = {} if cache is None else cache
    if label in cache:
        return cache[label]
    if not label:
        value = 1
    elif len(label) == 1:
        value = n - 1 if label[0] == ring.s else n
    else:
        y, j = label[:-1], label[-1:]
        value = recursive_word_dim(ring, y, n, cache) * recursive_word_dim(ring, j, n, cache)
        for gamma, mult in ring.decompose(y, j).items():
            if gamma == label:
                mult -= 1
            if mult:
                value -= mult * recursive_word_dim(ring, gamma, n, cache)
    if value <= 0:
        raise InconsistentDimension(f"dim {label} = {value} at n={n}")
    cache[label] = value
    return value


def member_loop_k(sample) -> int:
    """gcd of c(p) over the members, built one by one; a k(C) oracle."""
    g = 0
    for p in sample.iter_members():
        g = math.gcd(g, color_counts(p)[2])
        if g == 1:
            break
    return g


def packed(ring, vec: dict) -> dict:
    """A fusion vector with its labels as the level build stores them (``ring.pack``)."""
    return {ring.pack(y): m for y, m in vec.items()}


def power_sweep_levels(ring, k_0: int, levels: int) -> list[tuple]:
    """``(power, basis, boundary)`` of every level, from full tensor powers.

    The levels start at the least N with supp u^N inside supp u^(N + k_0);
    level ell is the support of u^(N + ell k_0), sorted by (degree, label),
    and its boundary holds the labels that no lower power contains.
    """
    start = next(
        n for n in range(33) if ring.power(n).keys() <= ring.power(n + k_0).keys()
    )
    out = []
    for ell in range(levels + 1):
        power = start + ell * k_0
        basis = tuple(sorted(ring.power(power), key=ring.sort_key))
        boundary = tuple(x for x in basis if first_power(ring, x, power) == power)
        out.append((power, basis, boundary))
    return out


def submatrix_det(data: list[list[int]], rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    sub = [[data[r][c] for c in cols] for r in rows]
    n = len(sub)
    if n == 0:
        return 1
    # expansion by minors is fine at size <= 6
    if n == 1:
        return sub[0][0]
    det = 0
    for j in range(n):
        if sub[0][j]:
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            det += (-1) ** j * sub[0][j] * submatrix_det(
                [list(r) for r in minor],
                tuple(range(n - 1)),
                tuple(range(n - 1)),
            )
    return det


def determinantal_divisors(data: list[list[int]]) -> list[int]:
    """gcd of all k-by-k minors, for each k; an independent SNF oracle."""
    import math

    rows, cols = len(data), len(data[0]) if data else 0
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                g = math.gcd(g, abs(submatrix_det(data, rsel, csel)))
        out.append(g)
        if g == 0:
            break
    return out
