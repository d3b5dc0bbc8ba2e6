"""Bounded samples of partition categories.

Two ways to build a sample:

* ``generate_category(generators, max_points)`` — fixed-point closure of
  the seed under tensor, composition, involution and rotation, discarding
  anything above the point bound.  This is exact but only feasible for
  small bounds.
* ``family_category(family, max_points, s)`` — the four shipped families
  (O+, U+, S+, H+) enumerated through their known membership predicates:

      O+   noncrossing pairings, arbitrary colors
      U+   noncrossing pairings whose blocks are color-balanced
      S+   all noncrossing colored partitions
      H+s  noncrossing partitions, every block color-balanced mod s

  (H+ with s = 1 coincides with S+.)  The tests verify at small bounds
  that these predicates agree with the generated closures.

Family samples iterate lazily; ``k_param`` exploits that to terminate as
soon as the running gcd hits 1, which is what makes S+ at bound 8 cheap
even though the full member set is in the millions.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from .errors import BoundTooSmall
from .partitions import (
    BASE_PARTITIONS,
    BLACK,
    WHITE,
    ColoredPartition,
    b_block,
    block_color_sum,
    color_counts,
    compose,
    four_block_wwbb,
    involute,
    is_noncrossing,
    rotate,
    singleton,
    tensor,
    vertical_pair,
)

FAMILIES = ("O+", "S+", "U+", "H+")


def family_generators(family: str, s: int | None = None) -> tuple[ColoredPartition, ...]:
    if family == "O+":
        return (vertical_pair(WHITE, BLACK),)
    if family == "U+":
        return ()
    if family == "S+":
        return (vertical_pair(WHITE, BLACK), singleton(WHITE), four_block_wwbb())
    if family == "H+":
        if s is None or s < 1:
            raise ValueError("family H+ needs s >= 1")
        return (b_block(s), four_block_wwbb())
    raise ValueError(f"unknown family {family!r}")


class PartitionCategorySample:
    """A bounded view of a category of partitions.

    ``members`` materializes the full set; prefer ``iter_members`` for the
    lazy family samples, whose member counts explode with the bound.
    """

    def __init__(
        self,
        generators: Iterable[ColoredPartition],
        max_points: int,
        saturated: bool,
        members: Optional[frozenset] = None,
        predicate: Optional[Callable[[ColoredPartition], bool]] = None,
        iterator: Optional[Callable[..., Iterator[ColoredPartition]]] = None,
        family: str | None = None,
        s: int | None = None,
    ):
        self.generators = tuple(generators)
        self.max_points = max_points
        self.saturated = saturated
        self.family = family
        self.s = s
        self._members = members
        self._predicate = predicate
        self._iterator = iterator
        for base in BASE_PARTITIONS:
            if max_points >= 2 and base not in self:
                raise ValueError("sample is missing a base partition")

    def __contains__(self, p: ColoredPartition) -> bool:
        if self._members is not None:
            return p in self._members
        if p.points > self.max_points:
            return False
        return self._predicate(p)

    @property
    def members(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(self._iterator())
        return self._members

    def iter_members(
        self,
        k: int | None = None,
        l: int | None = None,
        all_white: bool = False,
    ) -> Iterator[ColoredPartition]:
        if self._members is not None:
            for p in sorted(self._members):
                if k is not None and p.k != k:
                    continue
                if l is not None and p.l != l:
                    continue
                if all_white and not p.all_white():
                    continue
                yield p
        else:
            yield from self._iterator(k=k, l=l, all_white=all_white)

    def member_count(self) -> int:
        if self._members is not None:
            return len(self._members)
        return sum(1 for _ in self.iter_members())


# ---------------------------------------------------------------------------
# Generic bounded closure.
# ---------------------------------------------------------------------------


def generate_category(
    generators: Iterable[ColoredPartition],
    max_points: int,
    max_members: int | None = None,
) -> PartitionCategorySample:
    """Close the seed under the category operations within the point bound.

    The result is the least fixed point, hence independent of generator
    order.  ``max_members`` is a safety valve: when the closure outgrows
    it the sample is returned with ``saturated=False``.
    """
    if max_points < 2:
        raise BoundTooSmall("max_points must be at least 2")
    generators = tuple(generators)
    seed = set(BASE_PARTITIONS) | set(generators)
    for p in seed:
        if p.points > max_points:
            raise BoundTooSmall(f"seed partition {p!r} exceeds bound {max_points}")

    members = set(seed)
    queue = deque(sorted(seed))
    processed: list[ColoredPartition] = []
    saturated = True

    def consider(r: ColoredPartition) -> None:
        if r.points <= max_points and r not in members:
            members.add(r)
            queue.append(r)

    while queue:
        if max_members is not None and len(members) > max_members:
            saturated = False
            break
        p = queue.popleft()
        consider(involute(p))
        if p.k > 0:
            consider(rotate(p, "UL"))
            consider(rotate(p, "UR"))
        if p.l > 0:
            consider(rotate(p, "LL"))
            consider(rotate(p, "LR"))
        for q in itertools.chain(processed, (p,)):
            for a, b in ((p, q), (q, p)):
                if a.points + b.points <= max_points:
                    consider(tensor(a, b))
                # compose(a, b): b stacked above a
                if b.l == a.k and b.lower_colors == a.upper_colors:
                    if b.k + a.l <= max_points:
                        consider(compose(a, b)[0])
        processed.append(p)

    return PartitionCategorySample(
        generators, max_points, saturated, members=frozenset(members)
    )


# ---------------------------------------------------------------------------
# Direct enumeration of the four shipped families.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _nc_structures(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All noncrossing set partitions of positions 0..m-1 (linear order).

    Generated directly as restricted-growth strings in lexicographic order,
    blocks listed by first position.  ``open_blocks`` holds the blocks that
    may still grow, oldest first: position ``pos`` joins one of them, which
    closes every block opened after it, or opens a new block.
    """
    result = []
    blocks: list[list[int]] = []

    def grow(pos: int, open_blocks: tuple[int, ...]) -> None:
        if pos == m:
            result.append(tuple(tuple(b) for b in blocks))
            return
        for depth, lab in enumerate(open_blocks):
            blocks[lab].append(pos)
            grow(pos + 1, open_blocks[: depth + 1])
            blocks[lab].pop()
        blocks.append([pos])
        grow(pos + 1, open_blocks + (len(blocks) - 1,))
        blocks.pop()

    grow(0, ())
    return tuple(result)


def _block_sign(point: int, k: int) -> int:
    return 1 if point > k else -1


def _family_block_ok(family: str, s: int | None, c_value: int, size: int) -> bool:
    if family == "S+":
        return True
    if family == "O+":
        return size == 2
    if family == "U+":
        return size == 2 and c_value == 0
    if family == "H+":
        return c_value % s == 0
    raise ValueError(f"unknown family {family!r}")


def _member_predicate(family: str, s: int | None) -> Callable[[ColoredPartition], bool]:
    def contains(p: ColoredPartition) -> bool:
        if not is_noncrossing(p):
            return False
        for b in p.blocks:
            if not _family_block_ok(family, s, block_color_sum(p, b), len(b)):
                return False
        return True

    return contains


def _block_colorings(
    family: str, s: int | None, points: tuple[int, ...], k: int
) -> list[tuple[str, ...]]:
    """Admissible color tuples for one block (aligned with ``points``)."""
    signs = [_block_sign(x, k) for x in points]
    out = []
    for colors in itertools.product((WHITE, BLACK), repeat=len(points)):
        c = sum(sg if col == WHITE else -sg for sg, col in zip(signs, colors))
        if _family_block_ok(family, s, c, len(points)):
            out.append(colors)
    return out


def _iter_family_members(
    family: str,
    s: int | None,
    max_points: int,
    k: int | None = None,
    l: int | None = None,
    all_white: bool = False,
) -> Iterator[ColoredPartition]:
    for m in range(0, max_points + 1):
        if k is not None and l is not None and k + l != m:
            continue
        for struct in _nc_structures(m):
            if family in ("O+", "U+") and any(len(b) != 2 for b in struct):
                continue
            for kk in range(0, m + 1):
                if k is not None and kk != k:
                    continue
                if l is not None and m - kk != l:
                    continue
                # positions -> point numbers (boundary order unrolled)
                blocks = tuple(
                    tuple(
                        sorted(
                            pos + 1 if pos < kk else m + kk - pos for pos in b
                        )
                    )
                    for b in struct
                )
                if all_white:
                    ok = True
                    for b in blocks:
                        c = sum(_block_sign(x, kk) for x in b)
                        if not _family_block_ok(family, s, c, len(b)):
                            ok = False
                            break
                    if not ok:
                        continue
                    yield ColoredPartition(
                        kk, m - kk, WHITE * kk, WHITE * (m - kk), blocks
                    )
                    continue
                options = [
                    _block_colorings(family, s, b, kk) for b in blocks
                ]
                if any(not opt for opt in options):
                    continue
                for chosen in itertools.product(*options):
                    upper = [WHITE] * kk
                    lower = [WHITE] * (m - kk)
                    for b, colors in zip(blocks, chosen):
                        for x, col in zip(b, colors):
                            if x <= kk:
                                upper[x - 1] = col
                            else:
                                lower[x - kk - 1] = col
                    yield ColoredPartition(kk, m - kk, upper, lower, blocks)


def family_category(
    family: str, max_points: int, s: int | None = None
) -> PartitionCategorySample:
    """The bounded sample of one of the shipped families, enumerated lazily."""
    if family == "H+" and (s is None or s < 1):
        raise ValueError("family H+ needs s >= 1")
    if family != "H+":
        s = None
    if max_points < 2:
        raise BoundTooSmall("max_points must be at least 2")
    # generators are metadata here; they may exceed a small bound
    gens = family_generators(family, s)

    def iterator(k=None, l=None, all_white=False):
        return _iter_family_members(
            family, s, max_points, k=k, l=l, all_white=all_white
        )

    return PartitionCategorySample(
        gens,
        max_points,
        saturated=True,
        predicate=_member_predicate(family, s),
        iterator=iterator,
        family=family,
        s=s,
    )


# ---------------------------------------------------------------------------
# The parameter k(C).
# ---------------------------------------------------------------------------


def k_param(sample: PartitionCategorySample) -> int:
    """gcd of |c(p)| over the sample, 0 when every member is balanced.

    Every c(p) in a category is a multiple of k(C), so within a saturated
    sample the gcd equals the minimal positive c(p).  When the running gcd
    reaches 1 no further member can change it, so iteration stops early.
    If ``sample.saturated`` is false the value only reflects the bound.
    """
    cached = getattr(sample, "_k_param_cache", None)
    if cached is not None:
        return cached
    g = 0
    for p in sample.iter_members():
        c = color_counts(p)[2]
        if c:
            g = math.gcd(g, abs(c))
            if g == 1:
                break
    sample._k_param_cache = g
    return g
