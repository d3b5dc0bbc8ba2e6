"""Bounded samples of partition categories.

Two ways to build a sample:

* ``generate_category(generators, max_points)`` — fixed-point closure of
  the seed under tensor, composition, involution and rotation, discarding
  anything above the point bound, run on one-row boundary words, with the
  blocks of a glue joined once per pair of block structures and overlap.
  This is exact but only feasible for small bounds.
* ``family_category(family, max_points, s)`` — the four shipped families
  (O+, U+, S+, H+) enumerated through their known membership predicates:

      O+   noncrossing pairings, arbitrary colors
      U+   noncrossing pairings whose blocks are color-balanced
      S+   all noncrossing colored partitions
      H+s  noncrossing partitions, every block color-balanced mod s

  (H+ with s = 1 coincides with S+.)  The tests verify at small bounds
  that these predicates agree with the generated closures.

A category is closed under rotation, so the m + 1 cuts of a boundary word
(``partitions.from_boundary``) are all members or none.  A sample is kept
as boundary words grouped by block structure, and members are cut from
them only when asked for.  A closure sample stores its words; a family
reads them from a memoized table of each block size's admissible boundary
colorings, as membership in a family is one rule per block, read off its
boundary colors (``_block_ok``).  ``member_count`` sums (m + 1) times the
word count over the structures, so S+ at bound 8 (3.8 million members) is
counted from 2,056 structures.  ``k_param`` reads the words (a closure) or
the tables (a family), building no member either.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BoundTooSmall, PreconditionError, WrongFamily
from .partitions import (
    BASE_PARTITIONS,
    BLACK,
    COLORS,
    WHITE,
    ColoredPartition,
    b_block,
    boundary_blocks,
    boundary_colors,
    charge,
    cut_words,
    flip_color,
    four_block_wwbb,
    from_boundary,
    is_noncrossing,
    merge_blocks,
    singleton,
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
            raise PreconditionError("family H+ needs s >= 1")
        return (b_block(s), four_block_wwbb())
    raise WrongFamily(f"unknown family {family!r}")


class PartitionCategorySample:
    """A bounded view of a category of partitions, kept as boundary words.

    A closure sample stores its words (``words``: canonical position blocks
    -> a dict whose keys are the color words); a family sample (``family``
    set) makes them from the family's block rule.  Members are cut from the
    words when asked for: prefer ``iter_members`` and ``member_count`` to
    ``members``, which builds the full set on each call.
    """

    def __init__(
        self,
        generators: Iterable[ColoredPartition],
        max_points: int,
        saturated: bool,
        words: Optional[dict] = None,
        family: str | None = None,
        s: int | None = None,
    ):
        self.generators = tuple(generators)
        self.max_points = max_points
        self.saturated = saturated
        self.family = family
        self.s = s
        self._words = words or {}
        for base in BASE_PARTITIONS:
            if max_points >= 2 and base not in self:
                raise PreconditionError("sample is missing a base partition")

    def _groups(self, sizes: Sequence[int]) -> Iterator[tuple[int, tuple, int, Iterable]]:
        """``(m, position blocks, word count, words)`` of each block structure
        with m in ``sizes``; a family's words are made when iterated."""
        if self.family is None:
            for blocks, words in self._words.items():
                m = sum(map(len, blocks))
                if m in sizes:
                    yield m, blocks, len(words), words
            return
        for m, struct, tables in _family_structures(self.family, self.s, sizes):
            yield m, struct, math.prod(map(len, tables)), _table_words(m, struct, tables)

    def _has(self, colors: tuple, blocks: tuple) -> bool:
        """Whether the boundary word is in the sample; a family sample takes
        the blocks to be noncrossing."""
        if self.family is None:
            return colors in self._words.get(blocks, ())
        return all(_block_ok(self.family, self.s, [colors[i] for i in b]) for b in blocks)

    def __contains__(self, p: ColoredPartition) -> bool:
        if p.points > self.max_points or (self.family is not None and not is_noncrossing(p)):
            return False
        return self._has(boundary_colors(p), _moved(boundary_blocks(p), range(p.points)))

    @property
    def members(self) -> frozenset:
        return frozenset(self.iter_members())

    def iter_members(
        self,
        k: int | None = None,
        l: int | None = None,
        all_white: bool = False,
    ) -> Iterator[ColoredPartition]:
        sizes = [
            m for m in range(self.max_points + 1)
            if m >= (k or 0) + (l or 0) and (k is None or l is None or m == k + l)
        ]
        for m, blocks, _, words in self._groups(sizes):
            cuts = [c for c in range(m + 1) if k in (None, c) and l in (None, m - c)]
            if all_white:  # upper points of an all-white word are boundary-black
                for cut in cuts:
                    word = (BLACK,) * cut + (WHITE,) * (m - cut)
                    if self._has(word, blocks):
                        yield from_boundary(cut, word, blocks)
                continue
            words = list(words)  # each cut reads them again
            for cut in cuts:
                yield from cut_words(cut, words, blocks)

    def member_count(self) -> int:
        return sum((m + 1) * n for m, _, n, _ in self._groups(range(self.max_points + 1)))


# ---------------------------------------------------------------------------
# Generic bounded closure.
# ---------------------------------------------------------------------------


def generate_category(
    generators: Iterable[ColoredPartition],
    max_points: int,
    max_members: int | None = None,
) -> PartitionCategorySample:
    """Close the seed under the category operations within the point bound.

    The seed's boundary words ``(colors, position blocks)`` are closed under
    the cyclic shift, the involution and ``_glues``; each word stands for
    its m + 1 cuts.  This least fixed point does not depend on the
    generator order.  The sample keeps the words grouped by their position
    blocks, each group in sorted order, so that its members come out in the
    same order in every process.

    The queue hands out whole dihedral orbits (``_orbit``: a word with all
    its cyclic shifts and involutions, added together).  A new orbit's
    words are glued with the processed words in one order only, ``u`` then
    ``v``, and with each other in both orders.  The other order is not lost:
    with v of b positions, ``glue(v, u)`` along t keeps v minus its last t
    positions and u minus its first t, so it is a cyclic shift of
    ``glue(rot^t u, rot^(b-t) v)`` along t, a glue of the new orbit with a
    processed one.  (The involution gives the same through
    ``inv glue(x, y) = glue(inv y, inv x)``.)

    Partners are looked up, not scanned.  A glue of u (a positions) with v
    (b positions) along t has a + b - 2t positions, so it needs t >= t_min
    = max(0, ceil((a + b - max_points) / 2)) met positions, and those need
    ``v[j] == flip(u[a-1-j])`` for j < t_min.  The processed words are
    indexed by their length and their first colors, so one lookup per b
    gives exactly the partners that can glue, in processed order.

    Blocks are joined once per ``(bu, bv, t)``, not once per glue.  A glue's
    met positions and the node maps that ``merge_blocks`` reads are
    functions of a, b and t alone, so its blocks depend only on the two
    block structures and t; colors only decide whether the glue is allowed.
    The joined blocks are kept in a dict that lives for this call and is
    handed to ``_glues``, and each glue builds only its color word.

    ``max_members`` is a safety valve on the number of words, checked
    between orbits: once more words than that are known the sample is
    returned with ``saturated=False``.
    """
    if max_points < 2:
        raise BoundTooSmall("max_points must be at least 2")
    generators = tuple(generators)
    seed = set(BASE_PARTITIONS) | set(generators)
    for p in seed:
        if p.points > max_points:
            raise BoundTooSmall(f"seed partition {p!r} exceeds bound {max_points}")

    words: set[tuple] = set()
    queue: deque[list[tuple]] = deque()

    def add(found: Iterable[tuple]) -> None:
        for word in found:
            if word not in words:
                orbit = _orbit(word)
                words.update(orbit)
                queue.append(orbit)

    add(sorted((boundary_colors(p), _moved(boundary_blocks(p), range(p.points))) for p in seed))
    # (b, first t colors) -> the processed words of b positions that start so;
    # t up to ceil(b / 2), the most met positions a t_min asks of b positions
    partners: dict[tuple, list[tuple]] = {}
    joined: dict[tuple, tuple] = {}  # (bu, bv, t) -> the blocks of their glue
    while queue and (max_members is None or len(words) <= max_members):
        orbit = queue.popleft()
        for v in orbit:
            b = len(v[0])
            for t in range((b + 1) // 2 + 1):
                partners.setdefault((b, v[0][:t]), []).append(v)
        for u in orbit:
            a = len(u[0])
            meets = tuple(map(flip_color, reversed(u[0])))  # what v[j] must be
            for b in range(max_points + 1):
                t_min = max(0, a + b - max_points + 1) // 2
                if t_min <= min(a, b):
                    for v in partners.get((b, meets[:t_min]), ()):
                        add(_glues(u, v, max_points, joined))

    groups: dict[tuple, dict] = {}
    for colors, blocks in sorted(words):
        groups.setdefault(blocks, {})[colors] = None
    return PartitionCategorySample(generators, max_points, not queue, words=groups)


def _orbit(word: tuple) -> list[tuple]:
    """The word's dihedral orbit: the cyclic shifts of the word and of its
    involution, in that order and without repeats."""
    m = len(word[0])
    involution = tuple(map(flip_color, word[0][::-1])), _moved(word[1], range(m - 1, -1, -1))
    orbit = {word: None}
    for colors, blocks in (word, involution):
        for k in range(m):
            orbit[colors[k:] + colors[:k], _moved(blocks, [(i - k) % m for i in range(m)])] = None
    return list(orbit)


def _moved(blocks: Iterable[Iterable[int]], position: Sequence[int]) -> tuple:
    """The blocks with each i moved to ``position[i]``, in canonical form."""
    return tuple(sorted(tuple(sorted(position[i] for i in b)) for b in blocks))


def _glues(u: tuple, v: tuple, max_points: int, joined: dict) -> Iterator[tuple]:
    """The nested glues of the words u and v within ``max_points`` positions.
    Along t positions, u[a-t+i] meets v[t-1-i] for i < t, and the result is
    u[:a-t] + v[t:], its blocks joined through the met positions: the tensor
    product for t = 0, else a composition at one cut.  Met positions need
    opposite colors; each t meets the pairs of t - 1, so the first
    same-colored pair ends the search.  ``joined`` maps ``(bu, bv, t)`` to
    the joined blocks; ``merge_blocks`` runs only on a miss."""
    (cu, bu), (cv, bv) = u, v
    a, b = len(cu), len(cv)
    for t in range(min(a, b) + 1):
        if t and cu[a - t] == cv[t - 1]:
            return
        r = a + b - 2 * t
        if r <= max_points:
            key = bu, bv, t
            blocks = joined.get(key)
            if blocks is None:
                glued = range(r, r + t)
                nodes = (bu, (*range(a - t), *glued)), (bv, (*reversed(glued), *range(a - t, r)))
                blocks = joined[key] = tuple(map(tuple, merge_blocks(range(r), glued, *nodes)[0]))
            yield cu[: a - t] + cv[t:], blocks


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


def _block_ok(family: str, s: int | None, colors: Sequence[str]) -> bool:
    """The family's membership rule for one block, read off its boundary colors."""
    if family == "S+":
        return True
    if family == "O+":
        return len(colors) == 2
    if family == "U+":
        return len(colors) == 2 and charge(colors) == 0
    if family == "H+":
        return charge(colors) % s == 0
    raise WrongFamily(f"unknown family {family!r}")


@lru_cache(maxsize=None)
def _block_colorings(
    family: str, s: int | None, size: int
) -> tuple[tuple[str, ...], ...]:
    """The boundary colorings of a block of ``size`` points that ``_block_ok``
    admits, in product order; they do not depend on where the word is cut."""
    return tuple(
        colors
        for colors in itertools.product(COLORS, repeat=size)
        if _block_ok(family, s, colors)
    )


def _family_structures(
    family: str, s: int | None, sizes: Iterable[int]
) -> Iterator[tuple[int, tuple[tuple[int, ...], ...], list]]:
    """``(m, structure, per-block colorings)`` of every colorable structure
    with m in ``sizes``; each of its m + 1 cuts gives the members of a shape."""
    for m in sizes:
        for struct in _nc_structures(m):
            tables = [_block_colorings(family, s, len(b)) for b in struct]
            if all(tables):
                yield m, struct, tables


def _table_words(m: int, struct: Sequence[Sequence[int]], tables: list) -> Iterator[tuple]:
    """The boundary words of a structure, one per choice of a coloring for
    each block, in product order."""
    for chosen in itertools.product(*tables):
        word = [WHITE] * m
        for b, block_colors in zip(struct, chosen):
            for i, col in zip(b, block_colors):
                word[i] = col
        yield tuple(word)


def family_category(
    family: str, max_points: int, s: int | None = None
) -> PartitionCategorySample:
    """The bounded sample of one of the shipped families, enumerated lazily."""
    if family != "H+":
        s = None
    if max_points < 2:
        raise BoundTooSmall("max_points must be at least 2")
    # generators are metadata here; they may exceed a small bound
    gens = family_generators(family, s)
    return PartitionCategorySample(
        gens, max_points, saturated=True, family=family, s=s
    )


# ---------------------------------------------------------------------------
# The parameter k(C).
# ---------------------------------------------------------------------------


def k_param(sample: PartitionCategorySample) -> int:
    """gcd of |c(p)| over the sample, 0 when every member is balanced.

    Every c(p) in a category is a multiple of k(C), so within a saturated
    sample the gcd equals the minimal positive c(p).  A family sample is
    read per structure off its coloring tables: c(p) adds over blocks and
    does not depend on the cut, so the structure's gcd is that of the first
    colorings' total charge and of every charge difference within a block;
    it stops once the running gcd reaches 1.  A closure sample takes one
    charge per word.  If ``sample.saturated`` is false the value only
    reflects the bound.
    """
    if sample.family is None:
        return math.gcd(*(charge(colors) for words in sample._words.values() for colors in words))
    g = 0
    structures = _family_structures(sample.family, sample.s, range(sample.max_points + 1))
    for _, _, tables in structures:
        total = 0
        for table in tables:
            first = charge(table[0])
            total += first
            for colors in table:
                g = math.gcd(g, charge(colors) - first)
        g = math.gcd(g, total)
        if g == 1:
            break
    return g
