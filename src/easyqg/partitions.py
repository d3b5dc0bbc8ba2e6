"""Colored two-row set partitions and their category operations.

A partition ``p`` has ``k`` upper and ``l`` lower points.  Upper points are
numbered 1..k left to right, lower points k+1..k+l left to right.  Every
point is colored white (``"w"``) or black (``"b"``).  The block structure is
stored in canonical form: each block sorted ascending, blocks sorted by
their minimal element.

Conventions fixed here and relied on everywhere else:

* ``compose(q, p)`` stacks ``p`` *above* ``q`` (so it models "q after p" on
  linear maps) and also returns the number of blocks that were swallowed
  entirely by the middle row.  Its blocks are joined by ``merge_blocks``,
  the one union-find, which also glues boundary words in the category
  closure (``categories.generate_category``, which works on dihedral
  orbits of words and looks each word's partners up in an index).
* The boundary word lists the points in cyclic order, upper row left to
  right, then lower row right to left (``boundary_points``), with colors
  inverted on the upper row (``boundary_colors``); a diagram is its word
  cut after ``k`` positions (``from_boundary``; ``cut_words`` cuts many
  words over one block structure).  A boundary-white point adds 1 to
  c(p), a boundary-black one subtracts 1 (``charge``).
  Crossings are tested along the word, a linear stack test.
* Rotations move the outermost point of one row to the same side of the
  other row; the moved point changes color but keeps its block and its
  boundary color.  So UR and LR only move the cut; UL and LL also turn
  the word by one position, as the moved point crosses the seam at the
  left.

Canonical text form: ``P(k,l;U;L;B)`` where U and L are color strings over
{w, b} and B lists the blocks in canonical order, e.g. the white identity
is ``P(1,1;w;w;{{1,2}})`` and the white cup is ``P(0,2;;ww;{{1,2}})``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import ColorMismatch, EmptyRow, ParseError, PreconditionError, ShapeMismatch

WHITE = "w"
BLACK = "b"
COLORS = (WHITE, BLACK)


_FLIPPED = {WHITE: BLACK, BLACK: WHITE}


def flip_color(color: str) -> str:
    return _FLIPPED[color]


def boundary_points(k: int, l: int) -> tuple[int, ...]:
    """Position -> point: upper row left to right, then lower row right to left."""
    return (*range(1, k + 1), *range(k + l, k, -1))


def boundary_colors(p: "ColoredPartition") -> tuple[str, ...]:
    """The boundary color at each position, in the order of ``boundary_points``:
    the upper row's colors inverted, then the lower row's reversed."""
    return (*map(_FLIPPED.__getitem__, p.upper_colors), *p.lower_colors[::-1])


def boundary_blocks(p: "ColoredPartition") -> list[list[int]]:
    """The blocks of p as lists of positions."""
    position = {x: i for i, x in enumerate(boundary_points(p.k, p.l))}
    return [[position[x] for x in b] for b in p.blocks]


def cut_words(
    k: int,
    words: Iterable[Sequence[str]],
    position_blocks: Sequence[Sequence[int]],
) -> Iterator["ColoredPartition"]:
    """The diagram of each boundary word in ``words`` over the same
    ``position_blocks``, cut after ``k`` positions: the members that a
    category sample keeps as one block structure's words."""
    l = sum(map(len, position_blocks)) - k
    points = boundary_points(k, l)
    blocks = [[points[i] for i in b] for b in position_blocks]
    for colors in words:
        # Built from a list, not a bare map: tuple() of a map guesses its
        # length and resizes, and such tuples pile up in CPython's tuple
        # free lists.
        upper, lower = (*map(_FLIPPED.__getitem__, colors[:k]),), colors[k:][::-1]
        yield ColoredPartition(k, l, upper, lower, blocks)


def from_boundary(
    k: int, colors: Sequence[str], position_blocks: Sequence[Sequence[int]]
) -> "ColoredPartition":
    """The diagram of the boundary word ``colors`` and ``position_blocks``,
    cut after ``k`` positions; inverts ``boundary_colors`` and
    ``boundary_blocks``."""
    return next(cut_words(k, [colors], position_blocks))


def charge(colors: Iterable[str]) -> int:
    """The share of c(p) of points with these boundary colors: white +1, black -1."""
    return sum(1 if c == WHITE else -1 for c in colors)


class ColoredPartition:
    """An immutable colored partition in canonical form."""

    __slots__ = ("k", "l", "points", "upper_colors", "lower_colors", "blocks", "_hash")

    def __init__(
        self,
        k: int,
        l: int,
        upper_colors: Sequence[str],
        lower_colors: Sequence[str],
        blocks: Iterable[Iterable[int]],
    ):
        upper = tuple(upper_colors)
        lower = tuple(lower_colors)
        if len(upper) != k or len(lower) != l:
            raise ShapeMismatch("color strings must match the point counts")
        if any(c not in COLORS for c in upper + lower):
            raise PreconditionError("colors must be 'w' or 'b'")
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen = sorted(x for b in canon for x in b)
        if seen != list(range(1, k + l + 1)) or any(not b for b in canon):
            raise PreconditionError("blocks must be disjoint, nonempty and cover 1..k+l")
        self.k = k
        self.l = l
        self.points = k + l
        self.upper_colors = upper
        self.lower_colors = lower
        self.blocks = canon
        self._hash = hash((k, l, upper, lower, canon))

    @classmethod
    def _trusted(
        cls, k: int, l: int, upper: tuple, lower: tuple, blocks: tuple
    ) -> "ColoredPartition":
        """Wrap parts that are already canonical: valid color tuples and
        blocks that are ascending tuples, listed by least point, covering
        1..k+l."""
        p = cls.__new__(cls)
        p.k, p.l, p.points = k, l, k + l
        p.upper_colors, p.lower_colors, p.blocks = upper, lower, blocks
        p._hash = hash((k, l, upper, lower, blocks))
        return p

    # -- basic protocol ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredPartition):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.k == other.k
            and self.l == other.l
            and self.upper_colors == other.upper_colors
            and self.lower_colors == other.lower_colors
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return (
            self.k + self.l,
            self.k,
            self.upper_colors,
            self.lower_colors,
            self.blocks,
        )

    def __lt__(self, other: "ColoredPartition") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return to_literal(self)

    # -- derived data ---------------------------------------------------

    def all_white(self) -> bool:
        return all(c == WHITE for c in self.upper_colors + self.lower_colors)

    def uncolored(self) -> "ColoredPartition":
        """The same diagram with every point white (T_p only sees this)."""
        return ColoredPartition(
            self.k, self.l, WHITE * self.k, WHITE * self.l, self.blocks
        )


# ---------------------------------------------------------------------------
# Constructors for the named partitions of the theory.
# ---------------------------------------------------------------------------


def empty_partition() -> ColoredPartition:
    return ColoredPartition(0, 0, "", "", ())


def vertical_pair(upper: str, lower: str) -> ColoredPartition:
    """One upper and one lower point joined; identity when colors agree."""
    return ColoredPartition(1, 1, upper, lower, ({1, 2},))


def identity(color: str = WHITE) -> ColoredPartition:
    return vertical_pair(color, color)


def identity_power(n: int, color: str = WHITE) -> ColoredPartition:
    return ColoredPartition(
        n, n, color * n, color * n, tuple({i, n + i} for i in range(1, n + 1))
    )


def lower_pair(c1: str, c2: str) -> ColoredPartition:
    return ColoredPartition(0, 2, "", c1 + c2, ({1, 2},))


def singleton(color: str = WHITE, lower: bool = True) -> ColoredPartition:
    if lower:
        return ColoredPartition(0, 1, "", color, ({1},))
    return ColoredPartition(1, 0, color, "", ({1},))


def one_block(k: int, l: int, upper_colors: str, lower_colors: str) -> ColoredPartition:
    """All k+l points in a single block (b_s, four-blocks, ...)."""
    return ColoredPartition(
        k, l, upper_colors, lower_colors, (range(1, k + l + 1),)
    )


def b_block(s: int) -> ColoredPartition:
    """The generator b_s: s white lower points in one block."""
    return one_block(0, s, "", WHITE * s)


def four_block_wwbb() -> ColoredPartition:
    return one_block(0, 4, "", "wwbb")


BASE_PARTITIONS = (
    identity(WHITE),
    identity(BLACK),
    lower_pair(WHITE, BLACK),
    lower_pair(BLACK, WHITE),
)


# ---------------------------------------------------------------------------
# Category operations.
# ---------------------------------------------------------------------------


def tensor(p: ColoredPartition, q: ColoredPartition) -> ColoredPartition:
    """Place p and q side by side."""
    # Joint numbering: p's uppers, q's uppers, p's lowers, q's lowers.
    blocks = []
    for b in p.blocks:
        blocks.append(tuple(x if x <= p.k else x + q.k for x in b))
    for b in q.blocks:
        blocks.append(
            tuple(x + p.k if x <= q.k else x + p.k + p.l for x in b)
        )
    return ColoredPartition(
        p.k + q.k,
        p.l + q.l,
        p.upper_colors + q.upper_colors,
        p.lower_colors + q.lower_colors,
        blocks,
    )


def merge_blocks(kept: range, glued: range, *parts) -> tuple[list[list[int]], int]:
    """Join the blocks that share a node, by union-find.  Each part is
    ``(blocks, node)``, and a block's member x is the node ``node[x]``.
    Returns the classes of the ``kept`` nodes, each ascending and listed by
    least node, and the number of classes made only of ``glued`` nodes."""
    parent = list(range(max(kept.stop, glued.stop)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blocks, node in parts:
        for b in blocks:
            root = find(node[b[0]])
            for x in b[1:]:
                other = find(node[x])
                if other != root:
                    parent[other] = root
    classes: dict[int, list[int]] = {}
    for x in kept:
        classes.setdefault(find(x), []).append(x)
    removed = sum(1 for x in glued if parent[x] == x and x not in classes)
    return list(classes.values()), removed


@lru_cache(maxsize=None)
def _stack_nodes(k: int, t: int, l: int) -> tuple:
    """``merge_blocks``' kept and glued nodes and the node maps of p (k, t)
    above q (t, l): the result's points 1..k+l are their own nodes, and the
    middle points are nodes k+l+1..k+l+t."""
    middle = range(k + l + 1, k + l + t + 1)
    p_nodes = (0, *range(1, k + 1), *middle)
    return range(1, k + l + 1), middle, p_nodes, (0, *middle, *range(k + 1, k + l + 1))


def compose(q: ColoredPartition, p: ColoredPartition) -> tuple[ColoredPartition, int]:
    """Stack p above q; return (qp, removed block count).

    Requires l_p = k_q and matching middle colors.  Middle points are glued
    pairwise; blocks that end up entirely inside the middle row are dropped
    and counted.
    """
    t = p.l
    if t != q.k:
        raise ColorMismatch(
            f"cannot compose: p has {p.l} lower points, q has {q.k} upper points"
        )
    if p.lower_colors != q.upper_colors:
        raise ColorMismatch(
            f"middle colors disagree: {''.join(p.lower_colors)} vs "
            f"{''.join(q.upper_colors)}"
        )
    kept, middle, p_nodes, q_nodes = _stack_nodes(p.k, t, q.l)
    blocks, removed = merge_blocks(kept, middle, (p.blocks, p_nodes), (q.blocks, q_nodes))
    # merge_blocks lists the classes canonically, and the colors come from
    # two valid diagrams, so nothing is left to sort or check
    result = ColoredPartition._trusted(
        p.k, q.l, p.upper_colors, q.lower_colors, tuple([tuple(b) for b in blocks])
    )
    return result, removed


def involute(p: ColoredPartition) -> ColoredPartition:
    """Reflect p at the horizontal axis: reverse the boundary word, invert
    every color and cut after ``l`` positions."""
    last = p.points - 1
    return from_boundary(
        p.l,
        [flip_color(c) for c in reversed(boundary_colors(p))],
        [[last - i for i in b] for b in boundary_blocks(p)],
    )


CORNERS = ("UL", "UR", "LL", "LR")
INVERSE_CORNER = {"UL": "LL", "LL": "UL", "UR": "LR", "LR": "UR"}


def rotate(p: ColoredPartition, corner: str) -> ColoredPartition:
    """Move the outermost point of one row to the other row at the same side.

    The moved point's color is inverted; its block membership is kept.
    """
    if corner not in CORNERS:
        raise PreconditionError(f"corner must be one of {CORNERS}")
    if corner[0] == "U" and p.k == 0:
        raise EmptyRow("upper row is empty")
    if corner[0] == "L" and p.l == 0:
        raise EmptyRow("lower row is empty")
    move = -1 if corner[0] == "U" else 1
    turn = move if corner[1] == "L" else 0
    colors = boundary_colors(p)
    return from_boundary(
        p.k + move,
        colors[-turn:] + colors[:-turn],
        [[(i + turn) % p.points for i in b] for b in boundary_blocks(p)],
    )


def is_noncrossing(p: ColoredPartition) -> bool:
    """True iff no two blocks interleave along the boundary word."""
    block_of = {}
    remaining = {}
    for idx, b in enumerate(p.blocks):
        remaining[idx] = len(b)
        for x in b:
            block_of[x] = idx
    stack: list[int] = []
    opened: set[int] = set()
    for point in boundary_points(p.k, p.l):
        b = block_of[point]
        if stack and stack[-1] == b:
            pass
        elif b in opened:
            return False
        else:
            stack.append(b)
            opened.add(b)
        remaining[b] -= 1
        if remaining[b] == 0:
            stack.pop()
    return True


def is_projective(p: ColoredPartition) -> bool:
    """True iff p = p* and p = p^2 (as partitions)."""
    if p.k != p.l or p.upper_colors != p.lower_colors:
        return False
    if involute(p) != p:
        return False
    return compose(p, p)[0] == p


def precedes(q: ColoredPartition, p: ColoredPartition) -> bool:
    """The strict subprojection order: q < p iff pq = qp = q and p != q."""
    if not (is_projective(p) and is_projective(q)):
        raise ShapeMismatch("precedes requires projective partitions")
    if (p.k, p.l) != (q.k, q.l) or p.upper_colors != q.upper_colors:
        raise ShapeMismatch("precedes requires equal sizes and colors")
    if p == q:
        return False
    qp = compose(q, p)[0]  # p above q
    pq = compose(p, q)[0]  # q above p
    return qp == q and pq == q


def color_counts(p: ColoredPartition) -> tuple[int, int, int]:
    """Return (c_white, c_black, c): the boundary-white and boundary-black
    point counts and c = c_white - c_black, which rotations keep."""
    colors = boundary_colors(p)
    c_w = colors.count(WHITE)
    return c_w, len(colors) - c_w, charge(colors)


# ---------------------------------------------------------------------------
# Canonical literal format.
# ---------------------------------------------------------------------------

_LITERAL_RE = re.compile(
    r"P\((\d+),(\d+);([wb]*);([wb]*);\{(.*)\}\)\Z", re.DOTALL
)
_BLOCK_RE = re.compile(r"\{(\d+(?:,\d+)*)\}\Z")


def to_literal(p: ColoredPartition) -> str:
    body = ",".join("{" + ",".join(map(str, b)) + "}" for b in p.blocks)
    return (
        f"P({p.k},{p.l};{''.join(p.upper_colors)};"
        f"{''.join(p.lower_colors)};{{{body}}})"
    )


def _split_blocks(body: str) -> Iterator[str]:
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            yield body[start:i]
            start = i + 1
    yield body[start:]


def parse_partition(text: str) -> ColoredPartition:
    """Parse the canonical literal; rejects non-canonical block order."""
    m = _LITERAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a partition literal: {text!r}")
    k, l = int(m.group(1)), int(m.group(2))
    upper, lower, body = m.group(3), m.group(4), m.group(5)
    blocks = []
    if body:
        for chunk in _split_blocks(body):
            bm = _BLOCK_RE.match(chunk)
            if not bm:
                raise ParseError(f"bad block {chunk!r} in {text!r}")
            blocks.append(tuple(int(x) for x in bm.group(1).split(",")))
    try:
        p = ColoredPartition(k, l, upper, lower, blocks)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if p.blocks != tuple(blocks):
        raise ParseError(f"blocks not in canonical order in {text!r}")
    return p
