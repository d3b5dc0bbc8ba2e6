"""Exact matrix realizations T_p of partitions on (C^n)^{tensor k}.

All arithmetic is exact, on integers and rationals (``fractions.Fraction``);
there is no floating point anywhere in this module.  ``Fraction`` is
imported only where a rational is made (the projections, and
``_integerize`` of a vector with a non-integer entry), so a job that
builds T_p and ranks intertwiners never loads ``fractions`` or the
``decimal`` it imports.  A multi-index (x_1, ..., x_k)
with entries in 1..n maps to the flat index sum (x_t - 1) * n^(k-t), so
the first tensor factor is the most significant digit and the Kronecker
product of matrices matches the tensor product of partitions.

T_p is built from per-block place weights: a block's row (column) weight
sums the place values of its lower (upper) points, and every labelling of
the blocks by 0..n-1 puts a 1 at the weighted sums.  T_p is 1 exactly
at the multi-indices whose kernel (the points grouped by equal labels)
coarsens p, so it is the sum of the S_n-orbit maps of its coarsenings
into at most n blocks.  Each T_p is built once per (p, n) and kept in a
bounded memo, read-only, since every ExactMatrix operation returns a new
matrix.  Intertwiner ranks are ranks of these 0/1 rows over the
coarsenings, whose columns are numbered finest first; no T_p is built for
them.  P_p is T_p / n^b(p,p)
minus the orthogonal projection onto the ranges of the smaller
projectives, which exact Gram-Schmidt builds as E D^{-1} E^t.

The colors of a partition never enter T_p; only the block structure does.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import (
    IndexOutOfRange,
    MissingSubprojectives,
    NotProjective,
    ParseError,
    PreconditionError,
    ShapeMismatch,
    SizeOverflow,
)
from .partitions import (
    ColoredPartition,
    compose,
    involute,
    is_projective,
    precedes,
    tensor,
)
from .records import Record

DEFAULT_ENTRY_CAP = 10**7
ENTRY_CAP_ENV = "EASYQG_MAX_TMAP_ENTRIES"


def _entry_cap() -> int:
    raw = os.environ.get(ENTRY_CAP_ENV)
    if not raw:
        return DEFAULT_ENTRY_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParseError(f"{ENTRY_CAP_ENV} must be a positive integer, not {raw!r}")
    return cap


class ExactMatrix:
    """A sparse matrix over Q; zero entries are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for key, val in entries.items():
                if val:
                    r, c = key
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise IndexOutOfRange(f"entry {key} outside {rows}x{cols}")
                    self.entries[key] = val

    # -- constructors ----------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries) -> "ExactMatrix":
        """Wrap entries that are already nonzero and inside rows x cols."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    # -- protocol --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        # no zero is stored, and a read-only memo entry compares as its dict
        return (self.rows, self.cols) == (other.rows, other.cols) and (
            self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix addition needs equal shapes")
        out = dict(self.entries)
        for key, val in other.entries.items():
            new = out.get(key, 0) + val
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return ExactMatrix._trusted(self.rows, self.cols, out)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def scale(self, factor) -> "ExactMatrix":
        if not factor:
            return ExactMatrix._trusted(self.rows, self.cols, {})
        return ExactMatrix._trusted(
            self.rows, self.cols, {k: v * factor for k, v in self.entries.items()}
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        by_row: dict[int, list[tuple[int, object]]] = {}
        for (r, c), val in other.entries.items():
            by_row.setdefault(r, []).append((c, val))
        out: dict[tuple[int, int], object] = {}
        for (r, c), val in self.entries.items():
            for c2, val2 in by_row.get(c, ()):
                key = (r, c2)
                out[key] = out.get(key, 0) + val * val2
        if not all(out.values()):
            out = {key: val for key, val in out.items() if val}
        return ExactMatrix._trusted(self.rows, other.cols, out)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        out = {}
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2), v2 in other.entries.items():
                out[(r1 * other.rows + r2, c1 * other.cols + c2)] = v1 * v2
        return ExactMatrix._trusted(self.rows * other.rows, self.cols * other.cols, out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._trusted(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def columns(self) -> list[dict[int, object]]:
        cols: list[dict[int, object]] = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def flatten(self) -> dict[int, object]:
        return {r * self.cols + c: v for (r, c), v in self.entries.items()}


# ---------------------------------------------------------------------------
# delta_p and T_p.
# ---------------------------------------------------------------------------


def delta_p(
    p: ColoredPartition,
    i: Sequence[int],
    j: Sequence[int],
    n: int,
) -> int:
    """1 iff every block of p carries a constant index label."""
    if len(i) != p.k or len(j) != p.l:
        raise ShapeMismatch("multi-index lengths must match the partition")
    for x in tuple(i) + tuple(j):
        if not 1 <= x <= n:
            raise IndexOutOfRange(f"index {x} outside 1..{n}")

    def label(point: int) -> int:
        return i[point - 1] if point <= p.k else j[point - p.k - 1]

    for b in p.blocks:
        first = label(b[0])
        for x in b[1:]:
            if label(x) != first:
                return 0
    return 1


def _check_size(k: int, l: int, n: int) -> None:
    if n < 1:
        raise PreconditionError("n must be positive")
    cap = _entry_cap()
    if n ** max(k, l) > cap:
        raise SizeOverflow(f"n^max(k,l) = {n}^{max(k, l)} exceeds the cap {cap}")


def t_map(p: ColoredPartition, n: int) -> ExactMatrix:
    """The 0/1 matrix of T_p at size n, shape n^l by n^k.

    The size is checked against the entry cap on every call, before the
    memo is read, because the cap comes from the environment.  The memo
    is keyed by the block structure, all that T_p reads, so colourings
    share an entry and no partition is kept alive.  The matrix returned is
    shared between callers, so its entries are read-only.
    """
    _check_size(p.k, p.l, n)
    return _build_t_map(p.k, p.l, p.blocks, n)


@lru_cache(maxsize=4096)
def _build_t_map(k: int, l: int, blocks: tuple, n: int) -> ExactMatrix:
    """Upper point x has place value n^(k-x) in the column index and lower
    point x has n^(k+l-x) in the row index; block b's weights row_b and
    col_b sum its points' place values.  Each labelling v of the blocks by
    0..n-1, extended one block at a time, puts a 1 at
    (sum_b v_b row_b, sum_b v_b col_b).
    """
    top = k + l
    cells = [(0, 0)]
    for b in blocks:
        row_w = sum(n ** (top - x) for x in b if x > k)
        col_w = sum(n ** (k - x) for x in b if x <= k)
        cells = [(r + v * row_w, c + v * col_w) for r, c in cells for v in range(n)]
    entries = MappingProxyType(dict.fromkeys(cells, 1))
    return ExactMatrix._trusted(n**l, n**k, entries)


def check_functoriality(p: ColoredPartition, q: ColoredPartition, n: int) -> bool:
    """Verify the three compatibility laws of p -> T_p, exactly.

    Tensor and involution are always checked; the composition law is
    checked when the shapes match (a color mismatch then propagates).
    """
    tp, tq = t_map(p, n), t_map(q, n)
    if t_map(tensor(p, q), n) != tp.kron(tq):
        return False
    if t_map(involute(p), n) != tp.transpose():
        return False
    if t_map(involute(q), n) != tq.transpose():
        return False
    if p.l == q.k:
        qp, removed = compose(q, p)
        if (tq @ tp) != t_map(qp, n).scale(n**removed):
            return False
    return True


# ---------------------------------------------------------------------------
# Exact rank over Q (fraction-free row reduction on integer rows).
# ---------------------------------------------------------------------------


class IntRowReducer:
    """Incremental fraction-free row echelon over Z (rank over Q)."""

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, int]] = {}

    @staticmethod
    def _normalize(row: dict[int, int]) -> dict[int, int]:
        g = 0
        for v in row.values():
            g = math.gcd(g, v)
        lead = row[min(row)]
        if lead < 0:
            g = -g
        return {c: v // g for c, v in row.items()}

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        vec = {c: v for c, v in vec.items() if v}
        while vec:
            col = min(vec)
            piv = self.pivot_rows.get(col)
            if piv is None:
                return vec
            a, b = piv[col], vec[col]
            new = {}
            for c, v in vec.items():
                new[c] = a * v
            for c, v in piv.items():
                w = new.get(c, 0) - b * v
                if w:
                    new[c] = w
                else:
                    new.pop(c, None)
            vec = new
        return vec

    def add(self, vec: dict[int, int]) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        vec = self.reduce(vec)
        if not vec:
            return False
        vec = self._normalize(vec)
        self.pivot_rows[min(vec)] = vec
        return True

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


def _integerize(vec: dict[int, object]) -> dict[int, int]:
    """The vector scaled to integers by the lcm of its denominators; an
    all-integer vector is returned as it is."""
    if all(isinstance(v, int) for v in vec.values()):
        return vec
    from fractions import Fraction

    denoms = [Fraction(v).denominator for v in vec.values()]
    scale = math.lcm(*denoms) if denoms else 1
    return {c: int(Fraction(v) * scale) for c, v in vec.items()}


def rank_of_vectors(vectors: Iterable[dict[int, object]]) -> int:
    red = IntRowReducer()
    for vec in vectors:
        red.add(_integerize(vec))
    return red.rank


def matrix_rank(m: ExactMatrix) -> int:
    by_row: dict[int, dict[int, object]] = {}
    for (r, c), v in m.entries.items():
        by_row.setdefault(r, {})[c] = v
    return rank_of_vectors(by_row.values())


def _coarsenings(p: ColoredPartition, n: int):
    """Each coarsening of p into at most n blocks, as its point labelling.

    The blocks of p, in least-point order, take restricted-growth labels
    below n, so the point labelling is restricted-growth too: canonical.
    """
    owner = {x: i for i, b in enumerate(p.blocks) for x in b}

    def extend(labels: tuple[int, ...], top: int):
        if len(labels) == len(p.blocks):
            yield tuple(labels[owner[x]] for x in range(1, p.points + 1))
        else:
            for lab in range(min(top + 2, n)):
                yield from extend(labels + (lab,), max(top, lab))

    return extend((), -1)


def intertwiner_dim(
    sample, k: int, l: int, n: int
) -> tuple[int, list[ColoredPartition]]:
    """Rank of {T_p : p all-white in C(k,l)} plus a greedy independent basis.

    The partitions are visited in canonical order, so the basis is the
    lexicographically earliest maximal independent subset.  T_p(i) = 1
    exactly when ker(i), the points grouped by equal labels of i, is a
    coarsening sigma of p; the S_n-orbit of i is the class of ker(i), so
    T_p is the sum of the 0/1 orbit maps of those sigma.  These are
    disjoint, and nonzero exactly when |sigma| <= n, so T_p has the linear
    dependencies of its 0/1 row over the coarsenings of p into at most n
    blocks, the row that is eliminated.  The entry cap bounds n^max(k,l),
    as in t_map, not the m members or their coarsenings.

    Columns are numbered finest first: a coarsening v with max(v) + 1
    blocks is column (k+l-1-max(v)) n^(k+l) + code(v), where code(v) reads
    v as base-n digits.  The own labelling of a member with at most n
    blocks is then the smallest column of its row, so when every member
    has at most n blocks each row pivots there without fill-in.  The order of the columns cannot change
    a linear dependency, so neither the rank nor the basis depends on it.
    """
    if k < 0 or l < 0:
        raise PreconditionError(f"shape ({k},{l}) needs k, l >= 0")
    if k + l > sample.max_points:
        raise ShapeMismatch(
            f"shape ({k},{l}) exceeds the sample bound {sample.max_points}"
        )
    members = sorted(sample.iter_members(k=k, l=l, all_white=True))
    if not members:
        return 0, []
    _check_size(k, l, n)
    size = n ** (k + l)

    def column(v: tuple[int, ...]) -> int:
        code = 0
        for x in v:
            code = code * n + x
        return (k + l - 1 - max(v, default=-1)) * size + code

    red = IntRowReducer()
    basis = [
        p for p in members if red.add(dict.fromkeys(map(column, _coarsenings(p, n)), 1))
    ]
    return red.rank, basis


# ---------------------------------------------------------------------------
# Projections P_p = normalized T_p minus the span of smaller projectives.
# ---------------------------------------------------------------------------


class ProjectionReport(Record):
    """P_p for the projective partition ``p``: ``P_matrix`` is P_p, and
    ``R_matrix`` the projection onto the span of the smaller projectives
    listed in ``sub_projectives_used`` (a fresh ``[]`` by default)."""

    __slots__ = _fields = ("p", "P_matrix", "R_matrix", "sub_projectives_used")
    _defaults = {"sub_projectives_used": []}

    def verify(self) -> bool:
        P, R = self.P_matrix, self.R_matrix
        return (
            (P @ P) == P
            and P.transpose() == P
            and (P @ R).is_zero()
            and (R @ R) == R
        )


def range_projection(columns: list[dict[int, object]], dim: int) -> ExactMatrix:
    """Orthogonal projection onto the span of the given column vectors.

    Exact Gram-Schmidt: each column minus its components along the earlier
    orthogonal vectors is zero (the column is dependent) or the next
    vector e, kept as a primitive integer vector so that all of the
    elimination runs on integers.  The projection is E D^{-1} E^t with
    D = diag(<e, e>).
    """
    from fractions import Fraction

    basis: list[tuple[dict[int, int], int]] = []
    for col in columns:
        vec = {r: v for r, v in _integerize(col).items() if v}
        for e, norm in basis:
            dot = sum(v * e[r] for r, v in vec.items() if r in e)
            if dot:
                vec = {
                    r: norm * vec.get(r, 0) - dot * e.get(r, 0)
                    for r in vec.keys() | e.keys()
                }
                g = math.gcd(*vec.values())
                vec = {r: v // g for r, v in vec.items() if v}
        if vec:
            basis.append((vec, sum(v * v for v in vec.values())))
    e_matrix = ExactMatrix(dim, len(basis), {
        (r, i): v for i, (e, _) in enumerate(basis) for r, v in e.items()
    })
    d_inv = ExactMatrix(len(basis), len(basis), {
        (i, i): Fraction(1, norm) for i, (_, norm) in enumerate(basis)
    })
    return e_matrix @ d_inv @ e_matrix.transpose()


def sub_projectives(p: ColoredPartition, sample) -> list[ColoredPartition]:
    """All projective q strictly below p in the sample, canonical order."""
    out = []
    for q in sorted(sample.iter_members(k=p.k, l=p.l)):
        if q.upper_colors != p.upper_colors or q.lower_colors != p.lower_colors:
            continue
        if q == p or not is_projective(q):
            continue
        if precedes(q, p):
            out.append(q)
    return out


def projective_projection(
    p: ColoredPartition, sample, n: int
) -> ProjectionReport:
    """P_p = T_p / n^{b(p,p)} minus the projection onto smaller ranges."""
    from fractions import Fraction

    if not is_projective(p):
        raise NotProjective(f"{p!r} is not projective")
    if not sample.saturated:
        raise MissingSubprojectives(
            "sample is not saturated; sub-projectives may be missing"
        )
    if p not in sample:
        raise MissingSubprojectives(f"{p!r} is not in the sample")
    subs = sub_projectives(p, sample)
    loops = compose(p, p)[1]
    dim = n**p.k
    normalized = t_map(p, n).scale(Fraction(1, n**loops))
    columns: list[dict[int, object]] = []
    for q in subs:
        columns.extend(c for c in t_map(q, n).columns() if c)
    r_matrix = range_projection(columns, dim)
    return ProjectionReport(p, normalized - r_matrix, r_matrix, subs)


def cp1_witness_check(
    p: ColoredPartition,
    q: ColoredPartition,
    r: ColoredPartition,
    n: int,
    sample,
) -> bool:
    """Exact evaluation of (P_p tensor P_q) T_r != 0.

    The sample supplies the sub-projectives entering P_p and P_q.
    """
    if r.k != 0 or r.l != p.k + q.k:
        raise ShapeMismatch(
            "witness r must live in C(0, size(p) + size(q))"
        )
    pp = projective_projection(p, sample, n).P_matrix
    pq = projective_projection(q, sample, n).P_matrix
    return not (pp.kron(pq) @ t_map(r, n)).is_zero()
