"""Exact integer linear algebra and the inductive-limit K-theory engine.

The engine works over one fusion ring: with step element beta = u^(k_0) it
builds the free modules R_ell on the supports of u^(N + ell * k_0), from the
least N >= 0 with supp u^N inside supp u^(N + k_0) on (where the levels
nest), and the maps

    phi(a) = a (beta - 1)        psi(a) = a beta

then reads K_1 off kernel ranks and K_0 off cokernels with the connecting
maps induced by psi.  It runs in one pass on labels packed by the ring
(``pack``: bytes for words): each level multiplies its basis by beta once,
and as multiplicities are positive the supports of these psi columns form
the next basis, their terms sorted by the ring's order (``in_order``) with
repeats dropped; each boundary is the trailing run of its basis whose
``degree`` is the level's power, found by bisection, and phi = psi minus
the inclusion.  An O(nnz) certificate that [phi | e_complement] is
unitriangular, run on each level's columns in the same pass, settles
kernels, cokernels and the connecting map: it compares labels by the
ring's ``sort_key``, so it needs no knowledge of the family and no table
over the labels.  The last step, the largest, makes its columns in chunks
and keeps only those the diagram check reads.  A step the certificate
does not cover falls back to invariant factors of phi and psi (the last
step makes its columns again), which give kernels and the cokernel but
leave the connecting map unverified.  The full (U, D, V) Smith normal
form pivots on the least entry of the remaining block at every pass.
Invariant factors, which only the uncertified steps need, come from a
sparse elimination on unit pivots that hands what remains to it (the
same factors, cross checked in the tests).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from operator import index
from typing import Sequence

from .errors import NotReachable, PreconditionError, ShapeMismatch, WrongFamily
from .fusion import DEFAULT_LEVEL_CAP, FusionRing, HWordRing, _add_scaled
from .records import FrozenRecord, Record


# ---------------------------------------------------------------------------
# Dense integer matrices.
# ---------------------------------------------------------------------------


class IntMatrix:
    """A dense matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], rows: int | None = None,
                 cols: int | None = None):
        try:
            self.data = [list(map(index, row)) for row in data]
        except TypeError as exc:
            raise PreconditionError(f"matrix entries must be integers: {exc}") from None
        self.rows = len(self.data) if rows is None else rows
        self.cols = (len(self.data[0]) if self.data else 0) if cols is None else cols
        if self.rows and any(len(row) != self.cols for row in self.data):
            raise PreconditionError("ragged rows")
        if rows is not None and len(self.data) != rows:
            raise PreconditionError("row count mismatch")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[dict[int, int]]) -> "IntMatrix":
        data = [[0] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, v in col.items():
                data[i][j] = v
        return cls(data, rows, len(columns))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch("dimension mismatch in multiplication")
        out = IntMatrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            target = out.data[i]
            for k, v in enumerate(row):
                if v:
                    orow = other.data[k]
                    for j in range(other.cols):
                        if orow[j]:
                            target[j] += v * orow[j]
        return out

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]


def bareiss_determinant(m: IntMatrix) -> int:
    """Fraction-free determinant of a square integer matrix."""
    if m.rows != m.cols:
        raise ShapeMismatch("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [row[:] for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form (one pivot loop, with transforms).
# ---------------------------------------------------------------------------


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, D, V) with U m V = D diagonal, d_1 | d_2 | ...

    One loop per diagonal position t.  Each pass swaps the smallest absolute
    nonzero entry of the remaining block (the first in row-major order, by
    one scan that stops after a row holding a unit) to (t, t) and reduces
    column t and row t by it.  A nonzero remainder, or an entry
    of the block that the pivot does not divide (its row is added to row t),
    starts another pass; else the pivot is made positive.  Picking the least
    entry anew at each pass keeps the entries of dense blocks small.
    """
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    u = IntMatrix.identity(rows).data
    v = IntMatrix.identity(cols).data
    t = 0
    while True:
        least = 0
        for r in range(t, rows):
            row = a[r]
            for c in range(t, cols):
                x = row[c]
                if x and (not least or abs(x) < least):
                    least, i, j = abs(x), r, c
            if least == 1:
                break
        if not least:
            break
        a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
        for row in (*a, *v):
            row[t], row[j] = row[j], row[t]
        p = a[t][t]
        for i in range(t + 1, rows):
            if q := a[i][t] // p:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        for j in range(t + 1, cols):
            if q := a[t][j] // p:
                for row in (*a, *v):
                    row[j] -= q * row[t]
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
            continue
        for i in range(t + 1, rows):
            if any(x % p for x in a[i][t + 1:]):
                a[t] = [x + y for x, y in zip(a[t], a[i])]
                u[t] = [x + y for x, y in zip(u[t], u[i])]
                break
        else:
            if p < 0:
                a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
            t += 1
    return IntMatrix(u), IntMatrix(a, rows, cols), IntMatrix(v)


# ---------------------------------------------------------------------------
# Sparse invariant factors (unit pivots first, dense remainder).
# ---------------------------------------------------------------------------


def invariant_factors(entries: dict[tuple[int, int], int]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of a sparse integer matrix.

    Pivots on units (+-1) first: one alone in its row or column when there
    is one, else the unit of least fill-in (len(row) - 1) * (len(col) - 1)
    (Markowitz's rule).  A stack holds the lines that may hold a lone unit:
    each line with one entry at the start, and each line that has one entry
    after an elimination touched it.  What remains goes to
    ``smith_normal_form``.  Invariant factors do not depend on the pivot
    order, so the order only sets the cost.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for (r, c), val in entries.items():
        if val:
            rows.setdefault(r, {})[c] = val
            cols.setdefault(c, {})[r] = val
    stack = [(lines, key) for lines in (rows, cols)
             for key, line in lines.items() if len(line) == 1]
    units = 0
    while True:
        pivot = None
        while stack and pivot is None:
            lines, key = stack.pop()
            line = lines.get(key)
            if line is not None and len(line) == 1:
                (other, val), = line.items()
                if val in (1, -1):
                    pivot = (key, other) if lines is rows else (other, key)
        if pivot is None:
            least = None
            for r, row in rows.items():
                for c, val in row.items():
                    if val in (1, -1):
                        fill = (len(row) - 1) * (len(cols[c]) - 1)
                        if least is None or fill < least:
                            least, pivot = fill, (r, c)
            if pivot is None:
                break
        r, c = pivot
        pivot_row = rows.pop(r)
        sign = pivot_row.pop(c)
        pivot_col = cols.pop(c)
        del pivot_col[r]
        for cc in pivot_row:
            del cols[cc][r]
        for r2, w in pivot_col.items():
            row = rows[r2]
            del row[c]
            factor = w * sign
            for cc, v in pivot_row.items():
                col = cols[cc]
                new = row.get(cc, 0) - factor * v
                if new:
                    row[cc] = col[r2] = new
                else:
                    del row[cc], col[r2]
            if not row:
                del rows[r2]
            elif len(row) == 1:
                stack.append((rows, r2))
        for cc in pivot_row:
            if not cols[cc]:
                del cols[cc]
            elif len(cols[cc]) == 1:
                stack.append((cols, cc))
        units += 1
    if not rows:
        return [1] * units
    row_pos = {r: i for i, r in enumerate(sorted(rows))}
    _, d, _ = smith_normal_form(IntMatrix.from_columns(
        len(row_pos), [{row_pos[r]: v for r, v in cols[c].items()} for c in sorted(cols)]
    ))
    return [1] * units + [x for x in d.diagonal() if x]


class FGAbelianGroup(FrozenRecord):
    """Z^free_rank plus cyclic factors in a divisibility chain (a tuple)."""

    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Sequence[int] = ()):
        torsion = tuple(torsion)
        if free_rank < 0:
            raise PreconditionError("free rank must be >= 0")
        if any(d <= 1 for d in torsion):
            raise PreconditionError("torsion factors must exceed 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise PreconditionError("torsion factors must form a divisibility chain")
        super().__init__(free_rank, torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"

    def to_dict(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.torsion)}


# ---------------------------------------------------------------------------
# Level modules and the inductive system.
# ---------------------------------------------------------------------------


class LevelModule(FrozenRecord):
    """R_ell on ``basis``, the support of u^power in the ring's order, whose
    ``boundary_basis`` is its labels of degree ``power``.  ``psi`` maps
    basis labels x to x beta: all of them below the last two levels, on the
    last level but one only the labels of the level below (the columns
    ``check_diagram_commutes`` reads), and none on the top level.
    ``certified`` says whether ``_unitriangular`` certifies the step from
    this level (``None`` on the top level).  Neither is compared: equal
    modules may differ in them."""

    _fields = ("level", "power", "basis", "boundary_basis")
    __slots__ = (*_fields, "psi", "certified")
    _defaults = {"psi": {}, "certified": None}


# labels of the last level but one per ``times_each`` call in the last step
_CHUNK = 512


def _support(ring: FusionRing, terms: list) -> tuple:
    """The labels among ``terms``, in the ring's order and each once:
    supp u^(a+k_0) when the terms are those of psi(x) over x in supp u^a.
    Sorting keeps the repeats next to each other, so no set is built."""
    return tuple(y for y, _ in groupby(ring.in_order(terms)))


def _packed_power(ring: FusionRing, fundamental: dict, k_0: int) -> dict:
    """beta = u^(k_0) on labels packed by the ring (bytes words).  Every
    product keeps its operands' type, so packing beta and u^N packs the
    levels."""
    return {ring.pack(y): m for y, m in ring.vector_power(fundamental, k_0).items()}


def _step(ring: FusionRing, basis: tuple, beta: dict, keep: set | None = None) -> tuple:
    """One pass over the columns psi(x) = x beta of a level.

    Returns the columns, the next basis (their support) and whether
    ``_unitriangular`` certifies the step.  With ``keep``, a set of labels,
    the columns are made ``_CHUNK`` labels at a time, each chunk read once
    for the support and the certificate, and only those of ``keep`` are
    returned.  Otherwise one ``times_each`` call makes them all, so equal
    terms of different columns are one object.
    """
    size = (len(basis) or 1) if keep is None else _CHUNK
    psi, terms, pivots, certified = {}, [], set(), True
    for i in range(0, len(basis), size):
        chunk = ring.times_each(basis[i:i + size], beta)
        # times_each hands out one object per distinct term of a chunk
        terms.extend(dict.fromkeys(y for col in chunk.values() for y in col))
        certified = certified and _unitriangular(chunk, ring.sort_key, pivots)
        if keep is None:
            psi = chunk  # the only chunk
        else:
            psi.update((x, col) for x, col in chunk.items() if x in keep)
        del chunk  # before the next one is made
    del pivots  # before the terms are sorted
    return psi, _support(ring, terms), certified


def build_levels(
    ring: FusionRing, fundamental: dict, k_0: int, levels: int
) -> list[LevelModule]:
    """R_N, R_(N+k_0), ..., R_(N+levels*k_0) with bases in ``ring.in_order``.

    Multiplicities are positive, so supp u^(a+k_0) is the union of the
    supports of psi(x) over x in supp u^a.  N is the least power inside that
    union (the levels nest from there), and each later basis is the union.
    A boundary is the labels of degree exactly the level's power: no label
    of supp u^power has a larger degree (``degree`` of the last label checks
    it), and the order sorts by degree first, so the boundary is the
    trailing run of the basis, found by bisecting on ``degree``.  Each
    level's columns are made in one ``_step``, which also certifies the
    step; the last step, whose columns outnumber all others, streams them
    in chunks and keeps only the ones ``check_diagram_commutes`` reads.
    """
    if k_0 < 1:
        raise PreconditionError("k_0 must be >= 1")
    if levels < 0:
        raise PreconditionError("levels must be >= 0")
    beta = _packed_power(ring, fundamental, k_0)
    for start in range(DEFAULT_LEVEL_CAP + 1):
        basis = tuple(ring.in_order(map(ring.pack, ring.vector_power(fundamental, start))))
        psi, support, certified = _step(ring, basis, beta)
        if set(basis).issubset(support):
            break
    else:
        raise NotReachable(
            f"u^N is not contained in u^(N+{k_0}) for any N <= {DEFAULT_LEVEL_CAP}"
        )

    def level(ell: int, basis: tuple, psi: dict, certified) -> LevelModule:
        power = start + ell * k_0
        if basis:
            ring.degree(basis[-1], power)  # NotReachable past the power
        cut = bisect_left(basis, power, key=lambda y: ring.degree(y, power))
        return LevelModule(ell, power, basis, basis[cut:], psi, certified)

    out = []
    for ell in range(levels):
        out.append(level(ell, basis, psi, certified))
        basis = support
        if ell + 1 < levels:
            # psi(x) = x beta, computed afresh at each level, so the diagram
            # check compares products made separately; of the last step it
            # reads only the columns of the labels of level ell
            keep = set(out[-1].basis) if ell + 2 == levels else None
            psi, support, certified = _step(ring, basis, beta, keep)
    out.append(level(levels, basis, {}, None))
    return out


def _unitriangular(psi: dict, key, pivots: set) -> bool:
    """Certificate that [phi | e_complement] is unitriangular, in O(nnz).

    The pivot of column x is the largest label of psi(x) in the ring's
    order, its ``sort_key`` (``key``).  The certificate holds when no
    column is zero and every pivot lies above x, has coefficient 1 and is
    no other column's pivot.  phi(x) = psi(x) - x then has the same pivot
    and coefficient, and sorting the columns by pivot makes phi, psi and
    [phi | e_complement] triangular with unit diagonal, so ker phi = ker
    psi = 0, coker phi is free on the labels that are no pivot, and psi
    induces the identity on the persisting classes.  ``pivots`` holds the pivots of the columns
    read before, when they come in chunks, and gains those of ``psi``.
    """
    for x, col in psi.items():
        if not col:
            return False
        pivot = max(col, key=key)
        if key(pivot) <= key(x) or col[pivot] != 1 or pivot in pivots:
            return False
        pivots.add(pivot)
    return True


def _snf_step(ring: FusionRing, beta: dict, src: LevelModule,
              dst: LevelModule) -> "StepReport":
    """An uncertified step: kernels and cokernel from invariant factors.

    Without the certificate no complement is known, so the connecting map
    is left unverified.  The last step kept only some of its columns, so
    then all of them are made again.
    """
    psi = src.psi
    if len(psi) < len(src.basis):
        psi = ring.times_each(src.basis, beta)
    pos = {label: i for i, label in enumerate(dst.basis)}
    psi_entries = {
        (pos[y], j): mult
        for j, x in enumerate(src.basis)
        for y, mult in psi[x].items()
    }
    phi_entries = dict(psi_entries)
    for j, x in enumerate(src.basis):
        key = (pos[x], j)
        value = phi_entries.get(key, 0) - 1
        if value:
            phi_entries[key] = value
        else:
            del phi_entries[key]

    factors_phi = invariant_factors(phi_entries)
    factors_psi = invariant_factors(psi_entries)
    coker = FGAbelianGroup(
        len(dst.basis) - len(factors_phi),
        tuple(d for d in factors_phi if d > 1),
    )
    return StepReport(
        src.level,
        dst.level,
        len(src.basis) - len(factors_phi),
        len(src.basis) - len(factors_psi),
        coker,
        None,
        False,
        False,
    )


def check_diagram_commutes(levels: list[LevelModule]) -> bool:
    """psi after phi equals phi after psi on every consecutive level pair.

    With phi = psi - inclusion, that says psi(x) is the same vector at
    consecutive levels; ``build_levels`` computes the columns level by
    level, so this compares products made separately.
    """
    return all(
        high.psi.get(x) == vec
        for low, high in zip(levels, levels[1:-1])
        for x, vec in low.psi.items()
    )


class StepReport(Record):
    """One step of the inductive system: the kernel ranks of phi and psi,
    coker phi, and the certificate's count of complement labels (``None``
    when the step is not certified) and its two checks (then false)."""

    __slots__ = _fields = (
        "from_level", "to_level", "ker_rank_phi", "ker_rank_psi", "coker",
        "complement_labels", "coker_rank_matches_complement", "identity_on_persisting",
    )


class InductiveLimitReport(Record):
    """The levels, steps and K-data; ``k1_rank`` and ``k0`` are ``None`` until
    they stabilize, and ``unit_class`` is 1 when K_0 is Z, else the class of
    the trivial label."""

    __slots__ = _fields = (
        "family", "k_0", "levels", "steps", "diagram_commutes", "k1_rank",
        "k0_stabilized", "k0", "unit_class",
    )

    def to_dict(self) -> dict:
        per_level = []
        for mod in self.levels:
            entry = {
                "level": mod.level,
                "power": mod.power,
                "basis_size": len(mod.basis),
                "boundary_size": len(mod.boundary_basis),
                "coker": None,
                "ker_rank": None,
            }
            per_level.append(entry)
        for step in self.steps:
            entry = per_level[step.to_level]
            entry["coker"] = step.coker.to_dict()
            entry["ker_rank"] = step.ker_rank_phi
            entry["identity_on_persisting"] = step.identity_on_persisting
            entry["coker_rank_matches_complement"] = (
                step.coker_rank_matches_complement
            )
        return {
            "family": self.family,
            "k0": self.k_0,
            "scope": "fusion-level inductive-limit data",
            "levels": per_level,
            "diagram_commutes": self.diagram_commutes,
            "K1": self.k1_rank,
            "K0_stabilized": self.k0_stabilized,
            "K0": self.k0.to_dict() if self.k0 is not None else None,
            "unit_class": self.unit_class,
        }


def k_groups(
    ring: FusionRing,
    fundamental: dict,
    k_0: int,
    levels: int,
    family: str = "",
) -> InductiveLimitReport:
    """Run the inductive system up to R_(N + levels * k_0) and collect K-data.

    K_1 is the kernel rank of the phi maps once two consecutive steps agree
    on it; K_0 stabilizes when two consecutive cokernels agree and the
    connecting maps act as the identity on the persisting classes, which
    the certificate verifies rather than assumes.  One step settles neither.
    """
    if levels < 1:
        raise PreconditionError("need at least one level step")
    mods = build_levels(ring, fundamental, k_0, levels)
    steps: list[StepReport] = []
    for src, dst in zip(mods, mods[1:]):
        if src.certified:
            free = len(dst.basis) - len(src.basis)
            steps.append(StepReport(
                src.level, dst.level, 0, 0, FGAbelianGroup(free), free, True, True
            ))
        else:
            beta = _packed_power(ring, fundamental, k_0)
            steps.append(_snf_step(ring, beta, src, dst))

    stabilized = False
    k0 = k1 = None
    if len(steps) >= 2:
        last, prev = steps[-1], steps[-2]
        if last.ker_rank_phi == prev.ker_rank_phi:
            k1 = last.ker_rank_phi
        if (
            last.coker == prev.coker
            and last.identity_on_persisting
            and prev.identity_on_persisting
        ):
            stabilized = True
            k0 = last.coker

    trivial_class = {ring.format_label(ring.trivial()): 1}
    return InductiveLimitReport(
        family=family,
        k_0=k_0,
        levels=mods,
        steps=steps,
        diagram_commutes=check_diagram_commutes(mods),
        k1_rank=k1,
        k0_stabilized=stabilized,
        k0=k0,
        unit_class=1 if stabilized and k0 == FGAbelianGroup(1) else trivial_class,
    )


def phi_structure_check(ring: FusionRing, word: tuple) -> bool:
    """Verify phi(r_x) carries the two unit leading terms x11..1 and xs.

    For s = 1 the two coincide and the check degenerates to the single
    concatenation term.
    """
    if not isinstance(ring, HWordRing):
        raise WrongFamily("phi_structure_check needs the word family")
    s = ring.s
    beta = ring.vector_power(ring.fundamental(), s)
    word = tuple(word)
    vec = dict(ring.multiply({word: 1}, beta))
    _add_scaled(vec, {word: 1}, -1)
    ones = word + (1,) * s
    if vec.get(ones) != 1:
        return False
    if s >= 2 and vec.get(word + (s,)) != 1:
        return False
    return True

