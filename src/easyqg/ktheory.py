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
the next basis, sorted by the ring's order (``in_order``); each boundary is
the trailing run of its basis whose ``degree`` is the level's power, found
by bisection, and phi = psi minus the inclusion.  An O(nnz) certificate
that [phi | e_complement] is unitriangular settles kernels, cokernels and
the connecting map: it compares labels by the ring's ``sort_key``, so it
needs no knowledge of the family and no table over the labels.  A
step it does not cover falls back to invariant factors of phi and psi,
which give kernels and the cokernel but leave the connecting map
unverified.  The full (U, D, V) Smith normal form uses the
classical algorithm with deterministic pivoting.  Invariant factors, which
only the uncertified steps need, come from a sparse elimination on unit
pivots that hands what remains to it (the same factors, cross checked in
the tests).
"""

from __future__ import annotations

from bisect import bisect_left
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
# Smith normal form (classical, with transforms).
# ---------------------------------------------------------------------------


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, D, V) with U m V = D diagonal, d_1 | d_2 | ...

    Pivot choice is deterministic: smallest absolute nonzero entry of the
    remaining block, ties resolved in row-major order.
    """
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    u = IntMatrix.identity(rows).data
    v = IntMatrix.identity(cols).data

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            if a[t][t] < 0:
                negate_row(t)
            restart = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
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
    ``boundary_basis`` is its labels of degree ``power``.  ``psi`` maps each
    basis label x to x beta, empty on the top level.  ``psi`` is not
    compared: equal modules may differ in it."""

    _fields = ("level", "power", "basis", "boundary_basis")
    __slots__ = (*_fields, "psi")
    _defaults = {"psi": {}}


def _support(psi: dict) -> set:
    """The labels of the psi columns: supp u^(a+k_0) when x runs over supp u^a."""
    return {y for col in psi.values() for y in col}


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
    trailing run of the basis, found by bisecting on ``degree``.
    """
    if k_0 < 1:
        raise PreconditionError("k_0 must be >= 1")
    if levels < 0:
        raise PreconditionError("levels must be >= 0")
    # the levels hold labels packed by the ring (bytes words), and every
    # product keeps its operands' type, so packing beta and u^N packs them all
    beta = {ring.pack(y): m for y, m in ring.vector_power(fundamental, k_0).items()}
    for start in range(DEFAULT_LEVEL_CAP + 1):
        basis = tuple(ring.in_order(map(ring.pack, ring.vector_power(fundamental, start))))
        psi = ring.times_each(basis, beta)
        if _support(psi).issuperset(basis):
            break
    else:
        raise NotReachable(
            f"u^N is not contained in u^(N+{k_0}) for any N <= {DEFAULT_LEVEL_CAP}"
        )

    def level(ell: int, basis: tuple, psi: dict) -> LevelModule:
        power = start + ell * k_0
        if basis:
            ring.degree(basis[-1], power)  # NotReachable past the power
        cut = bisect_left(basis, power, key=lambda y: ring.degree(y, power))
        return LevelModule(ell, power, basis, basis[cut:], psi)

    out = []
    for ell in range(levels):
        out.append(level(ell, basis, psi))
        basis = tuple(ring.in_order(_support(psi)))
        # psi(x) = x beta, computed afresh at each level, so the diagram
        # check compares products made separately
        psi = ring.times_each(basis, beta) if ell + 1 < levels else {}
    out.append(level(levels, basis, {}))
    return out


def _unitriangular(psi: dict, key) -> bool:
    """Certificate that [phi | e_complement] is unitriangular, in O(nnz).

    The pivot of column x is the largest label of psi(x) in the ring's
    order, its ``sort_key`` (``key``).  The certificate holds when every
    pivot lies above x, has coefficient 1 and is no other column's pivot.
    phi(x) = psi(x) - x then has the same pivot and coefficient, and
    sorting the columns by pivot makes phi, psi and [phi | e_complement]
    triangular with unit diagonal, so ker phi = ker psi = 0, coker phi is
    free on the labels that are no pivot, and psi induces the identity on
    the persisting classes.
    """
    pivots = set()
    for x, col in psi.items():
        pivot = max(col, key=key)
        if key(pivot) <= key(x) or col[pivot] != 1 or pivot in pivots:
            return False
        pivots.add(pivot)
    return True


def _snf_step(src: LevelModule, dst: LevelModule) -> "StepReport":
    """An uncertified step: kernels and cokernel from invariant factors.

    Without the certificate no complement is known, so the connecting map
    is left unverified.
    """
    pos = {label: i for i, label in enumerate(dst.basis)}
    psi_entries = {
        (pos[y], j): mult
        for j, x in enumerate(src.basis)
        for y, mult in src.psi[x].items()
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

    K_1 is the (stable) kernel rank of the phi maps; K_0 stabilizes when
    two consecutive cokernels agree and the connecting maps act as the
    identity on the persisting classes, which the certificate verifies
    rather than assumes.
    """
    if levels < 1:
        raise PreconditionError("need at least one level step")
    mods = build_levels(ring, fundamental, k_0, levels)
    steps: list[StepReport] = []
    for src, dst in zip(mods, mods[1:]):
        if _unitriangular(src.psi, ring.sort_key):
            free = len(dst.basis) - len(src.basis)
            steps.append(StepReport(
                src.level, dst.level, 0, 0, FGAbelianGroup(free), free, True, True
            ))
        else:
            steps.append(_snf_step(src, dst))

    ranks = [s.ker_rank_phi for s in steps]
    k1 = ranks[-1] if len(set(ranks[-2:])) == 1 else None

    stabilized = False
    k0 = None
    if len(steps) >= 2:
        last, prev = steps[-1], steps[-2]
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

