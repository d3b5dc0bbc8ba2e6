"""Integer canonical forms and the inductive-limit engine."""

from __future__ import annotations

import tracemalloc
from functools import partial
from random import Random

import pytest

from easyqg import (
    FGAbelianGroup,
    IntMatrix,
    bareiss_determinant,
    build_levels,
    check_diagram_commutes,
    get_ring,
    invariant_factors,
    k_groups,
    phi_structure_check,
    smith_normal_form,
)
from easyqg.errors import WrongFamily
from easyqg.fusion import HWordRing, SO3Ring, SU2Ring, _add_scaled
from easyqg import ktheory

import helpers


def random_matrix(rng: Random, rows: int, cols: int, bound: int = 20) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def step_matrices(ring, src, dst, beta) -> tuple[IntMatrix, IntMatrix]:
    """phi from its definition a(beta - 1), psi from the engine's columns."""
    pos = {label: i for i, label in enumerate(dst.basis)}
    beta = helpers.packed(ring, beta)
    beta_minus_one = dict(beta)
    _add_scaled(beta_minus_one, {ring.pack(ring.trivial()): 1}, -1)
    phi = [
        {pos[y]: m for y, m in ring.multiply({x: 1}, beta_minus_one).items()}
        for x in src.basis
    ]
    psi = [
        {pos[y]: m for y, m in col.items()}
        for col in ring.times_each(src.basis, beta).values()
    ]
    rows = len(dst.basis)
    return IntMatrix.from_columns(rows, phi), IntMatrix.from_columns(rows, psi)


def entries(m: IntMatrix) -> dict[tuple[int, int], int]:
    return {
        (i, j): v for i, row in enumerate(m.data) for j, v in enumerate(row) if v
    }


def coker_and_kernel_rank(m: IntMatrix) -> tuple[FGAbelianGroup, int]:
    """Cokernel and kernel rank of m, read off its invariant factors."""
    factors = invariant_factors(entries(m))
    coker = FGAbelianGroup(m.rows - len(factors), tuple(d for d in factors if d > 1))
    return coker, m.cols - len(factors)


# -- Smith normal form ----------------------------------------------------------


def test_snf_examples():
    eye = IntMatrix.identity(3)
    _, d, _ = smith_normal_form(eye)
    assert d == eye
    with pytest.raises(TypeError):  # compared by value, so unhashable
        hash(eye)
    _, d, _ = smith_normal_form(IntMatrix([[2, 0], [0, 4]]))
    assert d.diagonal() == [2, 4]
    m = IntMatrix([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    assert d.diagonal() == [2, 4]
    assert (u @ m) @ v == d
    assert abs(bareiss_determinant(m)) == abs(
        bareiss_determinant(d)
    ) == 8


def test_snf_transforms_unimodular_and_chain():
    rng = Random(21)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        u, d, v = smith_normal_form(m)
        assert abs(bareiss_determinant(u)) == 1
        assert abs(bareiss_determinant(v)) == 1
        assert (u @ m) @ v == d
        diag = [x for x in d.diagonal() if x]
        assert all(x > 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # off-diagonal must vanish
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d.data[i][j] == 0


def test_snf_invariant_under_permutations_and_det():
    rng = Random(22)
    for _ in range(15):
        m = random_matrix(rng, 6, 6, bound=20)
        perm_rows = list(range(6))
        perm_cols = list(range(6))
        rng.shuffle(perm_rows)
        rng.shuffle(perm_cols)
        permuted = IntMatrix(
            [[m.data[r][c] for c in perm_cols] for r in perm_rows]
        )
        d = smith_normal_form(m)[1]
        assert d == smith_normal_form(permuted)[1]
        det = bareiss_determinant(m)
        if det:
            prod = 1
            for x in d.diagonal():
                prod *= x
            assert prod == abs(det)


def test_sparse_factors_agree_with_dense():
    rng = Random(23)
    cases = [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=12)
             for _ in range(60)]
    # no line of one entry: a lone unit appears only after the least fill-in
    # pivot, and these pivots fill in
    cases += [
        IntMatrix([[1, 1], [1, 2]]),
        IntMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
        IntMatrix([[1, 1, 1], [1, -1, 2], [2, 1, 1], [1, 0, 3]]),
    ]
    # sparse and unit-rich up to 10 x 10, then sparse with no unit at all
    for values, count in (((1, -1, 1, -1, 2, -3), 200), ((2, -2, 3, 4, -6), 40)):
        for _ in range(count):
            rows, cols = rng.randint(1, 10), rng.randint(1, 10)
            density = rng.uniform(0.1, 0.6)
            cases.append(IntMatrix([
                [rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]))
    for m in cases:
        _, d, _ = smith_normal_form(m)
        factors = [x for x in d.diagonal() if x]
        assert invariant_factors(entries(m)) == factors
        assert invariant_factors({(j, i): v for (i, j), v in entries(m).items()}) == factors


def test_cokernel_and_kernel_examples():
    assert coker_and_kernel_rank(IntMatrix([[0]])) == (FGAbelianGroup(1), 1)
    assert coker_and_kernel_rank(IntMatrix([[3]])) == (FGAbelianGroup(0, (3,)), 0)
    # level-one map for O+: u_0 -> u_2 inside {u_0, u_2}
    su2 = get_ring("O+")
    levels = build_levels(su2, su2.fundamental(), 2, 1)
    phi, _ = step_matrices(su2, levels[0], levels[1], su2.power(2))
    assert phi.data == [[0], [1]]
    assert coker_and_kernel_rank(phi) == (FGAbelianGroup(1), 0)


def test_fg_abelian_group_validation():
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 6))  # 4 does not divide 6
    assert str(FGAbelianGroup(2, (2, 4))) == "Z^2 x Z/2 x Z/4"
    assert str(FGAbelianGroup(0)) == "0"
    assert str(FGAbelianGroup(1)) == "Z"


# -- levels and maps ---------------------------------------------------------------


def test_build_levels_examples():
    h2 = get_ring("H+", 2)
    levels = build_levels(h2, h2.fundamental(), 2, 1)
    assert levels[0].basis == (h2.pack(()),)
    assert set(levels[1].basis) == set(map(h2.pack, {(), (1, 1), (2,)}))
    assert set(levels[1].boundary_basis) == set(map(h2.pack, {(1, 1), (2,)}))
    su2 = get_ring("O+")
    levels = build_levels(su2, su2.fundamental(), 2, 1)
    assert levels[1].basis == (0, 2)


def test_levels_are_unions_of_boundaries():
    h3 = get_ring("H+", 3)
    levels = build_levels(h3, h3.fundamental(), 3, 4)
    for idx, mod in enumerate(levels):
        expected = set()
        for lower in levels[: idx + 1]:
            expected |= set(lower.boundary_basis)
        assert set(mod.basis) == expected


def test_diagram_commutes():
    h2 = get_ring("H+", 2)
    assert check_diagram_commutes(build_levels(h2, h2.fundamental(), 2, 4))
    su2 = get_ring("O+")
    assert check_diagram_commutes(build_levels(su2, su2.fundamental(), 2, 6))
    assert check_diagram_commutes(build_levels(get_ring("S+"), get_ring("S+").fundamental(), 1, 6))
    # a single level has no square to check
    assert check_diagram_commutes(build_levels(h2, h2.fundamental(), 2, 1))


def test_k_groups_reads_the_named_diagram_check(monkeypatch):
    su2 = get_ring("O+")
    assert k_groups(su2, su2.fundamental(), 2, 4).diagram_commutes
    monkeypatch.setattr(ktheory, "check_diagram_commutes", lambda levels: False)
    assert k_groups(su2, su2.fundamental(), 2, 4).diagram_commutes is False


class SecondSquareDoubled(SU2Ring):
    """The SU(2) ladder, but the second u_2 (x) u_2 it computes has 2 u_2."""

    def __init__(self):
        super().__init__()
        self.squares = 0

    def _pair(self, a: int, b: int) -> dict:
        out = super()._pair(a, b)
        if (a, b) == (2, 2):
            self.squares += 1
            if self.squares == 2:
                out[2] = 2
        return out


def test_diagram_check_compares_separate_products():
    # psi(u_2) is computed at level 1 and again at level 2; the check must see
    # the two differ, so neither may be served from the other
    ring = SecondSquareDoubled()
    assert not k_groups(ring, ring.fundamental(), 2, 3).diagram_commutes


class SecondTailProductChanged(HWordRing):
    """The word ring at s = 2, but the second r_2 (x) r_2 it computes has 2 r_()."""

    def __init__(self):
        super().__init__(2)
        self.squares = 0

    def _pair(self, a: tuple, b: tuple) -> dict:
        out = super()._pair(a, b)
        if (tuple(a), tuple(b)) == ((2,), (2,)):
            self.squares += 1
            if self.squares == 2:
                out[a[:0]] = 2
        return out


def test_word_diagram_check_compares_separate_tail_products():
    # with beta = u^2 every label keeps its last 3 letters as its tail; the
    # tail (2,) is multiplied at level 1 and again at level 2, so tail
    # products may be shared within a level but never across levels
    ring = SecondTailProductChanged()
    report = k_groups(ring, ring.fundamental(), 2, 3)
    assert ring.squares == 2
    assert not report.diagram_commutes


def test_psi_equals_phi_plus_inclusion():
    h2 = get_ring("H+", 2)
    levels = build_levels(h2, h2.fundamental(), 2, 2)
    beta = h2.power(2)
    for ell in range(2):
        src, dst = levels[ell], levels[ell + 1]
        phi, psi = step_matrices(h2, src, dst, beta)
        pos = {label: i for i, label in enumerate(dst.basis)}
        for j, label in enumerate(src.basis):
            for i in range(len(dst.basis)):
                expected = phi.data[i][j] + (1 if i == pos[label] else 0)
                assert psi.data[i][j] == expected


# -- k_groups -------------------------------------------------------------------


def test_k_groups_o_plus():
    su2 = get_ring("O+")
    report = k_groups(su2, su2.fundamental(), 2, 8, family="O+")
    assert report.k0_stabilized
    assert report.k0 == FGAbelianGroup(1)
    assert report.k1_rank == 0
    assert report.unit_class == 1
    assert report.diagram_commutes
    assert all(s.identity_on_persisting for s in report.steps)


def leading_label(ring, x, k_0: int):
    """A top term of phi(x) per family, independent of the engine's order.

    For words it is x followed by k_0 ones, which need not be the engine's
    pivot: at s = 2, phi((1,)) holds (1, 1, 1) and the larger (2, 1).
    """
    if isinstance(ring, HWordRing):
        return ring.pack(tuple(x) + (1,) * k_0)
    if isinstance(ring, SO3Ring):
        return x + 2 * k_0
    return x + k_0


def snf_step_oracle(ring, k_0, src, dst, beta) -> dict:
    """Step data from invariant factors of phi, psi and [phi | e_complement]."""
    phi, psi = step_matrices(ring, src, dst, beta)
    coker, ker_rank_phi = coker_and_kernel_rank(phi)
    _, ker_rank_psi = coker_and_kernel_rank(psi)
    leads = {leading_label(ring, x, k_0) for x in src.basis}
    complement = [y for y in dst.basis if y not in leads]
    pos = {label: i for i, label in enumerate(dst.basis)}
    square = entries(phi)
    for i, c in enumerate(complement, start=phi.cols):
        square[pos[c], i] = 1
    factors_sq = invariant_factors(square)
    unimodular = (
        len(leads) == phi.cols
        and phi.cols + len(complement) == phi.rows == len(factors_sq)
        and all(d == 1 for d in factors_sq)
    )
    matches = coker == FGAbelianGroup(len(complement))
    return {
        "ker_rank_phi": ker_rank_phi,
        "ker_rank_psi": ker_rank_psi,
        "coker": coker,
        "complement_labels": len(complement),
        "coker_rank_matches_complement": matches,
        "identity_on_persisting": unimodular and matches,
    }


@pytest.mark.parametrize(
    "family,s,k_0,levels",
    [("O+", None, 2, 8), ("S+", None, 1, 8), ("H+", 1, 1, 3), ("H+", 2, 2, 3),
     ("H+", 3, 3, 3), ("H+", 4, 4, 3)],
)
def test_engine_matches_snf_oracle(family, s, k_0, levels):
    ring = get_ring(family, s)
    report = k_groups(ring, ring.fundamental(), k_0, levels, family=family)
    beta = ring.power(k_0)
    assert len(report.steps) == levels
    for step, src, dst in zip(report.steps, report.levels, report.levels[1:]):
        oracle = snf_step_oracle(ring, k_0, src, dst, beta)
        got = {name: getattr(step, name) for name in oracle}
        assert got == oracle


@pytest.mark.parametrize(
    "family,s,k_0,levels",
    [("O+", None, 2, 8), ("S+", None, 1, 8), ("H+", 1, 1, 3), ("H+", 2, 2, 3),
     ("H+", 3, 3, 3), ("H+", 4, 4, 3)],
)
def test_levels_match_power_sweep(family, s, k_0, levels):
    ring = get_ring(family, s)
    mods = build_levels(ring, ring.fundamental(), k_0, levels)
    # a ring object with none of the cached ring's powers
    fresh = HWordRing(s) if family == "H+" else {"O+": SU2Ring, "S+": SO3Ring}[family]()
    oracle = helpers.power_sweep_levels(fresh, k_0, levels)
    assert [(m.power, m.basis, m.boundary_basis) for m in mods] == [
        (power, tuple(map(fresh.pack, basis)), tuple(map(fresh.pack, boundary)))
        for power, basis, boundary in oracle
    ]
    beta = fresh.power(k_0)
    for mod, (_, basis, _) in zip(mods[:-1], oracle):
        # per-label products on the fresh ring, not the engine's own path
        assert mod.psi == {
            fresh.pack(x): helpers.packed(fresh, fresh.multiply({x: 1}, beta)) for x in basis
        }
    assert mods[-1].psi == {}


class DoubledTopLadder(SU2Ring):
    """The SU(2) ladder with the top term of every product doubled."""

    def _pair(self, a: int, b: int) -> dict:
        out = super()._pair(a, b)
        if a and b:
            out[a + b] = 2
        return out


def test_engine_falls_back_to_snf():
    # phi(u_0) = u_0 (u_0 + 2 u_2) - u_0 = 2 u_2: lead coefficient 2
    ring = DoubledTopLadder()
    report = k_groups(ring, ring.fundamental(), 2, 2)
    beta = ring.power(2)
    assert report.steps[0].coker == FGAbelianGroup(1, (2,))
    assert not report.steps[0].identity_on_persisting
    assert not report.steps[0].coker_rank_matches_complement
    for step, src, dst in zip(report.steps, report.levels, report.levels[1:]):
        oracle = snf_step_oracle(ring, 2, src, dst, beta)
        assert step.coker == oracle["coker"]
        assert step.ker_rank_phi == oracle["ker_rank_phi"]
        assert step.ker_rank_psi == oracle["ker_rank_psi"]
    assert not report.k0_stabilized


def test_engine_falls_back_when_beta_is_the_unit():
    # beta = u_0 makes phi = 0: each column's only label is x itself
    ring = SU2Ring()
    report = k_groups(ring, {0: 1}, 1, 2)
    for step in report.steps:
        assert (step.ker_rank_phi, step.ker_rank_psi) == (1, 0)
        assert step.coker == FGAbelianGroup(1)
        assert not step.identity_on_persisting
    assert report.k1_rank == 1 and not report.k0_stabilized


class TwinStepLadder(SU2Ring):
    """u_0 is the unit and u_1 u_x = u_2j + u_(2j+1) for x in {2j - 1, 2j}.

    Only a rule the engine can run, not a fusion ring: with beta = u_0 + u_1,
    phi(u_(2j-1)) = phi(u_2j), and both columns have the top label
    u_(2j+1) with coefficient 1.  u_x first shows in u^(x // 2 + 1).
    """

    def fundamental(self) -> dict:
        return {0: 1, 1: 1}

    def _pair(self, a: int, b: int) -> dict:
        if not a or not b:
            return {a + b: 1}
        j = (a + 1) // 2
        return {2 * j: 1, 2 * j + 1: 1}

    def _grade(self, label: int) -> int | None:
        return label // 2 + 1 if label else 0


def test_engine_falls_back_on_a_repeated_pivot():
    ring = TwinStepLadder()
    report = k_groups(ring, ring.fundamental(), 1, 3)
    assert [m.basis for m in report.levels] == [
        (0,), (0, 1), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5)
    ]
    *certified, shared = report.steps
    assert [s.coker for s in certified] == [FGAbelianGroup(1), FGAbelianGroup(2)]
    assert all(s.identity_on_persisting for s in certified)
    # phi(u_1) = phi(u_2) = u_2 + u_3, while phi(u_0) = u_1, phi(u_3) = u_4 + u_5
    assert (shared.ker_rank_phi, shared.ker_rank_psi) == (1, 0)
    assert shared.coker == FGAbelianGroup(3)
    assert not shared.identity_on_persisting
    oracle = snf_step_oracle(ring, 1, report.levels[2], report.levels[3], ring.power(1))
    assert shared.coker == oracle["coker"]
    assert shared.ker_rank_phi == oracle["ker_rank_phi"]
    assert shared.ker_rank_psi == oracle["ker_rank_psi"]


def trailing_run(ring, basis: tuple, power: int) -> tuple:
    """The boundary as the labels of degree ``power`` read off the end, one by one."""
    cut = len(basis)
    while cut and ring.degree(basis[cut - 1], power) == power:
        cut -= 1
    return basis[cut:]


@pytest.mark.parametrize(
    "make_ring,k_0,levels",
    [(SU2Ring, 2, 8), (SO3Ring, 1, 8), (TwinStepLadder, 1, 5)]
    + [(partial(HWordRing, s), s, 3) for s in (1, 2, 3, 4)],
    ids=["O+", "S+", "twin-step", "H+1", "H+2", "H+3", "H+4"],
)
def test_bisected_boundary_is_the_trailing_run(make_ring, k_0, levels):
    ring = make_ring()
    for mod in build_levels(ring, ring.fundamental(), k_0, levels):
        assert mod.boundary_basis == trailing_run(ring, mod.basis, mod.power)


def test_word_levels_share_one_object_per_label():
    # times_each hands out one object per distinct word, and the next basis
    # is made of those same objects
    ring = HWordRing(3)
    mods = build_levels(ring, ring.fundamental(), 3, 5)
    for low, high in zip(mods, mods[1:]):
        terms = {id(y): y for col in low.psi.values() for y in col}
        assert len(terms) == len(ktheory._support(low.psi))
        assert all(terms.get(id(y)) is y for y in high.basis)


@pytest.mark.parametrize("s", [2, 3])
def test_word_ring_methods_take_level_labels(s):
    # the levels hold bytes words; a ring of its own answers on the tuples
    ring, plain = HWordRing(s), HWordRing(s)
    labels = {y for mod in build_levels(ring, ring.fundamental(), s, 2) for y in mod.basis}
    assert all(type(label) is bytes for label in labels)
    assert max(map(len, labels)) > 1
    for label in labels:
        word = tuple(label)
        assert ring.dim(label, 5) == plain.dim(word, 5)
        assert ring.degree(label) == plain.degree(word)
        assert ring.format_label(label) == plain.format_label(word)
        assert ring.conjugate(label) == ring.pack(plain.conjugate(word))
        assert phi_structure_check(ring, label) == phi_structure_check(plain, word)


class TupleWords(HWordRing):
    """The word ring with its levels built on tuple words."""

    def pack(self, label):
        return label


@pytest.mark.parametrize("s,levels", [(1, 3), (2, 10), (3, 6), (4, 4)])
def test_packed_and_tuple_levels_give_one_report(s, levels):
    # the levels of the ktheory-words jobs, at k_0 = s
    packed, plain = (
        k_groups(ring, ring.fundamental(), s, levels, family="H+")
        for ring in (HWordRing(s), TupleWords(s))
    )
    assert packed.to_dict() == plain.to_dict()
    assert [tuple(map(tuple, m.basis)) for m in packed.levels] == [
        m.basis for m in plain.levels
    ]


def test_word_levels_peak_memory():
    # s = 3, L = 6 peaked at 18.0 MiB traced with a new tuple per column
    # entry, at 13.5 MiB with one tuple per label, and at 8.6 MiB with one
    # bytes word per label and no label -> index table in k_groups
    ring = HWordRing(3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        k_groups(ring, ring.fundamental(), 3, 6)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "family,s,k_0,levels",
    [("O+", None, 2, 40), ("S+", None, 1, 40), ("H+", 1, 1, 3), ("H+", 2, 2, 10),
     ("H+", 3, 3, 6), ("H+", 4, 4, 4)],
)
def test_shipped_runs_are_certified(monkeypatch, family, s, k_0, levels):
    # the K-theory runs of the benchmark: no step may fall back to SNF
    def no_fallback(entries):
        raise AssertionError("a step fell back to invariant factors")

    monkeypatch.setattr(ktheory, "invariant_factors", no_fallback)
    ring = get_ring(family, s)
    report = k_groups(ring, ring.fundamental(), k_0, levels, family=family)
    assert len(report.steps) == levels
    assert all(
        step.identity_on_persisting and step.coker_rank_matches_complement
        for step in report.steps
    )


def test_k_groups_h1_starts_where_levels_nest():
    # u^0 is not inside u^1 at s = 1, so the levels start at N = 1
    h1 = get_ring("H+", 1)
    report = k_groups(h1, h1.fundamental(), 1, 3, family="H+")
    assert [m.power for m in report.levels] == [1, 2, 3, 4]
    for low, high in zip(report.levels, report.levels[1:]):
        assert set(low.basis) <= set(high.basis)
    assert report.k0 == FGAbelianGroup(1) and report.k0_stabilized
    assert report.k1_rank == 0 and report.unit_class == 1
    su2 = get_ring("O+")
    assert k_groups(su2, su2.fundamental(), 2, 2).levels[0].power == 0


def test_k_groups_s_plus_matches_o_plus():
    so3 = get_ring("S+")
    report = k_groups(so3, so3.fundamental(), 1, 8, family="S+")
    assert report.k0_stabilized
    assert report.k0 == FGAbelianGroup(1)
    assert report.k1_rank == 0
    assert report.unit_class == 1


def test_k_groups_h_family_structure():
    h2 = get_ring("H+", 2)
    report = k_groups(h2, h2.fundamental(), 2, 4, family="H+")
    assert not report.k0_stabilized  # ranks keep growing
    assert report.k1_rank == 0
    ranks = [s.coker.free_rank for s in report.steps]
    assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)
    assert all(not s.coker.torsion for s in report.steps)
    assert all(s.identity_on_persisting for s in report.steps)
    assert report.unit_class == {"r[]@2": 1}


def test_cokernel_rank_is_non_one_ending_count():
    """rank coker(phi_ell) = words of degree <= ell*s, = 0 mod s, without
    an all-ones tail of length s (independent composition count)."""
    for s in (2, 3):
        ring = get_ring("H+", s)
        report = k_groups(ring, ring.fundamental(), s, 3, family="H+")
        for step in report.steps:
            level = step.to_level
            count = 0
            for k in range(0, level * s + 1, s):
                for w in helpers.compositions(k, s):
                    if len(w) < s or w[-s:] != (1,) * s:
                        count += 1
            assert step.coker.free_rank == count
            assert step.coker_rank_matches_complement


def test_level_cokernel_against_minor_gcd_oracle():
    """Invariant factors of the small phi matrices re-derived from minors."""
    h2 = get_ring("H+", 2)
    levels = build_levels(h2, h2.fundamental(), 2, 2)
    beta = h2.power(2)
    for ell in range(2):
        phi, _ = step_matrices(h2, levels[ell], levels[ell + 1], beta)
        factors = invariant_factors(entries(phi))
        divisors = helpers.determinantal_divisors(phi.data)
        running = 1
        for k, dk in enumerate(divisors):
            if k < len(factors):
                running *= factors[k]
                assert dk == running
            else:
                assert dk == 0
        # rank cross-checked against plain rational elimination
        cols = [
            {i: phi.data[i][j] for i in range(phi.rows) if phi.data[i][j]}
            for j in range(phi.cols)
        ]
        assert len(factors) == helpers.naive_rank(cols, phi.rows)


def test_phi_structure_check():
    h2 = get_ring("H+", 2)
    assert phi_structure_check(h2, ())
    assert phi_structure_check(h2, (1,))
    h3 = get_ring("H+", 3)
    assert phi_structure_check(h3, (2,))
    with pytest.raises(WrongFamily):
        phi_structure_check(get_ring("O+"), (1,))


def test_phi_leading_coefficients_explicitly():
    # phi(r_1) at s = 2 is r_111 + r_12 + r_21 + 2 r_1 - checked by hand
    h2 = get_ring("H+", 2)
    from easyqg.fusion import _add_scaled

    vec = dict(h2.multiply({(1,): 1}, h2.power(2)))
    _add_scaled(vec, {(1,): 1}, -1)
    assert vec == {(1, 1, 1): 1, (1, 2): 1, (2, 1): 1, (1,): 2}


def test_growth_matches_engine_boundaries():
    for s in (2, 3):
        ring = get_ring("H+", s)
        mods = build_levels(ring, ring.fundamental(), s, 4)
        for ell, m in enumerate(mods):
            assert len(m.boundary_basis) == len(helpers.compositions(ell * s, s))
