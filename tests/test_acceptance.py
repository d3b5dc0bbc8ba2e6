"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass.  Every assertion is exact; the timings printed are informational.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from easyqg import (
    ColoredPartition,
    IntMatrix,
    bareiss_determinant,
    chain_group_order,
    check_c1,
    check_c2,
    check_functoriality,
    classify_cp,
    compose,
    evaluate_conditions,
    family_category,
    get_ring,
    intertwiner_dim,
    involute,
    k_groups,
    k_param,
    phi_structure_check,
    smith_normal_form,
    t_map,
    tensor,
)
import helpers


@contextmanager
def criterion(num: int, text: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{text}]: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {num:2d} [{text}]: PASS "
          f"({time.perf_counter() - start:.2f}s)")


def test_criterion_1_fusion_golden():
    with criterion(1, "fusion golden rules"):
        h2 = get_ring("H+", 2)
        assert h2.decompose((1,), (1,)) == {(1, 1): 1, (2,): 1, (): 1}
        h3 = get_ring("H+", 3)
        assert h3.decompose((1,), (1,)) == {(1, 1): 1, (2,): 1}
        assert h3.decompose((2,), (1,)) == {(2, 1): 1, (3,): 1, (): 1}


def test_criterion_2_degree_closed_form():
    with criterion(2, "BFS degree = letter sum, degree <= 10, s in 2..4"):
        for s in (2, 3, 4):
            ring = get_ring("H+", s)
            count = 0
            for total in range(0, 11):
                for word in helpers.compositions(total, s):
                    assert ring.degree(word, level_cap=10) == helpers.first_power(
                        ring, word, 10
                    ) == total
                    count += 1
            assert count > 100


def test_criterion_3_chain_groups():
    with criterion(3, "chain groups Z/s, Z/2, trivial"):
        for s in range(1, 6):
            assert chain_group_order(get_ring("H+", s), 10) == s
        assert chain_group_order(get_ring("O+"), 10) == 2
        assert chain_group_order(get_ring("S+"), 10) == 1


def test_criterion_4_ktheory_h_family():
    with criterion(4, "K-theory of the word family, s in {2,3}, L = 5"):
        for s in (2, 3):
            ring = get_ring("H+", s)
            report = k_groups(ring, ring.fundamental(), s, 5, family="H+")
            assert report.diagram_commutes
            ranks = []
            for step in report.steps:
                assert step.ker_rank_phi == 0 and step.ker_rank_psi == 0
                assert not step.coker.torsion
                assert step.identity_on_persisting
                ranks.append(step.coker.free_rank)
                # independent oracle: words of degree <= level*s, degree
                # divisible by s, not ending in s consecutive ones
                expected = 0
                for k in range(0, step.to_level * s + 1, s):
                    for w in helpers.compositions(k, s):
                        if len(w) < s or w[-s:] != (1,) * s:
                            expected += 1
                assert step.coker.free_rank == expected
            assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)
            assert report.k1_rank == 0


def test_criterion_5_ktheory_o_and_s():
    with criterion(5, "K-theory of the ladder families stabilizes to Z"):
        for family, k_0 in (("O+", 2), ("S+", 1)):
            ring = get_ring(family)
            report = k_groups(ring, ring.fundamental(), k_0, 8, family=family)
            assert report.k0_stabilized
            assert report.k0 is not None
            assert report.k0.free_rank == 1 and not report.k0.torsion
            assert report.unit_class == 1
            assert report.k1_rank == 0


def test_criterion_6_functoriality_suite():
    with criterion(6, "functoriality of T on diagrams up to 6 points"):
        structures = helpers.all_nc_structures(6)
        by_upper: dict[int, list[ColoredPartition]] = {}
        for p in structures:
            by_upper.setdefault(p.k, []).append(p)
        tensor_pairs = comp_pairs = 0
        for n in (2, 3):
            for p in structures:
                assert t_map(involute(p), n) == t_map(p, n).transpose()
            for p in structures:
                for q in structures:
                    if p.points + q.points <= 6:
                        assert t_map(tensor(p, q), n) == t_map(p, n).kron(
                            t_map(q, n)
                        )
                        tensor_pairs += 1
            for p in structures:
                for q in by_upper.get(p.l, ()):
                    if p.k + p.l + q.l <= 6:
                        qp, removed = compose(q, p)
                        assert (t_map(q, n) @ t_map(p, n)) == t_map(
                            qp, n
                        ).scale(n**removed)
                        comp_pairs += 1
        assert tensor_pairs > 5000 and comp_pairs > 1000

        # T ignores colors, so the all-white runs above cover every colored
        # diagram; a seeded colored sample exercises the colored code path.
        rng = Random(60)
        colored = sorted(family_category("S+", 5).iter_members())
        for n in (2, 3):
            for _ in range(400):
                p, q = rng.choice(colored), rng.choice(colored)
                if p.points + q.points <= 6:
                    assert check_functoriality(p, q, n)


def test_criterion_7_catalan_ranks():
    with criterion(7, "pairing ranks match Catalan numbers"):
        sample = family_category("O+", 8)
        catalan = [1, 2, 5, 14]
        for n in (2, 3):
            for k in range(1, 5):
                pairings = [
                    p
                    for p in sample.iter_members(k=0, l=2 * k, all_white=True)
                ]
                assert len(pairings) == catalan[k - 1]
                dim, basis = intertwiner_dim(sample, 0, 2 * k, n)
                vectors = [
                    {idx: int(v) for idx, v in t_map(p, n).flatten().items()}
                    for p in pairings
                ]
                oracle = helpers.naive_rank(vectors, n ** (2 * k))
                assert dim == oracle == catalan[k - 1]
                assert len(basis) == dim


def test_criterion_8_k_param_table():
    with criterion(8, "k(C) table at max_points = 8"):
        table = [
            ("O+", None, 2),
            ("S+", None, 1),
            ("U+", None, 0),
            ("H+", 2, 2),
            ("H+", 3, 3),
            ("H+", 4, 4),
        ]
        for family, s, expected in table:
            sample = family_category(family, 8, s=s)
            assert k_param(sample) == expected
            assert sample.saturated


def test_criterion_9_condition_verdicts():
    with criterion(9, "condition verdicts agree across both levels"):
        for family, s in (("O+", None), ("S+", None), ("H+", 2), ("H+", 3),
                          ("H+", 4)):
            sample = family_category(family, 8, s=s)
            k = k_param(sample)
            ring = get_ring(family, s)
            status, _ = check_c1(ring, 6)
            assert status == "holds"
            status, witness, _ = check_c2(ring, 10)
            assert status == "holds"
            assert witness == (1, k)
            cp = classify_cp(sample)
            assert cp.cp1 == "holds" and cp.cp2 == "holds"
        report = evaluate_conditions("U+", level_cap=10).to_dict()
        assert report["C1"]["status"] == "fails"
        assert report["C2"]["status"] == "fails"
        assert report["CP1"]["status"] == "fails"
        assert report["CP2"]["status"] == "fails"


def test_criterion_10_structure_lemma_and_growth():
    with criterion(10, "leading terms of phi and boundary growth"):
        for s in (2, 3):
            ring = get_ring("H+", s)
            for total in range(0, 7):
                for word in helpers.compositions(total, s):
                    assert phi_structure_check(ring, word)
            for ell in range(0, 13):
                n_ell = len(helpers.compositions(ell, s))
                n_up = len(helpers.compositions(ell + s, s))
                assert n_up >= 2 * n_ell


def _quotient_group_by_bfs(m: IntMatrix) -> dict:
    """Brute-force the finite group Z^n / col-lattice(m) by coset search."""
    n = m.rows
    det = bareiss_determinant(m)
    assert det != 0
    # inverse columns as exact fractional vectors
    inv_cols = []
    for j in range(n):
        rhs = [Fraction(1 if i == j else 0) for i in range(n)]
        col = _solve(m, rhs)
        inv_cols.append(col)

    def canonical(vec: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return tuple(x % 1 for x in vec)

    zero = tuple(Fraction(0) for _ in range(n))
    seen = {zero}
    frontier = [zero]
    while frontier:
        state = frontier.pop()
        for j in range(n):
            nxt = canonical(
                tuple(x + y for x, y in zip(state, inv_cols[j]))
            )
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    orders = {}
    for state in seen:
        denom = math.lcm(*(x.denominator for x in state))
        orders[denom] = orders.get(denom, 0) + 1
    return {"order": len(seen), "element_order_counts": orders}


def _solve(m: IntMatrix, rhs: list[Fraction]) -> tuple[Fraction, ...]:
    n = m.rows
    a = [[Fraction(m.data[i][j]) for j in range(n)] + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        lead = a[col][col]
        a[col] = [x / lead for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def test_criterion_11_snf_oracle():
    with criterion(11, "Smith form against minor-gcd and coset oracles"):
        rng = Random(1106)
        finite_checked = 0
        for trial in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = IntMatrix(
                [
                    [rng.randint(-9, 9) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            u, d, v = smith_normal_form(m)
            assert (u @ m) @ v == d
            assert abs(bareiss_determinant(u)) == 1
            assert abs(bareiss_determinant(v)) == 1
            diag = [x for x in d.diagonal() if x]
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            # determinantal divisors: gcd of k x k minors = d_1 ... d_k
            divisors = helpers.determinantal_divisors(
                [row[:] for row in m.data]
            )
            running = 1
            for k, dk in enumerate(divisors):
                if k < len(diag):
                    running *= diag[k]
                    assert dk == running
                else:
                    assert dk == 0
            finite_checked += _check_quotient_if_small(m, d)

        # dedicated small square matrices so finite cokernels show up often
        for _ in range(80):
            n = rng.randint(1, 3)
            m = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            _, d, _ = smith_normal_form(m)
            finite_checked += _check_quotient_if_small(m, d)
        assert finite_checked >= 20


def _check_quotient_if_small(m: IntMatrix, d: IntMatrix) -> int:
    diag = [x for x in d.diagonal() if x]
    if m.rows != m.cols or len(diag) != m.rows:
        return 0
    order = 1
    for x in diag:
        order *= x
    if not 1 < order <= 1000:
        return 0
    stats = _quotient_group_by_bfs(m)
    assert stats["order"] == order
    exponent = diag[-1]
    for mod in range(1, exponent + 1):
        if exponent % mod:
            continue
        killed = 1
        for x in diag:
            killed *= math.gcd(x, mod)
        counted = sum(
            count
            for denom, count in stats["element_order_counts"].items()
            if mod % denom == 0
        )
        assert counted == killed
    return 1
