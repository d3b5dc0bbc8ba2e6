"""Deciding the two fixed-point-algebra conditions, two ways.

Fusion level: (C1) every irreducible in the tensor powers of the
fundamental admits a partner whose product contains the trivial
representation; (C2) there are N and a minimal gap k_0 > 0 with u^N
contained in u^(N+k_0) and no intertwiners across smaller gaps.

Partition level: the classification by the parameter k(C) — k = 0 kills
both conditions; k != 0 plus the mixed double pair or the white-white-
black-black four-block yields (C_P1); k != 0 alone yields (C_P2) with
N = 1, k_0 = k(C), witnessed by an explicit all-white r with rr* = id.

Every "holds" verdict carries a witness that the tests re-check from the
report alone; "undetermined" is reserved for verdicts cut off by a cap.
U+ ships no fusion rules, so its fusion-level rows are computed through
the partition-backed proxy and labeled as such.
"""

from __future__ import annotations

from .categories import PartitionCategorySample, family_category, k_param
from .fusion import SEARCH_LEVEL_CAP, FusionRing, get_ring
from .partitions import (
    BLACK,
    WHITE,
    ColoredPartition,
    compose,
    four_block_wwbb,
    identity_power,
    involute,
    lower_pair,
    tensor,
    to_literal,
)
from .records import Record

HOLDS = "holds"
FAILS = "fails"
UNDETERMINED = "undetermined"


class CPVerdicts(Record):
    """k(C), the verdicts (C_P1) and (C_P2) with their witnesses (literal
    partitions, or ``None``), and the clause of the characterization that
    decided them."""

    __slots__ = _fields = ("k", "cp1", "cp2", "rule", "cp1_witness", "cp2_witness")
    _defaults = {"cp1": FAILS, "cp2": FAILS, "rule": "a", "cp1_witness": None, "cp2_witness": None}


class ConditionReport(Record):
    """(C1) and (C2) of one family (``s`` only for H+), each as a verdict, its
    witnesses and a note; ``c2_witness`` is (N, k_0) or ``None``.  ``cp`` holds
    the partition-level verdicts, ``consistent`` is false when they and the
    fusion-level ones disagree, and ``bounds_used`` maps each cap to its value."""

    __slots__ = _fields = (
        "family", "s", "c1_status", "c1_witnesses", "c1_note", "c2_status",
        "c2_witness", "c2_note", "cp", "consistent", "bounds_used",
    )
    _defaults = {"bounds_used": {}}

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "s": self.s,
            "k": self.cp.k,
            "C1": {
                "status": self.c1_status,
                "witnesses": self.c1_witnesses,
                "note": self.c1_note,
            },
            "C2": {
                "status": self.c2_status,
                "witness": (
                    {"N": self.c2_witness[0], "k0": self.c2_witness[1]}
                    if self.c2_witness
                    else None
                ),
                "note": self.c2_note,
            },
            "CP1": {"status": self.cp.cp1, "witness": self.cp.cp1_witness},
            "CP2": {"status": self.cp.cp2, "witness": self.cp.cp2_witness},
            "cp_rule": self.cp.rule,
            "consistent": self.consistent,
            "bounds_used": self.bounds_used,
        }


# ---------------------------------------------------------------------------
# Fusion-level checks.
# ---------------------------------------------------------------------------


def check_c1(ring: FusionRing, degree_cap: int) -> tuple[str, dict[str, str]]:
    """Search a contragredient partner for every irreducible below the cap."""
    witnesses: dict[str, str] = {}
    labels = ring.irreducibles_up_to_degree(degree_cap)
    for v in labels:
        partner = None
        candidate = ring.conjugate(v)
        search = [candidate] + [x for x in labels if x != candidate]
        for w in search:
            if ring.decompose(v, w).get(ring.trivial(), 0) > 0:
                partner = w
                break
        if partner is None:
            return UNDETERMINED, witnesses
        witnesses[ring.format_label(v)] = ring.format_label(partner)
    return HOLDS, witnesses


def _mult_leq(small: dict, big: dict) -> bool:
    return all(big.get(label, 0) >= mult for label, mult in small.items())


def check_c2(
    ring: FusionRing, level_cap: int
) -> tuple[str, tuple[int, int] | None, str]:
    """Find the gap k_0 (minimal t with intersecting supports) and an N."""
    supports = [ring.power(ell).keys() for ell in range(level_cap + 1)]
    k_0 = None
    for t in range(1, level_cap + 1):
        if any(
            supports[ell] & supports[ell + t]
            for ell in range(level_cap + 1 - t)
        ):
            k_0 = t
            break
    if k_0 is None:
        # the supports may still meet above the cap
        return UNDETERMINED, None, f"no k0 found up to level cap {level_cap}"
    for n_pow in range(1, level_cap + 1 - k_0):
        if _mult_leq(ring.power(n_pow), ring.power(n_pow + k_0)):
            return HOLDS, (n_pow, k_0), ""
    return UNDETERMINED, (0, k_0), "containment u^N <= u^(N+k0) not found in cap"


def check_c2_partition_proxy(
    sample: PartitionCategorySample, k: int
) -> tuple[str, tuple[int, int] | None, str]:
    """C2 decided from the category alone (used when no fusion ring ships).

    Hom(u^l, u^(l+t)) is spanned by the all-white members of C(l, l+t),
    and every all-white member has c(p) = l_p - k_p, so the candidate gap
    is the minimal positive l - k over all-white members.
    ``k`` is k(C) as ``k_param`` gives it; it selects the witness shape.
    """
    k_0 = min(
        (p.l - p.k for p in sample.iter_members(all_white=True) if p.l > p.k),
        default=None,
    )
    if k_0 is None:
        return FAILS, None, (
            f"no all-white member with more lower than upper points within "
            f"{sample.max_points} points"
        )
    witness = cp2_witness(sample, k)
    if witness is None:
        return UNDETERMINED, (0, k_0), "no witness r with rr* = id within bound"
    return HOLDS, (witness[1], k_0), "partition-backed proxy"


# ---------------------------------------------------------------------------
# Partition-level classification.
# ---------------------------------------------------------------------------


def cp2_witness(
    sample: PartitionCategorySample, k_0: int
) -> tuple[ColoredPartition, int] | None:
    """First all-white r in C(1+k_0, 1) with rr* = id, in canonical order.

    ``k_0`` is k(C) of the sample, as ``k_param`` gives it.
    """
    if k_0 <= 0:
        return None
    if 2 + k_0 > sample.max_points:
        return None
    target = identity_power(1, WHITE)
    for r in sorted(sample.iter_members(k=1 + k_0, l=1, all_white=True)):
        if compose(r, involute(r))[0] == target:
            return r, 1
    return None


def classify_cp(sample: PartitionCategorySample) -> CPVerdicts:
    """Apply the characterization clauses to a category sample."""
    result = CPVerdicts(k_param(sample))
    if result.k == 0:
        if any(g.points > sample.max_points for g in sample.generators):
            # a generator the bound cannot see may carry c != 0
            result.cp1 = result.cp2 = UNDETERMINED
            result.rule = "none"
        return result
    double_pair = tensor(lower_pair(WHITE, WHITE), lower_pair(BLACK, BLACK))
    four_block = four_block_wwbb()
    if double_pair in sample:
        result.cp1 = HOLDS
        result.rule = "b"
        result.cp1_witness = to_literal(double_pair)
    elif four_block in sample:
        result.cp1 = HOLDS
        result.rule = "c"
        result.cp1_witness = to_literal(four_block)
    else:
        result.cp1 = UNDETERMINED
        result.rule = "none"
    witness = cp2_witness(sample, result.k)
    if witness is not None:
        result.cp2 = HOLDS
        result.cp2_witness = to_literal(witness[0])
    else:
        result.cp2 = UNDETERMINED
    return result


# ---------------------------------------------------------------------------
# Assembled report.
# ---------------------------------------------------------------------------


def evaluate_conditions(
    family: str,
    s: int | None = None,
    max_points: int = 8,
    degree_cap: int = 6,
    level_cap: int = SEARCH_LEVEL_CAP,
) -> ConditionReport:
    sample = family_category(family, max_points, s=s)
    cp = classify_cp(sample)

    if family == "U+":
        c1_status = FAILS if cp.k == 0 else UNDETERMINED
        c1_witnesses: dict[str, str] = {}
        c1_note = "partition-backed proxy: k(C) = 0 forbids invariant vectors"
        c2_status, c2_witness, c2_note = check_c2_partition_proxy(sample, cp.k)
    else:
        ring = get_ring(family, s)
        c1_status, c1_witnesses = check_c1(ring, degree_cap)
        c1_note = ""
        c2_status, c2_witness, c2_note = check_c2(ring, level_cap)

    implied_ok = True
    if cp.cp1 == HOLDS and c1_status == FAILS:
        implied_ok = False
    if cp.cp2 == HOLDS and c2_status == FAILS:
        implied_ok = False
    if c2_witness and cp.k > 0 and c2_witness[1] != cp.k:
        implied_ok = False

    return ConditionReport(
        family=family,
        s=s if family == "H+" else None,
        c1_status=c1_status,
        c1_witnesses=c1_witnesses,
        c1_note=c1_note,
        c2_status=c2_status,
        c2_witness=c2_witness,
        c2_note=c2_note,
        cp=cp,
        consistent=implied_ok,
        bounds_used={
            "max_points": max_points,
            "degree_cap": degree_cap,
            "level_cap": level_cap,
        },
    )
