"""The four workloads: job lists, built from a seed, and the check for each job.

A job is one fresh process running one CLI command (or one library job).
Its ``check`` gets the decoded JSON stdout and returns ``None`` or the
reason it is wrong.  Expected answers come from ``oracles`` (computed apart
from easyqg) or from properties the method must have, never from a stored
copy of earlier output.  ``fault`` names a known defect that makes the job
fail every time, with the exact way it shows; a failure that shows that way
is counted as failed, not as wrong, and any other failure is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random
from typing import Callable

import oracles as O


@dataclass(frozen=True)
class Fault:
    """A known defect, and a test that a failure is that defect and no other."""
    note: str
    shows: Callable[[int, bytes, bytes], bool]  # (exit code, stdout, stderr)


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli" or "lib"
    args: tuple[str, ...]
    check: Callable[[object], str | None]
    fault: Fault | None = None


def cli(name, *args, check, fault=None) -> Job:
    return Job(name, "cli", tuple(map(str, args)), check, fault)


def expect(**fields) -> Callable[[object], str | None]:
    """Check that the output has these top-level values."""

    def check(out):
        wrong = {k: out.get(k) for k, v in fields.items() if out.get(k) != v}
        return f"expected {fields}, got {wrong}" if wrong else None

    return check


# ---------------------------------------------------------------------------
# ktheory-words
# ---------------------------------------------------------------------------

K0_Z = {"rank": 1, "torsion": []}


def ladder_ktheory(k0: int, levels: int) -> Callable[[object], str | None]:
    """The ladder families: level ell holds ell + 1 labels, one new; K0 = Z."""

    def check(out):
        want = [(m.get("basis_size"), m.get("boundary_size")) for m in out["levels"]]
        if want != [(ell + 1, 1) for ell in range(levels + 1)]:
            return f"level sizes {want}"
        if any(m["coker"] != K0_Z or m["ker_rank"] != 0 for m in out["levels"][1:]):
            return "a step cokernel is not Z or a kernel is nonzero"
        return expect(k0=k0, K0=K0_Z, K0_stabilized=True, K1=0, unit_class=1,
                      diagram_commutes=True)(out)

    return check


def word_ktheory(s: int, levels: int) -> Callable[[object], str | None]:
    """Word family: level ell is the words of degree <= ell*s, the new ones are free."""

    def check(out):
        sizes = [(m.get("basis_size"), m.get("boundary_size")) for m in out["levels"]]
        want = [(O.word_level_basis(s, ell), O.compositions(ell * s, s)) for ell in range(levels + 1)]
        if sizes != want:
            return f"level sizes {sizes}, expected {want}"
        for m in out["levels"][1:]:
            new = O.compositions(m["level"] * s, s)
            if m["coker"] != {"rank": new, "torsion": []} or m["ker_rank"] != 0:
                return f"level {m['level']}: coker {m['coker']}, ker {m['ker_rank']}"
            if not (m["identity_on_persisting"] and m["coker_rank_matches_complement"]):
                return f"level {m['level']}: connecting map not the identity"
        return expect(k0=s, K0=None, K0_stabilized=False, K1=0,
                      unit_class={O.format_word((), s): 1}, diagram_commutes=True)(out)

    return check


def ktheory_words(rng: Random) -> list[Job]:
    return [
        cli("ktheory-H+-s2-L10", "ktheory", "--family", "H+", "--s", 2, "--L", 10,
            check=word_ktheory(2, 10)),
        cli("ktheory-H+-s3-L6", "ktheory", "--family", "H+", "--s", 3, "--L", 6,
            check=word_ktheory(3, 6)),
        cli("ktheory-H+-s4-L4", "ktheory", "--family", "H+", "--s", 4, "--L", 4,
            check=word_ktheory(4, 4)),
        cli("ktheory-O+-L40", "ktheory", "--family", "O+", "--L", 40,
            check=ladder_ktheory(2, 40)),
        cli("ktheory-S+-L40", "ktheory", "--family", "S+", "--L", 40,
            check=ladder_ktheory(1, 40)),
        # H+ at s = 1 is S+, so it must give the S+ answer
        cli("ktheory-H+-s1-L3", "ktheory", "--family", "H+", "--s", 1, "--L", 3,
            check=expect(K0=K0_Z, K0_stabilized=True, K1=0, unit_class=1),
            fault=Fault("KeyError: () -- the engine starts at u^0, check_c2 gives (N, k0) = (1, 1)",
                        lambda code, out, err: (code == 1 and out == b""
                                                and err.rstrip().endswith(b"\nKeyError: ()")))),
    ]


# ---------------------------------------------------------------------------
# category-enum
# ---------------------------------------------------------------------------

K_PARAM = {"O+": 2, "S+": 1, "U+": 0}


def family_sample(family, bound, s=None) -> Callable[[object], str | None]:
    return expect(k=K_PARAM.get(family, s), max_points=bound, saturated=True,
                  member_count=O.family_member_count(family, bound, s))


O_GENERATORS = ("P(1,1;w;b;{{1,2}})",)
S_GENERATORS = ("P(1,1;w;b;{{1,2}})", "P(0,1;;w;{{1}})", "P(0,4;;wwbb;{{1,2,3,4}})")


def category_enum(rng: Random) -> list[Job]:
    return [
        cli("category-S+-7", "category", "--family", "S+", "--max-points", 7,
            check=family_sample("S+", 7)),
        cli("category-H+-s2-8", "category", "--family", "H+", "--s", 2, "--max-points", 8,
            check=family_sample("H+", 8, 2)),
        cli("category-O+-8", "category", "--family", "O+", "--max-points", 8,
            check=family_sample("O+", 8)),
        cli("category-U+-8", "category", "--family", "U+", "--max-points", 8,
            check=family_sample("U+", 8)),
        cli("kparam-H+-s4-8", "partition", "kparam", "--family", "H+", "--s", 4,
            "--max-points", 8, check=expect(k=4, max_points=8, saturated=True)),
        # the closure of the family generators is the family at the same bound
        cli("closure-O+-6", "category", "--generators", *O_GENERATORS, "--max-points", 6,
            check=family_sample("O+", 6)),
        cli("closure-S+-4", "category", "--generators", *S_GENERATORS, "--max-points", 4,
            check=family_sample("S+", 4)),
    ]


# ---------------------------------------------------------------------------
# tmaps-intertwiners
# ---------------------------------------------------------------------------


def intertwiners(k: int, l: int, dim: int) -> Callable[[object], str | None]:
    def check(out):
        basis = [O.parse(b) for b in out["basis"]]
        if len(set(basis)) != len(basis) or any(
            (p[0], p[1]) != (k, l) or set(p[2] + p[3]) - {"w"} for p in basis
        ):
            return "basis is not a set of all-white diagrams of the shape"
        if len(basis) != dim:
            return f"basis has {len(basis)} elements for dim {dim}"
        return expect(dim=dim, max_points=k + l)(out)

    return check


def s_plus(k: int, l: int, n: int) -> Job:
    # S_n^+: Catalan(k+l) for n >= 4; S_3^+ = S_3, partitions into <= 3 blocks
    dim = O.catalan(k + l) if n >= 4 else O.set_partitions_at_most(k + l, n)
    return cli(f"intertwiners-S+-{k}-{l}-{n}", "intertwiners", "--family", "S+",
               "--k", k, "--l", l, "--n", n, check=intertwiners(k, l, dim))


def o_plus(k: int, l: int, n: int) -> Job:
    return cli(f"intertwiners-O+-{k}-{l}-{n}", "intertwiners", "--family", "O+",
               "--k", k, "--l", l, "--n", n, check=intertwiners(k, l, O.catalan((k + l) // 2)))


def functoriality_counts(out) -> str | None:
    diagrams = [(m + 1) * O.catalan(m) for m in range(7)]  # by point count
    tensor = sum(diagrams[a] * diagrams[b] for a in range(7) for b in range(7 - a))
    # p of shape (k, l) stacked above q of shape (l, l2), k + l + l2 <= 6
    composition = sum(
        O.catalan(k + l) * O.catalan(l + l2)
        for k in range(7) for l in range(7) for l2 in range(7) if k + l + l2 <= 6
    )
    return expect(diagrams=sum(diagrams), involution_pairs=sum(diagrams),
                  tensor_pairs=tensor, composition_pairs=composition, broken=0)(out)


def tmaps_intertwiners(rng: Random) -> list[Job]:
    projective = O.projective_count(2)
    return [
        s_plus(4, 3, 4),
        s_plus(3, 3, 4),
        s_plus(2, 4, 4),
        s_plus(3, 3, 3),
        o_plus(4, 4, 3),
        Job("lib-functoriality-6-n2", "lib", ("functoriality",), functoriality_counts),
        Job("lib-projections-S+-2-2-n3", "lib", ("projections",),
            expect(projective=projective, verified=projective)),
    ]


# ---------------------------------------------------------------------------
# cli-queries
# ---------------------------------------------------------------------------


def random_partition(rng: Random, k: int, l: int, upper: str | None = None) -> tuple:
    labels: list[int] = []
    for _ in range(k + l):
        labels.append(rng.randint(0, max(labels, default=-1) + 1))
    blocks: dict[int, list[int]] = {}
    for point, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(point)
    colors = "".join(rng.choice("wb") for _ in range(k + l))
    return O.canonical(k, l, colors[:k] if upper is None else upper, colors[k:], blocks.values())


def random_word(rng: Random, degree: int, s: int) -> tuple[int, ...]:
    """A word with the given letter sum, letters in 1..s."""
    word: list[int] = []
    while sum(word) < degree:
        word.append(rng.randint(1, min(s, degree - sum(word))))
    return tuple(word)


def gives_partition(want: tuple, removed: int | None = None) -> Callable[[object], str | None]:
    def check(out):
        got = O.parse(out["result"])
        if got != want:
            return f"result {out['result']}, expected {O.literal(want)}"
        if removed is not None and out["removed_blocks"] != removed:
            return f"removed {out['removed_blocks']}, expected {removed}"
        return None

    return check


def gives_vector(want: dict[str, int]) -> Callable[[object], str | None]:
    return lambda out: None if out == want else f"got {out}, expected {want}"


def conditions_check(k: int) -> Callable[[object], str | None]:
    def check(out):
        statuses = [out[c]["status"] for c in ("C1", "C2", "CP1", "CP2")]
        if k == 0:  # U+: k(C) = 0 forbids both conditions
            if statuses[:2] != ["fails", "fails"]:
                return f"U+ statuses {statuses}"
        elif statuses != ["holds"] * 4:
            return f"statuses {statuses}"
        elif out["C2"]["witness"] != {"N": 1, "k0": k}:
            return f"C2 witness {out['C2']['witness']}, expected (1, {k})"
        return expect(k=k, consistent=True)(out)

    return check


def capped_conditions(out) -> str | None:
    # at level cap 1 the gap k0 = 2 is out of reach: the verdict is undetermined
    if out["C2"] != {"status": "undetermined", "witness": None, "note": out["C2"].get("note")}:
        return f"C2 {out['C2']} although the level cap cut the search"
    statuses = [out[c]["status"] for c in ("C1", "CP1", "CP2")]
    if statuses != ["holds"] * 3:
        return f"C1, CP1, CP2 statuses {statuses}"
    return expect(k=2, consistent=True)(out)


def capped_conditions_fault(code: int, stdout: bytes, stderr: bytes) -> bool:
    """C2 reads 'fails' and the report inconsistent; everything else is right."""
    if code != 0 or stderr:
        return False
    out = json.loads(stdout)
    if out["C2"]["status"] != "fails" or out["consistent"] is not False:
        return False
    mended = dict(out, C2=dict(out["C2"], status="undetermined"), consistent=True)
    return capped_conditions(mended) is None


def cli_queries(rng: Random) -> list[Job]:
    jobs = []
    p = random_partition(rng, rng.randint(1, 3), rng.randint(1, 3))
    q = random_partition(rng, p[1], rng.randint(0, 3), upper=p[3])
    result, removed = O.compose(p, q)
    jobs.append(cli("partition-compose", "partition", "compose", O.literal(p), O.literal(q),
                    check=gives_partition(result, removed)))
    a, b = (random_partition(rng, rng.randint(0, 3), rng.randint(0, 3)) for _ in range(2))
    jobs.append(cli("partition-tensor", "partition", "tensor", O.literal(a), O.literal(b),
                    check=gives_partition(O.tensor(a, b))))
    x = random_partition(rng, rng.randint(0, 4), rng.randint(0, 4))
    jobs.append(cli("partition-involute", "partition", "involute", O.literal(x),
                    check=gives_partition(O.involute(x))))
    jobs.append(cli("partition-involute-twice", "partition", "involute", O.literal(O.involute(x)),
                    check=gives_partition(x)))
    y = random_partition(rng, rng.randint(1, 4), rng.randint(0, 4))
    rotated = O.rotate_upper_left(y)
    jobs.append(cli("partition-rotate-UL", "partition", "rotate", "--corner", "UL", O.literal(y),
                    check=gives_partition(rotated)))
    jobs.append(cli("partition-rotate-UL-LL", "partition", "rotate", "--corner", "LL",
                    O.literal(rotated), check=gives_partition(y)))

    i, j = rng.randint(0, 12), rng.randint(0, 12)
    jobs.append(cli("fusion-decompose-O+", "fusion", "decompose", "--family", "O+", f"u{i}", f"u{j}",
                    check=gives_vector({f"u{m}": c for m, c in O.clebsch_gordan(i, j).items()})))
    i, j = rng.randint(0, 6), rng.randint(0, 6)
    jobs.append(cli("fusion-decompose-S+", "fusion", "decompose", "--family", "S+",
                    f"u{2 * i}", f"u{2 * j}",
                    check=gives_vector({f"u{m}": c for m, c in O.clebsch_gordan(2 * i, 2 * j).items()})))
    # the cost of a word query grows with the letter sum, so the seed picks
    # words of a fixed degree: every seed then asks for the same amount of work
    s, degree = 3, 9
    v, w = random_word(rng, degree // 2, s), random_word(rng, degree - degree // 2, s)
    jobs.append(cli("fusion-decompose-H+", "fusion", "decompose", "--family", "H+", "--s", s,
                    O.format_word(v, s), O.format_word(w, s),
                    check=gives_vector({O.format_word(t, s): c
                                        for t, c in O.word_product(v, w, s).items()})))
    jobs.append(cli("fusion-degree-H+", "fusion", "degree", "--family", "H+", "--s", s,
                    O.format_word(v + w, s), check=expect(degree=degree)))
    label, n = rng.randint(0, 12), rng.randint(2, 6)
    jobs.append(cli("fusion-dim-O+", "fusion", "dim", "--family", "O+", f"u{label}", "--n", n,
                    check=expect(dim=O.ladder_dim(label, n))))
    jobs.append(cli("fusion-chaingroup-H+", "fusion", "chaingroup", "--family", "H+", "--s", s,
                    check=expect(order=s)))
    jobs.append(cli("fusion-chaingroup-O+", "fusion", "chaingroup", "--family", "O+",
                    check=expect(order=2)))
    jobs.append(cli("fusion-chaingroup-S+", "fusion", "chaingroup", "--family", "S+",
                    check=expect(order=1)))
    power = rng.randint(6, 14)
    jobs.append(cli("fusion-power-O+", "fusion", "power", "--family", "O+", "--l", power,
                    check=gives_vector({f"u{m}": c for m, c in O.ladder_power(power).items()})))

    for family, s_arg, k in (("O+", (), 2), ("S+", (), 1), ("U+", (), 0),
                             ("H+", ("--s", 2), 2), ("H+", ("--s", 3), 3), ("H+", ("--s", 4), 4)):
        jobs.append(cli(f"conditions-{family}{''.join(map(str, s_arg[1:]))}", "conditions",
                        "--family", family, *s_arg, check=conditions_check(k)))
    jobs.append(cli("conditions-O+-level-cap-1", "conditions", "--family", "O+", "--level-cap", 1,
                    check=capped_conditions,
                    fault=Fault("C2 reads 'fails' and consistent false when the level cap cuts the search",
                                capped_conditions_fault)))

    half = rng.randint(1, 3)
    k = rng.randint(0, 2 * half)
    jobs.append(o_plus(k, 2 * half - k, 3))
    jobs.append(cli("ktheory-O+-L8", "ktheory", "--family", "O+", "--L", 8,
                    check=ladder_ktheory(2, 8)))
    return jobs


WORKLOADS = {
    "ktheory-words": ktheory_words,
    "category-enum": category_enum,
    "tmaps-intertwiners": tmaps_intertwiners,
    "cli-queries": cli_queries,
}


def build(workload: str, seed: int) -> list[Job]:
    """The workload's jobs; the seed makes the query inputs and the job order."""
    rng = Random(seed)
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
