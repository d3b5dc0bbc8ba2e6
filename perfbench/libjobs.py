"""Library jobs: workloads that the CLI has no subcommand for.

Each job prints one JSON object and returns an exit code.  The laws are
checked here, inside the job, because they compare easyqg's own matrices
with each other; the parent checks the counts against closed forms.
"""

from __future__ import annotations

import json

from easyqg import categories, partitions, tmaps


def functoriality() -> int:
    """T_p laws over every all-white noncrossing diagram of at most 6 points, n = 2."""
    n, bound = 2, 6
    diagrams = sorted(categories.family_category("S+", bound).iter_members(all_white=True))
    by_upper: dict[int, list] = {}
    for p in diagrams:
        by_upper.setdefault(p.k, []).append(p)
    broken = involution = tensor = composition = 0
    for p in diagrams:
        involution += 1
        broken += tmaps.t_map(partitions.involute(p), n) != tmaps.t_map(p, n).transpose()
    for p in diagrams:
        for q in diagrams:
            if p.points + q.points <= bound:
                tensor += 1
                broken += tmaps.t_map(partitions.tensor(p, q), n) != tmaps.t_map(p, n).kron(tmaps.t_map(q, n))
    for p in diagrams:
        for q in by_upper.get(p.l, ()):
            if p.k + p.l + q.l <= bound:
                composition += 1
                qp, removed = partitions.compose(q, p)
                broken += (tmaps.t_map(q, n) @ tmaps.t_map(p, n)) != tmaps.t_map(qp, n).scale(n**removed)
    print(json.dumps({
        "diagrams": len(diagrams),
        "involution_pairs": involution,
        "tensor_pairs": tensor,
        "composition_pairs": composition,
        "broken": broken,
    }, sort_keys=True))
    return 0


def projections() -> int:
    """P_p for every projective S+ partition of shape (2, 2) at n = 3."""
    sample = categories.family_category("S+", 4)
    shapes = [p for p in sample.iter_members(k=2, l=2) if partitions.is_projective(p)]
    verified = sum(tmaps.projective_projection(p, sample, 3).verify() for p in shapes)
    print(json.dumps({"projective": len(shapes), "verified": verified}, sort_keys=True))
    return 0


JOBS = {"functoriality": functoriality, "projections": projections}
