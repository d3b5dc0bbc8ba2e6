"""Batch command-line front end.

Every computation is a subcommand emitting deterministic JSON (the machine
contract) or a plain-text rendering.  Exit codes: 0 success, 2 parse or
usage error, 3 precondition violation, 4 non-stabilizing K-theory run
under --strict.

``--format`` and every other option follow the leaf subcommand
(``partition involute --format text X``); placed before it, as in
``partition --format text involute X``, an option is a usage error (exit 2).

The layers that only some subcommands run (``conditions``, ``ktheory``,
``tmaps``) are imported inside their ``_run_*`` function, so a short query
does not pay for loading them.  Their names are looked up on the module at
call time, so a function rebound on the module after import is the one
called.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fusion as fusion_mod
from .categories import FAMILIES, family_category, generate_category, k_param
from .errors import EasyQGError, ParseError
from .partitions import (
    color_counts,
    compose,
    involute,
    is_noncrossing,
    is_projective,
    parse_partition,
    rotate,
    tensor,
    to_literal,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NONSTABLE = 4


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for key in sorted(payload):
            sys.stdout.write(f"{key}: {payload[key]}\n")


def _leaf(sub, name, run, family=True, **kwargs) -> argparse.ArgumentParser:
    """Add the leaf subcommand ``name``: its parser, ``--format``, the
    required ``--family`` with ``--s`` unless ``family`` is false, and the
    runner ``main`` calls for it."""
    parser = sub.add_parser(name, **kwargs)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    if family:
        parser.add_argument("--family", choices=FAMILIES, required=True)
        parser.add_argument("--s", type=int, default=None, help="s for H+")
    parser.set_defaults(run=run)
    return parser


# least accepted value of each count option, keyed by argparse dest
_COUNT_MINIMA = {
    "k": 0,
    "l": 0,
    "n": 1,
    "L": 1,
    "level_cap": 0,
    "degree_cap": 0,
    "max_points": 2,
}


def _check_args(args) -> None:
    """Reject a count below its least value and H+ without ``--s >= 1``."""
    for dest, least in _COUNT_MINIMA.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise ParseError(f"--{dest.replace('_', '-')} must be >= {least}")
    if getattr(args, "family", None) != "H+":
        args.s = None
    elif args.s is None or args.s < 1:
        raise ParseError("family H+ requires --s >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="easyqg",
        description="exact partition-category, fusion and K-theory computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="single partition operations")
    part_sub = p_part.add_subparsers(dest="action", required=True)
    for name, arity, run in (
        ("compose", 2, _run_compose),
        ("tensor", 2, _run_tensor),
        ("involute", 1, _run_involute),
        ("rotate", 1, _run_rotate),
        ("noncrossing", 1, _run_noncrossing),
        ("projective", 1, _run_projective),
        ("colorcounts", 1, _run_colorcounts),
    ):
        sp = _leaf(part_sub, name, run, family=False)
        sp.add_argument("literals", nargs=arity, metavar="PARTITION")
        if run is _run_rotate:
            sp.add_argument("--corner", choices=("UL", "UR", "LL", "LR"),
                            required=True)
    sp = _leaf(part_sub, "kparam", _run_kparam)
    sp.add_argument("--max-points", type=int, default=8)

    p_cat = _leaf(sub, "category", _run_category, family=False,
                  help="bounded category samples")
    p_cat.add_argument("--family", choices=FAMILIES)
    p_cat.add_argument("--s", type=int, default=None)
    p_cat.add_argument("--generators", nargs="*", default=None,
                       metavar="PARTITION", help="closure generators")
    p_cat.add_argument("--max-points", type=int, default=6)
    p_cat.add_argument("--list-members", action="store_true")

    p_fus = sub.add_parser("fusion", help="fusion ring computations")
    fus_sub = p_fus.add_subparsers(dest="action", required=True)
    sp = _leaf(fus_sub, "decompose", _run_decompose)
    sp.add_argument("labels", nargs=2, metavar="LABEL")
    sp = _leaf(fus_sub, "power", _run_power)
    sp.add_argument("--l", type=int, required=True)
    sp = _leaf(fus_sub, "degree", _run_degree)
    sp.add_argument("label", metavar="LABEL")
    sp.add_argument("--level-cap", type=int, default=fusion_mod.DEFAULT_LEVEL_CAP)
    sp = _leaf(fus_sub, "chaingroup", _run_chaingroup)
    sp.add_argument("--level-cap", type=int, default=fusion_mod.SEARCH_LEVEL_CAP)
    sp = _leaf(fus_sub, "dim", _run_dim)
    sp.add_argument("label", metavar="LABEL")
    sp.add_argument("--n", type=int, required=True)

    p_cond = _leaf(sub, "conditions", _run_conditions, help="condition reports")
    p_cond.add_argument("--max-points", type=int, default=8)
    p_cond.add_argument("--degree-cap", type=int, default=6)
    p_cond.add_argument("--level-cap", type=int, default=fusion_mod.SEARCH_LEVEL_CAP)

    p_kth = _leaf(sub, "ktheory", _run_ktheory, help="inductive-limit K-theory")
    p_kth.add_argument("--L", type=int, required=True, help="level count")
    p_kth.add_argument("--strict", action="store_true",
                       help="exit 4 when K0 does not stabilize")

    p_int = _leaf(sub, "intertwiners", _run_intertwiners,
                  help="intertwiner-space dimensions")
    p_int.add_argument("--k", type=int, required=True)
    p_int.add_argument("--l", type=int, required=True)
    p_int.add_argument("--n", type=int, required=True)
    p_int.add_argument("--max-points", type=int, default=None)

    return parser


def _partitions(args) -> list:
    return [parse_partition(text) for text in args.literals]


def _run_compose(args) -> dict:
    # first literal is stacked above the second: result = (second)(first)
    upper, lower = _partitions(args)
    result, removed = compose(lower, upper)
    return {"result": to_literal(result), "removed_blocks": removed}


def _run_tensor(args) -> dict:
    left, right = _partitions(args)
    return {"result": to_literal(tensor(left, right))}


def _run_involute(args) -> dict:
    (p,) = _partitions(args)
    return {"result": to_literal(involute(p))}


def _run_rotate(args) -> dict:
    (p,) = _partitions(args)
    return {"result": to_literal(rotate(p, args.corner))}


def _run_noncrossing(args) -> dict:
    (p,) = _partitions(args)
    return {"result": is_noncrossing(p)}


def _run_projective(args) -> dict:
    (p,) = _partitions(args)
    return {"result": is_projective(p)}


def _run_colorcounts(args) -> dict:
    (p,) = _partitions(args)
    c_w, c_b, c = color_counts(p)
    return {"c_white": c_w, "c_black": c_b, "c": c}


def _run_kparam(args) -> dict:
    sample = family_category(args.family, args.max_points, s=args.s)
    return {
        "k": k_param(sample),
        "saturated": sample.saturated,
        "max_points": args.max_points,
    }


def _run_category(args) -> dict:
    if (args.family is None) == (args.generators is None):
        raise ParseError("give exactly one of --family or --generators")
    if args.family is not None:
        sample = family_category(args.family, args.max_points, s=args.s)
    else:
        gens = [parse_partition(text) for text in args.generators]
        sample = generate_category(gens, args.max_points)
    payload = {
        "max_points": args.max_points,
        "saturated": sample.saturated,
        "k": k_param(sample),
        "member_count": sample.member_count(),
    }
    if args.list_members:
        payload["members"] = [to_literal(p) for p in sorted(sample.members)]
    return payload


def _run_decompose(args) -> dict:
    ring = fusion_mod.get_ring(args.family, args.s)
    a = ring.parse_label(args.labels[0])
    b = ring.parse_label(args.labels[1])
    return fusion_mod.format_vector(ring, ring.decompose(a, b))


def _run_power(args) -> dict:
    ring = fusion_mod.get_ring(args.family, args.s)
    return fusion_mod.format_vector(ring, ring.power(args.l))


def _run_degree(args) -> dict:
    ring = fusion_mod.get_ring(args.family, args.s)
    return {"degree": ring.degree(ring.parse_label(args.label), args.level_cap)}


def _run_chaingroup(args) -> dict:
    ring = fusion_mod.get_ring(args.family, args.s)
    return {"order": fusion_mod.chain_group_order(ring, args.level_cap)}


def _run_dim(args) -> dict:
    ring = fusion_mod.get_ring(args.family, args.s)
    return {"dim": ring.dim(ring.parse_label(args.label), args.n)}


def _run_conditions(args) -> dict:
    from . import conditions as conditions_mod

    report = conditions_mod.evaluate_conditions(
        args.family,
        s=args.s,
        max_points=args.max_points,
        degree_cap=args.degree_cap,
        level_cap=args.level_cap,
    )
    return report.to_dict()


def _run_ktheory(args) -> dict:
    from . import conditions as conditions_mod
    from . import ktheory as ktheory_mod

    ring = fusion_mod.get_ring(args.family, args.s)
    _, witness, note = conditions_mod.check_c2(
        ring, level_cap=fusion_mod.SEARCH_LEVEL_CAP
    )
    if witness is None:
        raise EasyQGError(f"no k0 for family {args.family}: {note}")
    k_0 = witness[1]
    report = ktheory_mod.k_groups(
        ring, ring.fundamental(), k_0, args.L, family=args.family
    )
    return report.to_dict()


def _run_intertwiners(args) -> dict:
    from . import tmaps as tmaps_mod

    bound = args.max_points
    if bound is None:
        bound = max(args.k + args.l, 2)
    sample = family_category(args.family, bound, s=args.s)
    dim, basis = tmaps_mod.intertwiner_dim(sample, args.k, args.l, args.n)
    return {
        "dim": dim,
        "basis": [to_literal(p) for p in basis],
        "max_points": bound,
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        payload = args.run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EasyQGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(payload, args.format)
    if getattr(args, "strict", False) and not payload["K0_stabilized"]:
        return EXIT_NONSTABLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
