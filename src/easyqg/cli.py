"""Batch command-line front end.

Every computation is a subcommand emitting deterministic JSON (the machine
contract) or a plain-text rendering.  Exit codes: 0 success, 2 parse or
usage error, 3 precondition violation, 4 non-stabilizing K-theory run
under --strict.

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


def _emit(payload: dict, fmt: str, out=None) -> None:
    stream = out or sys.stdout
    if fmt == "json":
        stream.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for key in sorted(payload):
            stream.write(f"{key}: {payload[key]}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _add_family(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=FAMILIES, required=True)
    parser.add_argument("--s", type=int, default=None, help="s for H+")


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


def _check_counts(args) -> None:
    for dest, least in _COUNT_MINIMA.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise ParseError(f"--{dest.replace('_', '-')} must be >= {least}")


def _require_s(args) -> int | None:
    if args.family == "H+":
        if args.s is None or args.s < 1:
            raise ParseError("family H+ requires --s >= 1")
        return args.s
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="easyqg",
        description="exact partition-category, fusion and K-theory computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="single partition operations")
    _add_common(p_part)
    part_sub = p_part.add_subparsers(dest="action", required=True)
    for name, arity in (
        ("compose", 2),
        ("tensor", 2),
        ("involute", 1),
        ("rotate", 1),
        ("noncrossing", 1),
        ("projective", 1),
        ("colorcounts", 1),
    ):
        sp = part_sub.add_parser(name)
        _add_common(sp)
        sp.add_argument("literals", nargs=arity, metavar="PARTITION")
        if name == "rotate":
            sp.add_argument("--corner", choices=("UL", "UR", "LL", "LR"),
                            required=True)
    sp = part_sub.add_parser("kparam")
    _add_common(sp)
    _add_family(sp)
    sp.add_argument("--max-points", type=int, default=8)

    p_cat = sub.add_parser("category", help="bounded category samples")
    _add_common(p_cat)
    p_cat.add_argument("--family", choices=FAMILIES)
    p_cat.add_argument("--s", type=int, default=None)
    p_cat.add_argument("--generators", nargs="*", default=None,
                       metavar="PARTITION", help="closure generators")
    p_cat.add_argument("--max-points", type=int, default=6)
    p_cat.add_argument("--list-members", action="store_true")

    p_fus = sub.add_parser("fusion", help="fusion ring computations")
    _add_common(p_fus)
    fus_sub = p_fus.add_subparsers(dest="action", required=True)
    sp = fus_sub.add_parser("decompose")
    _add_common(sp)
    _add_family(sp)
    sp.add_argument("labels", nargs=2, metavar="LABEL")
    sp = fus_sub.add_parser("power")
    _add_common(sp)
    _add_family(sp)
    sp.add_argument("--l", type=int, required=True)
    sp = fus_sub.add_parser("degree")
    _add_common(sp)
    _add_family(sp)
    sp.add_argument("label", metavar="LABEL")
    sp.add_argument("--level-cap", type=int, default=fusion_mod.DEFAULT_LEVEL_CAP)
    sp = fus_sub.add_parser("chaingroup")
    _add_common(sp)
    _add_family(sp)
    sp.add_argument("--level-cap", type=int, default=fusion_mod.SEARCH_LEVEL_CAP)
    sp = fus_sub.add_parser("dim")
    _add_common(sp)
    _add_family(sp)
    sp.add_argument("label", metavar="LABEL")
    sp.add_argument("--n", type=int, required=True)

    p_cond = sub.add_parser("conditions", help="condition reports")
    _add_common(p_cond)
    _add_family(p_cond)
    p_cond.add_argument("--max-points", type=int, default=8)
    p_cond.add_argument("--degree-cap", type=int, default=6)
    p_cond.add_argument("--level-cap", type=int, default=fusion_mod.SEARCH_LEVEL_CAP)

    p_kth = sub.add_parser("ktheory", help="inductive-limit K-theory")
    _add_common(p_kth)
    _add_family(p_kth)
    p_kth.add_argument("--L", type=int, required=True, help="level count")
    p_kth.add_argument("--strict", action="store_true",
                       help="exit 4 when K0 does not stabilize")

    p_int = sub.add_parser("intertwiners", help="intertwiner-space dimensions")
    _add_common(p_int)
    _add_family(p_int)
    p_int.add_argument("--k", type=int, required=True)
    p_int.add_argument("--l", type=int, required=True)
    p_int.add_argument("--n", type=int, required=True)
    p_int.add_argument("--max-points", type=int, default=None)

    return parser


def _run_partition(args) -> dict:
    if args.action == "kparam":
        s = _require_s(args)
        sample = family_category(args.family, args.max_points, s=s)
        return {
            "k": k_param(sample),
            "saturated": sample.saturated,
            "max_points": args.max_points,
        }
    parts = [parse_partition(text) for text in args.literals]
    if args.action == "compose":
        # first literal is stacked above the second: result = (second)(first)
        result, removed = compose(parts[1], parts[0])
        return {"result": to_literal(result), "removed_blocks": removed}
    if args.action == "tensor":
        return {"result": to_literal(tensor(parts[0], parts[1]))}
    if args.action == "involute":
        return {"result": to_literal(involute(parts[0]))}
    if args.action == "rotate":
        return {"result": to_literal(rotate(parts[0], args.corner))}
    if args.action == "noncrossing":
        return {"result": is_noncrossing(parts[0])}
    if args.action == "projective":
        return {"result": is_projective(parts[0])}
    if args.action == "colorcounts":
        c_w, c_b, c = color_counts(parts[0])
        return {"c_white": c_w, "c_black": c_b, "c": c}
    raise ParseError(f"unknown partition action {args.action!r}")


def _run_category(args) -> dict:
    if (args.family is None) == (args.generators is None):
        raise ParseError("give exactly one of --family or --generators")
    if args.family is not None:
        sample = family_category(args.family, args.max_points, s=_require_s(args))
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


def _run_fusion(args) -> dict:
    s = _require_s(args)
    ring = fusion_mod.get_ring(args.family, s)
    if args.action == "decompose":
        a = ring.parse_label(args.labels[0])
        b = ring.parse_label(args.labels[1])
        return fusion_mod.format_vector(ring, ring.decompose(a, b))
    if args.action == "power":
        return fusion_mod.format_vector(ring, ring.power(args.l))
    if args.action == "degree":
        label = ring.parse_label(args.label)
        return {"degree": ring.degree(label, args.level_cap)}
    if args.action == "chaingroup":
        return {"order": fusion_mod.chain_group_order(ring, args.level_cap)}
    if args.action == "dim":
        label = ring.parse_label(args.label)
        return {"dim": ring.dim(label, args.n)}
    raise ParseError(f"unknown fusion action {args.action!r}")


def _run_conditions(args) -> dict:
    from . import conditions as conditions_mod

    s = _require_s(args)
    report = conditions_mod.evaluate_conditions(
        args.family,
        s=s,
        max_points=args.max_points,
        degree_cap=args.degree_cap,
        level_cap=args.level_cap,
    )
    return report.to_dict()


def _run_ktheory(args) -> tuple[dict, bool]:
    from . import conditions as conditions_mod
    from . import ktheory as ktheory_mod

    s = _require_s(args)
    ring = fusion_mod.get_ring(args.family, s)
    _, witness, note = conditions_mod.check_c2(
        ring, level_cap=fusion_mod.SEARCH_LEVEL_CAP
    )
    if witness is None:
        raise EasyQGError(f"no k0 for family {args.family}: {note}")
    k_0 = witness[1]
    report = ktheory_mod.k_groups(
        ring, ring.fundamental(), k_0, args.L, family=args.family
    )
    return report.to_dict(), report.k0_stabilized


def _run_intertwiners(args) -> dict:
    from . import tmaps as tmaps_mod

    s = _require_s(args)
    bound = args.max_points
    if bound is None:
        bound = max(args.k + args.l, 2)
    sample = family_category(args.family, bound, s=s)
    dim, basis = tmaps_mod.intertwiner_dim(sample, args.k, args.l, args.n)
    return {
        "dim": dim,
        "basis": [to_literal(p) for p in basis],
        "max_points": bound,
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        if args.command == "partition":
            payload = _run_partition(args)
        elif args.command == "category":
            payload = _run_category(args)
        elif args.command == "fusion":
            payload = _run_fusion(args)
        elif args.command == "conditions":
            payload = _run_conditions(args)
        elif args.command == "ktheory":
            payload, stabilized = _run_ktheory(args)
            _emit(payload, args.format)
            if args.strict and not stabilized:
                return EXIT_NONSTABLE
            return EXIT_OK
        elif args.command == "intertwiners":
            payload = _run_intertwiners(args)
        else:
            raise ParseError(f"unknown command {args.command!r}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EasyQGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(payload, args.format)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
