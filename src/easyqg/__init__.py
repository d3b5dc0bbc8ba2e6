"""easyqg: exact combinatorics of free easy quantum group fixed points.

Partition categories and their linear realizations, fusion rings, the
conditions controlling Kirchberg fixed-point algebras, and the
inductive-limit K-theory computation, all in exact arithmetic.

The exported names resolve on first use (PEP 562): ``from easyqg import
t_map`` imports ``easyqg.tmaps`` then, and ``import easyqg`` alone loads
no submodule.
"""

from importlib import import_module

_EXPORTS = {
    "categories": (
        "PartitionCategorySample",
        "family_category",
        "family_generators",
        "generate_category",
        "k_param",
    ),
    "conditions": (
        "ConditionReport",
        "check_c1",
        "check_c2",
        "check_c2_partition_proxy",
        "classify_cp",
        "cp2_witness",
        "evaluate_conditions",
    ),
    "errors": (
        "BoundTooSmall",
        "ColorMismatch",
        "EasyQGError",
        "EmptyRow",
        "InconsistentDimension",
        "IndexOutOfRange",
        "MissingSubprojectives",
        "ModulusMismatch",
        "NotProjective",
        "NotReachable",
        "OddLabel",
        "ParseError",
        "PreconditionError",
        "ShapeMismatch",
        "SizeOverflow",
        "WrongFamily",
    ),
    "fusion": (
        "FusionRing",
        "HWordRing",
        "SO3Ring",
        "SU2Ring",
        "chain_group_order",
        "get_ring",
    ),
    "ktheory": (
        "FGAbelianGroup",
        "IntMatrix",
        "InductiveLimitReport",
        "LevelModule",
        "bareiss_determinant",
        "build_levels",
        "check_diagram_commutes",
        "invariant_factors",
        "k_groups",
        "phi_structure_check",
        "smith_normal_form",
    ),
    "partitions": (
        "BLACK",
        "WHITE",
        "ColoredPartition",
        "b_block",
        "color_counts",
        "compose",
        "empty_partition",
        "four_block_wwbb",
        "identity",
        "identity_power",
        "involute",
        "is_noncrossing",
        "is_projective",
        "lower_pair",
        "one_block",
        "parse_partition",
        "precedes",
        "rotate",
        "singleton",
        "tensor",
        "to_literal",
        "vertical_pair",
    ),
    "tmaps": (
        "ExactMatrix",
        "ProjectionReport",
        "check_functoriality",
        "cp1_witness_check",
        "delta_p",
        "intertwiner_dim",
        "matrix_rank",
        "projective_projection",
        "t_map",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # an unknown name raises AttributeError, so `from easyqg import tmaps`
    # falls back to importing the submodule
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
