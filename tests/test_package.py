"""The package exports: each name resolves on first use to its module's object."""

from __future__ import annotations

import importlib
import types

import pytest

import easyqg

# the names `easyqg` exported when it still imported every module eagerly
EXPORTED = sorted("""
    BLACK BoundTooSmall ColorMismatch ColoredPartition ConditionReport EasyQGError
    EmptyRow ExactMatrix FGAbelianGroup FusionRing HWordRing InconsistentDimension
    IndexOutOfRange InductiveLimitReport IntMatrix LevelModule MissingSubprojectives
    ModulusMismatch NotProjective NotReachable OddLabel ParseError
    PartitionCategorySample PreconditionError ProjectionReport SO3Ring SU2Ring
    ShapeMismatch SizeOverflow WHITE WrongFamily b_block bareiss_determinant
    build_levels chain_group_order check_c1 check_c2 check_c2_partition_proxy
    check_diagram_commutes check_functoriality classify_cp color_counts compose
    cp1_witness_check cp2_witness delta_p empty_partition evaluate_conditions
    family_category family_generators four_block_wwbb generate_category get_ring
    identity identity_power intertwiner_dim invariant_factors involute is_noncrossing
    is_projective k_groups k_param lower_pair matrix_rank one_block parse_partition
    phi_structure_check precedes projective_projection rotate singleton
    smith_normal_form t_map tensor to_literal vertical_pair
""".split())


def test_all_is_the_pinned_export_list():
    assert sorted(easyqg.__all__) == EXPORTED
    assert easyqg.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPORTED)
def test_export_is_its_modules_object(name):
    namespace = {}
    exec(f"from easyqg import {name}", namespace)
    value = namespace[name]
    home = importlib.import_module(f"easyqg.{easyqg._MODULE_OF[name]}")
    assert value is getattr(home, name)
    assert getattr(easyqg, name) is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        easyqg.no_such_name


def test_submodules_still_import_by_name():
    from easyqg import ktheory, tmaps

    assert isinstance(tmaps, types.ModuleType) and tmaps.__name__ == "easyqg.tmaps"
    assert isinstance(ktheory, types.ModuleType) and ktheory.__name__ == "easyqg.ktheory"


def test_dir_lists_the_exports():
    assert set(EXPORTED) <= set(dir(easyqg))
