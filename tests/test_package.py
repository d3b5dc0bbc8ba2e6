"""The package exports: each name resolves on first use to its module's object."""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

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


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: easyqg.get_ring("H+"), easyqg.PreconditionError, id="get_ring-s-None"),
    pytest.param(lambda: easyqg.get_ring("H+", 0), easyqg.PreconditionError, id="get_ring-s-0"),
    pytest.param(lambda: easyqg.family_generators("H+"), easyqg.PreconditionError,
                 id="family_generators-s-None"),
    pytest.param(lambda: easyqg.family_generators("H+", 0), easyqg.PreconditionError,
                 id="family_generators-s-0"),
    pytest.param(lambda: easyqg.family_generators("B+"), easyqg.WrongFamily,
                 id="family_generators-unknown"),
    pytest.param(lambda: easyqg.family_category("H+", 4), easyqg.PreconditionError,
                 id="family_category-s-None"),
    pytest.param(lambda: easyqg.family_category("H+", 4, s=0), easyqg.PreconditionError,
                 id="family_category-s-0"),
    pytest.param(lambda: easyqg.PartitionCategorySample((), 4, True, family="B+"),
                 easyqg.WrongFamily, id="block_rule-unknown"),
    pytest.param(lambda: easyqg.PartitionCategorySample((), 4, True, words={}),
                 easyqg.PreconditionError, id="sample-missing-base"),
    pytest.param(lambda: easyqg.rotate(easyqg.identity(), "UX"), easyqg.PreconditionError,
                 id="rotate-corner-unknown"),
    pytest.param(lambda: easyqg.HWordRing(0), easyqg.PreconditionError, id="HWordRing-s-0"),
    pytest.param(lambda: easyqg.SU2Ring().vector_power({1: 1}, -1), easyqg.PreconditionError,
                 id="vector_power-negative"),
    pytest.param(lambda: easyqg.SU2Ring().dim(-1, 5), easyqg.NotReachable, id="SU2Ring-dim-u-1"),
    pytest.param(lambda: easyqg.SO3Ring().dim(-2, 5), easyqg.NotReachable, id="SO3Ring-dim-u-2"),
    pytest.param(lambda: easyqg.SO3Ring().dim(3, 5), easyqg.OddLabel, id="SO3Ring-dim-odd"),
    pytest.param(lambda: easyqg.HWordRing(2).dim((5,), 4), easyqg.NotReachable,
                 id="HWordRing-dim-letter-above-s"),
    pytest.param(lambda: easyqg.HWordRing(2).dim((0, 1), 4), easyqg.NotReachable,
                 id="HWordRing-dim-letter-0"),
    pytest.param(lambda: easyqg.chain_group_order(easyqg.SU2Ring(), -1), easyqg.PreconditionError,
                 id="chain_group_order-cap-negative"),
    pytest.param(lambda: easyqg.build_levels(easyqg.SU2Ring(), {1: 1}, 0, 2),
                 easyqg.PreconditionError, id="build_levels-k_0-0"),
    pytest.param(lambda: easyqg.build_levels(easyqg.SU2Ring(), {1: 1}, 2, -1),
                 easyqg.PreconditionError, id="build_levels-levels-negative"),
    pytest.param(lambda: easyqg.k_groups(easyqg.SU2Ring(), {1: 1}, 2, 0),
                 easyqg.PreconditionError, id="k_groups-levels-0"),
    pytest.param(lambda: easyqg.IntMatrix([[1, 2], [3]]), easyqg.PreconditionError,
                 id="IntMatrix-ragged-rows"),
    pytest.param(lambda: easyqg.IntMatrix([[1, 2]], rows=2), easyqg.PreconditionError,
                 id="IntMatrix-row-count-mismatch"),
    pytest.param(lambda: easyqg.IntMatrix([[2.5, 0], [0, 1]]), easyqg.PreconditionError,
                 id="IntMatrix-fractional-entry"),
    pytest.param(lambda: easyqg.IntMatrix([["a"]]), easyqg.PreconditionError,
                 id="IntMatrix-string-entry"),
    pytest.param(lambda: easyqg.IntMatrix.from_columns(1, [{0: 2.5}]),
                 easyqg.PreconditionError, id="IntMatrix-from_columns-fractional-entry"),
    pytest.param(lambda: easyqg.FGAbelianGroup(-1), easyqg.PreconditionError,
                 id="FGAbelianGroup-negative-rank"),
    pytest.param(lambda: easyqg.FGAbelianGroup(0, (1,)), easyqg.PreconditionError,
                 id="FGAbelianGroup-torsion-1"),
    pytest.param(lambda: easyqg.FGAbelianGroup(0, (4, 6)), easyqg.PreconditionError,
                 id="FGAbelianGroup-no-divisibility-chain"),
    pytest.param(lambda: easyqg.ColoredPartition(1, 0, "", "", [(1,)]), easyqg.ShapeMismatch,
                 id="ColoredPartition-color-length"),
    pytest.param(lambda: easyqg.ColoredPartition(1, 0, "x", "", [(1,)]),
                 easyqg.PreconditionError, id="ColoredPartition-bad-color"),
    pytest.param(lambda: easyqg.ColoredPartition(2, 0, "ww", "", [(1,), (1, 2)]),
                 easyqg.PreconditionError, id="ColoredPartition-bad-blocks"),
    pytest.param(lambda: easyqg.t_map(easyqg.identity(), 0), easyqg.PreconditionError,
                 id="t_map-n-0"),
    pytest.param(lambda: easyqg.intertwiner_dim(easyqg.family_category("O+", 4), -1, 3, 2),
                 easyqg.PreconditionError, id="intertwiner_dim-k-negative"),
    pytest.param(lambda: easyqg.intertwiner_dim(easyqg.family_category("O+", 4), 3, -1, 2),
                 easyqg.PreconditionError, id="intertwiner_dim-l-negative"),
    pytest.param(lambda: easyqg.ExactMatrix(1, 1, {(1, 0): 1}), easyqg.IndexOutOfRange,
                 id="ExactMatrix-entry-outside"),
])
def test_out_of_domain_calls_raise_typed_errors(call, error):
    # the CLI rejects these arguments first; a library caller gets the same
    # typed errors, which are still ValueErrors
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, easyqg.EasyQGError)
    assert isinstance(info.value, ValueError)


def test_src_raises_no_bare_value_error():
    # a caller catches EasyQGError for every rejected input; a bare
    # ValueError would escape that handler
    offenders = []
    for path in sorted(Path(easyqg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
