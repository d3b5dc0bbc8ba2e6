"""The report records: positional fields, defaults, value equality and
which of them are immutable."""

from __future__ import annotations

import pytest

from easyqg import ExactMatrix, identity
from easyqg.conditions import FAILS, HOLDS, ConditionReport, CPVerdicts
from easyqg.ktheory import FGAbelianGroup, LevelModule, StepReport
from easyqg.tmaps import ProjectionReport


def test_fg_abelian_group_is_an_immutable_value():
    group = FGAbelianGroup(1, (2, 4))
    assert group == FGAbelianGroup(1, (2, 4))
    assert group != FGAbelianGroup(1, (4,)) and group != (1, (2, 4))
    assert hash(group) == hash(FGAbelianGroup(1, (2, 4)))
    assert len({group, FGAbelianGroup(1, (2, 4)), FGAbelianGroup(0)}) == 2
    assert FGAbelianGroup(2).torsion == ()
    with pytest.raises(AttributeError):
        group.free_rank = 2
    with pytest.raises(AttributeError):
        group.torsion = ()
    with pytest.raises(AttributeError):
        del group.torsion
    assert repr(group) == "FGAbelianGroup(free_rank=1, torsion=(2, 4))"
    listed = FGAbelianGroup(1, [2, 4])  # stored as a tuple, so hashable
    assert listed == group and hash(listed) == hash(group) and listed.torsion == (2, 4)


def test_level_module_ignores_psi_in_equality():
    a = LevelModule(0, 2, ("x", "y"), ("y",), {"x": {"y": 1}})
    b = LevelModule(0, 2, ("x", "y"), ("y",))
    assert a == b and hash(a) == hash(b)
    assert a != LevelModule(1, 2, ("x", "y"), ("y",))
    assert b.psi == {} and b.psi is not LevelModule(0, 2, (), ()).psi
    assert "psi" not in repr(a)
    with pytest.raises(AttributeError):
        a.psi = {}


def test_mutable_records_get_fresh_defaults():
    first = ConditionReport("O+", None, FAILS, {}, "", FAILS, None, "", CPVerdicts(0), True)
    second = ConditionReport("O+", None, FAILS, {}, "", FAILS, None, "", CPVerdicts(0), True)
    assert first == second and first.bounds_used == {}
    first.bounds_used["max_points"] = 8
    assert second.bounds_used == {} and first != second
    m = ExactMatrix.identity(1)
    one, two = ProjectionReport(identity(), m, m), ProjectionReport(identity(), m, m)
    one.sub_projectives_used.append(identity())
    assert two.sub_projectives_used == []
    with pytest.raises(TypeError):  # compared by value, so unhashable
        hash(one)


def test_cp_verdicts_defaults_and_assignment():
    verdicts = CPVerdicts(3)
    assert (verdicts.k, verdicts.cp1, verdicts.cp2, verdicts.rule) == (3, FAILS, FAILS, "a")
    assert verdicts.cp1_witness is None and verdicts.cp2_witness is None
    assert verdicts == CPVerdicts(3, FAILS, FAILS, "a", None, None)
    verdicts.rule = "b"
    assert verdicts != CPVerdicts(3)


def test_step_report_takes_its_fields_in_order():
    step = StepReport(0, 1, 2, 3, FGAbelianGroup(1), None, False, True)
    assert (step.from_level, step.to_level, step.ker_rank_phi, step.ker_rank_psi) == (0, 1, 2, 3)
    assert step.coker == FGAbelianGroup(1) and step.complement_labels is None
    assert not step.coker_rank_matches_complement and step.identity_on_persisting


def test_record_constructor_binds_keywords_like_positions():
    by_position = CPVerdicts(3, HOLDS, FAILS, "b")
    assert CPVerdicts(3, cp1=HOLDS, rule="b") == by_position
    assert CPVerdicts(rule="b", cp2=FAILS, k=3, cp1=HOLDS) == by_position
    level = LevelModule(0, 2, ("x",), (), {"x": {"y": 1}})
    named = LevelModule(psi={"x": {"y": 1}}, boundary_basis=(), basis=("x",), power=2, level=0)
    assert named == level and named.psi == level.psi


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: CPVerdicts(3, FAILS, FAILS, "a", None, None, None),
                 "takes 6 arguments", id="Record-too-many"),
    pytest.param(lambda: CPVerdicts(3, colour=1),
                 "unexpected keyword argument 'colour'", id="Record-unknown-keyword"),
    pytest.param(lambda: CPVerdicts(3, k=3),
                 "multiple values for argument 'k'", id="Record-given-twice"),
    pytest.param(lambda: CPVerdicts(cp1=FAILS),
                 "missing argument 'k'", id="Record-missing"),
    pytest.param(lambda: LevelModule(0, 2, (), (), {}, None),
                 "takes 5 arguments", id="FrozenRecord-too-many"),
    pytest.param(lambda: LevelModule(0, 2, (), (), flavour=1),
                 "unexpected keyword argument 'flavour'", id="FrozenRecord-unknown-keyword"),
    pytest.param(lambda: LevelModule(0, 2, (), (), power=2),
                 "multiple values for argument 'power'", id="FrozenRecord-given-twice"),
    pytest.param(lambda: LevelModule(0, 2, ()),
                 "missing argument 'boundary_basis'", id="FrozenRecord-missing"),
])
def test_record_constructor_rejects_what_a_signature_would(make, message):
    with pytest.raises(TypeError, match=message):
        make()
