"""The command-line surface: payloads, determinism, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from easyqg.categories import FAMILIES
from easyqg.cli import (
    EXIT_NONSTABLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    build_parser,
    main,
)
from easyqg.fusion import SEARCH_LEVEL_CAP
from easyqg.partitions import to_literal

import helpers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_partition_compose(capsys):
    # the cup stacked above the cap closes into a loop
    payload = run_json(
        capsys,
        "partition", "compose", "P(0,2;;ww;{{1,2}})", "P(2,0;ww;;{{1,2}})",
    )
    assert payload == {"result": "P(0,0;;;{})", "removed_blocks": 1}


def test_partition_kparam(capsys):
    payload = run_json(
        capsys, "partition", "kparam", "--family", "O+", "--max-points", "8"
    )
    assert payload["k"] == 2 and payload["saturated"] is True


def test_partition_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "partition", "involute", "P(1,1;w;w;{1,2})")
    assert code == EXIT_PARSE
    assert "error" in err


def test_partition_precondition_exit_3(capsys):
    code, _, _ = run(
        capsys,
        "partition", "compose", "P(0,2;;wb;{{1,2}})", "P(2,0;ww;;{{1,2}})",
    )
    assert code == EXIT_PRECONDITION


def test_fusion_decompose(capsys):
    payload = run_json(
        capsys, "fusion", "decompose", "--family", "H+", "--s", "2",
        "r[1]", "r[1]",
    )
    assert payload == {"r[1,1]@2": 1, "r[2]@2": 1, "r[]@2": 1}


def test_fusion_chaingroup(capsys):
    payload = run_json(
        capsys, "fusion", "chaingroup", "--family", "H+", "--s", "4"
    )
    assert payload == {"order": 4}


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "H+", "--s", "3", "--level-cap", "1"),
        ("--family", "O+", "--level-cap", "0"),
    ],
)
def test_fusion_chaingroup_small_cap_exit_3(capsys, argv):
    code, out, err = run(capsys, "fusion", "chaingroup", *argv)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_fusion_degree(capsys):
    payload = run_json(
        capsys, "fusion", "degree", "--family", "H+", "--s", "3", "r[1,2,1]"
    )
    assert payload == {"degree": 4}


def test_fusion_missing_s_exit_2(capsys):
    code, _, _ = run(capsys, "fusion", "degree", "--family", "H+", "r[1]")
    assert code == EXIT_PARSE


def test_fusion_bad_label_exit_2(capsys):
    code, _, _ = run(
        capsys, "fusion", "degree", "--family", "H+", "--s", "3", "r[7]"
    )
    assert code == EXIT_PARSE


@pytest.mark.parametrize("label", ["r[1,,2]@3", "r[1,]@3", "r[,]@3", "r[1 2]@3"])
def test_fusion_malformed_word_label_exit_2(capsys, label):
    code, out, err = run(capsys, "fusion", "degree", "--family", "H+", "--s", "3", label)
    assert code == EXIT_PARSE
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_fusion_modulus_mismatch_exit_3(capsys):
    code, _, _ = run(
        capsys, "fusion", "degree", "--family", "H+", "--s", "3", "r[1]@2"
    )
    assert code == EXIT_PRECONDITION


def test_conditions_u_plus(capsys):
    payload = run_json(capsys, "conditions", "--family", "U+")
    assert payload["C1"]["status"] == "fails"
    assert payload["C2"]["status"] == "fails"
    assert payload["CP1"]["status"] == "fails"
    assert payload["CP2"]["status"] == "fails"


def test_conditions_generator_beyond_bound(capsys):
    payload = run_json(capsys, "conditions", "--family", "H+", "--s", "9")
    assert payload["k"] == 0
    assert payload["CP1"]["status"] == "undetermined"
    assert payload["CP2"]["status"] == "undetermined"
    assert payload["cp_rule"] == "none"
    assert payload["consistent"] is True


def test_ktheory_o_plus(capsys):
    payload = run_json(capsys, "ktheory", "--family", "O+", "--L", "8")
    assert payload["K0"] == {"rank": 1, "torsion": []}
    assert payload["K0_stabilized"] is True
    assert payload["K1"] == 0
    assert payload["unit_class"] == 1


def test_ktheory_h_family(capsys):
    payload = run_json(
        capsys, "ktheory", "--family", "H+", "--s", "2", "--L", "5"
    )
    assert payload["K1"] == 0
    assert payload["K0_stabilized"] is False
    ranks = [
        level["coker"]["rank"]
        for level in payload["levels"]
        if level["coker"] is not None
    ]
    assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)
    assert all(
        level["coker"]["torsion"] == []
        for level in payload["levels"]
        if level["coker"] is not None
    )


def test_ktheory_h_family_s1_is_s_plus(capsys):
    payload = run_json(
        capsys, "ktheory", "--family", "H+", "--s", "1", "--L", "3"
    )
    assert payload["K0"] == {"rank": 1, "torsion": []}
    assert payload["K0_stabilized"] is True
    assert payload["unit_class"] == 1
    assert payload["K1"] == 0


def test_conditions_level_cap_cuts_gap_search(capsys):
    payload = run_json(
        capsys, "conditions", "--family", "O+", "--level-cap", "1"
    )
    assert payload["C2"]["status"] == "undetermined"
    assert payload["C2"]["witness"] is None
    assert payload["consistent"] is True


def test_conditions_default_level_cap_is_the_search_cap(capsys):
    payload = run_json(capsys, "conditions", "--family", "O+")
    assert payload["bounds_used"]["level_cap"] == SEARCH_LEVEL_CAP


def test_python_dash_m_matches_main(capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    argv = ["ktheory", "--family", "O+", "--L", "2"]
    code, expected, _ = run(capsys, *argv)
    assert code == EXIT_OK
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "easyqg", *argv],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ("intertwiners", "--family", "O+", "--k", "1", "--l", "1", "--n", "0"),
        ("intertwiners", "--family", "O+", "--k", "-1", "--l", "1", "--n", "2"),
        ("fusion", "chaingroup", "--family", "O+", "--level-cap", "-1"),
        ("fusion", "power", "--family", "O+", "--l", "-1"),
        ("conditions", "--family", "O+", "--level-cap", "-1"),
        ("conditions", "--family", "O+", "--degree-cap", "-1"),
        ("ktheory", "--family", "O+", "--L", "0"),
        ("category", "--family", "O+", "--max-points", "1"),
    ],
)
def test_count_below_minimum_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --")


def test_malformed_entry_cap_exit_2():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, EASYQG_MAX_TMAP_ENTRIES="abc")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "easyqg", "intertwiners", "--family", "S+",
         "--k", "2", "--l", "2", "--n", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: EASYQG_MAX_TMAP_ENTRIES")
    assert "Traceback" not in proc.stderr


def test_cli_import_loads_only_the_cheap_layers():
    # a fresh interpreter, because this one has imported every module already
    import subprocess
    import sys
    from pathlib import Path

    code = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import easyqg.cli
heavy = ("easyqg.tmaps", "easyqg.ktheory", "easyqg.conditions", "dataclasses", "fractions")
loaded = sorted(set(heavy) & (set(sys.modules) - before))
with contextlib.redirect_stdout(io.StringIO()):
    code = easyqg.cli.main(["intertwiners", "--family", "O+", "--k", "1", "--l", "1", "--n", "2"])
print(json.dumps({"loaded": loaded, "code": code, "tmaps": "easyqg.tmaps" in sys.modules}))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [], "code": EXIT_OK, "tmaps": True}


def test_heavy_layers_load_no_record_or_decimal_machinery():
    # a fresh interpreter, because this one has imported every module already
    import subprocess
    import sys
    from pathlib import Path

    code = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import easyqg.cli
avoided = ("dataclasses", "inspect", "fractions", "decimal")
jobs = [
    ["conditions", "--family", "H+", "--s", "2", "--max-points", "6"],
    ["ktheory", "--family", "O+", "--L", "4"],
    ["intertwiners", "--family", "S+", "--k", "2", "--l", "2", "--n", "2"],
]
report = []
for job in jobs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = easyqg.cli.main(job)
    report.append([job[0], code, [m for m in avoided if m in sys.modules]])
from easyqg import family_category, identity_power, projective_projection
rep = projective_projection(identity_power(2), family_category("S+", 4), 2)
report.append(["projection", rep.verify(), "fractions" in sys.modules])
print(json.dumps(report))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["conditions", EXIT_OK, []],
        ["ktheory", EXIT_OK, []],
        ["intertwiners", EXIT_OK, []],
        ["projection", True, True],
    ]


def test_ktheory_strict_exit_4(capsys):
    code, _, _ = run(
        capsys, "ktheory", "--family", "H+", "--s", "2", "--L", "3", "--strict"
    )
    assert code == EXIT_NONSTABLE


def test_intertwiners(capsys):
    payload = run_json(
        capsys,
        "intertwiners", "--family", "O+", "--k", "0", "--l", "4", "--n", "2",
    )
    assert payload["dim"] == 2
    assert len(payload["basis"]) == 2


def test_category_generators(capsys):
    payload = run_json(
        capsys,
        "category", "--generators", "--max-points", "4", "--list-members",
    )
    assert payload["k"] == 0
    assert payload["saturated"] is True
    assert "P(1,1;w;w;{{1,2}})" in payload["members"]


def test_category_family(capsys):
    payload = run_json(
        capsys, "category", "--family", "H+", "--s", "2", "--max-points", "4"
    )
    assert payload["k"] == 2
    assert payload["member_count"] > 0


def test_json_output_byte_identical(capsys):
    code, first, _ = run(capsys, "conditions", "--family", "H+", "--s", "3")
    assert code == EXIT_OK
    code, second, _ = run(capsys, "conditions", "--family", "H+", "--s", "3")
    assert code == EXIT_OK
    assert first == second


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("easyqg")
    assert exe is not None
    proc = subprocess.run(
        [exe, "fusion", "chaingroup", "--family", "H+", "--s", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"order": 3}


def test_text_format(capsys):
    code, out, _ = run(
        capsys,
        "fusion", "degree", "--family", "H+", "--s", "3", "r[1,2,1]",
        "--format", "text",
    )
    assert code == EXIT_OK
    assert out.strip() == "degree: 4"


# -- the exit-code contract, over argv drawn from the subcommand table ---------


def _leaves(parser, path=()):
    """``(path, parser)`` of every leaf subcommand, in the parser's order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return [
                leaf
                for name, sub in action.choices.items()
                for leaf in _leaves(sub, path + (name,))
            ]
    return [(path, parser)]


_LITERALS = st.one_of(
    helpers.colored_partitions(max_points=4).map(to_literal),
    st.sampled_from(["P(1,1;w;w;{1,2})", "P(2,0;wb;;{{1,2}})", "P(1"]),
)
_LABELS = st.sampled_from(["u0", "u1", "u2", "u3", "r[]", "r[1]", "r[2,1]", "r[3]@3", "r[5]", "v"])
# one strategy per argparse dest; each count reaches one below its least value
_VALUES = {
    "literals": _LITERALS,
    "generators": _LITERALS,
    "corner": st.sampled_from(["UL", "UR", "LL", "LR"]),
    "family": st.sampled_from(FAMILIES),
    "s": st.integers(-1, 4),
    "labels": _LABELS,
    "label": _LABELS,
    "max_points": st.integers(1, 6),
    "k": st.integers(-1, 6),
    "l": st.integers(-1, 6),
    "n": st.integers(0, 3),
    "L": st.integers(0, 3),
    "level_cap": st.integers(-1, 4),
    "degree_cap": st.integers(-1, 4),
}


@st.composite
def cli_argv(draw):
    path, parser = draw(st.sampled_from(_leaves(build_parser())))
    positional, options, drawn = [], [], {}
    for action in parser._actions:
        if action.dest in ("help", "format"):
            continue
        # positionals and required options always, other options sometimes
        if action.option_strings and not action.required and not draw(st.booleans()):
            continue
        if action.nargs == 0:
            options.append(action.option_strings[0])
            continue
        if action.nargs == "*":
            count = draw(st.integers(0, 2))
        else:
            count = action.nargs or 1
        drawn[action.dest] = [draw(_VALUES[action.dest]) for _ in range(count)]
        words = [str(v) for v in drawn[action.dest]]
        if action.option_strings:
            options += [action.option_strings[0], *words]
        else:
            positional += words
    assume(sum(drawn.get("k", [])) + sum(drawn.get("l", [])) <= 6)
    return [*path, *positional, *options]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(cli_argv())
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
            assert code == EXIT_PARSE
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_NONSTABLE), argv
    if code in (EXIT_OK, EXIT_NONSTABLE):
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == "", argv
        assert "Traceback" not in err.getvalue()


def test_format_follows_the_leaf_subcommand(capsys):
    literal = "P(1,1;w;w;{{1,2}})"
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--format", "text", "involute", literal])
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().out == ""
    code, out, _ = run(capsys, "partition", "involute", "--format", "text", literal)
    assert code == EXIT_OK
    assert out == f"result: {literal}\n"
