"""The benchmark tracer still finds every easyqg name it wraps."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import runner  # noqa: E402
import workloads  # noqa: E402


def test_tracer_install_runs():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import tracer; tracer.install()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_lazily_imported_layers():
    # cli imports tmaps and conditions only inside the subcommand, after the
    # tracer has wrapped them, so the wrappers must be the ones called
    jobs = [
        (workloads.o_plus(2, 2, 3), "tmaps.rank_vectors"),
        (workloads.cli("conditions-O+", "conditions", "--family", "O+",
                       check=workloads.conditions_check(2)), "conditions.check_c2_s"),
        (workloads.cli("ktheory-O+-L8", "ktheory", "--family", "O+", "--L", 8,
                       check=workloads.ladder_ktheory(2, 8)), "ktheory.diagram_check_s"),
    ]
    for job, metric in jobs:
        result = runner.run_job(job, trace=True)
        assert not result.failed, result.problem
        assert result.trace["metrics"][metric] > 0, metric
