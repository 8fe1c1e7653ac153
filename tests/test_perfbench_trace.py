"""The benchmark's traced path: `perfbench/tracer.py` runs a command, checks
sampled smoother queries against least squares, and leaves its result files
exactly as an untraced run writes them."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rdsafe.cli import main as cli_main
from rdsafe.core import serialize_dataset
from rdsafe.simlab import ScenarioSpec, generate

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# command -> (arguments, result files, whether it reads the data files)
COMMANDS = {
    "learn": (["learn", "--seed", "17"], ["learned_policy.json", "objective_curves.csv",
                                          "bound_curves.csv"], True),
    "sensitivity": (["sensitivity", "--seed", "17", "--multipliers", "0", "1", "4",
                     "--costs", "0", "0.5"], ["sweep.csv"], True),
    "simulate": (["simulate", "--scenarios", "A", "B", "--sizes", "1000", "--multipliers", "1",
                  "--reps", "2", "--seed", "5"], ["regret.csv", "regret_meta.json"], False),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The criterion-9 data: scenario B, n = 1500, seed 33."""
    d = tmp_path_factory.mktemp("trace")
    (d / "data.csv").write_text(serialize_dataset(generate(ScenarioSpec("B"), 1500, 33)))
    (d / "design.yaml").write_text("1: -850\n2: -571\n")
    return ["--input", str(d / "data.csv"), "--design", str(d / "design.yaml")]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_traced_run_checks_and_matches_untraced(inputs, tmp_path, command):
    args, files, reads_data = COMMANDS[command]
    if reads_data:
        args = [*args, *inputs]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                         os.environ.get("PYTHONPATH")])))
    spans = tmp_path / "spans.json"
    traced = tmp_path / "traced"
    proc = subprocess.run([sys.executable, str(TRACER), str(spans), *args, "--out", str(traced)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(spans.read_text())
    assert report["spot_errors"] == []
    assert report["spot_checked"] >= 200

    plain = tmp_path / "plain"
    assert cli_main([*args, "--out", str(plain)]) == 0
    for name in files:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
