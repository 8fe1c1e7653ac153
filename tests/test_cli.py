import json
import os

import pytest

from rdsafe.cli import main
from rdsafe.core import serialize_dataset
from rdsafe.simlab import ScenarioSpec, generate


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    spec = ScenarioSpec(scenario="B", n=1200)
    ds = generate(spec, seed=21)
    (d / "data.csv").write_text(serialize_dataset(ds))
    (d / "design.yaml").write_text("1: -850\n2: -571\n")
    return d


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestValidate:
    def test_ok(self, workdir, capsys):
        rc = main(["validate", "--input", str(workdir / "data.csv"),
                   "--design", str(workdir / "design.yaml")])
        assert rc == 0
        assert "ok:" in capsys.readouterr().out

    def test_missing_column_exit_3(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,w,y\n1,1,2\n")
        rc = main(["validate", "--input", str(bad),
                   "--design", str(workdir / "design.yaml")])
        assert rc == 3
        assert "'g'" in capsys.readouterr().err

    def test_sharp_violation_exit_3(self, workdir, tmp_path):
        body = read(workdir / "data.csv") + "-900.0,2,1,0.0\n"
        bad = tmp_path / "viol.csv"
        bad.write_text(body)
        rc = main(["validate", "--input", str(bad),
                   "--design", str(workdir / "design.yaml")])
        assert rc == 3

    def test_usage_error_exit_2(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--design", str(workdir / "design.yaml")])
        assert exc.value.code == 2


class TestLearn:
    def test_outputs_and_safety(self, workdir):
        out = workdir / "out1"
        rc = main(["learn", "--input", str(workdir / "data.csv"),
                   "--design", str(workdir / "design.yaml"),
                   "--out", str(out), "--seed", "3"])
        assert rc == 0
        result = json.loads(read(out / "learned_policy.json"))
        assert result["objective"]["learned"]["total"] >= result["objective"]["baseline"]["total"]
        assert result["provenance"]["seed"] == 3
        assert read(out / "objective_curves.csv").startswith("# config_hash=")
        assert read(out / "bound_curves.csv").splitlines()[1].startswith("w,g,g_ref,x,")

    def test_byte_identical_reruns(self, workdir):
        args = lambda o: ["learn", "--input", str(workdir / "data.csv"),
                          "--design", str(workdir / "design.yaml"),
                          "--out", o, "--seed", "5"]
        a, b = workdir / "outA", workdir / "outB"
        assert main(args(str(a))) == 0
        assert main(args(str(b))) == 0
        for name in ("learned_policy.json", "objective_curves.csv", "bound_curves.csv"):
            assert read(a / name) == read(b / name)

    def test_failed_run_leaves_no_files(self, workdir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,g,w,y\n")  # no rows: group-size check fails
        out = tmp_path / "never"
        rc = main(["learn", "--input", str(bad),
                   "--design", str(workdir / "design.yaml"), "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    def test_config_file_with_flag_override(self, workdir, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            f"input: {workdir / 'data.csv'}\n"
            f"design: {workdir / 'design.yaml'}\n"
            f"out: {tmp_path / 'cfgout'}\nseed: 4\nmultiplier: 2.0\n"
        )
        rc = main(["learn", "--config", str(cfg), "--seed", "9"])
        assert rc == 0
        result = json.loads(read(tmp_path / "cfgout" / "learned_policy.json"))
        assert result["provenance"]["seed"] == 9  # flag overrides config
        assert result["diagnostics"]["multiplier"] == 2.0

    def test_bad_clamp_rejected(self, workdir, tmp_path):
        rc = main(["learn", "--input", str(workdir / "data.csv"),
                   "--design", str(workdir / "design.yaml"),
                   "--out", str(tmp_path / "x"), "--clamp", "0.9"])
        assert rc == 3


class TestSensitivity:
    def test_row_count(self, workdir):
        out = workdir / "sens"
        rc = main(["sensitivity", "--input", str(workdir / "data.csv"),
                   "--design", str(workdir / "design.yaml"), "--out", str(out),
                   "--multipliers", "0", "1", "8", "--costs", "0"])
        assert rc == 0
        lines = read(out / "sweep.csv").splitlines()
        assert len(lines) == 2 + 3 * 2  # provenance + header + 3 M x 2 groups

    def test_empty_multipliers_usage_error(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sensitivity", "--input", str(workdir / "data.csv"),
                  "--design", str(workdir / "design.yaml"),
                  "--out", str(tmp_path / "y"), "--multipliers"])
        assert exc.value.code == 2


class TestSimulate:
    def test_report_files(self, workdir):
        out = workdir / "sim"
        rc = main(["simulate", "--scenarios", "A", "--sizes", "300",
                   "--multipliers", "1", "--reps", "2", "--seed", "8",
                   "--out", str(out)])
        assert rc == 0
        lines = read(out / "regret.csv").splitlines()
        assert len(lines) == 3  # provenance + header + 1 cell
        meta = json.loads(read(out / "regret_meta.json"))
        assert meta["generator"] == "PCG64" and meta["seed"] == 8

    def test_reps_validation(self, workdir, tmp_path):
        rc = main(["simulate", "--scenarios", "A", "--sizes", "300",
                   "--reps", "1", "--seed", "8", "--out", str(tmp_path / "z")])
        assert rc == 3

    def test_invalid_scenario_usage(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenarios", "Q", "--out", str(tmp_path / "q")])
        assert exc.value.code == 2


class TestLoaderExitCodes:
    def test_short_row_exit_3_names_its_line(self, workdir, tmp_path, capsys):
        body = read(workdir / "data.csv")
        bad = tmp_path / "short.csv"
        bad.write_text(body + "\n-900.0,1\n")  # a blank line, then a short row
        rc = main(["validate", "--input", str(bad), "--design", str(workdir / "design.yaml")])
        assert rc == 3
        line = len(body.splitlines()) + 1
        assert capsys.readouterr().err == f"error (validation): row {line}: expected 4 fields, got 2\n"

    def test_sharp_violation_exit_3_names_its_record(self, workdir, tmp_path, capsys):
        body = read(workdir / "data.csv")
        bad = tmp_path / "viol.csv"
        bad.write_text(body + "\n-900.0,2,1,0.0\n")
        rc = main(["validate", "--input", str(bad), "--design", str(workdir / "design.yaml")])
        assert rc == 3
        record = len(body.splitlines()) - 1
        assert capsys.readouterr().err == (
            f"error (validation): row {record}: group 2 has cutoff -571.0 and x=-900.0, "
            "so the sharp rule implies w=0, but w=1 was observed\n")

    def test_one_sided_group_exit_4(self, workdir, tmp_path, capsys):
        header, *rows = read(workdir / "data.csv").splitlines()
        # group 2 keeps only its treated records
        kept = [r for r in rows if r.split(",")[1] == "1" or float(r.split(",")[0]) >= -571]
        data = tmp_path / "one_sided.csv"
        data.write_text("\n".join([header] + kept) + "\n")
        out = tmp_path / "never"
        rc = main(["learn", "--input", str(data), "--design", str(workdir / "design.yaml"),
                   "--out", str(out)])
        assert rc == 4
        assert "conditional mean on the below-cutoff side" in capsys.readouterr().err
        assert not out.exists()
