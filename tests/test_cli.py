import csv
import json
import math

import numpy as np
import pytest

from rdsafe.cli import main
from rdsafe import learner, simlab
from rdsafe.core import (
    Dataset,
    StudyDesign,
    load_dataset,
    serialize_dataset,
)
from rdsafe.learner import LearnerConfig, learn_policy, sensitivity_sweep
from rdsafe.simlab import ScenarioSpec, generate, regret_experiment


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    spec = ScenarioSpec("B")
    ds = generate(spec, 1200, seed=21)
    (d / "data.csv").write_text(serialize_dataset(ds))
    (d / "design.yaml").write_text("1: -850\n2: -571\n")
    return d


def write_three_group_inputs(d):
    """data.csv and design.yaml of 600 records in three groups, cutoffs -1, 0, 1."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.5, 2.5, 600)
    g = rng.integers(1, 4, x.size)
    w = (x >= np.array([-1.0, 0.0, 1.0])[g - 1]).astype(int)
    design = StudyDesign({1: -1.0, 2: 0.0, 3: 1.0})
    (d / "data.csv").write_text(
        serialize_dataset(Dataset(x, g, w, rng.normal(0, 0.3, x.size), design)))
    (d / "design.yaml").write_text("1: -1.0\n2: 0.0\n3: 1.0\n")


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

    @pytest.mark.parametrize("flag", ["--seed", "--out"])
    def test_unread_flag_usage_error(self, workdir, tmp_path, flag):
        # validate writes nothing and draws nothing
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--input", str(workdir / "data.csv"),
                  "--design", str(workdir / "design.yaml"), flag, "0"])
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

    def test_integral_floats_in_config_are_integers(self, workdir, tmp_path):
        # YAML reads `folds: 3.0` as a float; it runs as 3 folds
        cfg = tmp_path / "run.yaml"
        cfg.write_text("folds: 3.0\nseed: 4.0\n")
        args = ["learn", "--input", str(workdir / "data.csv"),
                "--design", str(workdir / "design.yaml")]
        assert main([*args, "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--folds", "3", "--seed", "4", "--out", str(tmp_path / "b")]) == 0
        a, b = (json.loads(read(tmp_path / d / "learned_policy.json")) for d in "ab")
        assert a["provenance"]["seed"] == 4
        del a["provenance"]["config_hash"], b["provenance"]["config_hash"]
        assert a == b

    def test_bad_clamp_rejected(self, workdir, tmp_path):
        rc = main(["learn", "--input", str(workdir / "data.csv"),
                   "--design", str(workdir / "design.yaml"),
                   "--out", str(tmp_path / "x"), "--clamp", "0.9"])
        assert rc == 3


    def test_clamp_must_be_below_one_over_q(self, tmp_path, capsys):
        # 0.4 < 0.5 passes the flag check, but with Q = 3 the clamp would
        # reverse the group probabilities
        write_three_group_inputs(tmp_path)
        rc = main(["learn", "--input", str(tmp_path / "data.csv"),
                   "--design", str(tmp_path / "design.yaml"),
                   "--out", str(tmp_path / "x"), "--clamp", "0.4"])
        assert rc == 3
        assert "1/Q" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestRejectedBeforeFitting:
    """Bad flag values exit 3 before any nuisance is fitted."""

    @pytest.fixture(autouse=True)
    def no_fit(self, monkeypatch):
        def fit(*args, **kwargs):
            raise AssertionError("fitted before checking the flags")

        monkeypatch.setattr(learner, "fit_crossfit_nuisances", fit)

    def run(self, workdir, tmp_path, *flags):
        return main([flags[0], "--input", str(workdir / "data.csv"),
                     "--design", str(workdir / "design.yaml"),
                     "--out", str(tmp_path / "x"), *flags[1:]])

    @pytest.mark.parametrize("grid", ["bogus", "uniform:1", "uniform(5)"])
    @pytest.mark.parametrize("command", ["learn", "sensitivity"])
    def test_bad_grid(self, workdir, tmp_path, capsys, command, grid):
        assert self.run(workdir, tmp_path, command, "--grid", grid) == 3
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("learn", "--multiplier", "inf"),
                                       ("learn", "--multiplier", "nan"),
                                       ("sensitivity", "--multipliers", "1", "inf")])
    def test_infinite_multiplier(self, workdir, tmp_path, capsys, flags):
        assert self.run(workdir, tmp_path, *flags) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["learn", "sensitivity"])
    def test_clamp_at_or_above_one_over_q(self, tmp_path, capsys, command):
        write_three_group_inputs(tmp_path)
        assert self.run(tmp_path, tmp_path, command, "--clamp", "0.4") == 3
        assert "1/Q" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags, message", [
        (("learn", "--folds", "1"), "at least 2 folds"),
        (("sensitivity", "--folds", "1"), "at least 2 folds"),
        (("learn", "--cost", "-1"), "treatment cost must be nonnegative"),
        (("learn", "--cost", "nan"), "treatment cost must be finite"),
        (("sensitivity", "--costs", "0", "-1"), "treatment cost must be nonnegative"),
        (("sensitivity", "--costs", "0", "nan"), "treatment cost must be finite"),
    ])
    def test_bad_folds_and_costs(self, workdir, tmp_path, capsys, flags, message):
        assert self.run(workdir, tmp_path, *flags) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, config, message", [
        pytest.param(command, config, message, id=f"{command}-{name}")
        for command in ("learn", "sensitivity")
        for name, config, message in [
            ("cost", "cost: abc\n", "config value 'cost' must be a number, got 'abc'"),
            ("clamp", "clamp: [0.1]\n", "config value 'clamp' must be a number, got [0.1]"),
            ("fractional-folds", "folds: 2.7\n",
             "config value 'folds' must be an integer, got 2.7"),
            ("text-folds", "folds: two\n", "config value 'folds' must be an integer, got 'two'"),
            ("seed", "seed: 1.5\n", "config value 'seed' must be an integer, got 1.5"),
        ]
        # `sensitivity` reads the list `costs`, not the scalar `cost` (see
        # test_bad_sweep_lists_in_config)
        if (command, name) != ("sensitivity", "cost")
    ])
    def test_bad_config_value_names_its_key(self, workdir, tmp_path, capsys, command, config,
                                            message):
        (tmp_path / "run.yaml").write_text(config)
        assert self.run(workdir, tmp_path, command, "--config", str(tmp_path / "run.yaml")) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("config, message", [
        ("multipliers: []\n", "at least one multiplier and one cost"),
        ("costs: []\n", "at least one multiplier and one cost"),
        ("costs: [0, x]\n", "config value 'costs' must be a list of numbers"),
        ("multipliers: 2\n", "config value 'multipliers' must be a list of numbers"),
    ], ids=["no-multipliers", "no-costs", "text-cost", "scalar-multipliers"])
    def test_bad_sweep_lists_in_config(self, workdir, tmp_path, capsys, config, message):
        (tmp_path / "run.yaml").write_text(config)
        assert self.run(workdir, tmp_path, "sensitivity",
                        "--config", str(tmp_path / "run.yaml")) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_infinite_multiplier_in_simulate(self, tmp_path, capsys):
        rc = main(["simulate", "--multipliers", "inf", "--reps", "2",
                   "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags, message", [
        ("", ["--sizes", "1000", "0"], "sample size must be positive"),
        # too small for 30 records in each of the two groups: no replication could finish
        ("", ["--sizes", "1000", "40"], "sample size 40 is below 60"),
        # a config file can name a scenario that argparse's choices never see
        ("scenarios: [A, C]\n", [], "scenario must be"),
        ("scenarios: []\n", [], "needs at least one scenario"),
        ("sizes: []\n", [], "needs at least one sample size"),
        ("multipliers: []\n", [], "needs at least one multiplier"),
        ("sizes: [1000.5]\n", [], "config value 'sizes' must be a list of integers"),
        ("seed: 0.5\n", [], "config value 'seed' must be an integer, got 0.5"),
        # a string is not iterated as the list of its characters
        ("scenarios: AB\n", [], "config value 'scenarios' must be a list of strings, got 'AB'"),
        ('multipliers: "14"\n', [],
         "config value 'multipliers' must be a list of numbers, got '14'"),
    ], ids=["size", "small-size", "scenario", "no-scenarios", "no-sizes", "no-multipliers",
            "fractional-size", "fractional-seed", "text-scenarios", "text-multipliers"])
    def test_bad_simulate_settings(self, tmp_path, capsys, monkeypatch, config, flags, message):
        def draw(*args, **kwargs):
            raise AssertionError("drew a population before checking the settings")

        monkeypatch.setattr(simlab, "draw_population", draw)
        (tmp_path / "sim.yaml").write_text(config)
        rc = main(["simulate", "--config", str(tmp_path / "sim.yaml"), *flags, "--reps", "2",
                   "--out", str(tmp_path / "x")])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, given, config, message", [
        ("learn", ["input", "design"], "out: 5\n", "config value 'out' must be a string, got 5"),
        ("validate", ["design"], "input: [data.csv]\n",
         "config value 'input' must be a string, got ['data.csv']"),
        # not a file descriptor; one no test opens, so a regression cannot close it
        ("validate", ["input"], "design: 987\n",
         "config value 'design' must be a string, got 987"),
        ("simulate", [], "out: [a]\n", "config value 'out' must be a string, got ['a']"),
    ], ids=["learn-out", "validate-input", "validate-design", "simulate-out"])
    def test_paths_must_be_strings(self, workdir, tmp_path, capsys, monkeypatch, command, given,
                                   config, message):
        def draw(*args, **kwargs):
            raise AssertionError("drew a population before checking the settings")

        monkeypatch.setattr(simlab, "draw_population", draw)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.yaml").write_text(config)
        files = {"input": "data.csv", "design": "design.yaml"}
        flags = [arg for key in given for arg in (f"--{key}", str(workdir / files[key]))]
        assert main([command, "--config", "run.yaml", *flags]) == 3
        assert capsys.readouterr().err == f"error (validation): {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]

    @pytest.mark.parametrize("command, config, key", [
        ("sensitivity", "cost: 0.5\nmultiplier: 3\n", "cost"),
        ("learn", "costs: [0.5]\n", "costs"),
        ("learn", "multipler: 3\n", "multipler"),
        ("validate", "seed: 1\n", "seed"),
    ], ids=["sensitivity-cost", "learn-costs", "learn-typo", "validate-seed"])
    def test_unread_config_key(self, workdir, tmp_path, capsys, command, config, key):
        (tmp_path / "run.yaml").write_text(config)
        out = [] if command == "validate" else ["--out", str(tmp_path / "x")]
        rc = main([command, "--config", str(tmp_path / "run.yaml"),
                   "--input", str(workdir / "data.csv"), "--design", str(workdir / "design.yaml"),
                   *out])
        assert rc == 3
        captured = capsys.readouterr()
        assert f"config key {key!r} is not a setting of {command!r}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x").exists()


class TestConfigHash:
    """The hash covers the merged config file and flags as given, so a file
    holding only keys its command reads keeps the hash it always had."""

    @pytest.mark.parametrize("command, config, flags, line", [
        ("learn", "seed: 4\nmultiplier: 2.0\nfolds: 3\n", [],
         "# config_hash=55220f33169e4aca seed=4"),
        ("sensitivity", "multipliers: [0, 2]\ncosts: [0.5]\n", ["--seed", "3"],
         "# config_hash=6216002866cb4a9f seed=3"),
    ], ids=["learn", "sensitivity"])
    def test_unchanged(self, workdir, tmp_path, monkeypatch, command, config, flags, line):
        monkeypatch.chdir(workdir)  # the hash holds the paths as written
        (tmp_path / "run.yaml").write_text(f"input: data.csv\ndesign: design.yaml\n{config}")
        out = tmp_path / "out"
        assert main([command, "--config", str(tmp_path / "run.yaml"), *flags,
                     "--out", str(out)]) == 0
        result = "objective_curves.csv" if command == "learn" else "sweep.csv"
        assert read(out / result).splitlines()[0] == line


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

    def test_invalid_scenario_usage(self, workdir, tmp_path, capsys):
        # the scenario table checks a flag as it checks a config key
        rc = main(["simulate", "--scenarios", "Q", "--out", str(tmp_path / "q")])
        assert rc == 3
        assert "scenario must be one of ['A', 'B'], got 'Q'" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()


def result_rows(path, header):
    """The rows of a result CSV, after checking its provenance and header lines."""
    provenance, *lines = read(path).splitlines()
    assert provenance.startswith("# config_hash=")
    assert lines[0] == header
    return list(csv.reader(lines[1:]))


def assert_rows_equal(rows, expected):
    """Every cell reads back as its in-memory value: floats exactly, NaN as NaN."""
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert len(row) == len(want)
        for cell, value in zip(row, want):
            if isinstance(value, float):
                assert float(cell) == value or (math.isnan(value) and math.isnan(float(cell)))
            else:
                assert cell == str(value)


class TestResultFiles:
    """Each result file holds exactly the values the library returns."""

    @pytest.fixture(scope="class")
    def dataset(self, workdir):
        return load_dataset(str(workdir / "data.csv"), StudyDesign({1: -850, 2: -571}))

    def test_learn_files(self, workdir, dataset):
        out = workdir / "files_learn"
        assert main(["learn", "--input", str(workdir / "data.csv"),
                     "--design", str(workdir / "design.yaml"), "--out", str(out),
                     "--seed", "6", "--cost", "0.3"]) == 0
        learned = learn_policy(dataset, LearnerConfig(seed=6), cost=0.3)
        design = dataset.design
        curves = [(design.label_of(rank), c, v)
                  for rank, (cand, vals) in sorted(learned.objective_tables.items())
                  for c, v in zip(cand.tolist(), vals.tolist())]
        assert_rows_equal(result_rows(out / "objective_curves.csv", "group,candidate,objective"),
                          curves)
        xs = np.linspace(design.c_min, design.c_max, 101)
        envelopes = []
        for (w, g, gp) in sorted(learned.bounds.boundary):
            lo = learned.bounds.lower(w, xs, np.full(101, g), np.full(101, gp))
            hi = learned.bounds.upper(w, xs, np.full(101, g), np.full(101, gp))
            envelopes += [(w, design.label_of(g), design.label_of(gp), *v)
                          for v in zip(xs.tolist(), lo.tolist(), hi.tolist())]
        assert_rows_equal(result_rows(out / "bound_curves.csv", "w,g,g_ref,x,b_lower,b_upper"),
                          envelopes)

    def test_sweep_file(self, workdir, dataset):
        out = workdir / "files_sweep"
        assert main(["sensitivity", "--input", str(workdir / "data.csv"),
                     "--design", str(workdir / "design.yaml"), "--out", str(out),
                     "--seed", "6", "--multipliers", "0", "2", "--costs", "0", "0.5"]) == 0
        rows = sensitivity_sweep(dataset, [0.0, 2.0], [0.0, 0.5], LearnerConfig(seed=6))
        assert_rows_equal(
            result_rows(out / "sweep.csv",
                        "group,M,C,baseline_cutoff,learned_cutoff,change,objective_gain"),
            [(r.group, r.multiplier, r.cost, r.baseline_cutoff, r.learned_cutoff, r.change,
              r.objective_gain) for r in rows])

    def test_regret_files(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--scenarios", "B", "A", "--sizes", "300",
                     "--multipliers", "1", "--reps", "2", "--seed", "4", "--out", str(out)]) == 0
        cells = regret_experiment(["B", "A"], [300], [1.0], reps=2, seed=4)
        assert_rows_equal(
            result_rows(out / "regret.csv",
                        "scenario,n,M,regret_baseline_mean,regret_baseline_se,"
                        "regret_oracle_mean,regret_oracle_se,reps,failures"),
            [(c.scenario, c.n, c.multiplier, c.regret_baseline_mean, c.regret_baseline_se,
              c.regret_oracle_mean, c.regret_oracle_se, c.reps, c.failures) for c in cells])
        meta = json.loads(read(out / "regret_meta.json"))
        assert set(meta) == {"config_hash", "generator", "seed", "version"}
        assert (meta["generator"], meta["seed"], meta["version"]) == ("PCG64", 4, 1)


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
