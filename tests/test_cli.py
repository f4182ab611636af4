import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from discerning_td import FeatureMap, MarkovRewardProcess, load_records, \
    make_random_walk, resolve_task, save_environment
from discerning_td import cli, harness
from discerning_td import mrp as mrp_module
from discerning_td.analysis import compute_A_b, fixed_point
from discerning_td.checks import TASK_NAMES
from discerning_td.cli import main, parse_emphasis
from discerning_td.emphasis import DEFAULT_EPSILON_FLOOR, \
    EmphasisKind, emphasis_abs_expected_td


def run_args(tmp_path, name="out.csv", **overrides):
    args = {
        "--task": "RW5_MIDDLE", "--algo": ["TD"], "--lambda": ["0.5"],
        "--alpha": ["0.1"], "--runs": "2", "--steps": "200",
        "--eval-every": "100", "--seed": "0",
        "--out": str(tmp_path / name),
    }
    args.update(overrides)
    argv = ["run"]
    for key, value in args.items():
        argv.append(key)
        argv.extend(value if isinstance(value, list) else [value])
    return argv


class TestParseEmphasis:
    def test_kinds(self):
        assert parse_emphasis("count_inverse", 1e-3).kind is \
            EmphasisKind.COUNT_INVERSE
        assert parse_emphasis("noise_prior", 1e-3).kind is \
            EmphasisKind.NOISE_PRIOR
        assert parse_emphasis("abs_expected_td", 1e-3).kind is \
            EmphasisKind.ABS_EXPECTED_TD_ERROR

    def test_constant_with_value(self):
        spec = parse_emphasis("constant:2.5", 1e-3)
        assert spec.constant == 2.5

    def test_table(self):
        spec = parse_emphasis("table:1,0.5,0.25,0.5,1", 1e-2)
        np.testing.assert_allclose(spec.table, [1, 0.5, 0.25, 0.5, 1])
        assert spec.epsilon_floor == 1e-2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_emphasis("priority", 1e-3)

    @pytest.mark.parametrize("text", ["count_inverse:5", "noise_prior:x",
                                      "abs_expected_td:", "COUNT_INVERSE:5"])
    def test_kind_without_a_parameter_refuses_one(self, text):
        param = text.partition(":")[2]
        kind = text.partition(":")[0].lower()
        with pytest.raises(ValueError, match=(
                f"^{kind} emphasis takes no parameter, not {param!r}$")):
            parse_emphasis(text, 1e-3)


class TestRunCommand:
    def test_writes_parseable_csv(self, tmp_path, capsys):
        assert main(run_args(tmp_path)) == 0
        records = load_records(tmp_path / "out.csv")
        assert len(records) == 2 * 2
        out = capsys.readouterr().out
        assert "best lambda" in out

    def test_byte_identical_reruns(self, tmp_path):
        assert main(run_args(tmp_path, name="a.csv")) == 0
        assert main(run_args(tmp_path, name="b.csv")) == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_json_format(self, tmp_path):
        argv = run_args(tmp_path, name="out.json") + ["--format", "json"]
        assert main(argv) == 0
        assert len(load_records(tmp_path / "out.json")) == 4

    def test_aggregate_output(self, tmp_path):
        from discerning_td import load_aggregates
        argv = run_args(tmp_path, name="agg.csv") + ["--aggregate"]
        assert main(argv) == 0
        aggs = load_aggregates(tmp_path / "agg.csv")
        assert all(a.n_runs == 2 for a in aggs)

    def test_unknown_task_fails(self, tmp_path, capsys):
        argv = run_args(tmp_path)
        argv[argv.index("RW5_MIDDLE")] = "MAZE"
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("emphasis", ["count_inverse:5",
                                          "noise_prior:0.1",
                                          "abs_expected_td:2"])
    def test_emphasis_parameter_refused(self, tmp_path, capsys, emphasis):
        argv = run_args(tmp_path, **{"--algo": ["DTD"],
                                     "--emphasis": emphasis})
        assert main(argv) == 2
        kind, _, param = emphasis.partition(":")
        assert capsys.readouterr() == ("", (
            f"error: {kind} emphasis takes no parameter, not {param!r}\n"))
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("emphasis, value", [
        ("constant:abc", "abc"), ("table:1,x", "x"), ("table:1,,2", "")])
    def test_emphasis_value_that_is_not_a_number(self, tmp_path, capsys,
                                                 emphasis, value):
        argv = run_args(tmp_path, **{"--algo": ["DTD"],
                                     "--emphasis": emphasis})
        assert main(argv) == 2
        kind = emphasis.partition(":")[0]
        assert capsys.readouterr() == ("", (
            f"error: --emphasis {kind}: {value!r} is not a number\n"))
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--alpha", "-1e-05", "alpha must be positive and finite"),
        ("--alpha", "-2.5E+1", "alpha must be positive and finite"),
        ("--alpha", "-inf", "alpha must be positive and finite"),
        ("--lambda", "-1e-05", "lam must lie in [0, 1]"),
        ("--lambda", "-.5e-3", "lam must lie in [0, 1]")])
    def test_negative_number_with_an_exponent_is_a_value(
            self, tmp_path, capsys, option, value, message):
        # argparse's own negative-number pattern reads -1e-05 as a flag
        assert main(run_args(tmp_path, **{option: [value]})) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out.csv").exists()

    def test_noisy_level_that_is_not_a_number(self, tmp_path, capsys):
        assert main(run_args(tmp_path, **{"--task": "NOISY10:abc"})) == 2
        assert capsys.readouterr() == ("", (
            "error: NOISY10 reward level must be a number, not 'abc' "
            "(task 'NOISY10:abc')\n"))
        assert not (tmp_path / "out.csv").exists()

    def test_env_file_override(self, tmp_path):
        mrp, fm = make_random_walk(5, "right")
        env_path = tmp_path / "env.json"
        save_environment(env_path, mrp, fm)
        argv = run_args(tmp_path) + ["--env-file", str(env_path)]
        assert main(argv) == 0

    @pytest.mark.parametrize("payload, message", [
        ({"mrp": {}}, "env.json is missing key 'n_states'"),
        ([1], "env.json is not an environment"),
        ("{bad", "env.json: Expecting property name"),
    ])
    def test_env_file_faults_name_the_file(self, tmp_path, capsys, payload,
                                           message):
        env_path = tmp_path / "env.json"
        env_path.write_text(payload if isinstance(payload, str)
                            else json.dumps(payload))
        argv = run_args(tmp_path) + ["--env-file", str(env_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("discount", [True, "0.9"])
    def test_env_file_discount_must_be_a_number(self, tmp_path, capsys,
                                                discount):
        mrp, fm = make_random_walk(5, "middle")
        env_path = tmp_path / "env.json"
        save_environment(env_path, mrp, fm)
        payload = json.loads(env_path.read_text())
        payload["mrp"]["discount"] = discount
        env_path.write_text(json.dumps(payload))
        assert main(run_args(tmp_path) + ["--env-file", str(env_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {env_path} is not an environment: discount "
                       f"must be a number, not {discount!r}\n")
        assert not (tmp_path / "out.csv").exists()

    def test_env_file_with_a_periodic_chain(self, tmp_path, capsys):
        # no positive stationary distribution: a named error, not a traceback
        mrp = MarkovRewardProcess(
            n_states=2, transition=[[0.0, 1.0], [1.0, 0.0]],
            expected_reward=[0.0, 0.0], reward_noise_std=[0.0, 0.0],
            initial_dist=[1.0, 0.0], discount=0.9)
        env_path = tmp_path / "env.json"
        save_environment(env_path, mrp, FeatureMap(np.eye(2)))
        assert main(run_args(tmp_path) + ["--env-file", str(env_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "periodic" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_env_file_with_a_continuing_undiscounted_chain(self, tmp_path):
        # gamma 1 and no exit: the value system is singular, but the MSPBE
        # reads only the stationary distribution
        mrp = MarkovRewardProcess(
            n_states=2, transition=[[0.5, 0.5], [0.5, 0.5]],
            expected_reward=[1.0, 0.0], reward_noise_std=[0.0, 0.0],
            initial_dist=[0.5, 0.5], discount=1.0)
        env_path = tmp_path / "env.json"
        save_environment(env_path, mrp, FeatureMap(np.eye(2)))
        assert main(run_args(tmp_path) + ["--env-file", str(env_path)]) == 0
        mspbes = [r.mspbe for r in load_records(tmp_path / "out.csv")]
        assert len(mspbes) == 4 and np.all(np.isfinite(mspbes))

    def test_repeated_cell_refused_before_simulating(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", None)  # never simulate
        argv = run_args(tmp_path, **{
            "--task": "RW5_LEFT", "--algo": ["TD", "TD"],
            "--lambda": ["0.4", "0.4"], "--alpha": ["0.1"], "--runs": "3",
            "--steps": "20", "--eval-every": "10"}) + ["--aggregate"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: the cell ('RW5_LEFT', 'TD', 0.4, 0.1, 'none') is listed "
            "more than once\n")
        assert not (tmp_path / "out.csv").exists()

    def test_env_file_features_for_another_chain(self, tmp_path, capsys):
        mrp, _ = make_random_walk(5, "middle")
        env_path = tmp_path / "env.json"
        save_environment(env_path, mrp, FeatureMap(np.eye(6)[:, :5]))
        assert main(run_args(tmp_path) + ["--env-file", str(env_path)]) == 2
        assert "env.json: phi has 6 rows for 5 states" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("task", TASK_NAMES)
    def test_saved_task_runs_like_named_task(self, tmp_path, task):
        mrp, fm = resolve_task(task)
        env_path = tmp_path / "env.json"
        save_environment(env_path, mrp, fm)
        overrides = {"--task": task, "--algo": ["TD", "DTD"],
                     "--emphasis": "count_inverse", "--runs": "3"}
        assert main(run_args(tmp_path, "named.csv", **overrides)) == 0
        assert main(run_args(tmp_path, "saved.csv", **overrides)
                    + ["--env-file", str(env_path)]) == 0
        assert (tmp_path / "saved.csv").read_bytes() == \
            (tmp_path / "named.csv").read_bytes()

    def test_comma_in_task_refused_before_simulating(self, tmp_path, capsys,
                                                     monkeypatch):
        mrp, fm = make_random_walk(5, "left")
        env_path = tmp_path / "env.json"
        save_environment(env_path, mrp, fm)
        argv = run_args(tmp_path, **{"--task": "left,walk"}) + [
            "--env-file", str(env_path)]

        def never(*args, **kwargs):
            raise AssertionError("simulated before refusing the CSV")

        monkeypatch.setattr(harness, "simulate_curves", never)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'task'" in err
        assert not (tmp_path / "out.csv").exists()
        monkeypatch.undo()
        json_argv = run_args(tmp_path, name="out.json",
                             **{"--task": "left,walk"}) + [
            "--env-file", str(env_path), "--format", "json"]
        assert main(json_argv) == 0
        assert {r.task for r in load_records(tmp_path / "out.json")} == \
            {"left,walk"}

    @pytest.mark.parametrize("override", [
        {"--alpha": ["nan"]}, {"--alpha": ["0.1", "inf"]},
        {"--algo": ["DTD"], "--emphasis": "constant:inf"},
        {"--algo": ["DTD"], "--emphasis": "table:1,nan,1,1,1"},
        {"--algo": ["PTD"], "--emphasis": "table:1,nan,1,1,1"}])
    def test_non_finite_values_refused_before_simulating(
            self, tmp_path, capsys, monkeypatch, override):
        def never(*args, **kwargs):
            raise AssertionError("simulated a non-finite setting")

        monkeypatch.setattr(harness, "simulate_curves", never)
        assert main(run_args(tmp_path, **override)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "positive and finite" in err
        assert not (tmp_path / "out.csv").exists()

    def test_out_directory_refused_before_simulating(self, tmp_path, capsys,
                                                     monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulated before refusing the output path")

        monkeypatch.setattr(harness, "simulate_curves", never)
        (tmp_path / "out.csv").mkdir()
        assert main(run_args(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is a directory" in err

    def test_diverged_runs_warn_once_on_stderr(self, tmp_path, capsys):
        argv = run_args(tmp_path, **{
            "--task": "RW5_LEFT", "--algo": ["TD", "DTD"],
            "--emphasis": "count_inverse", "--lambda": ["0.9", "1.0"],
            "--alpha": ["0.0625", "8"], "--runs": "3", "--steps": "2000"})
        assert main(argv) == 0
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "12 of 24 runs" in warnings[0]
        assert "TD lambda=1.0 alpha=8.0 none (3)" in warnings[0]
        assert "alpha=0.0625" not in warnings[0]
        assert "warning" not in captured.out

    def test_finite_runs_do_not_warn(self, tmp_path, capsys):
        assert main(run_args(tmp_path)) == 0
        assert capsys.readouterr().err == ""

    def test_dtd_with_emphasis(self, tmp_path):
        argv = run_args(tmp_path, **{"--algo": ["TD", "DTD"],
                                     "--emphasis": "count_inverse"})
        assert main(argv) == 0
        kinds = {r.algorithm: r.emphasis_kind
                 for r in load_records(tmp_path / "out.csv")}
        assert kinds == {"TD": "none", "DTD": "count_inverse"}


class TestSweepCommand:
    def test_config_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = {
            "task": "RW5_LEFT",
            "algorithms": [
                {"algorithm": "TD", "lambda": [0.0, 0.5], "alpha": 0.1},
                {"algorithm": "DTD", "lambda": 0.5, "alpha": [0.1, 0.2],
                 "emphasis": {"kind": "count_inverse",
                              "epsilon_floor": 0.001}},
            ],
            "runs": 2, "steps": 100, "eval_every": 50, "base_seed": 3,
            "out": str(out), "format": "csv",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path)]) == 0
        records = load_records(out)
        cells = {(r.algorithm, r.lam, r.alpha) for r in records}
        assert cells == {("TD", 0.0, 0.1), ("TD", 0.5, 0.1),
                         ("DTD", 0.5, 0.1), ("DTD", 0.5, 0.2)}
        assert {r.seed for r in records} == {3, 4}

    def test_diverged_sweep_warns(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        config = {
            "task": "RW5_LEFT", "runs": 2, "steps": 2000, "eval_every": 1000,
            "base_seed": 0, "out": str(out), "format": "json",
            "aggregate": True,
            "algorithms": [{"algorithm": "TD", "lambda": 1.0,
                            "alpha": [0.0625, 8.0]}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: 2 of 4 runs ended with non-finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, entry", [
        ("constant:0.5", {"kind": "constant", "constant": 0.5}),
        ("table:0.2,0.4,0.6,0.8,1", {"kind": "table",
                                     "table": [0.2, 0.4, 0.6, 0.8, 1.0]}),
        ("count_inverse", {"kind": "count_inverse", "epsilon_floor": 0.001}),
    ])
    def test_emphasis_entry_matches_run_spec(self, tmp_path, text, entry):
        run_argv = run_args(tmp_path, "run.csv", **{
            "--algo": ["PTD", "DTD"], "--emphasis": text})
        assert main(run_argv) == 0
        config = {
            "task": "RW5_MIDDLE", "runs": 2, "steps": 200, "eval_every": 100,
            "base_seed": 0, "out": str(tmp_path / "sweep.csv"),
            "algorithms": [{"algorithm": a, "lambda": 0.5, "alpha": 0.1,
                            "emphasis": entry} for a in ("PTD", "DTD")]}
        assert self._run(tmp_path, config) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == \
            (tmp_path / "run.csv").read_bytes()

    @staticmethod
    def _config(tmp_path):
        return {
            "task": "RW5_LEFT",
            "algorithms": [{"algorithm": "TD", "lambda": 0.5, "alpha": 0.1}],
            "runs": 2, "steps": 100, "eval_every": 50, "base_seed": 3,
            "out": str(tmp_path / "sweep.csv"),
        }

    def _run(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return main(["sweep", "--config", str(path)])

    @pytest.mark.parametrize("key", ["task", "runs", "steps", "eval_every",
                                     "base_seed", "out", "algorithms"])
    def test_missing_top_level_key(self, tmp_path, capsys, key):
        config = self._config(tmp_path)
        del config[key]
        assert self._run(tmp_path, config) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("key", ["algorithm", "lambda", "alpha"])
    def test_missing_entry_key(self, tmp_path, capsys, key):
        config = self._config(tmp_path)
        config["algorithms"].append({"algorithm": "DTD", "lambda": 0.5,
                                     "alpha": 0.1})
        del config["algorithms"][1][key]
        assert self._run(tmp_path, config) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "algorithms[1]" in err and repr(key) in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_config_directory(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_missing_emphasis_kind(self, tmp_path, capsys):
        config = self._config(tmp_path)
        config["algorithms"].append({"algorithm": "DTD", "lambda": 0.5,
                                     "alpha": 0.1,
                                     "emphasis": {"constant": 2}})
        assert self._run(tmp_path, config) == 2
        err = capsys.readouterr().err
        assert err == ("error: sweep config algorithms[1].emphasis is "
                       "missing key 'kind'\n")
        assert not (tmp_path / "sweep.csv").exists()


    @pytest.mark.parametrize("path, key, where", [
        ((), "agregate", "sweep config"),
        (("algorithms", 0), "lamda", "sweep config algorithms[0]"),
        (("algorithms", 0, "emphasis"), "constnat",
         "sweep config algorithms[0].emphasis"),
    ])
    def test_unknown_key(self, tmp_path, capsys, path, key, where):
        config = self._config(tmp_path)
        config["algorithms"][0]["emphasis"] = {"kind": "constant",
                                               "constant": 3.0}
        target = config
        for part in path:
            target = target[part]
        target[key] = True
        assert self._run(tmp_path, config) == 2
        assert capsys.readouterr() == (
            "", f"error: {where} has unknown key {key!r}\n")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("runs", 2.7), ("runs", True), ("steps", "100"), ("eval_every", 50.0),
        ("base_seed", None), ("task", 3), ("out", None), ("format", 1),
        ("algorithms", 3), ("algorithms", {"algorithm": "TD"}),
    ])
    def test_value_of_the_wrong_type(self, tmp_path, capsys, key, value):
        config = self._config(tmp_path)
        config[key] = value
        assert self._run(tmp_path, config) == 2
        err = capsys.readouterr().err
        assert err == (f"error: sweep config {key!r} must be "
                       f"{cli.SWEEP_KEYS.get(key, 'a string')}, "
                       f"not {value!r}\n")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("lambda", "0.5"), ("lambda", [0.5, True]), ("alpha", None),
        ("alpha", {"a": 0.1}),
    ])
    def test_entry_value_that_is_not_a_number(self, tmp_path, capsys, key,
                                              value):
        config = self._config(tmp_path)
        config["algorithms"][0][key] = value
        assert self._run(tmp_path, config) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: TD {key} must be a number, not ")
        assert err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("emphasis, message", [
        ({"kind": "constant", "constant": None}, "'constant' must be a "
                                                 "number, not None"),
        ({"kind": "count_inverse", "epsilon_floor": None},
         "'epsilon_floor' must be a number, not None"),
        ({"kind": "constant", "constant": "2"}, "'constant' must be a "
                                                "number, not '2'"),
        ({"kind": "count_inverse", "epsilon_floor": "0.01"},
         "'epsilon_floor' must be a number, not '0.01'"),
        ({"kind": "table", "table": [True, 0.5, 1, 1, 1]},
         "'table' entry must be a number, not True"),
        ({"kind": "table", "table": [1, "0.5", 1, 1, 1]},
         "'table' entry must be a number, not '0.5'"),
        ({"kind": "table", "table": "1,1,1,1,1"},
         "'table' must be a list, not '1,1,1,1,1'"),
    ])
    def test_emphasis_value_that_is_not_a_number(self, tmp_path, capsys,
                                                 monkeypatch, emphasis,
                                                 message):
        monkeypatch.setattr(cli, "run_experiment", None)  # never simulate
        config = self._config(tmp_path)
        config["algorithms"][0].update(algorithm="DTD", emphasis=emphasis)
        assert self._run(tmp_path, config) == 2
        err = capsys.readouterr().err
        assert err == (f"error: sweep config algorithms[0].emphasis "
                       f"{message}\n")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("emphasis, message", [
        ({"kind": "constant", "constant": True},
         "'constant' must be a number, not True"),
        ({"kind": "count_inverse", "epsilon_floor": False},
         "'epsilon_floor' must be a number, not False"),
        ({"kind": "constant", "epsilon_floor": 1.5},
         "epsilon_floor must lie in (0, 1)"),
        ({"kind": "priority"}, "'priority' is not a valid EmphasisKind"),
    ])
    def test_emphasis_refused_by_the_library_names_the_entry(
            self, tmp_path, capsys, monkeypatch, emphasis, message):
        monkeypatch.setattr(cli, "run_experiment", None)  # never simulate
        config = self._config(tmp_path)
        config["algorithms"][0].update(algorithm="DTD", emphasis=emphasis)
        assert self._run(tmp_path, config) == 2
        assert capsys.readouterr().err == (
            f"error: sweep config algorithms[0].emphasis {message}\n")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("entry", [
        {"algorithm": "TD", "lambda": [0.0, 0.5], "alpha": 0.1},
        # TD ignores emphasis, so both entries are labelled "none"
        {"algorithm": "TD", "lambda": 0.5, "alpha": [0.1, 0.2],
         "emphasis": {"kind": "count_inverse"}},
    ])
    def test_repeated_cell_refused_before_simulating(self, tmp_path, capsys,
                                                     monkeypatch, entry):
        monkeypatch.setattr(cli, "run_experiment", None)  # never simulate
        config = self._config(tmp_path)
        config["algorithms"].append(entry)
        assert self._run(tmp_path, config) == 2
        assert capsys.readouterr().err == (
            "error: the cell ('RW5_LEFT', 'TD', 0.5, 0.1, 'none') is listed "
            "more than once\n")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("value", ["false", 1, 0, None])
    def test_aggregate_must_be_true_or_false(self, tmp_path, capsys,
                                             monkeypatch, value):
        monkeypatch.setattr(cli, "run_experiment", None)  # never simulate
        config = dict(self._config(tmp_path), aggregate=value)
        assert self._run(tmp_path, config) == 2
        assert capsys.readouterr().err == (
            f"error: sweep config 'aggregate' must be true or false, "
            f"not {value!r}\n")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("value", ["xml", "", "csv "])
    def test_format_must_be_csv_or_json(self, tmp_path, capsys, monkeypatch,
                                        value):
        monkeypatch.setattr(cli, "run_experiment", None)  # never simulate
        config = dict(self._config(tmp_path), format=value)
        assert self._run(tmp_path, config) == 2
        assert capsys.readouterr().err == (
            f"error: sweep config 'format' must be csv or json, "
            f"not {value!r}\n")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("aggregate", [True, False])
    def test_aggregate_flag(self, tmp_path, aggregate):
        from discerning_td import load_aggregates
        config = dict(self._config(tmp_path), aggregate=aggregate,
                      format="JSON", out=str(tmp_path / "sweep.json"))
        assert self._run(tmp_path, config) == 0
        load = load_aggregates if aggregate else load_records
        assert len(load(tmp_path / "sweep.json")) == (2 if aggregate else 4)

    def test_config_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{bad")
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: Expecting property name")


class TestGoldenBytes:
    """sha256 of small sweep outputs, pinned when they were first written:
    any change to how records are built, aggregated or written that moves
    one byte fails here."""

    def test_run_csv_with_diverged_cell(self, tmp_path):
        out = tmp_path / "run.csv"
        argv = ["run", "--task", "RW5_LEFT", "--algo", "TD", "DTD",
                "--emphasis", "count_inverse", "--lambda", "0.9", "1.0",
                "--alpha", "0.0625", "8", "--runs", "3", "--steps", "2000",
                "--eval-every", "100", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        data = out.read_bytes()
        assert b",inf\n" in data
        assert hashlib.sha256(data).hexdigest() == (
            "8e415e0f105f1fbd2777721f93af0755f5f04d0c09fc473f7f9f9b5086dc4c0b")

    def test_sweep_aggregate_json_of_ten_runs(self, tmp_path):
        out = tmp_path / "agg.json"
        config = {
            "task": "BOYAN13", "runs": 10, "steps": 600, "eval_every": 100,
            "base_seed": 3, "aggregate": True, "format": "json",
            "out": str(out),
            "algorithms": [
                {"algorithm": "TD", "lambda": [0.5, 1.0],
                 "alpha": [0.125, 8.0]},
                {"algorithm": "DTD", "lambda": 0.9, "alpha": 0.0625,
                 "emphasis": {"kind": "abs_expected_td"}}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path)]) == 0
        data = out.read_bytes()
        assert b"Infinity" in data
        assert hashlib.sha256(data).hexdigest() == (
            "0b45b6666fc6471da08e92434c86168876fa1316233e3d3f40283f846ee63973")

    @staticmethod
    def small_chunks(monkeypatch, rows, steps, min_chunks=3):
        """Shrink the draw budget so a run of ``rows`` rows spans at least
        ``min_chunks`` chunks, the last one partial."""
        monkeypatch.setattr(harness, "CHUNK_FLOOR", 8)
        monkeypatch.setattr(harness, "DRAW_BUDGET", 70 * rows)
        chunk = min(steps, max(harness.CHUNK_FLOOR,
                               harness.DRAW_BUDGET // rows))
        assert -(-steps // chunk) >= min_chunks and steps % chunk

    def test_noisy_run_csv_of_five_learners_across_chunks(self, tmp_path,
                                                          monkeypatch):
        self.small_chunks(monkeypatch, rows=5 * 2 * 2, steps=300)
        out = tmp_path / "noisy.csv"
        argv = ["run", "--task", "NOISY10:1",
                "--algo", "TD", "DTD", "ETD", "PTD", "TDW",
                "--emphasis", "noise_prior", "--lambda", "0.9",
                "--alpha", "0.03125", "0.125", "--runs", "2",
                "--steps", "300", "--eval-every", "50", "--seed", "11",
                "--out", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "853e31cfb6e61aeb1a35960d3d4df502e56bb08645d6bed5977441d53aa3bd0d")

    def test_count_inverse_run_csv_mixed_with_td_and_etd(self, tmp_path,
                                                          monkeypatch):
        self.small_chunks(monkeypatch, rows=5 * 2 * 3, steps=400)
        out = tmp_path / "count.csv"
        argv = ["run", "--task", "RW5_LEFT",
                "--algo", "TD", "DTD", "ETD", "PTD", "TDW",
                "--emphasis", "count_inverse", "--lambda", "0.4", "0.95",
                "--alpha", "0.0625", "--runs", "3", "--steps", "400",
                "--eval-every", "40", "--seed", "23",
                "--epsilon-floor", "0.5", "--out", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "408ded96d0a0b18c0fa41207e9c9401a3d05ffd6470d1f1db29daa03bb53709c")

    @staticmethod
    def sweep(tmp_path, name, task, entries, fmt, aggregate):
        out = tmp_path / name
        config = {"task": task, "runs": 4, "steps": 600, "eval_every": 100,
                  "base_seed": 17, "aggregate": aggregate, "format": fmt,
                  "out": str(out), "algorithms": entries}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_adaptive_sweep_json_with_adaptive_rows_in_one_block(self,
                                                                 tmp_path):
        # TD and ETD ignore emphasis, so the weighted rows (PTD, TDW, DTD)
        # are one block of rows in cell-major order
        adaptive = {"kind": "abs_expected_td"}
        entries = [{"algorithm": a, "lambda": [0.0, 0.9],
                    "alpha": [2.0 ** -6, 2.0 ** -3], "emphasis": adaptive}
                   for a in ("TD", "ETD", "PTD", "TDW", "DTD")]
        assert self.sweep(tmp_path, "agg.json", "BOYAN13", entries, "json",
                          True) == (
            "df4fab87b27d6823633c7a3d05c2af567261f9630b7e06ea6b49effa48f4af8b")

    def test_adaptive_sweep_csv_with_adaptive_rows_apart(self, tmp_path):
        adaptive = {"kind": "abs_expected_td", "epsilon_floor": 0.01}
        entries = [
            {"algorithm": "DTD", "lambda": 0.9, "alpha": [0.0625, 0.25],
             "emphasis": adaptive},
            {"algorithm": "TD", "lambda": 0.9, "alpha": 0.125},
            {"algorithm": "TDW", "lambda": 0.5, "alpha": 0.125,
             "emphasis": {"kind": "count_inverse"}},
            {"algorithm": "PTD", "lambda": [0.5, 0.9], "alpha": 0.125,
             "emphasis": adaptive}]
        assert self.sweep(tmp_path, "curves.csv", "RW5_TABULAR", entries,
                          "csv", False) == (
            "ae04dae7ae6f7211e4e18c7d1f541150517ed7f7c0d7b533091d3e83812fea8a")


class TestVerifyCommand:
    def test_filtered_check_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["verify", "--filter", "telescoping",
                     "--out", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert len(payload) == 1
        assert payload[0]["check"] == "telescoping-identity"
        assert payload[0]["pass"] is True
        assert "margin" in payload[0] and "inputs" in payload[0]

    def test_out_directory(self, tmp_path, capsys):
        assert main(["verify", "--filter", "telescoping",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_filter_that_selects_no_check(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["verify", "--filter", "nosuchcheck",
                     "--out", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no check name contains 'nosuchcheck'\n"
        assert captured.out == "" and not report_path.exists()

    def test_stdout_json(self, capsys):
        assert main(["verify", "--filter", "priority"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)[0]["pass"] is True


class TestFixedPointCommand:
    def test_constant_emphasis(self, capsys):
        code = main(["fixed-point", "--task", "RW5_MIDDLE",
                     "--emphasis", "constant:1", "--lambda", "0.9"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(
            payload["theta_star"], [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6],
            atol=1e-8)
        assert payload["residual"] < 1e-10
        assert payload["mspbe"] < 1e-8
        assert "contraction" in payload

    def test_count_inverse_long_run(self, capsys):
        code = main(["fixed-point", "--task", "RW5_MIDDLE",
                     "--emphasis", "count_inverse", "--lambda", "0.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["emphasis_note"] == "long-run visitation limit"
        np.testing.assert_allclose(
            payload["theta_star"], [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6],
            atol=1e-8)

    def test_adaptive_iterates(self, capsys):
        code = main(["fixed-point", "--task", "RW5_DEPENDENT",
                     "--emphasis", "abs_expected_td", "--lambda", "0.4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual"] < 1e-10
        assert len(payload["theta_star"]) == 3

    @pytest.mark.parametrize("emphasis", ["count_inverse", "abs_expected_td"])
    def test_one_stationary_solve_per_call(self, capsys, monkeypatch,
                                           emphasis):
        calls = []
        solve = mrp_module.stationary_distribution

        def counted(mrp):
            calls.append(mrp)
            return solve(mrp)

        monkeypatch.setattr(mrp_module, "stationary_distribution", counted)
        for _ in range(2):
            assert main(["fixed-point", "--task", "BOYAN13", "--emphasis",
                         emphasis, "--lambda", "0.5"]) == 0
        assert len(calls) == 2

    def test_kappa_report(self, capsys):
        code = main(["fixed-point", "--task", "BOYAN13",
                     "--emphasis", "constant:0.5", "--lambda", "0.5",
                     "--kappa", "0.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["contraction"]["condition"] == "ii"


    @pytest.mark.parametrize("kappa", ["nan", "-1", "-0.5"])
    def test_kappa_must_be_nonnegative(self, capsys, kappa):
        assert main(["fixed-point", "--task", "BOYAN13", "--emphasis",
                     "constant:1", "--lambda", "0.5", "--kappa", kappa]) == 2
        assert capsys.readouterr() == (
            "", "error: kappa must be nonnegative\n")

    @pytest.mark.parametrize("emphasis", ["constant:1", "abs_expected_td"])
    @pytest.mark.parametrize("lam", ["1.5", "-0.5", "nan"])
    def test_lambda_outside_the_unit_interval(self, capsys, emphasis, lam):
        code = main(["fixed-point", "--task", "BOYAN13", "--emphasis",
                     emphasis, "--lambda", lam])
        captured = capsys.readouterr()
        assert code != 0 and "theta_star" not in captured.out
        assert "lam must lie in [0, 1]" in captured.out + captured.err

    @pytest.mark.parametrize("emphasis", ["constant:1", "abs_expected_td"])
    def test_lambda_outside_the_unit_interval_is_an_error(self, capsys,
                                                          emphasis):
        # one failure convention: ``error:`` on stderr, exit 2, no stdout
        assert main(["fixed-point", "--task", "BOYAN13", "--emphasis",
                     emphasis, "--lambda", "1.5"]) == 2
        assert capsys.readouterr() == ("", "error: lam must lie in [0, 1]\n")

    @pytest.mark.parametrize("emphasis", ["count_inverse:5",
                                          "noise_prior:1",
                                          "abs_expected_td:x"])
    def test_emphasis_parameter_refused(self, capsys, emphasis):
        assert main(["fixed-point", "--task", "RW5_MIDDLE", "--emphasis",
                     emphasis, "--lambda", "0.5"]) == 2
        kind, _, param = emphasis.partition(":")
        assert capsys.readouterr() == ("", (
            f"error: {kind} emphasis takes no parameter, not {param!r}\n"))

    @pytest.mark.parametrize("argv, message", [
        (["--lambda", "-1e-05"], "lam must lie in [0, 1]"),
        (["--lambda", "0.5", "--kappa", "-1e-3"],
         "kappa must be nonnegative"),
        (["--lambda", "0.5", "--emphasis", "constant:1e"],
         "--emphasis constant: '1e' is not a number")])
    def test_number_faults_reach_their_refusal(self, capsys, argv, message):
        assert main(["fixed-point", "--task", "BOYAN13", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("task, level", [("NOISY10:abc", "abc"),
                                             ("noisy10:", "")])
    def test_noisy_level_that_is_not_a_number(self, capsys, task, level):
        assert main(["fixed-point", "--task", task, "--lambda", "0.5"]) == 2
        assert capsys.readouterr() == ("", (
            f"error: NOISY10 reward level must be a number, not {level!r} "
            f"(task {task!r})\n"))

    def test_adaptive_emphasis_reaches_self_consistency(self, capsys):
        assert main(["fixed-point", "--task", "NOISY10:0", "--emphasis",
                     "abs_expected_td", "--lambda", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["emphasis_note"] == "self-consistent adaptive emphasis"


class TestAdaptiveFixedPointBytes:
    """sha256 of what ``dtd fixed-point`` makes of adaptive
    (``abs_expected_td``) emphasis, pinned when first written and again
    when a lone weight vector's products became two-row ones: the emphasis
    bytes and note that the iteration ends on for every named task and
    lambda in {0, 0.5, 0.9, 1}, and the stdout of the solves at lambda
    below 1 (at lambda 1 most of them end in a ``ZeroDivisionError`` of the
    contraction report)."""

    @pytest.mark.parametrize("task, lam, digest", [
        ("RW5_LEFT", 0.0,
         "6721a58ff021083883752b2462137161f2f55369887c2c7c0c02e8136e4c6a42"),
        ("RW5_LEFT", 0.5,
         "563a2127ab5b87753308be2758a5b3144fd2745696b3cc25926f6bed8ae09be3"),
        ("RW5_LEFT", 0.9,
         "376e38c99f4f23c43ca905098b748ea2342d0d6c39aed1d8c627fbcf4e282d49"),
        ("RW5_LEFT", 1.0,
         "024d6bc9bc8fd41c01b911f26bebb56ccb1fd3044ae3e384c4855866cfb8d187"),
        ("RW5_MIDDLE", 0.0,
         "024d6bc9bc8fd41c01b911f26bebb56ccb1fd3044ae3e384c4855866cfb8d187"),
        ("RW5_MIDDLE", 0.5,
         "1eda31db1adc2b733d48a094b072097e5670a55e807ed049371a18122963a747"),
        ("RW5_MIDDLE", 0.9,
         "195e0b2f0f2b5dace27b78450ccaadf3aac06c234cdcbc2d5f53331696d3dfaa"),
        ("RW5_MIDDLE", 1.0,
         "024d6bc9bc8fd41c01b911f26bebb56ccb1fd3044ae3e384c4855866cfb8d187"),
        ("RW5_RIGHT", 0.0,
         "024d6bc9bc8fd41c01b911f26bebb56ccb1fd3044ae3e384c4855866cfb8d187"),
        ("RW5_RIGHT", 0.5,
         "8640941fce570c074ee002701531c6528a5aa1d472711a58039e02b738b8a6e8"),
        ("RW5_RIGHT", 0.9,
         "2c50e9c418d0eba7af943c3a22ae862d265cc2741ed15f4be7f8569b66d55f2c"),
        ("RW5_RIGHT", 1.0,
         "37974cb2015cc78c84ae699d51cc48c245f4d198f087671fca874affe550a304"),
        ("RW5_INVERTED", 0.0,
         "84cd431ac0197a8c553763cd1b1daa66a9ab3ac8bfbc993b06e39621a28701d0"),
        ("RW5_INVERTED", 0.5,
         "1295d01f5a753201092bcf06b09ac2c3a5d4153cd414e3c60dd348f61fad3ba0"),
        ("RW5_INVERTED", 0.9,
         "04630f2d663175f05a1de04a5e49909a3809cb86c43794567d06198e86fa638e"),
        ("RW5_INVERTED", 1.0,
         "c44c2284077aa68f88e34def863d12e70d7308b9945cd4e4c3868eef27e2bc57"),
        ("RW5_DEPENDENT", 0.0,
         "6ec499015ad7b9dcb452f8b800a926cda11c8d3872b8bdadcf9e21f144945e67"),
        ("RW5_DEPENDENT", 0.5,
         "4ac20a3daa9126637fe15ba2c5af08fa764c35e0904c87071c281bb0d7218389"),
        ("RW5_DEPENDENT", 0.9,
         "0f5acd88553e9efa2cde61c5070c84f0841fc305542db8c41bdf6ec3d0cf2754"),
        ("RW5_DEPENDENT", 1.0,
         "c5a9fe52d9ee46bc5e378a969c5e5bd45b6de9cb3c1961a947feb159af0f9b3e"),
        ("BOYAN13", 0.0,
         "08e4c9423c3a8e87031ec63a9b21f0f9b49191743572a98787b6f556d5d2aeef"),
        ("BOYAN13", 0.5,
         "7353960848d3fc2f5b4aa830011a25b80c8f22222280bc3ab426a99a0e563f2b"),
        ("BOYAN13", 0.9,
         "eafe6b819bf56521d7ece6434bdb56f8b3b9905bc039fc6d71a2436c77bd5637"),
        ("BOYAN13", 1.0,
         "0e94ff46ba5495eb816943de403665a080d63d602410ea04555d9dc19faf0a16"),
        ("NOISY10:-1", 0.0,
         "e8cfb702d5a0d178e08a9f51f3daf8a6f9fbbe485576ae5e50b9565f978c1559"),
        ("NOISY10:-1", 0.5,
         "657f73b3961d1640bb25334bd02767a779f4d43495f3aff28fb2df30e170e34a"),
        ("NOISY10:-1", 0.9,
         "91d0dd9de1ac2e665e7b2f2a5e6635f76a7c1dea41c04c522a311b7560844ce2"),
        ("NOISY10:-1", 1.0,
         "a59c1cea6647cb06a908bc8475eddb53cb6e61f60f9ef78cc1be946ce47654d2"),
        ("NOISY10:0", 0.0,
         "17c314b18913aef112026da908abf1ec78de148ebc898d04592e02bab7b53067"),
        ("NOISY10:0", 0.5,
         "17c314b18913aef112026da908abf1ec78de148ebc898d04592e02bab7b53067"),
        ("NOISY10:0", 0.9,
         "17c314b18913aef112026da908abf1ec78de148ebc898d04592e02bab7b53067"),
        ("NOISY10:0", 1.0,
         "17c314b18913aef112026da908abf1ec78de148ebc898d04592e02bab7b53067"),
        ("NOISY10:1", 0.0,
         "e8cfb702d5a0d178e08a9f51f3daf8a6f9fbbe485576ae5e50b9565f978c1559"),
        ("NOISY10:1", 0.5,
         "657f73b3961d1640bb25334bd02767a779f4d43495f3aff28fb2df30e170e34a"),
        ("NOISY10:1", 0.9,
         "91d0dd9de1ac2e665e7b2f2a5e6635f76a7c1dea41c04c522a311b7560844ce2"),
        ("NOISY10:1", 1.0,
         "a59c1cea6647cb06a908bc8475eddb53cb6e61f60f9ef78cc1be946ce47654d2"),
    ])
    def test_emphasis_and_note(self, task, lam, digest):
        mrp, fm = resolve_task(task)
        spec = parse_emphasis("abs_expected_td", DEFAULT_EPSILON_FLOOR)
        f, note = cli._resolve_fixed_emphasis(spec, mrp, fm, lam)
        assert hashlib.sha256(f.tobytes() + note.encode()).hexdigest() \
            == digest

    @pytest.mark.parametrize("task, lam, digest", [
        ("RW5_LEFT", "0.0",
         "dad7aaaac22c3af59a39e5ff08bc41de442815470eb33be9d7852db5bb7023a2"),
        ("RW5_LEFT", "0.5",
         "43d80a074c34fb5e25c49157a86a0a59429bae1f03aafb7d3e222eded937dde7"),
        ("RW5_LEFT", "0.9",
         "a78dc10e52fe43dde0c88eb6b43ecb75ad6d74225f97c79524b87d8f49f5aa2f"),
        ("RW5_MIDDLE", "0.0",
         "d3135b44616374196f545d5246711be7708cf35fd85981ad971bc02af8f67cfd"),
        ("RW5_MIDDLE", "0.5",
         "c96a9d4bc46430c086a680dfa9f7552f2902e0e00082e48382e424438e8932ff"),
        ("RW5_MIDDLE", "0.9",
         "98a4f712591da8bcf66938cfa7e6fdbac7d5410b49f9a9afaf10493ad896c51c"),
        ("RW5_RIGHT", "0.0",
         "20c6ae0a66768f71bc97b2c8173f9a510e3d0c71df4137c71decbd8b6ce52e55"),
        ("RW5_RIGHT", "0.5",
         "489650638dff074320476f7dbb519b6788e1acda3013d913a5c98bd70b7f2f75"),
        ("RW5_RIGHT", "0.9",
         "56b7d63106228b76ce3a0bf253713a11d259fecd2e0b3d73bd6925f4bcf870ae"),
        ("RW5_INVERTED", "0.0",
         "434b6e49ab5acef8d0d5df01dfc7030fbfdf633dddc5dc0de343732f7368159e"),
        ("RW5_INVERTED", "0.5",
         "53c64296ec58aa02ffa67e891edca9c3b930ce75a293ca6cde8db1549d90ca56"),
        ("RW5_INVERTED", "0.9",
         "d7f1736ee66eb36086f722f7fbf2f2101dc55d4672b8038961bfb4c2308e7775"),
        ("RW5_DEPENDENT", "0.0",
         "4184f54eb31bcd5faf3a2865b725c264ccf3ac06624028554c5b01038b47d497"),
        ("RW5_DEPENDENT", "0.5",
         "f29a5d61d64cecef3ee2c609d8f39034a99e2a88528091d10f90e4fa0dcb427f"),
        ("RW5_DEPENDENT", "0.9",
         "bfd27565af9003534c84792127ce39aa625accaee43616fbaad9f2672896432e"),
        ("BOYAN13", "0.0",
         "098612fb40e3cc810b09a080d452ecd823ba0a29d2516f680076350750b7d639"),
        ("BOYAN13", "0.5",
         "dbc51f6a155c24e5d1e959e5c5f69165735c52c54836299e552af13c42922956"),
        ("BOYAN13", "0.9",
         "47fdaec9dd3d3c24294fead4731c348d621138f1c0c4547cf3bde509efc68197"),
        ("NOISY10:-1", "0.0",
         "705da79131279aa26db5bccc07c1bb871ea4aecaf3b1e162288fc81a0afd6fd9"),
        ("NOISY10:-1", "0.5",
         "db035fe7f3bf19de05250b715359a1878a8b32d457c9a29cd4b8a00a09cd11d8"),
        ("NOISY10:-1", "0.9",
         "bc2d56402571521e5a2023dd5aa41951e66d767630b5f913b78598bc60d3c22f"),
        ("NOISY10:0", "0.0",
         "b1078ee8d35000be9ee39f7039c644bcbd0701792ff24c529fcee5b5980b2bb9"),
        ("NOISY10:0", "0.5",
         "b7931c5fa07c568c1ef18cc071d9c318904133cee6c5adecff50623352bfc973"),
        ("NOISY10:0", "0.9",
         "088750bc4e373abc5a63f404ba14125c4bad37db48977df0eef6089935ad5739"),
        ("NOISY10:1", "0.0",
         "03b213e9398943ba6985998194d14d46b2974a64ff351d0ea679b4ba8e47d984"),
        ("NOISY10:1", "0.5",
         "56ccd3d5380b52edb416ae241c00ed5ba1675f13442976ba67abe274c6d9ab87"),
        ("NOISY10:1", "0.9",
         "ff51c8a113e124796c25a6ec46153f0b9ca45968c576fd9a204fdab79da648bd"),
    ])
    def test_solve_stdout(self, capsys, task, lam, digest):
        assert main(["fixed-point", "--task", task, "--emphasis",
                     "abs_expected_td", "--lambda", lam]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestAdaptiveCycleSkip:
    """The adaptive iteration stops at its first repeated iterate and
    returns what the plain capped loop ends on.  On the named tasks this
    covers cycles from iterate 0 (RW5_MIDDLE and RW5_RIGHT at lambda 0.5),
    late ones (RW5_RIGHT at lambda 1, from iterate 308), long periods
    (BOYAN13 at lambda 0.9, 115), solves that never cycle (RW5_DEPENDENT
    at lambda 0.5) and solves that converge."""

    @staticmethod
    def plain_loop(mrp, fm, lam):
        f = np.ones(mrp.n_states)
        for _ in range(cli.ADAPTIVE_ITERATIONS):
            theta = fixed_point(compute_A_b(mrp, fm, f, lam))
            nxt = emphasis_abs_expected_td(mrp, fm, theta,
                                           DEFAULT_EPSILON_FLOOR)
            if np.max(np.abs(nxt - f)) < 1e-12:
                return nxt, "self-consistent adaptive emphasis"
            f = nxt
        return f, "adaptive emphasis iteration hit its cap"

    @pytest.mark.parametrize("task", TASK_NAMES)
    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.9, 1.0])
    def test_matches_the_plain_loop_bit_for_bit(self, task, lam):
        mrp, fm = resolve_task(task)
        spec = parse_emphasis("abs_expected_td", DEFAULT_EPSILON_FLOOR)
        f, note = cli._resolve_fixed_emphasis(spec, mrp, fm, lam)
        want_f, want_note = self.plain_loop(mrp, fm, lam)
        assert f.tobytes() == want_f.tobytes() and note == want_note

    def test_a_short_cycle_ends_the_iteration_early(self, monkeypatch):
        # iterate 6 of RW5_LEFT at lambda 0 repeats iterate 2; the plain
        # loop calls the emphasis 500 times
        calls = []
        score = cli.emphasis_abs_expected_td

        def counted(*args):
            calls.append(None)
            return score(*args)

        monkeypatch.setattr(cli, "emphasis_abs_expected_td", counted)
        mrp, fm = resolve_task("RW5_LEFT")
        spec = parse_emphasis("abs_expected_td", DEFAULT_EPSILON_FLOOR)
        _, note = cli._resolve_fixed_emphasis(spec, mrp, fm, 0.0)
        assert note == "adaptive emphasis iteration hit its cap"
        assert len(calls) <= 6


class TestRepeatedCalls:
    """``main`` called again and again in one process, as a script or a
    notebook drives the CLI: each call prints what a fresh process would."""

    @pytest.mark.parametrize("task, emphasis, lam, digest", [
        ("BOYAN13", "constant:1", "0.5",
         "a0feea2cd0ee4a5354ba40849896fbdd2f08c28dad765233496ad696bc5328bf"),
        ("RW5_MIDDLE", "count_inverse", "0",
         "a72e59faad928ab484c20273b464ace182d234b95c496dd0ebaca8f0a04b37b1"),
        ("NOISY10:1", "noise_prior", "0.9",
         "7e65246a4acb5fd405703f2076ce9e339727905fd9efedf760608d77baec5aaa"),
    ])
    def test_fixed_point_stdout_bytes(self, capsys, task, emphasis, lam,
                                      digest):
        argv = ["fixed-point", "--task", task, "--emphasis", emphasis,
                "--lambda", lam]
        for _ in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_argv_exits_with_the_same_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["fixed-point", "--task", "BOYAN13"])
            assert exc.value.code == 2
            assert capsys.readouterr().err == (
                "usage: dtd fixed-point [-h] --task TASK [--emphasis EMPHASIS]"
                "\n                       [--epsilon-floor EPSILON_FLOOR] "
                "--lambda LAM\n                       [--kappa KAPPA]\n"
                "dtd fixed-point: error: the following arguments are "
                "required: --lambda\n")

    def test_default_grid_after_explicit_grid(self, tmp_path):
        def default_grid(name):
            argv = run_args(tmp_path, name, **{"--runs": "1", "--steps": "20",
                                               "--eval-every": "10"})
            for option in ("--lambda", "--alpha"):
                i = argv.index(option)
                del argv[i:i + 2]
            assert main(argv) == 0
            return (tmp_path / name).read_bytes()

        first = default_grid("first.csv")
        assert len(load_records(tmp_path / "first.csv")) == 6 * 8 * 2
        assert main(run_args(tmp_path, "explicit.csv",
                             **{"--lambda": ["0.3", "0.7"],
                                "--alpha": ["0.2"]})) == 0
        assert default_grid("again.csv") == first

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []

        def counted():
            built.append(None)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for lam in ("0", "0.5"):
                assert main(["fixed-point", "--task", "RW5_MIDDLE",
                             "--lambda", lam]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert build() is not build()



# Most drawn values are valid, so that most examples simulate; the rest
# probe a refusal.
_UNIT = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                  st.sampled_from([0.0, 1.0, -0.5, 1.5, -1e-05,
                                   float("nan")]))
_STEP = st.one_of(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0),
                  st.sampled_from([0.5, 4.0, 1e300, 0.0, -0.5, -1e-05,
                                   float("inf"), float("-inf")]))
_WEIGHT = st.one_of(st.floats(0.1, 2.0),
                    st.sampled_from([1.0, 0.0, -1.0, float("nan")]))
_LEARNERS = ["TD", "DTD", "ETD", "PTD", "TDW"]


@st.composite
def _environments(draw):
    """An environment payload of 1-4 states, sometimes with a bad field."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n,
                                 max_size=n * n))).reshape(n, n)
    stay = draw(st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.0]), min_size=n,
                         max_size=n))
    sums = raw.sum(axis=1, keepdims=True)
    transition = np.divide(raw, sums, out=np.zeros_like(raw),
                           where=sums > 0) * np.array(stay)[:, None]
    start = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                   max_size=n))) + 1e-3
    payload = {
        "mrp": {"n_states": n, "transition": transition.tolist(),
                "expected_reward": draw(st.lists(
                    st.floats(-2.0, 2.0), min_size=n, max_size=n)),
                "reward_noise_std": draw(st.lists(
                    st.sampled_from([0.0, 0.1, 1.0]), min_size=n,
                    max_size=n)),
                "initial_dist": (start / start.sum()).tolist(),
                "discount": draw(st.sampled_from([1.0, 0.9, 0.5, 0.0]))},
        "feature_map": {"phi": (np.eye(n)[:, :k] + np.array(draw(st.lists(
            st.floats(-0.5, 0.5), min_size=n * k, max_size=n * k))).reshape(
                n, k)).tolist()},
    }
    fault = draw(st.sampled_from([None] * 12 + [
        ("mrp", "n_states", n + 1), ("mrp", "discount", True),
        ("mrp", "discount", 1.5), ("mrp", "initial_dist", [1.0] * n),
        ("mrp", "transition", "x"), ("mrp", "n_states", None),
        ("feature_map", "phi", [[1.0]] * (n + 1)),
    ]))
    if fault is not None:
        part, key, value = fault
        if value is None:
            del payload[part][key]
        else:
            payload[part][key] = value
    return payload


_EMPHASIS_TEXT = st.one_of(
    st.sampled_from(["constant:1", "constant:2.5", "count_inverse",
                     "noise_prior", "abs_expected_td"]),
    _WEIGHT.map(lambda w: f"constant:{w!r}"),
    st.lists(_WEIGHT.map(repr), min_size=1, max_size=4).map(
        lambda ws: "table:" + ",".join(ws)),
    st.sampled_from(["constant", "constant:abc", "table:", "table:1,x",
                     "count_inverse:5", "noise_prior:", "abs_expected_td:2",
                     "bogus", "", ":"]),
)

_EMPHASIS_OBJECT = st.fixed_dictionaries(
    {"kind": st.sampled_from(["constant", "table", "count_inverse",
                              "noise_prior", "abs_expected_td"])},
    optional={"constant": _WEIGHT,
              "epsilon_floor": st.sampled_from([1e-3, 0.1, 0.0, 2.0]),
              "table": st.lists(_WEIGHT, min_size=1, max_size=14)})

# one fault of a sweep config: (entry index or None, key, value), the
# value None for a deleted key
_SWEEP_FAULT = st.sampled_from([None] * 12 + [
    (None, "task", "MAZE"), (None, "task", "NOISY10:x"),
    (None, "runs", 1.5), (None, "runs", 0), (None, "steps", None),
    (None, "format", "xml"), (None, "format", "JSON"),
    (None, "aggregate", "false"), (None, "agregate", True),
    (0, "algorithm", "XTD"), (0, "lambda", "0.5"), (0, "alpha", [True]),
    (0, "lamda", 0.9), (0, "emphasis", {"kind": "bogus"}),
    (0, "emphasis", {"kind": 3}), (0, "emphasis", []),
    (0, "emphasis", {"kind": "constant", "constnat": 3.0}),
    (0, "emphasis", {"kind": "table", "table": "1,2"}),
    (0, "emphasis", {"kind": "constant", "constant": True}),
    (0, "emphasis", {"kind": "count_inverse", "epsilon_floor": "x"}),
])


def _assert_clean_exit(code, err):
    """Exit 0, or exit 2 with one ``error:`` line last on stderr; any other
    stderr line is a divergence warning."""
    lines = err.splitlines()
    assert all(line.startswith(("warning: ", "error: ")) for line in lines)
    errors = [line for line in lines if line.startswith("error: ")]
    if code == 0:
        assert errors == []
    else:
        assert code == 2 and len(errors) == 1 and lines[-1] == errors[0]


class TestFuzz:
    """Random inputs through ``cli.main``: a clean exit, never a raise."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(env=_environments(), lams=st.lists(_UNIT, min_size=1, max_size=2,
                                              unique=True),
           alpha=_STEP, emphasis=_EMPHASIS_TEXT,
           algos=st.lists(st.sampled_from(_LEARNERS), min_size=1,
                          max_size=2, unique=True),
           fmt=st.sampled_from(["csv", "json"]), aggregate=st.booleans())
    def test_run(self, tmp_path, capsys, env, lams, alpha, emphasis, algos,
                 fmt, aggregate):
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(env))
        argv = ["run", "--task", "FUZZ", "--algo", *algos, "--lambda",
                *map(repr, lams), "--alpha", repr(alpha),
                f"--emphasis={emphasis}", "--runs",
                "2", "--steps", "6", "--eval-every", "3", "--env-file",
                str(env_path), "--out", str(tmp_path / f"out.{fmt}"),
                "--format", fmt] + (["--aggregate"] if aggregate else [])
        _assert_clean_exit(main(argv), capsys.readouterr().err)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(task=st.sampled_from(["RW5_LEFT", "RW5_DEPENDENT", "BOYAN13",
                                 "NOISY10:1"]),
           entries=st.lists(st.fixed_dictionaries(
               {"algorithm": st.sampled_from(_LEARNERS),
                "lambda": st.one_of(_UNIT, st.lists(_UNIT, min_size=1,
                                                    max_size=2, unique=True)),
                "alpha": st.one_of(_STEP, st.just([0.1, 0.2]))},
               optional={"emphasis": _EMPHASIS_OBJECT}),
               min_size=1, max_size=2),
           fmt=st.sampled_from(["csv", "json"]), aggregate=st.booleans(),
           fault=_SWEEP_FAULT)
    def test_sweep(self, tmp_path, capsys, task, entries, fmt, aggregate,
                   fault):
        config = {"task": task, "algorithms": entries, "runs": 2,
                  "steps": 6, "eval_every": 3, "base_seed": 0,
                  "out": str(tmp_path / "sweep.out"), "format": fmt,
                  "aggregate": aggregate}
        if fault is not None:
            entry, key, value = fault
            target = config if entry is None else entries[entry]
            if value is None:
                del target[key]
            else:
                target[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["sweep", "--config", str(path)])
        _assert_clean_exit(code, capsys.readouterr().err)
