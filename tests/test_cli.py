import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uprop
from uprop.cli import RunConfig, main
from uprop.data import _fmt, load_csv
from uprop.errors import ConfigError

TINY = {
    "dims": 3, "layers": 1, "hidden": 4, "dropout": 0.0, "lookahead": 2,
    "epochs": 1, "lr": 0.01, "batch_size": 4, "window": 120, "seed": 1,
    "missing_rates": [0.2], "lookaheads": [2],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared synth data + config + one trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--nodes", "2",
                 "--steps", "480", "--seed", "3"]) == 0
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    model = root / "models" / "lookahead_2.json"
    model.parent.mkdir()
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--model-out", str(model)]) == 0
    return root


def table_to_file_and_stdout(argv, fmt, out, capsys):
    """Run a table command in ``fmt`` to stdout and to ``out``; the two
    must be byte-equal. Returns the text."""
    capsys.readouterr()
    assert main(argv + ["--format", fmt]) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    assert out.read_text() == printed and capsys.readouterr().out == ""
    return printed


def assert_formats_agree(csv_text, json_text, ints=(), bools=()):
    """Row by row, the CSV is the JSON written with the table rules: ints
    as they are, bools as 0/1, floats with 17 significant digits."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    doc = json.loads(json_text)
    assert len(doc) == len(lines) - 1 > 0
    for line, obj in zip(lines[1:], doc):
        assert list(obj) == header
        for name, cell in zip(header, line.split(",")):
            value = obj[name]
            if name in ints:
                assert type(value) is int and cell == str(value)
            elif name in bools:
                assert type(value) is bool and cell == str(int(value))
            elif isinstance(value, str):
                assert cell == value
            else:
                assert type(value) is float and cell == _fmt(value)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.lookaheads == [2, 4, 8, 16]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"hidden": 8, "hideen_sizes": 4}')
        with pytest.raises(ConfigError, match="hideen_sizes"):
            RunConfig.load(path)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(dropout=1.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"hidden": 8,')
        with pytest.raises(ConfigError, match=f"{path}: invalid JSON"):
            RunConfig.load(path)

    @pytest.mark.parametrize("fields, says", [
        ({"dims": 0}, "dims must be >= 1, got 0"),
        ({"missing_rates": [0.1, 1.0]}, r"missing rate must be in \[0, 1\), got 1.0"),
        ({"methods": ["uprop", "median"]}, "unknown method 'median'")])
    def test_invalid_field_rejected(self, fields, says):
        with pytest.raises(ConfigError, match=says):
            RunConfig(**fields)

    @pytest.mark.parametrize("fields, says", [
        ({"dims": 2.5}, "dims must be an integer, got 2.5"),
        ({"dims": "3"}, "dims must be an integer, got '3'"),
        ({"missing_rates": [0.1, "a"]},
         r"missing_rates must be a list, each entry a finite number, got \[0.1, 'a'\]"),
        ({"methods": ["uprop", 2]}, "methods must be a list, each entry a string")])
    def test_wrongly_typed_field_rejected_when_built_directly(self, fields, says):
        with pytest.raises(ConfigError, match=says):
            RunConfig(**fields)

    @pytest.mark.parametrize("doc, says", [
        ('{"dims": 2.5}', "dims must be an integer, got 2.5"),
        ('{"missing_rates": [0.1, "a"]}',
         "missing_rates must be a list, each entry a finite number, got [0.1, 'a']")])
    def test_type_errors_from_a_file_start_with_its_path(self, tmp_path, doc, says):
        path = tmp_path / "c.json"
        path.write_text(doc)
        with pytest.raises(ConfigError) as info:
            RunConfig.load(path)
        assert str(info.value) == f"{path}: {says}"


class TestSynth:
    def test_writes_loadable_csvs(self, workdir):
        files = sorted((workdir / "data").glob("node_*.csv"))
        assert len(files) == 2
        s = load_csv(files[0])
        assert s.values.shape == (480, 3)
        assert s.mask.all()

    @pytest.mark.parametrize("flag, value, says", [
        ("--nodes", "-1", "nodes >= 1"), ("--nodes", "0", "nodes >= 1"),
        ("--period", "0", "period >= 1"), ("--steps", "100", "steps >= 240"),
        ("--dims", "1", "CPU channel"), ("--seed", "-1", "seed >= 0")],
        ids=["nodes-negative", "nodes-0", "period-0", "steps-short", "dims-1",
             "seed-negative"])
    def test_rejected_shape_is_3_and_writes_nothing(self, tmp_path, capsys, flag,
                                                    value, says):
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), "--steps", "240", flag, value]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and says in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestTrain:
    def test_checkpoint_and_loss_curve_written(self, workdir):
        model = workdir / "models" / "lookahead_2.json"
        assert model.exists()
        loss = model.with_suffix(".loss.csv")
        lines = loss.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 2  # one epoch
        assert float(lines[1].split(",")[1]) == float(lines[1].split(",")[1])


class TestForecast:
    def test_csv_output_with_intervals(self, workdir, tmp_path):
        out = tmp_path / "fc.csv"
        rc = main(["forecast", "--model", str(workdir / "models" / "lookahead_2.json"),
                   "--data", str(workdir / "data" / "node_000.csv"),
                   "--at", "100", "--horizon", "4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,dim,mu,sigma,lower95,upper95"
        assert len(lines) == 1 + 4 * 3
        for line in lines[1:]:
            step, dim, mu, sigma, lo, hi = line.split(",")
            assert float(lo) < float(mu) < float(hi)
            assert float(sigma) > 0

    def test_json_output(self, workdir, tmp_path):
        out = tmp_path / "fc.json"
        rc = main(["forecast", "--model", str(workdir / "models" / "lookahead_2.json"),
                   "--data", str(workdir / "data" / "node_000.csv"),
                   "--at", "50", "--horizon", "2", "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 6
        assert {"step", "dim", "mu", "sigma", "lower95", "upper95"} <= set(doc[0])

    def test_formats_agree_to_file_and_to_stdout(self, workdir, tmp_path, capsys):
        argv = ["forecast", "--model", str(workdir / "models" / "lookahead_2.json"),
                "--data", str(workdir / "data" / "node_000.csv"),
                "--at", "100", "--horizon", "3"]
        csv_text = table_to_file_and_stdout(argv, "csv", tmp_path / "fc.csv", capsys)
        json_text = table_to_file_and_stdout(argv, "json", tmp_path / "fc.json", capsys)
        assert csv_text.splitlines()[0] == "step,dim,mu,sigma,lower95,upper95"
        assert_formats_agree(csv_text, json_text, ints=("step", "dim"))
        doc = json.loads(json_text)
        assert [(r["step"], r["dim"]) for r in doc] == [
            (step, dim) for step in (101, 102, 103) for dim in range(3)]

    def test_at_outside_range_is_data_error(self, workdir):
        rc = main(["forecast", "--model", str(workdir / "models" / "lookahead_2.json"),
                   "--data", str(workdir / "data" / "node_000.csv"),
                   "--at", "9999"])
        assert rc == 3


class TestEvaluate:
    def test_grid_and_difference_tables(self, workdir, tmp_path):
        out = tmp_path / "grid"
        rc = main(["evaluate", "--models-dir", str(workdir / "models"),
                   "--data", str(workdir / "data"),
                   "--config", str(workdir / "config.json"),
                   "--out-dir", str(out)])
        assert rc == 0
        for name in ("grid_uprop", "grid_mean", "grid_sample",
                     "diff_mean", "diff_sample"):
            lines = (out / f"{name}.csv").read_text().strip().splitlines()
            assert lines[0] == "missing,2"
            assert len(lines) == 2  # one rate row
        g_u = float((out / "grid_uprop.csv").read_text().splitlines()[1].split(",")[1])
        g_m = float((out / "grid_mean.csv").read_text().splitlines()[1].split(",")[1])
        d_m = float((out / "diff_mean.csv").read_text().splitlines()[1].split(",")[1])
        assert d_m == pytest.approx(g_m - g_u, rel=1e-12)

    @pytest.mark.parametrize("fields, says", [
        ({"lookaheads": []}, "lookaheads must not be empty"),
        ({"missing_rates": []}, "missing_rates must not be empty"),
        ({"methods": []}, "methods must not be empty"),
        ({"methods": ["mean"]}, "methods must include 'uprop'")])
    def test_config_lists_without_a_uprop_grid_are_2_and_write_nothing(
            self, workdir, tmp_path, capsys, fields, says):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY, **fields)))
        out = tmp_path / "grid"
        rc = main(["evaluate", "--models-dir", str(workdir / "models"),
                   "--data", str(workdir / "data"), "--config", str(config),
                   "--out-dir", str(out)])
        assert rc == 2 and not out.exists()
        assert says in capsys.readouterr().err

    def test_missing_checkpoint_is_exit_4(self, workdir, tmp_path):
        rc = main(["evaluate", "--models-dir", str(tmp_path),
                   "--data", str(workdir / "data"),
                   "--config", str(workdir / "config.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 4


class TestDetect:
    def test_scores_csv_with_flags(self, workdir, tmp_path):
        out = tmp_path / "scores.csv"
        rc = main(["detect", "--model", str(workdir / "models" / "lookahead_2.json"),
                   "--data", str(workdir / "data" / "node_001.csv"),
                   "--calibrate-on", str(workdir / "data" / "node_000.csv"),
                   "--method", "kl", "--quantile", "0.95", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,kind,value,flagged"
        assert len(lines) == 1 + (480 - 8)
        flags = [int(l.split(",")[3]) for l in lines[1:]]
        assert set(flags) <= {0, 1}

    def test_surprise_json(self, workdir, tmp_path):
        out = tmp_path / "scores.json"
        rc = main(["detect", "--model", str(workdir / "models" / "lookahead_2.json"),
                   "--data", str(workdir / "data" / "node_001.csv"),
                   "--calibrate-on", str(workdir / "data" / "node_000.csv"),
                   "--method", "surprise", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc[0]["kind"] == "surprise"


    def test_formats_agree_to_file_and_to_stdout(self, workdir, tmp_path, capsys):
        argv = ["detect", "--model", str(workdir / "models" / "lookahead_2.json"),
                "--data", str(workdir / "data" / "node_001.csv"),
                "--calibrate-on", str(workdir / "data" / "node_000.csv"),
                "--method", "kl", "--quantile", "0.9"]
        csv_text = table_to_file_and_stdout(argv, "csv", tmp_path / "s.csv", capsys)
        json_text = table_to_file_and_stdout(argv, "json", tmp_path / "s.json", capsys)
        assert csv_text.splitlines()[0] == "t,kind,value,flagged"
        assert_formats_agree(csv_text, json_text, ints=("t",), bools=("flagged",))
        flags = {r["flagged"] for r in json.loads(json_text)}
        assert flags == {False, True}


class TestExitCodes:
    def test_bad_config_is_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"epochs": 0}')
        rc = main(["train", "--data", str(workdir / "data"),
                   "--config", str(bad), "--model-out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_bad_data_is_3(self, workdir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,dim_0\n0,1\n2,3\n")
        rc = main(["forecast", "--model", str(workdir / "models" / "lookahead_2.json"),
                   "--data", str(bad), "--at", "0"])
        assert rc == 3

    def test_non_finite_cell_is_3(self, workdir, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("t,dim_0,dim_1,dim_2\n0,1,2,3\n1,1.0,nan,3\n")
        rc = main(["forecast", "--model", str(workdir / "models" / "lookahead_2.json"),
                   "--data", str(bad), "--at", "0"])
        assert rc == 3
        assert "dim_1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["forecast", "detect", "evaluate"])
    def test_value_overflowing_normalization_is_3(self, workdir, tmp_path, capsys,
                                                  command):
        model = workdir / "models" / "lookahead_2.json"
        # the CPU channel's std is below 1, so a huge value overflows
        assert uprop.load_checkpoint(model)[0].norm.std[2] < 1.0
        series = load_csv(workdir / "data" / "node_000.csv")
        series.values[:, 2] = 1.7e308
        bad = tmp_path / "data" / "node_000.csv"
        bad.parent.mkdir()
        uprop.save_csv(series, bad)
        argv = {
            "forecast": ["forecast", "--model", str(model), "--data", str(bad),
                         "--at", "10"],
            "detect": ["detect", "--model", str(model), "--data", str(bad),
                       "--calibrate-on", str(workdir / "data" / "node_001.csv")],
            "evaluate": ["evaluate", "--models-dir", str(model.parent),
                         "--data", str(bad.parent), "--config",
                         str(workdir / "config.json"), "--out-dir", str(tmp_path)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "dim_2" in err and "not finite" in err

    def test_horizon_below_one_is_2(self, workdir, capsys):
        rc = main(["forecast", "--model", str(workdir / "models" / "lookahead_2.json"),
                   "--data", str(workdir / "data" / "node_000.csv"),
                   "--at", "100", "--horizon", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "horizon" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags, word", [
        (["--near", "5", "--far", "2"], "offsets"),
        (["--quantile", "1.5"], "quantile")])
    def test_bad_detect_options_are_2(self, workdir, capsys, flags, word):
        rc = main(["detect", "--model", str(workdir / "models" / "lookahead_2.json"),
                   "--data", str(workdir / "data" / "node_001.csv"),
                   "--calibrate-on", str(workdir / "data" / "node_000.csv")] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and word in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, flags, word", [
        ("forecast", ["--horizon", "0"], "horizon"),
        ("detect", ["--quantile", "1.5"], "quantile"),
        ("detect", ["--near", "5", "--far", "2"], "offsets")])
    def test_bad_flag_is_2_before_the_checkpoint_or_data_is_read(
            self, tmp_path, capsys, command, flags, word):
        # neither the checkpoint nor the CSVs exist: reading either first
        # would exit 4 or 3
        absent = [str(tmp_path / name) for name in ("none.json", "a.csv", "b.csv")]
        argv = {"forecast": ["forecast", "--model", absent[0], "--data", absent[1],
                             "--at", "5"],
                "detect": ["detect", "--model", absent[0], "--data", absent[1],
                           "--calibrate-on", absent[2]]}[command]
        out = tmp_path / "out.csv"
        assert main(argv + flags + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and word in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_bad_train_lookahead_is_2_before_the_data_is_read(self, tmp_path, capsys):
        # the data path does not exist: reading it first would exit 3
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY))
        rc = main(["train", "--data", str(tmp_path / "absent"), "--config", str(config),
                   "--model-out", str(tmp_path / "model.json"), "--lookahead", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "lookahead" in captured.err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("doc, says", [
        ("5", "JSON object"), ("[1, 2]", "JSON object"),
        ('{"dims": "abc"}', "dims must be"), ('{"lookaheads": 5}', "lookaheads must be"),
        ('{"missing_rates": ["a"]}', "missing_rates must be"),
        ('{"epochs": 2.5}', "epochs must be"), ('{"hidden": 8.0}', "hidden must be"),
        ('{"methods": "uprop"}', "methods must be"),
        ('{"lookahead": true}', "lookahead must be"), ('{"lr": NaN}', "lr must be")])
    def test_wrongly_typed_config_is_2(self, workdir, tmp_path, capsys, doc, says):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        rc = main(["train", "--data", str(workdir / "data"),
                   "--config", str(bad), "--model-out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert says in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["train", "forecast", "detect-data",
                                         "detect-calibrate-on", "evaluate"])
    def test_missing_data_path_is_3(self, workdir, tmp_path, capsys, command):
        model = workdir / "models" / "lookahead_2.json"
        good = str(workdir / "data" / "node_000.csv")
        absent = str(tmp_path / "absent.csv")
        argv = {
            "train": ["train", "--data", absent, "--config",
                      str(workdir / "config.json"), "--model-out",
                      str(tmp_path / "m.json")],
            "forecast": ["forecast", "--model", str(model), "--data", absent,
                         "--at", "10"],
            "detect-data": ["detect", "--model", str(model), "--data", absent,
                            "--calibrate-on", good],
            "detect-calibrate-on": ["detect", "--model", str(model), "--data", good,
                                    "--calibrate-on", absent],
            "evaluate": ["evaluate", "--models-dir", str(model.parent),
                         "--data", absent, "--config", str(workdir / "config.json"),
                         "--out-dir", str(tmp_path)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and absent in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", ["config-dims", "mixed-dims"])
    def test_data_not_of_the_config_dims_is_3(self, workdir, tmp_path, capsys, case):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("node_000.csv", "node_001.csv"):
            (data / name).write_bytes((workdir / "data" / name).read_bytes())
        config = dict(TINY, dims=5) if case == "config-dims" else TINY
        bad = data / ("node_000.csv" if case == "config-dims" else "node_001.csv")
        if case == "mixed-dims":
            rows = [line.rsplit(",", 1)[0] for line in bad.read_text().splitlines()]
            bad.write_text("\n".join(rows) + "\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--config", str(path),
                   "--model-out", str(model)])
        err = capsys.readouterr().err
        assert rc == 3 and not model.exists()
        assert err.startswith("data error:") and str(bad) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["forecast --out", "detect --out",
                                      "train --model-out", "train --loss-out"])
    def test_output_in_a_missing_directory_is_2_and_writes_nothing(
            self, workdir, tmp_path, capsys, flag):
        model = str(workdir / "models" / "lookahead_2.json")
        data = workdir / "data"
        absent = tmp_path / "nodir" / "out.csv"
        argv = {
            "forecast --out": ["forecast", "--model", model, "--data",
                               str(data / "node_000.csv"), "--at", "10",
                               "--out", str(absent)],
            "detect --out": ["detect", "--model", model, "--data",
                             str(data / "node_000.csv"), "--calibrate-on",
                             str(data / "node_001.csv"), "--out", str(absent)],
            "train --model-out": ["train", "--data", str(data), "--config",
                                  str(workdir / "config.json"),
                                  "--model-out", str(absent)],
            "train --loss-out": ["train", "--data", str(data), "--config",
                                 str(workdir / "config.json"), "--model-out",
                                 str(tmp_path / "m.json"), "--loss-out", str(absent)],
        }[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: output directory does not exist: {absent.parent}\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_config_seed_is_2(self, workdir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY, seed=-1)))
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(workdir / "data"), "--config", str(config),
                   "--model-out", str(model)])
        err = capsys.readouterr().err
        assert rc == 2 and not model.exists()
        assert err == "config error: seed must be >= 0, got -1\n"

    def test_data_directory_without_csvs_is_3(self, workdir, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["train", "--data", str(empty), "--config", str(workdir / "config.json"),
                   "--model-out", str(tmp_path / "m.json")])
        assert rc == 3
        assert capsys.readouterr().err == f"data error: no CSV files in {empty}\n"

    def test_training_data_with_missing_cells_is_3(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("node_000.csv", "node_001.csv"):
            lines = (workdir / "data" / name).read_text().splitlines()
            for row in range(11, len(lines), TINY["window"]):   # one per window
                t, _, rest = lines[row].split(",", 2)
                lines[row] = f"{t},,{rest}"
            (data / name).write_text("\n".join(lines) + "\n")
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--config", str(workdir / "config.json"),
                   "--model-out", str(model)])
        err = capsys.readouterr().err
        assert rc == 3 and not model.exists()
        assert err == "data error: training data must not contain missing values\n"

    def test_missing_model_is_4(self, workdir, tmp_path):
        rc = main(["forecast", "--model", str(tmp_path / "none.json"),
                   "--data", str(workdir / "data" / "node_000.csv"), "--at", "5"])
        assert rc == 4


def run_python(*args):
    """A child Python that imports the same uprop as this process,
    installed or not."""
    src = str(Path(uprop.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_entry_point_help():
    proc = run_python("-m", "uprop.cli", "--help")
    assert proc.returncode == 0
    for sub in ("synth", "train", "forecast", "evaluate", "detect"):
        assert sub in proc.stdout


def test_runtime_does_not_import_scipy():
    # scipy is a test dependency only
    proc = run_python("-c", "import sys, uprop.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_forecast_does_not_import_numpy_random(workdir, tmp_path):
    # loading a checkpoint writes every weight from the file, so it draws
    # none; importing numpy.random alone pulls in secrets, hmac and OpenSSL
    argv = ["forecast", "--model", str(workdir / "models" / "lookahead_2.json"),
            "--data", str(workdir / "data" / "node_000.csv"), "--at", "5",
            "--out", str(tmp_path / "f.csv")]
    proc = run_python("-c", "import sys; from uprop.cli import main; "
                      f"print(main({argv!r}), 'numpy.random' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "0 False\n", proc.stderr
