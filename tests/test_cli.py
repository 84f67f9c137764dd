import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uprop
from uprop.cli import RunConfig, main
from uprop.data import load_csv
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


class TestSynth:
    def test_writes_loadable_csvs(self, workdir):
        files = sorted((workdir / "data").glob("node_*.csv"))
        assert len(files) == 2
        s = load_csv(files[0])
        assert s.values.shape == (480, 3)
        assert s.mask.all()


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

    def test_missing_model_is_4(self, workdir, tmp_path):
        rc = main(["forecast", "--model", str(tmp_path / "none.json"),
                   "--data", str(workdir / "data" / "node_000.csv"), "--at", "5"])
        assert rc == 4


def test_console_entry_point_help():
    # the child imports the same uprop as this process, installed or not
    src = str(Path(uprop.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "uprop.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for sub in ("synth", "train", "forecast", "evaluate", "detect"):
        assert sub in proc.stdout
