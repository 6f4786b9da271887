import json

import pytest

from linkconformal.cli import main


def test_synth_then_fit_powerlaw(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    assert main(["synth", "--nodes", "1500", "--beta", "2.5", "--dmin", "1",
                 "--seed", "3", "--out", str(edges)]) == 0
    assert edges.exists()
    assert main(["fit-powerlaw", "--edge-list", str(edges)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"beta_hat", "d_min", "ks", "tail_size"}
    assert 2.0 < payload["beta_hat"] < 3.2


def test_run_with_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "synth_nodes = 300\nclique_m = 8\nclique_n = 2\nfeature_dim = 6\n"
        "splits = 1\nreps = 1\nmodel_epochs = 5\nmodel_hidden_dim = 8\n"
        "model_num_layers = 2\nmodel_batch_size = 1024\nmodel_scorer_hidden_dim = 8\n"
        "quantile_epochs = 5\nquantile_hidden_dim = 8\nlambda = 1.0\nsampler_mode = literal\n"
    )
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(config), "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config_echo"]["seed"] == 1  # CLI override wins
    assert report["config_echo"]["model_epochs"] == 5
    assert report["trials"]


def test_sweep_lambda_csv(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "synth_nodes = 300\nclique_m = 8\nclique_n = 2\nfeature_dim = 6\n"
        "splits = 1\nreps = 1\nmodel_epochs = 5\nmodel_hidden_dim = 8\n"
        "model_batch_size = 1024\nmodel_scorer_hidden_dim = 8\n"
        "quantile_epochs = 5\nquantile_hidden_dim = 8\nsampler_mode = literal\n"
    )
    out = tmp_path / "rows.json"
    csv_path = tmp_path / "rows.csv"
    assert main(["sweep-lambda", "--config", str(config), "--seed", "2",
                 "--lambdas", "1.0,0.6", "--out", str(out), "--csv", str(csv_path)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["lam"] for r in rows] == [1.0, 0.6]
    assert csv_path.read_text().splitlines()[0].startswith("lam,")


def test_sweep_cliques_cli(tmp_path):
    out = tmp_path / "rows.json"
    assert main(["sweep-cliques", "--grid", "4x2", "--variants", "1", "--seed", "3",
                 "--out", str(out),
                 # keep the run tiny through overrides in a config file
                 "--config", str(_tiny_cfg(tmp_path))]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["m"] == 4 and rows[0]["n"] == 2


def _tiny_cfg(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "synth_nodes = 300\nfeature_dim = 6\nsplits = 1\nreps = 1\n"
        "model_epochs = 5\nmodel_hidden_dim = 8\nmodel_batch_size = 1024\n"
        "model_scorer_hidden_dim = 8\nquantile_epochs = 5\nquantile_hidden_dim = 8\n"
    )
    return config


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_run_stdout_matches_out_file(tmp_path, capsys):
    args = ["run", "--config", str(_tiny_cfg(tmp_path)), "--seed", "4"]
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
