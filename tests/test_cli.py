import json
import re
from dataclasses import replace

import pytest

from linkconformal.cli import main
from linkconformal.pipeline import run_pipeline

from test_pipeline import tiny_config


def test_synth_then_fit_powerlaw(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    assert main(["synth", "--nodes", "1500", "--beta", "2.5", "--dmin", "1",
                 "--seed", "3", "--out", str(edges)]) == 0
    assert edges.exists()
    assert main(["fit-powerlaw", "--edge-list", str(edges)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"beta_hat", "d_min", "ks", "tail_size"}
    assert 2.0 < payload["beta_hat"] < 3.2


def test_synth_writes_the_graph_the_pipeline_synthesizes(tmp_path, capsys):
    cfg = tiny_config()
    edges = tmp_path / "edges.txt"
    assert main(["synth", "--nodes", str(cfg.synth_nodes), "--beta", str(cfg.synth_beta),
                 "--dmin", str(cfg.synth_d_min), "--cliques", f"{cfg.clique_m}x{cfg.clique_n}",
                 "--seed", str(cfg.seed), "--out", str(edges)]) == 0
    from_file = run_pipeline(replace(cfg, edge_list=str(edges), clique_m=0, clique_n=0))
    synthesized = run_pipeline(cfg)
    assert from_file.trials == synthesized.trials
    assert from_file.summary == synthesized.summary
    with pytest.raises(SystemExit):
        main(["synth", "--help"])
    usage = capsys.readouterr().out
    for flag in ("--nodes NODES", "--beta BETA", "--dmin DMIN"):
        assert flag in usage


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


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep-lambda", "--lambdas", "1.0"],
    ["sweep-cliques", "--grid", "4x1", "--variants", "1"],
    ["synth", "--nodes", "300", "--cliques", "8x2"],
    ["fit-powerlaw"],
], ids=lambda command: command[0])
def test_run_stdout_matches_out_file(tmp_path, capsys, command):
    if command[0] == "synth":
        args = command + ["--seed", "4"]
    elif command[0] == "fit-powerlaw":
        edges = tmp_path / "edges.txt"
        assert main(["synth", "--nodes", "300", "--seed", "4", "--out", str(edges)]) == 0
        args = command + ["--edge-list", str(edges)]
    else:
        args = command + ["--config", str(_tiny_cfg(tmp_path)), "--seed", "4"]
    out = tmp_path / "out.txt"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def _fails_with(capsys, argv, pattern):
    """Run ``main(argv)``, expect argparse's exit status 2, and match one stderr error line."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert re.match(f"^linkconformal: error: {pattern}$", err.rstrip("\n")), err


@pytest.mark.parametrize("token", ["25", "25x", "x20"])
def test_malformed_clique_token_named(tmp_path, capsys, token):
    message = f"expected MxN like 25x20, got {re.escape(repr(token))}"
    _fails_with(capsys, ["synth", "--nodes", "300", "--cliques", token], message)
    _fails_with(capsys, ["sweep-cliques", "--grid", f"4x2 {token}", "--config", str(_tiny_cfg(tmp_path))], message)


def test_synth_takes_one_clique_token(capsys):
    _fails_with(capsys, ["synth", "--nodes", "300", "--cliques", "25x20,50x20"],
                "expected MxN like 25x20, got '25x20,50x20'")


def test_write_error_names_the_output(tmp_path, capsys):
    missing = tmp_path / "missing" / "edges.txt"
    _fails_with(capsys, ["synth", "--nodes", "300", "--out", str(missing)],
                f"cannot write output to {re.escape(str(missing))}: .*")


def test_single_clique_count_is_one_error_line(capsys):
    _fails_with(capsys, ["synth", "--cliques", "25"], "expected MxN like 25x20, got '25'")


def test_unknown_config_key_is_one_error_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("synth_nodes = 300\nbogus_key = 3\n")
    _fails_with(capsys, ["run", "--config", str(config)], "config line 2: unknown key 'bogus_key'")


def test_bad_config_value_is_one_error_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("synth_nodes = 300\nalpha = abc\n")
    _fails_with(capsys, ["run", "--config", str(config)],
                "config key 'alpha': could not convert string to float: 'abc'")


def test_negative_lambda_is_one_error_line(capsys):
    _fails_with(capsys, ["run", "--lambda", "-1"], re.escape("lambda must be finite and >= 0, got -1.0"))


def test_unreadable_edge_list_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    _fails_with(capsys, ["run", "--edge-list", str(missing)], f".*{re.escape(str(missing))}.*")
    _fails_with(capsys, ["fit-powerlaw", "--edge-list", str(missing)], f".*{re.escape(str(missing))}.*")


def test_library_functions_still_raise():
    from linkconformal.cli import _parse_mxn

    with pytest.raises(ValueError, match="^expected MxN like 25x20, got '25'$"):
        _parse_mxn("25")
