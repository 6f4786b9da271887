import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import linkconformal.pipeline as pipeline_mod
from linkconformal.config import RunConfig, build_run_config, config_echo, parse_config_text
from linkconformal.conformal import conformalize
from linkconformal.errors import DegenerateCalibrationError
from linkconformal.graph import Graph, degree_sequence, load_edge_list, load_features
from linkconformal.model import ModelConfig, structural_features
from linkconformal.pipeline import (
    TrialRecord,
    load_graph,
    report_text,
    run_pipeline,
    sweep_cliques,
    sweep_lambda,
    write_csv,
    write_report,
)
from linkconformal.quantile import QuantileConfig
from linkconformal.seeding import derive_seed

TINY_MODEL = ModelConfig(hidden_dim=8, num_layers=2, epochs=8, learning_rate=0.05,
                         batch_size=1024, scorer_hidden_dim=8)
TINY_QNET = QuantileConfig(epochs=10, learning_rate=5e-3, batch_size=64, hidden_dim=8)


def tiny_config(**overrides):
    kwargs = dict(
        alpha=0.1, seed=42, n_splits=1, n_reps=1, synth_nodes=300, synth_beta=2.5,
        synth_d_min=1, clique_m=8, clique_n=3, feature_dim=6,
        model=TINY_MODEL, quantile=TINY_QNET, sampler_lambda=1.0,
        sampler_mode="literal",
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


# A valid value away from the default for every settable field.
AWAY_RUN = dict(
    alpha=0.2, ratios=(0.4, 0.2, 0.2, 0.2), seed=7, n_splits=2, n_reps=3, edge_list="edges.txt",
    feature_file="features.txt", feature_dim=4, feature_mode="structural", synth_nodes=500,
    synth_beta=2.2, synth_d_min=2, clique_m=5, clique_n=1, sampler_lambda=0.5, sampler_mode="literal",
    sampler_agg="max", run_sampled_arm=False,
)
AWAY_MODEL = dict(hidden_dim=16, num_layers=2, aggregation="mean-neighbor", epochs=3, learning_rate=0.05,
                  batch_size=256, momentum=0.5, scorer_hidden_dim=8)
AWAY_QNET = dict(epochs=4, learning_rate=1e-3, batch_size=32, hidden_dim=16, momentum=0.8)


def away_config():
    return RunConfig(**AWAY_RUN, model=ModelConfig(**AWAY_MODEL), quantile=QuantileConfig(**AWAY_QNET))


@pytest.fixture
def link_trainings(monkeypatch):
    """Arguments of every link-model training the pipeline starts."""
    calls = []
    train = pipeline_mod.train_link_predictor

    def counted(*args, **kwargs):
        calls.append(args)
        return train(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "train_link_predictor", counted)
    return calls


class TestRunPipeline:
    def test_produces_both_arms(self):
        report = run_pipeline(tiny_config())
        arms = {t.arm for t in report.trials}
        assert arms == {"cqr", "sampled"}
        assert report.summary["arms"]["cqr"]["n_trials"] == 1

    def test_byte_identical_reports(self, tmp_path):
        cfg = tiny_config()
        a, b = run_pipeline(cfg), run_pipeline(cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_report(a, pa)
        write_report(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_coverage_fields_sane(self):
        report = run_pipeline(tiny_config(n_splits=2))
        for t in report.trials:
            if t.error is None:
                assert 0.0 <= t.coverage <= 1.0
                assert t.avg_length >= 0.0

    def test_cqr_only(self):
        report = run_pipeline(tiny_config(run_sampled_arm=False))
        assert {t.arm for t in report.trials} == {"cqr"}
        assert report.summary["improvement_pct"] is None

    def test_degenerate_trial_recorded_not_raised(self):
        # lambda 0 in literal mode removes everything: the sweep continues
        # and the trial carries an error
        report = run_pipeline(tiny_config(sampler_lambda=0.0))
        sampled = [t for t in report.trials if t.arm == "sampled"]
        assert all(t.error is not None for t in sampled)
        if "sampled" in report.summary["arms"]:
            assert report.summary["arms"]["sampled"]["n_degenerate"] == 1

    def test_infinite_q_hat_recorded_as_error(self):
        # 50 nodes leave the sampled arm 2 calibration edges; at alpha 0.1 a
        # finite q_hat needs at least 9
        report = run_pipeline(tiny_config(synth_nodes=50, clique_n=0, n_splits=2))
        sampled = [t for t in report.trials if t.arm == "sampled"]
        assert len(sampled) == 2
        for t in sampled:
            assert t.q_hat is None and t.avg_length is None
            assert "K=2" in t.error and "infinite q_hat at alpha=0.1" in t.error
        for t in report.trials:
            assert t.error is not None or (math.isfinite(t.q_hat) and math.isfinite(t.avg_length))
        assert "sampled" not in report.summary["arms"]

    @pytest.mark.parametrize("num_edges", [3, 6])
    def test_empty_calibration_set_recorded_as_error(self, num_edges):
        # 0.1 of 3 to 6 edges floors to no calibration edge
        config = tiny_config(ratios=(0.7, 0.1, 0.1, 0.1))
        report = run_pipeline(config, graph=Graph(12, [(i, i + 1) for i in range(num_edges)]))
        assert [t.arm for t in report.trials] == ["cqr", "sampled"]
        for t in report.trials:
            assert t.error == "the calibration set is empty: it has 0 edges"
        assert report.summary["arms"] == {}

    def test_empty_test_set_recorded_as_error(self):
        # 0.01 of 30 edges floors to no test edge; calibration gets 11
        config = tiny_config(ratios=(0.5, 0.1, 0.39, 0.01), run_sampled_arm=False)
        report = run_pipeline(config, graph=Graph(40, [(i, i + 1) for i in range(30)]))
        (record,) = report.trials
        assert record.error == "the test set is empty: it has 0 edges"
        assert record.coverage is None and record.q_hat is None

    def test_no_power_law_fit_recorded_as_sampled_arm_error(self):
        # every node of a perfect matching has degree 1: one distinct degree
        # admits no power-law fit, so there is no KS and nothing to sample toward
        matching = Graph(400, np.arange(400).reshape(-1, 2))
        report = run_pipeline(tiny_config(n_splits=1, n_reps=1), graph=matching)
        cqr, sampled = report.trials
        assert (cqr.arm, cqr.error, cqr.ks_before) == ("cqr", None, None)
        assert cqr.coverage == pytest.approx(0.9125)
        assert sampled.arm == "sampled" and sampled.ks_before is None
        assert sampled.error == "the training subgraph admits no power-law fit"
        assert sampled.coverage is None and sampled.ks_after is None
        base = next(pipeline_mod._trials(tiny_config(n_splits=1, n_reps=1), matching))
        with pytest.raises(DegenerateCalibrationError, match=f"^{re.escape(sampled.error)}$"):
            base.arm("sampled")

    @pytest.mark.parametrize("mode, lam", [("literal", 1.0), ("directional", 2.4)])
    def test_sampled_fields_equal_those_of_the_sampled_graph(self, mode, lam):
        # ks_after and density_after are taken from the endpoint counts of the
        # kept positive rows, without building the graph those rows form.
        base = next(pipeline_mod._trials(tiny_config(sampler_mode=mode), None))
        outcome = base.arm("sampled", lam)
        fit_rows = outcome.fit_rows
        sampled = base.subgraph.with_edges(fit_rows[fit_rows[:, 2] == 1, :2])
        fit = pipeline_mod._degree_fit(degree_sequence(sampled))
        assert fit is not None and outcome.ks_after == fit.ks
        assert outcome.density_after == sampled.num_edges / (300 * 299 / 2)

    @pytest.mark.parametrize("arm", ["cqr", "sampled"])
    def test_arm_outcome_reproduces_its_intervals_and_record(self, arm):
        base = next(pipeline_mod._trials(tiny_config(), None))
        outcome = base.arm(arm)
        intervals, q_hat = conformalize(outcome.qmodel, *base.embed(outcome.calib), base.test_embedded[0],
                                        base.config.alpha)
        assert q_hat == outcome.q_hat
        assert np.array_equal(intervals.lower, outcome.intervals.lower)
        assert np.array_equal(intervals.upper, outcome.intervals.upper)
        assert (outcome.ks_after is None) == (arm == "cqr")
        record = base.run_arm(arm)
        assert record.error is None
        assert (record.coverage, record.avg_length, record.q_hat, record.ks_after, record.density_after) == (
            outcome.coverage, outcome.avg_length, outcome.q_hat, outcome.ks_after, outcome.density_after)

    def test_report_text_is_standard_json(self):
        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        report = run_pipeline(tiny_config(synth_nodes=50, clique_n=0, n_splits=2))
        parsed = json.loads(report_text(report), parse_constant=reject)
        assert parsed["summary"]["arms"]["cqr"]["n_trials"] == 2
        with pytest.raises(ValueError):
            report_text({"q_hat": math.inf})
        with pytest.raises(ValueError):
            report_text({"std_length": math.nan})

    def test_custom_graph_accepted(self):
        from linkconformal.graph import generate_latent_powerlaw_graph
        g = generate_latent_powerlaw_graph(300, 2.5, 2, 6, seed=1)
        report = run_pipeline(tiny_config(clique_n=0), graph=g)
        assert report.trials


    @pytest.mark.parametrize("arm, lam", [("CQR", None), ("plain", None), ("cqr", 1.0)])
    def test_bad_arm_arguments_rejected(self, arm, lam):
        base = next(pipeline_mod._trials(tiny_config(), None))
        with pytest.raises(ValueError):
            base.run_arm(arm, lam)
        with pytest.raises(ValueError):
            base.arm(arm, lam)

    @pytest.mark.parametrize("arm", ["CQR", "plain", "bogus"])
    def test_record_of_unknown_arm_rejected(self, arm):
        # The summary groups records by arm; an unknown one was once dropped from it without a word.
        with pytest.raises(ValueError, match=f"^arm must be 'cqr' or 'sampled', got '{arm}'$"):
            TrialRecord(arm=arm, split=0, rep=0, seed=0)


class TestSweepLambda:
    def test_single_lambda_matches_run_pipeline(self):
        cfg = tiny_config(n_splits=2)
        report = run_pipeline(cfg)
        rows = sweep_lambda(cfg, [cfg.sampler_lambda])
        sampled = report.summary["arms"]["sampled"]
        assert rows[0].coverage == pytest.approx(sampled["mean_coverage"])
        assert rows[0].avg_length == pytest.approx(sampled["mean_length"])

    def test_density_tracks_lambda_in_literal_mode(self):
        cfg = tiny_config(n_splits=2, synth_nodes=500, clique_m=12, clique_n=4)
        rows = sweep_lambda(cfg, [1.2, 0.8, 0.4])
        densities = [r.density for r in rows if r.density is not None]
        assert densities == sorted(densities, reverse=True)

    def test_tiny_lambda_flags_degenerate(self):
        cfg = tiny_config()
        rows = sweep_lambda(cfg, [0.0])
        assert rows[0].n_degenerate == rows[0].n_trials

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_lambda(tiny_config(), [])

    @pytest.mark.parametrize("lambdas", [
        [1.0, 1.0], [0.5, 1, 1.0], [0.5, -1.0], [0.5, float("nan")], [float("inf")],
    ])
    def test_bad_grid_rejected_before_training(self, lambdas, link_trainings):
        with pytest.raises(ValueError):
            sweep_lambda(tiny_config(n_splits=2), lambdas)
        assert link_trainings == []

    def test_one_link_model_per_trial(self, link_trainings):
        rows = sweep_lambda(tiny_config(n_splits=2), [0.5, 1.0])
        assert [r.n_trials for r in rows] == [2, 2]
        assert len(link_trainings) == 2


class TestSweepCliques:
    def test_zero_injection_rows_match(self):
        cfg = tiny_config(run_sampled_arm=False)
        row_a = sweep_cliques(cfg, [(5, 0)], n_variants=2)[0]
        row_b = sweep_cliques(cfg, [(9, 0)], n_variants=2)[0]
        assert row_a.mean_ks == row_b.mean_ks
        assert row_a.mean_length == row_b.mean_length

    def test_each_distinct_variant_graph_runs_once(self, link_trainings):
        # Both n = 0 points run on the base graph and (8, 2) repeats: two
        # variants each of the base graph and of the (8, 2) injection.
        grid = [(5, 0), (8, 2), (9, 0), (8, 2)]
        rows = sweep_cliques(tiny_config(run_sampled_arm=False), grid, n_variants=2)
        assert len(link_trainings) == 4
        assert [(r.m, r.n) for r in rows] == grid
        means = [(r.mean_ks, r.mean_length, r.mean_coverage) for r in rows]
        assert means[0] == means[2] and means[1] == means[3]

    def test_ks_grows_with_clique_size(self):
        cfg = tiny_config(synth_nodes=800, run_sampled_arm=False)
        rows = sweep_cliques(cfg, [(6, 4), (20, 4)], n_variants=2)
        assert rows[1].mean_ks > rows[0].mean_ks

    def test_errored_plain_arm_gives_none(self):
        # at 30 nodes every variant's plain arm has too few calibration edges
        row = sweep_cliques(tiny_config(synth_nodes=30, clique_n=0), [(2, 0)], n_variants=2)[0]
        assert row.mean_length is None and row.mean_coverage is None
        assert row.mean_ks is not None

    # The last three once passed the range check and failed inside clique
    # injection, after the points ahead of them had trained.
    @pytest.mark.parametrize("grid", [[(8, -3), (8, 0)], [(8, 0), (1, 2)], [(8, 0), (301, 1)],
                                      [(2.5, 3)], [(8, 0), (8, 1.5)], [(8, 0), (8, True)]])
    def test_bad_grid_rejected_before_training(self, grid, link_trainings):
        with pytest.raises(ValueError, match="grid point"):
            sweep_cliques(tiny_config(run_sampled_arm=False), grid, n_variants=1)
        assert link_trainings == []

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_cliques(tiny_config(), [])
        with pytest.raises(ValueError):
            sweep_cliques(tiny_config(), [(2, 0)], n_variants=0)

    @pytest.mark.filterwarnings("error")
    def test_no_ks_fit_gives_none_not_nan(self):
        # every node of a cycle has degree 2, so no variant admits a KS fit
        cycle = Graph(300, [(i, (i + 1) % 300) for i in range(300)])
        row = sweep_cliques(tiny_config(), [(2, 0)], n_variants=1, base_graph=cycle)[0]
        assert row.mean_ks is None
        assert np.isfinite(row.mean_length) and 0.0 <= row.mean_coverage <= 1.0


class TestReports:
    def test_round_trip_bytes(self, tmp_path):
        report = run_pipeline(tiny_config())
        path = tmp_path / "report.json"
        write_report(report, path)
        parsed = json.loads(path.read_text())
        again = tmp_path / "again.json"
        write_report(parsed, again)
        assert path.read_bytes() == again.read_bytes()

    def test_schema_keys(self, tmp_path):
        report = run_pipeline(tiny_config())
        path = tmp_path / "report.json"
        write_report(report, path)
        parsed = json.loads(path.read_text())
        assert list(parsed.keys()) == ["config_echo", "trials", "summary"]
        trial = parsed["trials"][0]
        for key in ("arm", "coverage", "avg_length", "q_hat", "ks_before", "ks_after", "seed"):
            assert key in trial
        for key in ("mean_coverage", "std_coverage", "mean_length", "std_length", "improvement_pct"):
            assert key in parsed["summary"]

    def test_trial_count_in_json(self, tmp_path):
        report = run_pipeline(tiny_config(n_splits=2, run_sampled_arm=False))
        path = tmp_path / "r.json"
        write_report(report, path)
        assert len(json.loads(path.read_text())["trials"]) == 2

    def test_improvement_percentage_formula(self):
        # lengths like the strongest reported improvement: (a - b)/a
        trials = (
            TrialRecord(arm="cqr", split=0, rep=0, seed=1, coverage=0.9, avg_length=0.8078,
                        q_hat=0.0, ks_before=0.1, ks_after=None, density_after=None),
            TrialRecord(arm="sampled", split=0, rep=0, seed=1, coverage=0.9, avg_length=0.4844,
                        q_hat=0.0, ks_before=0.1, ks_after=0.08, density_after=0.01),
        )
        from linkconformal.pipeline import _build_summary
        summary = _build_summary(trials)
        assert summary["improvement_pct"] == pytest.approx(40.03, abs=0.005)

    def test_csv_output(self, tmp_path):
        cfg = tiny_config()
        rows = sweep_lambda(cfg, [1.0, 0.5])
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "lam"
        assert len(lines) == 3

    def test_write_error_surfaced(self, tmp_path):
        with pytest.raises(OSError):
            write_report({"a": 1}, tmp_path / "missing" / "r.json")

    @pytest.mark.parametrize("write, what", [
        (lambda path: write_report({"a": 1}, path), "report"),
        (lambda path: write_csv([{"a": 1}], path), "csv"),
    ], ids=["report", "csv"])
    def test_write_errors_name_what_was_written(self, tmp_path, write, what):
        path = tmp_path / "missing" / "out"
        with pytest.raises(OSError, match=f"^cannot write {what} to {re.escape(str(path))}: "):
            write(path)


class TestConfig:
    def test_parse_and_build(self):
        text = "# comment\nalpha = 0.2\nratios = 0.4,0.2,0.2,0.2\nmodel_epochs = 7\nlambda = 0.25\n"
        values = parse_config_text(text)
        cfg = build_run_config(values)
        assert cfg.alpha == 0.2
        assert cfg.ratios == (0.4, 0.2, 0.2, 0.2)
        assert cfg.model.epochs == 7
        assert cfg.sampler_lambda == 0.25

    def test_cli_overrides_file(self):
        cfg = build_run_config({"alpha": "0.2"}, {"alpha": 0.3, "seed": 9})
        assert cfg.alpha == 0.3
        assert cfg.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("nonsense = 1\n")
        for file_values, overrides in (({"nonsense": "1"}, None), (None, {"nonsense": 1})):
            with pytest.raises(ValueError, match="^unknown config key 'nonsense'$"):
                build_run_config(file_values, overrides)

    @pytest.mark.parametrize("key, text, message", [
        ("alpha", "x", "could not convert string to float: 'x'"),
        ("splits", "2.5", "invalid literal for int"),
        ("ratios", "0.5,a", "could not convert string to float: 'a'"),
        ("run_sampled_arm", "maybe", "cannot parse boolean from 'maybe'"),
        ("model_scorer_hidden_dim", "wide", "invalid literal for int"),
    ])
    def test_coercion_error_names_the_key(self, key, text, message):
        with pytest.raises(ValueError, match=f"^config key '{key}': {message}"):
            build_run_config({key: text})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, value):
        # NaN passes a test of "< 0"; both values once built configs that
        # failed only inside training.
        for config in (ModelConfig, QuantileConfig):
            with pytest.raises(ValueError, match=rf"^learning_rate must lie in \[0, inf\), got {value}$"):
                config(learning_rate=value)
        for key in ("model_learning_rate", "quantile_learning_rate"):
            with pytest.raises(ValueError, match=rf"^learning_rate must lie in \[0, inf\), got {value}$"):
                build_run_config(parse_config_text(f"{key} = {value}\n"))

    @pytest.mark.parametrize("text", ["nan,0.1,0.2,0.2", "0.5,0.1,0.2,nan"])
    def test_nan_ratio_rejected(self, text):
        # Each comparison with NaN is False, so NaN once passed both ratio checks.
        with pytest.raises(ValueError, match=r"^ratios must lie in \[0, inf\), got nan$"):
            build_run_config({"ratios": text})

    @pytest.mark.parametrize("value", [1.5, 2.0, True], ids=["fraction", "whole-float", "bool"])
    @pytest.mark.parametrize("section, name", [
        *(("model", name) for name in ("hidden_dim", "batch_size", "epochs", "num_layers", "scorer_hidden_dim")),
        *(("quantile", name) for name in ("hidden_dim", "batch_size", "epochs")),
        *((None, name) for name in ("seed", "n_splits", "n_reps", "feature_dim", "clique_m", "clique_n",
                                    "synth_nodes", "synth_d_min")),
    ])
    def test_count_setting_must_be_an_integer(self, section, name, value):
        # A whole float or a bool passes every range check, and a fraction fails
        # only where the count is first used, after the graph is built.
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            if section is None:
                RunConfig(**{name: value})
            else:
                RunConfig(**{section: {"model": ModelConfig, "quantile": QuantileConfig}[section](**{name: value})})

    def test_count_settings_take_numpy_integers(self):
        cfg = RunConfig(n_splits=np.int64(2), model=ModelConfig(epochs=np.int32(3)),
                        quantile=QuantileConfig(batch_size=np.int64(16)))
        assert (cfg.n_splits, cfg.model.epochs, cfg.quantile.batch_size) == (2, 3, 16)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("alpha 0.2\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="^config line 4: key 'alpha' is already set on line 1$"):
            parse_config_text("alpha = 0.2\nseed = 3\n\nalpha = 0.3\n")

    def test_echo_is_flat_and_stable(self):
        cfg = tiny_config()
        echo = config_echo(cfg)
        assert echo["alpha"] == 0.1
        assert echo["model_epochs"] == 8
        assert list(echo) == list(config_echo(tiny_config()))

    def test_echo_holds_every_field_once(self):
        # Each field set away from its default changes exactly one echo entry,
        # and every entry is changed by one field.
        assert set(AWAY_RUN) == {f.name for f in fields(RunConfig)} - {"model", "quantile"}
        assert set(AWAY_MODEL) == {f.name for f in fields(ModelConfig)}
        assert set(AWAY_QNET) == {f.name for f in fields(QuantileConfig)}
        default = RunConfig()
        singles = [replace(default, **{name: value}) for name, value in AWAY_RUN.items()]
        singles += [replace(default, model=replace(default.model, **{name: value}))
                    for name, value in AWAY_MODEL.items()]
        singles += [replace(default, quantile=replace(default.quantile, **{name: value}))
                    for name, value in AWAY_QNET.items()]
        default_echo = config_echo(default)
        changed = []
        for cfg in singles:
            echo = config_echo(cfg)
            assert list(echo) == list(default_echo)
            changed += [key for key in echo if echo[key] != default_echo[key]]
        assert sorted(changed) == sorted(default_echo)

    @pytest.mark.parametrize("make", [tiny_config, away_config], ids=["tiny", "away"])
    def test_echo_round_trips_through_a_config_file(self, make):
        cfg = make()

        def value_text(value):
            if value is None:
                return "none"
            return ",".join(map(str, value)) if isinstance(value, list) else str(value)

        text = "".join(f"{key} = {value_text(value)}\n" for key, value in config_echo(cfg).items())
        assert build_run_config(parse_config_text(text)) == cfg

    def test_none_unsets_every_optional_key(self):
        # The optional keys are the ones whose default is None.
        unset = {"edge_list": "none", "feature_file": "", "model_scorer_hidden_dim": "None"}
        assert {key for key, value in config_echo(RunConfig()).items() if value is None} == set(unset)
        cfg = build_run_config(unset)
        assert (cfg.edge_list, cfg.feature_file, cfg.model.scorer_hidden_dim) == (None, None, None)
        cfg = build_run_config({"edge_list": "g.txt", "feature_file": "x.txt", "model_scorer_hidden_dim": "7"})
        assert (cfg.edge_list, cfg.feature_file, cfg.model.scorer_hidden_dim) == ("g.txt", "x.txt", 7)

    def test_validation(self, link_trainings):
        with pytest.raises(ValueError):
            RunConfig(alpha=1.5)
        with pytest.raises(ValueError):
            RunConfig(n_splits=0)
        with pytest.raises(ValueError):
            RunConfig(feature_mode="spectral")
        with pytest.raises(ValueError, match="clique_n"):
            RunConfig(clique_n=-3)
        with pytest.raises(ValueError, match="feature_dim"):
            RunConfig(feature_dim=0)
        # split ratios: no calibration share, no test share, three values
        for ratios, message in (((0.6, 0.2, 0.0, 0.2), "positive train, calib and test"),
                                ((0.6, 0.2, 0.2, 0.0), "positive train, calib and test"),
                                ((0.6, 0.2, 0.2), "expected 4 ratios")):
            with pytest.raises(ValueError, match=message):
                run_pipeline(tiny_config(ratios=ratios))
        assert link_trainings == []
        # network settings are checked when the config is built, before any graph
        for values, message in (({"model_epochs": "-3"}, "epochs must be >= 0"),
                                ({"quantile_momentum": "1.5"}, r"momentum must lie in \[0, 1\)"),
                                ({"model_scorer_hidden_dim": "0"}, "scorer_hidden_dim must be >= 1")):
            with pytest.raises(ValueError, match=message):
                build_run_config(values)
        for bad in (dict(epochs=-1), dict(momentum=1.0), dict(momentum=-0.1), dict(hidden_dim=0),
                    dict(batch_size=0), dict(learning_rate=-1e-3)):
            (name,) = bad
            with pytest.raises(ValueError, match=f"^{name} must"):
                ModelConfig(**bad)
            with pytest.raises(ValueError, match=f"^{name} must"):
                QuantileConfig(**bad)
        ModelConfig(epochs=0, momentum=0.0)
        QuantileConfig(epochs=0, momentum=0.0)

    @pytest.mark.parametrize("overrides", [
        {"sampler_mode": "bogus"}, {"sampler_agg": "mean"}, {"sampler_lambda": -1.0},
        {"sampler_lambda": float("inf"), "sampler_mode": "literal"},
        {"sampler_lambda": float("nan")},
    ])
    def test_sampler_settings_rejected_before_training(self, overrides, link_trainings):
        with pytest.raises(ValueError):
            run_pipeline(tiny_config(**overrides))
        assert link_trainings == []

    def test_file_sampler_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            build_run_config({"sampler_mode": "bogus"})

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_file_non_finite_lambda_rejected(self, text):
        with pytest.raises(ValueError, match="lambda"):
            build_run_config({"lambda": text})

    def test_file_graph_settings_validated(self):
        with pytest.raises(ValueError, match="clique_n"):
            build_run_config({"clique_n": "-3"})
        with pytest.raises(ValueError, match="feature_dim"):
            build_run_config({"feature_dim": "0"})


class TestLoadGraph:
    def test_synthetic_with_cliques(self):
        g = load_graph(tiny_config())
        assert g.num_nodes == 300
        assert g.features.shape == (300, 6)

    def test_structural_features_mode(self):
        g = load_graph(tiny_config(feature_mode="structural", clique_n=0))
        assert g.features.shape == (300, 6)

    def test_edge_list_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        cfg = tiny_config(edge_list=str(path), clique_n=0)
        g = load_graph(cfg)
        assert g.num_nodes == 4
        assert g.features is not None

    def test_feature_file_matrix_attached_without_a_copy(self, tmp_path, monkeypatch):
        edges, features = tmp_path / "edges.txt", tmp_path / "features.txt"
        edges.write_text("0 1\n1 2\n2 3\n")
        features.write_text("0 1.0 2.0\n")
        parsed = np.arange(8, dtype=np.float64).reshape(4, 2)
        monkeypatch.setattr(pipeline_mod, "load_features", lambda text, num_nodes: parsed)
        g = load_graph(tiny_config(edge_list=str(edges), feature_file=str(features), clique_n=0, feature_dim=2))
        assert np.shares_memory(g.features, parsed)
        assert not g.features.flags.writeable
        assert g.features.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]

    def test_structural_features_mode_applies_to_an_edge_list(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n2 3\n3 4\n")
        cfg = tiny_config(edge_list=str(path), clique_n=0, feature_mode="structural")
        g = load_graph(cfg)
        expected = structural_features(load_edge_list(path.read_text()), 6, derive_seed(cfg.seed, "features"))
        assert np.array_equal(g.features, expected)
        assert not np.array_equal(g.features, load_graph(replace(cfg, feature_mode="random")).features)

    def test_feature_file_applies_to_a_synthetic_graph_before_its_cliques(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_text("0 1.0 2.0\n299 3.0 4.0\n")
        cfg = tiny_config(feature_file=str(path), feature_dim=2)
        g = load_graph(cfg)
        assert g.features.shape == (300, 2)
        assert g.features[[0, 299]].tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not g.features[1:299].any()
        assert g.num_edges > load_graph(replace(cfg, clique_n=0)).num_edges

    def test_feature_file_of_another_width_rejected(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_text("0 1.0 2.0\n")
        with pytest.raises(ValueError, match="features are 2 wide, but feature_dim is 6"):
            load_graph(tiny_config(feature_file=str(path)))

    def test_given_graph_used_as_given(self):
        g = Graph(300, [(i, i + 1) for i in range(299)], np.ones((300, 6)))
        assert load_graph(tiny_config(clique_n=3), g) is g

    def test_given_graph_of_another_width_rejected_before_training(self, link_trainings):
        g = Graph(300, [(i, i + 1) for i in range(299)], np.ones((300, 2)))
        with pytest.raises(ValueError, match="features are 2 wide, but feature_dim is 6"):
            run_pipeline(tiny_config(clique_n=0), graph=g)
        assert link_trainings == []

    def test_given_featureless_graph_gets_structural_features(self, link_trainings):
        g = Graph(300, load_graph(tiny_config(clique_n=0)).edge_array())
        cfg = tiny_config(clique_n=0, feature_mode="structural", run_sampled_arm=False)
        run_pipeline(cfg, graph=g)
        (subgraph, *_), = link_trainings
        expected = structural_features(g, 6, derive_seed(cfg.seed, "features"))
        assert np.array_equal(subgraph.features, expected)

    def test_given_featureless_graph_gets_the_feature_file(self, tmp_path, link_trainings):
        path = tmp_path / "features.txt"
        path.write_text("0 1 2 3 4 5 6\n299 6 5 4 3 2 1\n")
        g = Graph(300, load_graph(tiny_config(clique_n=0)).edge_array())
        run_pipeline(tiny_config(clique_n=0, feature_file=str(path), run_sampled_arm=False), graph=g)
        (subgraph, *_), = link_trainings
        assert np.array_equal(subgraph.features, load_features(path.read_text(), 300))

    def test_feature_file_with_more_rows_than_nodes_rejected(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_text("".join(f"{i} 1.0\n" for i in range(301)))
        with pytest.raises(ValueError, match="node id 300 out of range"):
            load_graph(tiny_config(feature_file=str(path)))
