import csv
import hashlib
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from rrmgnn import baselines, chansim, cli, engnn, harness, objectives
from rrmgnn.chansim import GeometryConfig, NumericalError
from rrmgnn.engnn import ConfigError
from rrmgnn.harness import MetricsRow, TrainConfig, parse_config_text


def tiny_cfg(tmp_path, **kw):
    base = dict(scenario="ic",
                geometry=GeometryConfig(n_tx=2, n_rx=2, n_antennas=2),
                epochs=1, minibatches=2, batch_size=4, learning_rate=1e-3,
                seed=3, checkpoint_path=str(tmp_path / "ckpt.bin"), hidden=4)
    base.update(kw)
    return TrainConfig(**base)


def test_zero_epochs_checkpoint_is_initialization(tmp_path):
    cfg = tiny_cfg(tmp_path, epochs=0)
    params, net, rows = harness.train(cfg)
    assert rows == []
    fresh = engnn.init_params(net, seed=cfg.seed)
    for (_, a), (_, b) in zip(params.named_tensors(), fresh.named_tensors()):
        np.testing.assert_array_equal(a.data, b.data)
    loaded_net, loaded, _ = engnn.load_checkpoint(cfg.checkpoint_path)
    for (_, a), (_, b) in zip(loaded.named_tensors(), fresh.named_tensors()):
        np.testing.assert_array_equal(a.data, b.data)


def test_fixed_seed_training_is_bit_identical(tmp_path):
    cfg = tiny_cfg(tmp_path)
    harness.train(cfg)
    first = (tmp_path / "ckpt.bin").read_bytes()
    harness.train(cfg)
    assert (tmp_path / "ckpt.bin").read_bytes() == first


def test_training_matches_pinned_sum_rates(tmp_path):
    # recorded with the per-sample generator that sample_instances replaced;
    # the batched sampler must reproduce every instance, so training is unchanged
    cfg = tiny_cfg(tmp_path, geometry=GeometryConfig(n_tx=3, n_rx=3, n_antennas=2),
                   seed=29, epochs=2, minibatches=3)
    _, net, rows = harness.train(cfg)
    assert (net.input_scale_tx, net.input_scale_rx, net.input_scale_e) == (
        0.5011872336272724, 2818382.931264455, 1287951.2491492066)
    assert [r.mean_sum_rate for r in rows] == [10.916704536685993, 12.198710332365385]
    # every scenario and output head, and a second layer: each one
    # runs its own ops' gradients through the tape, so a wrong VJP moves a rate
    ibc = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    coop = GeometryConfig(n_tx=2, n_rx=3, n_antennas=2)
    for kw, rates in (
            (dict(scenario="ibc", geometry=ibc), [20.307866879881885, 20.030865364075567]),
            (dict(scenario="coop", geometry=coop), [1.7120057950760712, 1.6828173067981878]),
            (dict(output_head="tx_node"), [12.208673282913827, 12.672757503400772]),
            (dict(output_head="rx_node"), [9.497511134042037, 9.936177139226286]),
            (dict(layers=2), [10.549502302668628, 10.324079218486117])):
        _, _, rows = harness.train(replace(cfg, **kw))
        assert [r.mean_sum_rate for r in rows] == rates, kw


def test_short_training_improves_over_initialization(tmp_path):
    cfg = tiny_cfg(tmp_path, epochs=10, minibatches=10, batch_size=8)
    params, net, rows = harness.train(cfg)
    assert rows[-1].mean_sum_rate > rows[0].mean_sum_rate


def test_training_residuals_are_zero(tmp_path):
    cfg = tiny_cfg(tmp_path, epochs=2)
    _, _, rows = harness.train(cfg)
    assert all(r.residual_max <= 1e-12 for r in rows)


@pytest.mark.parametrize("poisoned_epoch", [0, 2])
def test_nan_loss_aborts_with_batch_seed(tmp_path, monkeypatch, poisoned_epoch):
    cfg = tiny_cfg(tmp_path, epochs=3)
    real_forward = engnn.forward
    calls = []

    def poisoned(graph, net, params):
        out = real_forward(graph, net, params)
        calls.append(None)
        if len(calls) > poisoned_epoch * cfg.minibatches:
            out.xi.data[...] = np.nan
        return out

    monkeypatch.setattr(engnn, "forward", poisoned)
    with pytest.raises(NumericalError, match=f"epoch {poisoned_epoch} minibatch 0"):
        harness.train(cfg)
    # the crash leaves the checkpoint of the epochs completed before it
    net, params, meta = engnn.load_checkpoint(cfg.checkpoint_path)
    assert meta["epoch"] == poisoned_epoch
    if poisoned_epoch == 0:
        fresh = engnn.init_params(net, seed=cfg.seed)
        for (_, a), (_, b) in zip(params.named_tensors(), fresh.named_tensors(), strict=True):
            np.testing.assert_array_equal(a.data, b.data)


def test_nan_loss_names_the_failing_sample(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path)
    real_forward = engnn.forward

    def poisoned(graph, net, params):
        out = real_forward(graph, net, params)
        out.xi.data[2] = np.nan          # the third sample of the minibatch
        return out

    monkeypatch.setattr(engnn, "forward", poisoned)
    seed = harness.batch_seed(cfg.seed, 0, 0, 2)
    with pytest.raises(NumericalError, match=r"epoch 0 minibatch 0.*" + re.escape(str(seed))):
        harness.train(cfg)


def test_evaluate_rejects_nan_in_first_layer_with_sample_seed():
    # a NaN at the input side must reach the output through the max aggregations
    net = engnn.config_for_scenario("ic", 2, hidden=4, layers=1)
    params = engnn.init_params(net, seed=0)
    dict(params.named_tensors())["pre_tx.w"].data[...] = np.nan
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    with pytest.raises(NumericalError, match=r"sample seed \[11, 0\]"):
        harness.evaluate(net, params, "ic", geo, 3, 11)


def test_evaluate_rejects_non_finite_output_with_sample_seed():
    net = engnn.config_for_scenario("ic", 2, hidden=4)
    params = engnn.init_params(net, seed=0)
    dict(params.named_tensors())["post.w"].data[...] = np.nan   # the output head
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    with pytest.raises(NumericalError, match=r"sample seed \[11, 0\]"):
        harness.evaluate(net, params, "ic", geo, 3, 11)


def test_train_and_evaluate_score_each_batch_once(tmp_path, monkeypatch):
    # the residual comes with the rates (RateReport.residual), not from a second call
    calls = []
    residual = objectives.constraint_residual
    monkeypatch.setattr(objectives, "constraint_residual",
                        lambda *a: calls.append(None) or residual(*a))
    cfg = tiny_cfg(tmp_path)
    params, net, _ = harness.train(cfg)
    assert len(calls) == cfg.epochs * cfg.minibatches
    calls.clear()
    harness.evaluate(net, params, "ic", cfg.geometry, 5, 11)
    assert len(calls) == 5


def test_metrics_row_rejects_negative_residual():
    with pytest.raises(ValueError):
        MetricsRow("x", 0, 1.0, -1e-3, 0.0, 0.0)


def test_evaluate_deterministic_and_feasible(tmp_path):
    cfg = tiny_cfg(tmp_path)
    params, net, _ = harness.train(cfg)
    out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    row1, samples1 = harness.evaluate(net, params, "ic", cfg.geometry, 5, 11,
                                      out_csv=out1)
    row2, samples2 = harness.evaluate(net, params, "ic", cfg.geometry, 5, 11,
                                      out_csv=out2)
    assert row1.mean_sum_rate == row2.mean_sum_rate
    c1 = [r.rsplit(",", 2)[0] for r in out1.read_text().splitlines()]
    c2 = [r.rsplit(",", 2)[0] for r in out2.read_text().splitlines()]
    assert c1 == c2  # identical modulo wall-clock columns
    assert all(s["residual"] <= 1e-9 for s in samples1)


def test_evaluate_single_sample_matches_manual_forward(tmp_path):
    cfg = tiny_cfg(tmp_path)
    params, net, _ = harness.train(cfg)
    row, samples = harness.evaluate(net, params, "ic", cfg.geometry, 1, 21)
    inst, graph = chansim.build_instance("ic", cfg.geometry, chansim.sample_seed(21, 0))
    raw = engnn.forward(graph, net, params)
    v = objectives.normalize(engnn.extract_variables(raw, inst, net), inst)
    expect = objectives.evaluate(inst, v).sum_rate_value()
    assert samples[0]["sum_rate"] == pytest.approx(expect, rel=1e-12)


def test_sweep_single_value_matches_evaluate(tmp_path):
    cfg = tiny_cfg(tmp_path)
    params, net, _ = harness.train(cfg)
    rows = harness.sweep(net, params, "ic", cfg.geometry, "n_pairs", [2], 5, 31)
    row, _ = harness.evaluate(net, params, "ic", cfg.geometry, 5, 31)
    assert rows[0]["engnn_mean_sum_rate"] == pytest.approx(row.mean_sum_rate, rel=1e-12)


def test_sweep_runs_untrained_across_sizes(tmp_path):
    net = engnn.config_for_scenario("ic", 2, hidden=4)
    params = engnn.init_params(net, seed=0)
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    rows = harness.sweep(net, params, "ic", geo, "n_pairs", [2, 3, 5], 3, 41)
    assert len(rows) == 3
    assert all(np.isfinite(r["engnn_mean_sum_rate"]) for r in rows)


def test_sweep_baseline_column_matches_standalone(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path)
    params, net, _ = harness.train(cfg)
    rows = harness.sweep(net, params, "ic", cfg.geometry, "noise_dbm", [-99.0], 4, 51,
                         baseline="wmmse")
    results = [harness.run_baseline("ic", chansim.build_instance(
        "ic", cfg.geometry, chansim.sample_seed(51, i))[0], "wmmse") for i in range(4)]
    assert rows[0]["wmmse_mean_sum_rate"] == np.mean(
        [r.report.sum_rate_value() for r in results])
    assert rows[0]["wmmse_unconverged"] == sum(not r.converged for r in results)
    assert rows[0]["wmmse_iterations"] == np.mean([r.iterations for r in results])
    assert rows[0]["wmmse_extrapolations"] == np.mean([r.extrapolations for r in results])
    # solve_set: the same columns, in the order `rrmgnn baseline` prints them,
    # and the per-sample results whose traces it writes
    columns, solved = harness.solve_set("ic", cfg.geometry, 4, 51, "wmmse")
    assert list(columns.items()) == list(rows[0].items())[-4:]
    for got, want in zip(solved, results, strict=True):
        np.testing.assert_array_equal(got.trace, want.trace)
    # a 2-iteration cap leaves every run unconverged, and the column says so
    solve = harness.run_baseline
    capped_cfg = baselines.SolverConfig(max_iters=2, tol=1e-15)
    monkeypatch.setattr(harness, "run_baseline",
                        lambda scenario, inst, which: solve(scenario, inst, which, capped_cfg))
    capped = harness.sweep(net, params, "ic", cfg.geometry, "noise_dbm", [-99.0], 4, 51,
                           baseline="wmmse")
    assert capped[0]["wmmse_unconverged"] == 4
    assert capped[0]["wmmse_iterations"] == 2.0


def test_sweep_axis_scenario_validation(tmp_path):
    net = engnn.config_for_scenario("coop", 2, hidden=4)
    params = engnn.init_params(net, seed=0)
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    with pytest.raises(ConfigError):
        harness.sweep(net, params, "coop", geo, "n_pairs", [2], 2, 0)


def test_sweep_train_samples_axis_retrains(tmp_path):
    cfg = tiny_cfg(tmp_path)
    params, net, _ = harness.train(cfg)
    trained, files = open(cfg.checkpoint_path, "rb").read(), sorted(tmp_path.iterdir())
    rows = harness.sweep(net, params, "ic", cfg.geometry, "n_train_samples",
                         [8, 16], 3, 61, train_cfg=cfg)
    assert len(rows) == 2
    assert all(np.isfinite(r["engnn_mean_sum_rate"]) for r in rows)
    # the retrained nets land in temporary checkpoints, not in the config's
    assert open(cfg.checkpoint_path, "rb").read() == trained
    assert sorted(tmp_path.iterdir()) == files
    with pytest.raises(ConfigError):
        harness.sweep(net, params, "ic", cfg.geometry, "n_train_samples", [8], 3, 61)


def test_empty_sets_are_rejected():
    net = engnn.config_for_scenario("ic", 2, hidden=4)
    params = engnn.init_params(net, seed=0)
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    for n in (0, -2):
        with pytest.raises(ConfigError, match="at least one sample"):
            harness.evaluate(net, params, "ic", geo, n, 11)
        with pytest.raises(ConfigError, match="at least one sample"):
            harness.solve_set("ic", geo, n, 11, "wmmse")
        with pytest.raises(ConfigError, match="at least one sample"):
            harness.sweep(net, params, "ic", geo, "noise_dbm", [-99.0], n, 11)


def test_empty_sweep_is_rejected_before_any_work(tmp_path, monkeypatch):
    net = engnn.config_for_scenario("ic", 2, hidden=4)
    params = engnn.init_params(net, seed=0)
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    calls = []
    monkeypatch.setattr(engnn, "forward", lambda *a: calls.append("forward"))
    monkeypatch.setattr(harness, "train", lambda *a: calls.append("train"))
    out = tmp_path / "sweep.csv"
    # a fractional count would run int(value) under the fraction's label, and
    # n_train_samples 0 would still train one epoch
    for axis, values, match in (("noise_dbm", [], "at least one axis value"),
                                ("n_train_samples", [], "at least one axis value"),
                                ("n_pairs", [4, 3.7], "whole numbers"),
                                ("n_train_samples", [4, 3.7], "whole numbers"),
                                ("n_train_samples", [4, 0], "whole numbers >= 1")):
        with pytest.raises(ConfigError, match=match):
            harness.sweep(net, params, "ic", geo, axis, values, 3, 11, baseline="wmmse",
                          train_cfg=tiny_cfg(tmp_path), out_csv=str(out))
    assert calls == [] and not out.exists()


def test_bad_baseline_fails_before_any_work(monkeypatch):
    net = engnn.config_for_scenario("ic", 2, hidden=4)
    params = engnn.init_params(net, seed=0)
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    calls = []
    forward, build = engnn.forward, chansim.build_instance
    monkeypatch.setattr(engnn, "forward", lambda *a: calls.append("forward") or forward(*a))
    monkeypatch.setattr(chansim, "build_instance",
                        lambda *a: calls.append("build") or build(*a))
    with pytest.raises(ConfigError, match="cooperative scenario only"):
        harness.sweep(net, params, "ic", geo, "noise_dbm", [-99.0], 3, 11, baseline="gp")
    with pytest.raises(ConfigError, match="unknown baseline"):
        harness.sweep(net, params, "ic", geo, "noise_dbm", [-99.0], 3, 11,
                      baseline="wibble")
    with pytest.raises(ConfigError, match="cooperative scenario only"):
        harness.solve_set("ibc", geo, 3, 11, "gp")
    assert calls == []


@pytest.mark.parametrize("scenario,geo", [
    ("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4)),
    ("coop", GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)),
])
def test_training_smoke_other_scenarios(tmp_path, scenario, geo):
    cfg = TrainConfig(scenario=scenario, geometry=geo, epochs=2, minibatches=2,
                      batch_size=4, learning_rate=1e-3, seed=9, hidden=4,
                      checkpoint_path=str(tmp_path / f"{scenario}.bin"))
    params, net, rows = harness.train(cfg)
    assert all(np.isfinite(r.mean_sum_rate) for r in rows)
    assert all(r.residual_max <= 1e-9 for r in rows)
    row, _ = harness.evaluate(net, params, scenario, geo, 4, 99)
    assert np.isfinite(row.mean_sum_rate) and row.residual_max <= 1e-9


# ---------------------------------------------------------------------------
# config files


CONFIG_TEXT = """
# pairs scenario, desk scale
scenario = ic
n_pairs = 4
n_antennas = 2
field_size = 2000
budget_dbm = 33
noise_dbm = -99
seed = 7
epochs = 3
minibatches = 2
batch_size = 4
learning_rate = 0.001
hidden = 8
layers = 1
checkpoint = out.bin
"""


def test_parse_config_text():
    cfg = parse_config_text(CONFIG_TEXT)
    assert cfg.scenario == "ic"
    assert cfg.geometry.n_tx == cfg.geometry.n_rx == 4
    assert cfg.seed == 7
    assert cfg.epochs == 3 and cfg.checkpoint_path == "out.bin"


# one value per key of README's config table, unlike its field's default:
# (value text, {TrainConfig field or geometry.<field>: the value it parses to})
CONFIG_KEY_VALUES = {
    "scenario": ("ibc", {"scenario": "ibc"}),
    "n_pairs": ("3", {"geometry.n_tx": 3, "geometry.n_rx": 3}),
    "n_tx": ("3", {"geometry.n_tx": 3}),
    "n_rx": ("5", {"geometry.n_rx": 5}),
    "n_antennas": ("4", {"geometry.n_antennas": 4}),
    "field_size": ("1500", {"geometry.field_size": 1500.0}),
    "min_bs_spacing": ("400", {"geometry.min_bs_spacing": 400.0}),
    "serve_dist_min": ("60", {"geometry.serve_dist_min": 60.0}),
    "serve_dist_max": ("200", {"geometry.serve_dist_max": 200.0}),
    "budget_dbm": ("30", {"geometry.budget_dbm": 30.0}),
    "noise_dbm": ("-100", {"geometry.noise_dbm": -100.0}),
    "seed": ("7", {"seed": 7}),
    "epochs": ("3", {"epochs": 3}),
    "minibatches": ("2", {"minibatches": 2}),
    "batch_size": ("16", {"batch_size": 16}),
    "learning_rate": ("0.01", {"learning_rate": 0.01}),
    "hidden": ("16", {"hidden": 16}),
    "layers": ("2", {"layers": 2}),
    "output_head": ("tx_node", {"output_head": "tx_node"}),
    "checkpoint": ("out.bin", {"checkpoint_path": "out.bin"}),
}


def _readme_config_keys():
    """The backquoted keys in the first column of README's config table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
    return [key for row in section.splitlines() if row.startswith("| `")
            for key in re.findall(r"`(\w+)`", row.split("|")[1])]


def test_readme_config_table_lists_every_key_once():
    keys = _readme_config_keys()
    assert sorted(keys) == sorted(CONFIG_KEY_VALUES)


def test_config_keys_are_field_names():
    # one key per field, but for the two spellings `checkpoint` and `n_pairs`
    names = {f.name for f in fields(GeometryConfig)} | {f.name for f in fields(TrainConfig)}
    assert sorted(_readme_config_keys()) == sorted(
        names - {"geometry", "checkpoint_path"} | {"checkpoint", "n_pairs"})


@pytest.mark.parametrize("key", _readme_config_keys())
def test_config_key_parses_into_its_field(key):
    text, expected = CONFIG_KEY_VALUES[key]
    cfg = parse_config_text(f"{key} = {text}\n")
    want = TrainConfig()
    for path, value in expected.items():
        name = path.removeprefix("geometry.")
        owner = cfg if name == path else cfg.geometry
        default = {f.name: f.default for f in fields(owner)}[name]
        assert type(getattr(owner, name)) is type(value) is type(default), path
        if owner is cfg:
            want = replace(want, **{name: value})
        else:
            want = replace(want, geometry=replace(want.geometry, **{name: value}))
    assert cfg == want


@pytest.mark.parametrize("key", ["wibble", "rho", "epsilon", "aggregator", "checkpoint_path",
                                 "geometry", "serve_dist"])
def test_parse_config_rejects_unknown_key(key):
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text(f"scenario = ic\n{key} = 3\n")


@pytest.mark.parametrize("text,message", [
    ("seed = 1\nepochs = 3\nseed = 2\n", "'seed' given twice, on lines 1 and 3"),
    ("n_tx = 3\nn_pairs = 5\n", "n_pairs sets both n_tx and n_rx"),
    ("n_pairs = 5\nn_rx = 3\n", "n_pairs sets both n_tx and n_rx"),
    ("n_pairs = 3\nscenario = coop\n", "n_pairs applies to the pairs scenario only"),
], ids=["twice", "n_tx-then-n_pairs", "n_pairs-then-n_rx", "n_pairs-coop"])
def test_parse_config_rejects_conflicting_keys(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("epochs = lots\n")


@pytest.mark.parametrize("text", ["nan", "inf", "0"])
def test_parse_config_rejects_bad_learning_rate(text):
    # a non-finite rate would otherwise fail in training, blaming a sample
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config_text(f"learning_rate = {text}\n")


def test_parse_config_rejects_missing_equals():
    with pytest.raises(ConfigError):
        parse_config_text("scenario ic\n")


# ---------------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, **overrides):
    lines = {"scenario": "ic", "n_pairs": 2, "n_antennas": 2, "seed": 5,
             "epochs": 1, "minibatches": 1, "batch_size": 2, "hidden": 4,
             "checkpoint": str(tmp_path / "cli_ckpt.bin")}
    lines.update(overrides)
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def test_cli_train_writes_checkpoint(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "cli_ckpt.bin").exists()
    assert "checkpoint written" in capsys.readouterr().out


def test_cli_train_metrics_csv_has_every_column(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, epochs=2)
    metrics = tmp_path / "metrics.csv"
    assert cli.main(["train", "--config", str(cfg_path), "--metrics", str(metrics)]) == 0
    with open(metrics, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == harness.METRICS_HEADER
    assert len(rows) == 3 and all(len(r) == len(harness.METRICS_HEADER) for r in rows)
    rate = harness.METRICS_HEADER.index("samples_per_s")
    assert all(float(r[rate]) > 0 for r in rows[1:])


def test_cli_unknown_flag_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--config", "x", "--nonsense"])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_missing_config_reports_error(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "nope.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_debug_reraises_with_traceback(tmp_path, capsys):
    with pytest.raises(FileNotFoundError, match="nope.txt"):
        cli.main(["train", "--config", str(tmp_path / "nope.txt"), "--debug"])
    assert "error:" not in capsys.readouterr().err


def test_cli_eval_deterministic_output_hash(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    ckpt = str(tmp_path / "cli_ckpt.bin")
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = cli.main(["eval", "--checkpoint", ckpt, "--samples", "5",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        rows = [r.rsplit(",", 2) for r in out.read_text().splitlines()]
        outs.append(hashlib.sha256(
            "".join(r[0] + r[1] for r in rows).encode()).hexdigest())
    assert outs[0] == outs[1]


def test_cli_eval_defaults_to_training_seed(tmp_path, capsys):
    # without --seed, eval draws the set of the checkpoint's training seed
    cfg = tiny_cfg(tmp_path, geometry=GeometryConfig(), seed=5, epochs=0)
    params, net, _ = harness.train(cfg)
    for seed, argv in ((5, []), (6, ["--seed", "6"])):
        row, _ = harness.evaluate(net, params, "ic", cfg.geometry, 3, seed)
        assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path, "--samples", "3",
                         *argv]) == 0
        assert f"mean sum rate {row.mean_sum_rate:.6f} " in capsys.readouterr().out, seed


def test_cli_sweep_retrains_with_the_seed_option(tmp_path, capsys):
    # --seed replaces the config's seed for the n_train_samples retrain too
    assert cli.main(["train", "--config", str(write_cfg(tmp_path, epochs=0))]) == 0
    rows = []
    for seed in (5, 6):
        cfg_path = write_cfg(tmp_path, seed=seed)
        out = tmp_path / f"sweep{seed}.csv"
        assert cli.main(["sweep", "--checkpoint", str(tmp_path / "cli_ckpt.bin"),
                         "--config", str(cfg_path), "--axis", "n_train_samples",
                         "--values", "2,4", "--samples", "3", "--seed", "9",
                         "--out", str(out)]) == 0
        rows.append(out.read_text())
    assert rows[0] == rows[1]


def test_cli_sweep_takes_negative_values(tmp_path, capsys):
    assert cli.main(["train", "--config", str(write_cfg(tmp_path, epochs=0))]) == 0
    ckpt = str(tmp_path / "cli_ckpt.bin")
    outs = []
    for values in (["--values", "-99,-90"], ["--values=-99,-90"]):
        out = tmp_path / f"sweep{len(outs)}.csv"
        assert cli.main(["sweep", "--checkpoint", ckpt, "--axis", "noise_dbm", *values,
                         "--samples", "2", "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert [r.split(",")[1] for r in outs[0].splitlines()[1:]] == ["-99.0", "-90.0"]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--help"])
    assert "negative lists work too, e.g. --values -99,-90" in \
        " ".join(capsys.readouterr().out.split())


def test_cli_eval_restores_checkpoint_with_older_train_keys(tmp_path, capsys):
    # `train` metadata with keys TrainConfig lacks (older checkpoints hold the
    # RMSProp `rho` and `epsilon`) restores without --config
    cfg_path = write_cfg(tmp_path, epochs=0)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    net, params, meta = engnn.load_checkpoint(str(tmp_path / "cli_ckpt.bin"))
    old = tmp_path / "old.bin"
    engnn.save_checkpoint(old, net, params, extra_meta={
        "train": {**meta["train"], "rho": 0.99, "epsilon": 1e-8}, "epoch": 0})
    assert cli.main(["eval", "--checkpoint", str(old), "--samples", "2"]) == 0
    assert "mean sum rate" in capsys.readouterr().out


def test_cli_baseline(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    traces = tmp_path / "traces.csv"
    assert cli.main(["baseline", "--config", str(cfg_path), "--samples", "2",
                     "--out", str(traces)]) == 0
    assert "mean sum rate" in capsys.readouterr().out
    lines = traces.read_text().splitlines()
    assert lines[0] == "sample,iteration,sum_rate"
    assert len(lines) > 3  # per-iteration solver traces for both samples


def test_cli_baseline_reports_unconverged_samples(tmp_path, capsys, monkeypatch):
    cfg_path = write_cfg(tmp_path)
    solve = harness.run_baseline
    capped = baselines.SolverConfig(max_iters=2, tol=1e-15)
    monkeypatch.setattr(harness, "run_baseline",
                        lambda scenario, inst, which, solver_cfg=None:
                        solve(scenario, inst, which, capped))
    assert cli.main(["baseline", "--config", str(cfg_path), "--samples", "3"]) == 0
    assert "(3 stopped unconverged, mean 2.0 iterations)" in capsys.readouterr().out
    monkeypatch.setattr(harness, "run_baseline", solve)
    assert cli.main(["baseline", "--config", str(cfg_path), "--samples", "3"]) == 0
    iterations = np.mean([solve("ic", chansim.build_instance(
        "ic", harness.load_config(cfg_path).geometry, chansim.sample_seed(5, i))[0],
        "wmmse").iterations for i in range(3)])
    assert f"(0 stopped unconverged, mean {iterations:.1f} iterations)" in \
        capsys.readouterr().out


def test_cli_baseline_reports_extrapolations(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    assert cli.main(["baseline", "--config", str(cfg_path), "--samples", "3"]) == 0
    geometry = harness.load_config(cfg_path).geometry
    accepted = np.mean([harness.run_baseline("ic", chansim.build_instance(
        "ic", geometry, chansim.sample_seed(5, i))[0], "wmmse").extrapolations
        for i in range(3)])
    assert accepted > 0
    assert f"iterations), mean {accepted:.1f} extrapolated steps accepted" in \
        capsys.readouterr().out


def test_cli_empty_sets_report_one_error_line(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, epochs=0)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    ckpt = str(tmp_path / "cli_ckpt.bin")
    net, params, meta = engnn.load_checkpoint(ckpt)
    train = meta["train"]
    bad_ckpts = {}  # path -> the key its error names
    for name, key, extra_meta in (
            ("no_train.bin", "'train'", None),
            ("no_scenario.bin", "'scenario'",
             {"train": {k: v for k, v in train.items() if k != "scenario"}}),
            ("bad_geometry.bin", "'wibble'",
             {"train": {**train, "geometry": {**train["geometry"], "wibble": 1}}}),
            ("float_count.bin", "n_tx must be an integer >= 1, got 4.0",
             {"train": {**train, "geometry": {**train["geometry"], "n_tx": 4.0}}}),
            # a geometry written before GeometryConfig lost its seed
            ("old_geometry.bin", "'seed'",
             {"train": {**train, "geometry": {**train["geometry"], "seed": 0}}})):
        engnn.save_checkpoint(tmp_path / name, net, params, extra_meta=extra_meta)
        bad_ckpts[str(tmp_path / name)] = key
    capsys.readouterr()
    for argv in (["eval", "--checkpoint", ckpt, "--samples", "0"],
                 ["sweep", "--checkpoint", ckpt, "--axis", "n_pairs", "--values", "2",
                  "--samples", "0"],
                 ["sweep", "--checkpoint", ckpt, "--axis", "n_pairs", "--values", ",",
                  "--out", str(tmp_path / "sweep.csv")],
                 ["sweep", "--checkpoint", ckpt, "--axis", "n_pairs", "--values", "3.7",
                  "--out", str(tmp_path / "sweep.csv")],
                 ["sweep", "--checkpoint", ckpt, "--axis", "budget_dbm", "--values", "33,nan",
                  "--out", str(tmp_path / "sweep.csv")],
                 ["baseline", "--config", str(cfg_path), "--samples", "0"],
                 *(["eval", "--checkpoint", bad] for bad in bad_ckpts)):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, (argv, err)
        if argv[2] in bad_ckpts:
            assert err.startswith(f"error: {argv[2]}: ") and bad_ckpts[argv[2]] in err, err
            assert "pass --config" in err, err
    assert not (tmp_path / "sweep.csv").exists()
