import re

import numpy as np
import pytest

from rrmgnn import chansim, container, engnn, numkernel as nk, objectives as obj
from rrmgnn.chansim import GeometryConfig
from rrmgnn.engnn import (ConfigError, ENGNNConfig, config_for_scenario, edge_update,
                          forward, init_params, load_checkpoint, preprocess, rx_update,
                          save_checkpoint, tx_update)
from rrmgnn.hetgraph import HetGraph, NodePermutation, permute_graph


def random_graph(rng, m, k, widths=(1, 1, 4)):
    return HetGraph(rng.normal(size=(m, widths[0])), rng.normal(size=(k, widths[1])),
                    rng.normal(size=(m, k, widths[2])))


def small_config(hidden=5, layers=1, **kw):
    """A coop net at N=2: graph widths (1, 1, 4), beams of 2 complex entries."""
    return ENGNNConfig("coop", 2, hidden=hidden, layers=layers, **kw)


def mlp_apply(layers, x):
    out = np.asarray(x, dtype=np.float64)
    for w, b in layers:
        out = np.maximum(out @ w.data.T + b.data, 0.0)
    return out


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_zero_features_zero_bias():
    cfg = small_config()
    params = init_params(cfg, seed=0)
    for pre in (params.pre_tx, params.pre_rx, params.pre_e):
        pre[1].data[...] = 0.0
    g = HetGraph(np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 3, 4)))
    f_tx, f_rx, e0 = preprocess(g, cfg, params)
    assert np.all(f_tx.data == 0) and np.all(f_rx.data == 0) and np.all(e0.data == 0)


def test_preprocess_width_mismatch():
    cfg = small_config()
    params = init_params(cfg, seed=0)
    g = HetGraph(np.zeros((2, 3)), np.zeros((3, 1)), np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        preprocess(g, cfg, params)


def test_preprocess_commutes_with_permutation():
    rng = np.random.default_rng(1)
    cfg = small_config()
    params = init_params(cfg, seed=1)
    for _ in range(10):
        g = random_graph(rng, 3, 4)
        p = NodePermutation.random(3, 4, rng)
        a_tx, a_rx, a_e = preprocess(permute_graph(g, p), cfg, params)
        b_tx, b_rx, b_e = preprocess(g, cfg, params)
        np.testing.assert_allclose(a_tx.data[p.pi_tx], b_tx.data, atol=1e-12)
        np.testing.assert_allclose(a_rx.data[p.pi_rx], b_rx.data, atol=1e-12)
        np.testing.assert_allclose(a_e.data[np.ix_(p.pi_tx, p.pi_rx)], b_e.data, atol=1e-12)


# ---------------------------------------------------------------------------
# update mechanisms


def test_tx_update_singleton_neighbor_is_plain_message():
    rng = np.random.default_rng(4)
    cfg = small_config(hidden=4, layers=2)   # layer 0 is hidden, so it runs tx/rx updates
    params = init_params(cfg, seed=4)
    layer = params.layers[0]
    f_tx = rng.normal(size=(1, 4))
    f_rx = rng.normal(size=(1, 4))
    e = rng.normal(size=(1, 1, 4))
    out = tx_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e))
    msg = mlp_apply(layer["mlp1"], np.concatenate([f_rx[0], e[0, 0]]))
    expect = mlp_apply(layer["mlp2"], np.concatenate([f_tx[0], msg]))
    np.testing.assert_allclose(out.data[0], expect, atol=1e-12)


def test_tx_update_duplicate_rx_is_invariant():
    rng = np.random.default_rng(5)
    cfg = small_config(hidden=4, layers=2)   # layer 0 is hidden, so it runs tx/rx updates
    params = init_params(cfg, seed=5)
    layer = params.layers[0]
    f_tx = rng.normal(size=(2, 4))
    f_rx = rng.normal(size=(2, 4))
    e = rng.normal(size=(2, 2, 4))
    base = tx_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e)).data
    f_rx_dup = np.vstack([f_rx, f_rx[1]])
    e_dup = np.concatenate([e, e[:, 1:2]], axis=1)
    dup = tx_update(layer, nk.constant(f_tx), nk.constant(f_rx_dup), nk.constant(e_dup)).data
    np.testing.assert_allclose(dup, base, atol=1e-12)


def test_rx_update_mirrors_tx_update():
    rng = np.random.default_rng(6)
    cfg = small_config(hidden=4, layers=2)   # layer 0 is hidden, so it runs tx/rx updates
    params = init_params(cfg, seed=6)
    layer = params.layers[0]
    f_tx = rng.normal(size=(1, 4))
    f_rx = rng.normal(size=(1, 4))
    e = rng.normal(size=(1, 1, 4))
    out = rx_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e))
    msg = mlp_apply(layer["mlp3"], np.concatenate([f_tx[0], e[0, 0]]))
    expect = mlp_apply(layer["mlp4"], np.concatenate([f_rx[0], msg]))
    np.testing.assert_allclose(out.data[0], expect, atol=1e-12)


def test_edge_update_degenerate_graph_uses_zero_aggregate():
    rng = np.random.default_rng(7)
    cfg = small_config(hidden=4)
    params = init_params(cfg, seed=7)
    layer = params.layers[0]
    f_tx = rng.normal(size=(1, 4))
    f_rx = rng.normal(size=(1, 4))
    e = rng.normal(size=(1, 1, 4))
    out = edge_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e))
    expect = mlp_apply(layer["mlp7"], np.concatenate([e[0, 0], np.zeros(4)]))
    np.testing.assert_allclose(out.data[0, 0], expect, atol=1e-12)


def test_edge_update_two_families_hand_assembled():
    # 2 TX x 3 RX fully connected: edge (0,0) aggregates the same-TX family
    # {(0,1), (0,2)} and the same-RX family {(1,0)}
    rng = np.random.default_rng(8)
    cfg = small_config(hidden=4)
    params = init_params(cfg, seed=8)
    layer = params.layers[0]
    f_tx = rng.normal(size=(2, 4))
    f_rx = rng.normal(size=(3, 4))
    e = rng.normal(size=(2, 3, 4))
    out = edge_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e))
    fam_tx = [mlp_apply(layer["mlp5"], np.concatenate([e[0, k1], f_tx[0]]))
              for k1 in (1, 2)]
    fam_rx = [mlp_apply(layer["mlp6"], np.concatenate([e[1, 0], f_rx[0]]))]
    agg = np.max(np.stack(fam_tx + fam_rx), axis=0)
    expect = mlp_apply(layer["mlp7"], np.concatenate([e[0, 0], agg]))
    np.testing.assert_allclose(out.data[0, 0], expect, atol=1e-12)


def test_edge_update_permutation_equivariant():
    rng = np.random.default_rng(10)
    cfg = small_config(hidden=4)
    params = init_params(cfg, seed=10)
    layer = params.layers[0]
    for _ in range(10):
        m, k = 3, 4
        g = random_graph(rng, m, k, widths=(4, 4, 4))
        p = NodePermutation.random(m, k, rng)
        pg = permute_graph(g, p)
        base = edge_update(layer, nk.constant(g.f_tx), nk.constant(g.f_rx),
                           nk.constant(g.e)).data
        permuted = edge_update(layer, nk.constant(pg.f_tx), nk.constant(pg.f_rx),
                               nk.constant(pg.e)).data
        np.testing.assert_allclose(permuted[np.ix_(p.pi_tx, p.pi_rx)], base, atol=1e-12)


# ---------------------------------------------------------------------------
# full forward


def scenario_cases():
    return [
        ("ic", GeometryConfig(n_tx=3, n_rx=3, n_antennas=2)),
        ("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4)),
        ("coop", GeometryConfig(n_tx=3, n_rx=2, n_antennas=2)),
    ]


@pytest.mark.parametrize("kind,geo", scenario_cases())
def test_forward_permutation_equivariance(kind, geo):
    rng = np.random.default_rng(11)
    cfg = config_for_scenario(kind, geo.n_antennas, hidden=6, layers=2)
    params = init_params(cfg, seed=11)
    for seed in range(10):
        inst, g = chansim.build_instance(kind, geo, seed)
        p = NodePermutation.random(g.m, g.k, rng)
        base = forward(g, cfg, params).data
        permuted = forward(permute_graph(g, p), cfg, params).data
        assert np.max(np.abs(permuted[np.ix_(p.pi_tx, p.pi_rx)] - base)) <= 1e-9


def test_ibc_edge_head_variable_path():
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=4)
    inst, g = chansim.build_instance("ibc", geo, 31)
    cfg = config_for_scenario("ibc", 4, hidden=4)
    params = init_params(cfg, seed=31)
    raw = forward(g, cfg, params)
    p = obj.normalize(engnn.extract_variables(raw, inst, cfg), inst)
    rep = obj.sinr_ibc(inst, p)
    nk.backward(rep.sum_rate)
    assert obj.constraint_residual(inst, p.data) <= 1e-12


def test_forward_identity_permutation_identical():
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    inst, g = chansim.build_instance("ic", geo, 3)
    cfg = config_for_scenario("ic", 2, hidden=4)
    params = init_params(cfg, seed=12)
    a = forward(g, cfg, params).data
    same = NodePermutation(np.arange(2), np.arange(2))
    b = forward(permute_graph(g, same), cfg, params).data
    np.testing.assert_array_equal(a, b)


def test_forward_runs_across_sizes_with_same_params():
    cfg = config_for_scenario("coop", 2, hidden=4)
    params = init_params(cfg, seed=13)
    for m, k in ((3, 2), (5, 7), (1, 1), (1, 4), (4, 1)):
        geo = GeometryConfig(n_tx=m, n_rx=k, n_antennas=2, min_bs_spacing=100.0)
        inst, g = chansim.build_instance("coop", geo, m * 10 + k)
        out = forward(g, cfg, params)
        assert out.data.shape == (m, k, 2 * 2)
        assert np.isfinite(out.data).all()


@pytest.mark.parametrize("layers", [1, 2])
def test_forward_skips_the_last_layers_node_updates(monkeypatch, layers):
    # the head reads only edges, so layer L runs its edge update alone
    calls = []
    for name in ("tx_update", "rx_update", "edge_update"):
        def counted(*args, name=name, real=getattr(engnn, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(engnn, name, counted)
    cfg = config_for_scenario("ic", 2, hidden=4, layers=layers)
    _, g = chansim.build_instance("ic", GeometryConfig(n_tx=3, n_rx=3, n_antennas=2), 14)
    forward(g, cfg, init_params(cfg, seed=14))
    assert [calls.count(name) for name in ("tx_update", "rx_update", "edge_update")] == [
        layers - 1, layers - 1, layers]


def test_layer_synchrony_sequential_update_differs():
    # evaluating rx/edge updates on layer-l node outputs (sequential order)
    # must change the result relative to the synchronous forward
    rng = np.random.default_rng(15)
    g = random_graph(rng, 3, 3)
    cfg = small_config(hidden=4, layers=2)   # layer 0 is hidden, so it runs tx/rx updates
    params = init_params(cfg, seed=15)
    f_tx, f_rx, e = preprocess(g, cfg, params)
    layer = params.layers[0]
    sync_tx = tx_update(layer, f_tx, f_rx, e)
    sync_rx = rx_update(layer, f_tx, f_rx, e)
    sync_e = edge_update(layer, f_tx, f_rx, e)

    seq_rx = rx_update(layer, sync_tx, f_rx, e)
    seq_e = edge_update(layer, sync_tx, seq_rx, e)
    assert np.max(np.abs(seq_rx.data - sync_rx.data)) > 1e-8
    assert np.max(np.abs(seq_e.data - sync_e.data)) > 1e-8

    w, b = params.post
    raw_sync = (sync_e.data.reshape(9, -1) @ w.data.T + b.data)
    raw_seq = (seq_e.data.reshape(9, -1) @ w.data.T + b.data)
    assert np.max(np.abs(raw_sync - raw_seq)) > 1e-8


def test_degenerate_graphs_forward_backward_and_pe():
    rng = np.random.default_rng(16)
    for m, k in ((1, 1), (1, 3), (3, 1)):
        geo = GeometryConfig(n_tx=m, n_rx=k, n_antennas=2, min_bs_spacing=100.0)
        inst, g = chansim.build_instance("coop", geo, 17)
        cfg = config_for_scenario("coop", 2, hidden=4)
        params = init_params(cfg, seed=17)
        raw = forward(g, cfg, params)
        v = obj.normalize(engnn.extract_variables(raw, inst, cfg), inst)
        rep = obj.sinr_coop(inst, v)
        nk.backward(rep.sum_rate)
        assert all(t.grad is None or np.isfinite(t.grad).all() for t in params.tensors())
        p = NodePermutation.random(m, k, rng)
        permuted = forward(permute_graph(g, p), cfg, params).data
        assert np.max(np.abs(permuted[np.ix_(p.pi_tx, p.pi_rx)] - raw.data)) <= 1e-9


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("kind,geo", scenario_cases() + [
    ("ic", GeometryConfig(n_tx=1, n_rx=1, n_antennas=2))], ids=["ic", "ibc", "coop", "ic-1x1"])
def test_every_parameter_reaches_the_loss(kind, geo, layers):
    # the net holds only tensors the loss reads, so training steps each one
    # with its own gradient, even on a 1 x 1 graph whose edge update
    # aggregates over no neighbors
    inst, g = chansim.build_instance(kind, geo, 25)
    cfg = config_for_scenario(kind, geo.n_antennas, hidden=4, layers=layers)
    params = init_params(cfg, seed=25)
    xi = forward(g, cfg, params)
    report = obj.evaluate(inst, obj.normalize(engnn.extract_variables(xi, inst, cfg), inst))
    nk.backward(report.sum_rate)
    assert [name for name, t in params.named_tensors() if t.grad is None] == []


# ---------------------------------------------------------------------------
# parameter-shape independence and checkpointing


def test_parameter_shapes_do_not_depend_on_graph_size(tmp_path):
    cfg = config_for_scenario("ic", 2, hidden=4)
    params = init_params(cfg, seed=18)
    geo_small = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    _, g_small = chansim.build_instance("ic", geo_small, 1)
    forward(g_small, cfg, params)

    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, cfg, params)
    cfg2, params2, _ = load_checkpoint(path)
    geo_big = GeometryConfig(n_tx=8, n_rx=8, n_antennas=2, min_bs_spacing=300.0)
    _, g_big = chansim.build_instance("ic", geo_big, 2)
    out = forward(g_big, cfg2, params2)
    assert out.data.shape == (8, 8, 4)


def test_checkpoint_roundtrip_bitexact(tmp_path):
    cfg = config_for_scenario("coop", 2, hidden=5, layers=2)
    params = init_params(cfg, seed=19)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, cfg, params, extra_meta={"note": "test"})
    cfg2, params2, meta = load_checkpoint(path)
    assert meta["note"] == "test"
    assert cfg2 == cfg
    for (n1, t1), (n2, t2) in zip(params.named_tensors(), params2.named_tensors()):
        assert n1 == n2
        assert t1.data.tobytes() == t2.data.tobytes()


def test_loaded_checkpoint_tensors_are_own_trainable_copies(tmp_path):
    # load_checkpoint builds the tensors from the arrays it reads: each is the
    # saved tensor bit for bit, requires grad and owns its memory, so a
    # training step on a restored net writes through nothing else
    cfg = config_for_scenario("coop", 2, hidden=8, layers=2)
    params = init_params(cfg, seed=22)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, cfg, params)
    _, loaded, _ = load_checkpoint(path)
    saved, got = params.named_tensors(), loaded.named_tensors()
    assert [name for name, _ in got] == [name for name, _ in saved]
    for (_, t_saved), (_, t) in zip(saved, got):
        assert t.data.shape == t_saved.data.shape and t.data.dtype == np.float64
        assert t.data.tobytes() == t_saved.data.tobytes()
        assert t.requires_grad and t.data.flags.writeable
        assert not np.shares_memory(t.data, t_saved.data)
    arrays = [t.data for t in loaded.tensors()]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])


def test_checkpoint_edge_width_mismatch_refused(tmp_path):
    # the two edge family transforms feed one joint aggregation, so a stored
    # mlp6 whose output width differs from mlp5's must not load
    cfg = config_for_scenario("ic", 2, hidden=4)
    params = init_params(cfg, seed=9)
    layer = params.layers[0]
    w, b = layer["mlp6"][-1]
    layer["mlp6"][-1] = (nk.Tensor(np.zeros((3, w.data.shape[1])), requires_grad=True),
                         nk.Tensor(np.zeros(3), requires_grad=True))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, cfg, params)
    with pytest.raises(ValueError, match="mlp6.*has shape"):
        load_checkpoint(path)


V1_CONFIG = {"in_tx": 1, "in_rx": 1, "in_e": 8, "hidden_tx": 4, "hidden_rx": 4,
             "hidden_e": 4, "out_width": 2, "layers": 1, "complex_output": True,
             "output_head": "edge", "aggregator": "max", "input_scale_tx": 1.0,
             "input_scale_rx": 1.0, "input_scale_e": 1.0}


def _future(meta, arrays):
    meta["checkpoint_version"] = 99


def _version_1(meta, arrays):
    meta.update(checkpoint_version=1, config=V1_CONFIG)


def _version_2(meta, arrays):
    meta.update(checkpoint_version=2, config={**meta["config"], "aggregator": "max"})


def _version_3(meta, arrays):
    meta.update(checkpoint_version=3, config={**meta["config"], "output_head": "edge"})


def _no_config(meta, arrays):
    del meta["config"]


def _unknown_field(meta, arrays):
    meta["config"]["hidden_e"] = 4


def _missing_field(meta, arrays):
    del meta["config"]["hidden"]


def _version_4(meta, arrays):
    # version 4 also stored the last layer's mlp1..mlp4, shaped as its mlp5
    meta["checkpoint_version"] = 4
    arrays.update({f"layers.0.mlp{i}.{j}.{part}": arrays[f"layers.0.mlp5.{j}.{part}"]
                   for i in range(1, 5) for j in range(3) for part in "wb"})


def _undefined_tensor(meta, arrays):
    # the last layer runs only its edge update, so it defines no mlp1
    arrays["layers.0.mlp1.0.w"] = arrays["layers.0.mlp5.0.w"]


def _config_value(name, value):
    def edit(meta, arrays):
        meta["config"][name] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    pytest.param(_future, "version 99", id="future-version"),
    pytest.param(_version_1, "version 1 .*retrain", id="version-1"),
    pytest.param(_version_2, "version 2 .*retrain", id="version-2"),
    pytest.param(_version_3, "version 3 .*retrain", id="version-3"),
    pytest.param(_version_4, "version 4 .*retrain", id="version-4"),
    pytest.param(_no_config, "config None", id="no-config"),
    pytest.param(_unknown_field, "hidden_e", id="unknown-field"),
    pytest.param(_missing_field, "fields", id="missing-field"),
    pytest.param(_undefined_tensor, re.escape("undefined ones ['layers.0.mlp1.0.w']"),
                 id="undefined-tensor"),
    pytest.param(_config_value("hidden", 4.0), "hidden must be an integer", id="float-hidden"),
    pytest.param(_config_value("layers", True), "layers must be an integer", id="bool-layers"),
    pytest.param(_config_value("input_scale_e", "x"), "input_scale_e must be a finite",
                 id="str-scale"),
    pytest.param(_config_value("input_scale_tx", float("nan")),
                 "input_scale_tx must be a finite", id="nan-scale"),
    pytest.param(None, "container version 1 .*retrain", id="container-version-1"),
])
def test_checkpoint_version_mismatch_refused(tmp_path, edit, message):
    path = tmp_path / "ckpt.bin"
    cfg = config_for_scenario("ic", 2, hidden=4)
    save_checkpoint(path, cfg, init_params(cfg, seed=20))
    if edit is None:  # a file from before the checksummed float64-only container
        raw = bytearray(path.read_bytes())
        raw[8:12] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
    else:
        meta, arrays = container.read_bundle(path)
        edit(meta, arrays)
        container.write_bundle(path, meta, arrays)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": .*" + message):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# configs the scenarios cannot use


def test_config_refuses_nets_no_scenario_uses():
    with pytest.raises(ConfigError, match="unknown scenario kind"):
        ENGNNConfig("mimo", 2)


@pytest.mark.parametrize("name,value", [
    pytest.param(name, value, id=f"{name}-{type(value).__name__}")
    for name, value in (("n_antennas", np.int64(2)), ("hidden", np.int64(8)),
                        ("layers", np.int32(1)), ("input_scale_e", np.float32(2.0)))])
def test_config_refuses_numpy_numbers_checkpoints_cannot_store(name, value):
    # refused when built, naming the field: save_checkpoint writes the config
    # into JSON metadata, which raised TypeError only then
    message = ("must be a finite real number" if name.startswith("input_scale")
               else "must be an integer >= 1")
    with pytest.raises(ConfigError, match=re.escape(f"{name} {message}, got {value!r}")):
        ENGNNConfig(**{"kind": "ic", "n_antennas": 2, name: value})


def test_extract_variables_refuses_another_kind():
    # an ic net at N=1 and a coop graph at N=2 both have edge width 4, so only
    # the kind tells them apart
    inst, g = chansim.build_instance("coop", GeometryConfig(n_tx=2, n_rx=2, n_antennas=2), 24)
    cfg = config_for_scenario("ic", 1, hidden=4)
    raw = forward(g, cfg, init_params(cfg, seed=24))
    with pytest.raises(ConfigError, match="ic network cannot serve a coop instance"):
        engnn.extract_variables(raw, inst, cfg)


# ---------------------------------------------------------------------------
# differentiability through the full model


def test_param_gradients_match_finite_differences():
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    inst, g = chansim.build_instance("ic", geo, 21)
    cfg = config_for_scenario("ic", 2, hidden=3, input_scale_e=1e6)
    params = init_params(cfg, seed=21)

    def loss_fn():
        raw = forward(g, cfg, params)
        v = obj.normalize(engnn.extract_variables(raw, inst, cfg), inst)
        return obj.sinr_ic(inst, v).sum_rate

    loss = loss_fn()
    nk.backward(loss)
    names = params.named_tensors()
    rng = np.random.default_rng(22)
    checked = 0
    for name, t in names:
        grad = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        flat = t.data.reshape(-1)
        picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in picks:
            orig = flat[i]
            h = 1e-6 * max(1.0, abs(orig))
            flat[i] = orig + h
            with nk.no_grad():
                fp = float(loss_fn().data)
            flat[i] = orig - h
            with nk.no_grad():
                fm = float(loss_fn().data)
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(grad.reshape(-1)[i] - fd) <= 1e-5 * max(1.0, abs(fd)), name
            checked += 1
    assert checked > 50
