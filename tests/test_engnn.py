import re

import numpy as np
import pytest

from rrmgnn import chansim, container, engnn, numkernel as nk, objectives as obj
from rrmgnn.chansim import GeometryConfig
from rrmgnn.engnn import (ConfigError, ENGNNConfig, config_for_scenario, edge_update,
                          forward, init_params, load_checkpoint, preprocess, rx_update,
                          save_checkpoint, tx_update)
from rrmgnn.hetgraph import HetGraph, NodePermutation, permute_graph


def random_graph(rng, m, k, widths=(1, 1, 4), p_edge=1.0):
    mask = rng.random((m, k)) < p_edge
    if not mask.any():
        mask[0, 0] = True
    e = rng.normal(size=(m, k, widths[2])) * mask[:, :, None]
    return HetGraph(rng.normal(size=(m, widths[0])), rng.normal(size=(k, widths[1])),
                    e, mask)


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
    g = HetGraph(np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 3, 4)),
                 np.ones((2, 3), bool))
    f_tx, f_rx, e0 = preprocess(g, cfg, params)
    assert np.all(f_tx.data == 0) and np.all(f_rx.data == 0) and np.all(e0.data == 0)


def test_preprocess_width_mismatch():
    cfg = small_config()
    params = init_params(cfg, seed=0)
    g = HetGraph(np.zeros((2, 3)), np.zeros((3, 1)), np.zeros((2, 3, 4)),
                 np.ones((2, 3), bool))
    with pytest.raises(ValueError):
        preprocess(g, cfg, params)


def test_preprocess_commutes_with_permutation():
    rng = np.random.default_rng(1)
    cfg = small_config()
    params = init_params(cfg, seed=1)
    for _ in range(10):
        g = random_graph(rng, 3, 4, p_edge=0.7)
        p = NodePermutation.random(3, 4, rng)
        a_tx, a_rx, a_e = preprocess(permute_graph(g, p), cfg, params)
        b_tx, b_rx, b_e = preprocess(g, cfg, params)
        np.testing.assert_allclose(a_tx.data[p.pi_tx], b_tx.data, atol=1e-12)
        np.testing.assert_allclose(a_rx.data[p.pi_rx], b_rx.data, atol=1e-12)
        np.testing.assert_allclose(a_e.data[np.ix_(p.pi_tx, p.pi_rx)], b_e.data, atol=1e-12)


def test_preprocess_masks_absent_fibers():
    rng = np.random.default_rng(2)
    cfg = small_config()
    params = init_params(cfg, seed=2)  # random biases: unmasked output would be nonzero
    g = random_graph(rng, 3, 3, p_edge=0.5)
    _, _, e0 = preprocess(g, cfg, params)
    assert np.all(e0.data[~g.edge_mask] == 0.0)


# ---------------------------------------------------------------------------
# update mechanisms


def test_tx_update_empty_neighborhood_uses_zero_aggregate():
    rng = np.random.default_rng(3)
    cfg = small_config(hidden=4)
    params = init_params(cfg, seed=3)
    layer = params.layers[0]
    f_tx = rng.normal(size=(2, 4))
    f_rx = rng.normal(size=(3, 4))
    e = rng.normal(size=(2, 3, 4))
    mask = np.zeros((2, 3), bool)
    mask[1, 0] = True
    e = e * mask[:, :, None]
    out = tx_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e), mask)
    expect_row0 = mlp_apply(layer["mlp2"], np.concatenate([f_tx[0], np.zeros(4)]))
    np.testing.assert_allclose(out.data[0], expect_row0, atol=1e-12)


def test_tx_update_singleton_neighbor_is_plain_message():
    rng = np.random.default_rng(4)
    cfg = small_config(hidden=4)
    params = init_params(cfg, seed=4)
    layer = params.layers[0]
    f_tx = rng.normal(size=(1, 4))
    f_rx = rng.normal(size=(1, 4))
    e = rng.normal(size=(1, 1, 4))
    out = tx_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e),
                    np.ones((1, 1), bool))
    msg = mlp_apply(layer["mlp1"], np.concatenate([f_rx[0], e[0, 0]]))
    expect = mlp_apply(layer["mlp2"], np.concatenate([f_tx[0], msg]))
    np.testing.assert_allclose(out.data[0], expect, atol=1e-12)


def test_tx_update_duplicate_rx_is_invariant():
    rng = np.random.default_rng(5)
    cfg = small_config(hidden=4)
    params = init_params(cfg, seed=5)
    layer = params.layers[0]
    f_tx = rng.normal(size=(2, 4))
    f_rx = rng.normal(size=(2, 4))
    e = rng.normal(size=(2, 2, 4))
    base = tx_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e),
                     np.ones((2, 2), bool)).data
    f_rx_dup = np.vstack([f_rx, f_rx[1]])
    e_dup = np.concatenate([e, e[:, 1:2]], axis=1)
    dup = tx_update(layer, nk.constant(f_tx), nk.constant(f_rx_dup), nk.constant(e_dup),
                    np.ones((2, 3), bool)).data
    np.testing.assert_allclose(dup, base, atol=1e-12)


def test_rx_update_mirrors_tx_update():
    rng = np.random.default_rng(6)
    cfg = small_config(hidden=4)
    params = init_params(cfg, seed=6)
    layer = params.layers[0]
    f_tx = rng.normal(size=(1, 4))
    f_rx = rng.normal(size=(1, 4))
    e = rng.normal(size=(1, 1, 4))
    out = rx_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e),
                    np.ones((1, 1), bool))
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
    out = edge_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e),
                      np.ones((1, 1), bool))
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
    out = edge_update(layer, nk.constant(f_tx), nk.constant(f_rx), nk.constant(e),
                      np.ones((2, 3), bool))
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
        g = random_graph(rng, m, k, widths=(4, 4, 4), p_edge=0.8)
        p = NodePermutation.random(m, k, rng)
        pg = permute_graph(g, p)
        base = edge_update(layer, nk.constant(g.f_tx), nk.constant(g.f_rx),
                           nk.constant(g.e), g.edge_mask).data
        permuted = edge_update(layer, nk.constant(pg.f_tx), nk.constant(pg.f_rx),
                               nk.constant(pg.e), pg.edge_mask).data
        np.testing.assert_allclose(permuted[np.ix_(p.pi_tx, p.pi_rx)], base, atol=1e-12)


# ---------------------------------------------------------------------------
# full forward


def scenario_cases():
    return [
        ("ic", GeometryConfig(n_tx=3, n_rx=3, n_antennas=2), chansim.build_ic_instance),
        ("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), chansim.build_ibc_instance),
        ("coop", GeometryConfig(n_tx=3, n_rx=2, n_antennas=2), chansim.build_coop_instance),
    ]


@pytest.mark.parametrize("kind,geo,builder", scenario_cases())
def test_forward_permutation_equivariance(kind, geo, builder):
    rng = np.random.default_rng(11)
    cfg = config_for_scenario(kind, geo.n_antennas, hidden=6, layers=2)
    params = init_params(cfg, seed=11)
    for seed in range(10):
        geo.seed = seed
        inst, g = builder(geo)
        p = NodePermutation.random(g.m, g.k, rng)
        base = forward(g, cfg, params).xi.data
        permuted = forward(permute_graph(g, p), cfg, params).xi.data
        assert np.max(np.abs(permuted[np.ix_(p.pi_tx, p.pi_rx)] - base)) <= 1e-9


def test_forward_equivariance_node_heads():
    rng = np.random.default_rng(29)
    geo = GeometryConfig(n_tx=3, n_rx=3, n_antennas=2)
    for head in ("rx_node", "tx_node"):
        cfg = config_for_scenario("ic", 2, hidden=6, output_head=head)
        params = init_params(cfg, seed=29)
        for seed in range(10):
            geo.seed = seed
            _, g = chansim.build_ic_instance(geo)
            p = NodePermutation.random(g.m, g.k, rng)
            base = forward(g, cfg, params)
            permuted = forward(permute_graph(g, p), cfg, params)
            if head == "rx_node":
                assert np.max(np.abs(permuted.s_rx.data[p.pi_rx]
                                     - base.s_rx.data)) <= 1e-9
            else:
                assert np.max(np.abs(permuted.s_tx.data[p.pi_tx]
                                     - base.s_tx.data)) <= 1e-9


def test_ibc_node_head_variable_path():
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=4, seed=31)
    inst, g = chansim.build_ibc_instance(geo)
    cfg = config_for_scenario("ibc", 4, hidden=4, output_head="rx_node")
    params = init_params(cfg, seed=31)
    raw = forward(g, cfg, params)
    p = obj.normalize(engnn.extract_variables(raw, inst, cfg), inst)
    rep = obj.sinr_ibc(inst, p)
    nk.backward(rep.sum_rate)
    assert obj.constraint_residual(inst, p.data) <= 1e-12


def test_forward_identity_permutation_identical():
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2, seed=3)
    inst, g = chansim.build_ic_instance(geo)
    cfg = config_for_scenario("ic", 2, hidden=4)
    params = init_params(cfg, seed=12)
    a = forward(g, cfg, params).xi.data
    b = forward(permute_graph(g, NodePermutation.identity(2, 2)), cfg, params).xi.data
    np.testing.assert_array_equal(a, b)


def test_forward_runs_across_sizes_with_same_params():
    cfg = config_for_scenario("coop", 2, hidden=4)
    params = init_params(cfg, seed=13)
    for m, k in ((3, 2), (5, 7), (1, 1), (1, 4), (4, 1)):
        geo = GeometryConfig(n_tx=m, n_rx=k, n_antennas=2, seed=m * 10 + k,
                             min_bs_spacing=100.0)
        inst, g = chansim.build_coop_instance(geo)
        out = forward(g, cfg, params).xi
        assert out.data.shape == (m, k, 2 * 2)
        assert np.isfinite(out.data).all()


def test_forward_node_heads():
    geo = GeometryConfig(n_tx=3, n_rx=3, n_antennas=2, seed=5)
    inst, g = chansim.build_ic_instance(geo)
    for head in ("rx_node", "tx_node"):
        cfg = config_for_scenario("ic", 2, hidden=4, output_head=head)
        params = init_params(cfg, seed=14)
        raw = forward(g, cfg, params)
        v = engnn.extract_variables(raw, inst, cfg)
        assert v.data.shape == (3, 4)


def test_layer_synchrony_sequential_update_differs():
    # evaluating rx/edge updates on layer-l node outputs (sequential order)
    # must change the result relative to the synchronous forward
    rng = np.random.default_rng(15)
    g = random_graph(rng, 3, 3)
    cfg = small_config(hidden=4)
    params = init_params(cfg, seed=15)
    f_tx, f_rx, e = preprocess(g, cfg, params)
    layer = params.layers[0]
    sync_tx = tx_update(layer, f_tx, f_rx, e, g.edge_mask)
    sync_rx = rx_update(layer, f_tx, f_rx, e, g.edge_mask)
    sync_e = edge_update(layer, f_tx, f_rx, e, g.edge_mask)

    seq_rx = rx_update(layer, sync_tx, f_rx, e, g.edge_mask)
    seq_e = edge_update(layer, sync_tx, seq_rx, e, g.edge_mask)
    assert np.max(np.abs(seq_rx.data - sync_rx.data)) > 1e-8
    assert np.max(np.abs(seq_e.data - sync_e.data)) > 1e-8

    w, b = params.post
    raw_sync = (sync_e.data.reshape(9, -1) @ w.data.T + b.data)
    raw_seq = (seq_e.data.reshape(9, -1) @ w.data.T + b.data)
    assert np.max(np.abs(raw_sync - raw_seq)) > 1e-8


def test_degenerate_graphs_forward_backward_and_pe():
    rng = np.random.default_rng(16)
    for m, k in ((1, 1), (1, 3), (3, 1)):
        geo = GeometryConfig(n_tx=m, n_rx=k, n_antennas=2, seed=17, min_bs_spacing=100.0)
        inst, g = chansim.build_coop_instance(geo)
        cfg = config_for_scenario("coop", 2, hidden=4)
        params = init_params(cfg, seed=17)
        raw = forward(g, cfg, params)
        v = obj.normalize_coop(engnn.extract_variables(raw, inst, cfg), inst)
        rep = obj.sinr_coop(inst, v)
        nk.backward(rep.sum_rate)
        assert all(t.grad is None or np.isfinite(t.grad).all() for t in params.tensors())
        p = NodePermutation.random(m, k, rng)
        permuted = forward(permute_graph(g, p), cfg, params).xi.data
        assert np.max(np.abs(permuted[np.ix_(p.pi_tx, p.pi_rx)] - raw.xi.data)) <= 1e-9


# ---------------------------------------------------------------------------
# parameter-shape independence and checkpointing


def test_parameter_shapes_do_not_depend_on_graph_size(tmp_path):
    cfg = config_for_scenario("ic", 2, hidden=4)
    params = init_params(cfg, seed=18)
    geo_small = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2, seed=1)
    _, g_small = chansim.build_ic_instance(geo_small)
    forward(g_small, cfg, params)

    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, cfg, params)
    cfg2, params2, _ = load_checkpoint(path)
    geo_big = GeometryConfig(n_tx=8, n_rx=8, n_antennas=2, seed=2, min_bs_spacing=300.0)
    _, g_big = chansim.build_ic_instance(geo_big)
    out = forward(g_big, cfg2, params2).xi
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


def _no_config(meta, arrays):
    del meta["config"]


def _unknown_field(meta, arrays):
    meta["config"]["hidden_e"] = 4


def _missing_field(meta, arrays):
    del meta["config"]["hidden"]


def _undefined_tensor(meta, arrays):
    arrays["layers.1.mlp1.0.w"] = arrays["layers.0.mlp1.0.w"]


def _config_value(name, value):
    def edit(meta, arrays):
        meta["config"][name] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    pytest.param(_future, "version 99", id="future-version"),
    pytest.param(_version_1, "version 1 .*retrain", id="version-1"),
    pytest.param(_version_2, "version 2 .*retrain", id="version-2"),
    pytest.param(_no_config, "config None", id="no-config"),
    pytest.param(_unknown_field, "hidden_e", id="unknown-field"),
    pytest.param(_missing_field, "fields", id="missing-field"),
    pytest.param(_undefined_tensor, "layers.1.mlp1.0.w", id="undefined-tensor"),
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
    with pytest.raises(ConfigError, match="edge head"):
        ENGNNConfig("coop", 2, output_head="tx_node")
    with pytest.raises(ConfigError, match="unknown scenario kind"):
        ENGNNConfig("mimo", 2)


def test_extract_variables_refuses_another_kind():
    # an ic net at N=1 and a coop graph at N=2 both have edge width 4, so only
    # the kind tells them apart
    inst, g = chansim.build_coop_instance(GeometryConfig(n_tx=2, n_rx=2, n_antennas=2,
                                                         seed=24))
    cfg = config_for_scenario("ic", 1, hidden=4)
    raw = forward(g, cfg, init_params(cfg, seed=24))
    with pytest.raises(ConfigError, match="ic network cannot serve a coop instance"):
        engnn.extract_variables(raw, inst, cfg)


# ---------------------------------------------------------------------------
# differentiability through the full model


def test_param_gradients_match_finite_differences():
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2, seed=21)
    inst, g = chansim.build_ic_instance(geo)
    cfg = config_for_scenario("ic", 2, hidden=3, input_scale_e=1e6)
    params = init_params(cfg, seed=21)

    def loss_fn():
        raw = forward(g, cfg, params)
        v = obj.normalize_ic(engnn.extract_variables(raw, inst, cfg), inst)
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
                fp = loss_fn().item()
            flat[i] = orig - h
            with nk.no_grad():
                fm = loss_fn().item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(grad.reshape(-1)[i] - fd) <= 1e-5 * max(1.0, abs(fd)), name
            checked += 1
    assert checked > 50
