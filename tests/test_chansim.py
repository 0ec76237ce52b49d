import re
from dataclasses import fields

import numpy as np
import pytest

from rrmgnn import chansim
from rrmgnn.chansim import (GenerationError, GeometryConfig, _faded, build_instance,
                            dbm_to_watts, graph_of, instance_feature_widths, path_loss_db,
                            permute_instance, sample_instances, zero_forcing)
from rrmgnn.hetgraph import NodePermutation, permute_graph

from gradcheck_util import merge_complex

GEOMETRIES = {"ic": GeometryConfig(n_tx=4, n_rx=4, n_antennas=2),
              "ibc": GeometryConfig(n_tx=2, n_rx=2, n_antennas=4),
              "coop": GeometryConfig(n_tx=3, n_rx=2, n_antennas=2)}


def test_dbm_conversions():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)      # 0 dBm = 1 mW
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)      # 30 dBm = 1 W
    assert abs(dbm_to_watts(33.0) - 1.9952623149688795) < 1e-12
    assert abs(dbm_to_watts(-99.0) - 10 ** (-12.9)) < 1e-25
    np.testing.assert_allclose(dbm_to_watts(np.array([0.0, 10.0, 30.0, -30.0])),
                               [1e-3, 1e-2, 1.0, 1e-6], rtol=1e-15)


def test_path_loss_reference_points():
    assert abs(path_loss_db(1.0) - 30.5) < 1e-12
    assert abs(path_loss_db(10.0) - 67.2) < 1e-12


def test_channel_amplitude_at_one_meter():
    g = np.random.default_rng(0).standard_normal((2, 4))
    h = _faded(1.0, g)
    assert h.shape == (4,)
    # scale applied per entry: 10^(-30.5/20) ~ 0.029854
    amp = 10 ** (-30.5 / 20)
    assert abs(amp - 0.029853826189179603) < 1e-15
    np.testing.assert_allclose(h, amp * (g[0] + 1j * g[1]) / np.sqrt(2.0), rtol=1e-14)


def test_channel_rejects_nonpositive_distance():
    g = np.zeros((2, 2, 2))
    for d in ([1.0, 0.0], [-3.0, 1.0]):
        with pytest.raises(ValueError, match="distance must be positive"):
            _faded(np.array(d), g)


def _positions(cfg, seeds, anchor):
    """BS (S, M, 2) and UE (S, K, 2) positions of the geometry draws that
    sample_instances makes for each seed, UE k placed around BS anchor[k]."""
    bs, radius, angle = (np.array(x) for x in zip(*(
        chansim._draw_geometry(cfg, np.random.default_rng(s), cfg.n_tx, anchor)
        for s in seeds)))
    return bs, chansim._ue_positions(bs, anchor, radius, angle)


def test_channel_mean_power_monte_carlo():
    # ~100k antenna draws of the sampler, each over the path loss of its own
    # link's distance, from the positions the sampler draws for the same seed
    geo = GeometryConfig(n_tx=4, n_rx=32, n_antennas=8)
    seeds = [[1, i] for i in range(100)]
    inst = sample_instances("coop", geo, seeds)
    bs, ue = _positions(geo, seeds, inst.serving)
    d = np.linalg.norm(bs[:, :, None] - ue[:, None], axis=-1)
    ratio = np.abs(inst.channels) ** 2 / (10 ** (-path_loss_db(d) / 10))[..., None]
    assert ratio.size == 102_400
    assert abs(ratio.mean() - 1.0) < 0.02


def test_channel_vectorized_matches_per_pair_loop():
    rng = np.random.default_rng(12)
    d = np.linalg.norm(rng.uniform(0, 2000, (5, 1, 2)) - rng.uniform(0, 2000, (1, 7, 2)),
                       axis=-1)
    oracle_rng, rng = np.random.default_rng(13), np.random.default_rng(13)
    want = np.empty((5, 7, 3), dtype=np.complex128)
    for i in range(5):
        for j in range(7):
            amp = np.sqrt(10.0 ** (-path_loss_db(d[i, j]) / 10.0))
            z = (oracle_rng.standard_normal(3) + 1j * oracle_rng.standard_normal(3)) / np.sqrt(2.0)
            want[i, j] = amp * z
    # the block the sampler draws per seed: (distances, 2, N)
    got = _faded(d, rng.standard_normal(d.shape + (2, 3)))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    assert rng.random() == oracle_rng.random()  # same stream consumed


def test_graph_of_commutes_with_permutation():
    rng = np.random.default_rng(14)
    for kind, geo in GEOMETRIES.items():
        for seed in range(4):
            inst, g = build_instance(kind, geo, [14, seed])
            p = NodePermutation.random(g.m, g.k, rng)
            want = permute_graph(graph_of(inst), p)
            got = graph_of(permute_instance(inst, p))
            for name in ("f_tx", "f_rx", "e"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_graph_of_widths_match_declared_widths():
    for kind, geo in GEOMETRIES.items():
        inst, _ = build_instance(kind, geo, 0)
        assert graph_of(inst).widths == instance_feature_widths(kind, geo.n_antennas)


def test_geometry_single_bs_uniform():
    cfg = GeometryConfig(n_tx=1, n_rx=1)
    pts = _positions(cfg, range(200), np.arange(1))[0][:, 0]
    assert pts.min() >= 0 and pts.max() <= cfg.field_size
    assert 500 < pts.mean() < 1500  # crude uniformity check on the mean


def test_geometry_respects_spacing():
    cfg = GeometryConfig(n_tx=5, n_rx=5)
    bs, _ = _positions(cfg, range(10_000), np.arange(5))
    d = np.linalg.norm(bs[:, :, None] - bs[:, None], axis=-1)
    d[:, np.arange(5), np.arange(5)] = np.inf
    assert d.min() >= cfg.min_bs_spacing


def test_geometry_serving_distance_annulus():
    for kind, cfg in (("ic", GeometryConfig(n_tx=3, n_rx=3)),
                      ("coop", GeometryConfig(n_tx=3, n_rx=5)),
                      ("ibc", GeometryConfig(n_tx=3, n_rx=2, n_antennas=2))):
        inst = sample_instances(kind, cfg, [0])
        anchor = inst.rx_cell if kind == "ibc" else inst.serving   # UE k's BS
        bs, ue = _positions(cfg, range(100), anchor)
        d = np.linalg.norm(bs[:, anchor] - ue, axis=-1)
        assert np.all(d >= cfg.serve_dist_min - 1e-9)
        assert np.all(d <= cfg.serve_dist_max + 1e-9)
        assert ue.min() >= 0 and ue.max() <= cfg.field_size


@pytest.mark.parametrize("field,value", [
    ("field_size", np.inf), ("min_bs_spacing", np.nan), ("serve_dist_min", np.nan),
    ("serve_dist_max", np.inf), ("budget_dbm", np.inf), ("noise_dbm", np.nan),
    # training writes the geometry into the checkpoint's JSON metadata
    pytest.param("field_size", np.float32(2000.0), id="field_size-float32"),
    pytest.param("budget_dbm", np.float32(33.0), id="budget_dbm-float32"),
    pytest.param("noise_dbm", True, id="noise_dbm-True"),
    pytest.param("serve_dist_max", "250", id="serve_dist_max-str")],
    ids=lambda v: str(v).replace(" ", ""))
def test_geometry_config_refuses_non_finite_values(field, value):
    with pytest.raises(ValueError, match=re.escape(
            f"{field} must be finite and a Python int or float, got {value!r}")):
        GeometryConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("n_tx", 4.0), ("n_antennas", 2.5), ("n_tx", True), ("n_rx", 0),
    # training writes the geometry into the checkpoint's JSON metadata
    pytest.param("n_tx", np.int64(4), id="n_tx-int64"),
    pytest.param("n_rx", np.int32(2), id="n_rx-int32")],
    ids=lambda v: str(v))
def test_geometry_config_refuses_non_integral_counts(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer >= 1, "
                                                   f"got {value!r}")):
        GeometryConfig(**{field: value})


def test_geometry_infeasible_spacing_raises():
    cfg = GeometryConfig(n_tx=4, n_rx=4, field_size=600.0, min_bs_spacing=500.0)
    with pytest.raises(GenerationError):
        sample_instances("ic", cfg, [0])


def test_ic_instance_structure():
    cfg = GeometryConfig(n_tx=3, n_rx=3, n_antennas=2)
    inst, g = build_instance("ic", cfg, 5)
    n = cfg.n_antennas
    assert g.e.shape == (3, 3, 4 * n)  # 2N complex one-hot -> 4N reals
    # direct-edge fibers nonzero exactly on the serving bijection
    for m in range(3):
        for k in range(3):
            fiber = merge_complex(g.e[m, k])
            direct, cross = fiber[:n], fiber[n:]
            if inst.serving[k] == m:
                assert np.all(cross == 0) and np.any(direct != 0)
                np.testing.assert_array_equal(direct, inst.channels[m, k])
            else:
                assert np.all(direct == 0) and np.any(cross != 0)
    np.testing.assert_array_equal(g.f_tx[:, 0], inst.budgets)
    np.testing.assert_array_equal(g.f_rx[:, 0], np.sqrt(inst.noise))


def test_ic_single_pair_one_hot():
    cfg = GeometryConfig(n_tx=1, n_rx=1, n_antennas=3)
    inst, g = build_instance("ic", cfg, 1)
    fiber = merge_complex(g.e[0, 0])
    assert np.all(fiber[3:] == 0)
    assert np.any(fiber[:3] != 0)


def test_ic_requires_square():
    with pytest.raises(ValueError):
        build_instance("ic", GeometryConfig(n_tx=2, n_rx=3), 0)


def test_ic_reproducible_bit_exact():
    cfg = GeometryConfig(n_tx=4, n_rx=4)
    a_inst, a_graph = build_instance("ic", cfg, 9)
    b_inst, b_graph = build_instance("ic", cfg, 9)
    assert a_graph.e.tobytes() == b_graph.e.tobytes()
    assert a_inst.channels.tobytes() == b_inst.channels.tobytes()


def test_zero_forcing_single_ue_is_matched_filter():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    w = zero_forcing(h)
    np.testing.assert_allclose(w[:, 0], (h / np.linalg.norm(h))[:, 0], atol=1e-12)


def test_zero_forcing_orthogonal_columns_pass_through():
    h = np.eye(4, dtype=complex)[:, :2] * np.array([2.0, 3.0])
    w = zero_forcing(h)
    np.testing.assert_allclose(np.abs(w), np.abs(np.eye(4)[:, :2]), atol=1e-12)


def test_zero_forcing_nulls_cross_terms():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
    w = zero_forcing(h)
    cross = h.conj().T @ w
    off = cross - np.diag(np.diag(cross))
    assert np.max(np.abs(off)) < 1e-10
    np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-12)


def test_zero_forcing_rank_deficient_raises():
    h = np.ones((4, 2), dtype=complex)
    with pytest.raises(chansim.NumericalError):
        zero_forcing(h)


def test_ibc_instance_structure_and_zf_property():
    cfg = GeometryConfig(n_tx=2, n_rx=2, n_antennas=16)
    inst, g = build_instance("ibc", cfg, 6)
    k = 4
    assert inst.gains.shape == (k, k)
    assert g.e.shape == (k, k, 3)
    # intra-cell interference gains vanish under zero-forcing
    for m in range(k):
        for j in range(k):
            if m != j and inst.tx_cell[m] == inst.rx_cell[j]:
                assert inst.gains[m, j] < 1e-8
    # one-hot slots populated correctly
    for m in range(k):
        for j in range(k):
            fiber = g.e[m, j]
            hot = np.flatnonzero(fiber)
            if m == j:
                assert list(hot) == [0]
            elif inst.tx_cell[m] == inst.rx_cell[j]:
                assert np.all(fiber[[0, 2]] == 0)  # slot 1 may be ~0 after ZF
            else:
                assert list(hot) == [2]


def test_ibc_single_ue_per_cell_has_no_intra_slot():
    cfg = GeometryConfig(n_tx=3, n_rx=1, n_antennas=2)
    inst, g = build_instance("ibc", cfg, 7)
    assert np.all(g.e[:, :, 1] == 0)
    assert inst.n_tx_entities == 3 and inst.n_ue == 3


def test_ibc_counts_equivalent_entities():
    cfg = GeometryConfig(n_tx=2, n_rx=3, n_antennas=4)
    inst, g = build_instance("ibc", cfg, 8)
    assert g.m == 6 and g.k == 6  # K = B*Q equivalent TX-nodes and K RX-nodes


def test_ibc_requires_enough_antennas():
    with pytest.raises(ValueError):
        build_instance("ibc", GeometryConfig(n_tx=2, n_rx=3, n_antennas=2), 0)


def test_coop_instance_structure():
    cfg = GeometryConfig(n_tx=3, n_rx=2, n_antennas=2)
    inst, g = build_instance("coop", cfg, 10)
    assert g.e.shape == (3, 2, 4)  # raw split channel, width 2N, no one-hot
    assert g.edge_mask.shape == (3, 2) and g.edge_mask.all()
    for m in range(3):
        for k in range(2):
            np.testing.assert_array_equal(merge_complex(g.e[m, k]), inst.channels[m, k])


def _stack_fields(kind, drop=(), **edits):
    """The array fields of a 3-instance `sample_instances` stack, minus `drop`,
    with each of `edits` (name -> function of the field) applied."""
    stack = sample_instances(kind, GeometryConfig(n_tx=2, n_rx=2, n_antennas=2),
                             [chansim.sample_seed(11, i) for i in range(3)])
    arrays = {f.name: getattr(stack, f.name) for f in fields(stack)
              if f.name != "kind" and f.name not in drop}
    return {**arrays, **{name: edit(arrays[name]) for name, edit in edits.items()}}


@pytest.mark.parametrize("kind,drop,edits,message", [
    pytest.param("ibc", ("gains",), {}, "need gains", id="ibc-without-gains"),
    pytest.param("ibc", (), {"noise": lambda a: a[:, :-1]}, "noise has shape",
                 id="short-noise"),
    pytest.param("ic", (), {"budgets": lambda a: a[:, :-1]}, "budgets has shape",
                 id="short-budgets"),
    pytest.param("ic", (), {"noise": lambda a: np.full_like(a, np.nan)},
                 "noise powers must be finite", id="nan-noise"),
])
def test_scenario_instance_refuses_inconsistent_fields(kind, drop, edits, message):
    arrays = _stack_fields(kind, drop, **edits)
    with pytest.raises(ValueError, match=message):
        chansim.ScenarioInstance(kind, **arrays)


@pytest.mark.parametrize("kind", chansim.KINDS)
def test_stack_element_views_equal_validated_elements(kind):
    # views skip the re-check, and equal what a checked constructor builds
    # from the same slices, bit for bit
    stack = sample_instances(kind, GEOMETRIES[kind],
                             [chansim.sample_seed(5, i) for i in range(3)])
    graph = graph_of(stack)
    shared = ("kind", "serving", "tx_cell", "rx_cell")
    values = {f.name: getattr(stack, f.name) for f in fields(stack)}
    for i in range(3):
        inst, g = chansim.stack_element(stack, graph, i)
        want = chansim.ScenarioInstance(**{
            name: v if name in shared or v is None else v[i] for name, v in values.items()})
        for f in fields(want):
            got, expect = getattr(inst, f.name), getattr(want, f.name)
            if isinstance(expect, np.ndarray):
                assert got.dtype == expect.dtype and got.shape == expect.shape
                assert got.tobytes() == expect.tobytes(), f.name
                assert np.shares_memory(got, getattr(stack, f.name)), f.name
            else:
                assert got == expect
        for name, arr in zip(("f_tx", "f_rx", "e"), (g.f_tx, g.f_rx, g.e)):
            assert arr.flags.c_contiguous and arr.dtype == np.float64
            assert arr.tobytes() == getattr(graph_of(want), name).tobytes(), name
            assert np.shares_memory(arr, getattr(graph, name)), name


def test_sample_instances_needs_a_seed():
    with pytest.raises(ValueError, match="at least one seed"):
        sample_instances("ic", GEOMETRIES["ic"], [])


# seeds whose words differ from their ints: a zero, a full word, words past 2**32
# and 2**64, a bool, and the two seed streams the program draws from
SEED_FORMS = [0, [0], [2**32 - 1, 7], [2**32, 7], [2**64 + 3, 5, 1], [True, 2],
              [3, 1, 4, 1], [9, 26]]


def test_sample_instances_seeds_each_generator_as_default_rng(monkeypatch):
    from rrmgnn.harness import batch_seed
    assert SEED_FORMS[-2:] == [batch_seed(3, 1, 4, 1), chansim.sample_seed(9, 26)]
    geo = GEOMETRIES["ic"]
    anchor = np.arange(geo.n_rx) % geo.n_tx
    built, draw = [], chansim._draw_geometry

    def recording(cfg, rng, n_bs, anchor_bs):
        built.append(rng)
        return draw(cfg, rng, n_bs, anchor_bs)

    monkeypatch.setattr(chansim, "_draw_geometry", recording)
    sample_instances("ic", geo, SEED_FORMS)
    assert len(built) == len(SEED_FORMS)
    for seed, rng in zip(SEED_FORMS, built):     # each after its geometry and fading
        want = np.random.default_rng(seed)
        draw(geo, want, geo.n_tx, anchor)
        want.standard_normal((geo.n_tx, geo.n_rx, 2, geo.n_antennas))
        assert rng.bit_generator.state == want.bit_generator.state, seed


@pytest.mark.parametrize("seed,error", [([-1, 0], ValueError), ([1.5, 2], TypeError)])
def test_sample_instances_refuses_the_seeds_default_rng_refuses(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        sample_instances("ic", GEOMETRIES["ic"], [[1, 2], seed])


# ---------------------------------------------------------------------------
# sample_instances against the per-sample builder it replaced


def _oracle_geometry(cfg, rng, n_bs, anchor_bs):
    size = cfg.field_size
    bs = np.empty((n_bs, 2))
    attempts = placed = stalled = 0
    while placed < n_bs:
        cand = rng.uniform(0, size, size=2)
        attempts += 1
        if attempts > chansim.MAX_REJECTION_ATTEMPTS:
            raise GenerationError(
                f"could not place {n_bs} BSs with spacing >= {cfg.min_bs_spacing} m "
                f"in a {size} m field after {chansim.MAX_REJECTION_ATTEMPTS} attempts")
        if placed and np.min(np.linalg.norm(bs[:placed] - cand, axis=1)) < cfg.min_bs_spacing:
            stalled += 1
            if stalled >= 200:
                placed = stalled = 0
            continue
        bs[placed] = cand
        placed += 1
        stalled = 0
    lo, hi = cfg.serve_dist_min, cfg.serve_dist_max
    ue = np.empty((len(anchor_bs), 2))
    for j, b in enumerate(anchor_bs):
        r = np.sqrt(rng.uniform(lo * lo, hi * hi))
        for _ in range(chansim.MAX_REJECTION_ATTEMPTS):
            theta = rng.uniform(0, 2 * np.pi)
            pos = bs[b] + r * np.array([np.cos(theta), np.sin(theta)])
            if 0 <= pos[0] <= size and 0 <= pos[1] <= size:
                ue[j] = pos
                break
        else:
            raise GenerationError(
                f"could not keep UE {j} at distance {r:.1f} m from its BS inside the field")
    return bs, ue


def _oracle_channels(bs, ue, n, rng):
    d = np.linalg.norm(bs[:, None] - ue[None], axis=-1)
    amp = np.sqrt(10.0 ** (-path_loss_db(d) / 10.0))
    g = rng.standard_normal(d.shape + (2, n))
    z = (g[..., 0, :] + 1j * g[..., 1, :]) / np.sqrt(2.0)
    return amp[..., None] * z


def _oracle_zero_forcing(h_cell):
    if np.linalg.cond(h_cell) > 1e12:
        raise chansim.NumericalError("cell channel matrix is numerically rank deficient")
    w = h_cell @ np.linalg.inv(h_cell.conj().T @ h_cell)
    return w / np.linalg.norm(w, axis=0, keepdims=True)


def _oracle_instance(kind, cfg, seed):
    """The per-sample builder sample_instances replaced, as a dict of fields."""
    rng = np.random.default_rng(seed)
    m, q, n = cfg.n_tx, cfg.n_rx, cfg.n_antennas
    budgets = np.full(m, dbm_to_watts(cfg.budget_dbm))
    if kind != "ibc":
        serving = np.arange(q) % m
        bs, ue = _oracle_geometry(cfg, rng, m, serving)
        return dict(channels=_oracle_channels(bs, ue, n, rng), budgets=budgets,
                    noise=np.full(q, dbm_to_watts(cfg.noise_dbm)), serving=serving)
    k = m * q
    rx_cell = np.repeat(np.arange(m), q)
    bs, ue = _oracle_geometry(cfg, rng, m, rx_cell)
    h_phys = _oracle_channels(bs, ue, n, rng)
    zf = np.stack([_oracle_zero_forcing(h_phys[b, rx_cell == b].T) for b in range(m)])
    channels = h_phys[rx_cell]
    beams = zf[rx_cell, :, np.arange(k) % q]
    return dict(channels=channels, budgets=budgets,
                noise=np.full(k, dbm_to_watts(cfg.noise_dbm)), serving=np.arange(k),
                tx_cell=rx_cell, rx_cell=rx_cell,
                gains=np.abs(np.einsum("mkn,mn->mk", channels.conj(), beams)))


def _geo(m, k, n, scaled=False):
    return GeometryConfig(n_tx=m, n_rx=k, n_antennas=n,
                          field_size=2000.0 * np.sqrt(m / 4.0) if scaled else 2000.0)


# the training shape, the nine eval-mixed shapes (field scaled with the BS
# count), the three solver shapes, the one-UE corner cases, and a field so
# crowded that BS placement restarts
ORACLE_SHAPES = ([("ic", _geo(4, 4, 2))]
                 + [(kind, _geo(m, k, n, scaled=True)) for kind, m, k, n in (
                     ("ic", 4, 4, 2), ("ic", 8, 8, 2), ("ic", 32, 32, 2),
                     ("ibc", 2, 2, 4), ("ibc", 4, 2, 4), ("ibc", 16, 2, 4),
                     ("coop", 4, 4, 2), ("coop", 4, 8, 2), ("coop", 8, 32, 2))]
                 + [("ic", _geo(8, 8, 2)), ("ibc", _geo(3, 2, 4)), ("coop", _geo(5, 2, 2)),
                    ("ic", _geo(1, 1, 2)), ("ibc", _geo(3, 1, 2)), ("ic", _geo(14, 14, 2))])


@pytest.mark.parametrize("kind,geo", ORACLE_SHAPES)
def test_sample_instances_matches_per_seed_oracle(kind, geo):
    seeds = [[31, geo.n_tx, geo.n_rx, i] for i in range(4)]
    batch = sample_instances(kind, geo, seeds)
    assert batch.kind == kind and batch.batch_shape == (4,)
    for i, seed in enumerate(seeds):
        want = _oracle_instance(kind, geo, seed)
        single, _ = build_instance(kind, geo, seed)
        for name in ("channels", "budgets", "noise", "gains", "serving", "tx_cell", "rx_cell"):
            if name not in want:
                assert getattr(batch, name) is None and getattr(single, name) is None
                continue
            stacked = getattr(batch, name)
            got = stacked if name in ("serving", "tx_cell", "rx_cell") else stacked[i]
            for arr in (got, getattr(single, name)):
                assert arr.dtype == want[name].dtype and arr.shape == want[name].shape
                assert arr.tobytes() == want[name].tobytes(), name


def test_sample_instances_generation_errors_match_oracle():
    crowded = GeometryConfig(n_tx=4, n_rx=4, field_size=600.0, min_bs_spacing=500.0)
    # seed 0 cannot keep its UE inside the field; seed 1 can
    tight = GeometryConfig(n_tx=1, n_rx=1, field_size=100.0, serve_dist_min=99.0,
                           serve_dist_max=100.0)
    for geo, seeds in ((crowded, [0]), (tight, [1, 0])):
        with pytest.raises(GenerationError) as want:
            _oracle_instance("ic", geo, seeds[-1])
        with pytest.raises(GenerationError) as got:
            sample_instances("ic", geo, seeds)
        assert str(got.value) == str(want.value)


class _RecordingRng:
    """Passes `uniform` calls through to a generator and keeps their results."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def uniform(self, *args, **kwargs):
        self.draws.append(self.rng.uniform(*args, **kwargs))
        return self.draws[-1]


# a crowded field (BS placement restarts), a field whose edge rejects most
# angles, and one with both
REWIND_GEOMETRIES = (GeometryConfig(n_tx=14, n_rx=14),
                     GeometryConfig(n_tx=1, n_rx=1, field_size=100.0, serve_dist_min=99.0,
                                    serve_dist_max=100.0),
                     GeometryConfig(n_tx=6, n_rx=6, field_size=1300.0))


def test_draw_geometry_rewinds_to_the_scalar_stream():
    seen = set()
    for geo in REWIND_GEOMETRIES:
        anchor = np.arange(geo.n_rx) % geo.n_tx
        for seed in range(8):
            want_rng = _RecordingRng(np.random.default_rng(seed))
            got_rng = np.random.default_rng(seed)
            try:
                bs_want, ue_want = _oracle_geometry(geo, want_rng, geo.n_tx, anchor)
            except GenerationError as want:
                with pytest.raises(GenerationError, match=re.escape(str(want))):
                    chansim._draw_geometry(geo, got_rng, geo.n_tx, anchor)
                continue
            bs, radius, angle = chansim._draw_geometry(geo, got_rng, geo.n_tx, anchor)
            bs = np.array(bs)
            assert bs.tobytes() == bs_want.tobytes()
            assert chansim._ue_positions(bs, anchor, radius, angle).tobytes() == \
                ue_want.tobytes()
            assert got_rng.bit_generator.state == want_rng.rng.bit_generator.state

            candidates = [d for d in want_rng.draws if np.ndim(d)]     # BS draws, size 2
            if not np.array_equal(bs_want[0], candidates[0]):
                seen.add("bs restart")
            if len(want_rng.draws) - len(candidates) > 2 * len(anchor):
                seen.add("angle rejection")
            if sum(np.size(d) for d in want_rng.draws) > 2 * geo.n_tx + 2 * len(anchor) + 8:
                seen.add("past the first block")
    assert seen == {"bs restart", "angle rejection", "past the first block"}


def test_sample_instances_rejects_rank_deficient_cell(monkeypatch):
    faded = chansim._faded

    def one_flat_sample(d, g):
        h = faded(d, g)
        h[1:2] = 1.0 + 0j          # every UE of sample 1 (if any) sees the same channel
        return h

    monkeypatch.setattr(chansim, "_faded", one_flat_sample)
    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=4)
    with pytest.raises(chansim.NumericalError, match="rank deficient"):
        sample_instances("ibc", geo, [[37, i] for i in range(3)])
    with pytest.raises(chansim.NumericalError, match="rank deficient"):
        _oracle_zero_forcing(np.ones((4, 2), complex))
    sample_instances("ibc", geo, [[37, 0]])    # sample 0 alone is fine
