"""Objective tests. The oracle here recomputes every SINR scalar-by-scalar
from the received-signal terms with plain complex arithmetic, independently of
the vectorized evaluators under test."""

import re

import numpy as np
import pytest

from rrmgnn import chansim, numkernel as nk, objectives as obj
from rrmgnn.chansim import GeometryConfig, permute_instance
from rrmgnn.hetgraph import NodePermutation, split_complex


def oracle_ic(inst, v):
    rates = []
    for k in range(inst.n_ue):
        num = abs(np.vdot(inst.channels[inst.serving[k], k], v[k])) ** 2
        den = inst.noise[k]
        for j in range(inst.n_ue):
            if j != k:
                den += abs(np.vdot(inst.channels[inst.serving[j], k], v[j])) ** 2
        rates.append(np.log2(1 + num / den))
    return float(sum(rates))


def oracle_ibc(inst, p):
    rates = []
    for k in range(inst.n_ue):
        num = inst.gains[inst.serving[k], k] ** 2 * p[k]
        den = inst.noise[k]
        for j in range(inst.n_ue):
            if j != k:
                den += inst.gains[inst.serving[j], k] ** 2 * p[j]
        rates.append(np.log2(1 + num / den))
    return float(sum(rates))


def oracle_coop(inst, v):
    m, k_n, _ = inst.channels.shape
    rates = []
    for k in range(k_n):
        sig = sum(np.vdot(inst.channels[m_i, k], v[m_i, k]) for m_i in range(m))
        den = inst.noise[k]
        for j in range(k_n):
            if j != k:
                cross = sum(np.vdot(inst.channels[m_i, k], v[m_i, j]) for m_i in range(m))
                den += abs(cross) ** 2
        rates.append(np.log2(1 + abs(sig) ** 2 / den))
    return float(sum(rates))


def feasible_ic_beams(inst, rng, fill=0.5):
    k, n = inst.n_ue, inst.channels.shape[2]
    v = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    v *= np.sqrt(fill * inst.budgets[inst.serving] / (np.abs(v) ** 2).sum(axis=1))[:, None]
    return v


def feasible_coop_beams(inst, rng, fill=0.5):
    m, k, n = inst.channels.shape
    v = rng.normal(size=(m, k, n)) + 1j * rng.normal(size=(m, k, n))
    v *= np.sqrt(fill * inst.budgets / (np.abs(v) ** 2).sum(axis=(1, 2)))[:, None, None]
    return v


def feasible_ibc_powers(inst, rng, fill=0.5):
    p = rng.random(inst.n_ue)
    cell = inst.budgets[inst.rx_cell]
    sums = np.bincount(inst.rx_cell, weights=p, minlength=inst.budgets.size)
    return p * fill * cell / sums[inst.rx_cell]


# ---------------------------------------------------------------------------
# evaluators against the received-signal oracle


def test_ic_single_user_matched_filter():
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=1, n_rx=1, n_antennas=4), 0)
    h = inst.channels[0, 0]
    p = inst.budgets[0]
    v = (np.sqrt(p) * h / np.linalg.norm(h))[None, :]
    rep = obj.sinr_ic(inst, v)
    expect = p * np.linalg.norm(h) ** 2 / inst.noise[0]
    np.testing.assert_allclose(rep.sinr.data, [expect], rtol=1e-12)


def test_ic_zero_beams_zero_rate():
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=2, n_rx=2), 1)
    rep = obj.sinr_ic(inst, np.zeros((2, 2), dtype=complex))
    np.testing.assert_array_equal(rep.sinr.data, [0.0, 0.0])
    assert rep.sum_rate_value() == 0.0


def test_ic_matches_oracle():
    rng = np.random.default_rng(2)
    for seed in range(100):
        inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=2, n_rx=2), seed)
        v = feasible_ic_beams(inst, rng)
        rep = obj.sinr_ic(inst, v)
        assert abs(rep.sum_rate_value() - oracle_ic(inst, v)) \
            <= 1e-12 * max(1.0, abs(rep.sum_rate_value()))


def _ic_beam_over_budget():
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=1, n_rx=1), 3)
    return inst, np.ones((1, 2), dtype=complex) * np.sqrt(inst.budgets[0])


def _ibc_negative_power():
    inst, _ = chansim.build_instance("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), 3)
    return inst, np.array([0.1, -1e-6, 0.1, 0.1]) * inst.budgets[0]


def _ibc_cell_over_budget():
    inst, _ = chansim.build_instance("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), 3)
    return inst, np.array([0.1, 0.1, 0.6, 0.5]) * inst.budgets[0]


def _coop_bs_over_budget():
    inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=2, n_rx=2), 3)
    v = feasible_coop_beams(inst, np.random.default_rng(3), fill=0.5)
    v[1] *= np.sqrt(2.1)
    return inst, v


@pytest.mark.parametrize("case", [_ic_beam_over_budget, _ibc_negative_power,
                                  _ibc_cell_over_budget, _coop_bs_over_budget],
                         ids=["ic-beam-over-budget", "ibc-negative-power",
                              "ibc-cell-over-budget", "coop-bs-over-budget"])
def test_infeasible_variables_raise(case):
    inst, v = case()
    with pytest.raises(ValueError, match=f"^{inst.kind} variables violate"):
        obj.evaluate(inst, v)


def test_ibc_zero_powers():
    inst, _ = chansim.build_instance("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), 4)
    rep = obj.sinr_ibc(inst, np.zeros(4))
    np.testing.assert_array_equal(rep.sinr.data, np.zeros(4))


def test_ibc_single_cell_single_ue():
    inst, _ = chansim.build_instance("ibc", GeometryConfig(n_tx=1, n_rx=1, n_antennas=2), 5)
    p = np.array([inst.budgets[0]])
    rep = obj.sinr_ibc(inst, p)
    expect = inst.gains[0, 0] ** 2 * p[0] / inst.noise[0]
    np.testing.assert_allclose(rep.sinr.data, [expect], rtol=1e-12)


def test_ibc_matches_oracle_and_zf_kills_intra():
    rng = np.random.default_rng(6)
    for seed in range(100):
        inst, _ = chansim.build_instance(
            "ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), seed)
        p = feasible_ibc_powers(inst, rng)
        rep = obj.sinr_ibc(inst, p)
        assert abs(rep.sum_rate_value() - oracle_ibc(inst, p)) \
            <= 1e-12 * max(1.0, abs(rep.sum_rate_value()))
        # with exact ZF the intra-cell term is negligible relative to the rest
        for k in range(inst.n_ue):
            intra = sum(inst.gains[inst.serving[j], k] ** 2 * p[j]
                        for j in range(inst.n_ue)
                        if j != k and inst.rx_cell[j] == inst.rx_cell[k])
            total = inst.noise[k] + sum(inst.gains[inst.serving[j], k] ** 2 * p[j]
                                        for j in range(inst.n_ue) if j != k)
            assert intra / total < 1e-16


def test_coop_single_bs_reduces_to_ic_form():
    inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=1, n_rx=3), 7)
    rng = np.random.default_rng(7)
    v = feasible_coop_beams(inst, rng)
    rep = obj.sinr_coop(inst, v)
    # single transmitter: same received-signal maths as the per-pair oracle
    class OneBS:
        n_ue = 3
        channels = inst.channels[0][None].repeat(3, axis=0).transpose(0, 1, 2)
        serving = np.zeros(3, dtype=int)
        noise = inst.noise
    fake = OneBS()
    fake.channels = np.broadcast_to(inst.channels[0], (3, 3, inst.channels.shape[2])).copy()
    expect = oracle_ic(fake, v[0])
    np.testing.assert_allclose(rep.sum_rate_value(), expect, rtol=1e-12)


def test_coop_inactive_bs_equals_single_bs():
    inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=2, n_rx=2), 8)
    rng = np.random.default_rng(8)
    v = feasible_coop_beams(inst, rng)
    v[1] = 0.0
    sub = chansim.ScenarioInstance(chansim.COOP, inst.channels[:1], inst.budgets[:1],
                                   inst.noise, serving=np.zeros(2, dtype=int))
    np.testing.assert_allclose(obj.sinr_coop(inst, v).sum_rate_value(),
                               obj.sinr_coop(sub, v[:1]).sum_rate_value(), rtol=1e-12)


def test_coop_two_bs_single_ue_coherent_sum():
    inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=2, n_rx=1), 9)
    rng = np.random.default_rng(9)
    v = feasible_coop_beams(inst, rng)
    a = np.vdot(inst.channels[0, 0], v[0, 0])
    b = np.vdot(inst.channels[1, 0], v[1, 0])
    expect = np.log2(1 + abs(a + b) ** 2 / inst.noise[0])
    np.testing.assert_allclose(obj.sinr_coop(inst, v).sum_rate_value(), expect, rtol=1e-12)


def test_coop_matches_oracle():
    rng = np.random.default_rng(10)
    for seed in range(100):
        inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=3, n_rx=2), seed)
        v = feasible_coop_beams(inst, rng)
        rep = obj.sinr_coop(inst, v)
        assert abs(rep.sum_rate_value() - oracle_coop(inst, v)) \
            <= 1e-12 * max(1.0, abs(rep.sum_rate_value()))


def split_shape(inst):
    """Split variable shape of an ic or coop instance, stacked or not."""
    m, k, n = inst.channels.shape[-3:]
    return inst.batch_shape + ((k, 2 * n) if inst.kind == "ic" else (m, k, 2 * n))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("batch", [None, 3], ids=["single", "stacked"])
@pytest.mark.parametrize("kind", ["ic", "coop"])
def test_received_power_table_matches_complex_products(monkeypatch, kind, batch, n):
    # the split-table matmul against |h^H v|^2 on the complex channels:
    # ic [j, k] = |h_{m1(j),k}^H v_j|^2, coop [j, k] = |sum_m h_{m,k}^H v_{m,j}|^2
    geo = GeometryConfig(n_tx=3, n_rx=3, n_antennas=n)
    if batch is None:
        inst, _ = chansim.build_instance(kind, geo, 21)
    else:
        inst = chansim.sample_instances(kind, geo, [[21, i] for i in range(batch)])
    rng = np.random.default_rng(22)
    v = obj.normalize(rng.normal(size=split_shape(inst)), inst).data
    tables = []
    rule = obj._signal_over_rest
    monkeypatch.setattr(obj, "_signal_over_rest",
                        lambda power, noise: tables.append(power.data) or rule(power, noise))
    obj.evaluate(inst, nk.constant(v))
    vc = v[..., :n] + 1j * v[..., n:]
    h = inst.channels.conj()
    if kind == "ic":
        want = np.einsum("...jkn,...jn->...jk", h[..., inst.serving, :, :], vc)
    else:
        want = np.einsum("...mkn,...mjn->...jk", h, vc)
    np.testing.assert_allclose(tables[0], np.abs(want) ** 2, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# permutation invariance of the objective


def scenario_cases():
    return [("ic", GeometryConfig(n_tx=3, n_rx=3)),
            ("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4)),
            ("coop", GeometryConfig(n_tx=3, n_rx=2))]


def permute_variables(kind, v, p):
    if kind == "ibc":
        out = np.empty_like(v)
        out[p.pi_rx] = v
        return out
    if kind == "ic":
        out = np.empty_like(v)
        out[p.pi_rx] = v
        return out
    out = np.empty_like(v)
    out[np.ix_(p.pi_tx, p.pi_rx)] = v
    return out


@pytest.mark.parametrize("kind,cfg", scenario_cases())
def test_objective_permutation_invariant(kind, cfg):
    rng = np.random.default_rng(11)
    for seed in range(25):
        inst, _ = chansim.build_instance(kind, cfg, seed)
        if kind == "ic":
            v = feasible_ic_beams(inst, rng)
        elif kind == "ibc":
            v = feasible_ibc_powers(inst, rng)
        else:
            v = feasible_coop_beams(inst, rng)
        p = NodePermutation.random(inst.n_tx_entities, inst.n_ue, rng)
        base = obj.evaluate(inst, v).sum_rate_value()
        permuted = obj.evaluate(permute_instance(inst, p),
                                permute_variables(kind, v, p)).sum_rate_value()
        assert abs(base - permuted) <= 1e-12 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# gradients


def fd_scalar(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def test_sum_rate_gradients_match_fd():
    rng = np.random.default_rng(12)

    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=2, n_rx=2), 0)
    x0 = split_complex(feasible_ic_beams(inst, rng, fill=0.25))

    def f_ic(x):
        return obj.sinr_ic(inst, nk.constant(x)).sum_rate_value()

    t = nk.Tensor(x0.copy(), requires_grad=True)
    nk.backward(obj.sinr_ic(inst, t).sum_rate)
    fd = fd_scalar(f_ic, x0.copy())
    assert np.max(np.abs(t.grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    inst_b, _ = chansim.build_instance("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), 1)
    p0 = feasible_ibc_powers(inst_b, rng, fill=0.25)

    def f_ibc(x):
        return obj.sinr_ibc(inst_b, nk.constant(x)).sum_rate_value()

    t = nk.Tensor(p0.copy(), requires_grad=True)
    nk.backward(obj.sinr_ibc(inst_b, t).sum_rate)
    fd = fd_scalar(f_ibc, p0.copy(), h=1e-6)
    assert np.max(np.abs(t.grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    inst_c, _ = chansim.build_instance("coop", GeometryConfig(n_tx=2, n_rx=2), 2)
    v0 = split_complex(feasible_coop_beams(inst_c, rng, fill=0.25))

    def f_coop(x):
        return obj.sinr_coop(inst_c, nk.constant(x)).sum_rate_value()

    t = nk.Tensor(v0.copy(), requires_grad=True)
    nk.backward(obj.sinr_coop(inst_c, t).sum_rate)
    fd = fd_scalar(f_coop, v0.copy())
    assert np.max(np.abs(t.grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    # stacked (B=2) ic and coop: the summed rate of the stack, through `matmul`
    for kind, seed in (("ic", 23), ("coop", 24)):
        stack = chansim.sample_instances(kind, GeometryConfig(n_tx=2, n_rx=2),
                                         [[seed, i] for i in range(2)])
        x0 = 0.5 * obj.normalize(rng.normal(size=split_shape(stack)), stack).data

        def f_stack(x):
            return float(np.sum(obj.evaluate(stack, nk.constant(x)).sum_rate.data))

        t = nk.Tensor(x0.copy(), requires_grad=True)
        nk.backward(nk.tsum(obj.evaluate(stack, t).sum_rate))
        fd = fd_scalar(f_stack, x0.copy())
        assert np.max(np.abs(t.grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd))), kind


def test_ic_single_user_rate_increases_along_matched_filter():
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=1, n_rx=1), 13)
    h = inst.channels[0, 0]
    mf = h / np.linalg.norm(h)
    last = -1.0
    for frac in np.linspace(0.1, 1.0, 10):
        v = (np.sqrt(frac * inst.budgets[0]) * mf)[None, :]
        rate = obj.sinr_ic(inst, v).sum_rate_value()
        assert rate > last
        last = rate


# ---------------------------------------------------------------------------
# projections


def test_normalize_ic_feasible_unchanged_and_ball_projection():
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=2, n_rx=2), 14)
    rng = np.random.default_rng(14)
    inside = split_complex(feasible_ic_beams(inst, rng, fill=0.5))
    np.testing.assert_array_equal(obj.normalize(nk.constant(inside), inst).data, inside)

    over = split_complex(feasible_ic_beams(inst, rng, fill=1.0)) * 2.0  # norm^2 = 4P
    out = obj.normalize(nk.constant(over), inst).data
    np.testing.assert_allclose(out, over / 2.0, rtol=1e-12)

    zero = np.zeros_like(inside)
    np.testing.assert_array_equal(obj.normalize(nk.constant(zero), inst).data, zero)


def test_normalize_ic_random_feasibility():
    rng = np.random.default_rng(15)
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=3, n_rx=3), 15)
    for _ in range(50):
        raw = rng.normal(size=(3, 4)) * rng.uniform(0, 5)
        out = obj.normalize(nk.constant(raw), inst).data
        used = (out ** 2).sum(axis=1)
        assert np.all(used <= inst.budgets[inst.serving] + 1e-12)


def test_normalize_ibc_midpoint_and_rescale():
    inst, _ = chansim.build_instance("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), 16)
    p_b = inst.budgets[0]
    out = obj.normalize(nk.constant(np.zeros(4)), inst).data
    # logistic midpoint gives P_b/2 per UE; cells of 2 then rescale to the budget
    np.testing.assert_allclose(out, np.full(4, p_b / 2), rtol=1e-12)
    rng = np.random.default_rng(16)
    for _ in range(50):
        raw = rng.normal(size=4) * 3
        p = obj.normalize(nk.constant(raw), inst).data
        assert np.all(p >= 0) and np.all(p <= inst.budgets[inst.rx_cell] + 1e-12)
        sums = np.bincount(inst.rx_cell, weights=p)
        assert np.all(sums <= inst.budgets + 1e-12)


def test_normalize_coop_row_scaling():
    inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=2, n_rx=2), 17)
    rng = np.random.default_rng(17)
    ok = split_complex(feasible_coop_beams(inst, rng, fill=0.9))
    np.testing.assert_array_equal(obj.normalize(nk.constant(ok), inst).data, ok)

    over = split_complex(feasible_coop_beams(inst, rng, fill=1.0)) * 2.0
    out = obj.normalize(nk.constant(over), inst).data
    np.testing.assert_allclose(out, over / 2.0, rtol=1e-12)
    for _ in range(50):
        raw = rng.normal(size=over.shape) * rng.uniform(0, 4)
        out = obj.normalize(nk.constant(raw), inst).data
        used = (out ** 2).sum(axis=(1, 2))
        assert np.all(used <= inst.budgets + 1e-12)


@pytest.mark.parametrize("stack", [(), (2,)], ids=["alone", "stacked"])
@pytest.mark.parametrize("kind,m,balls,ball,bad", [
    ("ic", 3, (3,), (4,), (3, 1, 4)), ("ic", 3, (3,), (4,), (4, 4)),
    ("coop", 2, (2,), (3, 4), (2, 12)), ("coop", 2, (2,), (3, 4), (3, 3, 4))])
def test_normalize_refuses_misshaped_raw_variables(kind, m, balls, ball, bad, stack):
    # K = 3 UEs of N = 2 antennas: an ic ball is one beam, a coop ball one BS's beams
    geo = GeometryConfig(n_tx=m, n_rx=3, n_antennas=2)
    inst = (chansim.sample_instances(kind, geo, [[19, i] for i in range(stack[0])]) if stack
            else chansim.build_instance(kind, geo, 19)[0])
    want = (f"expected {stack + balls} raw power balls of split shape {ball}, "
            f"got {stack + bad}")
    with pytest.raises(ValueError, match=re.escape(want)):
        obj.normalize(nk.constant(np.zeros(stack + bad)), inst)


def test_constraint_residual_reports_violation():
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=2, n_rx=2), 18)
    rng = np.random.default_rng(18)
    v = feasible_ic_beams(inst, rng, fill=0.5)
    assert obj.constraint_residual(inst, v) == 0.0
    v2 = feasible_ic_beams(inst, rng, fill=1.0) * 1.1
    assert obj.constraint_residual(inst, v2) > 0.0
