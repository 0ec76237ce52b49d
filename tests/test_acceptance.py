"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured margin. Run with `pytest tests/test_acceptance.py -s`.
"""

import time

import numpy as np
import pytest

from gradcheck_util import primitive_gradcheck_sweep

from rrmgnn import baselines, chansim, engnn, harness, numkernel as nk, objectives
from rrmgnn.baselines import SolverConfig
from rrmgnn.chansim import GeometryConfig, permute_instance
from rrmgnn.engnn import config_for_scenario, forward, init_params
from rrmgnn.hetgraph import NodePermutation, permute_graph

SCENARIOS = [
    ("ic", GeometryConfig(n_tx=3, n_rx=3, n_antennas=2)),
    ("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4)),
    ("coop", GeometryConfig(n_tx=3, n_rx=2, n_antennas=2)),
]


def _instance(kind, geo, seed):
    return chansim.build_instance(kind, geo, seed)


def _random_variables(kind, inst, rng, fill=0.6):
    if kind == "ic":
        k, n = inst.n_ue, inst.channels.shape[2]
        v = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        v *= np.sqrt(fill * inst.budgets[inst.serving]
                     / (np.abs(v) ** 2).sum(axis=1))[:, None]
        return v
    if kind == "ibc":
        p = rng.random(inst.n_ue)
        sums = np.bincount(inst.rx_cell, weights=p, minlength=inst.budgets.size)
        return p * fill * inst.budgets[inst.rx_cell] / sums[inst.rx_cell]
    m, k, n = inst.channels.shape
    v = rng.normal(size=(m, k, n)) + 1j * rng.normal(size=(m, k, n))
    v *= np.sqrt(fill * inst.budgets / (np.abs(v) ** 2).sum(axis=(1, 2)))[:, None, None]
    return v


def _permute_variables(kind, v, p):
    out = np.empty_like(v)
    if kind == "coop":
        out[np.ix_(p.pi_tx, p.pi_rx)] = v
    else:
        out[p.pi_rx] = v
    return out


def test_acceptance_1_forward_permutation_equivariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for kind, geo in SCENARIOS:
        net = config_for_scenario(kind, geo.n_antennas, hidden=8, layers=2)
        params = init_params(net, seed=101)
        for trial in range(50):
            inst, g = _instance(kind, geo, [101, trial])
            p = NodePermutation.random(g.m, g.k, rng)
            base = forward(g, net, params).data
            permuted = forward(permute_graph(g, p), net, params).data
            dev = float(np.max(np.abs(permuted[np.ix_(p.pi_tx, p.pi_rx)] - base)))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"max deviation {worst:.3e}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (forward permutation equivariance): PASS "
          f"(max dev {worst:.2e}, {elapsed:.1f}s)")


def test_acceptance_2_objective_permutation_invariance():
    rng = np.random.default_rng(202)
    worst = 0.0
    for kind, geo in SCENARIOS:
        for trial in range(100):
            inst, _ = _instance(kind, geo, [202, trial])
            v = _random_variables(kind, inst, rng)
            p = NodePermutation.random(inst.n_tx_entities, inst.n_ue, rng)
            base = objectives.evaluate(inst, v).sum_rate_value()
            permuted = objectives.evaluate(permute_instance(inst, p),
                                           _permute_variables(kind, v, p)).sum_rate_value()
            worst = max(worst, abs(base - permuted) / max(1.0, abs(base)))
    assert worst <= 1e-12, f"max relative deviation {worst:.3e}"
    print(f"\nACCEPTANCE 2 (objective permutation invariance): PASS "
          f"(max rel dev {worst:.2e})")


def test_acceptance_3_gradient_correctness():
    t0 = time.perf_counter()
    checks = primitive_gradcheck_sweep(rtol=1e-6, points_per_op=100)

    geo = GeometryConfig(n_tx=2, n_rx=2, n_antennas=2)
    inst, g = chansim.build_instance("ic", geo, 303)
    net = config_for_scenario("ic", 2, hidden=4, input_scale_e=1e6)
    params = init_params(net, seed=303)

    def loss_value():
        raw = forward(g, net, params)
        head = engnn.extract_variables(raw, inst, net)
        return objectives.sinr_ic(inst, objectives.normalize(head, inst)).sum_rate

    loss = loss_value()
    nk.backward(loss)
    worst = 0.0
    n_params = 0
    for name, t in params.named_tensors():
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            h = 1e-6 * max(1.0, abs(orig))
            flat[i] = orig + h
            with nk.no_grad():
                fp = float(loss_value().data)
            flat[i] = orig - h
            with nk.no_grad():
                fm = float(loss_value().data)
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            worst = max(worst, abs(gflat[i] - fd) / max(1.0, abs(fd)))
            n_params += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5, f"worst parameter-gradient rel err {worst:.3e}"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 (gradient correctness): PASS (model params checked "
          f"{n_params}, worst rel err {worst:.2e}; {checks} primitive checks; "
          f"{elapsed:.0f}s)")


def test_acceptance_4_wmmse_monotone_traces():
    worst = np.inf
    cases = [
        ("ic", GeometryConfig(n_tx=3, n_rx=3, n_antennas=2), baselines.wmmse_ic, None),
        ("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4),
         baselines.wmmse_ibc_power, None),
        ("coop", GeometryConfig(n_tx=3, n_rx=2, n_antennas=2), baselines.wmmse_coop,
         SolverConfig(max_iters=120)),
    ]
    for kind, geo, solver, cfg in cases:
        for trial in range(100):
            inst, _ = _instance(kind, geo, [404, trial])
            res = solver(inst, cfg) if cfg else solver(inst)
            if len(res.trace) > 1:
                worst = min(worst, float(np.diff(res.trace).min()))
    assert worst >= -1e-8, f"worst per-step rate change {worst:.3e}"
    print(f"\nACCEPTANCE 4 (WMMSE monotone traces): PASS "
          f"(worst per-step change {worst:.2e})")


def test_acceptance_5_closed_form_oracles():
    worst_ic = 0.0
    for trial in range(20):
        inst, _ = chansim.build_instance(
            "ic", GeometryConfig(n_tx=1, n_rx=1, n_antennas=4), trial)
        res = baselines.wmmse_ic(inst)
        h = inst.channels[0, 0]
        expect = np.log2(1 + inst.budgets[0] * np.linalg.norm(h) ** 2 / inst.noise[0])
        worst_ic = max(worst_ic, abs(res.report.sum_rate_value() - expect) / expect)
    assert worst_ic <= 1e-9, f"single-user WMMSE rel err {worst_ic:.3e}"

    worst_gp = 0.0
    for trial in range(10):
        inst, _ = chansim.build_instance(
            "coop", GeometryConfig(n_tx=3, n_rx=1, n_antennas=2), trial)
        norms = np.linalg.norm(inst.channels[:, 0, :], axis=1)
        expect = np.log2(1 + (np.sqrt(inst.budgets) * norms).sum() ** 2 / inst.noise[0])
        res = baselines.gp_coop(inst)
        worst_gp = max(worst_gp, (expect - res.report.sum_rate_value()) / expect)
    assert worst_gp <= 0.01, f"single-user GP shortfall {worst_gp:.3%}"
    print(f"\nACCEPTANCE 5 (closed-form single-user oracles): PASS "
          f"(WMMSE rel err {worst_ic:.2e}, GP shortfall {worst_gp:.2%})")


def test_acceptance_6_zero_forcing_residuals():
    geo = GeometryConfig(n_tx=5, n_rx=2, n_antennas=16)
    worst = 0.0
    for trial in range(20):
        inst, _ = chansim.build_instance("ibc", geo, [606, trial])
        for m in range(inst.n_tx_entities):
            for j in range(inst.n_ue):
                if m != j and inst.tx_cell[m] == inst.rx_cell[j]:
                    worst = max(worst, float(inst.gains[m, j]))
    assert worst < 1e-8, f"worst intra-cell |h^H w| = {worst:.3e}"
    print(f"\nACCEPTANCE 6 (zero-forcing intra-cell nulls): PASS (worst {worst:.2e})")


def test_acceptance_7_feasibility_fuzz():
    rng = np.random.default_rng(707)
    worst = 0.0
    n_checked = 0
    short = SolverConfig(max_iters=8, tol=1e-9)

    def check(inst, variables):
        nonlocal worst, n_checked
        worst = max(worst, objectives.constraint_residual(inst, variables))
        n_checked += 1

    for trial in range(400):  # pairs scenario
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        geo = GeometryConfig(n_tx=k, n_rx=k, n_antennas=n,
                             budget_dbm=float(rng.uniform(21, 33)))
        inst, g = chansim.build_instance("ic", geo, [707, trial])
        net = config_for_scenario("ic", n, hidden=4)
        params = init_params(net, seed=trial)
        with nk.no_grad():
            raw = forward(g, net, params)
            v = objectives.normalize(engnn.extract_variables(raw, inst, net), inst)
        check(inst, v.data)
        check(inst, baselines.wmmse_ic(inst, short).variables)

    for trial in range(300):  # broadcast scenario
        b = int(rng.integers(1, 4))
        q = int(rng.integers(1, 3))
        n = int(rng.integers(q, 5))
        geo = GeometryConfig(n_tx=b, n_rx=q, n_antennas=n,
                             budget_dbm=float(rng.uniform(21, 33)))
        inst, g = chansim.build_instance("ibc", geo, [708, trial])
        net = config_for_scenario("ibc", n, hidden=4)
        params = init_params(net, seed=trial)
        with nk.no_grad():
            raw = forward(g, net, params)
            p = objectives.normalize(engnn.extract_variables(raw, inst, net), inst)
        check(inst, p.data)
        check(inst, baselines.wmmse_ibc_power(inst, short).variables)

    for trial in range(300):  # cooperative scenario
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        geo = GeometryConfig(n_tx=m, n_rx=k, n_antennas=n,
                             budget_dbm=float(rng.uniform(21, 33)))
        inst, g = chansim.build_instance("coop", geo, [709, trial])
        net = config_for_scenario("coop", n, hidden=4)
        params = init_params(net, seed=trial)
        with nk.no_grad():
            raw = forward(g, net, params)
            v = objectives.normalize(engnn.extract_variables(raw, inst, net), inst)
        check(inst, v.data)
        check(inst, baselines.wmmse_coop(inst, short).variables)
        check(inst, baselines.gp_coop(inst, short).variables)

    assert n_checked >= 2000 and worst <= 1e-9, \
        f"{n_checked} solutions, worst residual {worst:.3e}"
    print(f"\nACCEPTANCE 7 (feasibility fuzz): PASS ({n_checked} solutions over "
          f"1000 instances, worst residual {worst:.2e})")


def test_acceptance_8_desk_scale_training_quality(tmp_path):
    t0 = time.perf_counter()
    geo = GeometryConfig(n_tx=4, n_rx=4, n_antennas=2)
    cfg = harness.TrainConfig(scenario="ic", geometry=geo, seed=0,
                              checkpoint_path=str(tmp_path / "ic.bin"))
    params, net, _ = harness.train(cfg)

    ratios, unconverged = {}, {}
    for k in (4, 8):
        geo_t = GeometryConfig(n_tx=k, n_rx=k, n_antennas=2)
        row, _ = harness.evaluate(net, params, "ic", geo_t, 100, 777)
        denominators = [
            baselines.wmmse_ic(chansim.build_instance("ic", geo_t,
                                                      chansim.sample_seed(777, i))[0])
            for i in range(100)]
        ratios[k] = row.mean_sum_rate / np.mean([r.report.sum_rate_value() for r in denominators])
        unconverged[k] = sum(not r.converged for r in denominators)
    elapsed = time.perf_counter() - t0
    assert ratios[4] >= 0.90, f"K=4 ratio {ratios[4]:.3f} < 0.90"
    assert ratios[8] >= 0.80, f"K=8 ratio {ratios[8]:.3f} < 0.80"
    assert unconverged == {4: 0, 8: 0}, f"unconverged WMMSE denominators {unconverged}"
    assert elapsed < 1800.0, f"runtime {elapsed:.0f}s exceeds 30 min"
    print(f"\nACCEPTANCE 8 (desk-scale training quality): PASS "
          f"(K=4 ratio {ratios[4]:.3f}, K=8 ratio {ratios[8]:.3f}, unconverged WMMSE "
          f"denominators {unconverged[4]} + {unconverged[8]} of 200, {elapsed:.0f}s)")


def test_acceptance_9_speed_ordering():
    geo = GeometryConfig(n_tx=5, n_rx=2, n_antennas=2)
    net = config_for_scenario("coop", 2, hidden=8, layers=2)
    params = init_params(net, seed=909)
    pairs = [chansim.build_instance("coop", geo, [909, i]) for i in range(100)]

    t0 = time.perf_counter()
    for inst, g in pairs:
        with nk.no_grad():
            raw = forward(g, net, params)
            objectives.normalize(engnn.extract_variables(raw, inst, net), inst)
    t_engnn = time.perf_counter() - t0

    t0 = time.perf_counter()
    for inst, _ in pairs:
        baselines.gp_coop(inst)
    t_gp = time.perf_counter() - t0

    t0 = time.perf_counter()
    for inst, _ in pairs:
        baselines.wmmse_coop(inst)
    t_wmmse = time.perf_counter() - t0

    assert t_gp >= 10.0 * t_engnn, f"gp {t_gp:.2f}s vs engnn {t_engnn:.2f}s"
    assert t_wmmse >= 10.0 * t_engnn, f"wmmse {t_wmmse:.2f}s vs engnn {t_engnn:.2f}s"
    print(f"\nACCEPTANCE 9 (inference speed ordering): PASS (engnn {t_engnn:.2f}s, "
          f"gp {t_gp:.2f}s = {t_gp / t_engnn:.0f}x, "
          f"wmmse {t_wmmse:.2f}s = {t_wmmse / t_engnn:.0f}x over 100 instances)")


def test_acceptance_10_degenerate_graphs():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for m, k in ((1, 1), (1, 3), (3, 1)):
        geo = GeometryConfig(n_tx=m, n_rx=k, n_antennas=2, min_bs_spacing=100.0)
        inst, g = chansim.build_instance("coop", geo, [1010, m, k])
        net = config_for_scenario("coop", 2, hidden=6)
        params = init_params(net, seed=1010)
        raw = forward(g, net, params)
        v = objectives.normalize(engnn.extract_variables(raw, inst, net), inst)
        rep = objectives.sinr_coop(inst, v)
        nk.backward(rep.sum_rate)
        assert all(t.grad is None or np.isfinite(t.grad).all()
                   for t in params.tensors())
        p = NodePermutation.random(m, k, rng)
        permuted = forward(permute_graph(g, p), net, params).data
        worst = max(worst, float(np.max(np.abs(
            permuted[np.ix_(p.pi_tx, p.pi_rx)] - raw.data))))
    assert worst <= 1e-9
    print(f"\nACCEPTANCE 10 (degenerate graphs run and stay equivariant): PASS "
          f"(max dev {worst:.2e})")
