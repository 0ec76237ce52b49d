import re

import numpy as np
import pytest

from rrmgnn import baselines, chansim, harness, numkernel as nk, objectives as obj
from rrmgnn.baselines import SolverConfig, gp_coop, wmmse_coop, wmmse_ibc_power, wmmse_ic
from rrmgnn.chansim import GeometryConfig, NumericalError, ScenarioInstance, permute_instance
from rrmgnn.hetgraph import NodePermutation, split_complex

from gradcheck_util import fd_grad, merge_complex
from secular_reference import batched_secular_solve


def assert_trace_monotone(trace, tol=1e-8):
    diffs = np.diff(trace)
    assert diffs.min() >= -tol, f"trace decreased by {-diffs.min():.3e}"


@pytest.mark.parametrize("value", [0, -1, 2.5, True, float("nan"), float("inf")],
                         ids=str)
def test_solver_config_refuses_iteration_caps_below_one_or_not_integers(value):
    with pytest.raises(ValueError, match=re.escape(f"max_iters must be an integer >= 1, "
                                                   f"got {value!r}")):
        SolverConfig(max_iters=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0, True, None, "1e-6"],
                         ids=repr)
def test_solver_config_refuses_tolerances_not_finite_and_positive(value):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        SolverConfig(tol=value)


# ---------------------------------------------------------------------------
# power-capped transmit step


def _ball_solve(a, b, pmax, power_tol):
    """Reference: argmin of v^H a v - 2 Re(b^H v) under sum |v|^2 <= pmax by
    bisection on mu in (a + mu I) v = b, one dense solve per step. `b` is one
    rhs (N,) or a stack of rhs rows (K, N) sharing the budget."""

    def solve(mu):
        m = a + mu * np.eye(a.shape[0])
        try:
            return np.linalg.solve(m, rhs.T).T
        except np.linalg.LinAlgError:
            jitter = 1e-12 * max(1.0, abs(np.trace(a).real) / a.shape[0])
            return np.linalg.solve(m + jitter * np.eye(a.shape[0]), rhs.T).T

    def attempt(mu):
        v = solve(mu)
        return v, float((np.abs(v) ** 2).sum())

    single = b.ndim == 1
    rhs = b[None, :] if single else b
    v, p = attempt(0.0)
    if np.isfinite(p) and p <= pmax * (1 + 1e-12):
        return v[0] if single else v
    mu_hi = max(abs(np.trace(a).real) / a.shape[0], 1e-12)
    while True:
        v, p = attempt(mu_hi)
        if np.isfinite(p) and p <= pmax:
            break
        mu_hi *= 2.0
        assert mu_hi < 1e30, "bisection failed to bracket"
    mu_lo, best = 0.0, v
    for _ in range(100):
        mid = 0.5 * (mu_lo + mu_hi)
        v, p = attempt(mid)
        if np.isfinite(p) and p <= pmax:
            mu_hi, best = mid, v
            if pmax - p <= power_tol * pmax:
                break
        else:
            mu_lo = mid
    return best[0] if single else best


def _eig_solve(quads, mu0):
    """One batched _secular_solve call over (a, b, pmax) triples sharing a
    shape, from start multipliers mu0; returns (solutions, multipliers)."""
    a = np.stack([q[0] for q in quads])
    b = np.stack([np.atleast_2d(q[1]) for q in quads])        # (R, K, N)
    pmax = np.array([q[2] for q in quads])
    lam, vecs = np.linalg.eigh(a)
    c = np.einsum("rni,rkn->rik", vecs.conj(), b)              # (R, N, K)
    y, mu = baselines._secular_solve(lam, c, pmax, mu0, "test")
    v = np.einsum("rni,rik->rkn", vecs, y)
    return [vi.reshape(np.shape(q[1])) for vi, q in zip(v, quads)], mu


def _cold(quads):
    """Solutions from the cold start mu0 = 0."""
    return _eig_solve(quads, np.zeros(len(quads)))[0]


def _random_quad(rng, n, rank, cols, budget_scale, zero_rhs=False):
    g = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    a = g.conj().T @ g   # PSD with the given rank
    if zero_rhs:
        b = np.zeros((cols, n), dtype=complex)
    else:   # rhs in the range of a, as in a WMMSE step
        b = (rng.standard_normal((cols, rank)) + 1j * rng.standard_normal((cols, rank))) @ g
    b = b[0] if cols == 1 else b
    unconstrained = float((np.abs(np.linalg.pinv(a) @ np.atleast_2d(b).T) ** 2).sum())
    return a, b, budget_scale * max(unconstrained, 1e-3)


def _oracle_batches():
    """Batches of mixed rows sharing a shape, each row with its bisection
    reference."""
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4):
        quads = []
        for rank in range(1, n + 1):          # rank < n is a rank-deficient a
            for cols in (1, 3):               # 3 rhs rows share one budget
                quads.append(_random_quad(rng, n, rank, cols, 0.3))   # binding
        # full rank with a loose budget: mu = 0
        quads.append(_random_quad(rng, n, n, 1, 2.0))
        quads.append(_random_quad(rng, n, n, 3, 2.0))
        # zero rhs on a rank-deficient a: v = 0, not 0/0
        quads.append(_random_quad(rng, n, max(n - 1, 1), 1, 1.0, zero_rhs=True))
        by_shape = {}
        for q in quads:
            by_shape.setdefault(np.shape(q[1]), []).append(q)
        for group in by_shape.values():
            yield group, [_ball_solve(*q, 1e-10) for q in group]


def _deviation(v, ref):
    return np.linalg.norm(v - ref) / max(np.linalg.norm(ref), 1e-300)


def test_secular_solve_matches_bisection_oracle():
    worst = 0.0
    for group, refs in _oracle_batches():
        batch = _cold(group)                  # a batch of mixed rows
        for q, v, ref in zip(group, batch, refs):
            worst = max(worst, _deviation(v, ref))
            assert np.all(np.isfinite(v))
            np.testing.assert_array_equal(_cold([q])[0], v)   # a single row
    assert worst <= 1e-9, f"worst relative deviation from bisection {worst:.3e}"


def test_secular_solve_warm_start_matches_bisection_oracle():
    # any start gives the oracle's answer: Newton climbs from below the root
    # and steps to or below it from above; starts outside [lo, total] clamp
    worst, starts_tried = 0.0, 0
    for group, refs in _oracle_batches():
        pmax = np.array([q[2] for q in group])
        b2 = np.array([(np.abs(q[1]) ** 2).sum() for q in group])
        cold, mu_cold = _eig_solve(group, np.zeros(len(group)))
        binding = mu_cold > 0
        assert binding.any() and not binding.all()
        above_total = 10.0 * np.sqrt(b2 / pmax) + 1.0   # total = |c| / sqrt(target)
        for mu0 in (np.zeros(len(group)), mu_cold, 10.0 * mu_cold, -1.0 - mu_cold,
                    above_total):
            batch, mu = _eig_solve(group, mu0)
            starts_tried += 1
            for q, v, ref, bind in zip(group, batch, refs, binding):
                worst = max(worst, _deviation(v, ref))
                p = float((np.abs(v) ** 2).sum())
                assert p <= q[2]
                if bind:
                    assert p >= q[2] * (1 - baselines._POWER_TOL)
            # a budget that does not bind ignores the start: mu = 0, and y is
            # the unconstrained minimizer
            np.testing.assert_array_equal(mu[~binding], 0.0)
            for v, c, bind in zip(batch, cold, binding):
                if not bind:
                    np.testing.assert_array_equal(v, c)
            assert np.all(mu[binding] > 0)
    assert starts_tried == 8 * 5                  # 4 sizes x 2 rhs shapes, 5 starts
    assert worst <= 1e-9, f"worst relative deviation from bisection {worst:.3e}"


def test_secular_solve_feasible_and_binding():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        rank = int(rng.integers(1, n + 1))
        quads = [_random_quad(rng, n, rank, 2, s) for s in rng.uniform(0.01, 2.0, 6)]
        for (a, b, pmax), v in zip(quads, _cold(quads)):
            p = float((np.abs(v) ** 2).sum())
            assert p <= pmax
            unconstrained = float((np.abs(np.linalg.pinv(a) @ b.T) ** 2).sum())
            if unconstrained > pmax * (1 + 1e-9):   # the budget binds
                assert p >= pmax * (1 - baselines._POWER_TOL)


def _secular_batch(rng, n):
    """Random `_secular_solve` arguments with n directions, 1-40 rows: real c
    (ibc's form) or complex c with 1 or 3 rhs columns; zero eigenvalues on live
    directions (p(0) = inf), some whose square underflows, and some rounded
    below 0; dead directions, zero-rhs rows, and budgets from loose (mu = 0)
    to tight. Returns lam, c, pmax and the rows' p(0)."""
    rows = int(rng.integers(1, 41))
    cols = int(rng.choice([0, 1, 3]))                     # 0: real c, no rhs axis
    lam = rng.exponential(size=(rows, n)) * 10.0 ** rng.uniform(-2, 2, (rows, 1))
    for value, share in ((0.0, 0.1), (1e-170, 0.03), (-1e-17, 0.05)):
        lam[rng.random((rows, n)) < share] = value
    shape = (rows, n) + ((cols,) if cols else ())
    c = rng.standard_normal(shape)
    if cols:
        c = c + 1j * rng.standard_normal(shape)
    c[rng.random((rows, n)) < 0.2] = 0.0                  # dead directions
    c[rng.random(rows) < 0.1] = 0.0                       # zero-rhs rows
    c2 = (np.abs(c) ** 2).reshape(rows, n, -1).sum(axis=-1)
    with np.errstate(divide="ignore"):
        p0 = (c2 / np.where(c2 > 0, np.maximum(lam, 0.0), 1.0) ** 2).sum(axis=1)
    pmax = np.where(np.isfinite(p0) & (p0 > 0), p0, 1.0) * 10.0 ** rng.uniform(-2, 0.5, rows)
    return lam, c, pmax, p0


def _secular_starts(c, pmax, root):
    """Starts of 0, negative, 10x the root and above the bracket's top."""
    c2_sum = (np.abs(c) ** 2).reshape(len(pmax), -1).sum(axis=1)
    return (np.zeros(len(pmax)), -1.0 - root, 10.0 * root,
            10.0 * np.sqrt(c2_sum / pmax) + 1.0)


def _secular_pairs(n, batches, seed):
    """(search, reference) results of `_secular_solve` and the batched search
    it replaced on random batches of n directions from every start, and the
    row kinds seen: live zero eigenvalues, loose and binding budgets."""
    rng = np.random.default_rng(seed)
    seen = {"p(0) = inf": 0, "loose": 0, "binding": 0}
    pairs = []
    for _ in range(batches):
        lam, c, pmax, p0 = _secular_batch(rng, n)
        _, root = batched_secular_solve(lam, c, pmax, np.zeros(len(pmax)), "test")
        seen["p(0) = inf"] += int(np.isinf(p0).sum())
        seen["loose"] += int((root == 0).sum())
        seen["binding"] += int((root > 0).sum())
        for mu0 in _secular_starts(c, pmax, root):
            pairs.append((baselines._secular_solve(lam, c, pmax, mu0, "test"),
                          batched_secular_solve(lam, c, pmax, mu0, "test")))
    assert all(seen.values()), seen
    return pairs


@pytest.mark.parametrize("n", range(1, 8))
def test_secular_solve_matches_batched_search_bit_for_bit(n):
    # up to 7 directions numpy sums a row first term first, as the per-row
    # search does, so y and mu agree byte for byte
    for (y, mu), (y_ref, mu_ref) in _secular_pairs(n, 40, 100 + n):
        assert y.dtype == y_ref.dtype and y.shape == y_ref.shape
        assert y.tobytes() == y_ref.tobytes()
        assert mu.dtype == mu_ref.dtype and mu.tobytes() == mu_ref.tobytes()


def test_secular_solve_matches_batched_search_at_extreme_scales():
    # eigenvalues, rhs, budgets and starts over 600 decades, where squares and
    # q / d underflow: both searches succeed byte for byte or both raise
    rng = np.random.default_rng(31)
    outcomes = {"same": 0, "raised": 0}
    for _ in range(1000):
        n, rows = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        lam = 10.0 ** rng.uniform(-320, 300, (rows, n)) * (rng.random((rows, n)) > 0.3)
        c = 10.0 ** rng.uniform(-170, 150, (rows, n)) * (rng.random((rows, n)) > 0.2)
        pmax = 10.0 ** rng.uniform(-300, 300, rows)
        mu0 = 10.0 ** rng.uniform(-300, 300, rows) * (rng.random(rows) > 0.5)
        try:
            with np.errstate(all="ignore"):
                y_ref, mu_ref = batched_secular_solve(lam, c, pmax, mu0, "test")
        except NumericalError:
            with pytest.raises(NumericalError, match="test"):
                baselines._secular_solve(lam, c, pmax, mu0, "test")
            outcomes["raised"] += 1
            continue
        y, mu = baselines._secular_solve(lam, c, pmax, mu0, "test")
        assert y.tobytes() == y_ref.tobytes() and mu.tobytes() == mu_ref.tobytes()
        outcomes["same"] += 1
    assert min(outcomes.values()) >= 200, outcomes


@pytest.mark.parametrize("n", [8, 12, 16])
def test_secular_solve_matches_batched_search_past_seven_directions(n):
    # from 8 terms numpy sums pairwise, so the two searches round differently
    # (218 of these 240 calls differ in some byte); the largest relative gap
    # in y or mu over these batches measures 5.3e-16, at n = 8
    worst = 0.0
    for (y, mu), (y_ref, mu_ref) in _secular_pairs(n, 20, 200 + n):
        worst = max(worst, _deviation(y, y_ref), _deviation(mu, mu_ref))
    assert worst <= 1e-14, f"worst relative gap to the batched search {worst:.3e}"


def test_secular_solve_rejects_non_finite_rows():
    finite = [3.0, 1.0]
    for lam, c, pmax in [([1.0, 2.0], [np.nan, 1.0], 1.0),     # NaN rhs
                         ([1.0, 2.0], [np.inf, 1.0], 1.0),     # inf rhs
                         ([np.nan, 2.0], [3.0, 1.0], 1.0),     # NaN eigenvalue, live
                         ([1.0, 2.0], [1e-3, np.nan], 1e6)]:   # NaN, loose budget
        with pytest.raises(NumericalError, match="wmmse_ic"):
            baselines._secular_solve(np.array([[1.0, 2.0], lam]), np.array([finite, c]),
                                     np.array([1.0, pmax]), np.zeros(2), "wmmse_ic")


# ---------------------------------------------------------------------------
# interference channel


def test_wmmse_ic_single_user_closed_form():
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=1, n_rx=1, n_antennas=4), 0)
    res = wmmse_ic(inst)
    h = inst.channels[0, 0]
    p = inst.budgets[0]
    expect_rate = np.log2(1 + p * np.linalg.norm(h) ** 2 / inst.noise[0])
    assert res.converged
    assert abs(res.report.sum_rate_value() - expect_rate) <= 1e-9 * expect_rate
    mf = np.sqrt(p) * h / np.linalg.norm(h)
    phase = res.variables[0] @ mf.conj() / (np.linalg.norm(res.variables[0])
                                            * np.linalg.norm(mf))
    assert abs(abs(phase) - 1.0) < 1e-8  # same direction up to a phase


def test_wmmse_ic_symmetric_instance_symmetric_beams():
    rng = np.random.default_rng(1)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    b *= 0.05 * np.linalg.norm(a) / np.linalg.norm(b)
    channels = np.empty((2, 2, 2), dtype=complex)
    channels[0, 0] = a
    channels[1, 1] = a
    channels[0, 1] = b
    channels[1, 0] = b
    inst = ScenarioInstance("ic", channels, np.full(2, 2.0), np.full(2, 1e-3),
                            serving=np.arange(2))
    res = wmmse_ic(inst)
    assert_trace_monotone(res.trace)
    n0, n1 = np.linalg.norm(res.variables[0]), np.linalg.norm(res.variables[1])
    assert abs(n0 - n1) <= 1e-6 * max(n0, 1e-9)


def test_wmmse_ic_monotone_and_beats_matched_filter():
    wins = 0
    for seed in range(100):
        inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=3, n_rx=3), seed)
        res = wmmse_ic(inst)
        assert_trace_monotone(res.trace)
        assert obj.constraint_residual(inst, res.variables) <= 1e-9
        mf = baselines._mrt_init_ic(inst)
        if res.report.sum_rate_value() >= obj.sinr_ic(inst, mf).sum_rate_value() - 1e-9:
            wins += 1
    assert wins >= 95


def test_wmmse_ic_nonconvergence_flag():
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=3, n_rx=3), 7)
    res = wmmse_ic(inst, SolverConfig(max_iters=2, tol=1e-15))
    assert not res.converged and res.iterations == 2


# ---------------------------------------------------------------------------
# interference broadcast channel


def test_wmmse_ibc_single_cell_single_ue_full_power():
    inst, _ = chansim.build_instance("ibc", GeometryConfig(n_tx=1, n_rx=1, n_antennas=2), 2)
    res = wmmse_ibc_power(inst)
    np.testing.assert_allclose(res.variables, inst.budgets, rtol=1e-9)
    assert res.converged


def test_wmmse_ibc_isolated_cells_separate():
    # zero inter-cell gains: the joint solve must match per-cell solves
    base, _ = chansim.build_instance("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), 3)
    gains = base.gains.copy()
    cells_tx, cells_rx = base.tx_cell, base.rx_cell
    for m in range(4):
        for k in range(4):
            if cells_tx[m] != cells_rx[k]:
                gains[m, k] = 0.0
    joint = ScenarioInstance("ibc", base.channels, base.budgets, base.noise,
                             serving=base.serving, tx_cell=cells_tx, rx_cell=cells_rx,
                             gains=gains)
    # with zero cross-cell gains a plain step decouples exactly; only the
    # first step is plain, as the Anderson point's one accept test couples
    # the cells on purpose
    plain = SolverConfig(max_iters=1, tol=1e-300)
    res = wmmse_ibc_power(joint, plain)
    assert res.extrapolations == 0
    for b in range(2):
        members = np.flatnonzero(cells_rx == b)
        sub = ScenarioInstance("ibc", base.channels[np.ix_(members, members)],
                               base.budgets[b:b + 1], base.noise[members],
                               serving=np.arange(2), tx_cell=np.zeros(2, dtype=int),
                               rx_cell=np.zeros(2, dtype=int),
                               gains=gains[np.ix_(members, members)])
        sub_res = wmmse_ibc_power(sub, plain)
        np.testing.assert_allclose(res.variables[members], sub_res.variables, rtol=1e-9)
    assert wmmse_ibc_power(joint).converged


def test_wmmse_ibc_random_feasible_and_monotone():
    for seed in range(100):
        inst, _ = chansim.build_instance(
            "ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), seed)
        res = wmmse_ibc_power(inst)
        assert_trace_monotone(res.trace)
        sums = np.bincount(inst.rx_cell, weights=res.variables)
        assert np.all(sums <= inst.budgets + 1e-9)
        assert np.all(res.variables >= 0)


# ---------------------------------------------------------------------------
# cooperative beamforming


def test_wmmse_coop_single_user_is_coherent_mrt():
    inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=3, n_rx=1), 4)
    res = wmmse_coop(inst)
    norms = np.linalg.norm(inst.channels[:, 0, :], axis=1)
    expect = np.log2(1 + (np.sqrt(inst.budgets) * norms).sum() ** 2 / inst.noise[0])
    assert abs(res.report.sum_rate_value() - expect) <= 1e-6 * expect
    # per-BS full power, each block aligned with its own channel
    for m in range(3):
        v = res.variables[m, 0]
        assert abs((np.abs(v) ** 2).sum() - inst.budgets[m]) <= 1e-6 * inst.budgets[m]
        corr = abs(np.vdot(inst.channels[m, 0], v)) / (np.linalg.norm(v) * norms[m])
        assert corr > 1 - 1e-6


def test_wmmse_coop_single_pair_matches_ic():
    geo = GeometryConfig(n_tx=1, n_rx=1, n_antennas=3)
    inst_c, _ = chansim.build_instance("coop", geo, 5)
    inst_i, _ = chansim.build_instance("ic", geo, 5)
    np.testing.assert_allclose(inst_c.channels, inst_i.channels)  # same seed stream
    rc = wmmse_coop(inst_c)
    ri = wmmse_ic(inst_i)
    assert abs(rc.report.sum_rate_value() - ri.report.sum_rate_value()) \
        <= 1e-8 * ri.report.sum_rate_value()


def test_coop_vstep_feasible_and_never_raises_surrogate():
    # one block sweep, from random feasible beams and repeated towards the
    # step's optimum, where rounding is what could raise the surrogate
    rng = np.random.default_rng(31)
    bound = multipliers = 0
    for seed in range(4):
        inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=3, n_rx=2), seed)
        work = baselines._scaled_copy(inst)
        m, k, n = work.channels.shape
        h = work.channels.transpose(1, 0, 2).reshape(k, m * n)
        scale = rng.uniform(0.05, 2.0, k)
        beta = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        a_mat = (h.T * scale) @ h.conj()      # sum_k scale_k h_k h_k^H
        b = beta[:, None] * h

        def surrogate(v):
            return float(np.einsum("ji,ik,jk->", v.conj(), a_mat, v).real
                         - 2 * np.vdot(b, v).real)

        v = rng.standard_normal((k, m, n)) + 1j * rng.standard_normal((k, m, n))
        v *= np.sqrt(work.budgets * rng.uniform(0, 1, m)
                     / (np.abs(v) ** 2).sum(axis=(0, 2)))[None, :, None]
        v = v.reshape(k, m * n)
        mu = np.zeros(m)   # each BS's multiplier, kept across sweeps as the solver does
        for _ in range(20):
            nxt = baselines._coop_vstep(h, scale, beta, v, work.budgets, mu, m, n)
            power = (np.abs(nxt.reshape(k, m, n)) ** 2).sum(axis=(0, 2))
            assert np.all(power <= work.budgets)
            bound += int(np.sum(power >= work.budgets * (1 - 1e-9)))
            # each BS's slot holds its own block's multiplier, > 0 only where
            # that block ends on its budget
            live = mu > 0
            assert np.all(power[live] >= work.budgets[live] * (1 - baselines._POWER_TOL))
            multipliers += int(live.sum())
            before = surrogate(v)
            assert surrogate(nxt) <= before + 1e-9 * abs(before)
            v = nxt
    assert bound > 0 and multipliers > 0   # some steps end on a budget, not only inside it


def test_wmmse_coop_monotone_feasible_and_at_least_gp():
    for seed in range(8):
        inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=3, n_rx=2), seed)
        res = wmmse_coop(inst, SolverConfig(max_iters=120))
        assert_trace_monotone(res.trace)
        assert obj.constraint_residual(inst, res.variables) <= 1e-9
        gp = gp_coop(inst, SolverConfig(max_iters=300))
        assert res.report.sum_rate_value() >= gp.report.sum_rate_value() - 1e-2


# ---------------------------------------------------------------------------
# gradient projection


def test_gp_single_user_hits_mrt_closed_form():
    inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=2, n_rx=1), 7)
    norms = np.linalg.norm(inst.channels[:, 0, :], axis=1)
    expect = np.log2(1 + (np.sqrt(inst.budgets) * norms).sum() ** 2 / inst.noise[0])
    res = gp_coop(inst)
    assert res.report.sum_rate_value() >= 0.99 * expect
    # past the maximum no step ascends, so a tolerance no move can meet ends
    # the run stagnated, not converged
    stuck = gp_coop(inst, SolverConfig(tol=1e-300))
    assert stuck.stagnated and not stuck.converged
    assert stuck.report.sum_rate_value() >= 0.99 * expect


def test_gp_trace_ascends_and_iterates_feasible():
    for seed in range(5):
        inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=3, n_rx=2), seed)
        res = gp_coop(inst, SolverConfig(max_iters=150))
        assert np.all(np.diff(res.trace) > 0)
        assert obj.constraint_residual(inst, res.variables) <= 1e-12


def _gp_points(inst, rng):
    """GP's matched-filter start, a random feasible point and GP's final
    iterate, split (M, K, 2N)."""
    start = split_complex(inst.channels)
    start *= np.sqrt(inst.budgets / (start ** 2).sum(axis=(1, 2)))[:, None, None]
    drawn = rng.standard_normal(start.shape)
    drawn *= np.sqrt(rng.uniform(0.1, 1.0, len(inst.budgets)) * inst.budgets
                     / (drawn ** 2).sum(axis=(1, 2)))[:, None, None]
    return {"start": start, "random": drawn,
            "final": split_complex(gp_coop(inst).variables)}


def _closed_form(inst, x):
    """`_coop_rate_gradient` at split beams x (M, K, 2N), split alike."""
    h, beams = baselines._coop_stack(inst)[:2]
    a = merge_complex(x).transpose(1, 0, 2).reshape(h.shape) @ h.conj().T
    return split_complex(beams(baselines._coop_rate_gradient(h, inst.noise, a,
                                                             np.abs(a) ** 2)))


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("m,k", [(1, 1), (1, 3), (3, 1), (5, 2), (4, 8)])
def test_gp_gradient_matches_the_tape(m, k, n):
    # the closed form GP steps along against the tape's gradient of the same
    # sum rate; both sit about 1e-12 from an extended-precision reference
    inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=m, n_rx=k, n_antennas=n),
                                     [30, m, k, n])
    for name, x in _gp_points(inst, np.random.default_rng([30, m, k, n])).items():
        assert obj.constraint_residual(inst, x) <= obj.FEAS_TOL, name
        t = nk.Tensor(x, requires_grad=True)
        nk.backward(obj.sinr_coop(inst, t).sum_rate)
        got = _closed_form(inst, x)
        assert got.shape == x.shape
        assert np.linalg.norm(got - t.grad) <= 1e-11 * np.linalg.norm(t.grad), name


def test_gp_gradient_matches_finite_differences():
    # the rate written out from its definition, with no feasibility check,
    # since a difference step leaves a full-power ball
    inst, _ = chansim.build_instance("coop", GeometryConfig(n_tx=3, n_rx=2), 31)

    def sum_rate(x):
        gains = np.abs(np.einsum("mkn,mjn->jk", inst.channels.conj(), merge_complex(x))) ** 2
        signal = np.diagonal(gains)
        return float(np.log2(1 + signal / (gains.sum(axis=0) - signal + inst.noise)).sum())

    for name, x in _gp_points(inst, np.random.default_rng(31)).items():
        want = fd_grad(sum_rate, x)
        got = _closed_form(inst, x)
        assert np.max(np.abs(got - want)) <= 1e-6 * max(np.abs(want).max(), 1.0), name


# ---------------------------------------------------------------------------
# permutation consistency of solver objective values


def test_baselines_permutation_consistent():
    rng = np.random.default_rng(8)
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=3, n_rx=3), 9)
    p = NodePermutation.random(3, 3, rng)
    r1 = wmmse_ic(inst).report.sum_rate_value()
    r2 = wmmse_ic(permute_instance(inst, p)).report.sum_rate_value()
    assert abs(r1 - r2) <= 1e-6 * max(1.0, r1)

    inst_b, _ = chansim.build_instance("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), 10)
    pb = NodePermutation.random(4, 4, rng)
    r1 = wmmse_ibc_power(inst_b).report.sum_rate_value()
    r2 = wmmse_ibc_power(permute_instance(inst_b, pb)).report.sum_rate_value()
    assert abs(r1 - r2) <= 1e-6 * max(1.0, r1)

    inst_c, _ = chansim.build_instance("coop", GeometryConfig(n_tx=2, n_rx=2), 11)
    pc = NodePermutation.random(2, 2, rng)
    r1 = wmmse_coop(inst_c).report.sum_rate_value()
    r2 = wmmse_coop(permute_instance(inst_c, pc)).report.sum_rate_value()
    assert abs(r1 - r2) <= 1e-6 * max(1.0, r1)


# ---------------------------------------------------------------------------
# the benchmark's fixed solve set, pinned

# (kind, (n_tx, n_rx, antennas), set seed, baseline) -> per instance i of
# sample_seed(set seed, i): (iterations, converged, stagnated, sum rate).
# The GP rows were recorded with the hand-written per-solver loops that
# `_ascend` replaced, the WMMSE rows with `_ascend`'s safeguarded Anderson
# acceleration and the warm-started multiplier search; a change meant to
# move the iterates updates these on purpose. Counts and flags compare
# exactly, rates to 1e-11 relative: BLAS kernels picked per CPU round the
# same run differently, by up to 1.44e-12 relative (ibc row 0).
PINNED = {
    ("ic", (8, 8, 2), 777, "wmmse"): [
        (20, True, False, 47.55214828598028), (25, True, False, 56.94360464331705),
        (27, True, False, 52.141703096552675)],
    ("ibc", (3, 2, 4), 777, "wmmse"): [
        (16, True, False, 45.25031009347327), (6, True, False, 36.39662821592556),
        (6, True, False, 41.45687989309224), (9, True, False, 41.93540514921306),
        (8, True, False, 40.89000656891173), (18, True, False, 44.3339385582524),
        (11, True, False, 39.3981418408842), (6, True, False, 40.11909681330193)],
    ("coop", (5, 2, 2), 909, "wmmse"): [
        (19, True, False, 23.44911409804081), (11, True, False, 14.305280754984254),
        (10, True, False, 15.839660573124641), (17, True, False, 14.969276922281637)],
    ("coop", (5, 2, 2), 909, "gp"): [
        (7, True, False, 23.448937151195537), (159, True, False, 14.294880378343692),
        (56, True, False, 15.800508424148356), (25, True, False, 14.968908683738395)],
}


def _fixed_set(kind, geometry, seed, count, which):
    """(instance, result) of `which` on the first `count` of the fixed set."""
    m, k, n = geometry
    geo = GeometryConfig(n_tx=m, n_rx=k, n_antennas=n)
    for i in range(count):
        inst, _ = chansim.build_instance(kind, geo, chansim.sample_seed(seed, i))
        yield inst, harness.run_baseline(kind, inst, which)


def test_solvers_match_pinned_results():
    for (kind, geometry, seed, which), want in PINNED.items():
        got = []
        for inst, res in _fixed_set(kind, geometry, seed, len(want), which):
            got.append((res.iterations, res.converged, res.stagnated,
                        res.report.sum_rate_value()))
            assert_trace_monotone(res.trace)
            assert obj.constraint_residual(inst, res.variables) <= 1e-9
        assert got == [(*w[:3], pytest.approx(w[3], rel=1e-11)) for w in want], (kind, which)


def test_extrapolations_counted_on_fixed_set():
    # every fixed IBC run accepts some Anderson points, at most one a step
    for _, res in _fixed_set("ibc", (3, 2, 4), 777, 8, "wmmse"):
        assert 0 < res.extrapolations <= res.iterations
    # GP adapts its own step and tries no Anderson point
    for _, res in _fixed_set("coop", (5, 2, 2), 909, 2, "gp"):
        assert res.extrapolations == 0


@pytest.mark.parametrize("kind,geometry,seed,which",
                         [key for key in PINNED if key[3] == "wmmse"],
                         ids=[key[0] for key in PINNED if key[3] == "wmmse"])
def test_one_iteration_is_the_plain_step(monkeypatch, kind, geometry, seed, which):
    # no Anderson try follows the first step, so max_iters=1 is one plain step
    m, k, n = geometry
    inst, _ = chansim.build_instance(kind, GeometryConfig(n_tx=m, n_rx=k, n_antennas=n),
                                     chansim.sample_seed(seed, 0))
    res = harness.run_baseline(kind, inst, which, SolverConfig(max_iters=1))
    assert res.iterations == 1 and res.extrapolations == 0
    plain = []

    def once(instance, step, x, score, variables, cfg, project=None):
        x, rate, _ = step(x, *score(x))
        plain.extend([variables(x), rate])

    monkeypatch.setattr(baselines, "_ascend", once)
    harness.run_baseline(kind, inst, which)
    assert res.variables.tobytes() == plain[0].tobytes()
    assert res.trace[-1] == plain[1]


def test_degenerate_anderson_history_accepts_only_finite_gains(monkeypatch):
    # single-user ic and one-UE ibc cells give colinear residual differences
    # (an ibc 1 x 1 history is one-dimensional); a tolerance that only an
    # unchanged rate meets keeps them trying
    lstsq, ranks = np.linalg.lstsq, []

    def counted(a, b, rcond=None):
        ranks.append(np.linalg.matrix_rank(a) < a.shape[1])
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    endless = SolverConfig(max_iters=30, tol=1e-300)
    for kind, (m, k, n) in (("ic", (1, 1, 4)), ("ic", (1, 1, 1)), ("ibc", (1, 1, 2)),
                            ("ibc", (3, 1, 2))):
        for seed in range(3):
            inst, _ = chansim.build_instance(
                kind, GeometryConfig(n_tx=m, n_rx=k, n_antennas=n), seed)
            res = harness.run_baseline(kind, inst, "wmmse", endless)
            assert np.all(np.isfinite(res.trace)) and np.all(np.isfinite(res.variables))
            assert obj.constraint_residual(inst, res.variables) <= 1e-9
            assert_trace_monotone(res.trace)
    assert sum(ranks) > 0

    # a step that moves by the same vector every time: zero residual
    # differences, gamma = 0, and the Anderson point is the plain step
    # itself, whose equal rate is no gain
    inst, _ = chansim.build_instance("ic", GeometryConfig(n_tx=1, n_rx=1, n_antennas=1), 0)
    beam = baselines._mrt_init_ic(inst)
    tried = []

    def project(y):
        tried.append(y)
        return y

    res = baselines._ascend(inst, lambda x, *_: (x + 1.0, float((x + 1.0).sum()), None),
                            np.zeros(2), lambda x: (float(x.sum()), None), lambda x: beam,
                            SolverConfig(max_iters=5), project)
    assert len(tried) == 4 and res.extrapolations == 0
    np.testing.assert_array_equal(res.trace, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])


def test_no_multiplier_memory_outlives_a_run():
    # A, then B of the same shape, then A again: each run's multiplier search
    # and Anderson history start cold, so A's second run repeats its first
    # byte for byte
    for kind, (m, k, n), seed, which in PINNED:
        if which != "wmmse":
            continue
        geo = GeometryConfig(n_tx=m, n_rx=k, n_antennas=n)
        a, b = (chansim.build_instance(kind, geo, chansim.sample_seed(seed, i))[0]
                for i in (0, 1))
        first, _, again = (harness.run_baseline(kind, inst, which) for inst in (a, b, a))
        assert again.iterations == first.iterations, kind
        assert again.trace.tobytes() == first.trace.tobytes(), kind
        assert again.variables.tobytes() == first.variables.tobytes(), kind


# ---------------------------------------------------------------------------
# numpy scores agree with the objectives, and keep their feasibility check

def test_scores_match_objectives_on_fixed_set(monkeypatch):
    ascend, checked, expected = baselines._ascend, [], []

    def compared(instance, step, x, score, variables, cfg, project=None):
        def agree(x, rate):
            want = obj.evaluate(instance, variables(x)).sum_rate_value()
            assert abs(rate - want) <= 1e-12 * want, (instance.kind, rate, want)
            checked.append(rate)

        def scored(x):
            rate, table = score(x)
            agree(x, rate)
            return rate, table

        def stepped(x, rate, table):
            nxt = step(x, rate, table)
            if nxt is not None:
                agree(*nxt[:2])
            return nxt

        def tried(y):   # one Anderson try: its point is scored next
            expected.append(y)
            return project(y)

        res = ascend(instance, stepped, x, scored, variables, cfg, project and tried)
        expected.extend(res.trace)
        return res

    monkeypatch.setattr(baselines, "_ascend", compared)
    for (kind, geometry, seed, which), want in PINNED.items():
        for _ in _fixed_set(kind, geometry, seed, len(want), which):
            pass
    # every trace point and Anderson try of the 19 runs
    assert len(checked) == len(expected)


def test_gp_projection_is_normalize_coop(monkeypatch):
    # GP's candidates go through the coop solvers' shared stacked projection,
    # which must scale them as `objectives.normalize` scales the split beams;
    # it sums |v|^2 of complex entries, normalize the squares of split reals,
    # and the two round apart by up to 3e-16 relative
    stack, moved = baselines._coop_stack, []

    def compared_stack(instance):
        h, beams, score, project, start = stack(instance)

        def compared(v):
            out = project(v)
            want = obj.normalize(nk.constant(split_complex(beams(v))), instance).data
            np.testing.assert_allclose(split_complex(beams(out)), want, rtol=1e-15, atol=0)
            moved.append(not np.array_equal(out, v))
            return out

        return h, beams, score, compared, start

    monkeypatch.setattr(baselines, "_coop_stack", compared_stack)
    geo = GeometryConfig(n_tx=5, n_rx=2, n_antennas=2)
    for i in range(4):
        inst, _ = chansim.build_instance("coop", geo, chansim.sample_seed(909, i))
        gp_coop(inst)
    assert sum(moved) > 100   # candidates outside a ball were scaled back


def _table_bytes(table):
    """A table, (a, |a|^2) or ibc's powers alone, as bytes."""
    return [t.tobytes() for t in (table if isinstance(table, tuple) else (table,))]


def test_each_step_reads_its_own_iterates_table(monkeypatch):
    # `_ascend` hands each step the table of its iterate: after an accepted
    # Anderson try the try's, not the plain step's. The ic and coop WMMSE
    # steps read it in `_mmse`, GP in its gradient (ibc's step reads none); a
    # table of a rejected try or line-search candidate would steer the step
    # from another point
    ascend, mmse, gradient, rate = (baselines._ascend, baselines._mmse,
                                    baselines._coop_rate_gradient, baselines._rate)
    steps, reads, scores = [], [], []

    def traced(instance, step, x, score, variables, cfg, project=None):
        # a fresh table of an iterate, formed as its solver's score forms it
        work = instance if project is None else baselines._scaled_copy(instance)
        if work.kind == "ibc":
            g2 = work.gains[work.serving] ** 2
        elif work.kind == "ic":
            h_conj = work.channels[work.serving].conj()
        else:
            h_conj_t = baselines._coop_stack(work)[0].conj().T

        def fresh(v):
            if work.kind == "ibc":
                return g2 * (v ** 2)[:, None]
            a = np.einsum("jkn,jn->jk", h_conj, v) if work.kind == "ic" else v @ h_conj_t
            return a, np.abs(a) ** 2

        plain = []

        def stepped(x, rate, table):
            want = fresh(x)
            assert _table_bytes(table) == _table_bytes(want)
            # x is not the last plain step's point: an Anderson try replaced it
            steps.append((want, bool(plain) and x is not plain[-1]))
            nxt = step(x, rate, table)
            if nxt is not None:
                plain.append(nxt[0])
            return nxt

        return ascend(instance, stepped, x, score, variables, cfg, project)

    def read(want):
        assert _table_bytes(want) == _table_bytes(steps[-1][0])
        reads.append(len(steps))

    def mmsed(a, power, noise):
        read((a, power))
        return mmse(a, power, noise)

    def graded(h, noise, a, power):
        read((a, power))
        return gradient(h, noise, a, power)

    def scored(instance, variables, power):
        scores.append(power)
        return rate(instance, variables, power)

    monkeypatch.setattr(baselines, "_ascend", traced)
    monkeypatch.setattr(baselines, "_mmse", mmsed)
    monkeypatch.setattr(baselines, "_coop_rate_gradient", graded)
    monkeypatch.setattr(baselines, "_rate", scored)
    for (kind, geometry, seed, which), want in PINNED.items():
        first_step, first_read, first_score = len(steps), len(reads), len(scores)
        runs = list(_fixed_set(kind, geometry, seed, len(want), which))
        n_steps = len(steps) - first_step
        if kind == "ibc":
            assert len(reads) == first_read
        else:   # one read per step, of that step's table
            assert reads[first_read:] == list(range(first_step + 1, len(steps) + 1)), kind
        if which == "gp":
            # some candidates were scored and rejected between two iterates
            assert len(scores) - first_score > n_steps + len(runs)
        else:   # some steps start from an accepted Anderson point
            assert any(after_try for _, after_try in steps[first_step:]), kind


@pytest.mark.parametrize("kind,geometry,seed,which", list(PINNED),
                         ids=[f"{kind}-{which}" for kind, _, _, which in PINNED])
def test_scores_reject_infeasible_points(monkeypatch, kind, geometry, seed, which):
    # with the projections disabled, an Anderson try (WMMSE) or a gradient
    # move (GP) leaves the budgets; its score must raise, not rate it
    monkeypatch.setattr(baselines, "_shrink", lambda norm2, budgets: np.ones_like(norm2))
    m, k, n = geometry
    inst, _ = chansim.build_instance(kind, GeometryConfig(n_tx=m, n_rx=k, n_antennas=n),
                                     chansim.sample_seed(seed, 0))
    with pytest.raises(ValueError, match="violate the power constraints"):
        harness.run_baseline(kind, inst, which)
