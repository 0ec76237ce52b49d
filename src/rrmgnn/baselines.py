"""Classical solvers: WMMSE block-coordinate ascent for all three scenarios
and projected gradient ascent for the cooperative one.

WMMSE alternates MMSE receivers u, rate weights w, and transmit variables; the
transmit step enforces power budgets through bisected nonnegative multipliers,
so every iterate is feasible and the sum-rate trace is non-decreasing up to
the bisection tolerance.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from . import objectives
from .chansim import IBC, NumericalError

_BISECT_STEPS = 100
_MU_CAP = 1e30
_INITS = ("mrt", "random", "zero")


def _scaled_copy(instance):
    """Unit-rescaled view: channels/gamma and noise/gamma^2 leave every SINR
    and the feasible set unchanged but bring the solver algebra to O(1),
    which the multiplier bisections need for well-conditioned solves."""
    if instance.kind == IBC:
        gamma2 = float(np.mean(instance.gains ** 2))
    else:
        gamma2 = float(np.mean(np.abs(instance.channels) ** 2))
    if not np.isfinite(gamma2) or gamma2 <= 0:
        return instance
    gamma = np.sqrt(gamma2)
    return dataclasses.replace(
        instance,
        channels=instance.channels / gamma,
        gains=None if instance.gains is None else instance.gains / gamma,
        noise=instance.noise / gamma2)


@dataclass
class SolverConfig:
    max_iters: int = 500
    tol: float = 1e-6              # absolute sum-rate change at convergence
    power_tol: float = 1e-10       # relative power residual left by bisection
    gp_init_step: float = 1.0
    gp_min_step: float = 1e-12
    init: str = "mrt"              # "mrt" (full-power matched filter), "random", or
                                   # "zero" (GP only; WMMSE starts from "mrt")
    init_seed: int = 0

    def __post_init__(self):
        if self.tol <= 0 or self.power_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.init not in _INITS:
            raise ValueError(f"init must be one of {_INITS}, got {self.init!r}")


@dataclass
class SolverResult:
    variables: np.ndarray
    report: object
    trace: np.ndarray
    converged: bool
    iterations: int
    stagnated: bool = False


def _solve_h(a, b):
    """Hermitian solve with a relative diagonal jitter fallback."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        n = a.shape[0]
        jitter = 1e-12 * max(1.0, abs(np.trace(a).real) / n)
        return np.linalg.solve(a + jitter * np.eye(n), b)


def _ball_solve(a, b, pmax, power_tol):
    """argmin over v of v^H a v - 2 Re(b^H v) subject to a total power cap.

    `b` may be a single rhs (N,) or a stack of rhs columns-as-rows (K, N)
    sharing one multiplier; the cap applies to the summed squared norm.
    Solves (a + mu I) v = b with mu >= 0 bisected until the budget binds (or
    mu = 0 if the unconstrained solution is feasible). Always returns a
    feasible v of the same shape as b.
    """
    single = b.ndim == 1
    rhs = b[None, :] if single else b
    eye = np.eye(a.shape[0])

    def attempt(mu):
        v = _solve_h(a + mu * eye, rhs.T).T
        return v, float((np.abs(v) ** 2).sum())

    v, p = attempt(0.0)
    if np.isfinite(p) and p <= pmax * (1 + 1e-12):
        return v[0] if single else v
    mu_hi = max(abs(np.trace(a).real) / a.shape[0], 1e-12)
    while True:
        v, p = attempt(mu_hi)
        if np.isfinite(p) and p <= pmax:
            break
        mu_hi *= 2.0
        if mu_hi > _MU_CAP:
            raise NumericalError("power multiplier bisection failed to bracket")
    mu_lo, best = 0.0, v
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (mu_lo + mu_hi)
        v, p = attempt(mid)
        if np.isfinite(p) and p <= pmax:
            mu_hi, best = mid, v
            if pmax - p <= power_tol * pmax:
                break
        else:
            mu_lo = mid
    return best[0] if single else best


def _mrt_init_ic(instance, rng=None):
    k = instance.n_ue
    h = np.stack([instance.channels[instance.serving[j], j] for j in range(k)])
    if rng is not None:
        h = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    scale = np.sqrt(instance.budgets[instance.serving]
                    / (np.abs(h) ** 2).sum(axis=1))
    return h * scale[:, None]


def wmmse_ic(instance, cfg=None):
    """Per-pair beamforming WMMSE; returns beams (K, N) and the rate trace."""
    cfg = cfg or SolverConfig()
    work = _scaled_copy(instance)
    k_n = work.n_ue
    serving = work.serving
    budgets = work.budgets[serving]
    noise = work.noise
    h_eff = work.channels[serving]  # (K, K, N): [j, k] = channel TX_j -> UE k

    rng = np.random.default_rng(cfg.init_seed) if cfg.init == "random" else None
    v = _mrt_init_ic(work, rng)
    trace = [objectives.sinr_ic(work, v).sum_rate]
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        a_jk = np.einsum("jkn,jn->jk", h_eff.conj(), v)   # h_{m1(j),k}^H v_j
        totals = noise + (np.abs(a_jk) ** 2).sum(axis=0)
        direct = a_jk[np.arange(k_n), np.arange(k_n)]
        u = direct / totals
        w = 1.0 / (1.0 - (u.conj() * direct).real)

        scale = w * np.abs(u) ** 2
        for j in range(k_n):
            # quadratic term collects the interference v_j causes at every UE
            hj = h_eff[j]  # (K, N): channels from TX_j
            a_mat = np.einsum("kn,k,km->nm", hj, scale, hj.conj())
            rhs = w[j] * np.conj(u[j]) * h_eff[j, j]
            v[j] = _ball_solve(a_mat, rhs, budgets[j], cfg.power_tol)

        trace.append(objectives.sinr_ic(work, v).sum_rate)
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            converged = True
            break
    report = objectives.sinr_ic(instance, v)
    return SolverResult(v, report, np.array(trace), converged, it)


def wmmse_ibc_power(instance, cfg=None):
    """Scalar WMMSE over the equivalent gains; returns per-UE powers (K,)."""
    cfg = cfg or SolverConfig()
    if instance.gains is None:
        raise ValueError("instance has no equivalent gains")
    work = _scaled_copy(instance)
    k_n = work.n_ue
    g = work.gains[work.serving]  # (K, K): [j, k] = gain TX_j -> UE k
    noise = work.noise
    cells = work.rx_cell
    cell_budget = work.budgets

    counts = np.bincount(cells, minlength=cell_budget.size)
    x = np.sqrt(cell_budget[cells] / counts[cells])  # equal split at full power
    if cfg.init == "random":
        rng = np.random.default_rng(cfg.init_seed)
        x *= rng.random(k_n)
    trace = [objectives.sinr_ibc(work, x ** 2).sum_rate]
    converged = False
    it = 0
    g2 = g ** 2
    diag = np.diag(g)
    for it in range(1, cfg.max_iters + 1):
        totals = noise + g2.T @ (x ** 2)
        u = diag * x / totals
        w = 1.0 / (1.0 - u * diag * x)
        den = g2 @ (w * u ** 2)      # den_j = sum_k w_k u_k^2 g_{jk}^2
        num = w * u * diag
        for b in range(cell_budget.size):
            members = np.flatnonzero(cells == b)
            unconstrained = num[members] / den[members]
            if (unconstrained ** 2).sum() <= cell_budget[b] * (1 + 1e-12):
                x[members] = unconstrained
                continue
            mu_lo, mu_hi = 0.0, max(den[members].max(), 1e-12)
            while ((num[members] / (den[members] + mu_hi)) ** 2).sum() > cell_budget[b]:
                mu_hi *= 2.0
                if mu_hi > _MU_CAP:
                    raise NumericalError("cell power bisection failed to bracket")
            best = num[members] / (den[members] + mu_hi)
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (mu_lo + mu_hi)
                cand = num[members] / (den[members] + mid)
                p = (cand ** 2).sum()
                if p <= cell_budget[b]:
                    mu_hi, best = mid, cand
                    if cell_budget[b] - p <= cfg.power_tol * cell_budget[b]:
                        break
                else:
                    mu_lo = mid
            x[members] = best
        trace.append(objectives.sinr_ibc(work, x ** 2).sum_rate)
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            converged = True
            break
    p = x ** 2
    return SolverResult(p, objectives.sinr_ibc(instance, p), np.array(trace), converged, it)


def _coop_stacked(instance):
    m, k, n = instance.channels.shape
    h = instance.channels.transpose(1, 0, 2).reshape(k, m * n)  # rows are stacked h_k
    return h, m, k, n


def _coop_block_powers(v_stack, m, n):
    # v_stack: (K, M*N) rows; per-BS power sums over UEs and in-block antennas
    blocks = v_stack.reshape(v_stack.shape[0], m, n)
    return (np.abs(blocks) ** 2).sum(axis=(0, 2))


def _coop_vstep(h, scale, beta, v_prev, budgets, m, n, power_tol, max_cycles=5):
    """Transmit step with per-BS budgets via block-coordinate ball solves.

    Minimizes sum_j v_j^H A v_j - 2 Re(b_j^H v_j) with A = sum_k scale_k
    h_k h_k^H and b_j = beta_j h_j, subject to per-BS block power caps. The
    constraints are separable over per-BS blocks, so cycling exact per-BS
    minimizations (each a single bisected multiplier over that BS's stacked
    beams) descends the cost monotonically and converges to the step's global
    optimum. Starts from the previous beams; every sweep is feasible.
    Returns stacked beams (K, MN).
    """
    k_n = h.shape[0]
    hb = h.reshape(k_n, m, n)
    # per-block-pair quadratic terms: A[m, m', :, :] = sum_k scale_k h_{k,m} h_{k,m'}^H
    a_blocks = np.einsum("kma,k,klb->mlab", hb, scale, hb.conj())
    b = beta[:, None, None] * hb
    v = v_prev.reshape(k_n, m, n).copy()
    # a handful of sweeps suffices: the outer loop re-enters with fresh (u, w)
    # anyway, and any sweep count keeps the surrogate descent (and the rate
    # trace) monotone
    for _ in range(max_cycles):
        delta = 0.0
        for bs in range(m):
            coupled = np.einsum("lab,klb->ka", a_blocks[bs], v)
            own = v[:, bs, :] @ a_blocks[bs, bs].T
            d = b[:, bs, :] - (coupled - own)
            new_block = _ball_solve(a_blocks[bs, bs], d, budgets[bs], power_tol)
            delta = max(delta, float(np.max(np.abs(new_block - v[:, bs, :]))))
            v[:, bs, :] = new_block
        if delta <= 1e-11 * (1.0 + float(np.max(np.abs(v)))):
            break
    return v.reshape(k_n, m * n)


def wmmse_coop(instance, cfg=None):
    """Cooperative WMMSE on stacked per-UE beams; returns beams (M, K, N)."""
    cfg = cfg or SolverConfig()
    work = _scaled_copy(instance)
    h, m, k_n, n = _coop_stacked(work)
    noise = work.noise
    budgets = work.budgets

    v = h.copy()  # stacked matched filter
    if cfg.init == "random":
        rng = np.random.default_rng(cfg.init_seed)
        v = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    bp = _coop_block_powers(v, m, n)
    v = (v.reshape(k_n, m, n) * np.sqrt(budgets / bp)[None, :, None]).reshape(k_n, m * n)

    def rate(v_stack):
        beams = v_stack.reshape(k_n, m, n).transpose(1, 0, 2)
        return objectives.sinr_coop(work, beams).sum_rate

    trace = [rate(v)]
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        a_jk = v @ h.conj().T           # [j, k] = h_k^H v_j
        totals = noise + (np.abs(a_jk) ** 2).sum(axis=0)
        direct = a_jk[np.arange(k_n), np.arange(k_n)]
        u = direct / totals
        w = 1.0 / (1.0 - (u.conj() * direct).real)
        scale = w * np.abs(u) ** 2
        v = _coop_vstep(h, scale, w * np.conj(u), v, budgets, m, n, cfg.power_tol)
        trace.append(rate(v))
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            converged = True
            break
    beams = v.reshape(k_n, m, n).transpose(1, 0, 2)
    return SolverResult(beams, objectives.sinr_coop(instance, beams),
                        np.array(trace), converged, it)


# ---------------------------------------------------------------------------
# projected gradient ascent (cooperative)


def _project_coop(v_split, instance):
    norms2 = (v_split ** 2).sum(axis=(1, 2))
    scale = np.sqrt(instance.budgets / np.maximum(norms2, instance.budgets))
    return v_split * scale[:, None, None]


def gp_coop(instance, cfg=None, v0=None):
    """Projected gradient ascent on the cooperative sum rate.

    Starts from the full-power matched filter by default (the all-zero point
    is stationary); each step backtracks the step size until the projected
    move ascends. Every iterate is feasible.
    """
    cfg = cfg or SolverConfig()
    from .hetgraph import merge_complex, split_complex

    m, k_n, n = instance.channels.shape
    if v0 is not None:
        v = split_complex(np.asarray(v0, dtype=np.complex128))
    elif cfg.init == "random":
        rng = np.random.default_rng(cfg.init_seed)
        v = rng.standard_normal((m, k_n, 2 * n))
    elif cfg.init == "zero":
        v = np.zeros((m, k_n, 2 * n))
    else:
        # matched filter scaled to full per-BS power (projection only shrinks)
        v = split_complex(instance.channels)
        used = (v ** 2).sum(axis=(1, 2))
        v *= np.sqrt(instance.budgets / used)[:, None, None]
    v = _project_coop(v, instance)

    def value(x):
        with nk.no_grad():
            return objectives.sinr_coop(instance, nk.constant(x)).sum_rate_value()

    def grad(x):
        t = nk.Tensor(x, requires_grad=True)
        rep = objectives.sinr_coop(instance, t)
        nk.backward(rep.sum_rate)
        return t.grad

    trace = [value(v)]
    converged = False
    stagnated = False
    step = cfg.gp_init_step
    it = 0
    for it in range(1, cfg.max_iters + 1):
        g = grad(v)
        step = min(step * 2.0, 1e12)
        while True:
            cand = _project_coop(v + step * g, instance)
            f_new = value(cand)
            if f_new > trace[-1]:
                break
            step *= 0.5
            if step < cfg.gp_min_step:
                stagnated = True
                break
        if stagnated:
            break
        v = cand
        trace.append(f_new)
        if trace[-1] - trace[-2] < cfg.tol:
            converged = True
            break
    beams = merge_complex(v)
    return SolverResult(beams, objectives.sinr_coop(instance, beams),
                        np.array(trace), converged, it, stagnated=stagnated)
