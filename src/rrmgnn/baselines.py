"""Classical solvers: WMMSE block-coordinate ascent for all three scenarios
and projected gradient ascent for the cooperative one.

WMMSE alternates MMSE receivers u, rate weights w, and transmit variables. The
transmit step minimizes convex quadratics under power budgets: each quadratic
is eigendecomposed once, and its budget's multiplier mu >= 0 is the root of a
scalar secular equation, found by safeguarded Newton for a batch of
quadratics at a time (`_secular_solve`). Newton starts from the previous
step's multiplier of the same budget, clamped into the bracket [lo, total]
around the root, and returns the new one: each solver's step keeps one mu per
pair (ic), per cell (ibc) or per BS (coop), for the length of one run. In coop
the quadratic couples BSs that each have their own budget, so its step is one
block-coordinate sweep, exact per BS, that lowers the weighted MSE without
minimizing it. Every iterate is feasible and the sum-rate trace is
non-decreasing up to the power tolerance. The complex solvers (ic, coop)
share the MMSE receiver and weight update (`_mmse`).

Every solver is its set-up plus one step; `_ascend` is the one loop that runs
the steps, keeps the trace, applies the stopping rule and builds the result.
For the WMMSE solvers it also accelerates: after each plain step it tries the
type-II Anderson point of the run's last few (iterate, plain step) pairs,
scaled back into the budgets, and keeps it only if it raises the sum rate
(safeguarded as in Zhang, O'Donoghue & Boyd, SIAM J. Optim. 2020).

Every scored point gets its sum rate in numpy (`_rate`) from its received-power
table, [j, k] = power of stream j at UE k: for beams |h_k^H v_j|^2, the table
whose MMSE weights are w_k = 1 + SINR_k (Shi, Razaviyayn, Luo & He, IEEE TSP
2011). Each score first runs `objectives.check_feasible`, so an infeasible
point raises as it would in `objectives`; the result's report is
`objectives.evaluate` on the final variables. GP runs on coop WMMSE's stacked
beams (`_coop_stack`), unscaled; its gradient is the table's closed form
(`_coop_rate_gradient`), read from the table of the last scored point, so no
solver runs on a tape and no GP step forms a table twice.
"""

import dataclasses
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import objectives
from .chansim import IBC, NumericalError

_NEWTON_STEPS = 100
_POWER_TOL = 1e-10        # relative power residual of a binding budget
_GP_INIT_STEP = 1.0
_GP_MIN_STEP = 1e-12
_ANDERSON_MEMORY = 3      # moves an Anderson point mixes: the last 4 (iterate, step) pairs


def _scaled_copy(instance):
    """Unit-rescaled view: channels/gamma and noise/gamma^2 leave every SINR
    and the feasible set unchanged but bring the solver algebra to O(1),
    which keeps the quadratics and their multipliers well scaled."""
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
    """The stopping rule. Every solver has one start, at full power: the
    matched filter (ibc: each cell's budget split equally over its UEs)."""

    max_iters: int = 500
    tol: float = 1e-6              # absolute sum-rate change at convergence

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral) \
                or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


@dataclass
class SolverResult:
    variables: np.ndarray
    report: object
    trace: np.ndarray
    converged: bool
    iterations: int
    stagnated: bool = False
    extrapolations: int = 0   # accepted Anderson points (WMMSE only)


def _secular_solve(lam, c, pmax, mu0, solver):
    """Power-capped minimizers of a batch of eigendecomposed quadratics.

    Row r minimizes sum_i lam[r, i] |y_i|^2 - 2 Re(conj(c[r, i]) y_i) subject
    to sum |y|^2 <= pmax[r]: lam are the eigenvalues of a PSD quadratic and c
    its rhs in the eigenbasis (trailing axes of c are rhs columns sharing the
    row's budget). The minimizer is y = c / (lam + mu), with mu = 0 if that is
    feasible, else the root of p(mu) = sum_i |c_i|^2 / (lam_i + mu)^2 = pmax.
    Newton runs on phi(mu) = p^(-1/2) - t^(-1/2), t = pmax (1 - _POWER_TOL/2),
    which is concave and increasing (More & Sorensen), from the start mu0[r]
    clamped into [lo, total], the bounds that bracket the root. From below
    the root Newton climbs to it; from above, the tangent lies over phi, so
    the first step lands at or below the root and the climb follows. A
    binding row ends with power in [pmax (1 - _POWER_TOL), pmax]. mu0 only
    saves steps: a solver passes its previous step's multipliers for the
    same rows. Directions with c = 0 contribute nothing, also where lam = 0
    (a rank-deficient quadratic). Returns (y, mu): y shaped like c, and
    each row's multiplier, 0 where the budget does not bind.
    """
    c2 = (np.abs(c) ** 2).reshape(lam.shape + (-1,)).sum(axis=-1)
    # eigh rounding can leave PSD eigenvalues below 0; directions without rhs
    # get lam = 1, so they add exactly 0 to p and to y
    lam = np.where(c2 > 0, np.maximum(lam, 0.0), 1.0)
    target = pmax * (1.0 - 0.5 * _POWER_TOL)
    floor = pmax * (1.0 - _POWER_TOL)

    # p(0) divides by a live lam = 0 (it is then inf), and closed rows compute
    # throwaway steps (0/0 for a zero rhs)
    with np.errstate(divide="ignore", invalid="ignore"):
        open_ = ~((c2 / (lam * lam)).sum(axis=1) <= pmax)  # also p(0) = inf
        mu = np.zeros(lam.shape[0])
        if open_.any():
            # phi <= 0 at lo, the largest of the per-direction and total bounds
            total = np.sqrt(c2.sum(axis=1) / target)
            per_direction = (np.sqrt(c2 / target[:, None]) - lam).max(axis=1)
            lo = np.maximum(np.maximum(total - lam.max(axis=1), per_direction), 0.0)
            mu = np.where(open_, np.minimum(np.maximum(mu0, lo), total), 0.0)
            for _ in range(_NEWTON_STEPS):
                d = lam + mu[:, None]
                q = c2 / (d * d)
                p = q.sum(axis=1)
                open_ &= ~((p <= pmax) & (p >= floor))
                if not open_.any():
                    break
                # mu - phi / phi' with phi' = p^(-3/2) p3, kept in [lo, total]
                p3 = (q / d).sum(axis=1)
                mu = np.where(open_, np.minimum(np.maximum(
                    mu + p * (np.sqrt(p / target) - 1.0) / p3, lo), total), mu)
    if open_.any() or not np.all(np.isfinite(mu) & (mu >= 0)):
        raise NumericalError(f"{solver}: no finite nonnegative power multiplier "
                             f"meets the budget")
    return c / (lam + mu[:, None]).reshape(lam.shape + (1,) * (c.ndim - 2)), mu


def _real(x):
    """An iterate as one real vector; a complex one as [Re; Im]."""
    x = x.ravel()
    return np.concatenate([x.real, x.imag]) if np.iscomplexobj(x) else x


def _anderson(pairs, like):
    """Type-II Anderson point of the (iterate, plain step) pairs (x_i, f_i),
    oldest first: y = f_k - dF gamma, gamma = lstsq(dR, r_k), with r = f - x
    and dR, dF the differences of consecutive residuals and steps. Shaped and
    typed like `like`."""
    x, f = (np.array(a) for a in zip(*pairs))
    r = f - x
    gamma = np.linalg.lstsq(np.diff(r, axis=0).T, r[-1], rcond=None)[0]
    y = f[-1] - gamma @ np.diff(f, axis=0)
    if np.iscomplexobj(like):
        y = y[:like.size] + 1j * y[like.size:]
    return y.reshape(like.shape)


def _ascend(instance, step, x, score, variables, cfg, project=None):
    """The one ascent loop every solver runs, from iterate x.

    step(x, rate) returns the next iterate and its sum rate, or None when it
    finds no ascent (the run then stops stagnated); score(x) is an iterate's
    sum rate, from its received-power table (`_rate`), and raises on an
    infeasible x. The run converges once the rate moves by less than cfg.tol and
    otherwise stops after cfg.max_iters steps. variables(x) maps an iterate to
    the solver's output; the report scores that output on `instance`, unscaled.

    With `project` (the WMMSE solvers), which scales a point into the budgets,
    the run keeps its last _ANDERSON_MEMORY + 1 (iterate, plain step) pairs,
    and each plain step x -> f after the first is followed by a try at
    y = project(`_anderson` point of the pairs). y replaces f only if its sum
    rate is strictly higher (safeguarded type-II Anderson acceleration:
    Walker & Ni, SIAM J. Numer. Anal. 2011; Zhang, O'Donoghue & Boyd, SIAM J.
    Optim. 2020). A plain WMMSE step never lowers the rate, so the trace stays
    monotone. The pairs live for one run.
    """
    cfg = cfg or SolverConfig()
    trace = [score(x)]
    converged = stagnated = False
    it = accepted = 0
    pairs = deque(maxlen=_ANDERSON_MEMORY + 1)
    for it in range(1, cfg.max_iters + 1):
        nxt = step(x, trace[-1])
        if nxt is None:
            stagnated = True
            break
        f, rate = nxt
        if project is not None:
            pairs.append((_real(x), _real(f)))
            if len(pairs) > 1:
                y = project(_anderson(pairs, f))
                y_rate = score(y)
                if y_rate > rate:
                    f, rate = y, y_rate
                    accepted += 1
        x = f
        trace.append(rate)
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            converged = True
            break
    out = variables(x)
    return SolverResult(out, objectives.evaluate(instance, out), np.array(trace),
                        converged, it, stagnated, accepted)


def _shrink(norm2, budgets):
    """Per-ball factor that scales a squared norm into its budget (1 inside)."""
    return np.sqrt(budgets / np.maximum(norm2, budgets))


def _rate(instance, variables, power):
    """Sum rate of `variables` on `instance` from their received-power table
    power[j, k] (stream j at UE k; the diagonal is each UE's own stream).
    Raises ValueError, as `objectives` does, if the variables are infeasible."""
    objectives.check_feasible(instance, variables)
    signal = np.diagonal(power)
    sinr = signal / (power.sum(axis=0) - signal + instance.noise)
    return float(np.log1p(sinr).sum()) / objectives.LN2


def _coop_rate_gradient(h, noise, a, power):
    """Gradient of the coop sum rate at stacked beams v (K, MN), stacked alike,
    from their table: a = v @ h^H and power = |a|^2, rows of h the stacked h_k.

    With a[j, k] = h_k^H v_j, P = |a|^2, T_k its column sum plus noise and
    I_k = T_k - P[k, k], the rate sum_k log2(T_k / I_k) has d/dP[j, k] =
    W[j, k] / ln 2, W[j, k] = 1/T_k - [j != k]/I_k, and the packed gradient
    d/dRe v + i d/dIm v is G_j = (2/ln 2) sum_k W[j, k] a[j, k] h_k."""
    totals = power.sum(axis=0) + noise
    off_diagonal = ~np.eye(len(totals), dtype=bool)
    weights = 1.0 / totals - off_diagonal / (totals - np.diagonal(power))
    return ((weights * a) @ h) * (2.0 / objectives.LN2)


def _mmse(a_jk, noise):
    """MMSE receivers u and rate weights w from a[j, k], beam j's gain at UE k."""
    totals = noise + (np.abs(a_jk) ** 2).sum(axis=0)
    direct = np.diagonal(a_jk)
    u = direct / totals
    return u, 1.0 / (1.0 - (u.conj() * direct).real)


def _mrt_init_ic(instance):
    h = instance.channels[instance.serving, np.arange(instance.n_ue)]
    scale = np.sqrt(instance.budgets[instance.serving]
                    / (np.abs(h) ** 2).sum(axis=1))
    return h * scale[:, None]


def wmmse_ic(instance, cfg=None):
    """Per-pair beamforming WMMSE; returns beams (K, N) and the rate trace."""
    work = _scaled_copy(instance)
    budgets = work.budgets[work.serving]
    h_eff = work.channels[work.serving]  # (K, K, N): [j, k] = channel TX_j -> UE k
    h_own = np.diagonal(h_eff).T         # (K, N): pair j's direct channel
    h_conj = h_eff.conj()

    def gains(v):   # [j, k] = h_{jk}^H v_j
        return np.einsum("jkn,jn->jk", h_conj, v)

    def score(v):
        return _rate(work, v, np.abs(gains(v)) ** 2)

    mu = np.zeros(len(budgets))   # each pair's last multiplier, its next search's start

    def step(v, _):
        u, w = _mmse(gains(v), work.noise)
        # pair j's quadratic collects the interference v_j causes at every UE;
        # it depends only on (u, w), so the K problems are solved as one batch
        a_mat = np.einsum("jkn,k,jkm->jnm", h_eff, w * np.abs(u) ** 2, h_eff.conj())
        rhs = (w * u)[:, None] * h_own
        lam, q = np.linalg.eigh(a_mat)
        y, mu[:] = _secular_solve(lam, np.einsum("jni,jn->ji", q.conj(), rhs), budgets, mu,
                                  "wmmse_ic")
        v = np.einsum("jni,ji->jn", q, y)
        return v, score(v)

    def project(v):   # each beam into its power ball
        return v * _shrink((np.abs(v) ** 2).sum(axis=1), budgets)[:, None]

    return _ascend(instance, step, _mrt_init_ic(work), score, lambda v: v, cfg, project)


def wmmse_ibc_power(instance, cfg=None):
    """Scalar WMMSE over the equivalent gains; returns per-UE powers (K,).

    The iterate is the amplitude sqrt(p), updated in real arithmetic."""
    if instance.gains is None:
        raise ValueError("instance has no equivalent gains")
    work = _scaled_copy(instance)
    g = work.gains[work.serving]  # (K, K): [j, k] = gain TX_j -> UE k
    g2, diag = g ** 2, np.diag(g)
    cells, cell_budget = work.rx_cell, work.budgets
    counts = np.bincount(cells, minlength=cell_budget.size)
    # cells are the rows of the power step; UE j sits at (cells[j], slot[j])
    slot = np.tril(cells[:, None] == cells[None, :], -1).sum(axis=1)
    padded = (cell_budget.size, counts.max())

    def score(x):
        p = x ** 2
        return _rate(work, p, g2 * p[:, None])

    mu = np.zeros(cell_budget.size)   # each cell's last multiplier

    def step(x, _):
        u = diag * x / (work.noise + g2.T @ (x ** 2))
        w = 1.0 / (1.0 - u * diag * x)
        lam, c = np.zeros(padded), np.zeros(padded)   # padding slots carry c = 0
        lam[cells, slot] = g2 @ (w * u ** 2)          # sum_k w_k u_k^2 g_{jk}^2
        c[cells, slot] = w * u * diag
        y, mu[:] = _secular_solve(lam, c, cell_budget, mu, "wmmse_ibc_power")
        x = y[cells, slot]
        return x, score(x)

    def project(x):   # nonnegative amplitudes, each cell's power into its budget
        x = np.abs(x)
        cell_power = np.bincount(cells, weights=x ** 2, minlength=cell_budget.size)
        return x * _shrink(cell_power, cell_budget)[cells]

    x = np.sqrt(cell_budget[cells] / counts[cells])  # equal split at full power
    return _ascend(instance, step, x, score, lambda x: x ** 2, cfg, project)


def _coop_vstep(h, scale, beta, v_prev, budgets, mu, m, n):
    """Transmit step with per-BS budgets: one block-coordinate sweep.

    Lowers sum_j v_j^H A v_j - 2 Re(b_j^H v_j), with A = sum_k scale_k h_k h_k^H
    and b_j = beta_j h_j, under per-BS block power caps, from the previous
    beams. The caps separate over BS blocks, so the sweep gives each BS's
    stacked beams in turn their exact capped minimizer with the other blocks
    held (one multiplier, in the eigenbasis of its diagonal block). No block
    move raises this weighted MSE, so one sweep keeps `_ascend`'s rate trace
    monotone; further sweeps would refine a surrogate that the next step's
    fresh (u, w) replace. Every block stays feasible. mu (M,) holds each BS's
    last multiplier: BS m's search starts from mu[m], and its solve writes
    mu[m] back in place. Returns stacked beams (K, MN).
    """
    k_n = h.shape[0]
    hb = h.reshape(k_n, m, n)
    # per-block-pair quadratic terms: A[m, m', :, :] = sum_k scale_k h_{k,m} h_{k,m'}^H
    a_blocks = np.einsum("kma,k,klb->mlab", hb, scale, hb.conj())
    b = beta[:, None, None] * hb
    lam, q = np.linalg.eigh(a_blocks[np.arange(m), np.arange(m)])
    v = v_prev.reshape(k_n, m, n).copy()
    for bs in range(m):
        coupled = np.einsum("lab,klb->ka", a_blocks[bs], v)
        own = v[:, bs, :] @ a_blocks[bs, bs].T
        d = b[:, bs, :] - (coupled - own)
        y, mu[bs:bs + 1] = _secular_solve(lam[bs:bs + 1], (d @ q[bs].conj()).T[None],
                                          budgets[bs:bs + 1], mu[bs:bs + 1], "wmmse_coop")
        v[:, bs, :] = (q[bs] @ y[0]).T
    return v.reshape(k_n, m * n)


def _coop_stack(instance):
    """The coop solvers' stacked form: rows h_k (K, MN) of the channels, the
    beams (M, K, N) view of stacked beams, the per-BS projection into the
    power balls and the matched filter at full per-BS power (a block's power
    sums over UEs and antennas), stacked."""
    m, k_n, n = instance.channels.shape
    h = instance.channels.transpose(1, 0, 2).reshape(k_n, m * n)

    def beams(v_stack):
        return v_stack.reshape(k_n, m, n).transpose(1, 0, 2)

    def project(v):   # each BS's block of beams into its power ball
        blocks = v.reshape(k_n, m, n)
        power = (np.abs(blocks) ** 2).sum(axis=(0, 2))
        return (blocks * _shrink(power, instance.budgets)[None, :, None]).reshape(k_n, m * n)

    blocks = h.reshape(k_n, m, n)
    scale = np.sqrt(instance.budgets / (np.abs(blocks) ** 2).sum(axis=(0, 2)))
    return h, beams, project, (blocks * scale[None, :, None]).reshape(k_n, m * n)


def wmmse_coop(instance, cfg=None):
    """Cooperative WMMSE on stacked per-UE beams; returns beams (M, K, N)."""
    work = _scaled_copy(instance)
    m, _, n = work.channels.shape
    h, beams, project, v = _coop_stack(work)
    h_conj_t = h.conj().T

    def gains(v):   # [j, k] = h_k^H v_j
        return v @ h_conj_t

    def score(v):
        return _rate(work, beams(v), np.abs(gains(v)) ** 2)

    mu = np.zeros(m)   # each BS's last multiplier, updated by `_coop_vstep`

    def step(v, _):
        u, w = _mmse(gains(v), work.noise)
        v = _coop_vstep(h, w * np.abs(u) ** 2, w * u, v, work.budgets, mu, m, n)
        return v, score(v)

    return _ascend(instance, step, v, score, beams, cfg, project)


# ---------------------------------------------------------------------------
# projected gradient ascent (cooperative)


def gp_coop(instance, cfg=None):
    """Projected gradient ascent on the cooperative sum rate.

    Runs on `wmmse_coop`'s stacked beams (K, MN), projection and full-power
    matched-filter start (the all-zero point is stationary), on the unscaled
    instance. Each step doubles the step size, then halves it until the
    projected move ascends, and stagnates below _GP_MIN_STEP; every iterate is
    feasible. Each score keeps its table (a = v @ h^H, |a|^2), and the step's
    gradient (`_coop_rate_gradient`) reads the last scored point's: the
    iterate's, as a step returns its last candidate and `_ascend` scores x0.
    """
    h, beams, project, v = _coop_stack(instance)
    h_conj_t = h.conj().T
    table = None

    def value(v):
        nonlocal table
        a = v @ h_conj_t
        table = a, np.abs(a) ** 2
        return _rate(instance, beams(v), table[1])

    size = _GP_INIT_STEP

    def step(v, rate):
        nonlocal size
        grad = _coop_rate_gradient(h, instance.noise, *table)
        size = min(size * 2.0, 1e12)
        while True:
            cand = project(v + size * grad)
            f_new = value(cand)
            if f_new > rate:
                return cand, f_new
            size *= 0.5
            if size < _GP_MIN_STEP:
                return None

    return _ascend(instance, step, v, value, beams, cfg)
