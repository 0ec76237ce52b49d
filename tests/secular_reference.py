"""The batched multiplier search that `baselines._secular_solve` replaced,
kept as the bit-for-bit reference of its per-row search: the same Newton
steps, run on all open rows at once with numpy, closed rows frozen by masks."""

import numpy as np

from rrmgnn.baselines import _NEWTON_STEPS, _POWER_TOL
from rrmgnn.chansim import NumericalError


def batched_secular_solve(lam, c, pmax, mu0, solver):
    """`baselines._secular_solve`'s contract, searched over the batch."""
    c2 = (np.abs(c) ** 2).reshape(lam.shape + (-1,)).sum(axis=-1)
    lam = np.where(c2 > 0, np.maximum(lam, 0.0), 1.0)
    target = pmax * (1.0 - 0.5 * _POWER_TOL)
    floor = pmax * (1.0 - _POWER_TOL)

    # p(0) divides by a live lam = 0 (it is then inf), and closed rows compute
    # throwaway steps (0/0 for a zero rhs)
    with np.errstate(divide="ignore", invalid="ignore"):
        open_ = ~((c2 / (lam * lam)).sum(axis=1) <= pmax)  # also p(0) = inf
        mu = np.zeros(lam.shape[0])
        if open_.any():
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
                p3 = (q / d).sum(axis=1)
                mu = np.where(open_, np.minimum(np.maximum(
                    mu + p * (np.sqrt(p / target) - 1.0) / p3, lo), total), mu)
    if open_.any() or not np.all(np.isfinite(mu) & (mu >= 0)):
        raise NumericalError(f"{solver}: no finite nonnegative power multiplier "
                             f"meets the budget")
    return c / (lam + mu[:, None]).reshape(lam.shape + (1,) * (c.ndim - 2)), mu
