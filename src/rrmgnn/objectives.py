"""Differentiable SINR and sum-rate evaluators for the three scenarios, plus
the feasibility projection (`normalize`) used after postprocessing.

The scenarios share one objective, the sum over UEs of log2(1 + SINR), and
differ in which variables share a power budget: an ic beam has its own, a
coop BS's beams share one, an ibc cell's UE powers share one. Each evaluator
builds its received-power table and ends in one SINR rule (`_signal_over_rest`);
ic's and coop's |h^H v|^2 is one matmul by a real `_split_channel_table`.

Every evaluator accepts either a kernel Tensor holding split-complex variables
(gradients flow) or a plain numpy array of complex/real variables (wrapped as a
constant); the RateReport holds tensors either way. Rates are log2(1+SINR)
computed via log1p.
"""

import numpy as np

from . import numkernel as nk
from .chansim import COOP, IBC, IC
from .hetgraph import split_complex

LN2 = float(np.log(2.0))
FEAS_TOL = 1e-9


class RateReport:
    """Per-UE SINR (linear) and the sum rate (bits/s/Hz) as tensors, and the
    constraint residual of the variables scored (`constraint_residual`, a float).

    For a stacked instance `sinr` and `sum_rate` carry its batch axis:
    `sum_rate` then holds one sum per instance, shape (B,), and `residual` is
    the worst over the stack.
    """

    def __init__(self, sinr, sum_rate, residual):
        self.sinr = sinr
        self.sum_rate = sum_rate
        self.residual = residual

    def sum_rate_value(self):
        return float(self.sum_rate.data)


def _as_split_tensor(v, complex_input):
    """Variables as a split-real Tensor: a Tensor as it is, numpy as a constant."""
    if isinstance(v, nk.Tensor):
        return v
    v = np.asarray(v)
    if complex_input:
        v = split_complex(v.astype(np.complex128))
    return nk.constant(v)


def _report(sinr_t, residual):
    return RateReport(sinr_t, nk.tsum(nk.log1p(sinr_t) * (1.0 / LN2), axis=-1), residual)


def _check_shape(what, v, shape):
    if v.data.shape != shape:
        raise ValueError(f"expected {what} of split shape {shape}, got {v.data.shape}")


def check_feasible(instance, v):
    """The constraint residual of v; raises ValueError past FEAS_TOL. The
    evaluators here and the solvers' numpy scores run it on every point they
    rate."""
    residual = constraint_residual(instance, v)
    if residual > FEAS_TOL:
        raise ValueError(f"{instance.kind} variables violate the power constraints "
                         f"by {residual:.3g}")
    return residual


def _signal_over_rest(power, noise):
    """SINR from a (..., K', K) received-power table: [j, k] = power of
    stream j at UE k, the diagonal being each UE's own stream. ic and coop
    fill it with |h^H v|^2 (`_received_power`), ibc with p_j g_{m1(j),k}^2;
    the solvers' numpy scores (`baselines._rate`) use the same tables."""
    idx = np.arange(power.shape[-1])
    signal = power[..., idx, idx]
    interference = nk.tsum(power, axis=-2) - signal
    return signal / (interference + nk.constant(noise))


def _split_channel_table(h):
    """Complex channels h (..., K, N) as one real (..., 2N, 2K) table [[Re h^T,
    -Im h^T], [Im h^T, Re h^T]]: split v (..., 2N) times it is [Re h^H v; Im h^H v].
    Filled in C order: np.block keeps h's strides, and builds and multiplies slower."""
    k, n = h.shape[-2:]
    ht, table = np.swapaxes(h, -1, -2), np.empty(h.shape[:-2] + (2 * n, 2 * k))
    table[..., :n, :k] = table[..., n:, k:] = ht.real
    table[..., :n, k:], table[..., n:, :k] = -ht.imag, ht.imag
    return nk.constant(table)


def _received_power(re_im, shape):
    """|h^H v|^2 as the (..., K', K) table `shape` from [Re; Im] halves."""
    return nk.tsum(nk.reshape(nk.square(re_im), shape[:-1] + (2, shape[-1])), axis=-2)


def sinr_ic(instance, v):
    """Rates for per-pair beamforming; v is (K, 2N) split or (K, N) complex.

    SINR_k = |h_{m1(k),k}^H v_k|^2 / (sum_{k'!=k} |h_{m1(k'),k}^H v_{k'}|^2 + noise_k).
    """
    v_t = _as_split_tensor(v, complex_input=True)
    lead, k, n = instance.batch_shape, instance.n_ue, instance.channels.shape[-1]
    _check_shape("beams", v_t, lead + (k, 2 * n))
    residual = check_feasible(instance, v_t)
    h_eff = instance.channels[..., instance.serving, :, :]  # [j, k] = h_{m1(j), k}
    re_im = nk.matmul(nk.reshape(v_t, lead + (k, 1, 2 * n)), _split_channel_table(h_eff))
    power = _received_power(re_im, lead + (k, k))
    return _report(_signal_over_rest(power, instance.noise), residual)


def _cell_indicator(instance):
    """(cells, K) 0/1 matrix: row b marks the UEs of cell b."""
    cells = instance.budgets.shape[-1]
    return (np.arange(cells)[:, None] == instance.rx_cell).astype(np.float64)


def sinr_ibc(instance, p):
    """Rates for per-UE power allocation over the equivalent scalar gains:
    stream j reaches UE k with power p_j g_{m1(j),k}^2."""
    p_t = _as_split_tensor(p, complex_input=False)
    lead, k = instance.batch_shape, instance.n_ue
    p_t = nk.reshape(p_t, lead + (k,))
    residual = check_feasible(instance, p_t)
    g2 = nk.constant(instance.gains[..., instance.serving, :] ** 2)  # [j, k]: TX_j -> UE k
    power = nk.reshape(p_t, lead + (k, 1)) * g2
    return _report(_signal_over_rest(power, instance.noise), residual)


def sinr_coop(instance, v):
    """Rates for cooperative beams; v is (M, K, 2N) split or (M, K, N) complex.

    Signals combine coherently across BSs before squaring:
    SINR_k = |sum_m h_{m,k}^H v_{m,k}|^2 / (sum_{k'!=k} |sum_m h_{m,k}^H v_{m,k'}|^2 + noise_k).
    """
    v_t = _as_split_tensor(v, complex_input=True)
    lead = instance.batch_shape
    m, k, n = instance.channels.shape[-3:]
    _check_shape("beams", v_t, lead + (m, k, 2 * n))
    residual = check_feasible(instance, v_t)
    re_im = nk.matmul(v_t, _split_channel_table(instance.channels))  # (M, K', 2K)
    power = _received_power(nk.tsum(re_im, axis=-3), lead + (k, k))
    return _report(_signal_over_rest(power, instance.noise), residual)


def evaluate(instance, variables):
    """Dispatch to the scenario's rate evaluator."""
    if instance.kind == IC:
        return sinr_ic(instance, variables)
    if instance.kind == IBC:
        return sinr_ibc(instance, variables)
    if instance.kind == COOP:
        return sinr_coop(instance, variables)
    raise ValueError(f"unknown scenario kind {instance.kind!r}")


# ---------------------------------------------------------------------------
# feasibility projections (scale-down only, differentiable a.e.)


def _power_balls(instance):
    """The ic and coop constraints, ||v||^2 <= P per ball: (P per ball, the
    axes of one ball). An ic ball is one beam, a coop ball one BS's beams."""
    if instance.kind == IC:
        return instance.budgets[..., instance.serving], (-1,)
    return instance.budgets, (-2, -1)


def normalize(raw, instance):
    """Scale raw variables into the scenario's feasible set.

    ic and coop: v <- v * sqrt(P / max(||v||^2, P)) per power ball.
    ibc: squash raw scores into (0, P_b) per UE, then rescale each cell to budget.
    """
    raw = nk.as_tensor(raw)
    if instance.kind in (IC, COOP):
        budgets, axes = _power_balls(instance)
        ball = (instance.n_ue, 2 * instance.channels.shape[-1])[-len(axes):]  # (2N,) or (K, 2N)
        if raw.data.shape != budgets.shape + ball:
            raise ValueError(f"expected {budgets.shape} raw power balls of split shape "
                             f"{ball}, got {raw.data.shape}")
        budgets = nk.constant(budgets)
        norms2 = nk.tsum(nk.square(raw), axis=axes)
        scale = nk.sqrt(budgets / nk.maximum(norms2, budgets))
        return raw * nk.reshape(scale, scale.data.shape + (1,) * len(axes))
    if instance.kind == IBC:
        lead, k = instance.batch_shape, instance.n_ue
        raw = nk.reshape(raw, lead + (k,))
        budgets = nk.constant(instance.budgets)
        p = nk.sigmoid(raw) * nk.constant(instance.budgets[..., instance.rx_cell])
        ind = nk.constant(_cell_indicator(instance))
        cell_sums = nk.reshape(nk.matmul(ind, nk.reshape(p, lead + (k, 1))),
                               instance.budgets.shape)
        cell_scale = budgets / nk.maximum(cell_sums, budgets)
        return p * cell_scale[..., instance.rx_cell]
    raise ValueError(f"unknown scenario kind {instance.kind!r}")


# ---------------------------------------------------------------------------
# feasibility residuals (numpy, used by eval/fuzz checks)


def _data(v):
    return v.data if isinstance(v, nk.Tensor) else np.asarray(v)


def constraint_residual(instance, variables):
    """Worst-case nonnegative violation of the scenario's power constraints
    (over the whole stack for a stacked instance).

    Variables may be split-real or complex; the squared norms agree either way.
    """
    v = _data(variables)
    if instance.kind in (IC, COOP):
        budgets, axes = _power_balls(instance)
        norms = np.abs(v) ** 2 if np.iscomplexobj(v) else v ** 2
        return float(np.maximum(norms.sum(axis=axes) - budgets, 0.0).max())
    if instance.kind == IBC:
        p = np.asarray(v, dtype=np.float64).reshape(instance.batch_shape + (-1,))
        neg = np.maximum(-p, 0.0).max() if p.size else 0.0
        sums = p @ _cell_indicator(instance).T
        over = np.maximum(sums - instance.budgets, 0.0).max()
        return float(max(neg, over))
    raise ValueError(f"unknown scenario kind {instance.kind!r}")
