"""Random scenario generation: geometry, path loss, Rayleigh fading, and the
ScenarioInstance builders for the three supported setups.

A ScenarioInstance is the single source of truth; `graph_of` derives the
HetGraph view of it and is the one place that knows the feature layout. All
powers are handled internally in watts; dBm appears only at the config
boundary. Generation is pure given (config, seed).
"""

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .hetgraph import HetGraph, _relabel, split_complex

MAX_REJECTION_ATTEMPTS = 10_000

IC, IBC, COOP = "ic", "ibc", "coop"
KINDS = (IC, IBC, COOP)


class GenerationError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


class NumericalError(RuntimeError):
    """Raised on numerically unusable inputs (e.g. rank-deficient ZF channels)."""


def dbm_to_watts(dbm):
    return 10.0 ** ((np.asarray(dbm, dtype=np.float64) - 30.0) / 10.0)


def path_loss_db(d):
    """Distance-dependent loss in dB for d in meters."""
    return 30.5 + 36.7 * np.log10(d)


@dataclass
class GeometryConfig:
    """Placement and radio parameters for one scenario family.

    n_tx is M for pair/cooperative setups and the cell count B for the
    broadcast setup; n_rx is K or the per-cell UE count Q accordingly. UEs
    lie in the annulus [serve_dist_min, serve_dist_max] around their BS.
    """

    n_tx: int = 4
    n_rx: int = 4
    n_antennas: int = 2
    field_size: float = 2000.0
    min_bs_spacing: float = 500.0
    serve_dist_min: float = 50.0
    serve_dist_max: float = 250.0
    budget_dbm: float = 33.0
    noise_dbm: float = -99.0

    def __post_init__(self):
        for name in ("n_tx", "n_rx", "n_antennas"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("field_size", "min_bs_spacing", "serve_dist_min", "serve_dist_max",
                     "budget_dbm", "noise_dbm"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (0 < self.serve_dist_min <= self.serve_dist_max <= self.field_size):
            raise ValueError("serve distances must satisfy 0 < serve_dist_min <= "
                             "serve_dist_max <= field_size")


@dataclass
class ScenarioInstance:
    """One problem realization: channels, budgets, noise, and scenario layout.

    channels[m, k] is the length-N channel between TX entity m and UE k. For
    the broadcast setup the TX entities are the K = B*Q equivalent antennas,
    each carrying one UE's zero-forcing beam w, and `gains` holds |h^H w| per
    (TX entity, UE). A minibatch (`sample_instances`) puts a leading axis on
    every array field and shares the layout: `serving`, `tx_cell` and
    `rx_cell`.
    """

    kind: str
    channels: np.ndarray
    budgets: np.ndarray          # per BS (ic: per pair, ibc: per cell, coop: per BS)
    noise: np.ndarray            # per UE, watts
    serving: np.ndarray          # ic/ibc: TX entity serving UE k
    tx_cell: np.ndarray | None = None
    rx_cell: np.ndarray | None = None
    gains: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if np.ndim(self.channels) < 3:
            raise ValueError(f"channels need shape (..., M, K, N), got {np.shape(self.channels)}")
        lead, m, k = self.batch_shape, self.n_tx_entities, self.n_ue
        cells = m
        if self.kind == IBC:
            if self.gains is None or self.tx_cell is None or self.rx_cell is None:
                raise ValueError("ibc instances need gains, tx_cell and rx_cell")
            cells = np.shape(self.budgets)[-1] if np.ndim(self.budgets) else 0
        expected = {"budgets": lead + (cells,), "noise": lead + (k,), "serving": (k,),
                    "gains": lead + (m, k), "tx_cell": (m,), "rx_cell": (k,)}
        for name, shape in expected.items():
            value = getattr(self, name)
            if value is not None and np.shape(value) != shape:
                raise ValueError(f"{name} has shape {np.shape(value)}, expected {shape}")
        for name, value in (("budgets", self.budgets), ("noise", self.noise)):
            if not np.all(np.isfinite(value) & (value > 0)):
                raise ValueError(f"{name} powers must be finite and positive")
        if self.kind in (IC, IBC):
            srt = np.sort(np.asarray(self.serving))
            if not np.array_equal(srt, np.arange(k)):
                raise ValueError("serving map must be a bijection onto the UE set")
        if self.kind == IBC:
            if np.any(self.gains < 0):
                raise ValueError("equivalent channel gains must be nonnegative")
            ids = np.concatenate([self.tx_cell, self.rx_cell])
            if ids.min() < 0 or ids.max() >= cells:
                raise ValueError(f"cell indices must lie in [0, {cells}), one per cell budget")

    @property
    def n_tx_entities(self):
        return self.channels.shape[-3]

    @property
    def n_ue(self):
        return self.channels.shape[-2]

    @property
    def batch_shape(self):
        """() for one instance, (B,) for a stack of B."""
        return self.channels.shape[:-3]


def _draw_geometry(cfg, rng, n_bs, anchor_bs):
    """One generator's geometry draws: the BS positions (n_bs, 2), then each
    UE's radius and angle around its anchor BS, as lists of floats.

    BSs are uniform in the square, re-drawn until they keep their spacing; each
    UE radius is uniform over its anchor's annulus area, and the angle is
    re-drawn (radius kept) until the UE lands inside the field. The rejection
    tests run on Python floats; the spacing math.sqrt(dx*dx + dy*dy) is the
    two-term sum np.linalg.norm takes. `_ue_positions` places the kept UEs.

    The uniforms come in blocks of `rng.random` doubles, each mapped as
    `Generator.uniform(low, high)` maps its double, low + (high - low) * u; a
    used-up block is followed by one as long as all drawn so far. At the end
    the generator is moved back over the doubles left unused, so it stands
    where one scalar `rng.uniform` call per draw would have left it.
    """
    size, spacing = cfg.field_size, cfg.min_bs_spacing
    u = rng.random(2 * n_bs + 2 * len(anchor_bs) + 8).tolist()
    i = 0                      # doubles of u consumed
    bs = []
    attempts = stalled = 0
    while len(bs) < n_bs:
        if i + 2 > len(u):
            u += rng.random(len(u)).tolist()
        cx, cy = size * u[i], size * u[i + 1]
        i += 2
        attempts += 1
        if attempts > MAX_REJECTION_ATTEMPTS:
            raise GenerationError(
                f"could not place {n_bs} BSs with spacing >= {spacing} m "
                f"in a {size} m field after {MAX_REJECTION_ATTEMPTS} attempts")
        if any(math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) < spacing
               for x, y in bs):
            stalled += 1
            if stalled >= 200:  # partial layout wedged the sampler; restart the set
                bs.clear()
                stalled = 0
            continue
        bs.append((cx, cy))
        stalled = 0

    lo2 = cfg.serve_dist_min * cfg.serve_dist_min
    span2, turn = cfg.serve_dist_max * cfg.serve_dist_max - lo2, 2 * math.pi
    radius, angle = [], []
    for j, b in enumerate(anchor_bs):
        if i == len(u):
            u += rng.random(len(u)).tolist()
        r = math.sqrt(lo2 + span2 * u[i])
        i += 1
        bx, by = bs[b]
        for _ in range(MAX_REJECTION_ATTEMPTS):
            if i == len(u):
                u += rng.random(len(u)).tolist()
            theta = turn * u[i]
            i += 1
            x, y = bx + r * math.cos(theta), by + r * math.sin(theta)
            if 0 <= x <= size and 0 <= y <= size:
                break
        else:
            raise GenerationError(
                f"could not keep UE {j} at distance {r:.1f} m from its BS inside the field")
        radius.append(r)
        angle.append(theta)
    rng.bit_generator.advance(i - len(u))     # PCG64 wraps a negative advance
    return bs, radius, angle


def _ue_positions(bs, anchor_bs, radius, angle):
    """UE positions (..., n_ue, 2) from BS positions (..., n_bs, 2) and polar draws."""
    angle = np.asarray(angle)
    return bs[..., anchor_bs, :] + np.asarray(radius)[..., None] * np.stack(
        [np.cos(angle), np.sin(angle)], axis=-1)


def _faded(d, g):
    """Rayleigh-faded channels, shape d.shape + (N,), with log-distance path loss
    from distances d in meters and standard normal draws g, shape d.shape + (2, N):
    per distance, N real then N imaginary parts."""
    d = np.asarray(d, dtype=np.float64)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    amp = np.sqrt(10.0 ** (-path_loss_db(d) / 10.0))
    z = (g[..., 0, :] + 1j * g[..., 1, :]) / np.sqrt(2.0)
    return amp[..., None] * z


def graph_of(inst):
    """The HetGraph view of an instance; relabels exactly as the instance does.

    TX features are the power budgets in watts (ibc: the budget of each
    entity's cell), RX features the noise standard deviations. The direct
    link of UE k is the edge (serving[k], k). Edge fibers, split to reals:
    ic: the one-hot complex layout [h; 0] on direct links and [0; h] on
    interference links (width 4N); ibc: the equivalent gain in the
    [direct, intra-cell, inter-cell] slot (width 3); coop: the channel
    (width 2N). Every graph is complete bipartite. A stacked instance gives
    the stack of its graphs.
    """
    m, k = inst.n_tx_entities, inst.n_ue
    f_tx = inst.budgets[..., inst.tx_cell] if inst.kind == IBC else inst.budgets
    direct = np.zeros((m, k), bool)
    if inst.kind != COOP:
        direct[inst.serving, np.arange(k)] = True
    if inst.kind == IC:
        on = direct[:, :, None]
        fibers = split_complex(np.concatenate([np.where(on, inst.channels, 0),
                                               np.where(on, 0, inst.channels)], axis=-1))
    elif inst.kind == IBC:
        slot = np.where(direct, 0, np.where(inst.tx_cell[:, None] == inst.rx_cell, 1, 2))
        fibers = np.where(slot[:, :, None] == np.arange(3), inst.gains[..., None], 0.0)
    else:
        fibers = split_complex(inst.channels)
    return HetGraph(f_tx[..., None], np.sqrt(inst.noise)[..., None], fibers,
                    np.ones(inst.batch_shape + (m, k), bool))


def zero_forcing(h_cell):
    """Unit-norm zero-forcing beams for a cell's (N, Q) channel matrix, or for
    a stack (..., N, Q) of them."""
    h_cell = np.asarray(h_cell, dtype=np.complex128)
    n, q = h_cell.shape[-2:]
    if n < q:
        raise ValueError(f"zero-forcing needs at least as many antennas as UEs ({n} < {q})")
    if np.any(np.linalg.cond(h_cell) > 1e12):
        raise NumericalError("cell channel matrix is numerically rank deficient")
    w = h_cell @ np.linalg.inv(h_cell.swapaxes(-1, -2).conj() @ h_cell)
    return w / np.linalg.norm(w, axis=-2, keepdims=True)


def sample_instances(kind, cfg, seeds):
    """A stack of len(seeds) instances; element i is drawn from
    default_rng(seeds[i]) alone, so it does not depend on the other seeds.

    ic: K BS-UE pairs, BS k serves UE k. coop: M BSs serve all K UEs together;
    `serving` (BS j mod M for UE j) only anchors UE j's placement. ibc: B cells
    x Q UEs with per-cell zero-forcing: each of the K = B*Q equivalent TX
    entities carries one UE's beam, and gains[m, k] = |h_{cell(m), k}^H w_m|.
    Per seed the loop only draws (BS and UE placement, then one fading block);
    everything after the draws runs once for the whole stack.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    m, q, n = cfg.n_tx, cfg.n_rx, cfg.n_antennas
    if kind == IC and m != q:
        raise ValueError(f"pairs scenario needs n_tx == n_rx, got {m} != {q}")
    if kind == IBC and n < q:
        raise ValueError(f"zero-forcing infeasible: {n} antennas for {q} UEs per cell")
    if len(seeds) == 0:
        raise ValueError("sample_instances needs at least one seed")
    k = m * q if kind == IBC else q
    anchor = np.repeat(np.arange(m), q) if kind == IBC else np.arange(k) % m
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append((*_draw_geometry(cfg, rng, m, anchor),
                      rng.standard_normal((m, k, 2, n))))
    bs, radius, angle, fading = (np.array(x) for x in zip(*draws))
    ue = _ue_positions(bs, anchor, radius, angle)
    h = _faded(np.linalg.norm(bs[:, :, None] - ue[:, None], axis=-1), fading)
    budgets = np.full((len(draws), m), dbm_to_watts(cfg.budget_dbm))
    noise = np.full((len(draws), k), dbm_to_watts(cfg.noise_dbm))
    if kind != IBC:
        return ScenarioInstance(kind, h, budgets, noise, anchor)

    # S = len(seeds) samples of B = m cells
    cells = np.arange(m)
    own = h.reshape(-1, m, m, q, n)[:, cells, cells]      # (S, B, Q, N): each cell's UEs
    zf = zero_forcing(own.swapaxes(-1, -2))               # (S, B, N, Q)
    channels = h[:, anchor]          # (S, K, K, N): from the BS of entity m to UE k
    beams = zf.swapaxes(-1, -2)[:, anchor, np.arange(k) % q]   # (S, K, N): entity m's beam
    gains = np.abs(np.einsum("...mkn,...mn->...mk", channels.conj(), beams))
    return ScenarioInstance(IBC, channels, budgets, noise, serving=np.arange(k),
                            tx_cell=anchor, rx_cell=anchor.copy(), gains=gains)


def build_instance(kind, cfg, seed):
    """The instance of one seed and its graph: element 0 of a
    `sample_instances` stack of one. Returns (instance, graph_of(instance))."""
    batch = sample_instances(kind, cfg, [seed])
    shared = ("kind", "serving", "tx_cell", "rx_cell")
    inst = replace(batch, **{f.name: getattr(batch, f.name)[0] for f in fields(batch)
                             if f.name not in shared and getattr(batch, f.name) is not None})
    return inst, graph_of(inst)


def permute_instance(inst, p):
    """Relabel TX entities and UEs of an instance consistently with a graph
    permutation; cell identities and per-cell quantities are untouched."""
    tx, rx, both = p.pi_tx, p.pi_rx, (p.pi_tx, p.pi_rx)
    return ScenarioInstance(
        inst.kind, _relabel(inst.channels, *both),
        inst.budgets if inst.kind == IBC else _relabel(inst.budgets, tx),  # ibc: per cell
        _relabel(inst.noise, rx), _relabel(tx[inst.serving], rx),
        tx_cell=_relabel(inst.tx_cell, tx), rx_cell=_relabel(inst.rx_cell, rx),
        gains=_relabel(inst.gains, *both))


def sample_seed(base_seed, index):
    """Derived per-sample seed stream: independent of other indices."""
    return [int(base_seed), int(index)]


def instance_feature_widths(kind, n_antennas):
    """Stored (d_tx, d_rx, d_e) real widths for each scenario's graph."""
    if kind == IC:
        return 1, 1, 4 * n_antennas
    if kind == IBC:
        return 1, 1, 3
    if kind == COOP:
        return 1, 1, 2 * n_antennas
    raise ValueError(f"unknown scenario kind {kind!r}")
