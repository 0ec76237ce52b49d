"""Random scenario generation: geometry, path loss, Rayleigh fading, and the
ScenarioInstance builders for the three supported setups.

A ScenarioInstance is the single source of truth; `graph_of` derives the
HetGraph view of it and is the one place that knows the feature layout. All
powers are handled internally in watts; dBm appears only at the config
boundary. Generation is pure given (config, seed).
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import container
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


def watts_to_dbm(w):
    return 10.0 * np.log10(np.asarray(w, dtype=np.float64)) + 30.0


def path_loss_db(d):
    """Distance-dependent loss in dB for d in meters."""
    return 30.5 + 36.7 * np.log10(d)


@dataclass
class GeometryConfig:
    """Placement and radio parameters for one scenario family.

    n_tx is M for pair/cooperative setups and the cell count B for the
    broadcast setup; n_rx is K or the per-cell UE count Q accordingly.
    """

    n_tx: int = 4
    n_rx: int = 4
    n_antennas: int = 2
    field_size: float = 2000.0
    min_bs_spacing: float = 500.0
    serve_dist: tuple = (50.0, 250.0)
    budget_dbm: float = 33.0
    noise_dbm: float = -99.0
    seed: int = 0

    def __post_init__(self):
        if self.n_tx < 1 or self.n_rx < 1 or self.n_antennas < 1:
            raise ValueError("counts and antenna number must be >= 1")
        lo, hi = self.serve_dist
        if not (0 < lo <= hi <= self.field_size):
            raise ValueError("serve_dist range must satisfy 0 < min <= max <= field_size")

    def to_dict(self):
        d = asdict(self)
        d["serve_dist"] = list(self.serve_dist)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["serve_dist"] = tuple(d.get("serve_dist", (50.0, 250.0)))
        return cls(**d)


@dataclass
class ScenarioInstance:
    """One problem realization: channels, budgets, noise, and scenario layout.

    channels[m, k] is the length-N channel between TX entity m and UE k. For
    the broadcast setup the TX entities are the K = B*Q equivalent antennas;
    `gains` then holds |h^H w| per (TX entity, UE) and `zf_beams[b]` the
    unit-norm per-cell beams (N, Q). A minibatch (`stack_instances`) puts a
    leading axis on every array field and shares the layout: `serving`,
    `tx_cell` and `rx_cell`.
    """

    kind: str
    channels: np.ndarray
    budgets: np.ndarray          # per BS (ic: per pair, ibc: per cell, coop: per BS)
    noise: np.ndarray            # per UE, watts
    serving: np.ndarray          # ic/ibc: TX entity serving UE k
    tx_cell: np.ndarray | None = None
    rx_cell: np.ndarray | None = None
    gains: np.ndarray | None = None
    zf_beams: np.ndarray | None = None
    bs_pos: np.ndarray | None = None
    ue_pos: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if np.any(self.budgets <= 0) or np.any(self.noise <= 0):
            raise ValueError("budgets and noise powers must be positive")
        if self.kind in (IC, IBC):
            k = self.n_ue
            srt = np.sort(np.asarray(self.serving))
            if not np.array_equal(srt, np.arange(k)):
                raise ValueError("serving map must be a bijection onto the UE set")
        if self.kind == IBC and self.gains is not None and np.any(self.gains < 0):
            raise ValueError("equivalent channel gains must be nonnegative")

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


_LAYOUT = ("serving", "tx_cell", "rx_cell")
_STACKED = ("channels", "budgets", "noise", "gains", "zf_beams", "bs_pos", "ue_pos")


def stack_instances(instances):
    """One minibatch instance from equally shaped instances of one layout.

    Every array field gains a leading axis B; `kind`, `serving`, `tx_cell`
    and `rx_cell` are shared and must agree, otherwise ValueError.
    """
    first = instances[0]
    for inst in instances[1:]:
        same = inst.kind == first.kind and all(
            np.array_equal(getattr(inst, f), getattr(first, f)) for f in _LAYOUT)
        if not same or inst.channels.shape != first.channels.shape:
            raise ValueError("stack_instances needs instances of one kind, shape and "
                             "layout (serving, tx_cell, rx_cell)")
    stacked = {f: None if getattr(first, f) is None
               else np.stack([getattr(inst, f) for inst in instances]) for f in _STACKED}
    return ScenarioInstance(first.kind, **stacked,
                            **{f: getattr(first, f) for f in _LAYOUT})


def sample_geometry(cfg, rng, n_bs, n_ue, anchor_bs):
    """Drop n_bs BSs with pairwise spacing and one UE per anchor annulus.

    anchor_bs[j] names the BS whose serving annulus UE j is placed in. BSs are
    uniform in the square; each UE is uniform in the annulus around its anchor,
    re-drawing the angle (distance kept) until it lands inside the field.
    """
    size = cfg.field_size
    bs = np.empty((n_bs, 2))
    attempts = 0
    placed = 0
    stalled = 0
    while placed < n_bs:
        cand = rng.uniform(0, size, size=2)
        attempts += 1
        if attempts > MAX_REJECTION_ATTEMPTS:
            raise GenerationError(
                f"could not place {n_bs} BSs with spacing >= {cfg.min_bs_spacing} m "
                f"in a {size} m field after {MAX_REJECTION_ATTEMPTS} attempts")
        if placed and np.min(np.linalg.norm(bs[:placed] - cand, axis=1)) < cfg.min_bs_spacing:
            stalled += 1
            if stalled >= 200:  # partial layout wedged the sampler; restart the set
                placed = 0
                stalled = 0
            continue
        bs[placed] = cand
        placed += 1
        stalled = 0

    lo, hi = cfg.serve_dist
    ue = np.empty((n_ue, 2))
    for j, b in enumerate(anchor_bs):
        r = np.sqrt(rng.uniform(lo * lo, hi * hi))  # uniform over the annulus area
        for attempt in range(MAX_REJECTION_ATTEMPTS):
            theta = rng.uniform(0, 2 * np.pi)
            pos = bs[b] + r * np.array([np.cos(theta), np.sin(theta)])
            if 0 <= pos[0] <= size and 0 <= pos[1] <= size:
                ue[j] = pos
                break
        else:
            raise GenerationError(
                f"could not keep UE {j} at distance {r:.1f} m from its BS inside the field")
    return bs, ue


def channel(d, n_antennas, rng):
    """Rayleigh-faded channels, shape d.shape + (N,), with log-distance path
    loss; d in meters. Per distance (C order) it draws N real then N imaginary
    parts: the same stream as one call per distance."""
    d = np.asarray(d, dtype=np.float64)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    amp = np.sqrt(10.0 ** (-path_loss_db(d) / 10.0))
    g = rng.standard_normal(d.shape + (2, n_antennas))
    z = (g[..., 0, :] + 1j * g[..., 1, :]) / np.sqrt(2.0)
    return amp[..., None] * z


def _channel_matrix(bs_pos, ue_pos, n, rng):
    return channel(np.linalg.norm(bs_pos[:, None] - ue_pos[None], axis=-1), n, rng)


def _rng_from(cfg, seed):
    if seed is None:
        seed = cfg.seed
    return np.random.default_rng(seed)


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


def _build_served(kind, cfg, seed):
    """M BSs and K UEs; UE j lies in the serving annulus of BS j mod M."""
    m, k = cfg.n_tx, cfg.n_rx
    rng = _rng_from(cfg, seed)
    serving = np.arange(k) % m
    bs, ue = sample_geometry(cfg, rng, m, k, anchor_bs=serving)
    inst = ScenarioInstance(kind, _channel_matrix(bs, ue, cfg.n_antennas, rng),
                            np.full(m, dbm_to_watts(cfg.budget_dbm)),
                            np.full(k, dbm_to_watts(cfg.noise_dbm)), serving,
                            bs_pos=bs, ue_pos=ue)
    return inst, graph_of(inst)


def build_ic_instance(cfg, seed=None):
    """K BS-UE pairs; BS k serves UE k. Returns (instance, graph_of(instance))."""
    if cfg.n_tx != cfg.n_rx:
        raise ValueError(f"pairs scenario needs n_tx == n_rx, got {cfg.n_tx} != {cfg.n_rx}")
    return _build_served(IC, cfg, seed)


def zero_forcing(h_cell):
    """Unit-norm zero-forcing beams for one cell's (N, Q) channel matrix."""
    h_cell = np.asarray(h_cell, dtype=np.complex128)
    n, q = h_cell.shape
    if n < q:
        raise ValueError(f"zero-forcing needs at least as many antennas as UEs ({n} < {q})")
    if np.linalg.cond(h_cell) > 1e12:
        raise NumericalError("cell channel matrix is numerically rank deficient")
    w = h_cell @ np.linalg.inv(h_cell.conj().T @ h_cell)
    return w / np.linalg.norm(w, axis=0, keepdims=True)


def build_ibc_instance(cfg, seed=None):
    """B cells x Q UEs with per-cell zero-forcing; returns (instance, graph).

    Each of the K = B*Q equivalent TX entities carries one UE's beam, and
    gains[m, k] = |h_{cell(m), k}^H w_m| is its equivalent channel gain.
    """
    b_cells, q, n = cfg.n_tx, cfg.n_rx, cfg.n_antennas
    if n < q:
        raise ValueError(f"zero-forcing infeasible: {n} antennas for {q} UEs per cell")
    rng = _rng_from(cfg, seed)
    k = b_cells * q
    rx_cell = np.repeat(np.arange(b_cells), q)
    bs, ue = sample_geometry(cfg, rng, b_cells, k, anchor_bs=rx_cell)
    h_phys = _channel_matrix(bs, ue, n, rng)  # (B, K, N)

    zf = np.stack([zero_forcing(h_phys[b, rx_cell == b].T) for b in range(b_cells)])

    tx_cell = rx_cell.copy()          # TX entity m = (cell, beam slot) like UE k
    channels = h_phys[tx_cell]        # (K, K, N): channel from BS of entity m to UE k
    beams = zf[tx_cell, :, np.arange(k) % q]  # (K, N): beam of entity m
    gains = np.abs(np.einsum("mkn,mn->mk", channels.conj(), beams))

    budgets = np.full(b_cells, dbm_to_watts(cfg.budget_dbm))
    noise = np.full(k, dbm_to_watts(cfg.noise_dbm))
    inst = ScenarioInstance(IBC, channels, budgets, noise, serving=np.arange(k),
                            tx_cell=tx_cell, rx_cell=rx_cell, gains=gains, zf_beams=zf,
                            bs_pos=bs, ue_pos=ue)
    return inst, graph_of(inst)


def build_coop_instance(cfg, seed=None):
    """M BSs cooperatively serving K UEs; returns (instance, graph).

    Every BS serves every UE; `serving` (BS j mod M for UE j) only anchors
    UE placement, since the generator needs *some* BS per UE to apply the
    serving-distance rule.
    """
    return _build_served(COOP, cfg, seed)


def permute_instance(inst, p):
    """Relabel TX entities and UEs of an instance consistently with a graph
    permutation; cell identities and per-cell quantities are untouched."""
    tx, rx, both = p.pi_tx, p.pi_rx, (p.pi_tx, p.pi_rx)
    per_bs = inst.kind != IBC  # ibc budgets and BS positions belong to cells
    return ScenarioInstance(
        inst.kind, _relabel(inst.channels, *both),
        _relabel(inst.budgets, tx) if per_bs else inst.budgets,
        _relabel(inst.noise, rx), _relabel(tx[inst.serving], rx),
        tx_cell=_relabel(inst.tx_cell, tx), rx_cell=_relabel(inst.rx_cell, rx),
        gains=_relabel(inst.gains, *both), zf_beams=inst.zf_beams,
        bs_pos=_relabel(inst.bs_pos, tx) if per_bs else inst.bs_pos,
        ue_pos=_relabel(inst.ue_pos, rx))


_BUILDERS = {IC: build_ic_instance, IBC: build_ibc_instance, COOP: build_coop_instance}


def build_instance(kind, cfg, seed=None):
    if kind not in _BUILDERS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    return _BUILDERS[kind](cfg, seed)


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


# ---------------------------------------------------------------------------
# dataset files


def write_dataset(path, kind, cfg, n_samples, seed=None):
    """Generate n_samples (instance, graph) pairs and store the graphs."""
    base = cfg.seed if seed is None else seed
    arrays = {}
    for i in range(n_samples):
        _, graph = build_instance(kind, cfg, sample_seed(base, i))
        arrays.update(container.graph_to_arrays(graph, prefix=f"s{i}."))
    meta = {"kind": "dataset", "scenario": kind, "n_samples": n_samples,
            "seed": base, "geometry": cfg.to_dict()}
    container.write_bundle(path, meta, arrays)


def read_dataset(path):
    """Returns (meta, list of HetGraph)."""
    meta, arrays = container.read_bundle(path)
    if meta.get("kind") != "dataset":
        raise ValueError("file is not a dataset container")
    graphs = [container.graph_from_arrays(arrays, prefix=f"s{i}.")
              for i in range(meta["n_samples"])]
    return meta, graphs
