"""The edge-node GNN: a preprocessing layer, L synchronous updating layers
with TX-, RX-, and edge-update mechanisms, and an affine postprocessing head.

All updates in layer l read only layer l-1 representations. Aggregations are
masked element-wise max; the edge update aggregates both transformed neighbor
families jointly. Every representation has the one hidden width h, so each of
the seven layer MLPs maps 2h -> h -> h -> h. Parameter shapes are independent
of the graph size.
"""

import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import container
from . import numkernel as nk
from .chansim import COOP, IBC, KINDS, instance_feature_widths

HEADS = ("edge", "tx_node", "rx_node")

CHECKPOINT_VERSION = 3   # 2 stored the aggregator too, 1 the derived widths


class ConfigError(ValueError):
    """Raised when a configuration is inconsistent with itself or a graph."""


@dataclass
class ENGNNConfig:
    """The network a caller chooses: the scenario `kind`, its antenna count N,
    the hidden width h, the depth and the head.

    The rest follows from these: the graph widths are
    `chansim.instance_feature_widths(kind, N)`, and the head maps h to 2N
    reals (a complex beam) or, for ibc powers, to 1. input_scale_* are fixed
    constants folded into the preprocessing affine maps so raw physical
    features arrive at trainable scale.
    """

    kind: str
    n_antennas: int
    hidden: int = 8
    layers: int = 1
    output_head: str = "edge"
    input_scale_tx: float = 1.0
    input_scale_rx: float = 1.0
    input_scale_e: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        for name in ("n_antennas", "hidden", "layers"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
                    or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("input_scale_tx", "input_scale_rx", "input_scale_e"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool) \
                    or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite real number, got {value!r}")
        if self.output_head not in HEADS:
            raise ConfigError(f"output_head must be one of {HEADS}")
        if self.kind == COOP and self.output_head != "edge":
            raise ConfigError("cooperative variables live on edges; use the edge head")


@dataclass
class ENGNNParams:
    """All trainable tensors, keyed for checkpointing.

    pre_*: one affine map per feature family; layers[l][mlp name]: list of
    (w, b) tensor pairs; post: the affine head map.
    """

    pre_tx: tuple
    pre_rx: tuple
    pre_e: tuple
    layers: list
    post: tuple

    def named_tensors(self):
        pairs = [("pre_tx", self.pre_tx), ("pre_rx", self.pre_rx), ("pre_e", self.pre_e)]
        pairs += [(f"layers.{li}.{name}.{j}", wb) for li, layer in enumerate(self.layers)
                  for name in sorted(layer) for j, wb in enumerate(layer[name])]
        pairs.append(("post", self.post))
        return [(f"{name}.{part}", t) for name, wb in pairs for part, t in zip("wb", wb)]

    def tensors(self):
        return [t for _, t in self.named_tensors()]


def _init_affine(rng, d_out, d_in):
    bound = 1.0 / np.sqrt(d_in)
    w = nk.Tensor(rng.uniform(-bound, bound, size=(d_out, d_in)), requires_grad=True)
    b = nk.Tensor(rng.uniform(-bound, bound, size=d_out), requires_grad=True)
    return w, b


def _build_params(cfg, affine):
    """ENGNNParams with each affine map from `affine(d_out, d_in)`, in order:
    the three input maps, then per layer mlp1..mlp7 (2h -> h -> h -> h), then
    the head. The one place that knows the parameter layout."""
    h = cfg.hidden
    pre_tx, pre_rx, pre_e = [affine(h, d)
                             for d in instance_feature_widths(cfg.kind, cfg.n_antennas)]
    layers = [{f"mlp{i}": [affine(h, d_in) for d_in in (2 * h, h, h)]
               for i in range(1, 8)} for _ in range(cfg.layers)]
    post = affine(1 if cfg.kind == IBC else 2 * cfg.n_antennas, h)
    return ENGNNParams(pre_tx, pre_rx, pre_e, layers, post)


def init_params(cfg, seed=0):
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] initialization per affine map."""
    rng = np.random.default_rng(seed)
    return _build_params(cfg, lambda d_out, d_in: _init_affine(rng, d_out, d_in))


# ---------------------------------------------------------------------------
# forward pass


def preprocess(graph, cfg, params):
    """Shared affine + ReLU per family; absent-edge fibers stay zero-masked."""
    widths = instance_feature_widths(cfg.kind, cfg.n_antennas)
    if graph.widths != widths:
        raise ConfigError(f"graph widths {graph.widths} do not match config {widths}")
    mask_f = nk.constant(graph.edge_mask[..., None].astype(np.float64))
    f_tx = nk.relu(nk.linear(nk.constant(graph.f_tx * cfg.input_scale_tx), *params.pre_tx))
    f_rx = nk.relu(nk.linear(nk.constant(graph.f_rx * cfg.input_scale_rx), *params.pre_rx))
    e0 = nk.relu(nk.linear(nk.constant(graph.e * cfg.input_scale_e), *params.pre_e)) * mask_f
    return f_tx, f_rx, e0


def _on_edges(f, axis, n):
    """Node rows (..., X, d) copied onto every edge: a new axis of length n at
    `axis` of the (..., M, K, d) result (-2 for TX rows, -3 for RX rows)."""
    f = nk.reshape(f, np.expand_dims(f.data, axis).shape)
    shape = list(f.shape)
    shape[axis] = n
    return nk.broadcast_to(f, tuple(shape))


def tx_update(layer, f_tx, f_rx, e, mask):
    """New TX representations from layer l-1 RX and edge representations:
    mlp1 forms the RX+edge messages, mlp2 the update."""
    rx_b = _on_edges(f_rx, -3, mask.shape[-2])
    msgs = nk.mlp_forward(nk.concat([rx_b, e], axis=-1), layer["mlp1"])
    agg = nk.masked_agg_axis(msgs, mask, axis=1)
    return nk.mlp_forward(nk.concat([f_tx, agg], axis=-1), layer["mlp2"])


def rx_update(layer, f_tx, f_rx, e, mask):
    """Mirror of tx_update with the node roles reversed (mlp3, mlp4)."""
    tx_b = _on_edges(f_tx, -2, mask.shape[-1])
    msgs = nk.mlp_forward(nk.concat([tx_b, e], axis=-1), layer["mlp3"])
    agg = nk.masked_agg_axis(msgs, mask, axis=0)
    return nk.mlp_forward(nk.concat([f_rx, agg], axis=-1), layer["mlp4"])


def edge_update(layer, f_tx, f_rx, e, mask):
    """New edge fibers from both neighbor families, aggregated jointly: mlp5
    transforms the same-TX family, mlp6 the same-RX family, mlp7 updates."""
    tx_b = _on_edges(f_tx, -2, mask.shape[-1])
    rx_b = _on_edges(f_rx, -3, mask.shape[-2])
    t_row = nk.mlp_forward(nk.concat([e, tx_b], axis=-1), layer["mlp5"])
    t_col = nk.mlp_forward(nk.concat([e, rx_b], axis=-1), layer["mlp6"])
    agg = nk.pair_excl_agg(t_row, t_col, mask)
    mask_f = nk.constant(mask[..., None].astype(np.float64))
    return nk.mlp_forward(nk.concat([e, agg], axis=-1), layer["mlp7"]) * mask_f


@dataclass
class RawOutputs:
    """Pre-normalization head outputs; inactive heads are None."""

    s_tx: object = None
    s_rx: object = None
    xi: object = None


def forward(graph, cfg, params):
    """Full pass: preprocess, L synchronous updating layers, affine head.

    A graph with a leading batch axis runs as one pass; every output then
    carries that axis too.
    """
    mask = graph.edge_mask
    f_tx, f_rx, e = preprocess(graph, cfg, params)
    for layer in params.layers:
        new_tx = tx_update(layer, f_tx, f_rx, e, mask)
        new_rx = rx_update(layer, f_tx, f_rx, e, mask)
        new_e = edge_update(layer, f_tx, f_rx, e, mask)
        f_tx, f_rx, e = new_tx, new_rx, new_e
    w, b = params.post
    if cfg.output_head == "edge":
        mask_f = nk.constant(mask[..., None].astype(np.float64))
        return RawOutputs(xi=nk.linear(e, w, b) * mask_f)
    if cfg.output_head == "tx_node":
        return RawOutputs(s_tx=nk.linear(f_tx, w, b))
    return RawOutputs(s_rx=nk.linear(f_rx, w, b))


def extract_variables(raw, instance, cfg):
    """Pull the scenario-shaped variable tensor out of the active head.

    Cooperative variables are the whole edge head. For pair scenarios the edge
    head reads the serving-link fibers; node heads read the serving TX row
    (tx_node) or the UE row (rx_node).
    """
    if instance.kind != cfg.kind:
        raise ConfigError(f"a {cfg.kind} network cannot serve a {instance.kind} instance")
    if cfg.output_head == "edge":
        return raw.xi if cfg.kind == COOP else \
            raw.xi[..., instance.serving, np.arange(instance.n_ue), :]
    if cfg.output_head == "tx_node":
        return raw.s_tx[..., instance.serving, :]
    return raw.s_rx


def config_for_scenario(kind, n_antennas, hidden=8, layers=1, output_head="edge", **scales):
    """The network for `kind` at N antennas: beams are complex length-N, powers
    real scalars."""
    return ENGNNConfig(kind, n_antennas, hidden, layers, output_head, **scales)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, cfg, params, extra_meta=None):
    meta = {"checkpoint_version": CHECKPOINT_VERSION, "config": asdict(cfg)}
    if extra_meta:
        meta.update(extra_meta)
    container.write_bundle(path, meta, {name: t.data for name, t in params.named_tensors()})


def load_checkpoint(path):
    """Returns (config, params, meta). Anything but a current checkpoint whose
    config holds exactly the ENGNNConfig fields and whose tensors are exactly
    the ones that config defines, in shape, raises ValueError naming the path."""
    meta, arrays = container.read_bundle(path)
    version = meta.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version} not supported (expected "
                         f"{CHECKPOINT_VERSION}); retrain to write a current one")
    stored = meta.get("config")
    names = {f.name for f in fields(ENGNNConfig)}
    if not isinstance(stored, dict) or set(stored) != names:
        raise ValueError(f"{path}: checkpoint config {stored!r} does not hold exactly the "
                         f"fields {sorted(names)}")
    try:
        cfg = ENGNNConfig(**stored)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad checkpoint config: {exc}") from exc
    params = _build_params(cfg, lambda d_out, d_in: (
        nk.Tensor(np.empty((d_out, d_in)), requires_grad=True),
        nk.Tensor(np.empty(d_out), requires_grad=True)))
    named = dict(params.named_tensors())
    if set(arrays) != set(named):
        raise ValueError(f"{path}: checkpoint lacks tensors {sorted(set(named) - set(arrays))} "
                         f"and holds undefined ones {sorted(set(arrays) - set(named))}")
    for name, t in named.items():
        if arrays[name].shape != t.data.shape:
            raise ValueError(f"{path}: checkpoint tensor {name!r} has shape "
                             f"{arrays[name].shape}, config implies {t.data.shape}")
        t.data = arrays[name]  # read_bundle's arrays are fresh float64 copies
    return cfg, params, meta
