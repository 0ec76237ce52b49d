"""The edge-node GNN: a preprocessing layer, L synchronous updating layers
with TX-, RX-, and edge-update mechanisms, and an affine head on the edges.

All updates in layer l read only layer l-1 representations. The head reads
only edges, so the last layer has only its edge update (mlp5..mlp7). Every
graph is complete bipartite, so a node's neighbors are all nodes of the other
kind, and a node's rows reach its edges by broadcasting, with no copy per
edge. Aggregations are element-wise max; the edge update aggregates both
transformed neighbor families jointly. Every representation has the one hidden
width h, so each layer MLP maps 2h -> h -> h -> h. Parameter shapes are
independent of the graph size.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import container
from . import numkernel as nk
from .chansim import COOP, IBC, KINDS, instance_feature_widths

CHECKPOINT_VERSION = 5   # 4 stored unread mlp1..4, 3 the head, 2 the aggregator, 1 the widths


class ConfigError(ValueError):
    """Raised when a configuration is inconsistent with itself or a graph."""


@dataclass
class ENGNNConfig:
    """The network a caller chooses: the scenario `kind`, its antenna count N,
    the hidden width h and the depth.

    The rest follows from these: the graph widths are
    `chansim.instance_feature_widths(kind, N)`, and the edge head maps h to
    2N reals (a complex beam) or, for ibc powers, to 1. input_scale_* are fixed
    constants folded into the preprocessing affine maps so raw physical
    features arrive at trainable scale.
    """

    kind: str
    n_antennas: int
    hidden: int = 8
    layers: int = 1
    input_scale_tx: float = 1.0
    input_scale_rx: float = 1.0
    input_scale_e: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        # Python numbers only: the checkpoint's JSON metadata takes no numpy
        # integer or float32
        for name in ("n_antennas", "hidden", "layers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("input_scale_tx", "input_scale_rx", "input_scale_e"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite real number, got {value!r}")


@dataclass
class ENGNNParams:
    """The tensors `forward` reads, all trainable, keyed for checkpointing.

    pre_*: one affine map per feature family; layers[l][mlp name]: list of
    (w, b) tensor pairs (the last layer has mlp5..mlp7 only); post: the head.
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
    the three input maps, then mlp1..mlp7 (2h -> h -> h -> h) per layer but the
    last, then the last layer's mlp5..mlp7, then the head. The one place that
    knows the parameter layout: the last layer runs only its edge update, so
    it has no node-update MLPs."""
    h = cfg.hidden
    pre_tx, pre_rx, pre_e = [affine(h, d)
                             for d in instance_feature_widths(cfg.kind, cfg.n_antennas)]
    layers = [{f"mlp{i}": [affine(h, d_in) for d_in in (2 * h, h, h)]
               for i in range(5 if li == cfg.layers - 1 else 1, 8)} for li in range(cfg.layers)]
    post = affine(1 if cfg.kind == IBC else 2 * cfg.n_antennas, h)
    return ENGNNParams(pre_tx, pre_rx, pre_e, layers, post)


def init_params(cfg, seed=0):
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] initialization per affine map."""
    rng = np.random.default_rng(seed)
    return _build_params(cfg, lambda d_out, d_in: _init_affine(rng, d_out, d_in))


# ---------------------------------------------------------------------------
# forward pass


def preprocess(graph, cfg, params):
    """Shared affine + ReLU per family, after scaling each by its input scale."""
    widths = instance_feature_widths(cfg.kind, cfg.n_antennas)
    if graph.widths != widths:
        raise ConfigError(f"graph widths {graph.widths} do not match config {widths}")
    f_tx = nk.relu(nk.linear(nk.constant(graph.f_tx * cfg.input_scale_tx), *params.pre_tx))
    f_rx = nk.relu(nk.linear(nk.constant(graph.f_rx * cfg.input_scale_rx), *params.pre_rx))
    e0 = nk.relu(nk.linear(nk.constant(graph.e * cfg.input_scale_e), *params.pre_e))
    return f_tx, f_rx, e0


def _on_edges(f, axis):
    """Node rows (..., X, d) as an edge tensor with a length-1 M (axis=0) or K
    (axis=1) axis: (..., 1, K, d) for RX rows, (..., M, 1, d) for TX rows. A
    reshape, not a copy: `nk.concat` broadcasts the rows over the edges."""
    lead, (n, d) = f.shape[:-2], f.shape[-2:]
    return nk.reshape(f, lead + ((1, n, d) if axis == 0 else (n, 1, d)))


def _node_update(own, other, e, axis, msg_mlp, update_mlp):
    """The node update of both kinds: `msg_mlp` forms messages from the other
    kind's rows and the edges, a max over each node's edges (the M axis for
    axis=0, the K axis for axis=1) aggregates them, `update_mlp` updates."""
    msgs = nk.mlp_forward(nk.concat([_on_edges(other, 1 - axis), e]), msg_mlp)
    return nk.mlp_forward(nk.concat([own, nk.max_agg_axis(msgs, axis)]), update_mlp)


def tx_update(layer, f_tx, f_rx, e):
    """New TX representations from layer l-1 RX and edge representations:
    mlp1 forms the RX+edge messages, mlp2 the update."""
    return _node_update(f_tx, f_rx, e, 1, layer["mlp1"], layer["mlp2"])


def rx_update(layer, f_tx, f_rx, e):
    """Mirror of tx_update with the node roles reversed (mlp3, mlp4)."""
    return _node_update(f_rx, f_tx, e, 0, layer["mlp3"], layer["mlp4"])


def edge_update(layer, f_tx, f_rx, e):
    """New edge fibers from both neighbor families, aggregated jointly: mlp5
    transforms the same-TX family, mlp6 the same-RX family, mlp7 updates."""
    t_row = nk.mlp_forward(nk.concat([e, _on_edges(f_tx, 1)]), layer["mlp5"])
    t_col = nk.mlp_forward(nk.concat([e, _on_edges(f_rx, 0)]), layer["mlp6"])
    agg = nk.pair_excl_agg(t_row, t_col)
    return nk.mlp_forward(nk.concat([e, agg]), layer["mlp7"])


def forward(graph, cfg, params):
    """Full pass: preprocess, L synchronous updating layers, affine edge head;
    returns the head's (..., M, K, out) tensor.

    Only edges reach the head, so the last layer runs only its edge update.
    A graph with a leading batch axis runs as one pass; the output then
    carries that axis too.
    """
    f_tx, f_rx, e = preprocess(graph, cfg, params)
    *hidden, last = params.layers
    for layer in hidden:
        f_tx, f_rx, e = (tx_update(layer, f_tx, f_rx, e), rx_update(layer, f_tx, f_rx, e),
                         edge_update(layer, f_tx, f_rx, e))
    return nk.linear(edge_update(last, f_tx, f_rx, e), *params.post)


def extract_variables(xi, instance, cfg):
    """The scenario-shaped variables in the edge head's output `xi`: every
    link's for coop, each UE's serving link's for the pair scenarios."""
    if instance.kind != cfg.kind:
        raise ConfigError(f"a {cfg.kind} network cannot serve a {instance.kind} instance")
    return xi if cfg.kind == COOP else xi[..., instance.serving, np.arange(instance.n_ue), :]


def config_for_scenario(kind, n_antennas, hidden=8, layers=1, **scales):
    """The network for `kind` at N antennas: beams are complex length-N, powers
    real scalars."""
    return ENGNNConfig(kind, n_antennas, hidden, layers, **scales)


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
