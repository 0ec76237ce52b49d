"""The edge-node GNN: a preprocessing layer, L synchronous updating layers
with TX-, RX-, and edge-update mechanisms, and an affine postprocessing head.

All updates in layer l read only layer l-1 representations. Aggregations are
masked element-wise max by default (mean available); the edge update
aggregates both transformed neighbor families jointly, so both family
transforms map to the edge width hidden_e. Parameter shapes are independent
of the graph size.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import container
from . import numkernel as nk
from .chansim import COOP, IBC, IC

HEADS = ("edge", "tx_node", "rx_node")
AGGREGATORS = ("max", "mean")

CHECKPOINT_VERSION = 1


class ConfigError(ValueError):
    """Raised when a configuration is inconsistent with itself or a graph."""


@dataclass
class ENGNNConfig:
    """Widths and switches of the network; independent of M and K.

    in_* are the stored real feature widths of the graph (complex features
    count twice). out_width is the variable width of the active head, in
    complex dimensions when complex_output is set. input_scale_* are fixed
    constants folded into the preprocessing affine maps so raw physical
    features arrive at trainable scale.
    """

    in_tx: int
    in_rx: int
    in_e: int
    hidden_tx: int = 8
    hidden_rx: int = 8
    hidden_e: int = 8
    out_width: int = 1
    layers: int = 1
    complex_output: bool = True
    output_head: str = "edge"
    aggregator: str = "max"
    input_scale_tx: float = 1.0
    input_scale_rx: float = 1.0
    input_scale_e: float = 1.0

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigError("need at least one updating layer")
        for name in ("in_tx", "in_rx", "in_e", "hidden_tx", "hidden_rx", "hidden_e",
                     "out_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.output_head not in HEADS:
            raise ConfigError(f"output_head must be one of {HEADS}")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError(f"aggregator must be one of {AGGREGATORS}")

    @property
    def head_out(self):
        """Real width of the postprocessing affine output."""
        return 2 * self.out_width if self.complex_output else self.out_width

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def _mlp_dims(d_in, d_out):
    """Three affine layers; hidden width equals the output width."""
    return [(d_out, d_in), (d_out, d_out), (d_out, d_out)]


def _layer_mlp_specs(cfg):
    dt, dr, de = cfg.hidden_tx, cfg.hidden_rx, cfg.hidden_e
    return {
        "mlp1": _mlp_dims(dr + de, dt),   # RX+edge message feeding the TX update
        "mlp2": _mlp_dims(dt + dt, dt),
        "mlp3": _mlp_dims(dt + de, dr),   # TX+edge message feeding the RX update
        "mlp4": _mlp_dims(dr + dr, dr),
        "mlp5": _mlp_dims(de + dt, de),   # same-TX edge family
        "mlp6": _mlp_dims(de + dr, de),   # same-RX edge family
        "mlp7": _mlp_dims(de + de, de),
    }


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
        out = []
        for name, (w, b) in (("pre_tx", self.pre_tx), ("pre_rx", self.pre_rx),
                             ("pre_e", self.pre_e)):
            out.append((f"{name}.w", w))
            out.append((f"{name}.b", b))
        for li, layer in enumerate(self.layers):
            for mlp_name in sorted(layer):
                for j, (w, b) in enumerate(layer[mlp_name]):
                    out.append((f"layers.{li}.{mlp_name}.{j}.w", w))
                    out.append((f"layers.{li}.{mlp_name}.{j}.b", b))
        out.append(("post.w", self.post[0]))
        out.append(("post.b", self.post[1]))
        return out

    def tensors(self):
        return [t for _, t in self.named_tensors()]


def _init_affine(rng, d_out, d_in):
    bound = 1.0 / np.sqrt(d_in)
    w = nk.Tensor(rng.uniform(-bound, bound, size=(d_out, d_in)), requires_grad=True)
    b = nk.Tensor(rng.uniform(-bound, bound, size=d_out), requires_grad=True)
    return w, b


def init_params(cfg, seed=0):
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] initialization per layer."""
    rng = np.random.default_rng(seed)
    pre_tx = _init_affine(rng, cfg.hidden_tx, cfg.in_tx)
    pre_rx = _init_affine(rng, cfg.hidden_rx, cfg.in_rx)
    pre_e = _init_affine(rng, cfg.hidden_e, cfg.in_e)
    layers = []
    for _ in range(cfg.layers):
        specs = _layer_mlp_specs(cfg)
        layers.append({name: [_init_affine(rng, o, i) for o, i in dims]
                       for name, dims in specs.items()})
    head_in = {"edge": cfg.hidden_e, "tx_node": cfg.hidden_tx,
               "rx_node": cfg.hidden_rx}[cfg.output_head]
    post = _init_affine(rng, cfg.head_out, head_in)
    return ENGNNParams(pre_tx, pre_rx, pre_e, layers, post)


# ---------------------------------------------------------------------------
# forward pass


def preprocess(graph, cfg, params):
    """Shared affine + ReLU per family; absent-edge fibers stay zero-masked."""
    if graph.widths != (cfg.in_tx, cfg.in_rx, cfg.in_e):
        raise ConfigError(f"graph widths {graph.widths} do not match config "
                          f"{(cfg.in_tx, cfg.in_rx, cfg.in_e)}")
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


def tx_update(layer, f_tx, f_rx, e, mask, aggregator="max"):
    """New TX representations from layer l-1 RX and edge representations."""
    rx_b = _on_edges(f_rx, -3, mask.shape[-2])
    msgs = nk.mlp_forward(nk.concat([rx_b, e], axis=-1), layer["mlp1"])
    agg = nk.masked_agg_axis(msgs, mask, axis=1, kind=aggregator)
    return nk.mlp_forward(nk.concat([f_tx, agg], axis=-1), layer["mlp2"])


def rx_update(layer, f_tx, f_rx, e, mask, aggregator="max"):
    """Mirror of tx_update with the node roles reversed."""
    tx_b = _on_edges(f_tx, -2, mask.shape[-1])
    msgs = nk.mlp_forward(nk.concat([tx_b, e], axis=-1), layer["mlp3"])
    agg = nk.masked_agg_axis(msgs, mask, axis=0, kind=aggregator)
    return nk.mlp_forward(nk.concat([f_rx, agg], axis=-1), layer["mlp4"])


def edge_update(layer, f_tx, f_rx, e, mask, aggregator="max"):
    """New edge fibers from both neighbor families, aggregated jointly."""
    tx_b = _on_edges(f_tx, -2, mask.shape[-1])
    rx_b = _on_edges(f_rx, -3, mask.shape[-2])
    t_row = nk.mlp_forward(nk.concat([e, tx_b], axis=-1), layer["mlp5"])
    t_col = nk.mlp_forward(nk.concat([e, rx_b], axis=-1), layer["mlp6"])
    agg = nk.pair_excl_agg(t_row, t_col, mask, kind=aggregator)
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
        new_tx = tx_update(layer, f_tx, f_rx, e, mask, cfg.aggregator)
        new_rx = rx_update(layer, f_tx, f_rx, e, mask, cfg.aggregator)
        new_e = edge_update(layer, f_tx, f_rx, e, mask, cfg.aggregator)
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

    For pair scenarios the edge head reads the serving-link fibers; node heads
    read the serving TX row (tx_node) or the UE row (rx_node). The cooperative
    scenario requires the edge head since its variables live on all pairs.
    """
    k = instance.n_ue
    if instance.kind in (IC, IBC):
        if cfg.output_head == "edge":
            return raw.xi[..., instance.serving, np.arange(k), :]
        if cfg.output_head == "tx_node":
            return raw.s_tx[..., instance.serving, :]
        return raw.s_rx
    if instance.kind == COOP:
        if cfg.output_head != "edge":
            raise ConfigError("cooperative variables live on edges; use the edge head")
        return raw.xi
    raise ValueError(f"unknown scenario kind {instance.kind!r}")


def config_for_scenario(kind, n_antennas, hidden=8, layers=1, output_head="edge",
                        aggregator="max", **scales):
    """Scenario-appropriate widths: beams are complex length-N, powers real scalars."""
    from .chansim import instance_feature_widths

    d_tx, d_rx, d_e = instance_feature_widths(kind, n_antennas)
    if kind == IBC:
        out_width, complex_output = 1, False
    else:
        out_width, complex_output = n_antennas, True
    return ENGNNConfig(in_tx=d_tx, in_rx=d_rx, in_e=d_e, hidden_tx=hidden,
                       hidden_rx=hidden, hidden_e=hidden, out_width=out_width,
                       layers=layers, complex_output=complex_output,
                       output_head=output_head, aggregator=aggregator, **scales)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, cfg, params, extra_meta=None):
    meta = {"kind": "checkpoint", "checkpoint_version": CHECKPOINT_VERSION,
            "config": cfg.to_dict()}
    if extra_meta:
        meta.update(extra_meta)
    container.write_bundle(path, meta, {name: t.data for name, t in params.named_tensors()})


def load_checkpoint(path):
    """Returns (config, params, meta); shapes are validated against the config."""
    meta, arrays = container.read_bundle(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError("file is not a checkpoint container")
    if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {meta.get('checkpoint_version')} not supported "
                         f"(expected {CHECKPOINT_VERSION})")
    cfg = ENGNNConfig.from_dict(meta["config"])
    params = init_params(cfg, seed=0)
    for name, t in params.named_tensors():
        if name not in arrays:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
        if arrays[name].shape != t.data.shape:
            raise ValueError(f"checkpoint tensor {name!r} has shape {arrays[name].shape}, "
                             f"config implies {t.data.shape}")
        t.data[...] = arrays[name]
    return cfg, params, meta
