"""Unsupervised training loop, evaluation, generalization sweeps, config
files, and metrics export.

Training draws every minibatch as one fresh stack of random instances
(`chansim.sample_instances`), pushes the stack through one forward -> head
extraction -> feasibility projection -> sum rate, and ascends the batch mean
with RMSProp after one backward. Evaluation, sweeps and baseline runs share
one seeded set (`_seeded_set`: instance i from sample_seed(seed, i)), drawn
one chunk of at most _CHUNK_EDGES edges per `sample_instances` call and
handed out one instance at a time, and `solve_set` is the one baseline loop
over it. Everything is deterministic given (config, seed).
"""

import csv
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import baselines, chansim, engnn, numkernel as nk, objectives
from .chansim import GeometryConfig, NumericalError
from .engnn import ConfigError

METRICS_HEADER = ["run_id", "epoch", "mean_sum_rate", "residual_max", "wall_seconds",
                  "samples_per_s"]
SAMPLES_HEADER = ["sample", "sum_rate", "residual", "infer_seconds"]

SWEEP_AXES = ("n_pairs", "n_ues", "n_bss", "noise_dbm", "field_size", "budget_dbm",
              "n_train_samples")
_COUNT_AXES = ("n_pairs", "n_ues", "n_bss", "n_train_samples")
_N_PROBE = 8   # instances in the batch that calibrates the input scalings
_CHUNK_EDGES = 2048   # edges per drawn chunk of the seeded set: bounds its memory


@dataclass
class TrainConfig:
    """Desk-scale defaults; heavier production settings remain reachable via file."""

    scenario: str = "ic"
    geometry: GeometryConfig = field(default_factory=lambda: GeometryConfig())
    epochs: int = 100
    minibatches: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    checkpoint_path: str = "checkpoint.bin"
    hidden: int = 8
    layers: int = 1

    def __post_init__(self):
        if self.scenario not in chansim.KINDS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        # Python ints only: the checkpoint's JSON metadata takes no numpy integer
        for name, least in (("epochs", 0), ("minibatches", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class MetricsRow:
    run_id: str
    epoch: int
    mean_sum_rate: float
    residual_max: float
    wall_seconds: float
    samples_per_s: float      # train: the epoch's samples over its own wall time;
                              # evaluate: instances over wall time

    def __post_init__(self):
        if self.residual_max < 0:
            raise ValueError("constraint residual cannot be negative")


def batch_seed(base_seed, epoch, minibatch, index):
    return [int(base_seed), int(epoch), int(minibatch), int(index)]


def _calibrate_scales(scenario, geometry, seed):
    """Fixed per-family input scalings from a probe batch's RMS statistics.

    Folding these constants into the preprocessing affine maps keeps raw
    physical magnitudes (channel entries around 1e-6, noise standard
    deviations around 1e-7) from starving the first layer; they are frozen
    into the config and ride along in checkpoints.
    """
    g = chansim.graph_of(chansim.sample_instances(
        scenario, geometry, [chansim.sample_seed(seed, i) for i in range(_N_PROBE)]))
    scales = []
    for arr in (g.f_tx, g.f_rx, g.e):
        # summed per probe, in probe order, as one probe at a time would
        rms = np.sqrt(sum(float((a ** 2).sum()) for a in arr) / arr.size)
        scales.append(1.0 / rms if rms > 0 else 1.0)
    return tuple(scales)


def train(cfg, log=None):
    """Run the unsupervised loop; returns (params, net config, metrics rows).

    A checkpoint lands at cfg.checkpoint_path before the first epoch (the
    initialization) and after every epoch; its "epoch" is the number of
    epochs completed, and its "train" is cfg without checkpoint_path, so a
    run writes the same bytes wherever it writes them. Every tensor of the
    net reaches the loss, so RMSProp steps each with its minibatch gradient.
    """
    s_tx, s_rx, s_e = _calibrate_scales(cfg.scenario, cfg.geometry, cfg.seed)
    net = engnn.config_for_scenario(cfg.scenario, cfg.geometry.n_antennas,
                                    hidden=cfg.hidden, layers=cfg.layers,
                                    input_scale_tx=s_tx, input_scale_rx=s_rx,
                                    input_scale_e=s_e)
    params = engnn.init_params(net, seed=cfg.seed)
    tensors = params.tensors()
    state = nk.RMSPropState(cfg.learning_rate)
    rows = []
    run_id = f"{cfg.scenario}-seed{cfg.seed}"
    train_meta = asdict(cfg)
    del train_meta["checkpoint_path"]
    engnn.save_checkpoint(cfg.checkpoint_path, net, params,
                          extra_meta={"train": train_meta, "epoch": 0})
    t_start = time.perf_counter()
    for epoch in range(cfg.epochs):
        t_epoch = time.perf_counter()
        epoch_rates = []
        epoch_residual = 0.0
        for mb in range(cfg.minibatches):
            seeds = [batch_seed(cfg.seed, epoch, mb, i) for i in range(cfg.batch_size)]
            inst = chansim.sample_instances(cfg.scenario, cfg.geometry, seeds)
            xi = engnn.forward(chansim.graph_of(inst), net, params)
            variables = objectives.normalize(engnn.extract_variables(xi, inst, net), inst)
            report = objectives.evaluate(inst, variables)
            rates = report.sum_rate                                     # (B,)
            bad = ~np.isfinite(rates.data)
            if bad.any():
                raise NumericalError(
                    f"non-finite training loss in epoch {epoch} minibatch {mb}; "
                    f"reproduce with sample seed {seeds[int(np.argmax(bad))]}")
            epoch_residual = max(epoch_residual, report.residual)
            batch_mean = nk.tsum(rates) * (1.0 / cfg.batch_size)
            nk.backward(batch_mean)
            nk.rmsprop_step(tensors, [t.grad for t in tensors], state)
            epoch_rates.append(float(batch_mean.data))
        t_now = time.perf_counter()
        row = MetricsRow(run_id, epoch, float(np.mean(epoch_rates)), epoch_residual,
                         t_now - t_start,
                         cfg.minibatches * cfg.batch_size / (t_now - t_epoch))
        rows.append(row)
        if log:
            log(f"epoch {epoch}: train mean sum rate {row.mean_sum_rate:.4f} "
                f"(residual {row.residual_max:.2e}, {row.samples_per_s:.0f} samples/s)")
        engnn.save_checkpoint(cfg.checkpoint_path, net, params,
                              extra_meta={"train": train_meta, "epoch": epoch + 1})
    return params, net, rows


def _seeded_set(scenario, geometry, n_samples, seed):
    """The seeded set: (sample seed, instance, graph) for sample i, built from
    sample_seed(seed, i) alone. Seeds are drawn in chunks, each one
    `sample_instances` stack and one `graph_of`, and the items are
    `stack_element` views of their chunk, so the set is never drawn whole: a
    chunk holds _CHUNK_EDGES // (TX entities x UEs) instances, at least one.
    Raises ConfigError on an empty set."""
    if n_samples < 1:
        raise ConfigError(f"a seeded set needs at least one sample, got {n_samples}")
    edges = geometry.n_tx * geometry.n_rx
    if scenario == chansim.IBC:
        edges *= edges          # one TX entity and one UE per cell-UE pair
    size = max(1, _CHUNK_EDGES // edges)
    for start in range(0, n_samples, size):
        seeds = [chansim.sample_seed(seed, i)
                 for i in range(start, min(start + size, n_samples))]
        stack = chansim.sample_instances(scenario, geometry, seeds)
        graph = chansim.graph_of(stack)
        for i, sample_seed in enumerate(seeds):
            yield (sample_seed, *chansim.stack_element(stack, graph, i))


def _check_net(kind, n_antennas, scenario, geometry):
    """Refuse a net of another scenario or antenna count than the set's."""
    if (kind, n_antennas) != (scenario, geometry.n_antennas):
        raise ConfigError(f"the net is for {kind} with {n_antennas} antennas, but the set "
                          f"is {scenario} with {geometry.n_antennas} antennas")


def evaluate(net, params, scenario, geometry, n_samples, seed, out_csv=None):
    """Deterministic test set; returns (MetricsRow, per-sample row dicts).

    Raises ConfigError before drawing anything if the net is for another
    scenario or antenna count, and NumericalError naming the sample seed on a
    non-finite output.
    """
    _check_net(net.kind, net.n_antennas, scenario, geometry)
    samples = []
    t_start = time.perf_counter()
    for i, (sample_seed, inst, graph) in enumerate(
            _seeded_set(scenario, geometry, n_samples, seed)):
        t0 = time.perf_counter()
        with nk.no_grad():
            xi = engnn.forward(graph, net, params)
            variables = objectives.normalize(engnn.extract_variables(xi, inst, net), inst)
        infer_s = time.perf_counter() - t0
        if not np.all(np.isfinite(variables.data)):
            raise NumericalError(f"non-finite {scenario} output for sample seed "
                                 f"{sample_seed}")
        report = objectives.evaluate(inst, variables)
        samples.append({
            "sample": i,
            "sum_rate": report.sum_rate_value(),
            "residual": report.residual,
            "infer_seconds": infer_s,
        })
    wall = time.perf_counter() - t_start
    row = MetricsRow(f"eval-{scenario}-seed{seed}", 0,
                     float(np.mean([s["sum_rate"] for s in samples])),
                     float(np.max([s["residual"] for s in samples])), wall,
                     n_samples / wall)
    if out_csv is not None:
        write_csv(out_csv, SAMPLES_HEADER, [[s[c] for c in SAMPLES_HEADER]
                                            for s in samples])
    return row, samples


def _check_baseline(scenario, which):
    if which not in ("wmmse", "gp"):
        raise ConfigError(f"unknown baseline {which!r}")
    if which == "gp" and scenario != "coop":
        raise ConfigError("gradient projection baseline applies to the "
                          "cooperative scenario only")


def run_baseline(scenario, instance, which, solver_cfg=None):
    _check_baseline(scenario, which)
    if which == "gp":
        return baselines.gp_coop(instance, solver_cfg)
    if scenario == "ic":
        return baselines.wmmse_ic(instance, solver_cfg)
    if scenario == "ibc":
        return baselines.wmmse_ibc_power(instance, solver_cfg)
    return baselines.wmmse_coop(instance, solver_cfg)


def solve_set(scenario, geometry, n_samples, seed, which):
    """Baseline `which` on each instance of the seeded set; returns (columns,
    per-sample results), columns in the order `{which}_mean_sum_rate`,
    `{which}_unconverged` (runs that stopped unconverged), `{which}_iterations`
    and `{which}_extrapolations` (means; accepted Anderson points, 0 for
    GP). A bad baseline raises ConfigError before any instance is built."""
    _check_baseline(scenario, which)
    results = [run_baseline(scenario, inst, which)
               for _, inst, _ in _seeded_set(scenario, geometry, n_samples, seed)]
    columns = {
        f"{which}_mean_sum_rate": float(np.mean([r.report.sum_rate_value()
                                                 for r in results])),
        f"{which}_unconverged": sum(not r.converged for r in results),
        f"{which}_iterations": float(np.mean([r.iterations for r in results])),
        f"{which}_extrapolations": float(np.mean([r.extrapolations for r in results])),
    }
    return columns, results


def _check_pairs_scenario(scenario):
    if scenario != "ic":
        raise ConfigError("n_pairs applies to the pairs scenario only")


def _apply_axis(geometry, scenario, axis, value):
    """New GeometryConfig with one swept knob changed (n_train_samples retrains
    instead; `sweep` handles it)."""
    if axis == "n_pairs":
        _check_pairs_scenario(scenario)
        return replace(geometry, n_tx=int(value), n_rx=int(value))
    if axis in ("n_ues", "n_bss"):
        if scenario == "ic":
            raise ConfigError("use n_pairs for the pairs scenario")
        knob = "n_rx" if axis == "n_ues" else "n_tx"
        return replace(geometry, **{knob: int(value)})
    if axis in ("noise_dbm", "field_size", "budget_dbm"):
        return replace(geometry, **{axis: float(value)})
    raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(net, params, scenario, geometry, axis, values, n_samples, seed,
          baseline="none", train_cfg=None, out_csv=None, log=None):
    """Evaluate (and for n_train_samples, retrain) across axis values.

    Returns a list of row dicts; the baseline columns are `solve_set`'s on the
    same seeded set. n_train_samples retrains each value into a temporary
    checkpoint, so train_cfg's checkpoint is left alone. Bad arguments,
    including a value whose geometry is invalid, raise before any training or
    evaluation.
    """
    if baseline != "none":
        _check_baseline(scenario, baseline)
    if axis == "n_train_samples" and train_cfg is None:
        raise ConfigError("n_train_samples sweep needs a training config")
    if n_samples < 1:
        raise ConfigError(f"a seeded set needs at least one sample, got {n_samples}")
    if len(values) == 0:
        raise ConfigError("a sweep needs at least one axis value")
    if axis in _COUNT_AXES and not all(float(v).is_integer() and v >= 1 for v in values):
        raise ConfigError(f"{axis} is a count and takes whole numbers >= 1, got {list(values)}")
    geos = [train_cfg.geometry if axis == "n_train_samples"
            else _apply_axis(geometry, scenario, axis, value) for value in values]
    if axis == "n_train_samples":
        _check_net(train_cfg.scenario, train_cfg.geometry.n_antennas, scenario, geos[0])
    else:   # no axis changes the antenna count
        _check_net(net.kind, net.n_antennas, scenario, geos[0])
    rows = []
    for value, geo_v in zip(values, geos):
        params_v, net_v = params, net
        if axis == "n_train_samples":
            per_epoch = train_cfg.minibatches * train_cfg.batch_size
            epochs = max(1, int(np.ceil(int(value) / per_epoch)))
            with tempfile.TemporaryDirectory() as tmp:
                params_v, net_v, _ = train(replace(
                    train_cfg, epochs=epochs,
                    checkpoint_path=os.path.join(tmp, "checkpoint.bin")))
        row, samples = evaluate(net_v, params_v, scenario, geo_v, n_samples, seed)
        entry = {"axis": axis, "value": value, "engnn_mean_sum_rate": row.mean_sum_rate,
                 "residual_max": row.residual_max}
        if baseline != "none":
            entry.update(solve_set(scenario, geo_v, n_samples, seed, baseline)[0])
        rows.append(entry)
        if log:
            log(f"{axis}={value}: engnn {entry['engnn_mean_sum_rate']:.4f}"
                + (f", {baseline} {entry[f'{baseline}_mean_sum_rate']:.4f}"
                   if baseline != "none" else ""))
    if out_csv is not None:
        header = list(rows[0])
        write_csv(out_csv, header, [[r[c] for c in header] for r in rows])
    return rows


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# plain-text key-value config files


def parse_config_text(text):
    """Parse `key = value` lines ('#' comments) into a TrainConfig.

    Every field of TrainConfig and of GeometryConfig is a key of the same
    name, parsed with the type of the field's default, except two spellings:
    `checkpoint` sets checkpoint_path and `n_pairs` sets n_tx and n_rx. A key
    given twice, `n_pairs` next to `n_tx` or `n_rx`, and `n_pairs` outside
    the ic scenario raise ConfigError.
    """
    values = {}   # key -> (line number, value text)
    for ln, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw_line!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key in values:
            raise ConfigError(f"config key {key!r} given twice, on lines {values[key][0]} "
                              f"and {ln}")
        values[key] = ln, val
    if "n_pairs" in values and {"n_tx", "n_rx"} & values.keys():
        raise ConfigError("n_pairs sets both n_tx and n_rx; give n_pairs or n_tx/n_rx")

    def parse(key, val, kind):
        try:
            return kind(val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {val!r}") from exc

    geo_keys = {f.name: type(f.default) for f in fields(GeometryConfig)}
    train_keys = {f.name: type(f.default) for f in fields(TrainConfig)
                  if f.name not in ("geometry", "checkpoint_path")}
    geo_kwargs = {}
    train_kwargs = {}
    for key, (_, val) in values.items():
        if key == "checkpoint":
            train_kwargs["checkpoint_path"] = val
        elif key == "n_pairs":
            geo_kwargs["n_tx"] = geo_kwargs["n_rx"] = parse(key, val, int)
        elif key in geo_keys:
            geo_kwargs[key] = parse(key, val, geo_keys[key])
        elif key in train_keys:
            train_kwargs[key] = parse(key, val, train_keys[key])
        else:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = TrainConfig(geometry=GeometryConfig(**geo_kwargs), **train_kwargs)
    if "n_pairs" in values:
        _check_pairs_scenario(cfg.scenario)
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())
