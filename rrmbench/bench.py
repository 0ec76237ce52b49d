"""The benchmark's workloads, run inside one fresh process.

`run.py` starts this file once per measurement; it can also be imported (the
benchmark's tests call `run_workload` directly). Each workload is a fixed,
seeded unit of work, a "pass", repeated until the time budget is spent: every
pass does the same work, so counts and `sum_rate` repeat exactly for a seed.

Times are given in reference seconds. Other tenants of a shared host slow
every run by up to 2x, in waves of seconds to minutes, and the median of more
passes does not remove that. So a fixed slice of work unrelated to rrmgnn, the
canary, runs right before and after every timed call, and every
SAMPLE_PERIOD_S during calls that time nothing inside themselves. Each call's
times are scaled by CANARY_REF_S over the mean canary time around that call.
README.md has the measurements behind this, why each workload exists, and
what each metric should move.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

FEAS_TOL = 1e-9          # objectives.FEAS_TOL, acceptance 7
MONOTONE_TOL = -1e-8     # acceptance 4: WMMSE traces never drop by more than this

# train-ic-k4: the acceptance-8 config with fewer epochs per pass.
TRAIN_EPOCHS = 2
TRAIN_PROBE = 120         # held-out K=4 instances inferred after each pass

# eval-mixed: (kind, n_tx, n_rx, antennas); n_tx is the BS count of every shape.
EVAL_SHAPES = [("ic", 4, 4, 2), ("ic", 8, 8, 2), ("ic", 32, 32, 2),
               ("ibc", 2, 2, 4), ("ibc", 4, 2, 4), ("ibc", 16, 2, 4),
               ("coop", 4, 4, 2), ("coop", 4, 8, 2), ("coop", 8, 32, 2)]
EVAL_PER_SHAPE = 56
EVAL_NET_SEED = 909

# solve-baselines: (kind, n_tx, n_rx, antennas, baselines, instances, set seed).
# The set is fixed (see README.md): ic from acceptance 8's seed, coop from
# acceptance 9's; the workload seed only picks the ENGNN reference instances.
SOLVE_SETS = [("ic", 8, 8, 2, ("wmmse",), 3, 777),
              ("ibc", 3, 2, 4, ("wmmse",), 8, 777),
              ("coop", 5, 2, 2, ("wmmse", "gp"), 4, 909)]
SOLVE_PROBE = 70          # ENGNN reference inferences per set and pass

CANARY_REPS = 1000        # one canary slice: 1000 small matmul/relu/add steps
CANARY_REF_S = 0.0024     # a slice's time on an unloaded host of this kind
SAMPLE_PERIOD_S = 0.1     # slice interval inside train and solver calls
AROUND_SLICES = 5         # slices right before and right after every timed call
SETUP_SLICES = 20         # slices after set-up, to scale the set-up time

# pinned to 1 by run.py; recorded with the results
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def geometry(n_tx, n_rx, antennas, scale_field=False):
    from rrmgnn.chansim import GeometryConfig

    # A 2000 m field cannot hold 32 BSs 500 m apart (GenerationError), so
    # eval-mixed keeps the BS density of the 4-BS field.
    field = 2000.0 * math.sqrt(n_tx / 4.0) if scale_field else 2000.0
    return GeometryConfig(n_tx=n_tx, n_rx=n_rx, n_antennas=antennas, field_size=field)


def fixed_net(kind, antennas, path):
    """Hidden 8, 2-layer net at a fixed seed, round-tripped through a checkpoint.

    Input scales bring budgets (watts), noise deviations and channel entries
    to O(1), as training's calibration does, so outputs depend on the channel.
    """
    from rrmgnn import chansim, engnn

    budget = float(chansim.dbm_to_watts(33.0))
    noise_std = math.sqrt(float(chansim.dbm_to_watts(-99.0)))
    gain = 10.0 ** (-float(chansim.path_loss_db(150.0)) / 20.0)
    net = engnn.config_for_scenario(kind, antennas, hidden=8, layers=2,
                                    input_scale_tx=1.0 / budget,
                                    input_scale_rx=1.0 / noise_std,
                                    input_scale_e=1.0 / gain)
    engnn.save_checkpoint(path, net, engnn.init_params(net, seed=EVAL_NET_SEED))
    net, params, _ = engnn.load_checkpoint(path)
    return net, params


class Ledger:
    """Counts operations and the checks they fail; never raises."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []       # correctness violations, capped list of messages
        self.n_problems = 0

    def op(self, problems=(), unconverged=False):
        self.attempted += 1
        if problems or unconverged:
            self.failed += 1
        self.violation(*problems)

    def violation(self, *messages):
        self.n_problems += len(messages)
        self.problems.extend(messages[:max(0, 20 - len(self.problems))])

    def crashed(self, n_ops, where, exc):
        self.attempted += n_ops
        self.failed += n_ops
        self.violation(f"{where}: {type(exc).__name__}: {exc}")


def check_sample(s, where):
    """Checks of one harness.evaluate sample row."""
    out = []
    if not math.isfinite(s["sum_rate"]):
        out.append(f"{where}: non-finite sum rate")
    if not s["residual"] <= FEAS_TOL:
        out.append(f"{where}: feasibility residual {s['residual']:.3e}")
    return out


def check_solution(inst, result, where):
    """Checks of one solver result: feasible, finite, monotone trace."""
    from rrmgnn import objectives

    out = []
    residual = objectives.constraint_residual(inst, result.variables)
    if not residual <= FEAS_TOL:
        out.append(f"{where}: feasibility residual {residual:.3e}")
    if not math.isfinite(result.report.sum_rate_value()):
        out.append(f"{where}: non-finite sum rate")
    drops = [b - a for a, b in zip(result.trace[:-1], result.trace[1:])]
    if drops and not min(drops) >= MONOTONE_TOL:
        out.append(f"{where}: trace drops by {-min(drops):.3e}")
    return out


class Canary:
    """Times a fixed slice of small numpy work, to follow the host's speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((16, 8))
        self._w = 0.1 * rng.standard_normal((8, 8))
        self.samples = []
        self.busy = 0.0          # total seconds spent in slices

    def slice(self, *_):
        np, a, w = self._np, self._a, self._w
        t0 = time.perf_counter()
        x = a
        for _ in range(CANARY_REPS):
            x = np.maximum(x @ w, 0.0) + a
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.busy += dt

    @contextlib.contextmanager
    def sampling(self):
        """Take a slice every SAMPLE_PERIOD_S of wall time (SIGALRM)."""
        previous = signal.signal(signal.SIGALRM, self.slice)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale_since(self, first):
        """Reference seconds per measured second, from slices `first` on."""
        return CANARY_REF_S / statistics.fmean(self.samples[first:])


class Pass:
    """What one pass measured, in reference seconds."""

    def __init__(self, canary, sample_inside):
        self.canary = canary
        self.sample_inside = sample_inside  # off when tracing: spans stay clean
        self.instances = 0       # training samples, eval instances or solves
        self.seconds = {}        # time spent on them, per call; same keys each pass
        self.rates = []          # sum rates whose mean is the pass's sum_rate
        self.infer = {}          # inference seconds per (call, sample)

    def call(self, key, n, fn, count=True, inside=True):
        """Run fn() between canary slices; returns (fn's result, scale).

        With `inside`, slices also run during fn; their time is not counted.
        harness.evaluate times each inference itself, so it runs without.
        An exception from fn propagates.
        """
        first = len(self.canary.samples)
        for _ in range(AROUND_SLICES):
            self.canary.slice()
        busy = self.canary.busy
        sampling = (self.canary.sampling() if inside and self.sample_inside
                    else contextlib.nullcontext())
        t0 = time.perf_counter()
        with sampling:
            out = fn()
        raw = time.perf_counter() - t0 - (self.canary.busy - busy)
        for _ in range(AROUND_SLICES):
            self.canary.slice()
        scale = self.canary.scale_since(first)
        if count:
            self.instances += n
            self.seconds[key] = raw * scale
        return out, scale

    def evaluate(self, ledger, net, params, kind, geo, n, seed, where, count=True):
        """harness.evaluate with checks; returns the per-sample rows."""
        from rrmgnn import harness

        try:
            (_, rows), scale = self.call(
                where, n, lambda: harness.evaluate(net, params, kind, geo, n, seed),
                count, inside=False)
        except Exception as exc:  # a failed call must not stop the run
            ledger.crashed(n, where, exc)
            return []
        for i, s in enumerate(rows):
            ledger.op(check_sample(s, f"{where}[{i}]"))
            self.infer[where, i] = s["infer_seconds"] * scale
        return rows


class TrainIcK4:
    """harness.train on the acceptance-8 config, then a held-out inference probe."""

    def __init__(self, seed, workdir):
        from rrmgnn import harness

        self.seed = seed
        self.geo = geometry(4, 4, 2)
        self.cfg = harness.TrainConfig(
            scenario="ic", geometry=self.geo, epochs=TRAIN_EPOCHS, minibatches=20,
            batch_size=32, learning_rate=1e-3, hidden=8, layers=1, seed=seed,
            checkpoint_path=str(Path(workdir) / "train.bin"))

    def run_pass(self, ledger, canary, sample_inside):
        from rrmgnn import harness

        p = Pass(canary, sample_inside)
        per_epoch = self.cfg.minibatches * self.cfg.batch_size
        try:
            (params, net, rows), _ = p.call("train", self.cfg.epochs * per_epoch,
                                            lambda: harness.train(self.cfg))
        except Exception as exc:
            ledger.crashed(self.cfg.epochs * per_epoch, "train", exc)
            return p
        for row in rows:
            problems = []
            if not math.isfinite(row.mean_sum_rate):
                problems.append(f"train epoch {row.epoch}: non-finite sum rate")
            if not row.residual_max <= FEAS_TOL:
                problems.append(f"train epoch {row.epoch}: feasibility residual "
                                f"{row.residual_max:.3e}")
            ledger.violation(*problems)
            ledger.attempted += per_epoch
            ledger.failed += per_epoch if problems else 0
        p.rates = [rows[-1].mean_sum_rate]
        p.evaluate(ledger, net, params, "ic", self.geo, TRAIN_PROBE, self.seed,
                   "train probe", count=False)
        return p


class EvalMixed:
    """harness.evaluate over nine shapes from 16 to 1024 edges."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.nets = {kind: fixed_net(kind, n, str(Path(workdir) / f"{kind}.bin"))
                     for kind, _, _, n in EVAL_SHAPES}
        self.geos = [geometry(m, k, n, scale_field=True) for _, m, k, n in EVAL_SHAPES]

    def run_pass(self, ledger, canary, sample_inside):
        p = Pass(canary, sample_inside)
        for j, ((kind, m, k, n), geo) in enumerate(zip(EVAL_SHAPES, self.geos)):
            net, params = self.nets[kind]
            rows = p.evaluate(ledger, net, params, kind, geo, EVAL_PER_SHAPE,
                              self.seed * len(EVAL_SHAPES) + j, f"eval {kind} {m}x{k}")
            p.rates.extend(s["sum_rate"] for s in rows)
        return p


class SolveBaselines:
    """harness.run_baseline on a fixed set, plus ENGNN inference on its shapes."""

    def __init__(self, seed, workdir):
        from rrmgnn import chansim

        self.seed = seed
        self.sets = []
        for kind, m, k, n, which, count, set_seed in SOLVE_SETS:
            geo = geometry(m, k, n)
            net = fixed_net(kind, n, str(Path(workdir) / f"{kind}.bin"))
            self.sets.append((kind, geo, net, which, count, set_seed))

    def run_pass(self, ledger, canary, sample_inside):
        from rrmgnn import chansim, harness

        p = Pass(canary, sample_inside)
        for kind, geo, (net, params), which, count, set_seed in self.sets:
            p.evaluate(ledger, net, params, kind, geo, SOLVE_PROBE, self.seed,
                       f"solve probe {kind}", count=False)
            for i in range(count):
                seed = chansim.sample_seed(set_seed, i)
                for name in which:
                    where = f"{name} {kind} {seed}"
                    try:
                        inst, _ = chansim.build_instance(kind, geo, seed)
                        result, _ = p.call(where, 1, lambda: harness.run_baseline(
                            kind, inst, name))
                        problems = check_solution(inst, result, where)
                    except Exception as exc:
                        ledger.crashed(1, where, exc)
                        continue
                    p.rates.append(result.report.sum_rate_value())
                    ledger.op(problems, unconverged=not result.converged)
        return p


WORKLOADS = {"train-ic-k4": TrainIcK4, "eval-mixed": EvalMixed,
             "solve-baselines": SolveBaselines}


def run_workload(name, seed, seconds, trace=False, launched=None, spans_path=None,
                 setup_only=False):
    """Set up and measure one workload; returns a result dict.

    `launched` is the time.monotonic() at which the process was started; the
    set-up time runs from there (or from this call) to the first timed pass.
    """
    t_begin = time.monotonic() if launched is None else launched
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ledger = Ledger()
    try:
        with tempfile.TemporaryDirectory(dir=scratch_dir(), prefix="work-") as workdir:
            workload = WORKLOADS[name](seed, workdir)
            setup_raw = time.monotonic() - t_begin
            canary = Canary()
            for _ in range(SETUP_SLICES):
                canary.slice()
            setup_s = setup_raw * canary.scale_since(0)
            if setup_only:
                return {"setup_s": setup_s, "setup_raw_s": setup_raw}
            passes, walls, counts = [], [], None
            t0 = time.perf_counter()
            while True:
                t_pass = time.perf_counter()
                passes.append(workload.run_pass(ledger, canary, tracer is None))
                walls.append(time.perf_counter() - t_pass)
                if tracer is not None and counts is None:
                    counts = dict(tracer.counts)
                # stop before a pass that would overrun the budget
                if time.perf_counter() - t0 + statistics.median(walls) > seconds:
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = summarize(name, seed, passes, ledger, setup_s, tracer, counts, spans_path)
    result.update(pass_seconds=walls, setup_raw_s=setup_raw,
                  canary_mean_s=statistics.fmean(canary.samples))
    return result


def summarize(name, seed, passes, ledger, setup_s, tracer, counts, spans_path):
    rates = [statistics.fmean(p.rates) if p.rates else float("nan") for p in passes]
    if any(r != rates[0] for r in rates[1:]):
        ledger.violation(f"sum rate differs between passes: {rates}")
    throughput = instances_per_s(passes)
    infer_ms = [1e3 * s for s in median_per_key(passes, "infer").values()]
    # linear interpolation between order statistics, as numpy's percentile
    cuts = (statistics.quantiles(infer_ms, n=100, method="inclusive")
            if len(infer_ms) > 1 else [0.0] * 99)
    result = {
        "workload": name, "seed": seed,
        "correct": ledger.n_problems == 0, "attempted": ledger.attempted,
        "failed": ledger.failed, "problems": ledger.problems, "sum_rate": rates[0],
    }
    if tracer is None:
        result["metrics"] = {
            "instances_per_s": metric(throughput, "1/s"),
            "sum_rate": metric(rates[0], "bit/s/Hz"),
            "infer_ms_p50": metric(cuts[49], "ms"),
            "infer_ms_p99": metric(cuts[98], "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "setup_s": metric(setup_s, "s"),
        }
        return result
    wall = time.perf_counter() - tracer.t_start
    self_s = tracer.self_times()
    layers = {f"{n}.self_s": metric(v, "s") for n, v in self_s.items()}
    layers["other.self_s"] = metric(wall - sum(self_s.values()), "s")
    from tracing import CALL_COUNTS, COUNTERS

    for n in CALL_COUNTS:
        layers[f"{n}.calls"] = metric(counts.get(f"{n}.calls", 0), "count")

    for n in COUNTERS:
        layers[n] = metric(counts.get(n, 0),
                           "B" if n.endswith(".bytes") else "count")
    layers["traced.wall_s"] = metric(wall, "s")
    layers["traced.instances_per_s"] = metric(throughput, "1/s")
    result["metrics"] = layers
    if spans_path is not None:
        tracer.write(spans_path)
    return result


def median_per_key(passes, attr):
    """Per timed call or inferred instance, its median over the passes."""
    tables = [getattr(p, attr) for p in passes]
    keys = set(tables[0]).intersection(*tables[1:])
    return {k: statistics.median(t[k] for t in tables) for k in keys}


def instances_per_s(passes):
    """Instances of one pass over the sum of each timed call's median time."""
    medians = median_per_key(passes, "seconds")
    if not medians or len(medians) != len(passes[0].seconds):
        return 0.0
    return passes[0].instances / sum(medians.values())


def environment():
    """Machine, interpreter, numpy/BLAS and thread settings of this process."""
    import numpy as np

    config = np.show_config(mode="dicts")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": config["Build Dependencies"]["blas"],
            "simd": config["SIMD Extensions"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "cpu_model": cpu_model(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def scratch_dir():
    path = ROOT / ".rrmbench"
    path.mkdir(exist_ok=True)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.launched, args.spans, args.setup_only)
    if not args.setup_only:
        result["environment"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
