"""Span tracing from outside the program: wraps public module functions.

A wrapped function records one span per call (name, start, end, parent span,
instance id) in memory. The instance id is the seed of the most recent
`chansim.build_instance` call, so every span of one sample shares it. Module
functions call each other through their module globals, so replacing the
module attribute also catches calls made inside the package (for example
`engnn.forward` calling `engnn.edge_update`). `uninstall` puts the originals
back.
"""

import functools
import json
import os
import time
from collections import Counter, defaultdict

# (module name, attribute, span name, counter hook)
# A counter hook gets (counts, args, result) after the call returns.


def _count_edges(counts, args, result):
    counts["engnn.forward.edges"] += int(args[0].edge_mask.sum())


def _count_bytes(counts, args, result):
    counts["container.write_bundle.bytes"] += os.path.getsize(args[0])


def _solver_counts(name):
    def hook(counts, args, result):
        counts[f"{name}.iterations"] += int(result.iterations)
        counts[f"{name}.unconverged"] += int(not result.converged)
    return hook


SPANS = [
    ("chansim", "build_instance", "chansim.build_instance", None),
    ("engnn", "preprocess", "engnn.preprocess", None),
    ("engnn", "tx_update", "engnn.tx_update", None),
    ("engnn", "rx_update", "engnn.rx_update", None),
    ("engnn", "edge_update", "engnn.edge_update", None),
    ("engnn", "forward", "engnn.forward", _count_edges),
    ("engnn", "extract_variables", "engnn.extract_variables", None),
    ("objectives", "normalize", "objectives.normalize", None),
    ("objectives", "sinr_ic", "objectives.sinr", None),
    ("objectives", "sinr_ibc", "objectives.sinr", None),
    ("objectives", "sinr_coop", "objectives.sinr", None),
    ("objectives", "constraint_residual", "objectives.constraint_residual", None),
    ("numkernel", "backward", "numkernel.backward", None),
    ("numkernel", "rmsprop_step", "numkernel.rmsprop_step", None),
    ("container", "write_bundle", "container.write_bundle", _count_bytes),
    ("container", "read_bundle", "container.read_bundle", None),
    ("harness", "train", "harness.train", None),
] + [("baselines", s, f"baselines.{s}", _solver_counts(f"baselines.{s}"))
     for s in ("wmmse_ic", "wmmse_ibc_power", "wmmse_coop", "gp_coop")]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name, _ in SPANS))
CALL_COUNTS = ["chansim.build_instance", "engnn.forward", "objectives.sinr",
               "numkernel.backward"]
COUNTERS = (["engnn.forward.edges", "numkernel.backward.tape_nodes",
             "container.write_bundle.bytes"]
            + [f"baselines.{s}.{c}" for s in ("wmmse_ic", "wmmse_ibc_power",
                                              "wmmse_coop", "gp_coop")
               for c in ("iterations", "unconverged")])


class Tracer:
    """In-memory span recorder; install() patches the rrmgnn modules."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, instance id]
        self.counts = Counter()
        self._stack = []
        self._instance = None
        self._restore = []

    def install(self):
        import importlib

        for mod_name, attr, name, hook in SPANS:
            module = importlib.import_module(f"rrmgnn.{mod_name}")
            orig = getattr(module, attr)
            setattr(module, attr, self._wrap(orig, name, hook))
            self._restore.append((module, attr, orig))
        self._install_tape_counter()
        self.t_start = time.perf_counter()

    def _install_tape_counter(self):
        from rrmgnn import numkernel

        tape_cls = numkernel.GradTape
        orig = tape_cls.__dict__["trace"]
        counts = self.counts

        def trace(cls, root):
            tape = orig.__func__(cls, root)
            counts["numkernel.backward.tape_nodes"] += len(tape.nodes)
            return tape

        tape_cls.trace = classmethod(trace)
        self._restore.append((tape_cls, "trace", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, orig, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        is_builder = name == "chansim.build_instance"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if is_builder:
                seed = args[2] if len(args) > 2 else kwargs.get("seed")
                self._instance = json.dumps(seed)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._instance]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts[f"{name}.calls"] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def self_times(self):
        """Per-name self time: span duration minus the time its children cover."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def write(self, path):
        """One JSON array per span: name, start, end, parent, instance id."""
        with open(path, "w", encoding="utf-8") as f:
            for name, t0, t1, parent, inst in self.spans:
                f.write(json.dumps([name, round(t0 - self.t_start, 9),
                                    round(t1 - self.t_start, 9), parent, inst]))
                f.write("\n")
