"""Span and count tracing of the statecov layers, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module, in
every ``statecov.*`` namespace that holds it by name, with a wrapper that
records a span (name, start, end, parent, run id) in memory; the two
``CoverageTracker`` methods the fuzz loop calls are wrapped too. Hooks keyed
by span name add counts at the same boundaries. ``layer_metrics`` turns one
traced pass into the per-layer figures; a layer's self time is its span time
minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("sim", "qnn", "gradients", "coverage", "diversity", "attacks", "fuzz", "datasets", "cli")
TRACKER_SPANS = ("coverage.CoverageTracker.add_input", "coverage.CoverageTracker.peek_input")
FUZZ_SPANS = ("fuzz.fuzz", "fuzz.random_test")
AMPLITUDE_BYTES = 16  # complex128
# Counts that must repeat exactly between traced passes of one commit and seed.
REPEATABLE = (
    "sim.passes",
    "sim.gate_applications",
    "qnn.train.passes_per_step",
    "fuzz.iterations",
    "coverage.add_input.calls",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.run_id = 0
        self.spans = []  # (name, start, end, parent index, run id)
        self.stack = []  # indices of open spans
        self.names = []  # names of open spans, parallel to stack
        self.counts = Counter()
        self.fuzz_loops = set()  # fuzz span indices whose mutation loop has started
        self._signatures = {}
        self._restore = []

    def reset(self, run_id):
        self.run_id = run_id
        self.spans, self.stack, self.names = [], [], []
        self.counts = Counter()
        self.fuzz_loops = set()

    def ancestor(self, names):
        """Index of the innermost open span whose name is in ``names``, or None."""
        for idx, name in zip(reversed(self.stack), reversed(self.names)):
            if name in names:
                return idx
        return None

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"statecov.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "statecov" and not modname.startswith("statecov."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._restore.append((mod, attr, obj))
        tracker = importlib.import_module("statecov.coverage").CoverageTracker
        for span in TRACKER_SPANS:
            method = span.rsplit(".", 1)[1]
            original = tracker.__dict__[method]
            setattr(tracker, method, self._wrap(span, original))
            self._restore.append((tracker, method, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        self._signatures[name] = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            tracer.names.append(name)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.names.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.run_id)
                if hook is not None:
                    hook(tracer, args, kwargs, result)

        return traced

    def arg(self, name, args, kwargs, key):
        """Argument ``key`` of a call to the function traced as ``name``."""
        params = self._signatures[name].parameters
        pos = list(params).index(key)
        if pos < len(args):
            return args[pos]
        return kwargs.get(key, params[key].default)


def write_spans(path, spans):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "start", "end", "parent", "run_id"])
        writer.writerows(spans)

# -- count hooks: (tracer, args, kwargs, result or None) ----------------------


def _on_apply_circuit_batch(t, args, kwargs, result):
    circuit = t.arg("sim.apply_circuit_batch", args, kwargs, "circuit")
    rows = len(t.arg("sim.apply_circuit_batch", args, kwargs, "states"))
    gates = len(circuit.gates)
    c = t.counts
    c["sim.passes"] += 1
    c["sim.gate_applications"] += gates
    c["sim.amps_touched"] += rows * gates * 2**circuit.num_qubits
    names = t.names
    # passes made by the gradient step, not by train's own loss/accuracy evaluation
    if "qnn.train" in names and sys._getframe(2).f_code.co_name != "train":
        c["qnn.train.step_passes"] += 1
    if any(n.startswith("gradients.") for n in names):
        c["gradients.passes"] += 1
    if "attacks.attack_suite" in names:
        c["attacks.passes"] += 1


def _on_forward_batch(t, args, kwargs, result):
    xs = np.asarray(t.arg("qnn.forward_batch", args, kwargs, "xs"))
    rows = 1 if xs.ndim == 1 else xs.shape[0]
    t.counts["qnn.forward_batch.rows"] += rows
    if t.ancestor(FUZZ_SPANS) in t.fuzz_loops:
        t.counts["fuzz.loop_forward_rows"] += rows


def _on_mutate(t, args, kwargs, result):
    loop = t.ancestor(FUZZ_SPANS)
    if loop is not None:
        t.fuzz_loops.add(loop)


def _on_train(t, args, kwargs, result):
    n = len(t.arg("qnn.train", args, kwargs, "data"))
    cfg = t.arg("qnn.train", args, kwargs, "config")
    t.counts["qnn.train.steps"] += cfg.epochs * math.ceil(n / (cfg.batch_size or n))


def _on_add_input(t, args, kwargs, result):
    if result is not None and any(result.values()):
        t.counts["coverage.new_inputs"] += 1


def _on_fuzz(t, args, kwargs, result):
    if result is not None:
        t.counts["fuzz.iterations"] += result.iterations


def _on_guided_fuzz(t, args, kwargs, result):
    _on_fuzz(t, args, kwargs, result)
    if result is not None:
        t.counts["fuzz.guided_runs"] += 1
        t.counts["fuzz.guided_reenqueue_sum"] += result.reenqueue_rate


def _on_attack_suite(t, args, kwargs, result):
    n = len(t.arg("attacks.attack_suite", args, kwargs, "data"))
    t.counts["attacks.inputs"] += n
    if result is not None:
        t.counts["attacks.successes"] += round(result[1] * n)


def _on_suite_diversity(t, args, kwargs, result):
    name = "diversity.suite_diversity"
    n = len(t.arg(name, args, kwargs, "suite_features"))
    h = t.arg(name, args, kwargs, "num_haar_samples")
    cap = t.arg(name, args, kwargs, "max_pairs")
    t.counts["diversity.pairs"] += min(n * (n - 1) // 2, cap) + min(h * (h - 1) // 2, cap)
    t.counts["diversity.gram_bytes_computed"] += n * n * AMPLITUDE_BYTES


HOOKS = {
    "sim.apply_circuit_batch": _on_apply_circuit_batch,
    "qnn.forward_batch": _on_forward_batch,
    "qnn.train": _on_train,
    "fuzz.mutate": _on_mutate,
    "fuzz.fuzz": _on_guided_fuzz,
    "fuzz.random_test": _on_fuzz,
    "coverage.CoverageTracker.add_input": _on_add_input,
    "attacks.attack_suite": _on_attack_suite,
    "diversity.suite_diversity": _on_suite_diversity,
}


# -- per-layer figures ------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts):
    """Per-layer figures of one traced pass; a figure with no work reads 0."""
    names = [s[0] for s in spans]
    start = np.array([s[1] for s in spans])
    end = np.array([s[2] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    dur = end - start
    covered = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered

    calls = Counter(names)
    incl = defaultdict(float)
    own = defaultdict(float)
    layer_self = defaultdict(float)
    outer_tracker = outer_tracker_s = outer_grad = 0
    for i, name in enumerate(names):
        incl[name] += dur[i]
        own[name] += self_time[i]
        layer_self[name.split(".", 1)[0]] += self_time[i]
        pname = names[parent[i]] if parent[i] >= 0 else ""
        if name in TRACKER_SPANS and pname not in TRACKER_SPANS:
            outer_tracker += 1
            outer_tracker_s += dur[i]
        if name.startswith("gradients.") and not pname.startswith("gradients."):
            outer_grad += 1

    c = counts
    apply_s = incl["sim.apply_circuit_batch"]
    steps = c["qnn.train.steps"]
    add_calls = calls["coverage.CoverageTracker.add_input"]
    return {
        "sim.ns_per_amp": _ratio(apply_s * 1e9, c["sim.amps_touched"]),
        "sim.amps_touched": c["sim.amps_touched"],
        "sim.bytes_computed": 2 * AMPLITUDE_BYTES * c["sim.amps_touched"],
        "sim.self_s": layer_self["sim"],
        "sim.passes": c["sim.passes"],
        "sim.gate_applications": c["sim.gate_applications"],
        "sim.us_per_pass": _ratio(apply_s * 1e6, c["sim.passes"]),
        "sim.sample.calls": calls["sim.sample_probabilities"],
        "sim.sample.self_s": own["sim.sample_probabilities"],
        "sim.haar.calls": calls["sim.haar_random_state"],
        "sim.haar.self_s": own["sim.haar_random_state"],
        "qnn.train.passes_per_step": _ratio(c["qnn.train.step_passes"], steps),
        "qnn.train.s_per_step": _ratio(incl["qnn.train"], steps),
        "qnn.train.self_s": own["qnn.train"],
        "qnn.forward_batch.calls": calls["qnn.forward_batch"],
        "qnn.forward_batch.rows": c["qnn.forward_batch.rows"],
        "qnn.forward_batch.rows_per_s": _ratio(c["qnn.forward_batch.rows"], incl["qnn.forward_batch"]),
        "qnn.forward.calls": calls["qnn.forward"],
        "qnn.encode_batch.self_s": own["qnn.encode_batch"],
        "gradients.input_grad.calls": calls["gradients.input_grad"],
        "gradients.score_input_grads.calls": calls["gradients.score_input_grads"],
        "gradients.passes_per_input_grad": _ratio(c["gradients.passes"], outer_grad),
        "gradients.self_s": layer_self["gradients"],
        "coverage.add_input.calls": add_calls,
        "coverage.peek_input.calls": calls["coverage.CoverageTracker.peek_input"],
        "coverage.track_us_per_input": _ratio(outer_tracker_s * 1e6, outer_tracker),
        "coverage.new_coverage_ratio": _ratio(c["coverage.new_inputs"], add_calls),
        "coverage.collect.self_s": own["coverage.collect_prob_vectors"],
        "coverage.mad_refine.self_s": own["coverage.mad_refine"],
        "fuzz.iterations": c["fuzz.iterations"],
        "fuzz.mutate.calls": calls["fuzz.mutate"],
        "fuzz.loop_self_s": sum(own[n] for n in FUZZ_SPANS),
        "fuzz.forward_rows_per_iter": _ratio(c["fuzz.loop_forward_rows"], c["fuzz.iterations"]),
        "fuzz.reenqueue_rate": _ratio(c["fuzz.guided_reenqueue_sum"], c["fuzz.guided_runs"]),
        "attacks.inputs": c["attacks.inputs"],
        "attacks.passes_per_input": _ratio(c["attacks.passes"], c["attacks.inputs"]),
        "attacks.self_s": layer_self["attacks"],
        "attacks.asr": _ratio(c["attacks.successes"], c["attacks.inputs"]),
        "diversity.self_s": layer_self["diversity"],
        "diversity.haar_share": _ratio(incl["sim.haar_random_state"], incl["diversity.suite_diversity"]),
        "diversity.pairs": c["diversity.pairs"],
        "diversity.gram_bytes_computed": c["diversity.gram_bytes_computed"],
        "datasets.load_csv.self_s": own["datasets.load_csv"],
        "datasets.save_csv.self_s": own["datasets.save_csv"],
        "cli.self_s": layer_self["cli"],
    }
