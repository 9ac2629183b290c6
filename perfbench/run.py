"""Run one statecov benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid6_pipeline --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from --seed and written to files; the
program is then driven through ``statecov.cli.main(argv)`` in this process,
one stage after another, by a single caller (a closed loop with no threads of
its own). Set-up runs SETUP_REPEATS times. The stages then run in whole passes,
as many as fit in --seconds at the workload's nominal pass time (PASS_S), so
every run of a workload makes the same stage calls whatever the machine's
speed; each timing is a median over the passes. Every stage's outputs are
checked right after it runs, outside the timed region.

The machine's speed switches between a fast and a slow state (about 1.6x
apart) many times a minute, so a fixed reference computation (REFERENCES) is
timed every SAMPLE_INTERVAL_S while the stages and set-ups run, from a
SIGALRM handler whose time is taken out of the stage's or set-up's time, and
in a burst before each set-up. pipeline_ref is the pipeline's wall time in
units of the reference time during the stages; setup_s is the median set-up
time over the reference time of the set-ups, as seconds on a machine where
the reference takes REFERENCE_NOMINAL_S. The raw wall times are printed as
pipeline_s and setup_wall_s.

--trace 0 prints the end-to-end metrics. --trace 1 follows the same untraced
passes with two traced passes and prints the per-layer metrics; the counts
that must repeat are compared between the two. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# The reference's two parts as (rows, qubits, gate calls), about 1.5 ms and
# 4.5 ms: calls on a 16-amplitude state (call overhead) and gates on a 4 MiB
# batch of 14-qubit states (memory traffic). The workloads mix both kinds of
# work, and the geometric mean of the two followed all three better than
# either part alone.
REFERENCES = ((1, 4, 60), (16, 14, 2))
SAMPLE_INTERVAL_S = 0.25  # the reference is timed this often while a stage runs
SETUP_SAMPLES = 9  # and this many times before each set-up (set-ups can be shorter)
REFERENCE_NOMINAL_S = 0.0035  # about the reference time on the machine in README.md
PROBE_QUBITS = (6, 10, 14, 18)
PROBE_REPEATS = 3

END_TO_END = {  # name -> unit; only those in BENCHMARK.json are in the JSON line
    "setup_s": "s",
    "setup_wall_s": "s",
    "pipeline_s": "s",
    "reference_s": "s",
    "pipeline_ref": "ref",
    "train_s": "s",
    "profile_s": "s",
    "coverage_inputs_per_s": "1/s",
    "coverage_shots_inputs_per_s": "1/s",
    "attack_inputs_per_s": "1/s",
    "fuzz_iters_per_s": "1/s",
    "fuzz_random_iters_per_s": "1/s",
    "diversity_s": "s",
    "peak_rss_mb": "MB",
    "failed_op_ratio": "ratio",
}


def load_declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return doc["end_to_end"], doc["per_layer"]


def machine_info():
    """What the numbers were measured on, and what could not be measured."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            caches[level] = int(out.stdout.strip() or 0)
        except (OSError, ValueError, subprocess.SubprocessError):
            caches[level] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cache_bytes": caches,
        "not_measured": "no hardware counters, no CPU pinning, no cache dropping; "
        "bytes are computed from array sizes, not measured bandwidth",
    }


def run_cli(cli_main, argv):
    """Run one CLI call with its output captured; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue().strip()


@contextmanager
def capture_prob_vectors(captured):
    """Keep the probability vectors the coverage stage computes, for its check."""
    import statecov.coverage as cov

    inner = cov.collect_prob_vectors

    def capturing(*args, **kwargs):
        captured["pvs"] = inner(*args, **kwargs)
        return captured["pvs"]

    cov.collect_prob_vectors = capturing
    try:
        yield
    finally:
        cov.collect_prob_vectors = inner


def run_stage(cli_main, stage, tracer=None, sampler=None):
    """Run one stage, timed (and traced if a tracer is given, sampling the
    reference if a sampler is given), then check its outputs outside the timed
    and traced region."""
    shutil.rmtree(stage.out_dir, ignore_errors=True)
    gc.collect()
    captured = {}
    spent = sampler.spent if sampler else 0.0
    with capture_prob_vectors(captured), sampler.running() if sampler else nullcontext():
        if tracer:
            tracer.active = True
        start = perf_counter()
        code, err = run_cli(cli_main, stage.argv)
        seconds = perf_counter() - start - ((sampler.spent - spent) if sampler else 0.0)
        if tracer:
            tracer.active = False
    rec = {"name": stage.name, "code": code, "seconds": seconds, "error": err, "problems": []}
    if code != 0:
        return rec
    try:
        rec["problems"] = stage.check(stage, captured)
    except Exception as exc:  # noqa: BLE001 - a broken output is a failed check
        rec["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
    if rec["problems"]:
        return rec
    work = stage.inputs
    if stage.metric.endswith("_per_s"):
        if not work:
            with open(stage.out_dir / "summary.json") as fh:
                work = json.load(fh)["iterations"]
        rec[stage.metric] = work / seconds
    else:
        rec[stage.metric] = seconds
    return rec


def reference_seconds(rows, qubits, calls):
    """Time ``calls`` 2x2 gates applied with numpy to ``rows`` states of
    ``qubits`` qubits: fixed work that no program change touches, so its time
    follows only the speed of the machine."""
    import numpy as np

    gate = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    state = np.full((rows,) + (2,) * qubits, 2.0 ** (-qubits / 2), dtype=np.complex128)
    start = perf_counter()
    for i in range(calls):
        axis = 1 + i % qubits
        state = np.moveaxis(np.tensordot(gate, state, axes=([1], [axis])), 0, axis)
    return perf_counter() - start


class ReferenceSampler:
    """Times the reference from a SIGALRM handler every SAMPLE_INTERVAL_S of
    wall time while ``running``, so the samples spread evenly over the stage
    time and see the same fast and slow stretches of the machine as the stage.
    ``spent`` is the time the handler took, to be taken out of the stage's."""

    def __init__(self):
        self.samples = [[] for _ in REFERENCES]  # one list per part
        self.spent = 0.0

    def sample(self, signum=None, frame=None):
        start = perf_counter()
        for times, size in zip(self.samples, REFERENCES):
            times.append(reference_seconds(*size))
        self.spent += perf_counter() - start

    def reference(self):
        """Geometric mean over the parts of each part's trimmed mean time."""
        return math.prod(trimmed_mean(times) for times in self.samples) ** (1 / len(REFERENCES))

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def trimmed_mean(values, cut=0.05):
    """Mean without the lowest and highest ``cut`` share of the values."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def pipeline_seconds(records):
    """Sum over stages of each stage's median time: one typical pipeline pass."""
    by_stage = {}
    for rec in records:
        by_stage.setdefault(rec["name"], []).append(rec["seconds"])
    return sum(statistics.median(times) for times in by_stage.values())


def kernel_probe(seed):
    """Time a single-row pass of the 2-layer layered/linear ansatz at several widths."""
    import numpy as np
    from statecov.qnn import AnsatzSpec, build_ansatz_circuit
    from statecov.sim import apply_circuit_batch

    rng = np.random.default_rng(seed)
    out = {}
    for q in PROBE_QUBITS:
        circuit = build_ansatz_circuit(AnsatzSpec("layered", 2, "linear"), q)
        params = rng.uniform(0.0, 2.0 * np.pi, size=circuit.num_params)
        state = np.zeros((1, 2**q), dtype=np.complex128)
        state[0, 0] = 1.0
        times = []
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            apply_circuit_batch(state, circuit, params)
            times.append(perf_counter() - start)
        out[f"sim.gate_us.q{q}"] = statistics.median(times) * 1e6 / len(circuit.gates)
        out[f"sim.state_bytes.q{q}"] = 2**q * 16
    return out


def tree_digest(path):
    """Digest of every input file under ``path``, ignoring run-specific configs."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and p.name != "resolved_config.json"):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def median_of(records, metric):
    values = [r[metric] for r in records if metric in r]
    return statistics.median(values) if values else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "statecov" / "cli.py").is_file():
        print(f"error: no statecov sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import statecov
    import statecov.cli
    import tracing
    from workloads import WORKLOADS

    if Path(statecov.__file__).resolve().parent != (src / "statecov").resolve():
        print(f"error: imported statecov from {statecov.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared_e2e, declared_layer = load_declared()
    workload = WORKLOADS[args.workload](args.seed)
    cli_main = statecov.cli.main
    problems = []

    work = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)

    # -- set-up, SETUP_REPEATS times; each must write the same inputs
    setup_times, digests = [], set()
    setup_sampler = ReferenceSampler()

    for i in range(SETUP_REPEATS):
        inputs = work / ("inputs" if i == 0 else "setup_repeat")
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        for _ in range(SETUP_SAMPLES):
            setup_sampler.sample()
        gc.collect()
        spent = setup_sampler.spent
        with setup_sampler.running(), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            start = perf_counter()
            workload.setup(inputs, cli_main)
            setup_times.append(perf_counter() - start - (setup_sampler.spent - spent))
        digests.add(tree_digest(inputs))
    shutil.rmtree(work / "setup_repeat", ignore_errors=True)
    if len(digests) != 1:
        problems.append("set-up gave different inputs for the same seed")
    stages = workload.stages(work / "inputs", work / "out")

    # -- untraced: a fixed number of whole passes, so that the stage calls,
    # and with them `attempted` and `failed`, do not depend on timing
    passes = max(1, int(args.seconds // workload.PASS_S))
    sampler = ReferenceSampler()
    records = [run_stage(cli_main, stage, sampler=sampler)
               for _ in range(passes) for stage in stages]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- traced: two whole passes, for the per-layer figures
    traced, traced_pipeline, layer_runs = [], [], []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        all_spans = []
        try:
            for run_id in (1, 2):
                tracer.reset(run_id)
                recs = [run_stage(cli_main, stage, tracer) for stage in stages]
                traced.extend(recs)
                traced_pipeline.append(sum(r["seconds"] for r in recs))
                layer_runs.append(tracing.layer_metrics(tracer.spans, tracer.counts))
                all_spans.extend(tracer.spans)
        finally:
            tracer.uninstall()
        tracing.write_spans(work / "spans.csv", all_spans)
        probe = kernel_probe(args.seed) if args.workload == "wide_q14_inference" else {}

    # -- tally
    attempted = len(records) + len(traced)
    failed_recs = [r for r in records + traced if r["code"] != 0 or r["problems"]]
    for r in failed_recs:
        problems.extend(f"stage {r['name']}: {p}" for p in r["problems"])

    e2e = {
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(setup_times)
        / setup_sampler.reference(),
        "setup_wall_s": statistics.median(setup_times),
        "pipeline_s": pipeline_seconds(records),
        "reference_s": sampler.reference(),
        "peak_rss_mb": peak_rss_mb,
        "failed_op_ratio": len(failed_recs) / attempted,
    }
    e2e["pipeline_ref"] = e2e["pipeline_s"] / e2e["reference_s"]
    for name in END_TO_END:
        if name not in e2e:
            e2e[name] = median_of(records, name)

    layer = {}
    mismatches = []
    if args.trace:
        for name in layer_runs[0]:
            layer[name] = statistics.median(run[name] for run in layer_runs)
        mismatches = [n for n in tracing.REPEATABLE
                      if len({run[n] for run in layer_runs}) != 1]
        # the kernel probe runs on one workload only; elsewhere it reads 0
        layer.update({f"sim.{kind}.q{q}": 0.0 for q in PROBE_QUBITS
                      for kind in ("gate_us", "state_bytes")})
        layer.update(probe)
        layer["trace.overhead_s"] = (
            statistics.median(traced_pipeline) - e2e["pipeline_s"]
        )
        layer["trace.count_mismatches"] = len(mismatches)
        layer["failed_op_ratio"] = e2e["failed_op_ratio"]

    # -- report
    info = machine_info()
    print(f"machine: nproc={info['nproc']} python={info['python']} numpy={info['numpy']} "
          f"blas={info['blas']} cache_bytes={info['cache_bytes']}")
    print(f"not measured: {info['not_measured']}")
    print(f"workload {args.workload} seed {args.seed}: {passes} untraced passes of "
          f"{len(stages)} stages, {len(traced)} traced stage runs; {len(setup_times)} set-ups")
    for name, unit in END_TO_END.items():
        value = e2e[name]
        shown = "n/a (stage not in this workload or never completed)" if value is None else f"{value:.6g}"
        print(f"  {name:30s} {shown} {unit if value is not None else ''}")
    for (name, code, why), count in Counter(
        (r["name"], r["code"], r["error"] or "; ".join(r["problems"])) for r in failed_recs
    ).items():
        print(f"failed op ({count}x): stage {name} exit {code}: {why}")
    for name in mismatches:
        print(f"COUNT MISMATCH between traced passes: {name} = {[run[name] for run in layer_runs]}")
    if args.trace:
        for name, value in layer.items():
            print(f"  {name:36s} {value:.6g}")

    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": info,
        "setup_s": setup_times, "setup_reference_s": setup_sampler.samples, "reference_s": sampler.samples,
        "passes": passes, "records": records, "traced_records": traced, "end_to_end": e2e, "per_layer": layer,
        "count_mismatches": mismatches, "problems": problems,
    }
    with open(work / "results.json", "w") as fh:
        json.dump(results, fh, indent=1, default=str)

    declared = declared_layer if args.trace else declared_e2e
    values = layer if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed_recs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
