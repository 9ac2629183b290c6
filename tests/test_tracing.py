"""The benchmark's tracer (perfbench/tracing.py) wraps the package's public
functions from outside; installing and removing it must leave every one of
them as it was, every function it hooks a count on must still exist, and
every argument or result attribute a hook reads must be there to read."""

import ast
import importlib
import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path

from statecov.cli import main  # loads every module the tracer wraps
from statecov.coverage import CoverageTracker
from statecov.datasets import save_csv
from statecov.fuzz import FuzzOutcome

import golden

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _functions():
    """(owner, name) -> object for every function held by a statecov module
    or defined on CoverageTracker."""
    found = {("CoverageTracker", name): obj for name, obj in vars(CoverageTracker).items()}
    for modname, mod in list(sys.modules.items()):
        if modname == "statecov" or modname.startswith("statecov."):
            found.update(
                ((modname, name), obj) for name, obj in vars(mod).items() if inspect.isfunction(obj)
            )
    return found


def test_install_then_uninstall_restores_every_wrapped_function():
    tracing = _load_tracing()
    before = _functions()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _functions()
        wrapped = {key for key in before if during[key] is not before[key]}
        originals = [during[key].__wrapped__ for key in wrapped]
        spans = {f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}" for fn in originals}
        assert set(tracing.HOOKS) <= spans
    finally:
        tracer.uninstall()
    after = _functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _hooked(span):
    """The function the tracer wraps as span: layer.function or
    coverage.CoverageTracker.method."""
    layer, *owner, attr = span.split(".")
    holder = importlib.import_module(f"statecov.{layer}")
    for name in owner:
        holder = vars(holder)[name]
    return vars(holder)[attr]


def _hook_reads():
    """{(span, argument name)} of every Tracer.arg call in tracing.py's
    functions, and {function name: the attributes it reads off result}. A
    span is a string literal or a local name bound to one."""
    args, results = set(), {}
    for fn in ast.parse(TRACING.read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        local = {
            node.targets[0].id: node.value.value
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
        }
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "arg":
                span, key = node.args[0], node.args[3]
                span = local[span.id] if isinstance(span, ast.Name) else span.value
                args.add((span, key.value))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "result":
                results.setdefault(fn.name, set()).add(node.attr)
    return args, results


def test_every_argument_a_hook_reads_is_a_parameter():
    """Tracer.arg looks a name up in the hooked function's signature, and a
    traced run stops at the first name that is not there. The one known stale
    read is suite_diversity's num_haar_samples; once the benchmark drops it,
    this test fails and the exception goes."""
    tracing = _load_tracing()
    reads, _ = _hook_reads()
    readers = {span for span, hook in tracing.HOOKS.items() if "arg" in hook.__code__.co_names}
    assert {span for span, _ in reads} == readers
    missing = {
        (span, key) for span, key in reads
        if key not in inspect.signature(_hooked(span)).parameters
    }
    assert missing == {("diversity.suite_diversity", "num_haar_samples")}


def test_fuzz_hooks_read_outcome_fields():
    """What the fuzz hooks, and the functions they call, read off the FuzzOutcome."""
    tracing = _load_tracing()
    _, results = _hook_reads()
    read = set()
    for span in tracing.FUZZ_SPANS:
        hook = tracing.HOOKS[span]
        for name in (hook.__name__, *hook.__code__.co_names):
            read |= results.get(name, set())
    assert read == {"iterations", "reenqueue_rate"}
    assert read <= {f.name for f in fields(FuzzOutcome)}


def test_traced_chain_runs_every_hook_on_real_results(tmp_path, capsys):
    """The golden chain's stages in process, as the benchmark runs them: with
    the tracer installed and active, every hook reads real arguments and
    results (attack_suite's result[1], the fuzz outcomes, ...). The one stage
    that fails is diversity, on the stale num_haar_samples read named in
    test_every_argument_a_hook_reads_is_a_parameter; once the benchmark drops
    it, this test fails and the exception goes."""
    tracing = _load_tracing()
    data_csv = tmp_path / "data.csv"
    save_csv(golden.chain_data(), data_csv)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    codes, errors = {}, {}
    try:
        for name, argv in golden.chain_runs(data_csv, tmp_path).items():
            codes[name] = main(argv)
            errors[name] = capsys.readouterr().err
    finally:
        tracer.active = False
        tracer.uninstall()
    assert codes == {**dict.fromkeys(codes, 0), "diversity": 1}
    assert "'num_haar_samples' is not in list" in errors["diversity"]
    assert not any(err for name, err in errors.items() if name != "diversity")
    assert tracing.layer_metrics(tracer.spans, tracer.counts)["sim.passes"] == 28
