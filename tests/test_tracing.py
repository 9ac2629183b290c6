"""The benchmark's tracer (perfbench/tracing.py) wraps the package's public
functions from outside; installing and removing it must leave every one of
them as it was, and every function it hooks a count on must still exist."""

import importlib.util
import inspect
import sys
from pathlib import Path

import statecov.cli  # noqa: F401 - loads every module the tracer wraps
from statecov.coverage import CoverageTracker

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
