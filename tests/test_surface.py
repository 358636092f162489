"""The program surface that the benchmark and the package export rely on.

perfbench/tracing.py wraps functions by module and attribute path; a name
deleted or renamed in the program would only show up as every benchmark
operation failing, so the names are resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import reesgcd

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_exported_name_resolves():
    missing = [name for name in reesgcd.__all__
               if not hasattr(reesgcd, name)]
    assert not missing


def test_tracer_installs_and_removes_on_every_target():
    tracing = load_tracing()
    originals = {(mod, path): resolve(mod, path)
                 for mod, path, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unwrapped = [key for key, fn in originals.items()
                     if resolve(*key) is fn]
    finally:
        tracer.remove()
    assert not unwrapped
    assert all(resolve(*key) is fn for key, fn in originals.items())
