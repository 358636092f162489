"""The program surface that the benchmark and the package export rely on.

perfbench/tracing.py wraps functions by module and attribute path; a name
deleted or renamed in the program would only show up as every benchmark
operation failing, so the names are resolved here.  The algebra modules
also keep no mutable container at module or class level, where it would
be shared by every caller in the process.
"""

import importlib
import importlib.util
import inspect
from collections.abc import MutableMapping, MutableSequence, MutableSet
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


# PolyRing._cache, the one documented exception, holds the rings by (p, d);
# perfbench/workloads.py empties it before every operation.
SHARED_STATE_ALLOWED = {("reesgcd.ring", "PolyRing._cache")}


def own_attributes(owner):
    """Attributes the program defines: no dunders, and not the empty
    _field_defaults map that namedtuple adds to its classes."""
    for attr, value in vars(owner).items():
        if not attr.startswith("__") and attr != "_field_defaults":
            yield attr, value


def test_no_module_level_mutable_containers():
    mutable = (MutableMapping, MutableSequence, MutableSet, bytearray)
    found = set()
    for name in ("ring", "groebner", "ideals", "matrices", "pipeline"):
        module = importlib.import_module("reesgcd." + name)
        for attr, value in own_attributes(module):
            if isinstance(value, mutable):
                found.add((module.__name__, attr))
            if (inspect.isclass(value)
                    and value.__module__ == module.__name__):
                for cattr, cvalue in own_attributes(value):
                    if isinstance(cvalue, mutable):
                        found.add((module.__name__,
                                   "%s.%s" % (attr, cattr)))
    assert found == SHARED_STATE_ALLOWED
