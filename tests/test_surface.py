"""The program surface that the benchmark and the package export rely on.

perfbench/tracing.py wraps functions by module and attribute path; a name
deleted or renamed in the program would only show up as every benchmark
operation failing, so the names are resolved here.  The algebra modules
also keep no mutable container at module or class level, where it would
be shared by every caller in the process.  The term format and the
packed exponents stay inside the ring module: the modules above it use
its public API only, and the pipeline and the command line use only the
public API of the ideals module.  The pipeline asks its membership
questions, and whether the normal forms of two gcds agree up to a
scalar, of the ideals (Ideal.outside, contains_ideal, proportional) and
sizes no membership basis itself.  The package imports only the standard
library.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from collections.abc import MutableMapping, MutableSequence, MutableSet
from pathlib import Path

import reesgcd
from reesgcd import ideals, ring

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


# The groebner reduction loop is the one other reader of term tuples.
RING_CLIENTS = ("pipeline", "ideals", "matrices", "cli")
TERM_FORMAT = {"terms", "pack", "unpack"}


def ring_private_names():
    """Private names of the ring module and of its classes, but not the
    public _replace and _asdict of its namedtuple."""
    owners = [ring] + [value for value in vars(ring).values()
                       if inspect.isclass(value)
                       and value.__module__ == ring.__name__
                       and not issubclass(value, tuple)]
    names = set()
    for owner in owners:
        names.update(vars(owner))
        names.update(getattr(owner, "__slots__", ()))
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def test_ring_clients_use_only_its_public_api():
    private = ring_private_names()
    assert {"_scale", "_add_shifted", "_half"} <= private
    found = set()
    for name in RING_CLIENTS:
        module = importlib.import_module("reesgcd." + name)
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Attribute):
                used = node.attr
            elif isinstance(node, ast.Name):
                used = node.id
            elif isinstance(node, ast.alias):
                used = node.name
            else:
                continue
            if used in TERM_FORMAT or used in private:
                found.add((name, used))
    assert not found


IDEAL_CLIENTS = ("pipeline", "cli")


def ideals_private_names():
    """Private names of the ideals module and of its Ideal class, slots
    included."""
    names = set(vars(ideals)) | set(vars(ideals.Ideal))
    names.update(ideals.Ideal.__slots__)
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def test_ideal_clients_use_only_its_public_api():
    # a quotient's record of its division, its kept bases and memos stay
    # inside the ideals module
    private = ideals_private_names()
    assert {"_divide_out", "_bases", "_division", "_bayer"} <= private
    found = set()
    for name in IDEAL_CLIENTS:
        module = importlib.import_module("reesgcd." + name)
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Attribute):
                used = node.attr
            elif isinstance(node, ast.alias):
                used = node.name
            else:
                continue
            if used in private:
                found.add((name, used))
    assert not found


SOURCE = Path(reesgcd.__file__).resolve().parent


def called_names(path):
    """Names called in a module, as f(...) or as owner.f(...)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def test_package_imports_only_the_standard_library():
    # relative imports stay inside the package; every absolute one names
    # a top-level module of the standard library
    outside = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.add((path.name, name))
    assert not outside


def test_public_functions_have_a_program_caller():
    # a helper only the tests use belongs in tests/
    exported = set(reesgcd.__all__)
    unused = set()
    for name in ("groebner", "ideals", "matrices", "pipeline", "ring"):
        module = importlib.import_module("reesgcd." + name)
        called = set()
        for path in SOURCE.glob("*.py"):
            if path.stem != name:
                called |= called_names(path)
        for attr, value in vars(module).items():
            if (inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in exported and attr not in called):
                unused.add((name, attr))
    assert not unused


def pipeline_callers(name):
    """Functions of the pipeline module that call name, as name(...) or
    as owner.name(...)."""
    callers = set()
    tree = ast.parse((SOURCE / "pipeline.py").read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and name in (getattr(node.func, "attr", None),
                                     getattr(node.func, "id", None))):
                    callers.add(fn.name)
    return callers


def test_pipeline_sizes_no_membership_basis():
    # the base ideal sizes the basis for the gcd pairs that
    # verify_well_definedness compares and keeps their lead terms; the
    # pipeline reduces only modulo the span bases of the bilinear forms
    assert pipeline_callers("basis_for") == set()
    assert pipeline_callers("normal_form") == {"_trace_redundancies"}
    assert pipeline_callers("proportional") == {"verify_well_definedness"}
