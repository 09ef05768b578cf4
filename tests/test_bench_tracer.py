"""The benchmark's tracer (perfbench/tracing.py) binds package names by
string: each TARGETS entry must still resolve, be wrapped by ``install`` and
be put back by ``uninstall``."""

import importlib.util
import sys
from pathlib import Path

import dualsubdiv.cli  # noqa: F401  (imports every module the tracer wraps)
from dualsubdiv import analyze, catalog

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    # loaded from its file: perfbench/ on sys.path would shadow tests/oracle.py
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target(module_name, attr):
    """The object a TARGETS entry names, as ``Tracer.install`` looks it up."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, method = attr.split(".")
        return getattr(module, cls_name).__dict__[method]
    return getattr(module, attr)


def package_names():
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "dualsubdiv" and module is not None
        for key, value in vars(module).items()
    }


def test_tracer_wraps_every_target_and_restores_it():
    tracing = load_tracing()
    originals = [target(module, attr) for module, attr, _, _ in tracing.TARGETS]
    before = package_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr, _, _), original in zip(tracing.TARGETS, originals):
            wrapped = target(module, attr)
            assert wrapped is not original, f"{module}.{attr} was not wrapped"
            assert wrapped.__wrapped__ is original
        tracer.active = True
        try:
            lattice = analyze.refine_values(catalog.cantor_mask(), catalog.cantor_samples(), 2)
        finally:
            tracer.active = False
    finally:
        tracer.uninstall()
    assert tracer.summary()["analyze.refine_values"]["calls"] == 1
    assert tracer.facts["analyze.lattice_points"] == len(lattice.values)
    assert tracer.facts["analyze.lattice_max_bits"] > 0
    assert [target(module, attr) for module, attr, _, _ in tracing.TARGETS] == originals
    after = package_names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
