"""The benchmark under ``mddbench/`` attaches to the library by name: its
tracer patches public functions and methods, and its workloads are config
mappings. These tests fail when a rename breaks either, without running an
experiment."""

import importlib.util
import sys
from pathlib import Path

import mddkit
import mddkit.harness  # noqa: F401  (loads every module the tracer patches)
from mddkit.harness import config_from_mapping

BENCH = Path(__file__).resolve().parent.parent / "mddbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"mddbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every mddkit module and of every class they define."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "mddkit" or name.startswith("mddkit."):
            out[name] = dict(vars(mod))
            for attr, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}.{attr}"] = dict(value.__dict__)
    return out


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys() and all(a[k][n] is b[k][n] for n in a[k]) for k in a)


def test_tracer_installs_and_uninstalls():
    tracing = _load("tracing")
    before = _bindings()
    tracer = tracing.Tracer(mddkit).install()
    try:
        assert not _same(before, _bindings())
    finally:
        tracer.uninstall()
    assert _same(before, _bindings())
    assert set(tracing.per_layer_spec()) == set(tracer.metrics())


def test_workload_configs_parse():
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS.values():
        config = config_from_mapping(workloads.make_config(workload, 1, 0))
        assert config.model == workload.config["model"]
