"""The package names the benchmark's tracer binds, checked without editing the tracer.

``perfbench/tracer.py`` wraps public functions by name; a deleted or renamed
one would break only the traced benchmark run, so these tests load the
tracer file read-only and check its names against the package.
"""

import importlib.util
import sys
from pathlib import Path

import tdpkex
import tdpkex.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _package_attributes() -> dict:
    modules = [m for n, m in sys.modules.items() if n == "tdpkex" or n.startswith("tdpkex.")]
    return {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}


def test_traced_names_resolve():
    for layer, fns in tracer.TRACED.items():
        module = getattr(tdpkex, layer)
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"{layer}.{fn}"
    for fns in tracer.CLI_RECORDS.values():
        for fn in fns:
            assert callable(getattr(tdpkex.cli, fn, None)), f"cli.{fn}"
    assert isinstance(tdpkex.field_matrix.SplitMix64, type)


def test_install_then_uninstall_restores_every_attribute():
    before = _package_attributes()
    t = tracer.Tracer(tdpkex)
    t.install()
    try:
        for layer, fns in tracer.TRACED.items():
            for fn in fns:
                assert getattr(getattr(tdpkex, layer), fn) is not before[(f"tdpkex.{layer}", fn)]
        assert tdpkex.SplitMix64 is not before[("tdpkex", "SplitMix64")]
        tdpkex.run_session(tdpkex.SplitMix64(1), tdpkex.FieldParams(p=5, d=2))
        assert t.calls["protocol.run_session"] == 1 and t.rng_bytes > 0
    finally:
        t.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
