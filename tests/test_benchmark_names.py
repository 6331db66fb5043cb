"""The benchmark's contract with the package, checked without editing the benchmark.

``perfbench/tracer.py`` wraps public functions by name, and
``perfbench/worker.py`` calls the package and checks each workload's output
digest against ``perfbench/canaries.json``.  A deleted or renamed name, a
changed signature or moved output bytes would otherwise show only in a full
benchmark run, so these tests load both files read-only and run them
against the package.
"""

import importlib.util
import json
import sys
from pathlib import Path

import tdpkex
import tdpkex.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


def _load_worker():
    # the worker imports the tracer by its bare name, as run.py starts it
    sys.modules["tracer"] = tracer
    try:
        return _load("worker")
    finally:
        del sys.modules["tracer"]


worker = _load_worker()


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


def test_canary_digests_match(tmp_path):
    expected = json.loads((PERFBENCH / "canaries.json").read_text())
    assert expected.keys() == worker.WORKLOADS.keys()
    for name, workload in worker.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        assert worker.canary_digest(workload, tdpkex, workdir) == expected[name], name


def test_session_workload_ops_and_finish(tmp_path):
    session = worker.Session(tdpkex, 1, tmp_path)
    for _ in range(session.min_ops):
        ok, times = worker.run_op(session, session.next_input())
        assert ok and times["op"] > 0
    session.finish()
    assert 0 <= session.p_value <= 1
