"""Tests of the benchmark itself, run with ``python3 -m pytest perfbench``.

They check that runs print every declared metric, that traced operation
counts repeat exactly for one seed, that injected faults are counted as
failed ops while the other ops still run, and that the benchmark fails
without the program.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT = ("field_matrix.rng_bytes", "field_matrix.nonsingular_accept_ratio")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@functools.lru_cache(maxsize=None)
def traced_twice(workload: str) -> tuple[dict, dict]:
    return result(bench(workload, 9, 1)), result(bench(workload, 9, 1))


def check_shape(res: dict, declared: list[dict]) -> None:
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["metrics"] == {
        m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result(bench(workload, 5, 0))
    check_shape(res, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_twice(workload)
    check_shape(first, BENCH["per_layer"])
    exact = [name for name in first["metrics"] if name.endswith(".calls") or name in EXACT]
    assert len(exact) == len(tracer.SPANS) + len(EXACT)
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_session_counts_match_the_roadmap():
    m = {name: v["value"] for name, v in traced_twice("session")[0]["metrics"].items()}
    # six accepted nonsingular draws per session: P, Q, R, S, a1, b3
    rejections = 6 / m["field_matrix.nonsingular_accept_ratio"] - 6
    assert m["field_matrix.mat_det.calls"] == pytest.approx(18 + 2 + rejections)
    assert m["field_matrix.mat_inverse.calls"] == 15
    assert m["field_matrix.mat_mul.calls"] == 60
    assert m["poly_tools.char_poly.calls"] == 2
    assert m["commuting.commuting_from_basis.calls"] == 8


def test_faults_are_failed_ops_not_crashes(tmp_path, capsys):
    tdp, _ = worker.import_tdpkex()
    workload = worker.FileCipher(tdp, 3, tmp_path)
    workload.min_ops = 5
    wrong_key = str(tmp_path / "wrong.key")
    other = tdp.run_session(tdp.SplitMix64(99), tdp.FieldParams(worker.PRIME, worker.DIM))
    tdp.cli.write_session_key_file(wrong_key, other.alice_key)

    def corrupt_ciphertext(wl):
        data = bytearray(wl.cipher.read_bytes())
        data[21] = (data[21] + 1) % worker.PRIME  # first entry of the first block, still < p
        wl.cipher.write_bytes(bytes(data))
        return wl.key

    tamper = {1: corrupt_ciphertext, 3: lambda wl: wrong_key}
    res = worker.measure(workload, worker.Reference(tmp_path, workload.reference_work), 0, tamper)
    assert res["attempted"] == 5
    assert res["failed"] == 2
    assert len(res["samples"]["op"]) == 3
    assert capsys.readouterr().err.count("error: decryption failed") == 2  # exit code 5, twice


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("session", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
