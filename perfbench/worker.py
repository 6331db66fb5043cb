"""One benchmark workload in one fresh, single-threaded interpreter.

run.py starts this file once per sample; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload session --seed 1 --seconds 10 \\
        --trace 0 --spawned-at <time.monotonic() of the parent> [--setup-only]

It imports tdpkex from the checkout's ``src/``, prepares the workload's inputs
from the seed, runs the closed loop (each op starts after the previous one
returned), checks every output and the workload's canary digest, and prints
one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

PRIME, DIM = 251, 8
CANARY_SEED = 20181022


class Session:
    """Independent exchanges, each as one ``tdpkex stats`` session does it.

    Exercises the protocol path: elimination kernels dominate, the cipher
    codec is a small share.
    """

    min_ops = 40  # uniformity_stats needs 10*p pooled entries, 64 per block
    trace_ops = 100
    reference_work = ("numpy",)

    def __init__(self, tdp, seed: int, workdir: Path):
        self.tdp = tdp
        self.params = tdp.FieldParams(PRIME, DIM)
        self.bpb = tdp.bytes_per_block(self.params)
        self.rng = random.Random(seed)
        self.blocks = []
        self.p_value = None

    def next_input(self):
        return self.rng.getrandbits(64), self.rng.randbytes(self.bpb)

    def run(self, inp):
        tdp = self.tdp
        seed, plaintext = inp
        t0 = time.perf_counter()
        result = tdp.run_session(tdp.SplitMix64(seed), self.params)
        message = tdp.encrypt_message(result.alice_key, plaintext)
        decrypted = tdp.decrypt_message(result.bob_key, message)
        block = message.blocks[0]
        leak = tdp.similarity_leak_check(tdp.encode_block(plaintext, self.params), block)
        dt = time.perf_counter() - t0
        self.blocks.append(block.c)
        ok = result.agreed and decrypted == plaintext and leak.all_equal
        return ok, {"op": dt}

    def finish(self) -> None:
        """The closing chi-square over this run's blocks; its p-value is recorded, not judged."""
        report = self.tdp.uniformity_stats(self.blocks)
        self.p_value = report.p_value
        self.blocks = []

    def canary(self) -> bytes:
        tdp = self.tdp
        out = b""
        for _ in range(3):
            seed, plaintext = self.next_input()
            result = tdp.run_session(tdp.SplitMix64(seed), self.params)
            block = tdp.encrypt_message(result.alice_key, plaintext).blocks[0]
            out += result.alice_key.k.a.tobytes() + result.bob_key.k.a.tobytes() + block.c.a.tobytes()
        return out


class FileCipher:
    """Encrypt and decrypt one large file through ``tdpkex.cli.main`` under one key.

    Exercises the bulk data path: the same key is inverted again for every
    block, and per-command fixed costs stay at a few percent.  One op is one
    encrypt command followed by one decrypt command.
    """

    min_ops = 1
    trace_ops = 2
    reference_work = ("numpy",)
    blocks = 1000

    def __init__(self, tdp, seed: int, workdir: Path):
        self.tdp = tdp
        params = tdp.FieldParams(PRIME, DIM)
        rng = random.Random(seed)
        self.plaintext = rng.randbytes(self.blocks * tdp.bytes_per_block(params))
        key = tdp.run_session(tdp.SplitMix64(rng.getrandbits(64)), params).alice_key
        self.key = str(workdir / "session.key")
        tdp.cli.write_session_key_file(self.key, key)
        self.plain = workdir / "plain.bin"
        self.plain.write_bytes(self.plaintext)
        self.cipher = workdir / "plain.enc"
        self.out = workdir / "plain.dec"

    def next_input(self):
        return None

    def run(self, inp, tamper=None):
        """``tamper(self)``, if given, runs between the commands and returns the decrypt key path."""
        main = self.tdp.cli.main
        self.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        rc_enc = main(["encrypt", "--key", self.key, "--in", str(self.plain), "--out", str(self.cipher)])
        t_enc = time.perf_counter() - t0
        key = tamper(self) if tamper else self.key
        t0 = time.perf_counter()
        rc_dec = main(["decrypt", "--key", key, "--in", str(self.cipher), "--out", str(self.out)])
        t_dec = time.perf_counter() - t0
        ok = rc_enc == 0 and rc_dec == 0 and self.out.read_bytes() == self.plaintext
        return ok, {"op": t_enc + t_dec, "encrypt": t_enc, "decrypt": t_dec}

    def finish(self) -> None:
        pass

    def canary(self) -> bytes:
        ok, _ = self.run(None)
        return self.cipher.read_bytes() if ok else b""


class CliExchange:
    """Nine-command file pipelines through ``tdpkex.cli.main``, fresh seeds each time.

    The kernels here mostly verify material read back from files, where
    ``session`` mostly generates it, and record writes sit beside reads.
    """

    min_ops = 1
    trace_ops = 20
    reference_work = ("numpy", "argparse", "file")
    files = ("setup.bin", "alice.key", "bob.key", "alice.tok", "bob.tok",
             "alice.sk", "bob.sk", "msg.enc", "msg.dec")

    def __init__(self, tdp, seed: int, workdir: Path):
        self.tdp = tdp
        self.bpb = tdp.bytes_per_block(tdp.FieldParams(PRIME, DIM))
        self.rng = random.Random(seed)
        self.dir = workdir
        self.message = workdir / "msg.bin"

    def next_input(self):
        seeds = [str(self.rng.getrandbits(63)) for _ in range(3)]
        return seeds, self.rng.randbytes(self.bpb)

    def run(self, inp):
        (s_setup, s_alice, s_bob), message = inp
        f = {name: str(self.dir / name) for name in self.files}
        for path in f.values():
            Path(path).unlink(missing_ok=True)
        self.message.write_bytes(message)
        pipeline = [
            ["setup", "--seed", s_setup, "--out", f["setup.bin"]],
            ["keygen", "--in", f["setup.bin"], "--role", "alice", "--seed", s_alice, "--out", f["alice.key"]],
            ["keygen", "--in", f["setup.bin"], "--role", "bob", "--seed", s_bob, "--out", f["bob.key"]],
            ["token", "--key", f["alice.key"], "--out", f["alice.tok"]],
            ["token", "--key", f["bob.key"], "--out", f["bob.tok"]],
            ["shared", "--key", f["alice.key"], "--peer", f["bob.tok"], "--out", f["alice.sk"]],
            ["shared", "--key", f["bob.key"], "--peer", f["alice.tok"], "--out", f["bob.sk"]],
            ["encrypt", "--key", f["alice.sk"], "--in", str(self.message), "--out", f["msg.enc"]],
            ["decrypt", "--key", f["bob.sk"], "--in", f["msg.enc"], "--out", f["msg.dec"]],
        ]
        main = self.tdp.cli.main
        t0 = time.perf_counter()
        for argv in pipeline:
            if main(argv) != 0:
                return False, None
        dt = time.perf_counter() - t0
        read = lambda name: Path(f[name]).read_bytes()  # noqa: E731
        ok = read("alice.sk") == read("bob.sk") and read("msg.dec") == message
        return ok, {"op": dt}

    def finish(self) -> None:
        pass

    def canary(self) -> bytes:
        ok, _ = self.run(self.next_input())
        return b"".join((self.dir / name).read_bytes() for name in self.files) if ok else b""


WORKLOADS = {"session": Session, "file_cipher": FileCipher, "cli_exchange": CliExchange}


def import_tdpkex():
    """Import tdpkex and its CLI from this checkout; returns the package and the import time."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import tdpkex
    import tdpkex.cli
    import_s = time.perf_counter() - t0
    if Path(tdpkex.__file__).resolve().parent != SRC / "tdpkex":
        raise ImportError(f"tdpkex imported from {tdpkex.__file__}, not from {SRC}")
    return tdpkex, import_s


def run_op(workload, inp, tamper=None):
    """One op; an exception is a failed op, reported with its traceback, not a crash."""
    try:
        if tamper is None:
            return workload.run(inp)
        return workload.run(inp, tamper)
    except Exception:
        traceback.print_exc()
        return False, None


class Reference:
    """Times a fixed computation that does not use tdpkex, as a gauge of machine speed.

    The machine this benchmark was written on alternates between speed
    phases lasting about a second, and each kind of work slows by its own
    factor in a slow phase, so op times are reported relative to a gauge
    made of the kinds of work the workload does (see RATIONALE.md):
    ``numpy`` row-reduces an 8 x 8 int64 matrix mod 251 five times,
    ``argparse`` builds and uses a parser, ``file`` writes a file atomically
    and reads it back.
    """

    interval_s = 0.02  # at most one sample per this much loop time

    def __init__(self, workdir: Path, kinds: tuple[str, ...]):
        self.path = workdir / "reference.bin"
        self.parts = [getattr(self, f"_{kind}") for kind in kinds]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    @staticmethod
    def _numpy() -> None:
        import numpy as np

        for _ in range(5):
            m = np.arange(64, dtype=np.int64).reshape(8, 8) * 37 % 251
            for c in range(8):
                m[c] = m[c] * 3 % 251
                m -= m[:, c:c + 1] * m[c] % 251
                m %= 251

    @staticmethod
    def _argparse() -> None:
        parser = argparse.ArgumentParser(prog="reference")
        subs = parser.add_subparsers(dest="command")
        for i in range(4):
            sub = subs.add_parser(f"command{i}")
            sub.add_argument("--key")
            sub.add_argument("--out")
        parser.parse_args(["command2", "--key", "k", "--out", "o"])

    def _file(self) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.path.parent)
        with os.fdopen(fd, "wb") as fh:
            fh.write(bytes(300))
        os.replace(tmp, self.path)
        self.path.read_bytes()


def measure(workload, reference: Reference, seconds: float, tamper=None) -> dict:
    """Closed loop for ``seconds`` (and at least ``min_ops`` ops).

    Each op is timed in seconds and also as a cost: its time over the mean of
    the two reference samples that bracket it.  ``tamper`` maps an op index
    to a hook passed to that op, so a test can inject a fault into one op.
    """
    tamper = tamper or {}
    samples: dict[str, list[float]] = {}
    costs = []
    pending = []  # (loop time, op time or None) of the ops since the last reference sample
    cost_total = ref_total = 0.0
    attempted = failed = 0

    def sample_reference(previous):
        nonlocal cost_total, ref_total
        ref = reference()
        ref_total += ref
        scale = ref if previous is None else (previous + ref) / 2
        for segment, op_s in pending:
            cost_total += segment / scale
            if op_s is not None:
                costs.append(op_s / scale)
        pending.clear()
        return ref, time.perf_counter()

    t_start = time.perf_counter()
    deadline = t_start + seconds
    ref, ref_at = sample_reference(None)
    while attempted < workload.min_ops or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        ok, times = run_op(workload, workload.next_input(), tamper.get(attempted))
        segment = time.perf_counter() - t0
        attempted += 1
        if ok:
            for key, value in times.items():
                samples.setdefault(key, []).append(value)
        else:
            failed += 1
        pending.append((segment, times["op"] if ok else None))
        if time.perf_counter() - ref_at >= reference.interval_s:
            ref, ref_at = sample_reference(ref)
    t0 = time.perf_counter()
    workload.finish()
    pending.append((time.perf_counter() - t0, None))
    sample_reference(ref)
    return {
        "busy_s": time.perf_counter() - t_start - ref_total,
        "cost_total": cost_total,
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "costs": costs,
    }


def run_pass(workload, inputs) -> tuple[float, int]:
    """Run a fixed list of inputs; returns wall time and failed count."""
    failed = 0
    t0 = time.perf_counter()
    for inp in inputs:
        ok, _ = run_op(workload, inp)
        failed += not ok
    workload.finish()
    return time.perf_counter() - t0, failed


def measure_traced(tdp, workload, reference: Reference, seconds: float) -> dict:
    """Alternate untraced and traced passes over one fixed input list until time is up.

    Every pass sees the same inputs, so counts per op are exact.  The ratio of
    traced to untraced pass costs, each pass timed against the reference
    samples around it, gives the tracing overhead.
    """
    inputs = [workload.next_input() for _ in range(workload.trace_ops)]
    tracer = Tracer(tdp)
    cost = {False: 0.0, True: 0.0}
    passes = failed = 0
    deadline = time.perf_counter() + seconds
    ref = reference()
    while passes == 0 or time.perf_counter() < deadline:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                dt, f = run_pass(workload, inputs)
            finally:
                tracer.uninstall()
            ref_next = reference()
            cost[traced] += dt / ((ref + ref_next) / 2)
            ref = ref_next
            failed += f
        passes += 1
    metrics = tracer.metrics(passes * len(inputs))
    metrics["trace.overhead_frac"] = cost[True] / cost[False] - 1
    return {"attempted": 2 * passes * len(inputs), "failed": failed, "layers": metrics}


def canary_digest(workload_cls, tdp, workdir: Path) -> str:
    """SHA-256 of the workload's outputs for the fixed canary seed."""
    canary_dir = workdir / "canary"
    canary_dir.mkdir()
    return hashlib.sha256(workload_cls(tdp, CANARY_SEED, canary_dir).canary()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tdp, import_s = import_tdpkex()
    t_prepare = time.perf_counter()
    cls = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        workdir = Path(tmp)
        workload = cls(tdp, args.seed, workdir)
        prepare_s = time.perf_counter() - t_prepare
        setup_s = time.monotonic() - args.spawned_at
        out = {"setup_s": setup_s, "import_s": import_s, "prepare_s": prepare_s}
        if not args.setup_only:
            reference = Reference(workdir, cls.reference_work)
            if args.trace:
                out.update(measure_traced(tdp, workload, reference, args.seconds))
            else:
                out.update(measure(workload, reference, args.seconds))
                out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
                out["p_value"] = getattr(workload, "p_value", None)
                out["plaintext_bytes"] = len(getattr(workload, "plaintext", b""))
            with open(HERE / "canaries.json") as fh:
                expected = json.load(fh)[args.workload]
            out["canary_ok"] = canary_digest(cls, tdp, workdir) == expected
            out["env"] = {
                "nproc": len(os.sched_getaffinity(0)),
                "python": sys.version.split()[0],
                "numpy": sys.modules["numpy"].__version__,
            }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
