"""Per-layer tracing of tdpkex from outside the package.

The tracer replaces each traced public function at every name it is bound to
inside the package (``tdpkex.mat_mul``, ``tdpkex.protocol.mat_mul``, ...), so
it sees every call that goes through a public name without editing the
source.  Each wrapper is one span: it counts the call and adds the span's
duration minus the time of its traced children to the name's self time.
Spans are aggregated in memory; nothing is written while they run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# layer -> public functions traced under "<layer>.<function>"
TRACED = {
    "field_matrix": (
        "mat_mul",
        "mat_det",
        "mat_inverse",
        "conjugate",
        "uniform_array",
        "random_nonsingular",
        "random_diagonal",
    ),
    "poly_tools": ("char_poly",),
    "commuting": ("commuting_from_basis",),
    "protocol": (
        "run_session",
        "gen_setup",
        "alice_keygen",
        "bob_keygen",
        "alice_token",
        "bob_token",
        "alice_shared",
        "bob_shared",
    ),
    "cipher": (
        "encode_block",
        "decode_block",
        "encrypt_block",
        "decrypt_block",
        "encrypt_message",
        "decrypt_message",
    ),
    "analysis": ("similarity_leak_check", "uniformity_stats"),
    "cli": ("main",),
}

# the five record readers and writers are summed under one span name each
CLI_RECORDS = {
    "read_file": ("read_setup_file", "read_private_file", "read_token_file",
                  "read_session_key_file", "read_ciphertext_file"),
    "write_file": ("write_setup_file", "write_private_file", "write_token_file",
                   "write_session_key_file", "write_ciphertext_file"),
}

SPANS = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns] + [
    f"cli.{group}" for group in CLI_RECORDS
]
COUNTERS = {  # name -> unit
    "field_matrix.rng_bytes": "B",
    "field_matrix.nonsingular_accept_ratio": "ratio",
    "cli.bytes_read": "B",
    "cli.bytes_written": "B",
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Installs counting wrappers into an imported tdpkex and removes them again."""

    def __init__(self, tdp):
        self.tdp = tdp
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.rng_bytes = 0
        self.nonsingular_accepted = 0
        self.nonsingular_drawn = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, before=None, after=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return traced

    def _on_nonsingular(self, args, result):
        self.nonsingular_accepted += 1
        self.nonsingular_drawn += 1 + result[1]

    def _on_read(self, args):
        self.bytes_read += _file_size(args[0])

    def _on_write(self, args, result):
        self.bytes_written += _file_size(args[0])

    def _counting_source(self, base):
        tracer = self

        class CountingSplitMix64(base):
            def read(self, n):
                tracer.rng_bytes += n
                return super().read(n)

            def unread(self, data):
                tracer.rng_bytes -= len(data)
                super().unread(data)

        return CountingSplitMix64

    def install(self) -> None:
        tdp = self.tdp
        replace = {}
        for layer, fns in TRACED.items():
            module = getattr(tdp, layer)
            for fn_name in fns:
                fn = getattr(module, fn_name)
                after = self._on_nonsingular if fn_name == "random_nonsingular" else None
                replace[id(fn)] = self._wrap(f"{layer}.{fn_name}", fn, after=after)
        for group, fns in CLI_RECORDS.items():
            for fn_name in fns:
                fn = getattr(tdp.cli, fn_name)
                if group == "read_file":
                    replace[id(fn)] = self._wrap(f"cli.{group}", fn, before=self._on_read)
                else:
                    replace[id(fn)] = self._wrap(f"cli.{group}", fn, after=self._on_write)
        source = tdp.field_matrix.SplitMix64
        replace[id(source)] = self._counting_source(source)
        modules = [m for n, m in sys.modules.items() if n == "tdpkex" or n.startswith("tdpkex.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def metrics(self, ops: int) -> dict[str, float]:
        """Every span and counter, normalised per op."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_ms"] = self.self_s[name] * 1000 / ops
        out["field_matrix.rng_bytes"] = self.rng_bytes / ops
        out["field_matrix.nonsingular_accept_ratio"] = (
            self.nonsingular_accepted / self.nonsingular_drawn if self.nonsingular_drawn else 0.0
        )
        out["cli.bytes_read"] = self.bytes_read / ops
        out["cli.bytes_written"] = self.bytes_written / ops
        return out
