"""Exact arithmetic in F_p and dense d x d matrix algebra over F_p.

Everything downstream (key agreement, cipher, attack harness) is built on the
types and operations here: immutable matrices with entries reduced mod p, a
deterministic byte-stream RNG, and one Gauss-Jordan row reduction
(``_row_reduce``) behind every determinant and inverse.  The reduction works
on an (n, d, k) stack, so n matrices cost one pass of numpy calls over the d
columns: at d = 8 the cost is call overhead, not arithmetic.  ``mat_det`` and
``mat_inverse`` are its n = 1 case; ``mat_det_many``, ``mat_inverse_many``
and ``random_nonsingular_many`` hand it several matrices at once.  A
nonsingular draw reduces [a | I], so the one elimination that accepts a draw
also yields its inverse, which the protocol layer passes on instead of
inverting the draw again.  All arithmetic is integer-exact; there is no
floating point anywhere in this module.  Field elements are plain Python
ints in [0, p-1].

Matrices, params and specs are immutable values, safe to share across
threads; the operations are pure.  A random source instance is stateful and
must not be used from two threads at once (distinct instances are
independent).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FactorizationError, ParamsMismatchError, SingularMatrixError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class _BufferedSource:
    """Byte stream served from a buffer; subclasses say how to refill it."""

    def __init__(self, data: Sequence[int] = b""):
        self._buf = bytearray(data)

    def read(self, n: int) -> bytes:
        """Return the next ``n`` bytes of the stream."""
        buf = self._buf
        while len(buf) < n:
            self._refill()
        out = bytes(buf[:n])
        del buf[:n]
        return out

    def unread(self, data: bytes) -> None:
        """Push bytes back onto the front of the stream (used by batch sampling)."""
        self._buf[:0] = data

    def next_byte(self) -> int:
        return self.read(1)[0]


class SplitMix64(_BufferedSource):
    """Deterministic byte stream backed by the SplitMix64 generator.

    Each step adds the 64-bit golden-ratio constant to the state and applies
    the standard xor-shift/multiply output mix; every output word is emitted
    as 8 little-endian bytes.  The same seed therefore produces the identical
    byte stream on every platform, which is what makes seeded protocol runs
    bit-reproducible.  The generator is counter-based (word i is the mix of
    seed + i * gamma), so a refill mixes a block of words in one numpy pass;
    the state stays a Python int and only uint64 arrays wrap, so no numpy
    scalar overflows.
    """

    _BLOCK = np.arange(1, 65, dtype=np.uint64) * np.uint64(_GAMMA)

    def __init__(self, seed: int):
        super().__init__()
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """The next 64-bit output word: the next 8 bytes of the stream, little-endian."""
        return int.from_bytes(self.read(8), "little")

    def _refill(self) -> None:
        z = self._BLOCK + np.uint64(self._state)
        self._state = (self._state + len(self._BLOCK) * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._buf += z.astype("<u8").tobytes()


class StubSource(_BufferedSource):
    """Fixed byte sequence posing as a random source; for tests and worked examples."""

    def _refill(self) -> None:
        raise RuntimeError("stub source exhausted")


def trial_division_factorization(n: int, max_trials: int = 10_000_000) -> list[tuple[int, int]]:
    """Factor n into (prime, exponent) pairs by trial division, smallest prime first.

    Covers desk-scale inputs like p^d - 1 below 2^64 whose second-largest
    prime factor is small; raises FactorizationError when the divisor budget
    runs out before the cofactor is resolved.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    c = n
    trials = 0
    f = 2
    while f * f <= c:
        trials += 1
        if trials > max_trials:
            raise FactorizationError(f"budget exhausted factoring {n}; stuck at cofactor {c}")
        if c % f == 0:
            e = 0
            while c % f == 0:
                c //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if c > 1:
        out.append((c, 1))
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and trial_division_factorization(n) == [(n, 1)]


@dataclass(frozen=True)
class FieldParams:
    """Prime modulus and matrix dimension; every other object carries one of these.

    The prime is capped at 65521 (largest 16-bit prime) so field elements
    always fit the serialized representation; the default (251, 8) is the
    byte-arithmetic parameter set used throughout the docs and demos.  p = 2
    is accepted for linear algebra and counting, but the key-agreement layer
    requires p > 2 (a one-symbol eigenvalue alphabet has no secrets).
    """

    p: int = 251
    d: int = 8

    def __post_init__(self):
        if not (2 <= self.p <= 65521):
            raise ValueError(f"prime must satisfy 2 <= p <= 65521, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")


@dataclass(frozen=True)
class DiagonalSpec:
    """A list of d nonzero eigenvalues defining a diagonal matrix."""

    params: FieldParams
    eigenvalues: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", tuple(int(v) for v in self.eigenvalues))
        if len(self.eigenvalues) != self.params.d:
            raise ValueError(f"expected {self.params.d} eigenvalues, got {len(self.eigenvalues)}")
        for v in self.eigenvalues:
            if not (1 <= v < self.params.p):
                raise ValueError(f"eigenvalue {v} outside [1, p-1]")


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable d x d matrix with entries reduced mod p."""

    params: FieldParams
    a: np.ndarray

    def __post_init__(self):
        d = self.params.d
        arr = np.asarray(self.a, dtype=np.int64) % self.params.p
        if arr.shape != (d, d):
            raise ValueError(f"expected shape ({d}, {d}), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)

    @classmethod
    def from_rows(cls, params: FieldParams, rows: Sequence[Sequence[int]]) -> "Matrix":
        return cls(params, np.array(rows, dtype=np.int64))

    @classmethod
    def identity(cls, params: FieldParams) -> "Matrix":
        return cls(params, np.eye(params.d, dtype=np.int64))

    @classmethod
    def zero(cls, params: FieldParams) -> "Matrix":
        return cls(params, np.zeros((params.d, params.d), dtype=np.int64))

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.a, np.eye(self.params.d, dtype=np.int64)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.params == other.params and bool(np.array_equal(self.a, other.a))

    def __repr__(self) -> str:
        return f"Matrix(p={self.params.p}, d={self.params.d},\n{self.a})"


def _check_same_params(*ms: Matrix) -> FieldParams:
    params = ms[0].params
    for m in ms[1:]:
        if m.params != params:
            raise ParamsMismatchError(f"mixed parameters: {params} vs {m.params}")
    return params


def field_uniform(rs, lo: int, hi: int) -> int:
    """One uniform draw on [lo, hi] by rejection sampling.

    Reads the minimal number of whole bytes covering hi - lo, interprets them
    little-endian, and rejects values above hi - lo, so the result is exactly
    uniform and fully determined by the byte stream.  A single-point range
    consumes no bytes.
    """
    span = hi - lo
    if span < 0:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if span == 0:
        return lo
    nbytes = (span.bit_length() + 7) // 8
    while True:
        val = int.from_bytes(rs.read(nbytes), "little")
        if val <= span:
            return lo + val


def uniform_array(rs, lo: int, hi: int, count: int) -> np.ndarray:
    """Vector of ``count`` uniform draws on [lo, hi].

    Consumes the byte stream exactly as ``count`` successive field_uniform
    calls would (same bytes, same rejections, same results); it just batches
    the scan through numpy and pushes unused read-ahead bytes back.
    """
    span = hi - lo
    if span < 0:
        raise ValueError(f"empty range [{lo}, {hi}]")
    out = np.empty(count, dtype=np.int64)
    if span == 0:
        out[:] = lo
        return out
    nbytes = (span.bit_length() + 7) // 8
    filled = 0
    first_round = True
    while filled < count:
        need = count - filled
        if first_round:
            # the minimum the draws could need, so a stub supplying exactly
            # the rejection-free byte count is never over-read
            n_vals = need
            first_round = False
        else:
            # rejections happened: size further reads by the acceptance rate
            n_vals = min(need * ((1 << (8 * nbytes)) // (span + 1) + 1), 1 << 16)
        raw = rs.read(nbytes * n_vals)
        if nbytes == 1:
            vals = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        else:
            chunks = np.frombuffer(raw, dtype=np.uint8).reshape(n_vals, nbytes).astype(np.int64)
            vals = chunks @ (np.int64(1) << (8 * np.arange(nbytes, dtype=np.int64)))
        good = np.nonzero(vals <= span)[0]
        if good.size >= need:
            last = good[need - 1]
            out[filled:count] = vals[good[:need]]
            filled = count
            rs.unread(raw[(last + 1) * nbytes:])
        else:
            out[filled:filled + good.size] = vals[good]
            filled += good.size
    out += lo
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product with every entry reduced mod p."""
    params = _check_same_params(a, b)
    # int64 is safe: d * (p-1)^2 < 2^63 for p <= 65521, d <= 2000
    return Matrix(params, a.a @ b.a)


def mat_pow(a: Matrix, e: int) -> Matrix:
    """a**e by square-and-multiply (e >= 0)."""
    if e < 0:
        raise ValueError("negative exponent; invert first")
    p = a.params.p
    result = np.eye(a.params.d, dtype=np.int64)
    base = a.a.copy()
    while e:
        if e & 1:
            result = (result @ base) % p
        base = (base @ base) % p
        e >>= 1
    return Matrix(a.params, result)


def mat_trace(a: Matrix) -> int:
    return int(a.a.trace()) % a.params.p


@functools.cache
def _inverse_table(p: int) -> np.ndarray:
    """Read-only inv[a] = a^-1 mod p for a in [1, p-1], inv[0] = 0; built once per prime.

    a^-1 = a^(p-2) by Fermat, by square-and-multiply over the whole table at
    once (a few ms at p = 65521, against about 60 ms for p - 1 ``pow`` calls).
    """
    base = np.arange(p, dtype=np.int64)
    table = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            table = table * base % p
        base = base * base % p
        e >>= 1
    table[0] = 0
    table.flags.writeable = False
    return table


def _row_reduce(m: np.ndarray, p: int) -> list[int]:
    """Gauss-Jordan reduce each d x k block of the (n, d, k) stack m in place (k >= d).

    Returns the n determinants det(m[i, :, :d]) mod p.  Each column takes the
    diagonal entry as its pivot; only the matrices where it is zero search
    below it for the first nonzero entry, and swap that row up negated, which
    leaves the determinant unchanged, so it is the product of the pivots.  A
    matrix with no pivot in some column has determinant 0 and ends with
    garbage rows; the call returns at once when a column has no pivot in any
    matrix of the stack.  Otherwise m[i, :, :d] ends as the identity, so on
    [a | I] the right half becomes a^-1.
    """
    n, d = m.shape[:2]
    inv = _inverse_table(p)
    pivots = np.empty((d, n), dtype=np.int64)
    for c in range(d):
        pivots[c] = m[:, c, c]
        if np.count_nonzero(pivots[c]) < n:
            zero = np.flatnonzero(pivots[c] == 0)
            below = m[zero, c + 1:, c] != 0
            found = below.any(axis=1)
            if found.any():
                swap, to = zero[found], c + 1 + below[found].argmax(axis=1)
                m[swap, c], m[swap, to] = p - m[swap, to], m[swap, c]
                pivots[c] = m[:, c, c]
            elif len(zero) == n:
                return [0] * n
        # the scaled pivot row stays unreduced (< p^2), so the update stays
        # under p^3 < 2^63 and one reduction ends the column
        row = m[:, c] * inv[pivots[c]][:, None]
        m -= m[:, :, c, None] * row[:, None]
        m[:, c] = row
        m %= p
    return [math.prod(col) % p for col in pivots.T.tolist()]


def _stack(ms: Sequence[Matrix]) -> tuple[FieldParams, np.ndarray]:
    params = _check_same_params(*ms)
    return params, np.stack([m.a for m in ms])


def _invert(stack: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Inverses and determinants of an (n, d, d) stack; a singular one's inverse is garbage."""
    n, d, _ = stack.shape
    m = np.empty((n, d, 2 * d), dtype=np.int64)
    m[:, :, :d] = stack
    m[:, :, d:] = np.eye(d, dtype=np.int64)
    return m[:, :, d:], _row_reduce(m, p)


def mat_det(a: Matrix) -> int:
    """Determinant mod p: the one-matrix case of the stacked row reduction."""
    return _row_reduce(a.a[None].copy(), a.params.p)[0]


def mat_det_many(ms: Sequence[Matrix]) -> list[int]:
    """Determinants of several same-params matrices with one stacked reduction."""
    if not ms:
        return []
    params, stack = _stack(ms)
    return _row_reduce(stack, params.p)


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse over F_p by row-reducing [a | I].

    Raises:
        SingularMatrixError: no pivot available in some column (det = 0);
            callers drawing random material regenerate and retry.
    """
    inv, (det,) = _invert(a.a[None], a.params.p)
    if det == 0:
        raise SingularMatrixError(f"matrix has no inverse mod {a.params.p}")
    return Matrix(a.params, inv[0])


def mat_inverse_many(ms: Sequence[Matrix]) -> list[Matrix | None]:
    """Inverses of several same-params matrices with one stacked reduction; None if singular."""
    if not ms:
        return []
    params, stack = _stack(ms)
    inv, det = _invert(stack, params.p)
    return [Matrix(params, m) if dt else None for m, dt in zip(inv, det)]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """Multiplicative commutator a^-1 b^-1 a b; the identity iff a and b commute."""
    params = _check_same_params(a, b)
    ba_inv = mat_inverse(mat_mul(b, a))
    return mat_mul(ba_inv, mat_mul(a, b))


def conjugate(m: Matrix, c: Matrix) -> Matrix:
    """Conjugation c^-1 m c; preserves trace, determinant and characteristic polynomial."""
    _check_same_params(m, c)
    return mat_mul(mat_inverse(c), mat_mul(m, c))


def random_matrix(rs, params: FieldParams) -> Matrix:
    """One unconditioned uniform draw from the full matrix space (may be singular)."""
    entries = uniform_array(rs, 0, params.p - 1, params.d * params.d)
    return Matrix(params, entries.reshape(params.d, params.d))


def _random_nonsingular_with_inverses(
    rs, params: FieldParams, n: int
) -> tuple[list[Matrix], list[Matrix], int]:
    """``random_nonsingular_many`` that also returns the accepted draws' inverses.

    Each round reduces [a | I] for every draw of the round, so the elimination
    that rejects a singular draw leaves an accepted one's inverse beside it.
    """
    d, p = params.d, params.p
    out: list[Matrix] = []
    inverses: list[Matrix] = []
    rejections = 0
    while len(out) < n:
        want = n - len(out)
        stack = uniform_array(rs, 0, p - 1, want * d * d).reshape(want, d, d)
        inv, dets = _invert(stack, p)
        for m, m_inv, det in zip(stack, inv, dets):
            if det:
                out.append(Matrix(params, m))
                inverses.append(Matrix(params, m_inv))
        rejections += dets.count(0)
    return out, inverses, rejections


def random_nonsingular_many(rs, params: FieldParams, n: int) -> tuple[list[Matrix], int]:
    """n uniform draws from GL(d, F_p) by whole-matrix rejection, in stacked rounds.

    Each round draws every still-missing matrix with one ``uniform_array``
    call and row-reduces them all, with their inverses, in one kernel call;
    singular draws are discarded entirely, never patched.  The accepted
    matrices, the total rejection count and the stream position equal those
    of n successive ``random_nonsingular`` calls, since each matrix is d*d
    consecutive uniform values and a rejected one is simply skipped.
    """
    out, _, rejections = _random_nonsingular_with_inverses(rs, params, n)
    return out, rejections


def random_nonsingular(rs, params: FieldParams) -> tuple[Matrix, int]:
    """Uniform draw from GL(d, F_p) by whole-matrix rejection.

    Draws a full matrix, discards it entirely if the determinant is zero, and
    redraws; never patches individual entries.  Returns the accepted matrix
    and the number of rejected draws (observable for rate statistics).
    """
    (m,), rejections = random_nonsingular_many(rs, params, 1)
    return m, rejections


def random_diagonal(rs, params: FieldParams) -> DiagonalSpec:
    """d independent uniform draws on [1, p-1]; repeated values are allowed."""
    values = uniform_array(rs, 1, params.p - 1, params.d)
    return DiagonalSpec(params, tuple(int(v) for v in values))
