"""Exact arithmetic in F_p and dense d x d matrix algebra over F_p.

Everything downstream (key agreement, cipher, attack harness) is built on the
types and operations here: immutable matrices with entries reduced mod p, a
deterministic byte-stream RNG (and an ``os.urandom`` stream for unseeded
use), and one Gauss-Jordan row reduction (``_row_reduce``) behind every
determinant and inverse.  The reduction works on an (n, d, k) stack, so n
matrices cost one pass of numpy calls over the d columns: at d = 8 the cost
is call overhead, not arithmetic.  It lets int64 entries grow across
columns and reduces the stack mod p only before a column whose update could
reach 2^63 (a column takes a bound B on |entries| to B + B^2 (p-1)): every
other column at p = 251, every column at p = 65521, the delayed reduction of
Dumas, Giorgi and Pernet (FFLAS-FFPACK, ACM TOMS 35(3), 2008).  ``_product``
is the same rule for every other int64 matrix product in the package: an
operand is reduced mod p only where the product's sums could reach 2^63.
``mat_det`` and ``mat_inverse`` are the reduction's n = 1 case, and
``_invert`` reduces a whole stack beside the identity.
``draw_segments`` is the one draw rule for nonsingular matrices: it parses a
list of segments (nonsingular matrices, uniform values) ahead as if no
candidate were singular and reduces every candidate in one call per round.
Each round takes its bytes with one ``read`` (one more when rejected values
run them short), finds every segment's values with one acceptance scan per
range over them (``_parse``, whose one-segment case is ``uniform_array``)
and ends with one ``unread`` of the bytes it does not keep;
``random_nonsingular`` is its one-draw case.  A nonsingular draw reduces
[a | I], so the one elimination that accepts a draw also yields its inverse,
which the protocol layer passes on instead of inverting the draw again.  All
arithmetic is integer-exact; there is no floating point anywhere in this
module.  Field elements are plain Python ints in [0, p-1].

Matrices, params and specs are immutable values, safe to share across
threads; the operations are pure.  A random source instance is stateful and
must not be used from two threads at once (distinct instances are
independent).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import FrozenInstanceError, dataclass
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .errors import FactorizationError, ParamsMismatchError, SingularMatrixError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _readonly(a: np.ndarray) -> np.ndarray:
    """a, marked read-only in place: how the package keeps an array it holds or caches."""
    a.flags.writeable = False
    return a


class _BufferedSource:
    """Byte stream served from a buffer; subclasses say how to refill it."""

    def __init__(self, data: Sequence[int] = b""):
        self._buf = bytearray(data)

    def read(self, n: int) -> bytes:
        """Return the next ``n`` bytes of the stream; ValueError for a negative ``n``."""
        if n < 0:
            raise ValueError(f"cannot read {n} bytes")
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

    It exists for reproducibility: seeded runs, golden vectors and tests.
    It is not a CSPRNG.  Its output mix is invertible, so outputs reveal its
    state and with it every later byte; unseeded commands draw from the
    operating system instead (``_SystemSource``).

    Each step adds the 64-bit golden-ratio constant to the state and applies
    the standard xor-shift/multiply output mix; every output word is emitted
    as 8 little-endian bytes.  The same seed therefore produces the identical
    byte stream on every platform, which is what makes seeded protocol runs
    bit-reproducible.  The generator is counter-based (word i is the mix of
    seed + i * gamma), so a refill mixes a block of words in one numpy pass;
    the state stays a Python int and only uint64 arrays wrap, so no numpy
    scalar overflows.
    """

    _BLOCK = _readonly(np.arange(1, 65, dtype=np.uint64) * np.uint64(_GAMMA))

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


class _SystemSource(_BufferedSource):
    """Byte stream read from ``os.urandom``, the operating system's CSPRNG, 512 bytes a refill."""

    def _refill(self) -> None:
        self._buf += os.urandom(512)


class StubSource(_BufferedSource):
    """Fixed byte sequence posing as a random source; for tests and worked examples."""

    def _refill(self) -> None:
        raise RuntimeError("stub source exhausted")


# the most trial divisors trial_division_factorization tries before it gives up
TRIAL_DIVISION_LIMIT = 10_000_000


def trial_division_factorization(n: int) -> list[tuple[int, int]]:
    """Factor n into (prime, exponent) pairs by trial division, smallest prime first.

    Covers desk-scale inputs like p^d - 1 below 2^64 whose second-largest
    prime factor is small; raises FactorizationError when more than
    ``TRIAL_DIVISION_LIMIT`` divisors leave the cofactor unresolved.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    c = n
    trials = 0
    f = 2
    while f * f <= c:
        trials += 1
        if trials > TRIAL_DIVISION_LIMIT:
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


def _check_prime(p) -> int:
    """p as an int if it is a prime with 2 <= p <= 65521, FieldParams' rule; else ValueError."""
    p = _exact_int(p, "prime")
    if not (2 <= p <= 65521):
        raise ValueError(f"prime must satisfy 2 <= p <= 65521, got {p}")
    if trial_division_factorization(p) != [(p, 1)]:
        raise ValueError(f"{p} is not prime")
    return p


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
        object.__setattr__(self, "p", _check_prime(self.p))
        object.__setattr__(self, "d", _exact_int(self.d, "dimension"))
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")


@dataclass(frozen=True)
class DiagonalSpec:
    """A list of d nonzero eigenvalues defining a diagonal matrix."""

    params: FieldParams
    eigenvalues: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", tuple(_exact_int(v, "eigenvalue") for v in self.eigenvalues))
        # object dtype keeps ints beyond int64 exact, and the message names them as given
        _check_eigenvalues(self.params, np.array(self.eigenvalues, dtype=object))


def _exact_int(value, what: str) -> int:
    """value as an int; ValueError unless it is one exactly (2.0 is; 2.7, NaN and inf are not)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{what} {value!r} is not an integer")
    return n


def _check_eigenvalues(params: FieldParams, eigenvalues: np.ndarray) -> None:
    """DiagonalSpec's refusals, run once over a (..., d) stack of eigenvalue lists."""
    if eigenvalues.shape[-1] != params.d:
        raise ValueError(f"expected {params.d} eigenvalues, got {eigenvalues.shape[-1]}")
    bad = (eigenvalues < 1) | (eigenvalues >= params.p)
    if bad.any():
        raise ValueError(f"eigenvalue {eigenvalues[bad][0]} outside [1, p-1]")


def _entries(arr) -> np.ndarray:
    """arr as it is when it casts to int64 without loss, else as an object array of its entries."""
    if isinstance(arr, np.ndarray) and np.can_cast(arr.dtype, np.int64):
        return arr
    return np.array(arr, dtype=object)


def _reduce_entries(arr: np.ndarray, p: int) -> np.ndarray:
    """An ``_entries`` array as int64 reduced mod p, object entries one by one as exact ints."""
    if arr.dtype != object:
        return np.asarray(arr, dtype=np.int64) % p
    return np.array([_exact_int(v, "entry") % p for v in arr.flat], dtype=np.int64).reshape(arr.shape)


@functools.cache
def _identity(d: int) -> np.ndarray:
    """The read-only d x d int64 identity; built once per d."""
    return _readonly(np.eye(d, dtype=np.int64))


class _Value:
    """An immutable value over arrays: the base of ``Matrix``, ``CipherMessage``, the protocol objects and reports.

    A public constructor, or ``_from_stacks`` through the class's ``_init``,
    runs the checks and keeps the result with ``_hold``: the slots set in
    declaration order, each array marked read-only in place, uncopied.
    ``_held`` is ``_hold`` with no check, the trusted wrap of what the package
    has just computed itself.  Copies and unpickled values go through
    ``_hold`` too, and setting or deleting a slot raises FrozenInstanceError.
    Values of one class are equal when every slot is (arrays entry by entry,
    the rest by ``==``), or every slot a class names in ``_compared``:
    ``PublicToken``'s, whose inverses may be None.
    """

    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]]
    _compared: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # read from every class of the MRO: a subclass that declares no slots inherits its base's
        cls._fields = tuple(name for c in reversed(cls.__mro__) for name in vars(c).get("__slots__", ())
                            if name != "__dict__")

    @classmethod
    def _held(cls, *values):
        obj = cls.__new__(cls)
        obj._hold(*values)
        return obj

    @classmethod
    def _from_stacks(cls, *args):
        obj = cls.__new__(cls)
        obj._init(*args)
        return obj

    def _hold(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, _readonly(value) if isinstance(value, np.ndarray) else value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots through here, so a copied array is read-only too
        self._hold(*map(state[1].get, self._fields))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for name in self._compared or self._fields:
            mine, theirs = getattr(self, name), getattr(other, name)
            same = np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            if not same:
                return False
        return True


class Matrix(_Value):
    """Immutable d x d matrix with entries reduced mod p.

    An array that casts to int64 without loss is reduced as it is.  Any
    other input (nested lists, uint64, float or object arrays) is read entry
    by entry as exact ints, so an entry past int64 is reduced mod p like a
    negative one, and an entry that is not an integer (2.7, NaN, inf)
    raises ValueError.  That constructor is the route for outside input;
    ``_held`` wraps an int64 (d, d) array in [0, p) the package has just
    reduced itself.
    """

    __slots__ = ("params", "a")

    def __init__(self, params: FieldParams, a):
        d = params.d
        arr = _entries(a)
        if arr.shape != (d, d):
            raise ValueError(f"expected shape ({d}, {d}), got {arr.shape}")
        self._hold(params, _reduce_entries(arr, params.p))

    @classmethod
    def from_rows(cls, params: FieldParams, rows: Sequence[Sequence[int]]) -> "Matrix":
        return cls(params, rows)

    @classmethod
    def identity(cls, params: FieldParams) -> "Matrix":
        return cls(params, _identity(params.d))

    @classmethod
    def zero(cls, params: FieldParams) -> "Matrix":
        return cls(params, np.zeros((params.d, params.d), dtype=np.int64))

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.a, _identity(self.params.d)))

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


def _byte_width(lo: int, hi: int) -> int:
    """Bytes per draw on [lo, hi]: 0 for one point, 1 below span 256, else 2; wider spans raise."""
    span = hi - lo
    if span < 0:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if span >= 1 << 16:
        raise ValueError(f"span {span} needs more than two bytes a draw; use field_uniform")
    return (span.bit_length() + 7) // 8


_DTYPES = (None, np.uint8, np.dtype("<u2"))  # by bytes a draw


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"draw count {count} is negative")


def _parse(rs, draws: Sequence[tuple[int, int, int]]) -> tuple[list[np.ndarray], list[int], bytes]:
    """Each (lo, hi, count) of ``draws`` parsed in stream order as ``field_uniform`` parses it.

    One ``read`` takes the draws' rejection-free bytes, and one acceptance
    scan per (byte width, alignment, span) over them gives each draw its
    next ``count`` accepted values.  A short buffer gets one top-up ``read``
    (the missing values at the acceptance rate plus the later draws' bytes)
    and is scanned again.  Returns the int64 values, each draw's end offset
    and the buffer.
    """
    widths = [_byte_width(lo, hi) for lo, hi, _ in draws]
    need = [w * count for w, (_, _, count) in zip(widths, draws)]
    buf = rs.read(sum(need))
    scans: dict = {}
    values, ends, pos = [], [], 0
    for i, ((lo, hi, count), w) in enumerate(zip(draws, widths)):
        if w == 0 or count == 0:
            values.append(np.full(count, lo, dtype=np.int64))
            ends.append(pos)
            continue
        align, span = pos % w, hi - lo
        key = w, align, span
        while True:
            if key not in scans:
                vals = np.frombuffer(buf, _DTYPES[w], (len(buf) - align) // w, align).astype(np.int64)
                scans[key] = vals, (vals <= span).nonzero()[0]
            vals, accepted = scans[key]
            first = int(accepted.searchsorted(pos // w))
            short = first + count - len(accepted)
            if short <= 0:
                break
            # bytes are immutable, so growing buf leaves no scan's view dangling
            buf += rs.read(short * w * ((1 << 8 * w) // (span + 1) + 1) + sum(need[i + 1:]))
            scans.clear()
        taken = accepted[first:first + count]
        drawn = vals[taken]
        values.append(drawn + lo if lo else drawn)
        pos = align + w * (int(taken[-1]) + 1)
        ends.append(pos)
    return values, ends, buf


def uniform_array(rs, lo: int, hi: int, count: int) -> np.ndarray:
    """Vector of ``count`` uniform draws on [lo, hi], for spans below 2^16.

    Consumes the byte stream exactly as ``count`` successive field_uniform
    calls would (same bytes, same rejections, same results): it is the
    one-draw case of ``_parse``'s acceptance scan, with one ``read`` when no
    value is rejected and one ``unread`` of the bytes after the last draw.
    A negative count, or a span of 2^16 or more (never a field element's),
    raises ValueError before any byte is read.
    """
    _check_count(count)
    (out,), (end,), buf = _parse(rs, [(lo, hi, count)])
    rs.unread(buf[end:])
    return out


def _product(a: np.ndarray, a_bound: int, b: np.ndarray, b_bound: int, p: int) -> tuple[np.ndarray, int]:
    """a @ b in int64 for entries in [0, a_bound] and [0, b_bound], and the bound on its entries.

    The product's sums are at most k a_bound b_bound for inner size k.  Only
    where that could reach 2^63 is the operand with the larger bound reduced
    mod p first, and the other one too if that is still not enough.
    """
    k = a.shape[-1]
    bound = k * a_bound * b_bound
    if bound >= 1 << 63:
        reduce_a = a_bound >= b_bound or k * a_bound * (p - 1) >= 1 << 63
        reduce_b = a_bound < b_bound or k * (p - 1) * b_bound >= 1 << 63
        if reduce_a:
            a, a_bound = a % p, p - 1
        if reduce_b:
            b, b_bound = b % p, p - 1
        bound = k * a_bound * b_bound
    return a @ b, bound


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product with every entry reduced mod p."""
    params = _check_same_params(a, b)
    # int64 is safe while d (p-1)^2 < 2^63: below d = 2.1e9 at p = 65521
    return Matrix(params, a.a @ b.a)


def mat_pow(a: Matrix, e: int) -> Matrix:
    """a**e by square-and-multiply (e >= 0)."""
    if e < 0:
        raise ValueError("negative exponent; invert first")
    p = a.params.p
    result = _identity(a.params.d)
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
    return _readonly(table)


@functools.cache
def _reduced_columns(p: int, d: int) -> tuple[bool, ...]:
    """For each of the d columns of ``_row_reduce`` over F_p, whether its entries are in [0, p) before it.

    Entries start in [0, p), so |entries| <= B = p - 1, and a column's
    update takes B to B + B^2 (p-1); the stack is reduced only before a
    column that could take it to 2^63.  At p = 251 that is before every
    other column (B reaches 6.1e16 after two), at p = 65521 before every
    column.
    """
    out, bound = [], p - 1
    for c in range(d):
        reduced = c == 0 or bound + bound * bound * (p - 1) >= 1 << 63
        if reduced:
            bound = p - 1
        out.append(reduced)
        bound += bound * bound * (p - 1)
    return tuple(out)


def _row_reduce(m: np.ndarray, p: int) -> list[int]:
    """Gauss-Jordan reduce each d x k block of the (n, d, k) stack m in place (k >= d).

    Returns the n determinants det(m[i, :, :d]) mod p.  Each column takes the
    diagonal entry as its pivot; only the matrices where it is zero search
    below it for the first nonzero entry, and swap that row up negated, which
    leaves the determinant unchanged, so it is the product of the pivots.  A
    matrix with no pivot in some column has determinant 0 and ends with
    garbage rows (its zero pivot scales its row by 0).  Otherwise
    m[i, :, :d] ends as the identity, so on [a | I] the right half becomes
    a^-1.

    Entries must start in [0, p).  The scaled pivot row and the update are
    not reduced: the stack is reduced mod p only before the columns that
    ``_reduced_columns`` marks, where the int64 update could otherwise reach
    2^63.  Between them the pivots, and the entries the pivot search
    compares with 0, are taken mod p on their own, and a swapped row is
    negated as it is.  The stack is reduced before the return, so each
    entry, a singular matrix's garbage included, ends in [0, p).
    """
    n, d = m.shape[:2]
    inv = _inverse_table(p)
    pivots = np.empty((d, n), dtype=np.int64)
    for c, reduced in enumerate(_reduced_columns(p, d)):
        if reduced and c:
            m %= p
        pivots[c] = m[:, c, c] if reduced else m[:, c, c] % p
        if np.count_nonzero(pivots[c]) < n:
            zero = np.flatnonzero(pivots[c] == 0)
            below = m[zero, c + 1:, c]
            below = (below if reduced else below % p) != 0
            found = below.any(axis=1)
            if found.any():
                swap, to = zero[found], c + 1 + below[found].argmax(axis=1)
                m[swap, c], m[swap, to] = -m[swap, to], m[swap, c]
                pivots[c] = m[:, c, c] % p
        row = m[:, c] * inv[pivots[c]][:, None]
        m -= m[:, :, c, None] * row[:, None]
        m[:, c] = row
    m %= p
    return [math.prod(col) % p for col in pivots.T.tolist()]


def _invert(stack: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Inverses and determinants of an (n, d, d) stack; a singular one's inverse is garbage."""
    n, d, _ = stack.shape
    m = np.empty((n, d, 2 * d), dtype=np.int64)
    m[:, :, :d] = stack
    m[:, :, d:] = _identity(d)
    return m[:, :, d:], _row_reduce(m, p)


def mat_det(a: Matrix) -> int:
    """Determinant mod p: the one-matrix case of the stacked row reduction."""
    return _row_reduce(a.a[None].copy(), a.params.p)[0]


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


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """Multiplicative commutator a^-1 b^-1 a b; the identity iff a and b commute."""
    _check_same_params(a, b)
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


class NonsingularDraws(NamedTuple):
    """A ``draw_segments`` segment: n uniform draws from GL(d, F_p), each with its inverse."""

    n: int


class UniformDraws(NamedTuple):
    """A ``draw_segments`` segment: count uniform draws on [lo, hi]."""

    lo: int
    hi: int
    count: int


def draw_segments(
    rs, params: FieldParams, segments: Sequence[NonsingularDraws | UniformDraws]
) -> tuple[list, int]:
    """Draw the segments in stream order with one elimination kernel call per round.

    Returns one result per segment and the number of singular candidates
    rejected.  A ``NonsingularDraws`` result is (matrices, inverses), two
    (n, d, d) arrays; a ``UniformDraws`` result is its int64 values.  A
    negative count raises ValueError before any byte is read.

    Each round parses its unfinished segments in stream order with one
    ``_parse`` as if no candidate were singular, and row-reduces all their
    candidate matrices, one stack, beside the identity in one kernel call:
    the counter-based parse-ahead of Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3" (SC 2011).  A segment whose candidates are
    all nonsingular gets its slices of that stack and its inverses.  At the
    first segment with a singular candidate the round ends: that segment
    keeps its nonsingular candidates, and the next round parses on from its
    missing matrices.  The round's one ``unread`` pushes back the bytes
    after the last segment it keeps.  A singular candidate is discarded
    entirely, never patched, so draws, rejections and stream position equal
    those of drawing the segments one after another, each matrix d*d
    consecutive uniform values on [0, p-1] and a rejected one simply skipped.
    """
    d, p = params.d, params.p
    for seg in segments:
        _check_count(seg.n if isinstance(seg, NonsingularDraws) else seg.count)
    out: list = [None] * len(segments)
    missing = {i: seg.n for i, seg in enumerate(segments) if isinstance(seg, NonsingularDraws)}
    # the matrices and inverses a segment kept in earlier rounds, when it had a singular candidate
    kept: dict = {}
    rejections = start = 0
    while start < len(segments):
        todo = range(start, len(segments))
        values, ends, buf = _parse(rs, [(0, p - 1, missing[i] * d * d) if i in missing else segments[i]
                                        for i in todo])
        stack = np.concatenate([np.empty(0, np.int64), *(values[i - start] for i in todo if i in missing)])
        stack = stack.reshape(-1, d, d)
        inv, dets = _invert(stack, p) if len(stack) else (stack, [])
        start, pos, at = len(segments), ends[-1], 0
        for i, parsed, end in zip(todo, values, ends):
            if i not in missing:
                out[i] = parsed
                continue
            n = missing[i]
            drawn, drawn_inv, good = stack[at:at + n], inv[at:at + n], dets[at:at + n]
            at += n
            if 0 in good:
                ok = np.array(good) != 0
                kept.setdefault(i, []).append((drawn[ok], drawn_inv[ok]))
                # each still-missing matrix is one rejected candidate
                missing[i] = good.count(0)
                rejections += missing[i]
                start, pos = i, end
                break
            if i in kept:
                drawn, drawn_inv = (np.concatenate(part) for part in zip(*kept.pop(i), (drawn, drawn_inv)))
            out[i] = drawn, drawn_inv
        rs.unread(buf[pos:])
    return out, rejections


def random_nonsingular(rs, params: FieldParams) -> tuple[Matrix, int]:
    """Uniform draw from GL(d, F_p) by whole-matrix rejection.

    Draws a full matrix, discards it entirely if the determinant is zero, and
    redraws; never patches individual entries.  Returns the accepted matrix
    and the number of rejected draws (observable for rate statistics).
    """
    (((m,), _),), rejections = draw_segments(rs, params, [NonsingularDraws(1)])
    return Matrix(params, m), rejections


def random_diagonal(rs, params: FieldParams) -> DiagonalSpec:
    """d independent uniform draws on [1, p-1]; repeated values are allowed."""
    values = uniform_array(rs, 1, params.p - 1, params.d)
    return DiagonalSpec(params, tuple(int(v) for v in values))
