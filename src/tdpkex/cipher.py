"""Conjugation cipher: encrypt matrix blocks with the shared session key.

A block m encrypts to k^-1 m k.  Against an attacker who sees only
ciphertexts, mapping one back needs the conjugator k (or an equivalent of
it): that is the blind-conjugacy protection, and it holds against that
attacker alone.  Known plaintext breaks it, because k^-1 m k = c is linear in
k (m k = k c), so a couple of known blocks pin k down to a scalar multiple,
which decrypts just as well (ROADMAP item 7).  Chosen plaintext is simpler
still: the identity and every scalar block encrypt to themselves under every
key.  So ciphertexts are malleable with no key at all: conjugation is linear,
and c + lambda I decrypts to m + lambda I.

Two further properties every user must understand before touching this:

* Conjugation preserves trace, determinant and the characteristic polynomial
  of the plaintext block.  Those invariants leak through every ciphertext; an
  attacker who can guess candidate plaintexts can check them.  See
  analysis.similarity_leak_check.
* Blocks are encrypted independently and deterministically (no IV, no
  randomization), so equal plaintext blocks produce equal ciphertext blocks.

Byte payloads are packed by exact radix conversion: a block of raw bytes is
read as a big-endian base-256 integer and re-expressed in exactly d*d
big-endian base-p digits.  Capacity is the largest B with 256^B <= p^(d*d)
(63 bytes for p=251, d=8, about 1.6% expansion).

Every message, of one block or a thousand, is converted and conjugated in
windows of W = 65536 // (8 d d) blocks (128 at d = 8), each by a fixed
number of numpy calls; a message of up to W blocks is one window.  A window
is held digit-major, a (d*d, n) float64 array whose row j is digit j of
every block.  Its float64 temporaries are at most 64 KiB, below glibc's
128 KiB mmap threshold, so the allocator reuses them from its heap; as one
1000-block stack they would be 512 KB each, and each would be mapped and
faulted in afresh from the kernel, which costs about as much as the
arithmetic.  encrypt_message writes each window into one (n, d, d) uint16
output by one transposed assignment; decrypt_message reads each by one
transposed cast and joins the windows' bytes.  Encoding multiplies the
blocks' bytes by a table of the limbs of the powers of 256 and carries the
sums into limbs of k base-p digits (4 at p=251), most significant first.
One division by p^k, ..., p^1, p^0 and one floor give Q_t = floor(limb /
p^(k-t)), and digit t is Q_t - p Q_(t-1), in [0, p) by the definition of
floor, so split digits need no reduction; the top limb's unused digits are
leading rows, sliced off.  Decoding multiplies the digits by a table of the
w-bit words of the powers of p (w = 32 at p=251) and carries the sums by
shift and mask.  Conjugation is one GEMM, left @ Z.reshape(d, d*n), and one
d-batched GEMM, right.T @ (left Z).reshape(d, d, n): a few wide products,
not a small one per block (Goto and van de Geijn, ACM TOMS 34(3), 2008).
The second is reduced mod p and the first only where the 2^53 bound
demands it (the delayed reduction of Dumas, Giorgi and Pernet,
FFLAS-FFPACK, ACM TOMS 35(3), 2008).  Unreduced, the first product's sums
are at most d(p-1)^2, so the second's are at most d^2(p-1)^3, which is
below 2^53 for d <= 5 at p = 65521 and for any d below 24,000 at p = 251;
past that bound the first product is reduced, and the second's sums are at
most d(p-1)^2 too.  Every one of those float64 products sums integers to
less than 2^53, so it is exact: the codec's tables are sized for that, and
d(p-1)^2 is below 2^53 for every p <= 65521 at any d that fits in memory.
floor(y / m) is exact for integers 0 <= y < 2^53, which makes the
reductions and the digit split exact too.  A block whose integer is 256^B
or more decodes to a ValueOutOfRangeError, never to wrapped bytes.

encrypt_message and decrypt_message are the one encrypt and decrypt route,
for the library and the CLI alike.  CipherMessage holds its blocks as one
read-only (n, d, d) uint16 stack, two bytes per entry because p <= 65521,
checked for framing and range when built from outside input, and wraps them
as CipherBlocks only when asked.  What the package has just computed
(encrypt_message's stack, a block function's matrix, a ``.blocks`` row) is
wrapped with no check (``_held``).  The single-block functions are the
n = 1 case of the same helpers.  check_framing holds the one rule tying a
plaintext length to its block count.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BlockTooLongError, ParamsMismatchError, ValueOutOfRangeError
from .field_matrix import FieldParams, Matrix, _entries, _exact_int, _readonly, _Value
from .protocol import SessionKey


def bytes_per_block(params: FieldParams) -> int:
    """Largest byte count B with 256^B <= p^(d*d); exact integers, computed once per params."""
    return _capacity(params.p, params.d)


@functools.cache
def _capacity(p: int, d: int) -> int:
    # keyed by ints: hashing a FieldParams runs Python code, and every message call looks this up
    return ((p ** (d * d)).bit_length() - 1) // 8


@dataclass(frozen=True)
class PlainBlock:
    m: Matrix


@dataclass(frozen=True)
class CipherBlock:
    c: Matrix


class CipherMessage(_Value):
    """A framed byte message: its cipher blocks as one stack, plus the true length.

    stack is an (n, d, d) or (n, d*d) array or a sequence of d x d arrays, kept
    as a read-only (n, d, d) uint16 copy.  Raises ValueError when a nonempty
    stack has any other shape, the blocks do not frame plaintext_length bytes,
    plaintext_length or an entry is not an integer (``Matrix``'s rule: 2.0
    is, 2.7, NaN and '1' are not) or an entry lies outside [0, p).  That
    constructor is the route for outside input; ``_held`` keeps the framed
    (n, d, d) uint16 stack in [0, p) that encrypt_message has just built.
    """

    __slots__ = ("params", "plaintext_length", "stack")

    def __init__(self, params: FieldParams, plaintext_length: int, stack):
        d, p = params.d, params.p
        plaintext_length = _exact_int(plaintext_length, "plaintext length")
        stack = shaped = _entries(stack)
        if stack.dtype == object:  # exact ints, each outside [0, p) standing in as p for the range check
            entries = (_exact_int(v, "entry") for v in stack.flat)
            stack = np.array([v if 0 <= v < p else p for v in entries], np.uint64).reshape(stack.shape)
        elif stack.dtype.kind != "u":  # widened: a negative entry viewed as uint64 is >= 2^63
            stack = stack.astype(np.int64).view(np.uint64)
        stack = stack.reshape(-1, d, d)
        check_framing(params, plaintext_length, len(stack))
        if len(stack) and shaped.shape[1:] not in ((d, d), (d * d,)):
            raise ValueError(f"a stack of shape {shaped.shape} does not hold {d} x {d} blocks")
        if stack.max(initial=0) >= p:
            raise ValueError(f"cipher block entries must lie in [0, {p})")
        self._hold(params, plaintext_length, stack.astype(np.uint16))  # p <= 65521 always fits

    @property
    def blocks(self) -> tuple[CipherBlock, ...]:
        """The stack's rows as CipherBlocks, each of an int64 copy, so a kept block does not pin the stack."""
        return tuple([CipherBlock(Matrix._held(self.params, c.astype(np.int64))) for c in self.stack])


def check_framing(params: FieldParams, plaintext_length: int, count: int) -> None:
    """Raise ValueError unless count blocks frame plaintext_length bytes at params.

    A negative length is refused, and so is a nonzero one at parameters
    whose blocks cannot carry one byte.
    """
    if plaintext_length < 0:
        raise ValueError(f"plaintext length {plaintext_length} is negative")
    bpb = bytes_per_block(params)
    if plaintext_length and not bpb:
        raise ValueError(f"p={params.p}, d={params.d} cannot carry even one byte per block")
    if count != (-(-plaintext_length // bpb) if plaintext_length else 0):
        raise ValueError(f"{count} blocks inconsistent with length {plaintext_length}")


def encode_block(data: bytes, params: FieldParams) -> PlainBlock:
    """Pack at most bytes_per_block(params) bytes into one matrix.

    The block is left-padded with zero bytes, read as one big-endian integer,
    and written out as exactly d*d big-endian base-p digits in row-major
    order.  Injective on padded blocks since 256^B <= p^(d*d).
    """
    codec = _layout(params.p, params.d)
    if len(data) > codec.bpb:
        raise BlockTooLongError(f"{len(data)} bytes exceeds block capacity {codec.bpb}")
    digits = _encode(data, codec, 1).reshape(params.d, params.d)
    return PlainBlock(Matrix._held(params, digits.astype(np.int64)))


def decode_block(block: PlainBlock, length: int) -> bytes:
    """Inverse base conversion; returns the last ``length`` bytes of the block.

    Raises:
        ValueOutOfRangeError: length exceeds the block capacity, or the
            matrix encodes an integer outside the padded-byte range, which
            means corruption or a wrong key.
        ValueError: a negative length.
    """
    params, length = block.m.params, _exact_int(length, "length")
    codec = _layout(params.p, params.d)
    if length > codec.bpb:
        raise ValueOutOfRangeError(f"length {length} exceeds block capacity {codec.bpb}")
    check_framing(params, length, min(length, 1))  # refuses a negative length
    return _decode(block.m.a.reshape(-1, 1), codec, length)


def encrypt_block(key: SessionKey, block: PlainBlock) -> CipherBlock:
    """c = k^-1 m k."""
    if key.params != block.m.params:
        raise ParamsMismatchError("key and block parameters differ")
    k, k_inv = key.stack.astype(np.float64)
    c = _conjugate(k_inv, block.m.a.reshape(-1, 1), k, key.params.p).reshape(k.shape)
    return CipherBlock(Matrix._held(block.m.params, c.astype(np.int64)))


def decrypt_block(key: SessionKey, block: CipherBlock) -> PlainBlock:
    """m = k c k^-1."""
    if key.params != block.c.params:
        raise ParamsMismatchError("key and block parameters differ")
    k, k_inv = key.stack.astype(np.float64)
    m = _conjugate(k, block.c.a.reshape(-1, 1), k_inv, key.params.p).reshape(k.shape)
    return PlainBlock(Matrix._held(block.c.params, m.astype(np.int64)))


def encrypt_message(key: SessionKey, plaintext: bytes) -> CipherMessage:
    """plaintext's capacity-sized chunks, encoded and encrypted window by window into one stack.

    Raises ValueError for a nonempty plaintext at zero capacity.
    """
    params = key.params
    codec = _layout(params.p, params.d)
    bpb, step = codec.bpb, codec.window
    n = -(-len(plaintext) // max(bpb, 1))
    check_framing(params, len(plaintext), n)  # before _encode, which cannot cut zero-byte chunks
    k, k_inv = key.stack.astype(np.float64)
    stack = np.empty((n, params.d, params.d), np.uint16)
    blocks = stack.reshape(n, codec.size)
    for i in range(0, n, step):
        out = blocks[i:i + step]
        chunk = plaintext[i * bpb:(i + step) * bpb]
        out[...] = _conjugate(k_inv, _encode(chunk, codec, len(out)), k, codec.p).T
    return CipherMessage._held(params, len(plaintext), stack)


def decrypt_message(key: SessionKey, message: CipherMessage) -> bytes:
    """The plaintext of message under key.

    Raises ParamsMismatchError when key and message parameters differ, and
    ValueOutOfRangeError for a block that decodes outside the padded-byte
    range (corruption or a wrong key).
    """
    params = message.params
    if key.params != params:
        raise ParamsMismatchError("key and message parameters differ")
    codec = _layout(params.p, params.d)
    bpb, step, length = codec.bpb, codec.window, message.plaintext_length
    k, k_inv = key.stack.astype(np.float64)
    blocks = message.stack.reshape(-1, codec.size)
    parts = []
    for i in range(0, len(blocks), step):
        window = blocks[i:i + step].T.astype(np.float64, order="C")
        # the length left exceeds step * bpb before the last window, so only the last is cut
        parts.append(_decode(_conjugate(k, window, k_inv, codec.p), codec, min(length - i * bpb, step * bpb)))
    return b"".join(parts)


# everything a message call reads at one (p, d), so that it makes one cached lookup (_layout)
_Codec = collections.namedtuple("_Codec", "p size bpb window base divisors to_limbs to_words w")


@functools.cache
def _layout(p: int, d: int) -> _Codec:
    """The radix codec's constants and tables at (p, d), built once.

    Keyed by ints, as _capacity is.  base = p^k is the limb radix, for the
    largest k >= 1 with 255 * bpb * p^k < 2^53, so row j of to_limbs, the
    base-p^k limbs of 256^(bpb-1-j), most significant first, makes a
    block's bytes @ to_limbs sum below 2^53.  divisors is the (k+1, 1, 1)
    column p^k, ..., p^1, p^0 that splits a limb into its k digits.  Row j
    of to_words holds the w-bit words of p^(d*d-1-j), least significant
    first, enough to hold any value below p^(d*d); w is the largest of 32,
    16 and 8 with d*d*(p-1)*2^w < 2^53.
    """
    size = d * d
    bpb = _capacity(p, d)
    k = 1
    while 255 * max(bpb, 1) * p ** (k + 1) < 1 << 53:
        k += 1
    base = p ** k
    # each power's limbs are the next lower power's times 256, carried
    to_limbs = np.zeros((bpb, -(-size // k)), np.int64)
    to_limbs[-1:, -1] = 1
    for j in range(bpb - 2, -1, -1):
        to_limbs[j] = _carry(to_limbs[j + 1, :, None] * 256, base)[:, 0]
    w = 32
    while size * (p - 1) << w >= 1 << 53:
        w //= 2
    powers = list(itertools.accumulate([p] * (size - 1), int.__mul__, initial=1))  # p^0 .. p^(d*d-1)
    words = -(-(powers[-1] * p - 1).bit_length() // w)
    raw = b"".join(power.to_bytes(words * w // 8, "little") for power in reversed(powers))
    to_limbs = _readonly(to_limbs.astype(np.float64))
    to_words = _readonly(np.frombuffer(raw, f"<u{w // 8}").reshape(size, -1).astype(np.float64))
    divisors = _readonly(np.array([p ** t for t in range(k, -1, -1)], np.float64)[:, None, None])
    window = max(1, 65536 // (8 * size))  # blocks per window: at most 64 KiB of float64 (module docstring)
    return _Codec(p, size, bpb, window, base, divisors, to_limbs, to_words, w)


def _carry(x: np.ndarray, base: int) -> np.ndarray:
    """Carry an (L, n) int64 array of limbs, most significant row first, into [0, base) in place."""
    c = x // base  # nearly every product's sums carry, so the first pass runs unchecked
    while True:
        x -= c * base
        x[:-1] += c[1:]  # the top limb never carries out: every column's value < base^L
        if not np.count_nonzero(c := x // base):
            return x


def _encode(plaintext: bytes, codec: _Codec, n: int) -> np.ndarray:
    """The (d*d, n) float64 digit-major window of plaintext's n capacity-sized chunks.

    Row j holds digit j of every block.  The chunks' bytes @ to_limbs,
    carried, give each block's limbs, most significant first.  Q =
    floor(limbs / (p^k ... p^0)) is held divisor-major, (k+1, L, n), so the
    split Q[1:] - p Q[:-1] reads whole slices (numpy buffers a strided
    operand, 64 KiB at a time), and one transposed copy puts its digits,
    already in [0, p), in limb order.
    """
    p, bpb = codec.p, codec.bpb
    cut = (n - 1) * bpb  # the last chunk is left-padded
    padded = plaintext[:cut] + bytes(n * bpb - len(plaintext)) + plaintext[cut:]
    chunks = np.frombuffer(padded, np.uint8).reshape(n, bpb)
    limbs = _carry((chunks @ codec.to_limbs).T.astype(np.int64, order="C"), codec.base)
    q = limbs / codec.divisors
    np.floor(q, out=q)
    digits = (q[1:] - q[:-1] * p).transpose(1, 0, 2).reshape(-1, n)
    return digits[len(digits) - codec.size:]  # the top limb's unused digits lead


def _decode(window: np.ndarray, codec: _Codec, length: int) -> bytes:
    """The bytes of a (d*d, n) digit-major window: every block padded, the last cut to what ``length`` leaves.

    to_words.T @ window, carried by shift and mask, gives each block's w-bit
    words.  Raises ValueOutOfRangeError for a block whose integer is
    256^bpb or more.
    """
    bpb, w, n = codec.bpb, codec.w, window.shape[1]
    # to_words.T @ window, computed as its transpose: 130 us against 162 at d = 32 (OpenBLAS, one Xeon core)
    words = (window.T @ codec.to_words).T.astype(np.int64, order="C")
    c = words >> w  # as in _carry, the first pass runs unchecked
    while True:
        words &= (1 << w) - 1
        words[1:] += c[:-1]  # the top word never carries out: every value < p^(d*d)
        if not np.count_nonzero(c := words >> w):
            break
    raw = words[::-1].T.astype(f">u{w // 8}", order="C").view(np.uint8)
    spare = raw.shape[1] - bpb  # bytes above the block's last bpb
    if np.count_nonzero(raw[:, :spare]):
        raise ValueOutOfRangeError("block does not decode to a padded byte block")
    data = raw[:, spare:].tobytes()
    cut = (n - 1) * bpb
    return data[:cut] + data[cut + n * bpb - length:]


def _conjugate(left: np.ndarray, window: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """left m right mod p for every block m of a (d*d, n) digit-major window, as a new window.

    left and right are float64 d x d arrays with entries in [0, p).  The
    first product is one GEMM over the window seen as d x (d*n), the second
    one GEMM per row of left m; the first is reduced mod p only when
    d^2(p-1)^3, the bound on the second's sums if it is not, reaches 2^53
    (d >= 6 at p = 65521).  Reduced, the sums stay at most d(p-1)^2 < 2^53.
    """
    d = len(left)
    product = left @ window.reshape(d, -1)
    if d * d * (p - 1) ** 3 >= 1 << 53:
        _reduce(product, p)
    return _reduce(right.T @ product.reshape(d, d, -1), p).reshape(d * d, -1)


def _reduce(y: np.ndarray, p: int) -> np.ndarray:
    """y mod p in place, for a float64 array of integers in [0, 2^53)."""
    q = y / p
    np.floor(q, out=q)
    q *= p
    y -= q
    return y
