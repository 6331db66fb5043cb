"""Conjugation cipher: encrypt matrix blocks with the shared session key.

A block m encrypts to k^-1 m k.  Against an attacker who sees only
ciphertexts, mapping one back needs the conjugator k (or an equivalent of
it): that is the blind-conjugacy protection, and it holds against that
attacker alone.  Known plaintext breaks it, because k^-1 m k = c is linear in
k (m k = k c), so a couple of known blocks pin k down to a scalar multiple,
which decrypts just as well (ROADMAP item 7).  Chosen plaintext is simpler
still: the identity and every scalar block encrypt to themselves under every
key.

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
number of numpy calls; a message of up to W blocks is one window.  A
window's float64 temporaries are at most 64 KiB, below glibc's 128 KiB mmap
threshold, so the allocator reuses them from its heap.  As one 1000-block
stack they would be 512 KB each, and each would be mapped and faulted in
afresh from the kernel, which costs about as much as the arithmetic.
encrypt_message writes every window into one preallocated (n, d, d) output,
and decrypt_message joins the windows' bytes.  Encoding multiplies
the blocks' bytes by a table of the limbs of the powers of 256 and carries
the sums into limbs of k base-p digits (4 at p=251), which one vectorised
gather splits into digits; decoding multiplies the digits by a table of the
w-bit words of the powers of p (w = 32 at p=251) and carries the sums into
bytes; and conjugation is two float64 BLAS products, each reduced mod p.
Every one of those float64 products sums integers to less than 2^53, so it
is exact: the codec's tables are sized for that, and a conjugation sum is at
most d(p-1)^2, below 2^53 for every p <= 65521 at any d that fits in
memory.  floor(y / m) is exact for integers 0 <= y < 2^53, which makes the
reductions exact too.  A block whose integer is 256^B or more decodes to a
ValueOutOfRangeError, never to wrapped bytes.

encrypt_message and decrypt_message are the one encrypt and decrypt route,
for the library and the CLI alike.  CipherMessage holds its blocks as one
read-only (n, d, d) stack, checked for framing and range when it is built,
and wraps them as CipherBlocks only when asked.  The single-block functions
are the n = 1 case of the same helpers.  check_framing holds the one rule
tying a plaintext length to its block count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BlockTooLongError, ParamsMismatchError, ValueOutOfRangeError
from .field_matrix import FieldParams, Matrix
from .protocol import SessionKey


def bytes_per_block(params: FieldParams) -> int:
    """Largest byte count B with 256^B <= p^(d*d); exact integers, computed once per params."""
    return _capacity(params.p, params.d)


@functools.cache
def _capacity(p: int, d: int) -> int:
    # keyed by ints: hashing a FieldParams runs Python code, and every message call looks this up
    return ((p ** (d * d)).bit_length() - 1) // 8


@functools.cache
def _window(d: int) -> int:
    """Blocks per window of the message functions: at most 64 KiB of float64 (module docstring)."""
    return max(1, 65536 // (8 * d * d))


@dataclass(frozen=True)
class PlainBlock:
    m: Matrix


@dataclass(frozen=True)
class CipherBlock:
    c: Matrix


@dataclass(frozen=True, eq=False)
class CipherMessage:
    """A framed byte message: its cipher blocks as one stack, plus the true length.

    stack is an (n, d, d) or (n, d*d) array or a sequence of d x d arrays, kept
    as a read-only (n, d, d) int64 copy.  Raises ValueError when the blocks do
    not frame plaintext_length bytes or an entry lies outside [0, p).
    """

    params: FieldParams
    plaintext_length: int
    stack: np.ndarray

    def __post_init__(self):
        d, p = self.params.d, self.params.p
        stack = np.array(self.stack, dtype=np.int64).reshape(-1, d, d)
        check_framing(self.params, self.plaintext_length, len(stack))
        # one reduction checks both ends: a negative entry viewed as uint64 is >= 2^63
        if stack.view(np.uint64).max(initial=0) >= p:
            raise ValueError(f"cipher block entries must lie in [0, {p})")
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)

    @property
    def blocks(self) -> tuple[CipherBlock, ...]:
        """The stack's rows, each wrapped as a CipherBlock."""
        return tuple([CipherBlock(Matrix(self.params, c)) for c in self.stack])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CipherMessage):
            return NotImplemented
        same = (self.params, self.plaintext_length) == (other.params, other.plaintext_length)
        return same and bool(np.array_equal(self.stack, other.stack))


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
    bpb = bytes_per_block(params)
    if len(data) > bpb:
        raise BlockTooLongError(f"{len(data)} bytes exceeds block capacity {bpb}")
    return PlainBlock(Matrix(params, _encode(data, params, 1)[0]))


def decode_block(block: PlainBlock, length: int) -> bytes:
    """Inverse base conversion; returns the last ``length`` bytes of the block.

    Raises:
        ValueOutOfRangeError: length exceeds the block capacity, or the
            matrix encodes an integer outside the padded-byte range, which
            means corruption or a wrong key.
        ValueError: a negative length.
    """
    params = block.m.params
    bpb = bytes_per_block(params)
    if length > bpb:
        raise ValueOutOfRangeError(f"length {length} exceeds block capacity {bpb}")
    check_framing(params, length, min(length, 1))  # refuses a negative length
    return _decode(block.m.a[None], params, length)


def encrypt_block(key: SessionKey, block: PlainBlock) -> CipherBlock:
    """c = k^-1 m k."""
    if key.params != block.m.params:
        raise ParamsMismatchError("key and block parameters differ")
    k, k_inv = key.stack.astype(np.float64)
    c = _conjugate(k_inv, block.m.a[None], k, key.params.p)[0]
    return CipherBlock(Matrix(block.m.params, c))


def decrypt_block(key: SessionKey, block: CipherBlock) -> PlainBlock:
    """m = k c k^-1."""
    if key.params != block.c.params:
        raise ParamsMismatchError("key and block parameters differ")
    k, k_inv = key.stack.astype(np.float64)
    m = _conjugate(k, block.c.a[None], k_inv, key.params.p)[0]
    return PlainBlock(Matrix(block.c.params, m))


def encrypt_message(key: SessionKey, plaintext: bytes) -> CipherMessage:
    """plaintext's capacity-sized chunks, encoded and encrypted window by window into one stack.

    Raises ValueError for a nonempty plaintext at zero capacity.
    """
    params = key.params
    p, d = params.p, params.d
    bpb = _capacity(p, d)
    n = -(-len(plaintext) // max(bpb, 1))
    check_framing(params, len(plaintext), n)  # before _encode, which cannot cut zero-byte chunks
    k, k_inv = key.stack.astype(np.float64)
    stack = np.empty((n, d, d))
    step = _window(d)
    for i in range(0, n, step):
        out = stack[i:i + step]
        chunk = plaintext[i * bpb:(i + step) * bpb]
        _conjugate(k_inv, _encode(chunk, params, len(out)), k, p, out)
    return CipherMessage(params, len(plaintext), stack)


def decrypt_message(key: SessionKey, message: CipherMessage) -> bytes:
    """The plaintext of message under key.

    Raises ParamsMismatchError when key and message parameters differ, and
    ValueOutOfRangeError for a block that decodes outside the padded-byte
    range (corruption or a wrong key).
    """
    params = message.params
    if key.params != params:
        raise ParamsMismatchError("key and message parameters differ")
    p, d = params.p, params.d
    bpb, length = _capacity(p, d), message.plaintext_length
    k, k_inv = key.stack.astype(np.float64)
    step = _window(d)
    parts = []
    for i in range(0, len(message.stack), step):
        window = _conjugate(k, message.stack[i:i + step], k_inv, p)
        # the length left exceeds step * bpb before the last window, so only the last is cut
        parts.append(_decode(window, params, min(length - i * bpb, step * bpb)))
    return b"".join(parts)


@functools.cache
def _layout(p: int, d: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, int]:
    """(limb, weight, base, to_limbs, to_words, w): the tables of the radix codec at (p, d).

    Keyed by ints, as _capacity is.  base = p^k is the limb radix, for the
    largest k >= 1 with 255 * bpb * p^k < 2^53, so row j of to_limbs, the
    base-p^k limbs of 256^(bpb-1-j), makes a block's bytes @ to_limbs sum
    below 2^53.  Row-major digit j of a block is limbs[limb[j]] // weight[j]
    % p, least significant limb first.  Row j of to_words holds the w-bit
    words of p^(d*d-1-j), least significant first, enough to hold any value
    below p^(d*d); w is the largest of 32, 16 and 8 with
    d*d*(p-1)*2^w < 2^53.
    """
    size = d * d
    bpb = _capacity(p, d)
    k = 1
    while 255 * max(bpb, 1) * p ** (k + 1) < 1 << 53:
        k += 1
    base = p ** k
    significance = np.arange(size - 1, -1, -1, dtype=np.int64)  # digits are big-endian
    limb = significance // k
    weight = (p ** (significance % k)).astype(np.float64)
    limbs = range(limb[0] + 1)
    to_limbs = [[256 ** j // base ** i % base for i in limbs] for j in range(bpb - 1, -1, -1)]
    w = 32
    while size * (p - 1) << w >= 1 << 53:
        w //= 2
    words = range(-(-(p ** size - 1).bit_length() // w))
    to_words = [[p ** s >> w * i & (1 << w) - 1 for i in words] for s in range(size - 1, -1, -1)]
    to_limbs = np.array(to_limbs, np.float64).reshape(bpb, len(limbs))  # (0, L) at zero capacity
    to_words = np.array(to_words, np.float64)
    for table in (limb, weight, to_limbs, to_words):
        table.flags.writeable = False
    return limb, weight, base, to_limbs, to_words, w


def _carry(x: np.ndarray, base: int) -> np.ndarray:
    """Carry an (n, L) int64 stack of limbs, least significant first, into [0, base) in place."""
    while np.count_nonzero(c := x // base):
        x -= c * base
        x[:, 1:] += c[:, :-1]  # the top limb never carries out: every row's value < base^L
    return x


def _encode(plaintext: bytes, params: FieldParams, n: int) -> np.ndarray:
    """The (n, d, d) float64 digit stack of plaintext's n capacity-sized chunks.

    The chunks' bytes @ to_limbs, carried, give each block's limbs; the
    limb/weight gather splits them into base-p digits.
    """
    p, d = params.p, params.d
    bpb = _capacity(p, d)
    limb, weight, base, to_limbs, _, _ = _layout(p, d)
    cut = (n - 1) * bpb  # the last chunk is left-padded
    padded = plaintext[:cut] + bytes(n * bpb - len(plaintext)) + plaintext[cut:]
    chunks = np.frombuffer(padded, np.uint8).reshape(n, bpb)
    digits = _carry((chunks @ to_limbs).astype(np.int64), base).astype(np.float64)[:, limb]
    digits /= weight
    np.floor(digits, out=digits)
    return _reduce(digits, p).reshape(n, d, d)


def _decode(stack: np.ndarray, params: FieldParams, length: int) -> bytes:
    """The bytes of a digit stack: every block padded, the last cut to what ``length`` leaves.

    The digits @ to_words, carried, give each block's w-bit words.  Raises
    ValueOutOfRangeError for a block whose integer is 256^bpb or more.
    """
    p, d, n = params.p, params.d, len(stack)
    bpb = _capacity(p, d)
    *_, to_words, w = _layout(p, d)
    words = _carry((stack.reshape(n, d * d) @ to_words).astype(np.int64), 1 << w)
    raw = words[:, ::-1].astype(f">u{w // 8}").view(np.uint8)
    spare = raw.shape[1] - bpb  # bytes above the block's last bpb
    if np.count_nonzero(raw[:, :spare]):
        raise ValueOutOfRangeError("block does not decode to a padded byte block")
    data = raw[:, spare:].tobytes()
    cut = (n - 1) * bpb
    return data[:cut] + data[cut + n * bpb - length:]


def _conjugate(left: np.ndarray, stack: np.ndarray, right: np.ndarray, p: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """left m right mod p for every m of an (n, d, d) stack, into out or a new float64 stack.

    left and right are float64 d x d arrays with entries in [0, p).  Two
    float64 BLAS products, each reduced mod p; their sums stay at most
    d(p-1)^2 < 2^53, so both are exact.
    """
    product = _reduce(left @ stack, p)
    return _reduce(np.matmul(product, right, out=out), p)


def _reduce(y: np.ndarray, p: int) -> np.ndarray:
    """y mod p in place, for a float64 array of integers in [0, 2^53)."""
    q = y / p
    np.floor(q, out=q)
    q *= p
    y -= q
    return y
