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

A message is converted and conjugated as one (n, d, d) stack, on one of two
paths chosen by its block count.  Up to _BULK (16) blocks, a few Python
divmods cut each block integer into int64 limbs of k base-p digits (7 at
p=251), one vectorised pass splits all limbs into digits, two stacked int64
matmuls conjugate every block, and decoding rebuilds the limbs with one
matmul against the powers of p; limbs stay below 2^62.  Above _BULK blocks,
every step is a fixed number of numpy calls per message: the bytes @ a table
of limbs of the powers of 256, then a carry loop, give the limbs; the digits
@ a table of 32-bit words of the powers of p, then a carry loop, give the
bytes; and conjugation is two float64 BLAS products, each reduced mod p.
Every float64 product there sums integers to less than 2^53, so it is exact:
the codec's tables are sized for that, and a conjugation sum is at most
d(p-1)^2, below 2^53 for every p <= 65521 at any d that fits in memory.
floor(y / m) is exact for integers 0 <= y < 2^53, which makes the reductions
exact too.  Both paths give the same bytes and the same range-check
refusals; the one-block path is the reference the bulk path is tested
against.

encrypt_stack and decrypt_stack are the one encrypt and decrypt
implementation: encrypt_message and decrypt_message wrap and unwrap their
stacks as CipherBlocks, and the CLI hands the stack straight between them and
the ciphertext file, building no per-block object.  The single-block
functions are the n = 1 case of the same helpers.  check_framing holds the
one rule tying a plaintext length to its block count.
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


@dataclass(frozen=True)
class PlainBlock:
    m: Matrix


@dataclass(frozen=True)
class CipherBlock:
    c: Matrix


@dataclass(frozen=True)
class CipherMessage:
    """A framed byte message: independent cipher blocks plus the true length."""

    params: FieldParams
    plaintext_length: int
    blocks: tuple[CipherBlock, ...]

    def __post_init__(self):
        check_framing(self.params, self.plaintext_length, len(self.blocks))


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
    return PlainBlock(Matrix(params, _encode([int.from_bytes(data, "big")], params)[0]))


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
    if key.k.params != block.m.params:
        raise ParamsMismatchError("key and block parameters differ")
    c = _conjugate(key.k_inv, np.array([block.m.a]), key.k)[0]
    return CipherBlock(Matrix(block.m.params, c))


def decrypt_block(key: SessionKey, block: CipherBlock) -> PlainBlock:
    """m = k c k^-1."""
    if key.k.params != block.c.params:
        raise ParamsMismatchError("key and block parameters differ")
    m = _conjugate(key.k, np.array([block.c.a]), key.k_inv)[0]
    return PlainBlock(Matrix(block.c.params, m))


def encrypt_stack(key: SessionKey, plaintext: bytes) -> np.ndarray:
    """The (n, d, d) int64 ciphertext of plaintext, as capacity-sized chunks encrypted as one stack.

    Raises ValueError for a nonempty plaintext at zero capacity.
    """
    params = key.k.params
    bpb = bytes_per_block(params)
    offsets = range(0, len(plaintext), bpb) if bpb else ()
    check_framing(params, len(plaintext), len(offsets))
    if len(offsets) > _BULK:
        stack = _conjugate_bulk(key.k_inv, _encode_bulk(plaintext, params, len(offsets)), key.k)
        return stack.astype(np.int64)
    stack = _encode([int.from_bytes(plaintext[off:off + bpb], "big") for off in offsets], params)
    return _conjugate(key.k_inv, stack, key.k)


def decrypt_stack(
    key: SessionKey, stack: np.ndarray | list[np.ndarray], plaintext_length: int
) -> bytes:
    """The plaintext of n ciphertext blocks with entries in [0, p) under key's params.

    stack is an (n, d, d) array or a sequence of n d x d arrays; it is read,
    not written.  Raises ValueError when n blocks do not frame
    plaintext_length bytes, and ValueOutOfRangeError for a block that decodes
    outside the padded-byte range (corruption or a wrong key).
    """
    params = key.k.params
    check_framing(params, plaintext_length, len(stack))
    stack = np.asarray(stack, dtype=np.int64).reshape(-1, params.d, params.d)
    if len(stack) > _BULK:
        return _decode_bulk(_conjugate_bulk(key.k, stack, key.k_inv), params, plaintext_length)
    return _decode(_conjugate(key.k, stack, key.k_inv), params, plaintext_length)


def encrypt_message(key: SessionKey, plaintext: bytes) -> CipherMessage:
    """encrypt_stack, with every block wrapped as a CipherBlock."""
    params = key.k.params
    blocks = tuple([CipherBlock(Matrix(params, c)) for c in encrypt_stack(key, plaintext)])
    return CipherMessage(params, len(plaintext), blocks)


def decrypt_message(key: SessionKey, message: CipherMessage) -> bytes:
    """decrypt_stack of the message's blocks, after checking they share the key's params."""
    params = message.params
    if key.k.params != params:
        raise ParamsMismatchError("key and message parameters differ")
    for block in message.blocks:
        if block.c.params != params:
            raise ParamsMismatchError("key and block parameters differ")
    return decrypt_stack(key, [block.c.a for block in message.blocks], message.plaintext_length)


@functools.cache
def _limb_layout(
    params: FieldParams, limit: int = 1 << 62
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Where each of a block's d*d digits sits in its int64 limbs, least significant limb first.

    Returns (limb, weight, base, gather): row-major digit j is
    limbs[limb[j]] // weight[j] % p, base = p^k is the limb radix, and
    digits @ gather rebuilds the limbs.  k is the largest with p^k < limit;
    the default limit 2^62 (k = 7 at p = 251, 3 at p = 65521) keeps every
    limb in int64.
    """
    p, size = params.p, params.d * params.d
    k = 1
    while p ** (k + 1) < limit:
        k += 1
    significance = np.arange(size - 1, -1, -1, dtype=np.int64)  # digits are big-endian
    limb = significance // k
    weight = p ** (significance % k)
    gather = np.zeros((size, limb[0] + 1), dtype=np.int64)
    gather[np.arange(size), limb] = weight
    for table in (limb, weight, gather):
        table.flags.writeable = False
    return limb, weight, p ** k, gather


def _encode(values: list[int], params: FieldParams) -> np.ndarray:
    """The (n, d, d) digit stack of n block integers, each below p^(d*d).

    A few Python divmods cut each integer into int64 limbs; one vectorised
    pass splits every limb of the stack into its base-p digits.
    """
    p, d, n = params.p, params.d, len(values)
    limb, weight, base, gather = _limb_layout(params)
    count = gather.shape[1]
    limbs = []
    for value in values:
        for _ in range(count):
            value, low = divmod(value, base)
            limbs.append(low)
    digits = np.array(limbs, dtype=np.int64).reshape(n, count)[:, limb]
    digits //= weight
    digits %= p
    return digits.reshape(n, d, d)


def _decode(stack: np.ndarray, params: FieldParams, length: int) -> bytes:
    """The bytes of a digit stack: every block padded, the last cut to what ``length`` leaves.

    Raises ValueOutOfRangeError for a block whose integer is 256^bpb or more.
    """
    n = len(stack)
    _, _, base, gather = _limb_layout(params)
    bpb = bytes_per_block(params)
    limit = 1 << (8 * bpb)
    parts = []
    for limbs in (stack.reshape(n, len(gather)) @ gather).tolist():
        value = 0
        for low in reversed(limbs):
            value = value * base + low
        if value >= limit:
            raise ValueOutOfRangeError("block does not decode to a padded byte block")
        parts.append(value.to_bytes(bpb, "big"))
    if parts:
        parts[-1] = parts[-1][n * bpb - length:]
    return b"".join(parts)


def _conjugate(left: Matrix, stack: np.ndarray, right: Matrix) -> np.ndarray:
    """left m right mod p for every m of an (n, d, d) stack, as a new stack."""
    p = left.params.p
    product = np.matmul(left.a, stack)
    product %= p
    product = np.matmul(product, right.a)
    product %= p
    return product


# Messages of more than _BULK blocks take the bulk path below.  Its fixed cost
# per message beats the per-block Python work above from about 8 blocks on at
# (251, 8); 16 leaves a margin.  At small blocks such as (7, 3) the crossover
# lies near 32 blocks, where either path takes tens of microseconds.
_BULK = 16


@functools.cache
def _bulk_layout(
    params: FieldParams,
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, int]:
    """(limb, weight, base, to_limbs, to_words, w): the tables of the bulk codec.

    limb, weight and base are _limb_layout's for the largest k with
    255 * bpb * p^k < 2^53, and row j of to_limbs holds the limbs of
    256^(bpb-1-j), so a block's bytes @ to_limbs sums below 2^53.  Row j of
    to_words holds the w-bit words of p^(d*d-1-j), least significant first,
    enough to hold any value below p^(d*d); w is the largest of 32, 16 and 8
    with d*d*(p-1)*2^w < 2^53.
    """
    p, size = params.p, params.d * params.d
    bpb = bytes_per_block(params)
    limb, weight, base, gather = _limb_layout(params, -(-(1 << 53) // (255 * bpb)))
    limbs = range(gather.shape[1])
    to_limbs = [[256 ** j // base ** i % base for i in limbs] for j in range(bpb - 1, -1, -1)]
    w = 32
    while size * (p - 1) << w >= 1 << 53:
        w //= 2
    words = range(-(-(p ** size - 1).bit_length() // w))
    to_words = [[p ** s >> w * i & (1 << w) - 1 for i in words] for s in range(size - 1, -1, -1)]
    weight, to_limbs, to_words = (np.array(t, np.float64) for t in (weight, to_limbs, to_words))
    for table in (weight, to_limbs, to_words):
        table.flags.writeable = False
    return limb, weight, base, to_limbs, to_words, w


def _carry(x: np.ndarray, base: int) -> np.ndarray:
    """Carry an (n, L) int64 stack of limbs, least significant first, into [0, base) in place."""
    while (c := x // base).any():
        x -= c * base
        x[:, 1:] += c[:, :-1]  # the top limb never carries out: every row's value < base^L
    return x


def _encode_bulk(plaintext: bytes, params: FieldParams, n: int) -> np.ndarray:
    """_encode of plaintext's n capacity-sized chunks, as a float64 stack."""
    bpb = bytes_per_block(params)
    limb, weight, base, to_limbs, _, _ = _bulk_layout(params)
    cut = (n - 1) * bpb  # the last chunk is left-padded
    padded = plaintext[:cut] + bytes(n * bpb - len(plaintext)) + plaintext[cut:]
    chunks = np.frombuffer(padded, np.uint8).reshape(n, bpb)
    digits = _carry((chunks @ to_limbs).astype(np.int64), base).astype(np.float64)[:, limb]
    digits /= weight
    np.floor(digits, out=digits)
    return _reduce(digits, params.p).reshape(n, params.d, params.d)


def _decode_bulk(stack: np.ndarray, params: FieldParams, length: int) -> bytes:
    """_decode of a float64 digit stack, through w-bit words; raises as _decode does."""
    n = len(stack)
    bpb = bytes_per_block(params)
    *_, to_words, w = _bulk_layout(params)
    words = _carry((stack.reshape(n, -1) @ to_words).astype(np.int64), 1 << w)
    raw = words[:, ::-1].astype(f">u{w // 8}").view(np.uint8)
    spare = raw.shape[1] - bpb  # bytes above the block's last bpb
    if raw[:, :spare].any():
        raise ValueOutOfRangeError("block does not decode to a padded byte block")
    data = raw[:, spare:].tobytes()
    cut = (n - 1) * bpb
    return data[:cut] + data[cut + n * bpb - length:]


def _conjugate_bulk(left: Matrix, stack: np.ndarray, right: Matrix) -> np.ndarray:
    """_conjugate as a float64 stack, by BLAS products whose sums stay <= d(p-1)^2 < 2^53."""
    p = left.params.p
    product = _reduce(left.a.astype(np.float64) @ stack, p)
    return _reduce(product @ right.a.astype(np.float64), p)


def _reduce(y: np.ndarray, p: int) -> np.ndarray:
    """y mod p in place, for a float64 array of integers in [0, 2^53)."""
    q = y / p
    np.floor(q, out=q)
    q *= p
    y -= q
    return y
