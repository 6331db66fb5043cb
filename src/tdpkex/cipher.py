"""Conjugation cipher: encrypt matrix blocks with the shared session key.

A block m encrypts to k^-1 m k.  Only someone holding the conjugator k (or an
equivalent of it) can map the ciphertext back, which is the blind-conjugacy
protection: the attacker sees the conjugate but knows neither m nor k.

Two properties every user must understand before touching this:

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

A message is converted and conjugated as one (n, d, d) int64 stack: a few
Python divmods cut each block integer into int64 limbs of k base-p digits
(7 at p=251), one vectorised pass splits all limbs into digits, two stacked
matmuls conjugate every block, and decoding rebuilds the limbs with one
matmul against the powers of p.  The single-block functions are the n = 1
case of the same helpers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BlockTooLongError, ParamsMismatchError, ValueOutOfRangeError
from .field_matrix import FieldParams, Matrix
from .protocol import SessionKey


@functools.cache
def bytes_per_block(params: FieldParams) -> int:
    """Largest byte count B with 256^B <= p^(d*d); exact integers, computed once per params."""
    return ((params.p ** (params.d * params.d)).bit_length() - 1) // 8


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
        bpb = bytes_per_block(self.params)
        if self.plaintext_length and not bpb:
            p, d = self.params.p, self.params.d
            raise ValueError(f"p={p}, d={d} cannot carry even one byte per block")
        expected = (self.plaintext_length + bpb - 1) // bpb if self.plaintext_length else 0
        if len(self.blocks) != expected:
            raise ValueError(
                f"{len(self.blocks)} blocks inconsistent with length {self.plaintext_length}"
            )


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
        ValueOutOfRangeError: the matrix encodes an integer outside the
            padded-byte range, which means corruption or a wrong key.
    """
    params = block.m.params
    bpb = bytes_per_block(params)
    if length > bpb:
        raise ValueOutOfRangeError(f"length {length} exceeds block capacity {bpb}")
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


def encrypt_message(key: SessionKey, plaintext: bytes) -> CipherMessage:
    """Split into capacity-sized chunks, encode and encrypt them as one stack."""
    params = key.k.params
    bpb = bytes_per_block(params)
    # at zero capacity CipherMessage refuses a nonempty plaintext and takes an empty one
    offsets = range(0, len(plaintext), bpb) if bpb else ()
    stack = _encode([int.from_bytes(plaintext[off:off + bpb], "big") for off in offsets], params)
    blocks = tuple(CipherBlock(Matrix(params, c)) for c in _conjugate(key.k_inv, stack, key.k))
    return CipherMessage(params, len(plaintext), blocks)


def decrypt_message(key: SessionKey, message: CipherMessage) -> bytes:
    """Decrypt and decode every block as one stack, trim to the recorded plaintext length."""
    params = message.params
    if key.k.params != params:
        raise ParamsMismatchError("key and message parameters differ")
    if any(block.c.params != params for block in message.blocks):
        raise ParamsMismatchError("key and block parameters differ")
    d = params.d
    stack = np.array([block.c.a for block in message.blocks], dtype=np.int64).reshape(-1, d, d)
    return _decode(_conjugate(key.k, stack, key.k_inv), params, message.plaintext_length)


@functools.cache
def _limb_layout(params: FieldParams) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Where each of a block's d*d digits sits in its int64 limbs, least significant limb first.

    Returns (limb, weight, base, gather): row-major digit j is
    limbs[limb[j]] // weight[j] % p, base = p^k is the limb radix, and
    digits @ gather rebuilds the limbs.  k is the largest with p^k < 2^62
    (7 at p = 251, 3 at p = 65521), so every limb fits int64.
    """
    p, size = params.p, params.d * params.d
    k = 1
    while p ** (k + 1) < 1 << 62:
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
    """left m right mod p for every m of an (n, d, d) stack, written over the stack."""
    p = left.params.p
    product = np.matmul(left.a, stack)
    product %= p
    np.matmul(product, right.a, out=stack)
    stack %= p
    return stack
