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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BlockTooLongError, ParamsMismatchError, ValueOutOfRangeError
from .field_matrix import FieldParams, Matrix, mat_mul
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
    p, d = params.p, params.d
    value = int.from_bytes(data.rjust(bpb, b"\x00"), "big")
    digits = np.empty(d * d, dtype=np.int64)
    for i in range(d * d - 1, -1, -1):
        value, digits[i] = divmod(value, p)
    return PlainBlock(Matrix(params, digits.reshape(d, d)))


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
    p = params.p
    value = 0
    for digit in block.m.a.reshape(-1):
        value = value * p + int(digit)
    if value >= 1 << (8 * bpb):
        raise ValueOutOfRangeError("block does not decode to a padded byte block")
    return value.to_bytes(bpb, "big")[bpb - length:]


def encrypt_block(key: SessionKey, block: PlainBlock) -> CipherBlock:
    """c = k^-1 m k."""
    if key.k.params != block.m.params:
        raise ParamsMismatchError("key and block parameters differ")
    return CipherBlock(mat_mul(mat_mul(key.k_inv, block.m), key.k))


def decrypt_block(key: SessionKey, block: CipherBlock) -> PlainBlock:
    """m = k c k^-1."""
    if key.k.params != block.c.params:
        raise ParamsMismatchError("key and block parameters differ")
    return PlainBlock(mat_mul(mat_mul(key.k, block.c), key.k_inv))


def encrypt_message(key: SessionKey, plaintext: bytes) -> CipherMessage:
    """Split into capacity-sized chunks, encode and encrypt each independently."""
    params = key.k.params
    bpb = bytes_per_block(params)
    # at zero capacity CipherMessage refuses a nonempty plaintext and takes an empty one
    offsets = range(0, len(plaintext), bpb) if bpb else ()
    blocks = [encrypt_block(key, encode_block(plaintext[off:off + bpb], params)) for off in offsets]
    return CipherMessage(params, len(plaintext), tuple(blocks))


def decrypt_message(key: SessionKey, message: CipherMessage) -> bytes:
    """Decrypt and decode every block, trim to the recorded plaintext length."""
    if key.k.params != message.params:
        raise ParamsMismatchError("key and message parameters differ")
    bpb = bytes_per_block(message.params)
    out = bytearray()
    remaining = message.plaintext_length
    for block in message.blocks:
        take = min(bpb, remaining)
        out += decode_block(decrypt_block(key, block), take)
        remaining -= take
    return bytes(out)
