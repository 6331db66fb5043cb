import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpkex import (
    BlockTooLongError,
    CipherBlock,
    CipherMessage,
    FieldParams,
    Matrix,
    ParamsMismatchError,
    PlainBlock,
    SessionKey,
    SplitMix64,
    ValueOutOfRangeError,
    bytes_per_block,
    decode_block,
    decrypt_block,
    decrypt_message,
    encode_block,
    encrypt_block,
    encrypt_message,
    mat_trace,
    random_nonsingular,
    run_session,
)
from tdpkex import cipher, field_matrix

import oracles
import vectors

P251 = FieldParams()


def _golden_key():
    return SessionKey(Matrix.from_rows(P251, vectors.GOLDEN_KEY_BOB))


def _digit_major(stack):
    """An (n, d, d) stack as the cipher's (d*d, n) window: row j holds entry j of every block."""
    return stack.reshape(len(stack), -1).T


def _block_major(window, d):
    """A (d*d, n) window as the (n, d, d) stack of its blocks, int64."""
    return window.T.reshape(-1, d, d).astype(np.int64)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 65521])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_bytes_per_block_matches_byte_loop(p, d):
    capacity = p ** (d * d)
    expected = 0
    while 256 ** (expected + 1) <= capacity:
        expected += 1
    assert bytes_per_block(FieldParams(p=p, d=d)) == expected


def test_bytes_per_block_values():
    assert bytes_per_block(P251) == 63
    assert bytes_per_block(FieldParams(p=5, d=2)) == 1
    assert bytes_per_block(FieldParams(p=2, d=2)) == 0
    assert bytes_per_block(FieldParams(p=2, d=4)) == 2  # 256^2 == 2^16 exactly
    assert bytes_per_block(FieldParams(p=65521, d=8)) == 127


def test_capacity_bound_is_tight():
    assert 256 ** 63 < 251 ** 64
    assert 256 ** 64 > 251 ** 64


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def test_encode_empty_block_is_zero_matrix():
    assert not encode_block(b"", P251).m.a.any()


def test_encode_single_byte_255():
    # 255 = 1 * 251 + 4: last two base-251 digits are 1, 4
    block = encode_block(bytes([0xFF]), P251)
    flat = block.m.a.reshape(-1).tolist()
    assert flat == [0] * 62 + [1, 4]
    assert decode_block(block, 1) == bytes([0xFF])


def test_decode_zero_matrix():
    assert decode_block(PlainBlock(Matrix.zero(P251)), 0) == b""
    assert decode_block(PlainBlock(Matrix.zero(P251)), 3) == b"\x00\x00\x00"


def test_encode_rejects_oversized_block():
    with pytest.raises(BlockTooLongError):
        encode_block(bytes(64), P251)


def test_decode_rejects_out_of_range_matrix():
    # the all-(p-1) matrix encodes p^64 - 1 >= 256^63
    block = PlainBlock(Matrix.from_rows(P251, [[250] * 8] * 8))
    with pytest.raises(ValueOutOfRangeError):
        decode_block(block, 63)


def test_decode_rejects_a_length_above_the_capacity():
    with pytest.raises(ValueOutOfRangeError, match="^length 64 exceeds block capacity 63$"):
        decode_block(PlainBlock(Matrix.zero(P251)), 64)


@given(data=st.binary(max_size=63))
def test_codec_roundtrip_property(data):
    assert decode_block(encode_block(data, P251), len(data)) == data


@given(data=st.binary(max_size=4))
def test_codec_roundtrip_small_params(data):
    params = FieldParams(p=7, d=4)  # capacity: 7^16 > 256^4
    assert bytes_per_block(params) >= 4
    assert decode_block(encode_block(data, params), len(data)) == data


# ---------------------------------------------------------------------------
# block encryption: golden transcript
# ---------------------------------------------------------------------------

def test_golden_keys_identical():
    assert vectors.GOLDEN_KEY_ALICE == vectors.GOLDEN_KEY_BOB


def test_golden_encrypt_matches_transcript():
    key = _golden_key()
    msg = PlainBlock(Matrix.from_rows(P251, vectors.GOLDEN_MSG))
    cif = encrypt_block(key, msg)
    assert cif.c == Matrix.from_rows(P251, vectors.GOLDEN_CIF)


def test_golden_decrypt_matches_transcript():
    key = SessionKey(Matrix.from_rows(P251, vectors.GOLDEN_KEY_ALICE))
    cif = Matrix.from_rows(P251, vectors.GOLDEN_CIF)
    from tdpkex import CipherBlock

    plain = decrypt_block(key, CipherBlock(cif))
    assert plain.m == Matrix.from_rows(P251, vectors.GOLDEN_RECOVERED)
    assert plain.m == Matrix.from_rows(P251, vectors.GOLDEN_MSG)


def test_golden_traces_preserved():
    msg = Matrix.from_rows(P251, vectors.GOLDEN_MSG)
    cif = Matrix.from_rows(P251, vectors.GOLDEN_CIF)
    assert mat_trace(msg) == 120
    assert mat_trace(cif) == 120


def test_identity_key_is_noop():
    key = SessionKey(Matrix.identity(P251))
    msg = PlainBlock(Matrix.from_rows(P251, vectors.GOLDEN_MSG))
    assert encrypt_block(key, msg).c == msg.m
    from tdpkex import CipherBlock

    assert decrypt_block(key, CipherBlock(msg.m)).m == msg.m


def test_block_roundtrip_random_keys():
    rs = SplitMix64(1)
    from tdpkex import random_matrix

    for seed in range(50):
        result = run_session(SplitMix64(seed), P251)
        msg = PlainBlock(random_matrix(rs, P251))
        assert decrypt_block(result.bob_key, encrypt_block(result.alice_key, msg)) == msg


def test_ciphertexts_are_malleable_without_the_key():
    # conjugation is linear and fixes scalars: c + lambda I decrypts to m + lambda I
    from tdpkex import random_matrix

    rs = SplitMix64(2)
    eye = np.eye(P251.d, dtype=np.int64)
    for seed in range(20):
        result = run_session(SplitMix64(seed), P251)
        m = random_matrix(rs, P251)
        c = encrypt_block(result.alice_key, PlainBlock(m)).c
        lam = seed + 1
        forged = CipherBlock(Matrix(P251, c.a + lam * eye))
        assert forged.c != c
        assert decrypt_block(result.bob_key, forged).m == Matrix(P251, m.a + lam * eye)


# ---------------------------------------------------------------------------
# message framing
# ---------------------------------------------------------------------------

def test_empty_message():
    key = _golden_key()
    message = encrypt_message(key, b"")
    assert message.plaintext_length == 0
    assert len(message.blocks) == 0
    assert decrypt_message(key, message) == b""


def test_empty_message_at_zero_capacity():
    p3 = FieldParams(p=3, d=2)  # 3^4 < 256: no whole byte fits a block
    key = SessionKey(Matrix.identity(p3))
    message = encrypt_message(key, b"")
    assert message == CipherMessage(p3, 0, ())
    assert decrypt_message(key, message) == b""
    with pytest.raises(ValueError, match="cannot carry"):
        encrypt_message(key, b"\x00")
    assert message.stack.shape == (0, 2, 2)


def test_64_bytes_needs_two_blocks():
    key = _golden_key()
    message = encrypt_message(key, bytes(64))
    assert len(message.blocks) == 2


@pytest.mark.parametrize("size", [1, 62, 63, 64, 126, 127, 1000])
def test_message_roundtrip_sizes(size):
    key = _golden_key()
    data = SplitMix64(size).read(size)
    assert decrypt_message(key, encrypt_message(key, data)) == data


def test_message_roundtrip_10kib():
    result = run_session(SplitMix64(9), P251)
    data = SplitMix64(10).read(10240)
    assert decrypt_message(result.bob_key, encrypt_message(result.alice_key, data)) == data


@given(data=st.binary(max_size=400))
@settings(max_examples=30, deadline=None)
def test_message_roundtrip_property(data):
    key = _golden_key()
    assert decrypt_message(key, encrypt_message(key, data)) == data


def test_equal_blocks_encrypt_equal():
    key = _golden_key()
    message = encrypt_message(key, b"\x42" * 126)
    assert message.blocks[0] == message.blocks[1]


def test_cipher_message_count_validated():
    key = _golden_key()
    good = encrypt_message(key, bytes(100))
    with pytest.raises(ValueError):
        CipherMessage(P251, 100, good.stack[:1])
    p3 = FieldParams(p=3, d=2)  # 3^4 < 256: no whole byte fits a block
    with pytest.raises(ValueError, match="cannot carry"):
        CipherMessage(p3, 1, np.zeros((1, 2, 2), np.int64))


def test_cipher_message_frames_the_blocks_it_holds():
    key = _golden_key()
    data = SplitMix64(14).read(4 * 63)
    message = encrypt_message(key, data)
    stack = message.stack
    for form in (stack.reshape(4, 64), list(stack)):
        assert CipherMessage(P251, len(data), form) == message
        assert decrypt_message(key, CipherMessage(P251, len(data), form)) == data
    # four rows of 128 entries hold eight blocks, and 252 bytes frame four
    with pytest.raises(ValueError, match="8 blocks inconsistent with length 252"):
        CipherMessage(P251, len(data), np.concatenate([stack, stack]).reshape(4, 8, 16))


@pytest.mark.parametrize("entry", [-1, 251])
def test_cipher_message_refuses_entries_outside_the_field(entry):
    stack = encrypt_message(_golden_key(), bytes(100)).stack.astype(np.int64)
    stack[1, 7, 7] = entry
    with pytest.raises(ValueError, match=r"\[0, 251\)"):
        CipherMessage(P251, 100, stack)


def test_cipher_message_range_check_before_the_uint16_cast():
    # signed input is checked at both ends, unsigned input at the top, before entries narrow
    stack = encrypt_message(_golden_key(), bytes(5 * 63)).stack
    signed = stack.astype(np.int64)
    signed[4, 3, 2] = -7
    with pytest.raises(ValueError, match=r"\[0, 251\)"):
        CipherMessage(P251, 5 * 63, signed)
    for entry in (251, 65535):
        unsigned = stack.copy()
        unsigned[3, 0, 5] = entry
        with pytest.raises(ValueError, match=r"\[0, 251\)"):
            CipherMessage(P251, 5 * 63, unsigned)


@pytest.mark.parametrize("stack", [
    pytest.param(np.full((1, 8, 8), 2.7), id="fraction"),
    pytest.param(np.full((1, 8, 8), "1"), id="string"),
    pytest.param(np.full((1, 8, 8), np.nan), id="nan"),
])
def test_cipher_message_refuses_entries_that_are_not_integers(stack):
    # Matrix's rule: 2.7 was read as 2, '1' as 1, and NaN warned in its cast before the range check
    with pytest.raises(ValueError, match="is not an integer"):
        CipherMessage(P251, 63, stack)


@pytest.mark.parametrize("length", [pytest.param(63.0, id="float"), pytest.param(np.int64(63), id="numpy")])
def test_message_and_block_lengths_keep_exact_integers(length):
    # Matrix's rule; a float length was kept, and decrypt_message and decode_block then raised TypeError
    key = run_session(SplitMix64(36), P251).alice_key
    plaintext = SplitMix64(37).read(63)
    message = CipherMessage(P251, length, encrypt_message(key, plaintext).stack)
    assert type(message.plaintext_length) is int and message == encrypt_message(key, plaintext)
    assert decrypt_message(key, message) == plaintext
    assert decode_block(encode_block(plaintext, P251), length) == plaintext


@pytest.mark.parametrize("length", [
    pytest.param(62.5, id="fraction"),
    pytest.param("63", id="string"),
    pytest.param(float("nan"), id="nan"),
])
def test_message_and_block_lengths_refuse_values_that_are_not_integers(length):
    block = encode_block(b"x", P251)
    with pytest.raises(ValueError, match="plaintext length .* is not an integer"):
        CipherMessage(P251, length, np.zeros((1, 8, 8), np.int64))
    with pytest.raises(ValueError, match="length .* is not an integer"):
        decode_block(block, length)


def test_cipher_message_refuses_a_stack_of_the_wrong_shape():
    # 8 rows of 8 x 9 entries reshape to 9 blocks, and 504 bytes frame 8
    with pytest.raises(ValueError, match="9 blocks inconsistent with length 504"):
        CipherMessage(P251, 8 * 63, np.zeros((8, 8, 9), np.int64))
    # 567 bytes frame all 9, and the shape is refused
    with pytest.raises(ValueError, match=r"shape \(8, 8, 9\) does not hold 8 x 8 blocks"):
        CipherMessage(P251, 9 * 63, np.zeros((8, 8, 9), np.int64))
    with pytest.raises(ValueError):  # 3 rows of 8 x 9 entries are no whole number of blocks
        CipherMessage(P251, 3 * 63, np.zeros((3, 8, 9), np.int64))


def test_cipher_message_owns_a_read_only_copy():
    key = _golden_key()
    data = SplitMix64(15).read(3 * 63)
    source = encrypt_message(key, data).stack.copy()
    message = CipherMessage(P251, len(data), source)
    assert not message.stack.flags.writeable
    with pytest.raises(ValueError):
        message.stack[0, 0, 0] = 0
    source[:] = 0
    assert message.stack.any()
    assert decrypt_message(key, message) == data
    assert message != CipherMessage(P251, len(data), source)


def test_negative_plaintext_length_refused():
    with pytest.raises(ValueError, match="negative"):
        CipherMessage(P251, -5, ())
    with pytest.raises(ValueError, match="negative"):
        decode_block(PlainBlock(Matrix.zero(P251)), -1)


def test_session_key_inverted_once(row_reductions):
    key = _golden_key()
    assert row_reductions == [1]
    data = SplitMix64(12).read(10 * bytes_per_block(P251))
    message = encrypt_message(key, data)
    assert len(message.blocks) == 10
    assert decrypt_message(key, message) == data
    assert row_reductions == [1]


def test_bulk_message_is_one_stack(row_reductions, monkeypatch):
    # no elimination and no per-block mat_mul, wherever the package binds the name
    key = _golden_key()
    row_reductions.clear()
    products = []
    mat_mul = field_matrix.mat_mul
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tdpkex" and getattr(module, "mat_mul", None) is mat_mul:
            monkeypatch.setattr(module, "mat_mul", lambda a, b: products.append(1) or mat_mul(a, b))
    data = SplitMix64(13).read(1000 * bytes_per_block(P251))
    message = encrypt_message(key, data)
    assert len(message.blocks) == 1000
    assert decrypt_message(key, message) == data
    assert row_reductions == []
    assert products == []


@pytest.mark.parametrize("p, d", [(251, 8), (251, 2), (5, 2), (7, 3), (3, 3), (65521, 4), (65521, 5), (65521, 6), (65521, 8), (2, 8), (3, 2), (7, 8), (3, 8)])
def test_stacked_path_matches_per_block_oracle(p, d):
    # one block to 40, the edges of a block and the edges of a window all meet the oracle
    params = FieldParams(p=p, d=d)
    key = SessionKey(random_nonsingular(SplitMix64(p + d), params)[0])
    k = key.k.a
    k_inv = np.array(oracles.inverse_adjugate(k.tolist(), p), dtype=np.int64)
    bpb = bytes_per_block(params)
    span = cipher._layout(p, d).window * bpb  # the bytes of one full window
    # (3, 2) has zero capacity: only the empty message exists there
    lengths = sorted({0, 1, bpb - 1, bpb, bpb + 1, 5 * bpb + 3, 16 * bpb, 16 * bpb + 1,
                      17 * bpb, 40 * bpb + 3, span - 1, span, span + 1, 2 * span + 3}) if bpb else [0]
    # at (2, 8) p^(d*d) = 256^bpb: all-0xff blocks are the largest valid ones; at (7, 8)
    # and (3, 8) their limb sums come nearest the 2^53 bound of bytes @ to_limbs
    plaintexts = [SplitMix64(length).read(length) for length in lengths]
    plaintexts += [b"\xff" * (40 * bpb + 3)] if bpb else []
    for plaintext in plaintexts:
        length = len(plaintext)
        expected = oracles.encrypt_message_per_block(k, k_inv, plaintext, p, d, bpb)
        message = encrypt_message(key, plaintext)
        assert message.stack.shape == (len(expected), d, d)
        assert message.stack.dtype == np.uint16 and not message.stack.flags.writeable
        assert message.stack.tolist() == [c.tolist() for c in expected]
        assert decrypt_message(key, message) == plaintext
        assert oracles.decrypt_message_per_block(k, k_inv, expected, p, bpb, length) == plaintext
        if length > 40 * bpb + 3:
            continue  # blocks and the single-block functions are checked on the shorter messages
        assert [b.c.a.tolist() for b in message.blocks] == [c.tolist() for c in expected]
        for i, block in enumerate(message.blocks):
            chunk = plaintext[i * bpb:(i + 1) * bpb]
            plain = encode_block(chunk, params)
            digits = oracles.radix_digits(int.from_bytes(chunk, "big"), p, d)
            assert plain.m.a.tolist() == digits.tolist()
            assert encrypt_block(key, plain) == block
            assert decode_block(decrypt_block(key, block), len(chunk)) == chunk


@pytest.mark.parametrize("p, d", oracles.KERNEL_GRID)
def test_message_functions_over_the_kernel_grid(p, d):
    # the layout's edges: zero capacity at (3, 2), a top limb with unused digits at most
    # points, and the first product reduced before the second at (65521, d >= 6)
    params = FieldParams(p=p, d=d)
    key = SessionKey(random_nonsingular(SplitMix64(p + d), params)[0])
    k, k_inv = key.k.a, key.k_inv.a
    assert np.array_equal(k @ k_inv % p, np.eye(d, dtype=np.int64))
    bpb, window = bytes_per_block(params), cipher._layout(p, d).window
    if not bpb:
        assert encrypt_message(key, b"").stack.shape == (0, d, d)
        with pytest.raises(ValueOutOfRangeError):  # the integer 256^0 = 1 is past every zero-byte block
            decode_block(PlainBlock(Matrix(params, oracles.radix_digits(1, p, d))), 0)
        return
    longest = SplitMix64(d).read(window * bpb + 1)  # window + 1 blocks, the last of one byte
    expected = oracles.encrypt_message_per_block(k, k_inv, longest, p, d, bpb)
    # 0, 1, 2, window and window + 1 blocks, each a prefix of the longest
    for blocks in (0, 1, 2, window, window + 1):
        plaintext = longest[:min(blocks * bpb, len(longest))]
        message = encrypt_message(key, plaintext)
        assert np.array_equal(message.stack, np.array(expected[:blocks]).reshape(blocks, d, d)), blocks
        assert decrypt_message(key, message) == plaintext
        per_block = oracles.decrypt_message_per_block(k, k_inv, expected[:blocks], p, bpb, len(plaintext))
        assert per_block == plaintext
    full = b"\xff" * (2 * bpb + 1)  # the largest valid blocks, and a left-padded 0xff
    message = encrypt_message(key, full)
    expected = oracles.encrypt_message_per_block(k, k_inv, full, p, d, bpb)
    assert np.array_equal(message.stack, np.array(expected))
    assert decrypt_message(key, message) == full
    assert oracles.decrypt_message_per_block(k, k_inv, expected, p, bpb, len(full)) == full
    past = (k_inv @ oracles.radix_digits(1 << 8 * bpb, p, d) % p) @ k % p  # the integer 256^bpb
    with pytest.raises(ValueOutOfRangeError):
        decrypt_message(key, CipherMessage(params, bpb, past[None]))


# every point whose big-integer reference build is quick: about 0.3 s in all
_TABLE_GRID = ([(p, d) for p in (3, 5) for d in range(1, 18)] + [(p, d) for p in (251, 257) for d in range(1, 14)]
               + [(65521, d) for d in range(1, 10)] + [(251, 16)])


def test_codec_tables_match_the_big_integer_build():
    for p, d in _TABLE_GRID:
        codec = cipher._layout(p, d)
        to_limbs, to_words = codec.to_limbs[:, ::-1], codec.to_words  # limbs most significant first
        ref_limbs, ref_words = oracles.codec_tables(p, d)
        assert to_limbs.shape == ref_limbs.shape and to_words.shape == ref_words.shape, (p, d)
        assert np.array_equal(to_limbs, ref_limbs) and np.array_equal(to_words, ref_words), (p, d)


@pytest.mark.parametrize("p, d", [(251, 24), (251, 32), (65521, 24)])
def test_codec_tables_at_large_d(p, d):
    params, size = FieldParams(p=p, d=d), d * d
    bpb = bytes_per_block(params)
    codec = cipher._layout(p, d)
    base, to_limbs, to_words, w = codec.base, codec.to_limbs[:, ::-1], codec.to_words, codec.w
    for j in (0, 1, bpb // 2, bpb - 1):
        for i in (0, 1, to_limbs.shape[1] // 2, to_limbs.shape[1] - 1):
            assert to_limbs[j, i] == 256 ** (bpb - 1 - j) // base ** i % base
    for j in (0, 1, size // 2, size - 1):
        for i in (0, 1, to_words.shape[1] // 2, to_words.shape[1] - 1):
            assert to_words[j, i] == p ** (size - 1 - j) >> w * i & (1 << w) - 1
    key = SessionKey(random_nonsingular(SplitMix64(d), params)[0])
    plaintext = b"\xff" * bpb + SplitMix64(p).read(2 * bpb + 5)
    message = encrypt_message(key, plaintext)
    assert decrypt_message(key, message) == plaintext
    digits = oracles.radix_digits(int.from_bytes(plaintext[:bpb], "big"), p, d)
    assert encode_block(plaintext[:bpb], params).m.a.tolist() == digits.tolist()


@pytest.mark.parametrize("p, d, blocks", [(251, 8, 1000), (7, 3, 2 * cipher._layout(7, 3).window + 5)])
def test_every_helper_call_holds_one_window_at_most(p, d, blocks, monkeypatch):
    # every temporary stays within 64 KiB, and the windows together hold each block once
    params = FieldParams(p=p, d=d)
    window = cipher._layout(p, d).window
    assert window * d * d * 8 <= 65536
    key = SessionKey(random_nonsingular(SplitMix64(42), params)[0])
    plaintext = SplitMix64(43).read(blocks * bytes_per_block(params) - 2)
    sizes = {"_encode": [], "_conjugate": [], "_decode": []}
    chunks, conjugated, decoded = [], [], []
    encode, conjugate, decode = cipher._encode, cipher._conjugate, cipher._decode

    def spy_encode(chunk, codec, n):
        sizes["_encode"].append(n)
        chunks.append(chunk)
        return encode(chunk, codec, n)

    def spy_conjugate(left, window, right, p):
        sizes["_conjugate"].append(window.shape[1])
        conjugated.append(_block_major(window, d))
        return conjugate(left, window, right, p)

    def spy_decode(window, codec, length):
        sizes["_decode"].append(window.shape[1])
        decoded.append(decode(window, codec, length))
        return decoded[-1]

    monkeypatch.setattr(cipher, "_encode", spy_encode)
    monkeypatch.setattr(cipher, "_conjugate", spy_conjugate)
    monkeypatch.setattr(cipher, "_decode", spy_decode)
    message = encrypt_message(key, plaintext)
    assert decrypt_message(key, message) == plaintext
    calls = -(-blocks // window)
    assert len(sizes["_encode"]) == len(sizes["_decode"]) == calls
    assert len(sizes["_conjugate"]) == 2 * calls
    for counts in (sizes["_encode"], sizes["_conjugate"][:calls], sizes["_conjugate"][calls:], sizes["_decode"]):
        assert max(counts) <= window and sum(counts) == blocks
    assert b"".join(chunks) == plaintext
    assert np.array_equal(np.concatenate(conjugated[calls:]), message.stack)
    assert b"".join(decoded) == plaintext


@pytest.mark.parametrize("p, d, blocks, index", [
    pytest.param(251, 8, 5, 2, id="251-8"),
    pytest.param(7, 3, 5, 2, id="7-3"),
    pytest.param(251, 8, 40, 2, id="251-8-40"),
    pytest.param(7, 3, 40, 2, id="7-3-40"),
    pytest.param(251, 8, 2 * cipher._layout(251, 8).window + 1, cipher._layout(251, 8).window + 2, id="251-8-second-window"),
])
def test_range_check_on_a_middle_block(p, d, blocks, index):
    params = FieldParams(p=p, d=d)
    key = SessionKey(random_nonsingular(SplitMix64(40), params)[0])
    bpb = bytes_per_block(params)
    plaintext = SplitMix64(41).read(blocks * bpb)
    message = encrypt_message(key, plaintext)

    def with_block(value):
        c = (key.k_inv.a @ oracles.radix_digits(value, p, d) % p) @ key.k.a % p
        stack = message.stack.copy()
        stack[index] = c
        return CipherMessage(params, len(plaintext), stack)

    def per_block(message):
        k, k_inv = key.k.a, key.k_inv.a
        return oracles.decrypt_message_per_block(k, k_inv, message.stack, p, bpb, len(plaintext))

    corrupt = with_block(1 << (8 * bpb))
    with pytest.raises(ValueOutOfRangeError):
        decrypt_message(key, corrupt)
    assert per_block(corrupt) is None
    largest = with_block((1 << (8 * bpb)) - 1)
    expected = plaintext[:index * bpb] + b"\xff" * bpb + plaintext[(index + 1) * bpb:]
    assert decrypt_message(key, largest) == per_block(largest) == expected


def test_bulk_path_exact_at_the_float_bound():
    # entries p - 1 at p = 65521 give the largest product sums, d(p-1)^2, of any p at d = 8
    params = FieldParams(p=65521, d=8)
    p = params.p
    key = SessionKey(random_nonsingular(SplitMix64(62), params)[0])
    # the largest valid block whose low 63 digits are all p - 1: the codec's largest word sums
    bpb = bytes_per_block(params)
    top = p ** 63
    value = (1 << 8 * bpb) // top * top - 1
    left, right = key.k_inv.a.astype(np.float64), key.k.a.astype(np.float64)
    codec = cipher._layout(p, 8)
    for n in (1, 40):  # one-block messages take the same float64 path as long ones
        stack = np.full((n, 8, 8), p - 1, dtype=np.int64)
        expected = (key.k_inv.a @ stack % p) @ key.k.a % p
        assert np.array_equal(_block_major(cipher._conjugate(left, _digit_major(stack), right, p), 8), expected)
        plaintext = value.to_bytes(bpb, "big") * n
        digits = cipher._encode(plaintext, codec, n)
        expected = np.broadcast_to(oracles.radix_digits(value, p, 8), (n, 8, 8))
        assert np.array_equal(_block_major(digits, 8), expected)
        assert digits[1:, 0].tolist() == [p - 1] * 63
        assert cipher._decode(digits, codec, len(plaintext)) == plaintext
    # left, m and right with entries near p - 1: unreduced between the products, the
    # second product's sums would reach d^2 (p-1)^3 > 2^53 and lose their low bits
    near = field_matrix.uniform_array(SplitMix64(64), p - 100, p - 1, 3 * 64).reshape(3, 8, 8)
    expected = (near[0] @ near[2:] % p) @ near[1] % p
    left, right = near[0].astype(np.float64), near[1].astype(np.float64)
    conjugated = cipher._conjugate(left, _digit_major(near[2:]), right, p)
    assert np.array_equal(_block_major(conjugated, 8), expected)


@pytest.mark.parametrize("p, d, reductions", [(65521, 5, 1), (65521, 6, 2), (251, 8, 1)])
def test_conjugate_reduces_the_first_product_only_past_the_bound(p, d, reductions, spy):
    # entries near p - 1: d^2 (p-1)^3 is about 7.0e15 < 2^53 at (65521, 5), so the first
    # product needs no reduction, and 1.01e16 at (65521, 6), where unreduced it would lose low bits
    near = field_matrix.uniform_array(SplitMix64(p + d), p - 100, p - 1, 42 * d * d).reshape(42, d, d)
    calls = spy(cipher, "_reduce", lambda y, p: y.size // (d * d))  # the blocks each reduction holds
    left, right = near[0].astype(np.float64), near[1].astype(np.float64)
    conjugated = cipher._conjugate(left, _digit_major(near[2:]), right, p)
    assert calls == [40] * reductions
    assert np.array_equal(_block_major(conjugated, d), (near[0] @ near[2:] % p) @ near[1] % p)


def test_encrypt_message_peak_memory():
    # the 1000-block output is a 125 KiB uint16 stack, and each window's float64 temporaries
    # stay below 64 KiB; an (n, d, d) float64 or int64 stack alone would be 500 KiB
    key = _golden_key()
    data = SplitMix64(16).read(1000 * 63)
    encrypt_message(key, data[:63])  # the codec tables are built once per (p, d)
    tracemalloc.start()
    try:
        message = encrypt_message(key, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert message.stack.nbytes == 1000 * 64 * 2
    assert peak < 512 * 1024


def test_decrypt_message_peak_memory():
    # each window's float64 temporaries stay below 64 KiB; the 1000 blocks' bytes are returned
    key = _golden_key()
    data = SplitMix64(17).read(1000 * 63)
    message = encrypt_message(key, data)
    decrypt_message(key, encrypt_message(key, data[:63]))  # the codec tables are built once per (p, d)
    tracemalloc.start()
    try:
        plaintext = decrypt_message(key, message)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plaintext == data
    assert peak - len(plaintext) < 512 * 1024


def test_scalar_blocks_are_fixed_points():
    # the chosen-plaintext weakness the module docstring states, block by block and as a stack
    params = P251
    key = SessionKey(random_nonsingular(SplitMix64(63), params)[0])
    scalars = np.arange(params.p)[:, None, None] * np.eye(8, dtype=np.int64)
    for m in scalars:
        assert encrypt_block(key, PlainBlock(Matrix(params, m))).c.a.tolist() == m.tolist()
    left, right = key.k_inv.a.astype(np.float64), key.k.a.astype(np.float64)
    conjugated = cipher._conjugate(left, _digit_major(scalars), right, params.p)
    assert np.array_equal(_block_major(conjugated, 8), scalars)


def test_params_mismatch_refused():
    key = _golden_key()
    p7 = FieldParams(p=7, d=8)
    with pytest.raises(ParamsMismatchError):
        encrypt_block(key, PlainBlock(Matrix.zero(p7)))
    with pytest.raises(ParamsMismatchError):
        decrypt_block(key, CipherBlock(Matrix.zero(p7)))
    with pytest.raises(ParamsMismatchError, match="message"):
        decrypt_message(key, encrypt_message(SessionKey(Matrix.identity(p7)), bytes(10)))


def test_wrong_key_mostly_fails_range_check():
    k1 = run_session(SplitMix64(30), P251).alice_key
    k2 = run_session(SplitMix64(31), P251).alice_key
    rejected = 0
    trials = 1000
    rs = SplitMix64(32)
    for _ in range(trials):
        message = encrypt_message(k1, rs.read(63))
        try:
            decrypt_message(k2, message)
        except ValueOutOfRangeError:
            rejected += 1
    # acceptance probability per block is 256^63 / 251^64, about 1.4%
    assert rejected >= trials - 40


def test_multiblock_wrong_key_fails():
    k1 = run_session(SplitMix64(33), P251).alice_key
    k2 = run_session(SplitMix64(34), P251).alice_key
    message = encrypt_message(k1, SplitMix64(35).read(500))
    with pytest.raises(ValueOutOfRangeError):
        decrypt_message(k2, message)
