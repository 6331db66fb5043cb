import numpy as np
import pytest

from tdpkex import SplitMix64, StubSource, field_uniform, uniform_array

from oracles import splitmix64_stream
from vectors import SPLITMIX64_SEED0


def test_reference_output_words():
    rs = SplitMix64(0)
    assert [rs.next_u64() for _ in range(3)] == SPLITMIX64_SEED0


def test_seed_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_byte_stream_is_little_endian_words():
    words = SplitMix64(0)
    stream = SplitMix64(0)
    expected = b"".join(words.next_u64().to_bytes(8, "little") for _ in range(4))
    assert stream.read(32) == expected


def test_same_seed_same_stream():
    a, b = SplitMix64(987654321), SplitMix64(987654321)
    assert a.read(1000) == b.read(1000)
    assert SplitMix64(1).read(64) != SplitMix64(2).read(64)


def test_read_across_word_boundaries():
    whole = SplitMix64(5).read(40)
    piecewise = SplitMix64(5)
    got = b"".join(piecewise.read(n) for n in (1, 7, 9, 23))
    assert got == whole


def test_unread_rewinds():
    rs = SplitMix64(9)
    first = rs.read(10)
    rs.unread(first)
    assert rs.read(10) == first


# a refill mixes 64 words (512 bytes) at once; these sizes sit on and around its edges
@pytest.mark.parametrize("n", [1, 7, 511, 512, 513, 1025])
@pytest.mark.parametrize(
    "seed", [0, 987654321, 1 << 63, (1 << 64) - 1], ids=["0", "mid", "2^63", "max"]
)
def test_stream_matches_per_word_oracle(seed, n):
    assert SplitMix64(seed).read(n) == splitmix64_stream(seed, n)


def test_seed0_words_from_fresh_source():
    stream = SplitMix64(0).read(24)
    assert [int.from_bytes(stream[i:i + 8], "little") for i in (0, 8, 16)] == SPLITMIX64_SEED0


def test_read_and_unread_across_block_edge():
    expected = splitmix64_stream(77, 1200)
    rs = SplitMix64(77)
    head = rs.read(500)
    tail = rs.read(30)  # crosses the first 512-byte block edge
    rs.unread(tail)
    rs.unread(head[-3:])
    assert head == expected[:500]
    assert rs.read(33) == expected[497:530]
    assert rs.read(670) == expected[530:]


def test_stream_offset_after_a_session_is_pinned():
    # the 8 bytes after one default session at seed 9: any change in how many
    # bytes a session consumes moves them
    from tdpkex import FieldParams, run_session

    rs = SplitMix64(9)
    run_session(rs, FieldParams())
    assert rs.read(8) == bytes.fromhex("13046d6419b44705")


def test_field_uniform_minimum_byte():
    assert field_uniform(StubSource([0x00]), 0, 250) == 0


def test_field_uniform_rejects_out_of_range_byte():
    # 0xFE = 254 > 250 is rejected, then 7 accepted
    assert field_uniform(StubSource([0xFE, 0x07]), 0, 250) == 7


def test_field_uniform_offset_range():
    assert field_uniform(StubSource([0x00]), 1, 250) == 1
    assert field_uniform(StubSource([0xF9]), 1, 250) == 250


def test_field_uniform_single_point_consumes_nothing():
    stub = StubSource([0xAB])
    assert field_uniform(stub, 7, 7) == 7
    assert stub.next_byte() == 0xAB


def test_field_uniform_two_byte_range():
    # span 65520 needs two little-endian bytes
    assert field_uniform(StubSource([0x34, 0x12]), 0, 65520) == 0x1234


def test_field_uniform_empty_range_rejected():
    with pytest.raises(ValueError):
        field_uniform(StubSource([0]), 5, 4)


@pytest.mark.parametrize("lo,hi", [(0, 250), (1, 250), (0, 4), (1, 4), (0, 65520), (3, 3)])
def test_uniform_array_matches_sequential_draws(lo, hi):
    batch_src = SplitMix64(42)
    seq_src = SplitMix64(42)
    batch = uniform_array(batch_src, lo, hi, 500)
    seq = [field_uniform(seq_src, lo, hi) for _ in range(500)]
    assert batch.tolist() == seq
    # stream positions agree afterwards too
    assert batch_src.read(32) == seq_src.read(32)


def test_uniform_array_on_stub_consumes_exact_bytes():
    stub = StubSource([1, 0, 0, 1, 0xEE])
    assert uniform_array(stub, 0, 250, 4).tolist() == [1, 0, 0, 1]
    assert stub.next_byte() == 0xEE


def test_draw_frequencies_uniform_within_5_sigma():
    # 10^6 draws on [1, 250]: each value expected 4000 times
    draws = uniform_array(SplitMix64(20240601), 1, 250, 1_000_000)
    counts = np.bincount(draws, minlength=251)[1:]
    expected = 1_000_000 / 250
    sigma = (1_000_000 * (1 / 250) * (249 / 250)) ** 0.5
    assert counts.sum() == 1_000_000
    assert np.all(np.abs(counts - expected) <= 5 * sigma)


def test_diagonal_draw_range_and_uniformity():
    from tdpkex import FieldParams, random_diagonal

    params = FieldParams()
    rs = SplitMix64(3)
    pooled = []
    for _ in range(2000):
        spec = random_diagonal(rs, params)
        assert all(1 <= v <= 250 for v in spec.eigenvalues)
        pooled.extend(spec.eigenvalues)
    counts = np.bincount(pooled, minlength=251)
    assert counts[0] == 0
