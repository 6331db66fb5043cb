import os
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpkex import (
    CipherBlock,
    CipherMessage,
    FieldParams,
    FileFormatError,
    Matrix,
    Role,
    SessionKey,
    SplitMix64,
    StubSource,
    alice_keygen,
    alice_token,
    bob_keygen,
    bytes_per_block,
    decrypt_message,
    encrypt_message,
    gen_setup,
    mat_inverse,
    random_nonsingular,
    run_session,
)
import tdpkex
from tdpkex import analysis, cli
from tdpkex.cli import (
    REC_CIPHERTEXT,
    REC_SETUP,
    REC_TOKEN,
    _pack_record,
    main,
    read_ciphertext_file,
    read_private_file,
    read_session_key_file,
    read_setup_file,
    read_token_file,
    write_ciphertext_file,
    write_private_file,
    write_session_key_file,
    write_setup_file,
    write_token_file,
)

import oracles

P251 = FieldParams()


# ---------------------------------------------------------------------------
# file format roundtrips
# ---------------------------------------------------------------------------

def test_setup_file_roundtrip(tmp_path):
    setup = gen_setup(SplitMix64(1), P251)
    path = tmp_path / "setup.tdp"
    write_setup_file(path, setup)
    assert read_setup_file(path) == setup
    raw = path.read_bytes()
    assert raw[:4] == b"TDP1"
    assert raw[4] == 1
    assert int.from_bytes(raw[5:7], "little") == 251
    assert raw[7] == 8
    assert raw[8] == 0
    assert int.from_bytes(raw[9:13], "little") == 4
    assert len(raw) == 13 + 4 * 64


def test_private_file_roundtrip_both_roles(tmp_path):
    rs = SplitMix64(2)
    setup = gen_setup(rs, P251)
    alice = alice_keygen(rs, setup)
    bob = bob_keygen(rs, setup)
    pa, pb = tmp_path / "a.key", tmp_path / "b.key"
    write_private_file(pa, alice)
    write_private_file(pb, bob)
    assert read_private_file(pa) == alice
    assert read_private_file(pb) == bob
    raw = pa.read_bytes()
    assert raw[4] == 2 and raw[8] == 1
    assert raw[13] == 4  # four eigenvalue lists
    assert len(raw) == 13 + 1 + 4 * 8 + 9 * 64


def test_token_file_roundtrip(tmp_path):
    rs = SplitMix64(3)
    setup = gen_setup(rs, P251)
    token = alice_token(alice_keygen(rs, setup))
    path = tmp_path / "a.tok"
    write_token_file(path, token)
    assert read_token_file(path) == token


def test_session_key_file_roundtrip(tmp_path):
    key = run_session(SplitMix64(4), P251).alice_key
    path = tmp_path / "k.sk"
    write_session_key_file(path, key)
    assert read_session_key_file(path) == key


def test_ciphertext_file_roundtrip(tmp_path):
    key = run_session(SplitMix64(5), P251).alice_key
    message = encrypt_message(key, SplitMix64(6).read(200))
    path = tmp_path / "c.tdp"
    write_ciphertext_file(path, message)
    back = read_ciphertext_file(path)
    assert back.plaintext_length == 200
    assert back.blocks == message.blocks


def test_ciphertext_file_of_a_message_with_a_numpy_length(tmp_path):
    # the length was kept as np.int64, which has no to_bytes for the record
    key = run_session(SplitMix64(5), P251).alice_key
    plaintext = SplitMix64(6).read(63)
    message = CipherMessage(P251, np.int64(63), encrypt_message(key, plaintext).stack)
    path = tmp_path / "c.tdp"
    write_ciphertext_file(path, message)
    assert read_ciphertext_file(path) == message
    assert decrypt_message(key, read_ciphertext_file(path)) == plaintext


def test_ciphertext_reader_peak_memory(tmp_path):
    # the 62.5 KiB of file entries widen once, to a 125 KiB uint16 stack
    key = run_session(SplitMix64(5), P251).alice_key
    path = tmp_path / "c.tdp"
    write_ciphertext_file(path, encrypt_message(key, SplitMix64(17).read(1000 * 63)))
    tracemalloc.start()
    try:
        message = read_ciphertext_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert message.stack.dtype == np.uint16 and len(message.stack) == 1000
    assert peak < 256 * 1024


def test_ciphertext_record_with_any_field_entries_roundtrips(tmp_path):
    # the reader checks entries < p; every such stack is a message, decryptable or not
    stack = np.arange(3 * 64).reshape(3, 8, 8) % P251.p
    stack[2] = P251.p - 1
    path, again = tmp_path / "c.tdp", tmp_path / "again.tdp"
    path.write_bytes(_pack_record(REC_CIPHERTEXT, P251, None, stack, plaintext_length=130))
    back = read_ciphertext_file(path)
    assert back.plaintext_length == 130
    assert np.array_equal(back.stack, stack)
    write_ciphertext_file(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_rewrite_is_byte_identical(tmp_path):
    setup = gen_setup(SplitMix64(7), P251)
    p1, p2 = tmp_path / "s1", tmp_path / "s2"
    write_setup_file(p1, setup)
    write_setup_file(p2, read_setup_file(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_read_rejects_corruption(tmp_path):
    setup = gen_setup(SplitMix64(8), P251)
    path = tmp_path / "setup.tdp"
    write_setup_file(path, setup)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.tdp"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(Exception, match="magic"):
        read_setup_file(bad_magic)

    truncated = tmp_path / "trunc.tdp"
    truncated.write_bytes(raw[:-3])
    with pytest.raises(Exception, match="length"):
        read_setup_file(truncated)

    trailing = tmp_path / "trail.tdp"
    trailing.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(Exception, match="length"):
        read_setup_file(trailing)

    big_entry = bytearray(raw)
    big_entry[13] = 252  # entry >= p
    bad_entry = tmp_path / "entry.tdp"
    bad_entry.write_bytes(bytes(big_entry))
    with pytest.raises(Exception, match="entry"):
        read_setup_file(bad_entry)


def test_private_file_detects_tampered_matrix(tmp_path):
    rs = SplitMix64(9)
    setup = gen_setup(rs, P251)
    alice = alice_keygen(rs, setup)
    path = tmp_path / "a.key"
    write_private_file(path, alice)
    raw = bytearray(path.read_bytes())
    offset = 13 + 1 + 32 + 5 * 64  # inside a2
    raw[offset] = (raw[offset] + 1) % 251
    path.write_bytes(bytes(raw))
    with pytest.raises(Exception, match="inconsistent"):
        read_private_file(path)


_READERS = (read_setup_file, read_private_file, read_token_file,
            read_session_key_file, read_ciphertext_file)


@pytest.fixture(scope="module")
def valid_records(tmp_path_factory):
    """A temporary directory and one well-formed record of each kind, as bytes.

    The directory also holds session.key, the key of the ciphertext record.
    """
    directory = tmp_path_factory.mktemp("records")
    rs = SplitMix64(16)
    setup = gen_setup(rs, P251)
    alice = alice_keygen(rs, setup)
    key = run_session(rs, P251).alice_key
    write_session_key_file(directory / "session.key", key)
    writes = [
        (write_setup_file, setup),
        (write_private_file, alice),
        (write_token_file, alice_token(alice)),
        (write_session_key_file, key),
        (write_ciphertext_file, encrypt_message(key, rs.read(100))),
    ]
    records = []
    for write, obj in writes:
        write(directory / "record.tdp", obj)
        records.append((directory / "record.tdp").read_bytes())
    return directory, records


# overwritten bytes, one deleted (byte None) or inserted byte, and a forced type byte
_MUTATIONS = dict(
    overwrites=st.lists(st.tuples(st.integers(0, 700), st.integers(0, 255)), max_size=4),
    splice=st.none() | st.tuples(st.integers(0, 700), st.none() | st.integers(0, 255)),
    record_type=st.none() | st.integers(0, 6),
)


def _mutated(directory, record, overwrites, splice, record_type):
    """The path of a copy of record with the _MUTATIONS applied."""
    raw = bytearray(record)
    for pos, byte in overwrites:
        raw[pos % len(raw)] = byte
    if splice is not None:
        pos, byte = splice
        if byte is None:
            del raw[pos % len(raw)]
        else:
            raw.insert(pos % (len(raw) + 1), byte)
    if record_type is not None:
        raw[4] = record_type
    path = directory / "mutated.tdp"
    path.write_bytes(bytes(raw))
    return path


@given(kind=st.integers(0, 4), **_MUTATIONS)
@settings(max_examples=200, deadline=None)
def test_readers_raise_only_file_format_error(valid_records, kind, overwrites, splice,
                                              record_type):
    """Mutated records leave every reader returning an object or raising FileFormatError."""
    directory, records = valid_records
    path = _mutated(directory, records[kind], overwrites, splice, record_type)
    for read in _READERS:
        try:
            read(path)
        except FileFormatError:
            pass


@given(**_MUTATIONS)
@settings(max_examples=200, deadline=None)
def test_decrypt_command_refuses_mutated_ciphertext(valid_records, overwrites, splice,
                                                     record_type):
    """A mutated ciphertext record makes decrypt exit 3, 4 or 5 and write nothing, unless
    the mutation left a well-formed record, which then decrypts as the library reads it."""
    directory, records = valid_records
    path = _mutated(directory, records[4], overwrites, splice, record_type)
    key, out = directory / "session.key", directory / "mutated.dec"
    out.unlink(missing_ok=True)
    code = main(["decrypt", "--key", str(key), "--in", str(path), "--out", str(out)])
    if code == 0:  # e.g. a byte overwritten with itself, or a length its blocks still frame
        message = read_ciphertext_file(path)
        assert out.read_bytes() == decrypt_message(read_session_key_file(key), message)
    else:
        assert code in (3, 4, 5)
        assert not out.exists()


# ---------------------------------------------------------------------------
# pipeline end to end
# ---------------------------------------------------------------------------

def _pipeline(tmp_path, tag, setup_seed=11, alice_seed=12, bob_seed=13):
    d = tmp_path / tag
    d.mkdir()
    files = {
        "setup": d / "setup.tdp",
        "alice_key": d / "alice.key",
        "bob_key": d / "bob.key",
        "alice_tok": d / "alice.tok",
        "bob_tok": d / "bob.tok",
        "alice_sk": d / "alice.sk",
        "bob_sk": d / "bob.sk",
        "msg": d / "msg.bin",
        "cipher": d / "msg.tdp",
        "recovered": d / "rec.bin",
    }
    files["msg"].write_bytes(SplitMix64(99).read(1000))
    steps = [
        ["setup", "--seed", str(setup_seed), "--out", str(files["setup"])],
        ["keygen", "--in", str(files["setup"]), "--role", "alice",
         "--seed", str(alice_seed), "--out", str(files["alice_key"])],
        ["keygen", "--in", str(files["setup"]), "--role", "bob",
         "--seed", str(bob_seed), "--out", str(files["bob_key"])],
        ["token", "--key", str(files["alice_key"]), "--out", str(files["alice_tok"])],
        ["token", "--key", str(files["bob_key"]), "--out", str(files["bob_tok"])],
        ["shared", "--key", str(files["alice_key"]), "--peer", str(files["bob_tok"]),
         "--out", str(files["alice_sk"])],
        ["shared", "--key", str(files["bob_key"]), "--peer", str(files["alice_tok"]),
         "--out", str(files["bob_sk"])],
        ["encrypt", "--key", str(files["alice_sk"]), "--in", str(files["msg"]),
         "--out", str(files["cipher"])],
        ["decrypt", "--key", str(files["bob_sk"]), "--in", str(files["cipher"]),
         "--out", str(files["recovered"])],
    ]
    for step in steps:
        assert main(step) == 0, step
    return files


def test_pipeline_end_to_end(tmp_path):
    files = _pipeline(tmp_path, "run1")
    assert files["recovered"].read_bytes() == files["msg"].read_bytes()
    assert files["alice_sk"].read_bytes() == files["bob_sk"].read_bytes()


def test_pipeline_reproducible(tmp_path):
    first = _pipeline(tmp_path, "run1")
    second = _pipeline(tmp_path, "run2")
    for name in ("setup", "alice_key", "bob_key", "alice_tok", "bob_tok",
                 "alice_sk", "bob_sk", "cipher", "recovered"):
        assert first[name].read_bytes() == second[name].read_bytes(), name


def test_pipeline_files_are_owner_only_and_leave_no_temp_file(tmp_path):
    files = _pipeline(tmp_path, "run1")
    for name, path in files.items():
        if name != "msg":  # written by the test, not by a command
            assert stat.S_IMODE(path.stat().st_mode) == 0o600, name
    assert not list(tmp_path.glob("**/.tdp-*"))


def test_unseeded_setup_draws_every_byte_from_the_os(tmp_path, monkeypatch):
    # the stub serves a seeded stream and keeps every byte it served, so the
    # setup must be exactly the one those bytes give
    stream, served = SplitMix64(5), bytearray()

    def urandom(n):
        data = stream.read(n)
        served.extend(data)
        return data

    monkeypatch.setattr(os, "urandom", urandom)
    out = tmp_path / "setup.tdp"
    assert main(["setup", "--out", str(out)]) == 0
    # four 8 x 8 bases take at least 256 bytes at p = 251
    assert len(served) >= 4 * P251.d * P251.d
    assert read_setup_file(str(out)) == gen_setup(StubSource(served), P251)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

_TOP_USAGE = (
    "usage: tdpkex [-h]\n"
    "              {params,setup,keygen,token,shared,encrypt,decrypt,stats,attack,irreducible}\n"
    "              ...\n"
)


@pytest.mark.parametrize("argv, err", [
    (["token", "--key", "k", "--out", "o", "--bogus"],
     _TOP_USAGE + "tdpkex: error: unrecognized arguments: --bogus\n"),
    (["token", "--key", "k"],
     "usage: tdpkex token [-h] --key KEY --out OUT\n"
     "tdpkex token: error: the following arguments are required: --out\n"),
    (["setup", "--seed", "x", "--out", "o"],
     "usage: tdpkex setup [-h] [--prime PRIME] [--dim DIM] [--seed SEED] --out OUT\n"
     "tdpkex setup: error: argument --seed: invalid int value: 'x'\n"),
    (["frobnicate"],
     _TOP_USAGE + "tdpkex: error: argument command: invalid choice: 'frobnicate' (choose from "
     "'params', 'setup', 'keygen', 'token', 'shared', 'encrypt', 'decrypt', 'stats', "
     "'attack', 'irreducible')\n"),
    ([], _TOP_USAGE + "tdpkex: error: the following arguments are required: command\n"),
])
def test_exit_2_argv_refusals_print_the_usage_they_always_printed(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


def test_command_help_prints_the_command_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["token", "-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: tdpkex token [-h] --key KEY --out OUT\n")
    assert err == ""


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
def test_exit_2_seed_outside_64_bits_before_any_file_is_read(tmp_path, capsys, monkeypatch, seed):
    # SplitMix64 keeps a seed's low 64 bits, so these would repeat seeds in range
    def no_read(path):
        raise AssertionError("keygen read its setup before refusing the seed")

    monkeypatch.setattr(cli, "read_setup_file", no_read)
    out = tmp_path / "a.key"
    with pytest.raises(SystemExit) as exc:
        main(["keygen", "--in", str(tmp_path / "s.tdp"), "--role", "alice",
              "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"tdpkex keygen: error: argument --seed: {seed} is outside [0, 2^64)\n")
    assert not out.exists()


def test_seed_range_ends_at_the_largest_64_bit_seed(tmp_path):
    out = tmp_path / "s.tdp"
    assert main(["setup", "--prime", "5", "--dim", "2", "--seed", str(2**64 - 1), "--out", str(out)]) == 0
    assert read_setup_file(str(out)) == gen_setup(SplitMix64(2**64 - 1), FieldParams(5, 2))


def test_exit_2_role_mismatch(tmp_path):
    files = _pipeline(tmp_path, "run1")
    code = main(["shared", "--key", str(files["alice_key"]),
                 "--peer", str(files["alice_tok"]), "--out", str(tmp_path / "bad.sk")])
    assert code == 2


def test_exit_2_invalid_prime(capsys):
    assert main(["params", "--prime", "4", "--dim", "8"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_exit_2_attack_bound():
    assert main(["attack", "--prime", "251", "--dim", "8", "--seed", "1"]) == 2


def test_exit_2_prime_too_large_for_files(tmp_path):
    assert main(["setup", "--prime", "257", "--dim", "2",
                 "--seed", "1", "--out", str(tmp_path / "s.tdp")]) == 2


def test_exit_2_dimension_too_large_for_files(tmp_path, capsys, monkeypatch):
    # the header stores d in one byte; the refusal comes before any draw
    def no_draw(*args):
        raise AssertionError("setup drew before refusing the dimension")

    monkeypatch.setattr(cli, "gen_setup", no_draw)
    out = tmp_path / "s.tdp"
    assert main(["setup", "--prime", "5", "--dim", "256", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: dimension must be <= 255 for the file format's one-byte dimension field\n")
    assert not out.exists()


def test_exit_2_out_in_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    assert main(["setup", "--seed", "1", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.parent.exists()


@pytest.mark.parametrize("case", ["missing-directory", "out-is-a-directory"])
def test_exit_2_unusable_out_names_the_given_path(tmp_path, capsys, case):
    if case == "missing-directory":
        target = tmp_path / "nope" / "s.tdp"
    else:
        target = tmp_path / "s.tdp"
        target.mkdir()
    assert main(["setup", "--seed", "1", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert str(target) in err
    assert ".tdp-" not in err
    assert not list(tmp_path.glob("**/.tdp-*"))


def test_exit_2_missing_encrypt_input(tmp_path, capsys):
    key = tmp_path / "k.sk"
    write_session_key_file(key, run_session(SplitMix64(500), P251).alice_key)
    out = tmp_path / "c.tdp"
    code = main(["encrypt", "--key", str(key), "--in", str(tmp_path / "absent.bin"),
                 "--out", str(out)])
    assert code == 2
    assert "absent.bin" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("keygen", "--in"), ("token", "--key"), ("shared", "--key"), ("shared", "--peer"),
    ("encrypt", "--key"), ("decrypt", "--key"), ("decrypt", "--in"),
])
def test_exit_2_missing_record_names_the_path(tmp_path, capsys, command, flag):
    files = _pipeline(tmp_path, "run")
    argv = {
        "keygen": ["keygen", "--in", files["setup"], "--role", "alice", "--seed", "1"],
        "token": ["token", "--key", files["alice_key"]],
        "shared": ["shared", "--key", files["alice_key"], "--peer", files["bob_tok"]],
        "encrypt": ["encrypt", "--key", files["alice_sk"], "--in", files["msg"]],
        "decrypt": ["decrypt", "--key", files["bob_sk"], "--in", files["cipher"]],
    }[command]
    absent = tmp_path / "absent.tdp"
    argv[argv.index(flag) + 1] = absent
    out = tmp_path / "out.tdp"
    capsys.readouterr()
    assert main([str(arg) for arg in argv + ["--out", out]]) == 2
    assert str(absent) in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("**/.tdp-*"))


def test_exit_3_bad_magic(tmp_path):
    bad = tmp_path / "bad.tdp"
    bad.write_bytes(b"NOPE" + bytes(20))
    assert main(["token", "--key", str(bad), "--out", str(tmp_path / "t.tok")]) == 3


def test_exit_3_wrong_record_type(tmp_path):
    files = _pipeline(tmp_path, "run1")
    code = main(["token", "--key", str(files["setup"]), "--out", str(tmp_path / "t.tok")])
    assert code == 3


def test_exit_3_setup_with_p2(tmp_path):
    # well-formed record with invertible bases, but p = 2 leaves no secret eigenvalues
    p2 = FieldParams(p=2, d=2)
    ident, shear = [[1, 0], [0, 1]], [[1, 1], [0, 1]]
    setup = tmp_path / "p2.tdp"
    setup.write_bytes(_pack_record(REC_SETUP, p2, None, np.array([ident, shear, ident, shear])))
    assert main(["keygen", "--in", str(setup), "--role", "alice",
                 "--seed", "1", "--out", str(tmp_path / "a.key")]) == 3


def test_exit_3_role_byte_on_setup(tmp_path):
    setup = tmp_path / "setup.tdp"
    write_setup_file(setup, gen_setup(SplitMix64(14), P251))
    raw = bytearray(setup.read_bytes())
    raw[8] = 1  # setup records carry no role
    setup.write_bytes(bytes(raw))
    assert main(["keygen", "--in", str(setup), "--role", "alice",
                 "--seed", "1", "--out", str(tmp_path / "a.key")]) == 3


def test_exit_3_singular_token(tmp_path, capsys):
    rs = SplitMix64(15)
    key = tmp_path / "a.key"
    write_private_file(key, alice_keygen(rs, gen_setup(rs, P251)))
    token = tmp_path / "b.tok"
    token.write_bytes(_pack_record(REC_TOKEN, P251, Role.BOB, np.zeros((3, 8, 8), np.int64)))
    assert main(["shared", "--key", str(key), "--peer", str(token),
                 "--out", str(tmp_path / "a.sk")]) == 3
    assert capsys.readouterr().err == (
        f"error: {token}: inconsistent token material: token has a singular matrix\n"
    )


def test_read_token_carries_inverses_and_shared_needs_no_elimination(tmp_path, row_reductions):
    result = run_session(SplitMix64(17), P251)
    path = tmp_path / "b.tok"
    write_token_file(path, result.bob_pub)
    token = read_token_file(path)
    assert token == result.bob_pub
    assert np.array_equal(token.inverses, [mat_inverse(t).a for t in (token.t1, token.t2, token.t3)])
    row_reductions.clear()
    key = tdpkex.alice_shared(result.alice, token)
    assert row_reductions == []
    assert key == result.alice_key
    assert key.k_inv == mat_inverse(key.k)


@pytest.mark.parametrize("role, keygen, free", [("alice", alice_keygen, 4), ("bob", bob_keygen, 6)])
@pytest.mark.parametrize("matrix", ["P", "S", "free"])
def test_exit_3_singular_private_matrix(tmp_path, capsys, role, keygen, free, matrix):
    # the reader inverts the bases and the free factor in one call; a
    # singular one is still refused by its constructor, with its own name
    rs = SplitMix64(15)
    key = tmp_path / "k.key"
    write_private_file(key, keygen(rs, gen_setup(rs, P251)))
    raw = bytearray(key.read_bytes())
    index = {"P": 0, "S": 3, "free": free}[matrix]
    start = 13 + 1 + 32 + index * 64
    raw[start:start + 64] = bytes(64)
    key.write_bytes(bytes(raw))
    assert main(["token", "--key", str(key), "--out", str(tmp_path / "k.tok")]) == 3
    name = {"P": "basis P", "S": "basis S", "free": "a1" if role == "alice" else "b3"}[matrix]
    assert capsys.readouterr().err == f"error: {key}: inconsistent private key material: {name} is singular\n"


def test_exit_4_params_mismatch(tmp_path):
    files = _pipeline(tmp_path, "run1")
    d7 = tmp_path / "p7"
    d7.mkdir()
    assert main(["setup", "--prime", "7", "--dim", "2", "--seed", "1",
                 "--out", str(d7 / "setup.tdp")]) == 0
    assert main(["keygen", "--in", str(d7 / "setup.tdp"), "--role", "bob",
                 "--seed", "2", "--out", str(d7 / "bob.key")]) == 0
    assert main(["token", "--key", str(d7 / "bob.key"), "--out", str(d7 / "bob.tok")]) == 0
    code = main(["shared", "--key", str(files["alice_key"]),
                 "--peer", str(d7 / "bob.tok"), "--out", str(tmp_path / "bad.sk")])
    assert code == 4


def test_exit_5_wrong_key_decrypt(tmp_path):
    files = _pipeline(tmp_path, "run1")
    other = run_session(SplitMix64(500), P251)
    wrong = tmp_path / "wrong.sk"
    write_session_key_file(wrong, other.alice_key)
    code = main(["decrypt", "--key", str(wrong), "--in", str(files["cipher"]),
                 "--out", str(tmp_path / "out.bin")])
    assert code == 5
    assert not (tmp_path / "out.bin").exists()


def test_exit_5_out_of_range_block_in_bulk_file(tmp_path, capsys):
    # a 1000-block file takes the bulk decode path; block 2 decodes to 256^bpb
    key = SessionKey(random_nonsingular(SplitMix64(60), P251)[0])
    p, bpb = P251.p, bytes_per_block(P251)
    plaintext = SplitMix64(61).read(1000 * bpb)
    stack = encrypt_message(key, plaintext).stack.copy()
    stack[2] = (key.k_inv.a @ oracles.radix_digits(1 << (8 * bpb), p, P251.d) % p) @ key.k.a % p
    bad, out = tmp_path / "bad.tdp", tmp_path / "out.bin"
    bad.write_bytes(_pack_record(REC_CIPHERTEXT, P251, None, stack, plaintext_length=len(plaintext)))
    key_path = _key_file(tmp_path, key)
    assert main(["decrypt", "--key", str(key_path), "--in", str(bad), "--out", str(out)]) == 5
    assert "padded byte block" in capsys.readouterr().err
    assert not out.exists()


def _key_file(tmp_path, key):
    path = tmp_path / "k.sk"
    write_session_key_file(path, key)
    return path


@pytest.mark.parametrize("params, size", [(P251, 0), (P251, 1), (P251, 62), (P251, 63),
                                          (P251, 64), (P251, 1000 * 63 + 5),
                                          (FieldParams(p=7, d=4), 23)])
def test_encrypt_command_matches_library_route(tmp_path, params, size):
    key = SessionKey(random_nonsingular(SplitMix64(size), params)[0])
    key_path = _key_file(tmp_path, key)
    plaintext = SplitMix64(size + 1).read(size)
    plain, cli_file, lib_file = tmp_path / "m.bin", tmp_path / "cli.tdp", tmp_path / "lib.tdp"
    plain.write_bytes(plaintext)
    assert main(["encrypt", "--key", str(key_path), "--in", str(plain),
                 "--out", str(cli_file)]) == 0
    message = encrypt_message(key, plaintext)
    write_ciphertext_file(lib_file, message)
    assert cli_file.read_bytes() == lib_file.read_bytes()
    # each route decrypts the other's file
    out = tmp_path / "out.bin"
    assert main(["decrypt", "--key", str(key_path), "--in", str(lib_file),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == plaintext
    back = read_ciphertext_file(cli_file)
    assert back == message
    assert decrypt_message(key, back) == plaintext


@pytest.mark.parametrize("blocks", [1, 1000])
def test_cli_round_trip_builds_no_per_block_objects(tmp_path, monkeypatch, built_matrices, blocks):
    """No command builds a Matrix or a CipherBlock: the key and the blocks stay stacks."""
    key_path = _key_file(tmp_path, run_session(SplitMix64(19), P251).alice_key)
    plain, cipher, out = tmp_path / "m.bin", tmp_path / "m.tdp", tmp_path / "m.out"
    plain.write_bytes(SplitMix64(20).read(blocks * 63))
    built_matrices.clear()
    blocks_built, init = [], CipherBlock.__init__

    def counted_init(self, *args, **kwargs):
        blocks_built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CipherBlock, "__init__", counted_init)
    assert main(["encrypt", "--key", str(key_path), "--in", str(plain), "--out", str(cipher)]) == 0
    assert main(["decrypt", "--key", str(key_path), "--in", str(cipher), "--out", str(out)]) == 0
    assert out.read_bytes() == plain.read_bytes()
    # the one checked build is decrypt's read of the ciphertext file
    assert [type(obj) for obj in built_matrices] == [CipherMessage]
    assert blocks_built == []


def test_cli_token_and_shared_build_no_matrix(tmp_path, built_matrices):
    """The readers hand their checked stacks to the constructors and the writers pack the
    objects' stacks, so neither command wraps a Matrix."""
    files = _pipeline(tmp_path, "run1")
    token, key = tmp_path / "a.tok", tmp_path / "a.sk"
    built_matrices.clear()
    assert main(["token", "--key", str(files["alice_key"]), "--out", str(token)]) == 0
    assert len(built_matrices) == 0
    assert main(["shared", "--key", str(files["alice_key"]), "--peer", str(files["bob_tok"]),
                 "--out", str(key)]) == 0
    assert len(built_matrices) == 0
    assert token.read_bytes() == files["alice_tok"].read_bytes()
    assert key.read_bytes() == files["alice_sk"].read_bytes()


def test_cli_cipher_goes_through_the_library_route(tmp_path, monkeypatch):
    """encrypt and decrypt call the public message and ciphertext-file functions once each.

    These are the cli bindings a tracer replaces to see the ciphertext work.
    """
    calls = dict.fromkeys(["encrypt_message", "decrypt_message",
                           "write_ciphertext_file", "read_ciphertext_file"], 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cli, name, counted)
    key_path = _key_file(tmp_path, run_session(SplitMix64(21), P251).alice_key)
    plain, cipher, out = tmp_path / "m.bin", tmp_path / "m.tdp", tmp_path / "m.out"
    plain.write_bytes(SplitMix64(22).read(300))
    assert main(["encrypt", "--key", str(key_path), "--in", str(plain), "--out", str(cipher)]) == 0
    assert main(["decrypt", "--key", str(key_path), "--in", str(cipher), "--out", str(out)]) == 0
    assert out.read_bytes() == plain.read_bytes()
    assert calls == dict.fromkeys(calls, 1)


def test_exit_2_encrypt_at_zero_capacity(tmp_path, capsys):
    key_path = _key_file(tmp_path, SessionKey(Matrix.identity(FieldParams(p=3, d=2))))
    plain, out = tmp_path / "m.bin", tmp_path / "m.tdp"
    plain.write_bytes(b"\x00")
    assert main(["encrypt", "--key", str(key_path), "--in", str(plain), "--out", str(out)]) == 2
    assert "cannot carry" in capsys.readouterr().err
    assert not out.exists()


def _bad_ciphertext(case, raw):
    """A ciphertext record broken as case says, from raw: a good 2-block, 100-byte record."""
    if case == "truncated":
        return raw[:-1]
    if case == "entry >= p":
        return raw[:-1] + bytes([251])
    if case == "count vs length":  # 200 bytes need 4 blocks, the record has 2
        return raw[:13] + (200).to_bytes(8, "little") + raw[21:]
    if case == "zero capacity":  # no byte fits a p=3, d=2 block
        stack = np.zeros((1, 2, 2), np.int64)
        return _pack_record(REC_CIPHERTEXT, FieldParams(p=3, d=2), None, stack,
                            plaintext_length=1)
    p7 = FieldParams(p=7, d=4)
    message = encrypt_message(SessionKey(Matrix.identity(p7)), bytes(10))
    return _pack_record(REC_CIPHERTEXT, p7, None, message.stack, plaintext_length=10)


@pytest.mark.parametrize("case, code, reason", [
    ("truncated", 3, "does not match header"),
    ("entry >= p", 3, "entry >= p"),
    ("count vs length", 3, "2 blocks inconsistent with length 200"),
    ("zero capacity", 3, "cannot carry"),
    ("p=7 under a p=251 key", 4, "ciphertext parameters differ from key"),
])
def test_decrypt_command_refusals(tmp_path, capsys, case, code, reason):
    key = run_session(SplitMix64(17), P251).alice_key
    key_path = _key_file(tmp_path, key)
    good = tmp_path / "good.tdp"
    write_ciphertext_file(good, encrypt_message(key, SplitMix64(18).read(100)))
    bad, out = tmp_path / "bad.tdp", tmp_path / "out.bin"
    bad.write_bytes(_bad_ciphertext(case, good.read_bytes()))
    assert main(["decrypt", "--key", str(key_path), "--in", str(bad), "--out", str(out)]) == code
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_no_partial_file_on_error(tmp_path):
    target = tmp_path / "never.sk"
    files = _pipeline(tmp_path, "run1")
    code = main(["shared", "--key", str(files["alice_key"]),
                 "--peer", str(files["alice_tok"]), "--out", str(target)])
    assert code == 2
    assert not target.exists()


# ---------------------------------------------------------------------------
# report commands
# ---------------------------------------------------------------------------

def test_params_kv_small_group(capsys):
    assert main(["params", "--prime", "2", "--dim", "2", "--format", "kv"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert out["gl_order"] == "6"
    assert out["total_matrices"] == "16"
    assert out["singular_count"] == "10"
    assert out["nilpotent_count"] == "4"
    assert out["irreducible_polynomials"] == "1"


def test_params_text_paper_scale(capsys):
    assert main(["params", "--prime", "251", "--dim", "8"]) == 0
    out = capsys.readouterr().out
    assert "3.779005647067214e153" in out
    assert "3.794182134705598e153" in out
    assert "4.768470575042706e76" in out


def test_params_keyspace_kv(capsys):
    assert main(["params", "--prime", "251", "--dim", "8", "--format", "kv"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert out["keyspace_p_minus_2"] == str(249 ** 32)
    assert out["keyspace_p_minus_1"] == str(250 ** 32)
    assert float(out["quantum_bits_p_minus_2"]) == pytest.approx(127.36, abs=0.01)


@pytest.mark.parametrize("prime,dim", [(251, 42), (251, 43), (65521, 29), (65521, 30)])
def test_params_past_the_integer_string_limit(capsys, prime, dim):
    # at (251, 43) and (65521, 30) p^(d^2) passes Python's 4300-digit limit
    # on integer string conversion: text still prints, kv refuses by name
    total = prime ** (dim * dim)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(total)
    finally:
        sys.set_int_max_str_digits(limit)
    assert main(["params", "--prime", str(prime), "--dim", str(dim)]) == 0
    out = capsys.readouterr().out
    assert f"total_matrices            {digits[0]}.{digits[1:16]}e{len(digits) - 1}\n" in out
    code = main(["params", "--prime", str(prime), "--dim", str(dim), "--format", "kv"])
    out, err = capsys.readouterr()
    if len(digits) <= limit:
        assert code == 0
        assert f"total_matrices={digits}\n" in out
    else:
        assert code == 2 and out == ""
        assert f"total_matrices has more than {limit} digits" in err


def test_stats_command(capsys):
    assert main(["stats", "--sessions", "25", "--seed", "7", "--format", "kv"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert out["agreement"] == "25/25"
    assert out["roundtrip"] == "25/25"
    assert out["leak"] == "trace/det/charpoly preserved: yes"


def test_stats_leak_line_says_no_for_one_mismatched_pair(capsys, monkeypatch):
    # 130 sessions fill one 128-pair Berkowitz pass and start a second; the
    # last pair's plain block is swapped for its neighbour's
    genuine = analysis.session_statistics(SplitMix64(7), P251, 130)
    plain = list(genuine.plain_blocks)
    plain[-1] = plain[-2]
    runs = {}
    for name, stats in (("genuine", genuine), ("swapped", replace(genuine, plain_blocks=tuple(plain)))):
        monkeypatch.setattr(analysis, "session_statistics", lambda rs, params, n, stats=stats: stats)
        assert main(["stats", "--sessions", "130", "--seed", "7", "--format", "kv"]) == 0
        runs[name] = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert runs["genuine"]["leak"] == "trace/det/charpoly preserved: yes"
    assert runs["swapped"].pop("leak") == "trace/det/charpoly preserved: NO"
    runs["genuine"].pop("leak")
    assert runs["swapped"] == runs["genuine"]


def test_stats_single_session(capsys):
    assert main(["stats", "--sessions", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "1/1" in out


def test_stats_skips_uniformity_on_too_few_samples(capsys):
    assert main(["stats", "--sessions", "1", "--seed", "1", "--format", "kv"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert out["uniformity"] == "SKIPPED (64 entries < required 2510)"


def test_attack_command_text(capsys):
    assert main(["attack", "--prime", "5", "--dim", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "search space       256" in out
    assert "pseudo-key reproduces session key: yes" in out


def test_attack_command_p3_space(capsys):
    assert main(["attack", "--prime", "3", "--dim", "2", "--seed", "1", "--format", "kv"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert out["search space"] == "16"
    assert out["reproduces"] == "yes"


def test_irreducible_command(capsys):
    assert main(["irreducible", "--prime", "3", "--degree", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "polynomial x^2 + x + 2" in out
    assert "order 8" in out
    assert "primitive: yes" in out


def test_irreducible_command_membership(capsys):
    known = {"x^2 + 1", "x^2 + x + 2", "x^2 + 2x + 2"}
    for seed in range(8):
        assert main(["irreducible", "--prime", "3", "--degree", "2", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        poly_line = next(l for l in out.splitlines() if l.startswith("polynomial"))
        assert poly_line.removeprefix("polynomial ") in known


def test_irreducible_degree_one(capsys):
    assert main(["irreducible", "--prime", "7", "--degree", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "polynomial x + " in out
    assert "companion" not in out  # no matrix for degree 1


def test_console_entry_point():
    # the child imports the same package as the tests, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(tdpkex.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "tdpkex", "params", "--prime", "5", "--dim", "2",
         "--format", "kv"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "gl_order=480" in proc.stdout
