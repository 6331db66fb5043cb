"""Command-line surface and the binary key/ciphertext file format.

File layout (little-endian multi-byte integers):

    offset  size  field
    0       4     magic "TDP1"
    4       1     record type: 1 setup, 2 private, 3 token, 4 session key,
                  5 ciphertext
    5       2     prime (u16)
    7       1     dimension
    8       1     role: 1 alice, 2 bob on types 2 and 3; 0 on the others
    9       4     matrix count (u32)
    13      ...   type 2 only: eigenvalue lists (count byte, then d bytes each)
                  type 5 only: plaintext length (u64)
    ...     n*d*d matrices, row-major, one byte per entry (requires p <= 251)

Entries must be < p and the file length is fully determined by the header;
anything else is rejected, as is material its constructor refuses (singular
bases, keys or token matrices, inconsistent private factors).  Files are
written to a temp name and renamed, so a crashed run never leaves a partial
file.

Exit codes: 0 success, 2 bad flags or parameters or an unusable --in/--out
path, 3 file-format violation, 4 parameter mismatch between files, 5
decryption range failure (wrong key).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile

import numpy as np

from . import analysis, poly_tools
from .cipher import CipherMessage, decrypt_message, encrypt_message
from .errors import (
    FactorizationError,
    FileFormatError,
    ParamsMismatchError,
    SingularMatrixError,
    TooFewSamplesError,
    ValueOutOfRangeError,
)
from .field_matrix import FieldParams, SplitMix64, _invert
from .protocol import (
    ROLE_LAYOUT,
    AlicePrivate,
    BobPrivate,
    PublicSetup,
    PublicToken,
    Role,
    SessionKey,
    _check_eigenvalues,
    alice_keygen,
    alice_shared,
    alice_token,
    bob_keygen,
    bob_shared,
    bob_token,
    gen_setup,
)

MAGIC = b"TDP1"
REC_SETUP = 1
REC_PRIVATE = 2
REC_TOKEN = 3
REC_SESSION_KEY = 4
REC_CIPHERTEXT = 5

_ROLES = (None, Role.ALICE, Role.BOB)  # indexed by the role byte

# record type -> (name, matrix count, role byte names a party).  A ciphertext's
# count follows from its plaintext length, so the table fixes none.  The role
# byte is required on private and token records and must be 0 on the others.
_KINDS = {
    REC_SETUP: ("setup", 4, False),
    REC_PRIVATE: ("private key", 9, True),
    REC_TOKEN: ("token", 3, True),
    REC_SESSION_KEY: ("session key", 1, False),
    REC_CIPHERTEXT: ("ciphertext", None, False),
}


# ---------------------------------------------------------------------------
# binary records
# ---------------------------------------------------------------------------

def _check_file_params(params: FieldParams) -> None:
    if params.p > 251:
        raise ValueError("prime must be <= 251 for the one-byte-per-entry file format")


def _atomic_write(path: str, data: bytes) -> None:
    """Write through a temp file in path's directory and a rename; an OSError names path."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tdp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # the temp name in exc means nothing to the user who gave path
        raise OSError(exc.errno, exc.strerror, path) from exc


def _pack_record(
    record_type: int,
    params: FieldParams,
    role: Role | None,
    stack: np.ndarray,
    eigenvalues: np.ndarray | None = None,
    plaintext_length: int | None = None,
) -> bytes:
    """The record bytes of an (n, d, d) stack of entries in [0, p)."""
    _check_file_params(params)
    out = bytearray()
    out += MAGIC
    out.append(record_type)
    out += params.p.to_bytes(2, "little")
    out.append(params.d)
    out.append(_ROLES.index(role))
    out += len(stack).to_bytes(4, "little")
    if record_type == REC_PRIVATE:
        out.append(len(eigenvalues))
        out += eigenvalues.astype(np.uint8).tobytes()
    if record_type == REC_CIPHERTEXT:
        out += plaintext_length.to_bytes(8, "little")
    out += stack.astype(np.uint8).tobytes()
    return bytes(out)


def _write(path: str, record_type: int, params: FieldParams, role: Role | None,
           stack: np.ndarray, **sections) -> None:
    _atomic_write(path, _pack_record(record_type, params, role, stack, **sections))


def _read(path: str, expect_type: int, build):
    """Read a record of type expect_type; return build(params, role, stack, section).

    stack is the read-only (count, d, d) uint8 array of the record's
    matrices, every entry already checked to be < p; each builder converts
    it to the int64 stack its object keeps.  section is the private record's
    four eigenvalue lists as a (4, d) int64 array or the ciphertext's
    plaintext length, else None.  Every format violation, and any ValueError
    that build raises on inconsistent material, is a FileFormatError naming
    path.
    """
    def fail(reason: str):
        raise FileFormatError(f"{path}: {reason}")

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if len(data) < 13:
        fail("truncated header")
    if data[:4] != MAGIC:
        fail("bad magic")
    record_type, d, role_code = data[4], data[7], data[8]
    count = int.from_bytes(data[9:13], "little")
    if record_type not in _KINDS:
        fail(f"unknown record type {record_type}")
    name, fixed_count, has_role = _KINDS[record_type]
    if record_type != expect_type:
        fail(f"is a {name} record, expected {_KINDS[expect_type][0]}")
    try:
        params = FieldParams(p=int.from_bytes(data[5:7], "little"), d=d)
        _check_file_params(params)
    except ValueError as exc:
        fail(str(exc))
    if role_code >= len(_ROLES) or bool(role_code) != has_role:
        fail(f"role byte {role_code} is invalid in a {name} record")
    if fixed_count is not None and count != fixed_count:
        fail(f"{name} record needs {fixed_count} matrices, found {count}")
    pos, section = 13, None
    if record_type == REC_PRIVATE:
        if data[13:14] != b"\x04":
            fail("private key record needs 4 eigenvalue lists")
        pos = 14 + 4 * d
    elif record_type == REC_CIPHERTEXT:
        section = int.from_bytes(data[13:21], "little")
        pos = 21
    if len(data) != pos + count * d * d:
        fail(f"length {len(data)} does not match header (expected {pos + count * d * d})")
    if record_type == REC_PRIVATE:
        section = np.frombuffer(data, np.uint8, 4 * d, offset=14).reshape(4, d).astype(np.int64)
    entries = np.frombuffer(data, np.uint8, offset=pos).reshape(count, d, d)
    bad = np.flatnonzero((entries >= params.p).any(axis=(1, 2)))
    if bad.size:
        fail(f"matrix {bad[0]} has an entry >= p")
    try:
        return build(params, _ROLES[role_code], entries, section)
    except ValueError as exc:
        raise FileFormatError(f"{path}: inconsistent {name} material: {exc}") from exc


def write_setup_file(path: str, setup: PublicSetup) -> None:
    _write(path, REC_SETUP, setup.params, None, setup.bases)


def read_setup_file(path: str) -> PublicSetup:
    def build(params, role, stack, _):
        return PublicSetup._from_stacks(params, stack.astype(np.int64))

    return _read(path, REC_SETUP, build)


def write_private_file(path: str, priv: AlicePrivate | BobPrivate) -> None:
    stack = np.concatenate([priv.setup.bases, priv.factors])
    _write(path, REC_PRIVATE, priv.params, priv.role, stack, eigenvalues=priv.eigenvalues)


def read_private_file(path: str) -> AlicePrivate | BobPrivate:
    def build(params, role, stack, eigenvalues):
        layout, stack = ROLE_LAYOUT[role], stack.astype(np.int64)
        # the lists come first in the record, so their refusal does too
        _check_eigenvalues(params, eigenvalues)
        # one elimination for the four bases and the free factor; the
        # constructors check each inverse as a certificate, so a singular
        # matrix, whose inverse here is garbage, is refused there with its
        # own message
        inverses, _ = _invert(stack[[0, 1, 2, 3, 4 + layout.free_index]], params.p)
        setup = PublicSetup._from_stacks(params, stack[:4], inverses[:4])
        return layout.private._from_stacks(setup, eigenvalues, stack[4:], inverses[4])

    return _read(path, REC_PRIVATE, build)


def write_token_file(path: str, token: PublicToken) -> None:
    _write(path, REC_TOKEN, token.params, token.role, token.stack)


def read_token_file(path: str) -> PublicToken:
    def build(params, role, stack, _):
        stack = stack.astype(np.int64)
        inverses, dets = _invert(stack, params.p)
        # every token matrix is a product of invertible factors
        if not all(dets):
            raise SingularMatrixError("token has a singular matrix")
        return PublicToken._from_stacks(role, params, stack, inverses)

    return _read(path, REC_TOKEN, build)


def write_session_key_file(path: str, key: SessionKey) -> None:
    _write(path, REC_SESSION_KEY, key.params, None, key.stack[:1])


def read_session_key_file(path: str) -> SessionKey:
    def build(params, role, stack, _):
        return SessionKey._from_stacks(params, stack[0].astype(np.int64))

    return _read(path, REC_SESSION_KEY, build)


def write_ciphertext_file(path: str, message: CipherMessage) -> None:
    _atomic_write(path, _pack_record(REC_CIPHERTEXT, message.params, None, message.stack,
                                     plaintext_length=message.plaintext_length))


def read_ciphertext_file(path: str) -> CipherMessage:
    """The record's message; blocks that do not frame its length are a FileFormatError."""
    return _read(path, REC_CIPHERTEXT,
                 lambda params, role, stack, length: CipherMessage(params, length, stack))


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

def _sci(n: int) -> str:
    s = str(n)
    if len(s) <= 16:
        return s
    return f"{s[0]}.{s[1:16]}e{len(s) - 1}"


def _emit(pairs: list[tuple[str, str]], fmt: str) -> None:
    if fmt == "kv":
        for k, v in pairs:
            print(f"{k}={v}")
    else:
        width = max(len(k) for k, _ in pairs)
        for k, v in pairs:
            print(f"{k:<{width}}  {v}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _params_from_args(args) -> FieldParams:
    try:
        return FieldParams(p=args.prime, d=args.dim)
    except ValueError as exc:
        raise ValueError(f"invalid parameters: {exc}") from exc


def cmd_params(args) -> int:
    params = _params_from_args(args)
    ks = analysis.keyspace_size(params)
    exact = args.format == "kv"
    fmt_int = str if exact else _sci
    pairs = [
        ("prime", str(params.p)),
        ("dim", str(params.d)),
        ("total_matrices", fmt_int(poly_tools.matrix_space_size(params))),
        ("gl_order", fmt_int(poly_tools.gl_order(params))),
        ("singular_count", fmt_int(poly_tools.singular_count(params))),
        ("nilpotent_count", fmt_int(poly_tools.nilpotent_count(params))),
        ("irreducible_polynomials", fmt_int(poly_tools.count_irreducible(params.d, params.p))),
        ("keyspace_p_minus_2", fmt_int(ks.restricted)),
        ("keyspace_p_minus_1", fmt_int(ks.nonzero)),
        ("classical_bits_p_minus_2", f"{ks.restricted_bits:.2f}"),
        ("classical_bits_p_minus_1", f"{ks.nonzero_bits:.2f}"),
        ("quantum_bits_p_minus_2", f"{ks.restricted_quantum_bits:.2f}"),
        ("quantum_bits_p_minus_1", f"{ks.nonzero_quantum_bits:.2f}"),
    ]
    _emit(pairs, args.format)
    return 0


def _seed_from_args(args) -> int:
    if args.seed is not None:
        return args.seed
    return int.from_bytes(os.urandom(8), "little")


def cmd_setup(args) -> int:
    params = _params_from_args(args)
    _check_file_params(params)
    rs = SplitMix64(_seed_from_args(args))
    write_setup_file(args.out, gen_setup(rs, params))
    return 0


def cmd_keygen(args) -> int:
    setup = read_setup_file(args.infile)
    rs = SplitMix64(_seed_from_args(args))
    priv = alice_keygen(rs, setup) if args.role == "alice" else bob_keygen(rs, setup)
    write_private_file(args.out, priv)
    return 0


def cmd_token(args) -> int:
    priv = read_private_file(args.key)
    token = alice_token(priv) if priv.role is Role.ALICE else bob_token(priv)
    write_token_file(args.out, token)
    return 0


def cmd_shared(args) -> int:
    priv = read_private_file(args.key)
    token = read_token_file(args.peer)
    if token.params != priv.params:
        raise ParamsMismatchError(
            f"{args.peer}: token parameters {token.params} differ from private key"
        )
    key = alice_shared(priv, token) if priv.role is Role.ALICE else bob_shared(priv, token)
    write_session_key_file(args.out, key)
    return 0


def cmd_encrypt(args) -> int:
    key = read_session_key_file(args.key)
    with open(args.infile, "rb") as fh:
        plaintext = fh.read()
    write_ciphertext_file(args.out, encrypt_message(key, plaintext))
    return 0


def cmd_decrypt(args) -> int:
    key = read_session_key_file(args.key)
    message = read_ciphertext_file(args.infile)
    if message.params != key.params:
        raise ParamsMismatchError(f"{args.infile}: ciphertext parameters differ from key")
    _atomic_write(args.out, decrypt_message(key, message))
    return 0


def cmd_stats(args) -> int:
    if args.sessions < 1:
        raise ValueError("--sessions must be >= 1")
    params = _params_from_args(args)
    rs = SplitMix64(_seed_from_args(args))
    st = analysis.session_statistics(rs, params, args.sessions)
    pairs = [
        ("sessions", str(st.sessions)),
        ("agreement", f"{st.agreements}/{st.sessions}"),
        ("roundtrip", f"{st.roundtrips}/{st.sessions}"),
        ("mean_session_ms", f"{st.mean_seconds * 1000:.3f}"),
        ("candidate_draws", str(st.candidate_draws)),
        ("singular_redraws", str(st.singular_redraws)),
        ("redraw_rate", f"{st.redraw_rate:.5f}"),
    ]
    if st.cipher_blocks:
        matrices = [b.c for b in st.cipher_blocks]
        try:
            rep = analysis.uniformity_stats(matrices)
            pairs += [
                ("chi_square", f"{rep.chi_square:.2f}"),
                ("dof", str(rep.dof)),
                ("p_value", f"{rep.p_value:.4f}"),
                ("uniformity", "PASS" if rep.passed else "FAIL"),
            ]
        except TooFewSamplesError as exc:  # tiny runs
            pairs.append(("uniformity", f"SKIPPED ({exc})"))
        leak_all = all(
            analysis.similarity_leak_check(m, c).all_equal
            for m, c in zip(st.plain_blocks, st.cipher_blocks)
        )
        pairs.append(("leak", f"trace/det/charpoly preserved: {'yes' if leak_all else 'NO'}"))
    _emit(pairs, args.format)
    return 0


def cmd_attack(args) -> int:
    params = _params_from_args(args)
    space = (params.p - 1) ** (2 * params.d)
    if space > 10_000_000:
        raise ValueError(
            f"search space {space} exceeds the 10^7 toy-scale bound; use smaller --prime/--dim"
        )
    rs = SplitMix64(_seed_from_args(args))
    from .protocol import run_session

    result = run_session(rs, params)
    pk = analysis.brute_force_pseudo_key(
        result.setup, result.alice_pub, result.bob_pub, result.alice_key
    )
    ok = analysis.pseudo_key_reproduces(pk, result.alice_pub, result.bob_pub, result.alice_key)
    pairs = [
        ("prime", str(params.p)),
        ("dim", str(params.d)),
        ("search space", str(space)),
        ("candidates tested", str(pk.candidates_tested)),
    ]
    _emit(pairs, args.format)
    if args.format == "kv":
        print(f"reproduces={'yes' if ok else 'no'}")
    else:
        print(f"pseudo-key reproduces session key: {'yes' if ok else 'NO'}")
        for name, m in (("x1'", pk.x1), ("x2'", pk.x2), ("a1'", pk.a1), ("a2'", pk.a2), ("a3'", pk.a3)):
            print(f"{name} =")
            print(m.a)
    return 0


def cmd_irreducible(args) -> int:
    if args.degree < 1:
        raise ValueError("--degree must be >= 1")
    try:
        FieldParams(p=args.prime, d=max(2, args.degree))
    except ValueError as exc:
        raise ValueError(f"invalid parameters: {exc}") from exc
    rs = SplitMix64(_seed_from_args(args))
    f, trials = poly_tools.random_irreducible(rs, args.degree, args.prime)
    print(f"prime {args.prime}")
    print(f"degree {args.degree}")
    print(f"polynomial {f}")
    print(f"trials {trials}")
    if args.degree >= 2:
        comp = poly_tools.companion_matrix(f)
        print("companion matrix =")
        print(comp.a)
        group_order = args.prime ** args.degree - 1
        try:
            factorization = poly_tools.trial_division_factorization(group_order)
        except FactorizationError:
            print("order unknown (trial-division budget exceeded)")
            return 0
        order = poly_tools.element_order(comp, factorization)
        print(f"order {order}")
        print(f"primitive: {'yes' if order == group_order else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common_params(sub, prime_default=251, dim_default=8):
    sub.add_argument("--prime", type=int, default=prime_default)
    sub.add_argument("--dim", type=int, default=dim_default)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdpkex",
        description="Key agreement over GL(d, F_p) by triple decomposition, "
        "with a conjugation cipher and an analysis toolkit.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("params", help="group cardinalities and keyspace sizes")
    _add_common_params(s)
    s.add_argument("--format", choices=["text", "kv"], default="text")
    s.set_defaults(func=cmd_params)

    s = subs.add_parser("setup", help="generate the four public bases")
    _add_common_params(s)
    s.add_argument("--seed", type=int)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_setup)

    s = subs.add_parser("keygen", help="generate a private key from a setup file")
    s.add_argument("--in", dest="infile", required=True, help="setup file")
    s.add_argument("--role", choices=["alice", "bob"], required=True)
    s.add_argument("--seed", type=int)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_keygen)

    s = subs.add_parser("token", help="derive the public token from a private key")
    s.add_argument("--key", required=True, help="own private key file")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_token)

    s = subs.add_parser("shared", help="derive the shared session key")
    s.add_argument("--key", required=True, help="own private key file")
    s.add_argument("--peer", required=True, help="peer token file")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_shared)

    s = subs.add_parser("encrypt", help="encrypt a file under a session key")
    s.add_argument("--key", required=True, help="session key file")
    s.add_argument("--in", dest="infile", required=True, help="plaintext file")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_encrypt)

    s = subs.add_parser("decrypt", help="decrypt a ciphertext file")
    s.add_argument("--key", required=True, help="session key file")
    s.add_argument("--in", dest="infile", required=True, help="ciphertext file")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_decrypt)

    s = subs.add_parser("stats", help="run seeded sessions and report statistics")
    _add_common_params(s)
    s.add_argument("--sessions", type=int, default=1000)
    s.add_argument("--seed", type=int)
    s.add_argument("--format", choices=["text", "kv"], default="text")
    s.set_defaults(func=cmd_stats)

    s = subs.add_parser("attack", help="exhaustive pseudo-key recovery at toy parameters")
    _add_common_params(s, prime_default=5, dim_default=2)
    s.add_argument("--seed", type=int)
    s.add_argument("--format", choices=["text", "kv"], default="text")
    s.set_defaults(func=cmd_attack)

    s = subs.add_parser("irreducible", help="draw a random irreducible polynomial")
    s.add_argument("--prime", type=int, default=251)
    s.add_argument("--degree", type=int, default=8)
    s.add_argument("--seed", type=int)
    s.set_defaults(func=cmd_irreducible)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParamsMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueOutOfRangeError as exc:
        print(f"error: decryption failed: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
