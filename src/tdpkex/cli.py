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
bases, keys or token matrices, inconsistent private factors).  Each file is
written to a temp file beside it, owner-only (0600), created exclusively by
one open, and then renamed, so a crashed run never leaves a partial file.

A line whose first word names a command is parsed by that command's parser
alone.  Every other line, and one that parser leaves arguments over from,
goes through the top-level parser, which prints each refusal and its usage.
--seed takes an integer in [0, 2^64), so no two seeds give one stream.

Exit codes: 0 success, 2 bad flags or parameters or an unusable --in, --out,
--key or --peer path, 3 file-format violation, 4 parameter mismatch between
files, 5 decryption range failure (wrong key).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import struct
import sys

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
from .field_matrix import FieldParams, SplitMix64, _check_eigenvalues, _invert, _SystemSource
from .protocol import (
    ROLE_LAYOUT,
    AlicePrivate,
    BobPrivate,
    PublicSetup,
    PublicToken,
    Role,
    SessionKey,
    alice_keygen,
    alice_shared,
    alice_token,
    bob_keygen,
    bob_shared,
    bob_token,
    gen_setup,
)

MAGIC = b"TDP1"
_HEADER = struct.Struct("<4sBHBBI")  # magic, record type, prime, dimension, role byte, matrix count
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
    if params.d > 255:
        raise ValueError("dimension must be <= 255 for the file format's one-byte dimension field")


# the flags tempfile.mkstemp creates with, where the platform has them
_CREATE_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_NOFOLLOW", 0)
                 | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0))


def _atomic_write(path: str, data: bytes) -> None:
    """Write through an owner-only temp file beside path and a rename; an OSError names path."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tdp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, _CREATE_FLAGS, 0o600)
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # the temp name in exc means nothing to the user who gave path
        raise OSError(exc.errno, exc.strerror, path) from exc


def _pack_record(record_type: int, params: FieldParams, role: Role | None, stack: np.ndarray,
                 eigenvalues: np.ndarray | None = None, plaintext_length: int | None = None) -> bytes:
    """The record bytes of an (n, d, d) stack of entries in [0, p)."""
    _check_file_params(params)
    out = bytearray(_HEADER.pack(MAGIC, record_type, params.p, params.d, _ROLES.index(role), len(stack)))
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
    it to the stack its object keeps (uint16 for a ciphertext, else int64).
    section is the private record's four eigenvalue lists as a (4, d) int64
    array or the ciphertext's plaintext length, else None.  Every format
    violation, and any ValueError that build raises on inconsistent
    material, is a FileFormatError naming path; a path that cannot be read
    raises its OSError, which names it.
    """
    def fail(reason: str):
        raise FileFormatError(f"{path}: {reason}")

    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        fail("truncated header")
    magic, record_type, prime, d, role_code, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        fail("bad magic")
    if record_type not in _KINDS:
        fail(f"unknown record type {record_type}")
    name, fixed_count, has_role = _KINDS[record_type]
    if record_type != expect_type:
        fail(f"is a {name} record, expected {_KINDS[expect_type][0]}")
    try:
        params = FieldParams(p=prime, d=d)
        _check_file_params(params)
    except ValueError as exc:
        fail(str(exc))
    if role_code >= len(_ROLES) or bool(role_code) != has_role:
        fail(f"role byte {role_code} is invalid in a {name} record")
    if fixed_count is not None and count != fixed_count:
        fail(f"{name} record needs {fixed_count} matrices, found {count}")
    pos, section = _HEADER.size, None
    if record_type == REC_PRIVATE:
        if data[pos:pos + 1] != b"\x04":
            fail("private key record needs 4 eigenvalue lists")
        pos += 1 + 4 * d
    elif record_type == REC_CIPHERTEXT:
        section = int.from_bytes(data[pos:pos + 8], "little")
        pos += 8
    if len(data) != pos + count * d * d:
        fail(f"length {len(data)} does not match header (expected {pos + count * d * d})")
    if record_type == REC_PRIVATE:
        section = np.frombuffer(data, np.uint8, 4 * d, offset=_HEADER.size + 1).reshape(4, d).astype(np.int64)
    entries = np.frombuffer(data, np.uint8, offset=pos).reshape(count, d, d)
    if entries.max(initial=0) >= params.p:
        bad = np.flatnonzero((entries >= params.p).any(axis=(1, 2)))
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
        cls, stack = ROLE_LAYOUT[role], stack.astype(np.int64)
        # the lists come first in the record, so their refusal does too
        _check_eigenvalues(params, eigenvalues)
        # one elimination for the four bases and the free factor; the
        # constructors check each inverse as a certificate, so a singular
        # matrix, whose inverse here is garbage, is refused there with its
        # own message
        inverses, _ = _invert(stack[[0, 1, 2, 3, 4 + cls.free_index]], params.p)
        setup = PublicSetup._from_stacks(params, stack[:4], inverses[:4])
        return cls._from_stacks(setup, eigenvalues, stack[4:], inverses[4])

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
    _write(path, REC_CIPHERTEXT, message.params, None, message.stack, plaintext_length=message.plaintext_length)


def read_ciphertext_file(path: str) -> CipherMessage:
    """The record's message; blocks that do not frame its length are a FileFormatError."""
    return _read(path, REC_CIPHERTEXT,
                 lambda params, role, stack, length: CipherMessage(params, length, stack))


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

def _sci(n: int) -> str:
    """n >= 0 in full below 10^16, else its first 16 digits as d.ddd...e<exponent>.

    The digits come from one division by a power of ten, so no ``str`` of a
    large n meets Python's limit on integer string conversion.
    """
    # the bit length puts n's exponent within one of its estimate, so the
    # quotient keeps at least 16 digits
    shift = max(0, int((n.bit_length() - 1) * math.log10(2)) - 16)
    s = str(n // 10 ** shift)
    exponent = shift + len(s) - 1
    return s if exponent < 16 else f"{s[0]}.{s[1:16]}e{exponent}"


def _exact(name: str, n: int) -> str:
    """str(n), or a ValueError naming the count when it passes Python's digit limit."""
    try:
        return str(n)
    except ValueError:
        raise ValueError(
            f"{name} has more than {sys.get_int_max_str_digits()} digits, Python's limit for "
            "integer string conversion (PYTHONINTMAXSTRDIGITS); --format kv prints exact "
            "integers, --format text prints them in scientific notation") from None


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
    counts = [
        ("total_matrices", poly_tools.matrix_space_size(params)),
        ("gl_order", poly_tools.gl_order(params)),
        ("singular_count", poly_tools.singular_count(params)),
        ("nilpotent_count", poly_tools.nilpotent_count(params)),
        ("irreducible_polynomials", poly_tools.count_irreducible(params.d, params.p)),
        ("keyspace_p_minus_2", ks.restricted),
        ("keyspace_p_minus_1", ks.nonzero),
    ]
    pairs = [
        ("prime", str(params.p)),
        ("dim", str(params.d)),
        *((k, _exact(k, n) if args.format == "kv" else _sci(n)) for k, n in counts),
        ("classical_bits_p_minus_2", f"{ks.restricted_bits:.2f}"),
        ("classical_bits_p_minus_1", f"{ks.nonzero_bits:.2f}"),
        ("quantum_bits_p_minus_2", f"{ks.restricted_quantum_bits:.2f}"),
        ("quantum_bits_p_minus_1", f"{ks.nonzero_quantum_bits:.2f}"),
    ]
    _emit(pairs, args.format)
    return 0


def _source_from_args(args):
    """SplitMix64 on --seed, for reproducible output; without one, the operating system's CSPRNG."""
    if args.seed is not None:
        return SplitMix64(args.seed)
    return _SystemSource()


def cmd_setup(args) -> int:
    params = _params_from_args(args)
    _check_file_params(params)
    rs = _source_from_args(args)
    write_setup_file(args.out, gen_setup(rs, params))
    return 0


def cmd_keygen(args) -> int:
    setup = read_setup_file(args.infile)
    rs = _source_from_args(args)
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
    rs = _source_from_args(args)
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
        leak_all = analysis._similarity_preserved(st.plain_blocks, st.cipher_blocks)
        pairs.append(("leak", f"trace/det/charpoly preserved: {'yes' if leak_all else 'NO'}"))
    _emit(pairs, args.format)
    return 0


def cmd_attack(args) -> int:
    params = _params_from_args(args)
    space = (params.p - 1) ** (2 * params.d)
    if space > analysis.SEARCH_SPACE_LIMIT:
        raise ValueError(
            f"search space {space} exceeds the toy-scale bound {analysis.SEARCH_SPACE_LIMIT}; "
            "use smaller --prime/--dim"
        )
    rs = _source_from_args(args)
    from .protocol import run_session

    result = run_session(rs, params)
    pk = analysis.brute_force_pseudo_key(
        result.setup, result.alice_pub, result.bob_pub, result.alice_key
    )
    pairs = [
        ("prime", str(params.p)),
        ("dim", str(params.d)),
        ("search space", str(space)),
        ("candidates tested", str(pk.candidates_tested)),
    ]
    _emit(pairs, args.format)
    # brute_force_pseudo_key raises unless its key reproduces Alice's token and the session key
    if args.format == "kv":
        print("reproduces=yes")
    else:
        print("pseudo-key reproduces session key: yes")
        for name, m in (("x1'", pk.x1), ("x2'", pk.x2), ("a1'", pk.a1), ("a2'", pk.a2), ("a3'", pk.a3)):
            print(f"{name} =")
            print(m.a)
    return 0


def cmd_irreducible(args) -> int:
    if args.degree < 1:
        raise ValueError("--degree must be >= 1")
    try:
        f, trials = poly_tools.random_irreducible(_source_from_args(args), args.degree, args.prime)
    except ValueError as exc:
        raise ValueError(f"invalid parameters: {exc}") from exc
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


def _seed(text: str) -> int:
    """--seed's type: an integer in [0, 2^64), where each SplitMix64 seed gives its own stream."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"{seed} is outside [0, 2^64)")
    return seed


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="tdpkex",
        description="Key agreement over GL(d, F_p) by triple decomposition, "
        "with a conjugation cipher and an analysis toolkit.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, summary):
        commands[name] = s = subs.add_parser(name, help=summary)
        s.set_defaults(func=func)
        return s

    s = command("params", cmd_params, "group cardinalities and keyspace sizes")
    _add_common_params(s)
    s.add_argument("--format", choices=["text", "kv"], default="text")

    s = command("setup", cmd_setup, "generate the four public bases")
    _add_common_params(s)
    s.add_argument("--seed", type=_seed)
    s.add_argument("--out", required=True)

    s = command("keygen", cmd_keygen, "generate a private key from a setup file")
    s.add_argument("--in", dest="infile", required=True, help="setup file")
    s.add_argument("--role", choices=["alice", "bob"], required=True)
    s.add_argument("--seed", type=_seed)
    s.add_argument("--out", required=True)

    s = command("token", cmd_token, "derive the public token from a private key")
    s.add_argument("--key", required=True, help="own private key file")
    s.add_argument("--out", required=True)

    s = command("shared", cmd_shared, "derive the shared session key")
    s.add_argument("--key", required=True, help="own private key file")
    s.add_argument("--peer", required=True, help="peer token file")
    s.add_argument("--out", required=True)

    s = command("encrypt", cmd_encrypt, "encrypt a file under a session key")
    s.add_argument("--key", required=True, help="session key file")
    s.add_argument("--in", dest="infile", required=True, help="plaintext file")
    s.add_argument("--out", required=True)

    s = command("decrypt", cmd_decrypt, "decrypt a ciphertext file")
    s.add_argument("--key", required=True, help="session key file")
    s.add_argument("--in", dest="infile", required=True, help="ciphertext file")
    s.add_argument("--out", required=True)

    s = command("stats", cmd_stats, "run seeded sessions and report statistics")
    _add_common_params(s)
    s.add_argument("--sessions", type=int, default=1000)
    s.add_argument("--seed", type=_seed)
    s.add_argument("--format", choices=["text", "kv"], default="text")

    s = command("attack", cmd_attack, "exhaustive pseudo-key recovery at toy parameters")
    _add_common_params(s, prime_default=5, dim_default=2)
    s.add_argument("--seed", type=_seed)
    s.add_argument("--format", choices=["text", "kv"], default="text")

    s = command("irreducible", cmd_irreducible, "draw a random irreducible polynomial")
    s.add_argument("--prime", type=int, default=251)
    s.add_argument("--degree", type=int, default=8)
    s.add_argument("--seed", type=_seed)

    return parser, commands


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv's namespace: from its command's parser if that consumes it whole, else the top level's."""
    parser, commands = _build_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
