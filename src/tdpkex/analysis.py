"""Security-claim checks that can actually be run at desk scale.

Four tools: exact keyspace arithmetic, an exhaustive pseudo-key recovery at
toy parameters (demonstrating that any tuple satisfying the public-token
equations works as a private key), pooled chi-square uniformity statistics
for ciphertext entries, and the conjugation-invariant leak demonstrator.
A pseudo-key is an ``AlicePrivate``, found by one stacked pass over the x2
candidates per x1 and checked by the protocol's own token and key
derivation; written by ``cli.write_private_file``, ``tdpkex shared`` accepts it.
The chi-square tail is computed here with ``math`` alone: the test has p - 1
degrees of freedom, which is 1 or even, and both cases have closed forms.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cipher import (
    CipherBlock,
    PlainBlock,
    bytes_per_block,
    decrypt_message,
    encode_block,
    encrypt_message,
)
from .commuting import family_member
from .errors import (
    ParamsMismatchError,
    PseudoKeyNotFoundError,
    SearchSpaceTooLargeError,
    TooFewSamplesError,
)
from .field_matrix import (
    FieldParams,
    Matrix,
    NonsingularDraws,
    _check_same_params,
    _inverse_table,
    _Value,
)
from .poly_tools import char_poly_many
from .protocol import (
    AlicePrivate,
    PublicSetup,
    PublicToken,
    Role,
    SessionKey,
    _session_draws,
    _shared,
    _token,
    run_session,
)

# brute_force_pseudo_key's toy-scale bound on its (p-1)^(2d) candidate pairs
SEARCH_SPACE_LIMIT = 10**7
# uniformity_stats's significance level: a uniform source fails one run in a thousand
SIGNIFICANCE = 0.001


@dataclass(frozen=True)
class KeyspaceReport:
    """Size of the private eigenvalue space under both counting conventions.

    A private key is four lists of d eigenvalues.  ``nonzero`` counts every
    list over the full nonzero alphabet, (p-1)^(4d), matching what keygen
    draws; ``restricted`` uses a p-2 symbol alphabet, (p-2)^(4d), the
    convention quoted in some security estimates.  Both are reported so the
    two-count ambiguity is visible instead of silently resolved.
    """

    params: FieldParams
    restricted: int
    nonzero: int

    @property
    def restricted_bits(self) -> float:
        return math.log2(self.restricted) if self.restricted else float("-inf")

    @property
    def nonzero_bits(self) -> float:
        return math.log2(self.nonzero) if self.nonzero else float("-inf")

    @property
    def restricted_quantum_bits(self) -> float:
        """Square-root (Grover) work factor for the restricted count."""
        return self.restricted_bits / 2

    @property
    def nonzero_quantum_bits(self) -> float:
        return self.nonzero_bits / 2


def keyspace_size(params: FieldParams) -> KeyspaceReport:
    """Exact big-integer keyspace sizes for four d-long eigenvalue lists."""
    exp = 4 * params.d
    return KeyspaceReport(
        params=params,
        restricted=(params.p - 2) ** exp,
        nonzero=(params.p - 1) ** exp,
    )


class PseudoKey(AlicePrivate):
    """A recovered Alice key, and the number of candidates tested to find it.

    Solves a1*x1 = u, x1^-1*a2*x2 = v, x2^-1*a3 = w with a2, a3, x1, x2 in
    the right commuting families; any such tuple reproduces the session key.
    It passed the protocol's own family check, so it goes wherever an
    ``AlicePrivate`` does (``alice_shared``, ``cli.write_private_file``).
    """

    __slots__ = ("candidates_tested",)

    def __init__(self, key: AlicePrivate, candidates_tested: int):
        self._hold(key.setup, key.eigenvalues, key.factors, key.inverses, candidates_tested)


def _family_tables(basis: np.ndarray, basis_inv: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every eigenvalue list in [1, p-1], its member of the family on one basis, and the member's inverse."""
    lists = np.array(list(itertools.product(range(1, p), repeat=len(basis))))
    inverted = _inverse_table(p)[lists]
    return lists, family_member(basis, basis_inv, lists, p), family_member(basis, basis_inv, inverted, p)


def brute_force_pseudo_key(setup: PublicSetup, alice_token: PublicToken, bob_token: PublicToken,
                           true_key: SessionKey) -> PseudoKey:
    """Exhaustively search the commuting families for a working pseudo-key.

    Enumerates every x1 candidate in the R-family and x2 candidate in the
    S-family ((p-1)^d choices each), completes a1, a2, a3 from the token
    equations, and accepts when a2 lands in the P-family and a3 in the
    Q-family (checked by conjugating back to diagonal form), testing the
    x2 candidates of one x1 as one stack in enumeration order.  The first
    accepted tuple is built by ``AlicePrivate._from_stacks``, the protocol's
    own family check, and must reproduce Alice's token and the true key.

    Raises:
        ValueError: the tokens are not Alice's and Bob's, in that order.
        SearchSpaceTooLargeError: (p-1)^(2d) exceeds ``SEARCH_SPACE_LIMIT``.
        PseudoKeyNotFoundError: search exhausted (cannot happen for tokens
            produced by a genuine session, whose private key is in the space).
    """
    if alice_token.role is not Role.ALICE or bob_token.role is not Role.BOB:
        raise ValueError("tokens passed in the wrong order")
    p, d = setup.params.p, setup.params.d
    space = (p - 1) ** (2 * d)
    if space > SEARCH_SPACE_LIMIT:
        raise SearchSpaceTooLargeError(f"search space {space} exceeds limit {SEARCH_SPACE_LIMIT}")

    u, v, w = alice_token.stack
    (p_mat, q_mat, r_mat, s_mat), (p_inv, q_inv, r_inv, s_inv) = setup.bases, setup.inverses
    x1_lists, x1s, x1_invs = _family_tables(r_mat, r_inv, p)
    x2_lists, x2s, x2_invs = _family_tables(s_mat, s_inv, p)
    # a2 is in the P-family when P a2 P^-1 is diagonal, whose diagonal is a2's list; a3 likewise with Q,
    # and a3 = x2 w is the same for every x1, so its test runs once
    off_diagonal = ~np.eye(d, dtype=bool)
    a3s = x2s @ w % p
    a3_conj = (q_mat @ a3s % p) @ q_inv % p
    in_q = ~a3_conj[:, off_diagonal].any(axis=1)
    for i, (x1, x1_inv) in enumerate(zip(x1s, x1_invs)):
        a2s = (x1 @ v % p) @ x2_invs % p
        a2_conj = (p_mat @ a2s % p) @ p_inv % p
        hits = np.flatnonzero(in_q & ~a2_conj[:, off_diagonal].any(axis=1))
        if not len(hits):
            continue
        j = hits[0]
        eigenvalues = np.array([a2_conj[j].diagonal(), a3_conj[j].diagonal(), x1_lists[i], x2_lists[j]])
        factors = np.array([u @ x1_inv % p, a2s[j], a3s[j], x1, x2s[j]])
        candidate = PseudoKey(AlicePrivate._from_stacks(setup, eigenvalues, factors), int(i * len(x2s) + j + 1))
        if not pseudo_key_reproduces(candidate, alice_token, bob_token, true_key):
            raise AssertionError("accepted candidate failed re-substitution")
        return candidate
    raise PseudoKeyNotFoundError(f"no candidate among {len(x1s) * len(x2s)} satisfied the family conditions")


def pseudo_key_reproduces(candidate: AlicePrivate, alice_token: PublicToken, bob_token: PublicToken,
                          true_key: SessionKey) -> bool:
    """Re-substitution by the protocol's own derivations: the candidate's token is Alice's, its key the true one."""
    return _token(candidate) == alice_token and _shared(candidate, bob_token) == true_key


class StatsReport(_Value):
    """Pooled entry-frequency chi-square against the uniform distribution."""

    __slots__ = ("samples", "frequencies", "chi_square", "dof", "p_value")

    @property
    def passed(self) -> bool:
        return self.p_value > SIGNIFICANCE


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of a chi-square variable with dof 1 or even dof.

    Even dof 2m: exp(-x/2) * sum_{i<m} (x/2)^i / i!, summed in log space so
    neither the powers nor the factorials overflow.  dof 1: erfc(sqrt(x/2)).
    """
    if x <= 0:
        return 1.0
    half = x / 2
    if dof == 1:
        return math.erfc(math.sqrt(half))
    log_half = math.log(half)
    logs = [i * log_half - math.lgamma(i + 1) for i in range(dof // 2)]
    top = max(logs)
    return min(1.0, math.exp(top - half) * math.fsum(math.exp(t - top) for t in logs))


# a chunk's stack is 128 KiB at d = 8, so pooling adds little to its caller's peak memory
_POOL_CHUNK = 256


def uniformity_stats(matrices: Sequence[Matrix]) -> StatsReport:
    """Chi-square test of pooled matrix entries against uniform on [0, p-1].

    Entries of one matrix are identically distributed under the null, so
    pooling across positions and matrices is sound.  Requires at least 10*p
    pooled entries, all over one (p, d).  Entries are counted in chunks of
    ``_POOL_CHUNK`` matrices, so the pooling holds no copy of the whole input.
    """
    if not matrices:
        raise TooFewSamplesError("no matrices supplied")
    params = _check_same_params(*matrices)
    p = params.p
    n = len(matrices) * params.d * params.d
    if n < 10 * p:
        raise TooFewSamplesError(f"{n} entries < required {10 * p}")
    freq = np.zeros(p, dtype=np.int64)
    for start in range(0, len(matrices), _POOL_CHUNK):
        chunk = np.stack([m.a for m in matrices[start:start + _POOL_CHUNK]])
        freq += np.bincount(chunk.reshape(-1), minlength=p)
    expected = n / p
    stat = float(((freq - expected) ** 2 / expected).sum())
    dof = p - 1
    return StatsReport._held(n, freq, stat, dof, _chi2_sf(stat, dof))


@dataclass(frozen=True)
class SimilarityReport:
    """Which conjugation invariants of a plaintext survive into its ciphertext."""

    trace_equal: bool
    det_equal: bool
    charpoly_equal: bool

    @property
    def all_equal(self) -> bool:
        return self.trace_equal and self.det_equal and self.charpoly_equal


def similarity_leak_check(plain: PlainBlock, cipher: CipherBlock) -> SimilarityReport:
    """Compare trace, determinant and characteristic polynomial of the two blocks.

    For any genuine (plaintext, ciphertext) pair all three are equal: that is
    a theorem about conjugation, not a bug, and it is exactly the information
    the cipher leaks about its plaintext.  Both polynomials come from one
    stacked Berkowitz pass.
    """
    m, c = plain.m, cipher.c
    if m.params != c.params:
        raise ParamsMismatchError("blocks have mixed parameters")
    cp_m, cp_c = char_poly_many(np.array([m.a, c.a]), m.params.p).tolist()
    # c_{d-1} = -trace and c_0 = (-1)^d det, and both blocks share d
    return SimilarityReport(
        trace_equal=cp_m[-1] == cp_c[-1],
        det_equal=cp_m[0] == cp_c[0],
        charpoly_equal=cp_m == cp_c,
    )


def _similarity_preserved(plain_blocks: Sequence[PlainBlock], cipher_blocks: Sequence[CipherBlock]) -> bool:
    """Whether ``similarity_leak_check(m, c).all_equal`` holds for every pair of the two sequences.

    A characteristic polynomial holds the trace and the determinant, so the
    polynomials alone decide.  Each stacked Berkowitz pass takes
    ``_POOL_CHUNK`` matrices, half of them plain and half cipher, so, as in
    ``uniformity_stats``, no copy of the whole input is held.
    """
    pairs = [(plain.m, cipher.c) for plain, cipher in zip(plain_blocks, cipher_blocks)]
    if not pairs:
        return True
    params = pairs[0][0].params
    if any(m.params != params or c.params != params for m, c in pairs):
        raise ParamsMismatchError("blocks have mixed parameters")
    size = _POOL_CHUNK // 2
    for start in range(0, len(pairs), size):
        chunk = np.array([(m.a, c.a) for m, c in pairs[start:start + size]])
        polys = char_poly_many(chunk.reshape(-1, params.d, params.d), params.p)
        if not np.array_equal(polys[0::2], polys[1::2]):
            return False
    return True


@dataclass(frozen=True)
class SessionStats:
    """Aggregate outcome of n seeded key-agreement + encrypt/decrypt sessions."""

    sessions: int
    agreements: int
    roundtrips: int
    mean_seconds: float
    candidate_draws: int
    singular_redraws: int
    cipher_blocks: tuple[CipherBlock, ...]
    plain_blocks: tuple[PlainBlock, ...]

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.sessions

    @property
    def roundtrip_rate(self) -> float:
        return self.roundtrips / self.sessions

    @property
    def redraw_rate(self) -> float:
        return self.singular_redraws / self.candidate_draws


def session_statistics(rs, params: FieldParams, n: int) -> SessionStats:
    """Run n full sessions; report agreement, timing, redraw rate, blocks.

    Each session runs the whole exchange, encrypts one block of stream-drawn
    plaintext under Alice's key and decrypts it under Bob's.  The produced
    cipher blocks are kept for downstream uniformity statistics.
    """
    if n < 1:
        raise ValueError("need at least one session")
    bpb = bytes_per_block(params)
    agreements = 0
    roundtrips = 0
    redraws = 0
    cipher_blocks = []
    plain_blocks = []
    t0 = time.perf_counter()
    for _ in range(n):
        result = run_session(rs, params)
        if result.agreed:
            agreements += 1
        plaintext = rs.read(bpb)
        message = encrypt_message(result.alice_key, plaintext)
        if decrypt_message(result.bob_key, message) == plaintext:
            roundtrips += 1
        if len(message.stack):
            cipher_blocks.append(message.blocks[0])
            plain_blocks.append(encode_block(plaintext, params))
        redraws += result.singular_redraws
    elapsed = time.perf_counter() - t0
    # the nonsingular matrices a session accepts: P, Q, R, S, a1 and b3
    accepted = sum(seg.n for seg in _session_draws(params) if isinstance(seg, NonsingularDraws))
    return SessionStats(
        sessions=n,
        agreements=agreements,
        roundtrips=roundtrips,
        mean_seconds=elapsed / n,
        candidate_draws=accepted * n + redraws,
        singular_redraws=redraws,
        cipher_blocks=tuple(cipher_blocks),
        plain_blocks=tuple(plain_blocks),
    )
