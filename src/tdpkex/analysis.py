"""Security-claim checks that can actually be run at desk scale.

Four tools: exact keyspace arithmetic, an exhaustive pseudo-key recovery at
toy parameters (demonstrating that any tuple satisfying the public-token
equations works as a private key), pooled chi-square uniformity statistics
for ciphertext entries, and the conjugation-invariant leak demonstrator.
The chi-square tail is computed here with ``math`` alone: the test has p - 1
degrees of freedom, which is 1 or even, and both cases have closed forms.
"""

from __future__ import annotations

import functools
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
    _readonly,
    mat_inverse,
    mat_mul,
)
from .poly_tools import char_poly_many
from .protocol import PublicSetup, PublicToken, Role, SessionKey, _session_draws, run_session

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


@dataclass(frozen=True)
class PseudoKey:
    """A recovered tuple satisfying the public-token equations.

    Solves a1*x1 = u, x1^-1*a2*x2 = v, x2^-1*a3 = w with a2, a3, x1, x2 in
    the right commuting families; any such tuple reproduces the session key.
    """

    a1: Matrix
    a2: Matrix
    a3: Matrix
    x1: Matrix
    x2: Matrix
    candidates_tested: int


def _family_tables(basis: np.ndarray, basis_inv: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Every member of the family on one basis, and their inverses, as two stacks."""
    diags = np.array(list(itertools.product(range(1, p), repeat=len(basis))))
    inverted = _inverse_table(p)[diags]
    return family_member(basis, basis_inv, diags, p), family_member(basis, basis_inv, inverted, p)


def brute_force_pseudo_key(
    setup: PublicSetup,
    alice_token: PublicToken,
    bob_token: PublicToken,
    true_key: SessionKey,
) -> PseudoKey:
    """Exhaustively search the commuting families for a working pseudo-key.

    Enumerates every x1 candidate in the R-family and x2 candidate in the
    S-family ((p-1)^d choices each), completes a1, a2, a3 from the token
    equations, and accepts when a2 lands in the P-family and a3 in the
    Q-family (checked by conjugating back to diagonal form).  The accepted
    tuple is re-substituted into the key derivation and must reproduce the
    true session key exactly.

    Raises:
        SearchSpaceTooLargeError: (p-1)^(2d) exceeds ``SEARCH_SPACE_LIMIT``.
        PseudoKeyNotFoundError: search exhausted (cannot happen for tokens
            produced by a genuine session, whose private key is in the space).
    """
    if alice_token.role is not Role.ALICE or bob_token.role is not Role.BOB:
        raise ValueError("tokens passed in the wrong order")
    params = setup.params
    p, d = params.p, params.d
    space = (p - 1) ** (2 * d)
    if space > SEARCH_SPACE_LIMIT:
        raise SearchSpaceTooLargeError(f"search space {space} exceeds limit {SEARCH_SPACE_LIMIT}")

    u, v, w = alice_token.stack
    (p_mat, q_mat, r_mat, s_mat), (p_inv, q_inv, r_inv, s_inv) = setup.bases, setup.inverses
    r_family = _family_tables(r_mat, r_inv, p)
    s_family = _family_tables(s_mat, s_inv, p)
    off_diag = ~np.eye(d, dtype=bool)

    tested = 0
    for x1, x1_inv in zip(*r_family):
        a1c = u @ x1_inv % p
        left = x1 @ v % p
        for x2, x2_inv in zip(*s_family):
            tested += 1
            a2c = left @ x2_inv % p
            if ((p_mat @ a2c % p) @ p_inv % p)[off_diag].any():
                continue
            a3c = x2 @ w % p
            if ((q_mat @ a3c % p) @ q_inv % p)[off_diag].any():
                continue
            candidate = PseudoKey(
                a1=Matrix(params, a1c),
                a2=Matrix(params, a2c),
                a3=Matrix(params, a3c),
                x1=Matrix(params, x1),
                x2=Matrix(params, x2),
                candidates_tested=tested,
            )
            if not pseudo_key_reproduces(candidate, alice_token, bob_token, true_key):
                raise AssertionError("accepted candidate failed re-substitution")
            return candidate
    raise PseudoKeyNotFoundError(f"no candidate among {tested} satisfied the family conditions")


def pseudo_key_reproduces(
    candidate: PseudoKey,
    alice_token: PublicToken,
    bob_token: PublicToken,
    true_key: SessionKey,
) -> bool:
    """Re-substitution check: token equations hold and the derived key matches."""
    x1i = mat_inverse(candidate.x1)
    x2i = mat_inverse(candidate.x2)
    eq_u = mat_mul(candidate.a1, candidate.x1) == alice_token.t1
    eq_v = mat_mul(mat_mul(x1i, candidate.a2), candidate.x2) == alice_token.t2
    eq_w = mat_mul(x2i, candidate.a3) == alice_token.t3
    factors = (candidate.a1, bob_token.t1, candidate.a2, bob_token.t2, candidate.a3, bob_token.t3)
    k = functools.reduce(mat_mul, factors)
    return eq_u and eq_v and eq_w and k == true_key.k


@dataclass(frozen=True, eq=False)
class StatsReport:
    """Pooled entry-frequency chi-square against the uniform distribution."""

    samples: int
    frequencies: np.ndarray
    chi_square: float
    dof: int
    p_value: float

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
    return StatsReport(
        samples=n,
        frequencies=_readonly(freq),
        chi_square=stat,
        dof=dof,
        p_value=_chi2_sf(stat, dof),
    )


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
