import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import tdpkex

from tdpkex import (
    AlicePrivate,
    CipherBlock,
    FieldParams,
    Matrix,
    ParamsMismatchError,
    PlainBlock,
    PseudoKey,
    PseudoKeyNotFoundError,
    SearchSpaceTooLargeError,
    SplitMix64,
    TooFewSamplesError,
    alice_keygen,
    alice_shared,
    alice_token,
    bob_token,
    brute_force_pseudo_key,
    char_poly,
    encrypt_block,
    keyspace_size,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_trace,
    pseudo_key_reproduces,
    random_matrix,
    run_session,
    session_statistics,
    similarity_leak_check,
    uniform_array,
    uniformity_stats,
)

from tdpkex import cli
from tdpkex.analysis import _POOL_CHUNK, _chi2_sf, _similarity_preserved
from tdpkex.cli import read_session_key_file, write_private_file, write_token_file

from conftest import identity_privates
from oracles import chi2_sf_even_decimal, first_pseudo_key

P251 = FieldParams()
P5 = FieldParams(p=5, d=2)
P3 = FieldParams(p=3, d=2)


# ---------------------------------------------------------------------------
# keyspace arithmetic
# ---------------------------------------------------------------------------

def test_keyspace_default_params():
    report = keyspace_size(P251)
    assert report.restricted == 249 ** 32
    assert report.nonzero == 250 ** 32
    assert report.restricted.bit_length() == 255
    assert report.restricted_quantum_bits == pytest.approx(report.restricted_bits / 2)
    assert f"{float(report.restricted):.2e}" == "4.77e+76"


def test_keyspace_toy_params():
    report = keyspace_size(P5)
    assert report.restricted == 3 ** 8 == 6561
    assert report.nonzero == 4 ** 8


# ---------------------------------------------------------------------------
# exhaustive pseudo-key recovery
# ---------------------------------------------------------------------------

def test_pseudo_key_recovered_at_toy_scale():
    for seed in range(5):
        result = run_session(SplitMix64(seed), P5)
        pk = brute_force_pseudo_key(result.setup, result.alice_pub, result.bob_pub, result.alice_key)
        assert pseudo_key_reproduces(pk, result.alice_pub, result.bob_pub, result.alice_key)
        assert pk.candidates_tested <= 256


def test_every_accepted_candidate_reproduces_key_p3():
    # mirror the scan over the full 16-pair space and re-substitute each hit
    result = run_session(SplitMix64(1), P3)
    setup, tok_a, tok_b = result.setup, result.alice_pub, result.bob_pub
    p = 3
    p_inv = mat_inverse(setup.P)
    q_inv = mat_inverse(setup.Q)
    r_inv = mat_inverse(setup.R)
    s_inv = mat_inverse(setup.S)
    accepted = 0
    for diag1 in itertools.product((1, 2), repeat=2):
        x1 = mat_mul(mat_mul(r_inv, Matrix.from_rows(P3, np.diag(diag1))), setup.R)
        for diag2 in itertools.product((1, 2), repeat=2):
            x2 = mat_mul(mat_mul(s_inv, Matrix.from_rows(P3, np.diag(diag2))), setup.S)
            a1 = mat_mul(tok_a.t1, mat_inverse(x1))
            a2 = mat_mul(mat_mul(x1, tok_a.t2), mat_inverse(x2))
            a3 = mat_mul(x2, tok_a.t3)
            in_p = not np.any(mat_mul(mat_mul(setup.P, a2), p_inv).a[~np.eye(2, dtype=bool)])
            in_q = not np.any(mat_mul(mat_mul(setup.Q, a3), q_inv).a[~np.eye(2, dtype=bool)])
            if in_p and in_q:
                accepted += 1
                k = a1
                for f in (tok_b.t1, a2, tok_b.t2, a3, tok_b.t3):
                    k = mat_mul(k, f)
                assert k == result.alice_key.k
    assert accepted >= 1


def test_identity_session_recovers_identity_pseudo_key():
    result = run_session(SplitMix64(2), P5)
    alice, bob = identity_privates(result.setup)
    tok_a, tok_b = alice_token(alice), bob_token(bob)
    key = alice_shared(alice, tok_b)
    pk = brute_force_pseudo_key(result.setup, tok_a, tok_b, key)
    assert pk.a1.is_identity()
    assert pk.x1.is_identity() and pk.x2.is_identity()
    assert pk.a2.is_identity() and pk.a3.is_identity()


def test_search_space_guard():
    # (p-1)^(2d) = 4^12 is past the 10^7 bound
    result = run_session(SplitMix64(3), FieldParams(p=5, d=6))
    with pytest.raises(SearchSpaceTooLargeError):
        brute_force_pseudo_key(result.setup, result.alice_pub, result.bob_pub, result.alice_key)


def test_true_private_material_is_in_search_space():
    # the genuine x1, x2 always satisfy the acceptance conditions
    result = run_session(SplitMix64(4), P5)
    pk = brute_force_pseudo_key(result.setup, result.alice_pub, result.bob_pub, result.alice_key)
    assert pk.candidates_tested >= 1


@pytest.mark.parametrize("p, d", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_pseudo_key_is_the_scalar_reference_first_hit(p, d):
    # the stacked search accepts the pair the one-pair-at-a-time scan accepts first, after as many tests
    params = FieldParams(p, d)
    for seed in range(10):
        result = run_session(SplitMix64(seed), params)
        pk = brute_force_pseudo_key(result.setup, result.alice_pub, result.bob_pub, result.alice_key)
        tested, factors = first_pseudo_key(result.setup, result.alice_pub)
        assert pk.candidates_tested == tested, seed
        for name, expected in zip(("a1", "a2", "a3", "x1", "x2"), factors):
            assert np.array_equal(getattr(pk, name).a, expected), (seed, name)


def test_pseudo_key_is_an_alice_private_built_by_the_family_check(monkeypatch):
    assert issubclass(PseudoKey, AlicePrivate)
    built = []
    init = AlicePrivate._init
    monkeypatch.setattr(AlicePrivate, "_init", lambda self, *args: built.append(args) or init(self, *args))
    result = run_session(SplitMix64(6), P5)
    pk = brute_force_pseudo_key(result.setup, result.alice_pub, result.bob_pub, result.alice_key)
    # the accepted candidate, and only it, went through the protocol's own check
    assert len(built) == 1 and built[0][0] is result.setup
    assert np.array_equal(built[0][2], pk.factors) and np.array_equal(built[0][1], pk.eigenvalues)
    assert alice_token(pk) == result.alice_pub
    assert alice_shared(pk, result.bob_pub) == result.alice_key
    # the re-substitution accepts the true key and refuses another key on the same setup
    assert pseudo_key_reproduces(result.alice, result.alice_pub, result.bob_pub, result.alice_key)
    other = alice_keygen(SplitMix64(7), result.setup)
    assert not pseudo_key_reproduces(other, result.alice_pub, result.bob_pub, result.alice_key)


def test_recovered_key_derives_the_session_key_through_the_shared_command(tmp_path):
    for seed in range(20):
        result = run_session(SplitMix64(seed), P5)
        pk = brute_force_pseudo_key(result.setup, result.alice_pub, result.bob_pub, result.alice_key)
        key, peer, out = (tmp_path / f"{name}{seed}.tdp" for name in ("pseudo", "bob", "shared"))
        write_private_file(key, pk)
        write_token_file(peer, result.bob_pub)
        assert cli.main(["shared", "--key", str(key), "--peer", str(peer), "--out", str(out)]) == 0
        assert read_session_key_file(out) == result.alice_key, seed


def test_pseudo_key_search_refusals():
    result = run_session(SplitMix64(0), P3)
    with pytest.raises(ValueError, match=r"^tokens passed in the wrong order$"):
        brute_force_pseudo_key(result.setup, result.bob_pub, result.alice_pub, result.alice_key)
    # Alice's token from a session on another setup: no pair of this setup's families solves it
    forged = run_session(SplitMix64(1000), P3).alice_pub
    assert first_pseudo_key(result.setup, forged) is None
    with pytest.raises(PseudoKeyNotFoundError, match=r"^no candidate among 16 satisfied the family conditions$"):
        brute_force_pseudo_key(result.setup, forged, result.bob_pub, result.alice_key)


# ---------------------------------------------------------------------------
# uniformity statistics
# ---------------------------------------------------------------------------

def test_uniform_entries_pass():
    rs = SplitMix64(5)
    draws = uniform_array(rs, 0, 250, 100_000)
    matrices = [
        Matrix(P251, draws[i * 64:(i + 1) * 64].reshape(8, 8)) for i in range(100_000 // 64)
    ]
    report = uniformity_stats(matrices)
    assert report.dof == 250
    assert report.samples == 64 * (100_000 // 64)
    assert report.passed


def test_constant_matrices_fail():
    report = uniformity_stats([Matrix.zero(P251)] * 100_000)
    assert not report.passed
    assert report.p_value < 1e-10


def test_pooled_counts_span_chunks():
    # two full pooling chunks and a partial third; the counts are those of one
    # bincount over every entry
    n = 2 * _POOL_CHUNK + 17
    rs = SplitMix64(6)
    draws = uniform_array(rs, 0, 250, n * 64)
    matrices = [Matrix(P251, draws[i * 64:(i + 1) * 64].reshape(8, 8)) for i in range(n)]
    report = uniformity_stats(matrices)
    assert report.samples == draws.size
    assert report.frequencies.tolist() == np.bincount(draws, minlength=251).tolist()


def test_two_reports_of_one_input_compare_equal():
    rs = SplitMix64(9)
    matrices = [random_matrix(rs, P5) for _ in range(20)]
    report = uniformity_stats(matrices)
    assert report == uniformity_stats(matrices)
    assert report != uniformity_stats(matrices[:-1])


def test_too_few_samples_rejected():
    with pytest.raises(TooFewSamplesError):
        uniformity_stats([Matrix.zero(P251)] * 5)
    with pytest.raises(TooFewSamplesError):
        uniformity_stats([])


def test_uniformity_rejects_mixed_parameters():
    p7 = FieldParams(p=7, d=2)
    mixed = [Matrix.zero(P5)] * 20 + [Matrix.zero(p7)] * 20
    with pytest.raises(ParamsMismatchError):
        uniformity_stats(mixed)
    # the leak check refuses a pair of blocks the same way, and so does its
    # stacked form when any block's parameters differ from the first's
    with pytest.raises(ParamsMismatchError, match="blocks have mixed parameters"):
        similarity_leak_check(PlainBlock(Matrix.zero(P5)), CipherBlock(Matrix.identity(p7)))
    plain, cipher = PlainBlock(Matrix.zero(P5)), CipherBlock(Matrix.zero(P5))
    for plains, ciphers in (([plain, PlainBlock(Matrix.zero(p7))], [cipher] * 2),
                            ([plain] * 2, [cipher, CipherBlock(Matrix.zero(p7))])):
        with pytest.raises(ParamsMismatchError, match="blocks have mixed parameters"):
            _similarity_preserved(plains, ciphers)


def _matrices_from_entries(params, entries):
    size = params.d * params.d
    return [
        Matrix(params, np.array(entries[i:i + size], dtype=np.int64).reshape(params.d, params.d))
        for i in range(0, len(entries), size)
    ]


def test_uniformity_p_value_at_p2_and_p3():
    # p=2, one dof: 25 ones and 15 zeros give chi-square 2.5, whose tail is
    # P(|Z| > sqrt(2.5)) for a standard normal Z
    report = uniformity_stats(_matrices_from_entries(FieldParams(p=2, d=2), [1] * 25 + [0] * 15))
    assert (report.dof, report.chi_square) == (1, 2.5)
    assert report.p_value == pytest.approx(2 * (1 - NormalDist().cdf(math.sqrt(2.5))), rel=1e-12)
    # p=3, two dof: counts (16, 12, 8) give chi-square 8/3, whose tail is exp(-4/3)
    report = uniformity_stats(_matrices_from_entries(P3, [0] * 16 + [1] * 12 + [2] * 8))
    assert report.dof == 2
    assert report.chi_square == pytest.approx(8 / 3)
    assert report.p_value == pytest.approx(math.exp(-4 / 3), rel=1e-12)


@pytest.mark.parametrize("dof, xs", [
    (2, (1e-9, 0.5, 2, 5, 30, 200, 1300)),
    (4, (1e-9, 0.01, 0.5, 4, 10, 40, 200, 1300)),
    (250, (1e-3, 150, 220, 250, 280, 350, 600, 1500, 2000)),
], ids=["dof2", "dof4", "dof250"])
def test_chi2_tail_matches_decimal_series(dof, xs):
    # lower tail, body and upper tail down to about 1e-280
    for x in xs:
        assert _chi2_sf(x, dof) == pytest.approx(chi2_sf_even_decimal(x, dof), rel=1e-9)
    assert _chi2_sf(0.0, dof) == 1.0


def test_chi2_tail_dof1_published_quantiles():
    assert _chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-12)
    assert _chi2_sf(10.827566170662733, 1) == pytest.approx(0.001, rel=1e-12)


def test_import_loads_no_scipy():
    code = ("import sys, tdpkex; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(tdpkex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_ciphertext_entries_pass_smoke():
    stats = session_statistics(SplitMix64(6), P251, 100)
    report = uniformity_stats([b.c for b in stats.cipher_blocks])
    assert report.passed


def test_calibration_pass_rate_over_independent_runs():
    # at significance 0.001 the false-fail rate is 0.1%, so 100 seeded runs
    # should essentially always pass; require at least 99
    passes = 0
    for seed in range(100):
        draws = uniform_array(SplitMix64(40_000 + seed), 0, 250, 19_200)
        matrices = [Matrix(P251, draws[i * 64:(i + 1) * 64].reshape(8, 8)) for i in range(300)]
        passes += uniformity_stats(matrices).passed
    assert passes >= 99


# ---------------------------------------------------------------------------
# similarity leak
# ---------------------------------------------------------------------------

def test_leak_check_true_for_genuine_pairs():
    rs = SplitMix64(7)
    for seed in range(20):
        key = run_session(SplitMix64(seed), P251).alice_key
        plain = PlainBlock(random_matrix(rs, P251))
        cipher = encrypt_block(key, plain)
        report = similarity_leak_check(plain, cipher)
        assert report.trace_equal and report.det_equal and report.charpoly_equal
        assert report.all_equal


def test_stacked_leak_check_of_no_pairs_is_true():
    assert _similarity_preserved([], []) is True


def test_leak_check_true_for_genuine_pairs_at_d7():
    # d = 7 once lost its diagonals to a strided numpy out= in the two-matrix Berkowitz pass
    params = FieldParams(p=251, d=7)
    rs = SplitMix64(17)
    for seed in range(20):
        key = run_session(SplitMix64(seed), params).alice_key
        plain = PlainBlock(random_matrix(rs, params))
        assert similarity_leak_check(plain, encrypt_block(key, plain)).all_equal


def test_leak_check_false_for_unrelated_matrices():
    rs = SplitMix64(8)
    key = run_session(SplitMix64(0), P251).alice_key
    plain = PlainBlock(random_matrix(rs, P251))
    cipher = encrypt_block(key, plain)
    all_false = 0
    for _ in range(100):
        unrelated = PlainBlock(random_matrix(rs, P251))
        report = similarity_leak_check(unrelated, cipher)
        assert not report.all_equal  # full charpoly collision is ~p^-d
        if not (report.trace_equal or report.det_equal or report.charpoly_equal):
            all_false += 1
    assert all_false >= 90  # scalar collisions happen with probability ~1/p each


@pytest.mark.parametrize("params", [P5, P251], ids=["p5d2", "p251d8"])
def test_leak_check_determinant_from_char_poly(params):
    p, d = params.p, params.d
    rs = SplitMix64(9)
    prev = random_matrix(rs, params)
    singular = 0
    for i in range(200):
        a = random_matrix(rs, params).a.copy()
        if i % 4 == 0:
            a[-1] = a[0] * (i % p) % p  # force a dependent row
        m = Matrix(params, a)
        det = mat_det(m)
        singular += det == 0
        assert det == (-1) ** d * char_poly(m).coeffs[0] % p
        report = similarity_leak_check(PlainBlock(m), CipherBlock(prev))
        assert report.det_equal == (det == mat_det(prev))
        assert report.trace_equal == (mat_trace(m) == mat_trace(prev))
        prev = m
    assert singular >= 50


def test_leak_check_does_no_elimination(row_reductions):
    key = run_session(SplitMix64(0), P251).alice_key
    plain = PlainBlock(random_matrix(SplitMix64(1), P251))
    cipher = encrypt_block(key, plain)
    row_reductions.clear()
    assert similarity_leak_check(plain, cipher).all_equal
    assert row_reductions == []


# ---------------------------------------------------------------------------
# session statistics
# ---------------------------------------------------------------------------

def test_session_statistics_agreement_and_roundtrip():
    stats = session_statistics(SplitMix64(9), P251, 50)
    assert stats.sessions == 50
    assert stats.agreement_rate == 1.0
    assert stats.roundtrip_rate == 1.0
    assert len(stats.cipher_blocks) == 50
    assert stats.mean_seconds > 0


def test_session_statistics_deterministic():
    a = session_statistics(SplitMix64(10), P251, 10)
    b = session_statistics(SplitMix64(10), P251, 10)
    assert [c.c for c in a.cipher_blocks] == [c.c for c in b.cipher_blocks]
    assert a.singular_redraws == b.singular_redraws


def test_session_statistics_redraw_rate_matches_singular_fraction():
    stats = session_statistics(SplitMix64(11), P251, 2000)
    # singular fraction of the underlying draws is about 0.4%; at 12000+
    # candidate draws a 5-sigma band is roughly [0.1%, 0.7%]
    assert 0.001 <= stats.redraw_rate <= 0.009
    assert stats.candidate_draws == 6 * 2000 + stats.singular_redraws


def test_session_statistics_needs_at_least_one():
    with pytest.raises(ValueError):
        session_statistics(SplitMix64(12), P251, 0)
