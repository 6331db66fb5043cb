"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single line on success (visible with pytest -s); a
failure reads as the criterion number in the test name.  Criteria:

 1. frozen worked-session vectors reproduce exactly (encrypt and decrypt)
 2. 1000 seeded sessions at p=251, d=8 agree and roundtrip, mean <= 10 ms
 3. group cardinalities reproduce the published 16-digit values exactly
 4. keyspace 249^32: bit length 255, 4.77e76 to three significant digits
 5. counting formulas match exhaustive enumeration; divisor-sum identity
 6. exhaustive pseudo-key attack succeeds on >= 20 seeds at p=5, d=2
 7. singular fraction of 10^5 random 8x8 draws within 0.40% +/- 0.10%
 8. algebraic property suites over >= 1000 cases; ciphertext leak always
    present; pooled ciphertext entries uniform at significance 0.001
 9. command-line pipeline is lossless, bit-reproducible and matches
    its recorded SHA-256 digests
"""

import hashlib

import numpy as np

from tdpkex import (
    FieldParams,
    Matrix,
    PlainBlock,
    SessionKey,
    SplitMix64,
    brute_force_pseudo_key,
    char_poly,
    commutator,
    commuting_from_basis,
    conjugate,
    count_irreducible,
    decrypt_block,
    encrypt_block,
    gl_order,
    keyspace_size,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_trace,
    matrix_space_size,
    pseudo_key_reproduces,
    random_diagonal,
    random_matrix,
    random_nonsingular,
    random_nonsingular_many,
    run_session,
    session_statistics,
    similarity_leak_check,
    singular_count,
    uniformity_stats,
    validate_session,
)
from tdpkex.cipher import CipherBlock
from tdpkex.cli import main

import vectors
from oracles import count_irreducible_brute, gl_order_brute

P251 = FieldParams()


def test_criterion_1_golden_session_vectors():
    msg = Matrix.from_rows(P251, vectors.GOLDEN_MSG)
    cif = Matrix.from_rows(P251, vectors.GOLDEN_CIF)
    key_bob = SessionKey(Matrix.from_rows(P251, vectors.GOLDEN_KEY_BOB))
    key_alice = SessionKey(Matrix.from_rows(P251, vectors.GOLDEN_KEY_ALICE))

    # pre-check from the printed diagonals: both traces are 622 = 120 mod 251
    assert int(np.asarray(vectors.GOLDEN_MSG).trace()) == 622
    assert mat_trace(msg) == 120 and mat_trace(cif) == 120

    encrypted = encrypt_block(key_bob, PlainBlock(msg))
    mismatches = np.argwhere(encrypted.c.a != cif.a)
    assert mismatches.size == 0, f"cipher mismatch at entries {mismatches.tolist()}"

    decrypted = decrypt_block(key_alice, CipherBlock(cif))
    assert decrypted.m == Matrix.from_rows(P251, vectors.GOLDEN_RECOVERED)
    assert decrypted.m == msg
    print("ACCEPTANCE 1: golden session vectors exact (64/64 entries): PASS")


def test_criterion_2_thousand_sessions_agree():
    stats = session_statistics(SplitMix64(20250101), P251, 1000)
    assert stats.agreements == 1000, f"only {stats.agreements}/1000 sessions agreed"
    assert stats.roundtrips == 1000, f"only {stats.roundtrips}/1000 roundtrips succeeded"
    mean_ms = stats.mean_seconds * 1000
    assert mean_ms <= 10.0, f"mean session time {mean_ms:.2f} ms exceeds 10 ms"
    print(
        f"ACCEPTANCE 2: 1000/1000 sessions agreed and roundtripped, "
        f"mean {mean_ms:.2f} ms <= 10 ms: PASS"
    )


def test_criterion_3_cardinality_tables():
    total = matrix_space_size(P251)
    gl = gl_order(P251)
    singular = singular_count(P251)

    assert str(gl)[:16] == "3779005647067214" and len(str(gl)) == 154
    assert str(total)[:16] == "3794182134705598" and len(str(total)) == 154
    assert singular == total - gl
    assert len(str(singular)) == 152
    # the published table's singular row shows ...838442; its last three
    # digits are floating-point cancellation noise (the exact difference of
    # its own total and group-order rows ends ...838463).  The values agree
    # on the first 13 significant digits; the exact value is pinned here.
    assert str(singular)[:13] == "1517648763838"
    assert str(singular)[:16] == "1517648763838463"
    print("ACCEPTANCE 3: cardinalities digit-exact (singular tail per exact arithmetic): PASS")


def test_criterion_4_keyspace_value():
    report = keyspace_size(P251)
    assert report.restricted == 249 ** 32
    assert report.restricted.bit_length() == 255
    assert f"{float(report.restricted):.2e}" == "4.77e+76"
    print("ACCEPTANCE 4: keyspace 249^32, bit length 255, 4.77e76: PASS")


def test_criterion_5_counting_oracles():
    for p, d in ((2, 2), (3, 2), (2, 3), (5, 2)):
        assert gl_order(FieldParams(p=p, d=d)) == gl_order_brute(d, p), (p, d)
        assert count_irreducible(d, p) == count_irreducible_brute(d, p), (p, d)
    for p in (2, 3, 5):
        for d in range(1, 7):
            total = sum(r * count_irreducible(r, p) for r in range(1, d + 1) if d % r == 0)
            assert total == p ** d, (p, d)
    print("ACCEPTANCE 5: counting formulas match enumeration and divisor-sum identity: PASS")


def test_criterion_6_toy_attack_twenty_seeds():
    params = FieldParams(p=5, d=2)
    for seed in range(20):
        result = run_session(SplitMix64(seed), params)
        assert result.agreed
        pk = brute_force_pseudo_key(
            result.setup, result.alice_pub, result.bob_pub, result.alice_key
        )
        assert pseudo_key_reproduces(pk, result.alice_pub, result.bob_pub, result.alice_key)
        assert pk.candidates_tested <= 256
    print("ACCEPTANCE 6: pseudo-key recovered and verified for 20/20 seeds: PASS")


def test_criterion_7_singularity_rate():
    # stacked batches of 10^4 give the draws, and the count, of 10^5
    # successive random_nonsingular calls
    rs = SplitMix64(7777)
    accepted = 100_000
    rejections = 0
    for _ in range(accepted // 10_000):
        _, rej = random_nonsingular_many(rs, P251, 10_000)
        rejections += rej
    assert rejections == 399
    fraction = rejections / (accepted + rejections)
    assert 0.003 <= fraction <= 0.005, f"singular fraction {fraction:.5f} outside 0.004 +/- 0.001"
    print(f"ACCEPTANCE 7: singular draw fraction {fraction * 100:.3f}% in 0.40% +/- 0.10%: PASS")


def test_criterion_8_property_suites():
    rs = SplitMix64(88)

    # inverse roundtrip, 1000 cases
    ident = Matrix.identity(P251)
    for _ in range(1000):
        m, _ = random_nonsingular(rs, P251)
        assert mat_mul(m, mat_inverse(m)) == ident

    # determinant multiplicativity, 1000 pairs at d <= 4
    for params in (FieldParams(p=5, d=2), FieldParams(p=251, d=4)):
        for _ in range(500):
            a = random_matrix(rs, params)
            b = random_matrix(rs, params)
            assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b) % params.p

    # conjugation similarity invariance, 1000 cases
    for _ in range(1000):
        m = random_matrix(rs, P251)
        c, _ = random_nonsingular(rs, P251)
        conj = conjugate(m, c)
        assert mat_trace(conj) == mat_trace(m)
        assert mat_det(conj) == mat_det(m)
        assert char_poly(conj) == char_poly(m)

    # shared-basis commutation, 1000 cases
    for _ in range(1000):
        basis, _ = random_nonsingular(rs, P251)
        m1 = commuting_from_basis(basis, random_diagonal(rs, P251))
        m2 = commuting_from_basis(basis, random_diagonal(rs, P251))
        assert commutator(m1, m2).is_identity()

    # protocol commutation conditions and pitfall non-degeneracy, 1000 sessions
    for seed in range(1000):
        result = run_session(SplitMix64(1_000_000 + seed), P251)
        report = validate_session(result.setup, result.alice, result.bob)
        assert report.all_required_pass
        assert not report.weak

    # ciphertext leak always present; pooled entries uniform, 2000 sessions
    stats = session_statistics(SplitMix64(99), P251, 2000)
    assert stats.agreements == 2000
    assert len(stats.cipher_blocks) == 2000
    for plain, cipher in zip(stats.plain_blocks, stats.cipher_blocks):
        assert similarity_leak_check(plain, cipher).all_equal
    uniform = uniformity_stats([b.c for b in stats.cipher_blocks], significance=0.001)
    assert uniform.samples == 2000 * 64
    assert uniform.passed, f"chi2={uniform.chi_square:.1f}, p={uniform.p_value:.05f}"
    print(
        f"ACCEPTANCE 8: property suites (5x1000 cases), leak on 2000/2000 blocks, "
        f"uniformity chi2={uniform.chi_square:.1f} p={uniform.p_value:.3f} at 0.001: PASS"
    )


PIPELINE_FILES = ["setup.tdp", "alice.key", "bob.key", "alice.tok", "bob.tok",
                  "alice.sk", "bob.sk", "msg.tdp", "rec.bin"]


def _cli_pipeline(d, plaintext):
    """The nine-command pipeline with seeds 41/42/43; returns its directory."""
    d.mkdir()
    msg = d / "msg.bin"
    msg.write_bytes(plaintext)
    step = lambda *argv: main(list(argv))
    assert step("setup", "--seed", "41", "--out", str(d / "setup.tdp")) == 0
    assert step("keygen", "--in", str(d / "setup.tdp"), "--role", "alice",
                "--seed", "42", "--out", str(d / "alice.key")) == 0
    assert step("keygen", "--in", str(d / "setup.tdp"), "--role", "bob",
                "--seed", "43", "--out", str(d / "bob.key")) == 0
    assert step("token", "--key", str(d / "alice.key"), "--out", str(d / "alice.tok")) == 0
    assert step("token", "--key", str(d / "bob.key"), "--out", str(d / "bob.tok")) == 0
    assert step("shared", "--key", str(d / "alice.key"), "--peer", str(d / "bob.tok"),
                "--out", str(d / "alice.sk")) == 0
    assert step("shared", "--key", str(d / "bob.key"), "--peer", str(d / "alice.tok"),
                "--out", str(d / "bob.sk")) == 0
    assert step("encrypt", "--key", str(d / "alice.sk"), "--in", str(msg),
                "--out", str(d / "msg.tdp")) == 0
    assert step("decrypt", "--key", str(d / "bob.sk"), "--in", str(d / "msg.tdp"),
                "--out", str(d / "rec.bin")) == 0
    return d


def test_criterion_9_cli_pipeline_bit_exact(tmp_path):
    plaintext = SplitMix64(12345).read(777)
    run = lambda tag: _cli_pipeline(tmp_path / tag, plaintext)

    run1 = run("first")
    assert (run1 / "rec.bin").read_bytes() == plaintext
    assert (run1 / "alice.sk").read_bytes() == (run1 / "bob.sk").read_bytes()

    run2 = run("second")
    for name in PIPELINE_FILES:
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), name
    print("ACCEPTANCE 9: CLI pipeline lossless, session keys identical, reruns bit-exact: PASS")


def test_criterion_9_cli_pipeline_kernel_calls(tmp_path, row_reductions):
    # 44 matrices (draws, key, token and file checks) in 19 stacked kernel
    # calls: every read of a setup inverts its four bases at once, while the
    # setup and keygen draws hand on the inverses their own reduction computed
    _cli_pipeline(tmp_path / "run", SplitMix64(12345).read(777))
    assert sum(row_reductions) == 44
    assert len(row_reductions) == 19


def test_criterion_9_cli_pipeline_matches_recorded_digests(tmp_path):
    # pins the seeded byte stream itself, which a rerun comparison cannot:
    # a change in RNG consumption or record layout moves these digests
    d = _cli_pipeline(tmp_path / "run", SplitMix64(12345).read(777))
    digests = {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in PIPELINE_FILES}
    assert digests == vectors.CLI_PIPELINE_SHA256
