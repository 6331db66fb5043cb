import copy
import dataclasses

import numpy as np
import pytest

from tdpkex import (
    AlicePrivate,
    DiagonalSpec,
    FieldParams,
    Matrix,
    ParamsMismatchError,
    PublicSetup,
    PublicToken,
    Role,
    SessionKey,
    SingularMatrixError,
    SplitMix64,
    alice_keygen,
    alice_shared,
    alice_token,
    bob_keygen,
    bob_shared,
    bob_token,
    commutator,
    decrypt_message,
    encode_block,
    encrypt_message,
    gen_setup,
    mat_det,
    mat_inverse,
    mat_mul,
    random_nonsingular,
    run_session,
    similarity_leak_check,
    validate_session,
)

from tdpkex import protocol
from tdpkex.protocol import ROLE_LAYOUT

from conftest import identity_privates

P251 = FieldParams()
P5 = FieldParams(p=5, d=2)
P3D3 = FieldParams(p=3, d=3)


def _np_inv(arr, p):
    # independent Gauss-Jordan for oracle recomputation
    d = arr.shape[0]
    m = np.concatenate([arr % p, np.eye(d, dtype=np.int64)], axis=1)
    for c in range(d):
        piv = c + int(np.nonzero(m[c:, c])[0][0])
        if piv != c:
            m[[c, piv]] = m[[piv, c]]
        m[c] = m[c] * pow(int(m[c, c]), -1, p) % p
        for r in range(d):
            if r != c and m[r, c]:
                m[r] = (m[r] - m[r, c] * m[c]) % p
    return m[:, d:]


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def test_setup_bases_nonsingular_and_deterministic():
    s1 = gen_setup(SplitMix64(10), P251)
    s2 = gen_setup(SplitMix64(10), P251)
    for name in ("P", "Q", "R", "S"):
        assert mat_det(getattr(s1, name)) != 0
        assert getattr(s1, name) == getattr(s2, name)


def test_setup_distinct_seeds_differ():
    for seed in range(100):
        a = gen_setup(SplitMix64(seed), P5)
        b = gen_setup(SplitMix64(seed + 1000), P5)
        assert a.P != b.P


def test_setup_rejects_p2():
    with pytest.raises(ValueError):
        gen_setup(SplitMix64(0), FieldParams(p=2, d=2))


def test_setup_rejects_singular_basis():
    singular = Matrix.from_rows(P5, [[1, 1], [1, 1]])
    ident = Matrix.identity(P5)
    with pytest.raises(SingularMatrixError, match="basis P is singular"):
        PublicSetup(P5, singular, ident, ident, ident)
    with pytest.raises(SingularMatrixError, match="basis S is singular"):
        PublicSetup(P5, ident, ident, ident, singular)
    with pytest.raises(SingularMatrixError, match="basis Q is singular"):
        PublicSetup(P5, ident, singular, singular, ident)
    with pytest.raises(ParamsMismatchError, match="basis R has foreign"):
        PublicSetup(P5, ident, ident, Matrix.identity(FieldParams(p=7, d=2)), singular)


def test_setup_checks_supplied_inverses():
    setup = gen_setup(SplitMix64(15), P5)
    bases = [setup.P, setup.Q, setup.R, setup.S]
    supplied = PublicSetup(P5, *bases, basis_inv=setup.basis_inv)
    assert supplied == setup == PublicSetup(P5, *bases)
    assert supplied.basis_inv == setup.basis_inv == PublicSetup(P5, *bases).basis_inv
    # a wrong inverse for an invertible basis is refused like a singular basis
    with pytest.raises(SingularMatrixError, match="basis P is singular"):
        PublicSetup(P5, *bases, basis_inv={**setup.basis_inv, "P": setup.P})
    with pytest.raises(SingularMatrixError, match="basis S is singular"):
        PublicSetup(P5, *bases, basis_inv={**setup.basis_inv, "S": Matrix.identity(P5)})
    # no inverse can certify a singular basis
    singular = Matrix.from_rows(P5, [[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError, match="basis Q is singular"):
        PublicSetup(P5, setup.P, singular, setup.R, setup.S,
                    basis_inv={**setup.basis_inv, "Q": Matrix.identity(P5)})
    foreign = Matrix.identity(FieldParams(7, 2))
    with pytest.raises(ParamsMismatchError):
        PublicSetup(P5, *bases, basis_inv={**setup.basis_inv, "R": foreign})


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def test_alice_keygen_derivations_recomputed_independently():
    rs = SplitMix64(11)
    setup = gen_setup(rs, P251)
    priv = alice_keygen(rs, setup)
    for derived, basis, spec in (
        (priv.a2, setup.P, priv.d_a2),
        (priv.a3, setup.Q, priv.d_a3),
        (priv.x1, setup.R, priv.d_x1),
        (priv.x2, setup.S, priv.d_x2),
    ):
        binv = _np_inv(basis.a, 251)
        expected = (binv @ np.diag(np.array(spec.eigenvalues, dtype=np.int64)) % 251) @ basis.a % 251
        assert derived.a.tolist() == expected.tolist()
    for m in (priv.a1, priv.a2, priv.a3, priv.x1, priv.x2):
        assert mat_det(m) != 0


def test_bob_keygen_derivations_recomputed_independently():
    rs = SplitMix64(12)
    setup = gen_setup(rs, P251)
    priv = bob_keygen(rs, setup)
    for derived, basis, spec in (
        (priv.b1, setup.R, priv.d_b1),
        (priv.b2, setup.S, priv.d_b2),
        (priv.y1, setup.P, priv.d_y1),
        (priv.y2, setup.Q, priv.d_y2),
    ):
        binv = _np_inv(basis.a, 251)
        expected = (binv @ np.diag(np.array(spec.eigenvalues, dtype=np.int64)) % 251) @ basis.a % 251
        assert derived.a.tolist() == expected.tolist()


def test_private_constructor_rejects_inconsistent_material():
    rs = SplitMix64(13)
    setup = gen_setup(rs, P251)
    priv = alice_keygen(rs, setup)
    fields = [priv.d_a2, priv.d_a3, priv.d_x1, priv.d_x2, priv.a1, priv.a2, priv.a3, priv.x1, priv.x2]
    wrong = Matrix.identity(P251)
    with pytest.raises(ValueError):
        AlicePrivate(setup, *fields[:5], wrong, *fields[6:])
    # the last family's factor swapped for another member of the same family
    other = setup.member("S", [1] * (P251.d - 1) + [2])
    with pytest.raises(ValueError, match="does not match"):
        AlicePrivate(setup, *fields[:8], other)
    foreign = FieldParams(p=7, d=8)
    with pytest.raises(ParamsMismatchError):
        AlicePrivate(setup, *fields[:7], Matrix.identity(foreign), priv.x2)
    with pytest.raises(ParamsMismatchError):
        AlicePrivate(setup, *fields[:3], DiagonalSpec(foreign, [1] * 8), *fields[4:])
    with pytest.raises(SingularMatrixError, match="a1 is singular"):
        AlicePrivate(setup, *fields[:4], Matrix.zero(P251), *fields[5:])
    # the free factor's parameters are checked with the family factors'
    with pytest.raises(ParamsMismatchError, match="a1 has foreign parameters"):
        AlicePrivate(setup, *fields[:4], Matrix.identity(foreign), *fields[5:])


@pytest.mark.parametrize("keygen, free", [(alice_keygen, "a1"), (bob_keygen, "b3")])
def test_private_checks_supplied_free_inverse(keygen, free):
    rs = SplitMix64(16)
    setup = gen_setup(rs, P251)
    priv = keygen(rs, setup)
    build, layout = type(priv), ROLE_LAYOUT[priv.role]
    names = ["setup"] + ["d_" + name for name, _ in layout.families] + list(layout.record)
    material = {name: getattr(priv, name) for name in names}
    plain = build(**material)
    supplied = build(**material, free_inv=priv.free_inv)
    assert plain == supplied == priv
    assert plain.free_inv == supplied.free_inv == mat_inverse(getattr(priv, free))
    for wrong in (getattr(priv, free), Matrix.identity(P251)):
        with pytest.raises(SingularMatrixError, match=f"{free} is singular"):
            build(**material, free_inv=wrong)
    with pytest.raises(SingularMatrixError, match=f"{free} is singular"):
        build(**{**material, free: Matrix.zero(P251)}, free_inv=priv.free_inv)


def test_cross_family_commutation_by_construction():
    from tdpkex import commutator, commuting_from_basis, random_diagonal

    rs = SplitMix64(14)
    setup = gen_setup(rs, P251)
    alice = alice_keygen(rs, setup)
    # any P-family member commutes with a2, any R-family member with x1
    probe_p = commuting_from_basis(setup.P, random_diagonal(rs, P251))
    probe_r = commuting_from_basis(setup.R, random_diagonal(rs, P251))
    assert commutator(alice.a2, probe_p).is_identity()
    assert commutator(alice.x1, probe_r).is_identity()


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

def test_alice_token_formula_oracle():
    rs = SplitMix64(15)
    setup = gen_setup(rs, P5)
    priv = alice_keygen(rs, setup)
    token = alice_token(priv)
    p = 5
    x1i = _np_inv(priv.x1.a, p)
    x2i = _np_inv(priv.x2.a, p)
    assert token.role is Role.ALICE
    assert token.t1.a.tolist() == (priv.a1.a @ priv.x1.a % p).tolist()
    assert token.t2.a.tolist() == ((x1i @ priv.a2.a % p) @ priv.x2.a % p).tolist()
    assert token.t3.a.tolist() == (x2i @ priv.a3.a % p).tolist()


def test_bob_token_formula_oracle():
    rs = SplitMix64(16)
    setup = gen_setup(rs, P5)
    priv = bob_keygen(rs, setup)
    token = bob_token(priv)
    p = 5
    y1i = _np_inv(priv.y1.a, p)
    y2i = _np_inv(priv.y2.a, p)
    assert token.role is Role.BOB
    assert token.t1.a.tolist() == (priv.b1.a @ priv.y1.a % p).tolist()
    assert token.t2.a.tolist() == ((y1i @ priv.b2.a % p) @ priv.y2.a % p).tolist()
    assert token.t3.a.tolist() == (y2i @ priv.b3.a % p).tolist()


def test_token_reconstructs_free_factor_given_x1():
    rs = SplitMix64(17)
    setup = gen_setup(rs, P251)
    priv = alice_keygen(rs, setup)
    token = alice_token(priv)
    assert mat_mul(token.t1, mat_inverse(priv.x1)) == priv.a1


def test_token_deterministic():
    rs = SplitMix64(18)
    setup = gen_setup(rs, P251)
    priv = alice_keygen(rs, setup)
    assert alice_token(priv) == alice_token(priv)


def test_identity_private_gives_identity_token():
    setup = gen_setup(SplitMix64(19), P251)
    alice, bob = identity_privates(setup)
    for t in (alice_token(alice), bob_token(bob)):
        assert t.t1.is_identity() and t.t2.is_identity() and t.t3.is_identity()


# ---------------------------------------------------------------------------
# shared key
# ---------------------------------------------------------------------------

def test_agreement_over_many_seeds():
    for seed in range(30):
        result = run_session(SplitMix64(seed), P251)
        assert result.agreed


def test_shared_key_equals_interleaved_product():
    result = run_session(SplitMix64(20), P251)
    k = result.alice.a1
    for f in (result.bob.b1, result.alice.a2, result.bob.b2, result.alice.a3, result.bob.b3):
        k = mat_mul(k, f)
    assert result.alice_key.k == k
    assert result.bob_key.k == k


def test_identity_parties_share_identity_key():
    setup = gen_setup(SplitMix64(21), P251)
    alice, bob = identity_privates(setup)
    ka = alice_shared(alice, bob_token(bob))
    kb = bob_shared(bob, alice_token(alice))
    assert ka.k.is_identity() and kb.k.is_identity()


def test_shared_rejects_wrong_role_token():
    result = run_session(SplitMix64(22), P5)
    with pytest.raises(ValueError):
        alice_shared(result.alice, result.alice_pub)
    with pytest.raises(ValueError):
        bob_shared(result.bob, result.bob_pub)


def test_shared_rejects_params_mismatch():
    result_a = run_session(SplitMix64(23), P5)
    result_b = run_session(SplitMix64(23), FieldParams(p=7, d=2))
    with pytest.raises(ParamsMismatchError):
        alice_shared(result_a.alice, result_b.bob_pub)


def test_tokens_do_not_equal_private_factors():
    # sanity: the published triple is not trivially the private material
    for seed in range(20):
        result = run_session(SplitMix64(seed), P251)
        assert result.alice_pub.t1 != result.alice.a1
        assert result.alice_pub.t2 != result.alice.a2


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validation_passes_on_healthy_sessions():
    for seed in range(25):
        result = run_session(SplitMix64(seed), P251)
        report = validate_session(result.setup, result.alice, result.bob)
        assert report.all_required_pass
        assert not report.weak
        assert report.ok
        assert set(report.required) == {"[a2,y1]", "[a3,y2]", "[b1,x1]", "[b2,x2]"}
        assert set(report.pitfalls) == {
            "[x1,y1]", "[x2,y1]", "[x2,y2]", "[a2,b1]",
            "[a3,b2]", "[a3,b1]", "[x2,b1]", "[a3,y1]",
        }


def test_validation_flags_shared_basis_setup():
    rs = SplitMix64(24)
    base, _ = random_nonsingular(rs, P251)
    degenerate = PublicSetup(P251, base, base, base, base)
    alice = alice_keygen(rs, degenerate)
    bob = bob_keygen(rs, degenerate)
    report = validate_session(degenerate, alice, bob)
    assert report.all_required_pass
    assert report.weak
    for name in ("[x1,y1]", "[x2,y1]", "[x2,y2]"):
        assert not report.pitfalls[name].passed
        assert report.pitfalls[name].commutator.is_identity()


def test_validation_identity_parties_flags_everything():
    setup = gen_setup(SplitMix64(25), P251)
    alice, bob = identity_privates(setup)
    report = validate_session(setup, alice, bob)
    assert report.all_required_pass
    assert all(not r.passed for r in report.pitfalls.values())


def _validated_pair(name, alice, bob):
    return [getattr(alice if f[0] in "ax" else bob, f) for f in name[1:-1].split(",")]


def test_validation_commutators_match_commutator():
    rs = SplitMix64(24)
    base, _ = random_nonsingular(rs, P251)
    degenerate = PublicSetup(P251, base, base, base, base)
    healthy = run_session(SplitMix64(29), P251)
    for setup, alice, bob in (
        (healthy.setup, healthy.alice, healthy.bob),
        (degenerate, alice_keygen(rs, degenerate), bob_keygen(rs, degenerate)),
    ):
        report = validate_session(setup, alice, bob)
        for checks, must_commute in ((report.required, True), (report.pitfalls, False)):
            for name, check in checks.items():
                expected = commutator(*_validated_pair(name, alice, bob))
                assert check.commutator == expected, name
                assert check.passed == (expected.is_identity() == must_commute), name


def test_validation_does_no_elimination(row_reductions):
    result = run_session(SplitMix64(30), P251)
    row_reductions.clear()
    validate_session(result.setup, result.alice, result.bob)
    assert row_reductions == []


def test_validation_rejects_foreign_setup():
    r1 = run_session(SplitMix64(26), P5)
    r2 = run_session(SplitMix64(27), P5)
    with pytest.raises(ParamsMismatchError):
        validate_session(r2.setup, r1.alice, r1.bob)


def test_session_key_checks_supplied_inverse():
    result = run_session(SplitMix64(29), P251)
    k, k_inv = result.alice_key.k, result.alice_key.k_inv
    assert SessionKey(k, k_inv) == SessionKey(k) == result.alice_key
    assert SessionKey(k, k_inv).k_inv == SessionKey(k).k_inv == mat_inverse(k)
    for wrong in (k, Matrix.identity(P251)):
        with pytest.raises(SingularMatrixError, match="session key is singular"):
            SessionKey(k, wrong)
    with pytest.raises(SingularMatrixError, match="session key is singular"):
        SessionKey(Matrix.zero(P251), k_inv)
    with pytest.raises(SingularMatrixError, match="session key is singular"):
        SessionKey(Matrix.zero(P251))


def test_shared_certifies_the_key_inverse_built_from_token_inverses():
    result = run_session(SplitMix64(42), P251)
    token = result.bob_pub
    inverses = np.array([mat_inverse(t).a for t in (token.t1, token.t2, token.t3)])
    key = alice_shared(result.alice, PublicToken(token.role, token.t1, token.t2, token.t3, inverses))
    assert key == result.alice_key
    assert key.k_inv == result.alice_key.k_inv
    with pytest.raises(SingularMatrixError, match="session key is singular"):
        alice_shared(result.alice, PublicToken(token.role, token.t1, token.t2, token.t3, inverses[::-1]))


def test_session_counters():
    result = run_session(SplitMix64(28), P251)
    assert result.singular_redraws >= 0


# ---------------------------------------------------------------------------
# eliminations: each basis is inverted once, family members need none
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", [P5, P251], ids=["p5d2", "p251d8"])
def test_cached_inverses_match_mat_inverse(params):
    result = run_session(SplitMix64(40), params)
    setup = result.setup
    for name in ("P", "Q", "R", "S"):
        assert setup.basis_inv[name] == mat_inverse(getattr(setup, name))
    for priv in (result.alice, result.bob):
        layout = ROLE_LAYOUT[priv.role]
        expected = [mat_inverse(getattr(priv, name)).a for name in layout.record]
        assert np.array_equal(priv.inverses, expected)
        assert priv.free_inv == mat_inverse(getattr(priv, layout.free))
    for key in (result.alice_key, result.bob_key):
        assert key.k_inv == mat_inverse(key.k)


# at p=5 seed 24 four re-parse rounds follow the first parse, for five
# singular candidates across the setup and Alice's free factor; at p=251
# seed 33 one setup basis is redrawn in one re-parse round
@pytest.mark.parametrize(
    "params, seed, reparse_rounds, matrices", [(P5, 24, 4, 18), (P251, 33, 1, 9)], ids=["p5d2", "p251d8"]
)
def test_session_eliminations(params, seed, reparse_rounds, matrices, row_reductions):
    # the first parse reduces the 4 setup draws and the 2 free draws in one
    # kernel call; a re-parse round reduces the matrices still missing from the
    # first segment with a singular candidate on.  The session keys' inverse
    # is built from the factors' inverses, so no call reduces a key
    result = run_session(SplitMix64(seed), params)
    assert result.singular_redraws > 0
    assert len(row_reductions) == 1 + reparse_rounds
    assert sum(row_reductions) == matrices
    assert row_reductions[0] == 6


# seeds and the draw segments where they meet a singular candidate: a setup
# basis, Alice's free factor a1 or Bob's free factor b3
_SEGMENT_SEEDS = [
    (P251, 33, ("setup",)), (P251, 98, ("a1",)), (P251, 417, ("b3",)),
    (P5, 1, ("setup",)), (P5, 0, ("a1",)), (P5, 32, ("b3",)), (P5, 24, ("setup", "a1")),
    (P3D3, 2, ("setup",)), (P3D3, 1, ("a1",)), (P3D3, 14, ("b3",)),
]


@pytest.mark.parametrize(
    "params, seed, singular_in", _SEGMENT_SEEDS,
    ids=[f"p{p.p}d{p.d}-seed{seed}-{'-'.join(hit)}" for p, seed, hit in _SEGMENT_SEEDS],
)
def test_run_session_equals_sequential_calls(params, seed, singular_in, monkeypatch):
    rejections = []
    draw = protocol.draw_segments

    def counted(rs, params, segments):
        drawn, rejected = draw(rs, params, segments)
        rejections.append(rejected)
        return drawn, rejected

    run_rs = SplitMix64(seed)
    result = run_session(run_rs, params)
    monkeypatch.setattr(protocol, "draw_segments", counted)
    rs = SplitMix64(seed)
    setup = gen_setup(rs, params)
    alice, bob = alice_keygen(rs, setup), bob_keygen(rs, setup)
    tok_a, tok_b = alice_token(alice), bob_token(bob)
    keys = alice_shared(alice, tok_b), bob_shared(bob, tok_a)
    assert [bool(r) for r in rejections] == [s in singular_in for s in ("setup", "a1", "b3")]
    assert result.setup == setup
    assert [result.setup.basis_inv[n] for n in "PQRS"] == [setup.basis_inv[n] for n in "PQRS"]
    assert (result.alice, result.bob) == (alice, bob)
    assert (result.alice.free_inv, result.bob.free_inv) == (alice.free_inv, bob.free_inv)
    assert (result.alice_pub, result.bob_pub) == (tok_a, tok_b)
    assert (result.alice_key, result.bob_key) == keys
    assert [k.k_inv for k in (result.alice_key, result.bob_key)] == [k.k_inv for k in keys]
    assert result.singular_redraws == sum(rejections) > 0
    assert run_rs.read(16) == rs.read(16)


def test_tokens_do_no_elimination(row_reductions):
    result = run_session(SplitMix64(41), P251)
    row_reductions.clear()
    assert alice_token(result.alice) == result.alice_pub
    assert bob_token(result.bob) == result.bob_pub
    assert row_reductions == []


# ---------------------------------------------------------------------------
# stacks: objects wrap a Matrix only when a member is read
# ---------------------------------------------------------------------------

def test_session_builds_matrices_only_when_asked(built_matrices):
    # the session tail the benchmark runs wraps its cipher block and its plain block
    result = run_session(SplitMix64(31), P251)
    assert result.agreed
    assert built_matrices == []
    plaintext = SplitMix64(32).read(63)
    message = encrypt_message(result.alice_key, plaintext)
    assert decrypt_message(result.bob_key, message) == plaintext
    leak = similarity_leak_check(encode_block(plaintext, P251), message.blocks[0])
    assert leak.all_equal
    assert len(built_matrices) <= 2


def _stack(*ms):
    return np.array([m.a for m in ms])


def _same_refusal(matrix_route, stack_route) -> Exception:
    """The error both routes raise, after checking that its type and message agree."""
    with pytest.raises(ValueError) as by_matrix:
        matrix_route()
    with pytest.raises(ValueError) as by_stack:
        stack_route()
    assert type(by_stack.value) is type(by_matrix.value)
    assert str(by_stack.value) == str(by_matrix.value)
    return by_matrix.value


def test_setup_routes_refuse_alike():
    singular, ident = Matrix.from_rows(P5, [[1, 1], [1, 1]]), Matrix.identity(P5)
    setup = gen_setup(SplitMix64(15), P5)
    bases, inv = [setup.P, setup.Q, setup.R, setup.S], setup.basis_inv
    cases = [
        ((singular, ident, ident, ident), None, "basis P is singular"),
        ((ident, ident, ident, singular), None, "basis S is singular"),
        ((ident, singular, singular, ident), None, "basis Q is singular"),
        (bases, {**inv, "P": setup.P}, "basis P is singular"),
        (bases, {**inv, "S": ident}, "basis S is singular"),
        ((setup.P, singular, setup.R, setup.S), {**inv, "Q": ident}, "basis Q is singular"),
    ]
    for ms, basis_inv, message in cases:
        inverses = None if basis_inv is None else _stack(*(basis_inv[n] for n in "PQRS"))
        error = _same_refusal(lambda: PublicSetup(P5, *ms, basis_inv=basis_inv),
                              lambda: PublicSetup._from_stacks(P5, _stack(*ms), inverses))
        assert isinstance(error, SingularMatrixError) and str(error) == message
    p2 = FieldParams(p=2, d=2)
    ident2 = Matrix.identity(p2)
    error = _same_refusal(lambda: PublicSetup(p2, ident2, ident2, ident2, ident2),
                          lambda: PublicSetup._from_stacks(p2, _stack(*[ident2] * 4)))
    assert "needs p > 2" in str(error)


@pytest.mark.parametrize("keygen", [alice_keygen, bob_keygen])
def test_private_routes_refuse_alike(keygen):
    rs = SplitMix64(13)
    setup = gen_setup(rs, P251)
    priv = keygen(rs, setup)
    build, layout = type(priv), ROLE_LAYOUT[priv.role]
    lists = priv.eigenvalues.tolist()
    factors = [getattr(priv, name) for name in layout.record]
    first, free = layout.family_index[0], layout.free_index
    last_member = setup.member(layout.families[-1][1], [1] * (P251.d - 1) + [2])
    ident, zero = Matrix.identity(P251), Matrix.zero(P251)
    cases = [
        # a family factor replaced by the identity, or by another member of its family
        (lists, {first: ident}, None, ValueError, "derived matrix does not match its basis and eigenvalues"),
        (lists, {layout.family_index[-1]: last_member}, None, ValueError, "derived matrix does not match"),
        (lists, {free: zero}, None, SingularMatrixError, f"{layout.free} is singular"),
        (lists, {}, getattr(priv, layout.free), SingularMatrixError, f"{layout.free} is singular"),
        (lists, {}, ident, SingularMatrixError, f"{layout.free} is singular"),
        ([[0] + lists[0][1:]] + lists[1:], {}, None, ValueError, "eigenvalue 0 outside [1, p-1]"),
        (lists[:3] + [[P251.p] * P251.d], {}, None, ValueError, "eigenvalue 251 outside [1, p-1]"),
    ]
    for values, swapped, free_inv, kind, message in cases:
        ms = [swapped.get(i, m) for i, m in enumerate(factors)]
        inverse = None if free_inv is None else free_inv.a

        def by_matrix():
            specs = [DiagonalSpec(P251, row) for row in values]
            return build(setup, *specs, *ms, free_inv=free_inv)

        def by_stack():
            return build._from_stacks(setup, np.array(values), _stack(*ms), inverse)

        error = _same_refusal(by_matrix, by_stack)
        assert type(error) is kind and message in str(error)


def test_key_and_token_routes_refuse_alike():
    result = run_session(SplitMix64(29), P251)
    k, k_inv = result.alice_key.k, result.alice_key.k_inv
    zero = Matrix.zero(P251)
    for key, inverse in ((k, k), (k, Matrix.identity(P251)), (zero, k_inv), (zero, None)):
        error = _same_refusal(
            lambda: SessionKey(key, inverse),
            lambda: SessionKey._from_stacks(P251, key.a, None if inverse is None else inverse.a),
        )
        assert type(error) is SingularMatrixError and str(error) == "session key is singular"
    token = result.bob_pub
    inverses = np.array([mat_inverse(t).a for t in (token.t1, token.t2, token.t3)])[::-1]
    error = _same_refusal(
        lambda: alice_shared(result.alice, PublicToken(token.role, token.t1, token.t2, token.t3, inverses)),
        lambda: alice_shared(result.alice, PublicToken._from_stacks(token.role, P251, token.stack, inverses)),
    )
    assert type(error) is SingularMatrixError and str(error) == "session key is singular"
    foreign = run_session(SplitMix64(29), FieldParams(p=7, d=8)).bob_pub
    error = _same_refusal(
        lambda: alice_shared(result.alice, PublicToken(foreign.role, foreign.t1, foreign.t2, foreign.t3)),
        lambda: alice_shared(result.alice, PublicToken._from_stacks(foreign.role, foreign.params, foreign.stack)),
    )
    assert type(error) is ParamsMismatchError


def test_routes_build_equal_objects():
    result = run_session(SplitMix64(44), P251)
    setup = result.setup
    by_matrix = PublicSetup(P251, setup.P, setup.Q, setup.R, setup.S)
    by_stack = PublicSetup._from_stacks(P251, setup.bases.copy())
    assert by_matrix == by_stack == setup
    for name in "PQRS":
        assert getattr(by_matrix, name) == getattr(by_stack, name) == getattr(setup, name)
    assert by_matrix.basis_inv == by_stack.basis_inv == setup.basis_inv
    for priv in (result.alice, result.bob):
        layout = ROLE_LAYOUT[priv.role]
        names = ["d_" + name for name, _ in layout.families] + list(layout.record)
        build = type(priv)
        by_matrix = build(setup, *(getattr(priv, name) for name in names))
        by_stack = build._from_stacks(setup, priv.eigenvalues.copy(), priv.factors.copy())
        assert by_matrix == by_stack == priv
        for name in names + ["free_inv"]:
            assert getattr(by_matrix, name) == getattr(by_stack, name) == getattr(priv, name), name
    for token in (result.alice_pub, result.bob_pub):
        by_matrix = PublicToken(token.role, token.t1, token.t2, token.t3)
        by_stack = PublicToken._from_stacks(token.role, P251, token.stack.copy())
        assert by_matrix == by_stack == token
        for name in ("t1", "t2", "t3"):
            assert getattr(by_matrix, name) == getattr(by_stack, name) == getattr(token, name)
    key = result.alice_key
    by_matrix, by_stack = SessionKey(key.k), SessionKey._from_stacks(P251, key.k.a.copy())
    assert by_matrix == by_stack == key == result.bob_key
    assert by_matrix.k_inv == by_stack.k_inv == key.k_inv


def test_objects_are_immutable_and_copy_equal():
    result = run_session(SplitMix64(45), P251)
    for obj in (result.setup, result.alice, result.bob, result.alice_pub, result.alice_key):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.params = P5
        assert copy.deepcopy(obj) == obj
    for stack in (result.setup.bases, result.alice.factors, result.alice_pub.stack, result.alice_key.stack):
        assert not stack.flags.writeable
