"""Step-by-step walkthrough of one key-agreement + encryption session.

Run:  python demos/key_exchange_walkthrough.py [seed]
"""

import sys

from tdpkex import (
    FieldParams,
    SplitMix64,
    alice_keygen,
    alice_shared,
    alice_token,
    bob_keygen,
    bob_shared,
    bob_token,
    decrypt_message,
    encrypt_message,
    gen_setup,
    validate_session,
)

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2024
params = FieldParams()  # p = 251, d = 8
rs = SplitMix64(seed)

print("=" * 64)
print(f"Key agreement over GL({params.d}, F_{params.p}), seed {seed}")
print("=" * 64)

print("\n[1] Public setup: four independent invertible bases P, Q, R, S")
setup = gen_setup(rs, params)
print("    P[0] =", setup.P.a[0].tolist())
print("    Q[0] =", setup.Q.a[0].tolist())
print("    R[0] =", setup.R.a[0].tolist())
print("    S[0] =", setup.S.a[0].tolist())

print("\n[2] Alice draws eigenvalue lists + one free matrix, derives factors")
alice = alice_keygen(rs, setup)
print("    eigenvalues for a2:", list(alice.d_a2.eigenvalues))
print("    eigenvalues for x1:", list(alice.d_x1.eigenvalues))

print("\n[3] Bob does the mirror image on the swapped bases")
bob = bob_keygen(rs, setup)
print("    eigenvalues for b1:", list(bob.d_b1.eigenvalues))
print("    eigenvalues for y1:", list(bob.d_y1.eigenvalues))

print("\n[4] Both publish their token triples")
tok_a = alice_token(alice)   # (u, v, w) = (a1 x1, x1^-1 a2 x2, x2^-1 a3)
tok_b = bob_token(bob)       # (p, q, r) = (b1 y1, y1^-1 b2 y2, y2^-1 b3)
print("    u[0] =", tok_a.t1.a[0].tolist())
print("    p[0] =", tok_b.t1.a[0].tolist())

print("\n[5] Each side collapses the other's token with its own factors")
key_a = alice_shared(alice, tok_b)   # a1 p a2 q a3 r
key_b = bob_shared(bob, tok_a)       # u b1 v b2 w b3
print("    K_alice == K_bob:", key_a.k == key_b.k)
print("    K[0] =", key_a.k.a[0].tolist())

print("\n[6] Health checks: required commutations hold, no degenerate pairs")
report = validate_session(setup, alice, bob)
for name, check in report.required.items():
    print(f"    required {name} = I : {'ok' if check.passed else 'FAIL'}")
weak = [name for name, check in report.pitfalls.items() if not check.passed]
print("    degenerate pitfall commutations:", weak if weak else "none")

print("\n[7] Bob encrypts a message for Alice by conjugating with the key")
plaintext = b"conjugation hides the block, but not its invariants"
message = encrypt_message(key_b, plaintext)
print(f"    {len(plaintext)} bytes -> {len(message.stack)} cipher block(s)")
print("    cif[0] =", message.stack[0, 0].tolist())

recovered = decrypt_message(key_a, message)
print("    Alice recovers:", recovered.decode())
assert recovered == plaintext
print("\nDone: agreement and roundtrip verified.")
