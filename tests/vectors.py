"""Frozen test vectors.

GOLDEN_* matrices are a complete conjugation-cipher transcript (shared key,
plaintext block, ciphertext block) transcribed from a published worked
session at p=251, d=8; both parties' printed keys were identical, and the
printed ciphertext equals key^-1 * msg * key entry-for-entry.

SPLITMIX64_SEED0ise the first output words of the reference SplitMix64
stream for seed 0, as published with the original generator.

CLI_PIPELINE_SHA256 holds the SHA-256 of every file the acceptance-9
command pipeline writes (setup seed 41, keygen seeds 42/43, 777-byte
plaintext from SplitMix64(12345)).  They pin the seeded byte stream and
the record layouts; they must not move unless a change says why.

SESSION_OUTPUT_SHA256 is the SHA-256 of 200 seeded ``run_session`` results
(seed i on SplitMix64(i), the parameters cycling through (251, 8), (5, 2),
(3, 3), (65521, 8) and (251, 9)): both private keys' factors and inverses,
both session keys with their inverses, both tokens, ``singular_redraws`` and
the next 16 stream bytes.  STATS_SEED7_KV holds the lines of
``tdpkex stats --seed 7 --sessions 300 --format kv`` except the timed
``mean_session_ms``.  Both pin a session's outputs: a change to a kernel's
arithmetic must leave them unedited.

CHARPOLY_OUTPUT_SHA256 is the SHA-256 of ``char_poly_many`` over nine-matrix
stacks at every p in (2, 3, 5, 251, 257, 65521) and d in 1 .. 9, 12 and 16:
five matrices filled from SplitMix64(100 p + d) bytes (four per entry, mod
p), the strict upper triangle of a sixth, the scalar (p - 1) I, the zero
and the all p - 1 matrix, passed three matrices at a time.  It pins the
Berkowitz pass's outputs the same way.
"""

GOLDEN_P = 251
GOLDEN_D = 8

# the shared session key as printed by Bob (Alice's print is identical)
GOLDEN_KEY_BOB = [
    [142, 192, 38, 42, 56, 123, 248, 215],
    [86, 89, 216, 109, 223, 54, 66, 135],
    [88, 206, 63, 134, 249, 39, 87, 2],
    [217, 202, 79, 240, 131, 61, 13, 213],
    [62, 67, 72, 46, 219, 51, 113, 100],
    [17, 234, 189, 210, 242, 230, 86, 193],
    [246, 157, 234, 27, 124, 138, 23, 127],
    [131, 35, 240, 116, 190, 144, 174, 90],
]

GOLDEN_KEY_ALICE = [
    [142, 192, 38, 42, 56, 123, 248, 215],
    [86, 89, 216, 109, 223, 54, 66, 135],
    [88, 206, 63, 134, 249, 39, 87, 2],
    [217, 202, 79, 240, 131, 61, 13, 213],
    [62, 67, 72, 46, 219, 51, 113, 100],
    [17, 234, 189, 210, 242, 230, 86, 193],
    [246, 157, 234, 27, 124, 138, 23, 127],
    [131, 35, 240, 116, 190, 144, 174, 90],
]

GOLDEN_MSG = [
    [38, 50, 241, 209, 242, 186, 128, 113],
    [200, 43, 145, 57, 52, 145, 76, 229],
    [78, 58, 70, 144, 45, 161, 100, 101],
    [223, 117, 213, 2, 184, 236, 91, 245],
    [136, 160, 210, 11, 197, 44, 239, 54],
    [233, 226, 126, 139, 7, 246, 165, 48],
    [140, 135, 172, 34, 37, 183, 21, 202],
    [176, 130, 203, 141, 49, 0, 161, 5],
]

GOLDEN_CIF = [
    [7, 41, 3, 224, 146, 175, 243, 114],
    [168, 22, 11, 103, 83, 91, 24, 179],
    [113, 16, 19, 249, 128, 231, 87, 176],
    [122, 183, 20, 2, 219, 96, 229, 144],
    [46, 30, 198, 139, 4, 240, 27, 56],
    [146, 5, 221, 58, 234, 184, 77, 191],
    [212, 241, 48, 5, 23, 40, 150, 21],
    [144, 12, 79, 177, 154, 45, 115, 234],
]

GOLDEN_RECOVERED = [
    [38, 50, 241, 209, 242, 186, 128, 113],
    [200, 43, 145, 57, 52, 145, 76, 229],
    [78, 58, 70, 144, 45, 161, 100, 101],
    [223, 117, 213, 2, 184, 236, 91, 245],
    [136, 160, 210, 11, 197, 44, 239, 54],
    [233, 226, 126, 139, 7, 246, 165, 48],
    [140, 135, 172, 34, 37, 183, 21, 202],
    [176, 130, 203, 141, 49, 0, 161, 5],
]

# first three output words of the reference SplitMix64 stream, seed 0
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

# SHA-256 of each file the acceptance-9 pipeline writes
CLI_PIPELINE_SHA256 = {
    "setup.tdp": "96eadf631d8a69c6fef842f7f5eafb7817a3fd99336abe1920634c20bd8d0edf",
    "alice.key": "e872badd3db525f6704e09125773b8e0dcda0df4504f4da0270325175a1d6a93",
    "bob.key": "4d1a8251ee536f2a1f2bc5bbcd613ddf0a4ddfbec23c728453447bf9a3aa3897",
    "alice.tok": "ee17b8c2859a1446a68f734b87bf3e2e5a22f0e5a454a6de95443b3c446df3a6",
    "bob.tok": "48c6ba02d8cef0571673186880d0b2005f8934c05f235eb696c62048fa0b5dfd",
    "alice.sk": "55e5f95d08bf9f7ea16fadd5a0cffac47f0dac8c24ca4e3102427d8b8ffcbc65",
    "bob.sk": "55e5f95d08bf9f7ea16fadd5a0cffac47f0dac8c24ca4e3102427d8b8ffcbc65",
    "msg.tdp": "1aa6ceefdbbb46eae634de4347fcc7edfd4c0a731a0d7eb3697f9f2b92e69104",
    "rec.bin": "4a19debe12b56bff3f657b0544839706c0306380deaca66553c9c2a69d5ae7d0",
}

# run_session outputs over 200 seeds; see the module docstring for what is hashed
SESSION_OUTPUT_SHA256 = "d47bcac42b3f83d9ac1b271f3c7bfe8500859891e8c076e665f44d0d7db23018"

# char_poly_many outputs over mixed stacks; see the module docstring for what is hashed
CHARPOLY_OUTPUT_SHA256 = "dff2de255a4640a186a0840602b346ed71d925fbe34661b2ed7e0649e4df5fd3"

# `tdpkex stats --seed 7 --sessions 300 --format kv` without mean_session_ms
STATS_SEED7_KV = [
    "sessions=300",
    "agreement=300/300",
    "roundtrip=300/300",
    "candidate_draws=1805",
    "singular_redraws=5",
    "redraw_rate=0.00277",
    "chi_square=238.46",
    "dof=250",
    "p_value=0.6895",
    "uniformity=PASS",
    "leak=trace/det/charpoly preserved: yes",
]
