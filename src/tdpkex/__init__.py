"""Key agreement over GL(d, F_p) by triple decomposition, plus a conjugation cipher.

A toy-scale but exact implementation: two parties derive a shared invertible
matrix from published token triples whose hidden factors live in commuting
families, then use that matrix as a conjugator to encrypt byte messages.
Ships with the group-theoretic counting formulas, an exhaustive pseudo-key
attack at small parameters, and statistical checks of the ciphertext
distribution.  Research code; see README for the documented leaks.
"""

from .errors import (
    BlockTooLongError,
    FactorizationError,
    FileFormatError,
    NotUnitOrderError,
    ParamsMismatchError,
    PseudoKeyNotFoundError,
    SearchSpaceTooLargeError,
    SingularMatrixError,
    TooFewSamplesError,
    ValueOutOfRangeError,
)
from .field_matrix import (
    DiagonalSpec,
    FieldParams,
    Matrix,
    SplitMix64,
    StubSource,
    commutator,
    conjugate,
    field_uniform,
    mat_det,
    mat_det_many,
    mat_inverse,
    mat_inverse_many,
    mat_mul,
    mat_pow,
    mat_trace,
    random_diagonal,
    random_matrix,
    random_nonsingular,
    random_nonsingular_many,
    uniform_array,
)
from .poly_tools import (
    MonicPoly,
    char_poly,
    char_poly_many,
    companion_matrix,
    count_irreducible,
    element_order,
    gl_order,
    is_irreducible,
    matrix_space_size,
    moebius,
    nilpotent_count,
    ntot_count,
    random_irreducible,
    singular_count,
    trial_division_factorization,
)
from .commuting import commuting_from_basis
from .protocol import (
    AlicePrivate,
    BobPrivate,
    PublicSetup,
    PublicToken,
    Role,
    SessionKey,
    SessionResult,
    ValidationReport,
    alice_keygen,
    alice_shared,
    alice_token,
    bob_keygen,
    bob_shared,
    bob_token,
    gen_setup,
    run_session,
    validate_session,
)
from .cipher import (
    CipherBlock,
    CipherMessage,
    PlainBlock,
    bytes_per_block,
    decode_block,
    decrypt_block,
    decrypt_message,
    encode_block,
    encrypt_block,
    encrypt_message,
)
from .analysis import (
    KeyspaceReport,
    PseudoKey,
    SessionStats,
    SimilarityReport,
    StatsReport,
    brute_force_pseudo_key,
    keyspace_size,
    pseudo_key_reproduces,
    session_statistics,
    similarity_leak_check,
    uniformity_stats,
)

__version__ = "0.1.0"
