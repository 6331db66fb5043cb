import itertools
import re
import warnings

import numpy as np
import pytest

from tdpkex import (
    DiagonalSpec,
    FieldParams,
    Matrix,
    ParamsMismatchError,
    SessionKey,
    SingularMatrixError,
    SplitMix64,
    StubSource,
    bytes_per_block,
    char_poly,
    commutator,
    conjugate,
    decrypt_block,
    encode_block,
    encrypt_block,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_pow,
    mat_trace,
    random_diagonal,
    random_matrix,
    random_nonsingular,
    run_session,
)
from tdpkex import field_matrix

from oracles import det_cofactor, inverse_adjugate

P5 = FieldParams(p=5, d=2)
P251 = FieldParams()


# ---------------------------------------------------------------------------
# parameter and type validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,d", [(1, 2), (4, 2), (65536, 2), (65537, 2), (251, 1), (251, 0)])
def test_invalid_params_rejected(p, d):
    with pytest.raises(ValueError):
        FieldParams(p=p, d=d)


def test_valid_params_accepted():
    assert FieldParams(p=2, d=2).p == 2
    assert FieldParams(p=65521, d=3).p == 65521


@pytest.mark.parametrize("p, d", [
    pytest.param(251.0, 8, id="float-prime"),
    pytest.param(np.int64(251), 8, id="numpy-prime"),
    pytest.param(251, 8.0, id="float-dimension"),
])
def test_params_keep_exact_integers_as_python_ints(p, d):
    # Matrix's rule; kept as given, each failed later in bytes_per_block or run_session
    params = FieldParams(p=p, d=d)
    assert type(params.p) is int and type(params.d) is int
    assert params == P251 and hash(params) == hash(P251)
    assert bytes_per_block(params) == 63
    assert run_session(SplitMix64(1), params).agreed


@pytest.mark.parametrize("p, d", [
    pytest.param(2.5, 8, id="fraction"),
    pytest.param("251", 8, id="string"),
    pytest.param(float("nan"), 8, id="nan"),
    pytest.param(251, 8.5, id="fractional-dimension"),
])
def test_params_refuse_values_that_are_not_integers(p, d):
    with pytest.raises(ValueError, match="is not an integer"):
        FieldParams(p=p, d=d)


def test_diagonal_spec_validation():
    with pytest.raises(ValueError):
        DiagonalSpec(P5, (0, 1))  # zero eigenvalue
    with pytest.raises(ValueError):
        DiagonalSpec(P5, (1, 5))  # out of range
    with pytest.raises(ValueError):
        DiagonalSpec(P5, (1, 2, 3))  # wrong length
    # past int64 the messages name each value as given
    with pytest.raises(ValueError, match=r"^expected 2 eigenvalues, got 3$"):
        DiagonalSpec(P5, (1, 2**70, 3))
    for value in (2**70, -2**70, 2**63, -1):
        with pytest.raises(ValueError, match=rf"^eigenvalue {value} outside \[1, p-1\]$"):
            DiagonalSpec(P5, (1, value))


def test_matrix_entries_reduced_and_frozen():
    m = Matrix.from_rows(P5, [[7, -1], [5, 12]])
    assert m.a.tolist() == [[2, 4], [0, 2]]
    with pytest.raises(ValueError):
        m.a[0, 0] = 3
    with pytest.raises(ValueError, match=r"^expected shape \(2, 2\), got \(2,\)$"):
        Matrix.from_rows(P5, [[1, 2], [3]])


@pytest.mark.parametrize("entry", [2.7, float("nan"), float("inf"), -float("inf"), "1", None])
def test_matrix_refuses_entries_that_are_not_integers(entry):
    # 2.7, NaN and inf used to become 2 (NaN with only a RuntimeWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in ([[entry, 1], [0, 1]], np.array([[entry, 1], [0, 1]], dtype=object)):
            with pytest.raises(ValueError, match=rf"^entry {re.escape(repr(entry))} is not an integer$"):
                Matrix(P5, rows)
        if isinstance(entry, float):
            with pytest.raises(ValueError, match="is not an integer"):
                Matrix(P5, np.array([[entry, 1.0], [0.0, 1.0]]))


def test_matrix_reduces_ints_past_int64():
    rows = [[2**70, 2**63 + 1], [-(2**64) - 3, 3.0]]
    expected = [[2**70 % 5, (2**63 + 1) % 5], [(-(2**64) - 3) % 5, 3]]
    assert Matrix.from_rows(P5, rows).a.tolist() == expected
    assert Matrix(P5, np.array(rows, dtype=object)).a.tolist() == expected
    assert Matrix(P5, np.array([[2**63, 2**64 - 1], [0, 1]], dtype=np.uint64)).a.tolist() == [
        [2**63 % 5, (2**64 - 1) % 5], [0, 1]]
    assert Matrix.from_rows(P5, rows).a.dtype == np.int64


def test_integer_arrays_skip_the_entry_check(spy):
    checked = spy(field_matrix, "_exact_int")
    assert Matrix(P5, np.array([[7, -1], [5, 12]])).a.tolist() == [[2, 4], [0, 2]]
    assert Matrix(P5, np.array([[7, 1], [5, 12]], dtype=np.uint16)).a.tolist() == [[2, 1], [0, 2]]
    assert Matrix(P5, np.eye(2, dtype=bool)).is_identity()
    key = SessionKey(random_nonsingular(SplitMix64(4), P251)[0])
    decrypt_block(key, encrypt_block(key, encode_block(b"tdpkex", P251)))
    assert checked == []


def test_diagonal_spec_refuses_eigenvalues_that_are_not_integers():
    # (1.5, 2) used to become (1, 2)
    for value in (1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"^eigenvalue {value!r} is not an integer$"):
            DiagonalSpec(P5, (value, 2))
    assert DiagonalSpec(P5, (2.0, np.int64(3))).eigenvalues == (2, 3)


def test_matrix_equality_requires_same_params():
    a = Matrix.identity(P5)
    b = Matrix.identity(FieldParams(p=7, d=2))
    assert a != b


# ---------------------------------------------------------------------------
# multiplication, determinant, inverse
# ---------------------------------------------------------------------------

def test_mat_mul_hand_example():
    a = Matrix.from_rows(P5, [[1, 2], [3, 4]])
    b = Matrix.from_rows(P5, [[2, 0], [1, 3]])
    assert mat_mul(a, b) == Matrix.from_rows(P5, [[4, 1], [0, 2]])


def test_mat_mul_identity():
    rs = SplitMix64(1)
    for _ in range(10):
        a = random_matrix(rs, P251)
        assert mat_mul(a, Matrix.identity(P251)) == a


def test_mat_mul_params_mismatch():
    with pytest.raises(ParamsMismatchError):
        mat_mul(Matrix.identity(P5), Matrix.identity(FieldParams(p=7, d=2)))


def test_det_multiplicative_against_cofactor_oracle():
    params = FieldParams(p=7, d=3)
    rs = SplitMix64(2)
    for _ in range(1000):
        a = random_matrix(rs, params)
        b = random_matrix(rs, params)
        da, db = mat_det(a), mat_det(b)
        assert da == det_cofactor(a.a.tolist(), 7)
        assert db == det_cofactor(b.a.tolist(), 7)
        assert mat_det(mat_mul(a, b)) == da * db % 7


def test_det_hand_values():
    assert mat_det(Matrix.from_rows(P5, [[2, 0], [0, 3]])) == 1  # 6 mod 5
    assert mat_det(Matrix.from_rows(P5, [[0, 0], [3, 1]])) == 0  # zero row
    assert mat_det(Matrix.identity(P251)) == 1


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3)])
def test_det_and_inverse_exhaustive(p, d):
    # the 512 F_2 3x3 matrices take up to two row swaps and hit pivotless
    # columns at every depth; the stacked reduction mixes all of them in one stack
    params = FieldParams(p=p, d=d)
    matrices, dets, inverses = [], [], []
    for entries in itertools.product(range(p), repeat=d * d):
        rows = [list(entries[i * d:(i + 1) * d]) for i in range(d)]
        m = Matrix.from_rows(params, rows)
        expected_det = det_cofactor(rows, p)
        assert mat_det(m) == expected_det
        expected_inv = inverse_adjugate(rows, p)
        if expected_inv is None:
            with pytest.raises(SingularMatrixError):
                mat_inverse(m)
        else:
            expected_inv = Matrix.from_rows(params, expected_inv)
            assert mat_inverse(m) == expected_inv
        matrices.append(m)
        dets.append(expected_det)
        inverses.append(expected_inv)
    stacked_inv, stacked_dets = field_matrix._invert(np.array([m.a for m in matrices]), p)
    assert stacked_dets == dets
    assert ((stacked_inv >= 0) & (stacked_inv < p)).all()
    assert [Matrix(params, x) if det else None for x, det in zip(stacked_inv, dets)] == inverses


def test_stacked_det_and_inverse_at_largest_prime():
    # entries up to 65520 test the bound that reduces the stack before every
    # column; repeated and zeroed rows put singular matrices in the stack,
    # and the reduction-gate stack appended after them zero pivots that
    # force row swaps
    params = FieldParams(p=65521, d=8)
    rs = SplitMix64(31)
    matrices = [random_matrix(rs, params) for _ in range(40)]
    for i in (3, 17):
        a = matrices[i].a.copy()
        a[5] = a[2]
        matrices[i] = Matrix(params, a)
    a = matrices[29].a.copy()
    a[:, 0] = 0
    matrices[29] = Matrix(params, a)
    matrices += [Matrix(params, a) for a in _gate_stack(params.p, params.d, seed=31)]
    inverses, dets = field_matrix._invert(np.array([m.a for m in matrices]), params.p)
    assert dets == [mat_det(m) for m in matrices]
    assert [i for i, det in enumerate(dets) if det == 0] == [3, 17, 29, 46, 50]
    assert ((inverses >= 0) & (inverses < params.p)).all()
    for m, inv, det in zip(matrices, inverses, dets):
        if det:
            assert Matrix(params, inv) == mat_inverse(m)
            assert mat_mul(m, Matrix(params, inv)).is_identity()


def _gate_stack(p, d, seed):
    """An (n, d, d) stack that crosses the kernel's reduction gate.

    For each column c it holds a matrix whose rows c and c + 1 agree, in
    their first c + 1 entries, with a combination of the rows above: after
    c columns of elimination its diagonal entry and the one below it are 0
    mod p, but need not be 0 on a column the kernel left unreduced, so the
    pivot search must skip both.  Three random matrices, and one whose last
    row combines the others (singular), complete it.
    """
    rng = np.random.default_rng(seed)
    out = []
    for c in range(d - 1):
        m = rng.integers(0, p, (d, d))
        for r in (c, c + 1):
            m[r, :c + 1] = rng.integers(0, p, c) @ m[:c, :c + 1] % p
        out.append(m)
    out += list(rng.integers(0, p, (3, d, d)))
    singular = rng.integers(0, p, (d, d))
    singular[-1] = rng.integers(0, p, d - 1) @ singular[:-1] % p
    return np.array(out + [singular], dtype=np.int64)


# inner size 2 at p = 65521, so k a_bound b_bound against 2^63: just below it,
# nothing is reduced; at 2^63 exactly, the operand with the larger bound is;
# at 2^95, reducing one operand still leaves 131040 * 2^47 > 2^63, so both are
_BELOW = (1 << 63) // (2 * 65520)


@pytest.mark.parametrize("a_bound,b_bound,reduced", [
    (_BELOW, 65520, ""),
    (1 << 32, 1 << 30, "a"),
    (1 << 30, 1 << 32, "b"),
    (1 << 47, 1 << 47, "ab"),
], ids=["none", "larger-a", "larger-b", "both"])
def test_product_reduces_only_where_2_63_demands(a_bound, b_bound, reduced):
    p = 65521
    rng = np.random.default_rng(a_bound % 997 + b_bound % 991)
    # one operand pair with every entry at its bound, then a random one
    a = np.array([np.full((3, 2), a_bound), rng.integers(0, a_bound + 1, (3, 2))])
    b = np.array([np.full((2, 4), b_bound), rng.integers(0, b_bound + 1, (2, 4))])
    got, bound = field_matrix._product(a, a_bound, b, b_bound, p)
    exact = a.astype(object) @ b.astype(object)
    assert (got % p).tolist() == (exact % p).tolist()
    used_a = a % p if "a" in reduced else a
    used_b = b % p if "b" in reduced else b
    assert got.tolist() == (used_a.astype(object) @ used_b.astype(object)).tolist()
    assert got.max() <= bound < 1 << 63


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("p", [3, 5, 251, 257, 65521])
def test_row_reduce_across_its_reduction_gate(p, d):
    # a column the kernel leaves unreduced (entries past p) is swapped and
    # searched on reduced values; every entry it returns, a singular
    # member's garbage included, is reduced, since _certify multiplies
    # supplied inverses in int64
    params = FieldParams(p=p, d=d)
    stack = _gate_stack(p, d, seed=p * d)
    rows = stack.tolist()
    dets = [det_cofactor(m, p) for m in rows]
    assert 0 in dets and any(dets)
    inverses, got = field_matrix._invert(stack, p)
    assert got == dets
    assert ((inverses >= 0) & (inverses < p)).all()
    for m, inv, det in zip(rows, inverses, dets):
        assert (inv.tolist() if det else None) == inverse_adjugate(m, p)
    assert [mat_det(Matrix(params, m)) for m in stack] == dets
    reduced = stack.copy()
    assert field_matrix._row_reduce(reduced, p) == dets
    assert ((reduced >= 0) & (reduced < p)).all()
    # with column 1 a multiple of column 0 in every matrix, no matrix has a
    # pivot after column 0, and the kernel returns early from column 1,
    # which it leaves unreduced at p < 65521
    stack[:, :, 1] = stack[:, :, 0] * np.arange(len(stack))[:, None] % p
    inverses, got = field_matrix._invert(stack, p)
    assert got == [0] * len(stack) == [det_cofactor(m, p) for m in stack.tolist()]
    assert ((inverses >= 0) & (inverses < p)).all()


@pytest.mark.parametrize("p", [2, 3, 251, 65521])
def test_pivot_inverse_table(p):
    table = field_matrix._inverse_table(p)
    assert table[0] == 0
    assert (table[1:] * np.arange(1, p) % p == 1).all()


def test_inverse_hand_examples():
    assert mat_inverse(Matrix.from_rows(P5, [[1, 1], [0, 1]])) == Matrix.from_rows(
        P5, [[1, 4], [0, 1]]
    )
    assert mat_inverse(Matrix.identity(P5)) == Matrix.identity(P5)
    with pytest.raises(SingularMatrixError):
        mat_inverse(Matrix.from_rows(P5, [[1, 1], [1, 1]]))


def test_inverse_roundtrip_random():
    rs = SplitMix64(3)
    ident = Matrix.identity(P251)
    for _ in range(200):
        m, _ = random_nonsingular(rs, P251)
        inv = mat_inverse(m)
        assert mat_mul(m, inv) == ident
        assert mat_mul(inv, m) == ident


def test_mat_pow():
    m = Matrix.from_rows(P5, [[2, 0], [0, 3]])
    assert mat_pow(m, 0) == Matrix.identity(P5)
    assert mat_pow(m, 4) == Matrix.from_rows(P5, [[1, 0], [0, 1]])
    assert mat_pow(m, 3) == Matrix.from_rows(P5, [[3, 0], [0, 2]])


# ---------------------------------------------------------------------------
# commutator and conjugation
# ---------------------------------------------------------------------------

def test_commutator_self_and_identity():
    rs = SplitMix64(4)
    for _ in range(10):
        a, _ = random_nonsingular(rs, P251)
        assert commutator(a, a).is_identity()
        assert commutator(a, Matrix.identity(P251)).is_identity()


def test_commutator_identity_iff_commuting():
    rs = SplitMix64(5)
    for _ in range(100):
        a, _ = random_nonsingular(rs, P5)
        b, _ = random_nonsingular(rs, P5)
        assert commutator(a, b).is_identity() == (mat_mul(a, b) == mat_mul(b, a))


def test_commutator_of_shared_basis_pair():
    basis = Matrix.from_rows(P5, [[1, 1], [0, 1]])
    x = conjugate(Matrix.from_rows(P5, [[2, 0], [0, 3]]), basis)
    y = conjugate(Matrix.from_rows(P5, [[4, 0], [0, 1]]), basis)
    assert commutator(x, y).is_identity()


def test_commutator_singular_input():
    singular = Matrix.from_rows(P5, [[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        commutator(singular, Matrix.identity(P5))


def test_conjugate_hand_examples():
    assert conjugate(Matrix.from_rows(P5, [[1, 2], [3, 4]]), Matrix.identity(P5)) == (
        Matrix.from_rows(P5, [[1, 2], [3, 4]])
    )
    diag = Matrix.from_rows(P5, [[2, 0], [0, 3]])
    c = Matrix.from_rows(P5, [[1, 1], [0, 1]])
    assert conjugate(diag, c) == Matrix.from_rows(P5, [[2, 4], [0, 3]])


def test_conjugate_preserves_similarity_invariants():
    rs = SplitMix64(6)
    for _ in range(100):
        m = random_matrix(rs, P251)
        c, _ = random_nonsingular(rs, P251)
        conj = conjugate(m, c)
        assert mat_trace(conj) == mat_trace(m)
        assert mat_det(conj) == mat_det(m)
        assert char_poly(conj) == char_poly(m)


def test_conjugate_by_singular_rejected():
    with pytest.raises(SingularMatrixError):
        conjugate(Matrix.identity(P5), Matrix.from_rows(P5, [[1, 1], [1, 1]]))


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

def test_random_nonsingular_accepts_first_invertible():
    m, rejections = random_nonsingular(StubSource([1, 0, 0, 1]), P5)
    assert m.is_identity()
    assert rejections == 0


def test_random_nonsingular_redraws_whole_matrix():
    m, rejections = random_nonsingular(StubSource([1, 1, 1, 1, 1, 0, 0, 1]), P5)
    assert m.is_identity()
    assert rejections == 1


def test_random_nonsingular_never_returns_singular():
    rs = SplitMix64(7)
    for _ in range(300):
        m, _ = random_nonsingular(rs, P5)
        assert mat_det(m) != 0


@pytest.mark.parametrize("p,d,n", [(251, 8, 30), (5, 2, 60), (3, 3, 60), (2, 3, 60)])
def test_nonsingular_segment_equals_sequential_draws(p, d, n):
    # the small fields reject about half their draws, so the segment takes
    # several redraw rounds
    params = FieldParams(p=p, d=d)
    seq_rs, batch_rs = SplitMix64(p * 100 + d), SplitMix64(p * 100 + d)
    expected, expected_rejections = [], 0
    for _ in range(n):
        m, rej = random_nonsingular(seq_rs, params)
        expected.append(m)
        expected_rejections += rej
    ((stack, inverses),), rejections = field_matrix.draw_segments(
        batch_rs, params, [field_matrix.NonsingularDraws(n)])
    matrices = [Matrix(params, m) for m in stack]
    assert matrices == expected
    assert [Matrix(params, x) for x in inverses] == [mat_inverse(m) for m in matrices]
    assert rejections == expected_rejections
    assert batch_rs.read(16) == seq_rs.read(16)
    if p < 251:
        assert rejections > 0


def _segments(p):
    return [
        field_matrix.NonsingularDraws(3),
        field_matrix.UniformDraws(1, p - 1, 6),
        field_matrix.NonsingularDraws(1),
        field_matrix.UniformDraws(0, p - 1, 5),
        field_matrix.NonsingularDraws(2),
    ]


def _draw_one_by_one(rs, params, segments):
    """Each segment in turn; each matrix d*d uniform values, redrawn while its cofactor determinant is 0."""
    p, d = params.p, params.d
    out, rejections = [], 0
    for seg in segments:
        if isinstance(seg, field_matrix.UniformDraws):
            out.append(field_matrix.uniform_array(rs, seg.lo, seg.hi, seg.count))
            continue
        matrices = []
        while len(matrices) < seg.n:
            m = field_matrix.uniform_array(rs, 0, p - 1, d * d).reshape(d, d)
            if det_cofactor(m.tolist(), p):
                matrices.append(m)
            else:
                rejections += 1
        out.append(np.array(matrices, dtype=np.int64).reshape(-1, d, d))
    return out, rejections


def _assert_draws_equal(params, drawn, expected):
    eye = np.eye(params.d, dtype=np.int64)
    for got, want in zip(drawn, expected, strict=True):
        if isinstance(got, tuple):
            matrices, inverses = got
            assert np.array_equal(matrices, want)
            assert (matrices @ inverses % params.p == eye).all()
        else:
            assert np.array_equal(got, want)


# p=251 seeds 5 and 1338 draw one and two singular candidates; the small
# fields reject about half their candidates, across several segments.  At
# p=257 the UniformDraws(1, p - 1, .) segments read one byte a value and the
# others two, and each seed draws one singular candidate
@pytest.mark.parametrize(
    "p,d,seed", [(251, 8, 5), (251, 8, 1338), (5, 2, 1), (5, 2, 2), (3, 3, 1), (3, 3, 2),
                 (257, 2, 63), (257, 3, 14)]
)
def test_draw_segments_equals_per_segment_sequential_draws(p, d, seed, row_reductions):
    params = FieldParams(p=p, d=d)
    seq_rs, batch_rs = SplitMix64(seed), SplitMix64(seed)
    expected, expected_rejections = _draw_one_by_one(seq_rs, params, _segments(p))
    row_reductions.clear()
    drawn, rejections = field_matrix.draw_segments(batch_rs, params, _segments(p))
    _assert_draws_equal(params, drawn, expected)
    assert rejections == expected_rejections > 0
    assert batch_rs.read(16) == seq_rs.read(16)
    # one kernel call for the first parse, one per re-parse round, and a
    # re-parse round happens only after a rejection
    assert 2 <= len(row_reductions) <= 1 + rejections


@pytest.mark.parametrize("p,d,seed", [(5, 2, 3), (3, 3, 1)])
def test_draw_segments_reads_exactly_the_sequential_bytes(p, d, seed, spy, row_reductions):
    # every byte is below p - 1, so both ranges accept it and the sequential
    # path reads one byte per value: a stub holding exactly those bytes must
    # serve the parse-ahead, whose push-backs never over-read.  With no value
    # rejected, each round, one kernel call, makes one read
    params = FieldParams(p=p, d=d)
    pool = bytes(b % (p - 1) for b in SplitMix64(seed).read(4096))
    expected, rejections = _draw_one_by_one(StubSource(pool), params, _segments(p))
    matrices = sum(len(v) for v in expected if v.ndim == 3) + rejections
    used = sum(v.size for v in expected if v.ndim == 1) + matrices * d * d
    stub = StubSource(pool[:used])
    reads = spy(stub, "read", lambda n: n)
    row_reductions.clear()
    drawn, batch_rejections = field_matrix.draw_segments(stub, params, _segments(p))
    _assert_draws_equal(params, drawn, expected)
    assert batch_rejections == rejections > 0
    assert len(reads) == len(row_reductions)
    with pytest.raises(RuntimeError, match="exhausted"):
        stub.read(1)


ND, UD = field_matrix.NonsingularDraws, field_matrix.UniformDraws


# paths of the one-scan-per-range parse: a range that rejects about half its
# values at width 1 and so tops the buffer up often; one-byte segments of odd
# length ahead of two-byte ones, so a two-byte scan starts at an odd offset;
# a one-point range and an empty segment between others; and small fields
# whose candidates take several rounds
@pytest.mark.parametrize("p,d,seed,segments,several_rounds", [
    (251, 2, 4, [UD(0, 128, 7), ND(2), UD(0, 128, 7), ND(1), UD(0, 128, 7)], False),
    (5, 2, 6, [ND(3), UD(0, 128, 7), ND(2), UD(0, 128, 7)], False),
    (257, 2, 8, [UD(1, 256, 3), ND(2), UD(1, 256, 5), UD(0, 256, 3), ND(1)], False),
    (65521, 2, 9, [UD(0, 200, 3), ND(2), UD(0, 128, 5), ND(1), UD(0, 200, 1)], False),
    (251, 3, 10, [ND(1), UD(5, 5, 3), ND(0), UD(1, 250, 4), ND(0), ND(2)], False),
    (3, 2, 11, [ND(4), UD(5, 5, 3), UD(0, 128, 7), ND(0), ND(5), UD(1, 2, 9)], True),
    (5, 3, 12, [ND(6), UD(1, 4, 5), ND(3)], True),
], ids=["reject-heavy", "reject-heavy-p5", "odd-offset-257", "odd-offset-65521", "empty",
        "p3-rounds", "p5-rounds"])
def test_draw_segments_scan_paths_equal_sequential_draws(p, d, seed, segments, several_rounds,
                                                         row_reductions):
    params = FieldParams(p=p, d=d)
    seq_rs, batch_rs = SplitMix64(seed), SplitMix64(seed)
    expected, expected_rejections = _draw_one_by_one(seq_rs, params, segments)
    row_reductions.clear()
    drawn, rejections = field_matrix.draw_segments(batch_rs, params, segments)
    _assert_draws_equal(params, drawn, expected)
    assert rejections == expected_rejections
    assert batch_rs.read(16) == seq_rs.read(16)
    assert len(row_reductions) <= 1 + rejections
    assert (len(row_reductions) > 1) == several_rounds


@pytest.mark.parametrize("segments,count", [([ND(-1)], -1), ([UD(0, 250, -40)], -40),
                                            ([ND(2), UD(1, 250, 3), ND(-3)], -3)])
def test_draw_segments_refuses_a_negative_count_before_reading(segments, count):
    rs, twin = SplitMix64(13), SplitMix64(13)
    rs.read(5), twin.read(5)
    with pytest.raises(ValueError, match=f"draw count {count} is negative"):
        field_matrix.draw_segments(rs, P251, segments)
    with pytest.raises(ValueError, match="draw count -2 is negative"):
        field_matrix.uniform_array(rs, 0, 250, -2)
    with pytest.raises(ValueError, match="cannot read -64 bytes"):
        rs.read(-64)
    assert rs.read(16) == twin.read(16)


def test_draw_segments_without_candidates_makes_no_kernel_call(row_reductions):
    drawn, rejections = field_matrix.draw_segments(
        SplitMix64(3), P5, [field_matrix.UniformDraws(1, 4, 3), field_matrix.NonsingularDraws(0)]
    )
    assert drawn[0].shape == (3,) and [m.shape for m in drawn[1]] == [(0, 2, 2), (0, 2, 2)]
    assert rejections == 0
    assert row_reductions == []


def test_random_diagonal_stub_passthrough():
    spec = random_diagonal(StubSource([1, 2]), P5)
    assert spec.eigenvalues == (2, 3)


def test_random_diagonal_never_zero():
    rs = SplitMix64(8)
    for _ in range(1000):
        spec = random_diagonal(rs, P5)
        assert all(1 <= v <= 4 for v in spec.eigenvalues)
