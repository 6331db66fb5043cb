import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from tdpkex import (
    FactorizationError,
    FieldParams,
    Matrix,
    MonicPoly,
    NotUnitOrderError,
    SplitMix64,
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
    random_matrix,
    singular_count,
    trial_division_factorization,
)
from tdpkex import field_matrix, poly_tools

import vectors
from oracles import (
    KERNEL_GRID,
    charpoly_berkowitz,
    charpoly_by_interpolation,
    count_irreducible_brute,
    det_by_elimination,
    det_cofactor,
    gl_order_brute,
    matrix_order_by_multiplication,
    poly_is_irreducible_by_division,
)


# ---------------------------------------------------------------------------
# counting formulas against enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,d,expected", [(2, 2, 6), (3, 2, 48)])
def test_gl_order_small_known(p, d, expected):
    assert gl_order(FieldParams(p=p, d=d)) == expected


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_gl_order_matches_enumeration(p, d):
    params = FieldParams(p=p, d=d)
    brute = gl_order_brute(d, p)
    assert gl_order(params) == brute
    assert singular_count(params) == matrix_space_size(params) - brute


def test_nilpotent_count_formula_and_brute():
    import itertools

    assert nilpotent_count(FieldParams(p=251, d=8)) == 251 ** 56
    for p in (2, 3):
        # for d = 2, nilpotent is exactly M^2 = 0
        brute = 0
        for entries in itertools.product(range(p), repeat=4):
            m = np.array(entries, dtype=np.int64).reshape(2, 2)
            if not (m @ m % p).any():
                brute += 1
        assert nilpotent_count(FieldParams(p=p, d=2)) == brute


def test_moebius_values():
    assert [moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_count_irreducible_matches_enumeration(p, d):
    assert count_irreducible(d, p) == count_irreducible_brute(d, p)


def test_count_irreducible_known_values():
    assert count_irreducible(2, 2) == 1
    assert count_irreducible(2, 3) == 3
    assert count_irreducible(8, 251) == (251 ** 8 - 251 ** 4) // 8


@pytest.mark.parametrize("p", [2, 3, 5])
def test_divisor_sum_identity(p):
    # sum over r | d of r * N_p(r) = p^d
    for d in range(1, 7):
        total = sum(r * count_irreducible(r, p) for r in range(1, d + 1) if d % r == 0)
        assert total == p ** d


def test_ntot_count():
    assert ntot_count(2, 3) == 7
    assert ntot_count(8, 251) == 251 ** 8 - 2
    assert ntot_count(1, 2) == 0


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def test_is_irreducible_known_cases():
    assert is_irreducible(MonicPoly(2, (1, 1)))          # x^2 + x + 1
    assert not is_irreducible(MonicPoly(2, (1, 0)))      # (x + 1)^2
    assert not is_irreducible(MonicPoly(3, (0, 0)))      # x^2
    assert is_irreducible(MonicPoly(3, (1, 0)))
    assert is_irreducible(MonicPoly(3, (2, 1)))
    assert is_irreducible(MonicPoly(3, (2, 2)))
    assert is_irreducible(MonicPoly(7, (3,)))            # degree 1 always


def test_monic_poly_keeps_exact_integer_coefficients():
    f = MonicPoly(5, (7.0, np.int64(-1)))
    assert f.coeffs == (2, 4) and all(type(c) is int for c in f.coeffs)


@pytest.mark.parametrize("coeffs", [
    pytest.param((2.7, 1), id="fraction"),  # was read as x^2 + x + 2
    pytest.param(("3", 1), id="string"),
    pytest.param((float("nan"), 1), id="nan"),
])
def test_monic_poly_refuses_coefficients_that_are_not_integers(coeffs):
    with pytest.raises(ValueError, match="coefficient .* is not an integer"):
        MonicPoly(5, coeffs)


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 6), (5, 2)])
def test_is_irreducible_matches_division_oracle(p, d):
    import itertools

    for coeffs in itertools.product(range(p), repeat=d):
        assert is_irreducible(MonicPoly(p, coeffs)) == poly_is_irreducible_by_division(
            list(coeffs), p
        )


def test_random_irreducible_contract():
    rs = SplitMix64(1)
    for _ in range(50):
        f, trials = random_irreducible(rs, 3, 7)
        assert is_irreducible(f)
        assert f.coeffs[0] != 0
        assert trials >= 1


def test_random_irreducible_uniform_over_the_three_quadratics():
    rs = SplitMix64(2)
    known = {(1, 0): 0, (2, 1): 0, (2, 2): 0}
    n = 10_000
    for _ in range(n):
        f, _ = random_irreducible(rs, 2, 3)
        known[f.coeffs] += 1
    sigma = (n * (1 / 3) * (2 / 3)) ** 0.5
    for count in known.values():
        assert abs(count - n / 3) <= 5 * sigma


def test_random_irreducible_trial_count_near_degree():
    rs = SplitMix64(3)
    trials = [random_irreducible(rs, 8, 251)[1] for _ in range(100)]
    assert 4 <= sum(trials) / len(trials) <= 16


# ---------------------------------------------------------------------------
# companion matrices and characteristic polynomials
# ---------------------------------------------------------------------------

def test_companion_matrix_hand_values():
    assert companion_matrix(MonicPoly(3, (1, 0))).a.tolist() == [[0, 2], [1, 0]]
    assert companion_matrix(MonicPoly(3, (2, 1))).a.tolist() == [[0, 1], [1, 2]]


def test_companion_matrix_charpoly_roundtrip():
    rs = SplitMix64(4)
    for d in (2, 3, 4):
        for _ in range(30):
            f, _ = random_irreducible(rs, d, 13)
            assert char_poly(companion_matrix(f)) == f


def test_companion_nonsingular_iff_nonzero_constant():
    from tdpkex import mat_det

    assert mat_det(companion_matrix(MonicPoly(5, (2, 1, 3)))) != 0
    assert mat_det(companion_matrix(MonicPoly(5, (0, 1, 3)))) == 0


@pytest.mark.parametrize("p,d,n", [(251, 8, 25), (5, 2, 50), (13, 3, 50), (7, 4, 30)])
def test_char_poly_matches_interpolation_oracle(p, d, n):
    params = FieldParams(p=p, d=d)
    rs = SplitMix64(5)
    for _ in range(n):
        m = random_matrix(rs, params)
        assert list(char_poly(m).coeffs) == charpoly_by_interpolation(m.a, p)


def _mixed_stack(rs, p, d):
    """Random, nilpotent, scalar, zero, all p - 1 and repeated matrices in one stack.

    The all p - 1 matrix has the largest unreduced sums ``char_poly_many`` can meet.
    """
    params = FieldParams(p=p, d=d)
    randoms = [random_matrix(rs, params).a for _ in range(6)]
    nilpotent = np.triu(random_matrix(rs, params).a, 1)
    scalar = (p - 1) * np.eye(d, dtype=np.int64)
    zero = np.zeros((d, d), dtype=np.int64)
    full = np.full((d, d), p - 1, dtype=np.int64)
    return np.stack(randoms + [nilpotent, scalar, zero, full, randoms[0], nilpotent])


# p <= d: too few distinct points to interpolate, Berkowitz needs no division;
# at d = 16 the interpolation oracle's cofactor determinants are too slow
@pytest.mark.parametrize("d,p", [(d, p) for d in (2, 3, 5, 8) for p in (2, 3, 5)] + [(16, 65521)])
def test_char_poly_many_matches_berkowitz_oracle_at_small_p(p, d):
    stack = _mixed_stack(SplitMix64(p * 10 + d), p, d)
    got = char_poly_many(stack, p)
    assert got.shape == (len(stack), d)
    assert got.tolist() == [charpoly_berkowitz(m, p) for m in stack]


# at d = 8 the primes on each side of every p where char_poly_many's 2^63
# bound moves a reduction: (37, 41), (83, 89), (251, 257), (1171, 1181) and
# (11579, 11587) in the products by A, (61, 67), (151, 157), (479, 487),
# (2383, 2389), (14461, 14479) and (24889, 24907) in the Toeplitz products
_SWITCH_PRIMES_D8 = [37, 41, 61, 67, 83, 89, 151, 157, 251, 257, 479, 487, 1171, 1181, 2383, 2389,
                     11579, 11587, 14461, 14479, 24889, 24907]


@pytest.mark.parametrize(
    "p,d", [(7, 2), (11, 5), (65521, 3)] + [(p, 8) for p in _SWITCH_PRIMES_D8 + [65521]]
)
def test_char_poly_many_matches_interpolation_oracle(p, d):
    stack = _mixed_stack(SplitMix64(p + d), p, d)
    assert char_poly_many(stack, p).tolist() == [charpoly_by_interpolation(m, p) for m in stack]


def test_char_poly_many_of_nilpotent_and_scalar():
    p, d = 13, 4
    nilpotent = np.triu(np.arange(1, d * d + 1).reshape(d, d), 1)
    scalar = 3 * np.eye(d, dtype=np.int64)
    # x^4 and (x - 3)^4 = x^4 - 12 x^3 + 54 x^2 - 108 x + 81
    assert char_poly_many(np.stack([nilpotent, scalar]), p).tolist() == [
        [0, 0, 0, 0],
        [81 % p, -108 % p, 54 % p, -12 % p],
    ]


def _stream_stack(seed, p, d, n):
    """n matrices filled from SplitMix64(seed) bytes (4 per entry, mod p); no library draw."""
    raw = np.frombuffer(SplitMix64(seed).read(4 * n * d * d), dtype="<u4").astype(np.int64)
    return raw.reshape(n, d, d) % p


def test_char_poly_many_outputs_match_the_recorded_pin():
    digest = hashlib.sha256()
    for p in (2, 3, 5, 251, 257, 65521):
        for d in (*range(1, 10), 12, 16):
            randoms = _stream_stack(p * 100 + d, p, d, 6)
            special = [np.triu(randoms[5], 1), (p - 1) * np.eye(d, dtype=np.int64),
                       np.zeros((d, d), dtype=np.int64), np.full((d, d), p - 1, dtype=np.int64)]
            stack = np.concatenate([randoms[:5], special])
            for start in range(0, len(stack), 3):
                polys = char_poly_many(stack[start:start + 3], p)
                digest.update(np.ascontiguousarray(polys, dtype="<i8").tobytes())
    assert digest.hexdigest() == vectors.CHARPOLY_OUTPUT_SHA256


def test_det_by_elimination_matches_cofactor_oracle():
    for p in (2, 3, 251):
        for d in range(1, 7):
            for m in _stream_stack(p + d, p, d, 4):
                assert det_by_elimination(m.tolist(), p) == det_cofactor(m.tolist(), p)


def _sweep_stack(seed, p, d, n):
    """n stream-filled matrices; from n = 2 the last is all p - 1, from n = 3 the second nilpotent."""
    stack = _stream_stack(seed, p, d, n)
    if n >= 2:
        stack[-1] = p - 1
    if n >= 3:
        stack[1] = np.triu(stack[1], 1)
    return stack


# every d, so that no size is skipped the way d = 7 was: numpy 2.4's strided
# np.negative(..., out=...) once wrote wrong diagonals there at n = 1 and 2
@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("d", range(1, 18))
def test_char_poly_many_every_d_matches_interpolation_oracle(d, n):
    stack = _sweep_stack(1000 + 10 * d + n, 251, d, n)
    got = char_poly_many(stack, 251)
    assert got.shape == (n, d)
    assert got.tolist() == [charpoly_by_interpolation(m, 251, det_by_elimination) for m in stack]


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("p,d", [(p, d) for p in (2, 3, 5) for d in (1, 4, 6, 7)])
def test_char_poly_many_small_p_matches_berkowitz_oracle(p, d, n):
    stack = _sweep_stack(2000 + 100 * p + 10 * d + n, p, d, n)
    assert char_poly_many(stack, p).tolist() == [charpoly_berkowitz(m, p) for m in stack]


def test_char_poly_at_d7_one_and_two_matrices():
    params = FieldParams(p=251, d=7)
    rs = SplitMix64(77)
    for _ in range(5):
        a, b = random_matrix(rs, params), random_matrix(rs, params)
        expected = [charpoly_by_interpolation(m.a, 251) for m in (a, b)]
        assert list(char_poly(a).coeffs) == expected[0]
        assert char_poly_many(a.a[None], 251).tolist() == expected[:1]
        assert char_poly_many(np.stack([a.a, b.a]), 251).tolist() == expected


def test_char_poly_many_of_a_stack_matches_each_matrix_alone():
    stack = _sweep_stack(3000, 251, 6, 5)
    whole = char_poly_many(stack, 251)
    assert np.array_equal(whole, np.concatenate([char_poly_many(m[None], 251) for m in stack]))


def test_char_poly_many_of_one_128_matrix_peaks_below_4_mib():
    # the Toeplitz matrices are a view of t; a gather of their (d-1)(d+1)d
    # entries once peaked at 48.4 MiB here
    stack = _sweep_stack(3001, 251, 128, 1)
    tracemalloc.start()
    try:
        char_poly_many(stack, 251)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("p,d", KERNEL_GRID)
def test_char_poly_many_over_the_kernel_grid(p, d):
    # a random matrix, then the all p - 1 one with the largest unreduced sums
    stack = _sweep_stack(4000 + p + d, p, d, 2)
    assert char_poly_many(stack, p).tolist() == [charpoly_berkowitz(m, p) for m in stack]


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3), (2, 0, 0), (3,), (1, 2, 2, 2)])
def test_char_poly_many_refuses_a_stack_that_is_not_n_d_d(shape):
    with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
        char_poly_many(np.zeros(shape, dtype=np.int64), 251)


@pytest.mark.parametrize("bad", [2.7, float("nan"), float("inf")])
def test_char_poly_many_refuses_entries_that_are_not_integers(bad):
    stack = np.zeros((2, 3, 3))
    stack[1, 2, 0] = bad
    with pytest.raises(ValueError, match="is not an integer"):
        char_poly_many(stack, 251)
    with pytest.raises(ValueError, match="is not an integer"):
        char_poly_many([[[1, 2], [3, bad]]], 251)


def test_char_poly_many_reads_exact_entries_as_matrix_does():
    # 2.0 is an integer; uint64 and Python ints past int64 are reduced mod p entry by entry
    big = 2 ** 64 - 1
    expected = char_poly_many(np.array([[[2, big % 251], [3, 4]]]), 251).tolist()
    assert char_poly_many(np.array([[[2.0, big], [3, 4]]], dtype=object), 251).tolist() == expected
    assert char_poly_many(np.array([[[2, big], [3, 4]]], dtype=np.uint64), 251).tolist() == expected
    assert char_poly_many([[[2, big], [3, 4]]], 251).tolist() == expected


@pytest.mark.parametrize("d", [1, 2, 8])
def test_char_poly_many_of_an_empty_stack(d):
    got = char_poly_many(np.zeros((0, d, d), dtype=np.int64), 251)
    assert got.shape == (0, d)


def test_char_poly_is_the_one_matrix_case():
    rs = SplitMix64(6)
    params = FieldParams(p=251, d=8)
    for _ in range(10):
        m = random_matrix(rs, params)
        assert list(char_poly(m).coeffs) == char_poly_many(m.a[None], 251)[0].tolist()


def test_char_poly_of_diagonal_has_eigenvalue_roots():
    params = FieldParams(p=11, d=3)
    m = Matrix.from_rows(params, [[2, 0, 0], [0, 5, 0], [0, 0, 7]])
    f = char_poly(m)
    for root in (2, 5, 7):
        value = (pow(root, 3, 11) + sum(c * pow(root, i, 11) for i, c in enumerate(f.coeffs))) % 11
        assert value == 0


# ---------------------------------------------------------------------------
# multiplicative orders
# ---------------------------------------------------------------------------

def test_element_order_known_companions():
    # x^2 + x + 2 over F_3 is primitive: order 8 = 3^2 - 1
    c = companion_matrix(MonicPoly(3, (2, 1)))
    assert element_order(c) == 8
    assert matrix_order_by_multiplication(c.a, 3, 10) == 8
    # x^2 + 1 over F_3: roots are 4th roots of unity
    c4 = companion_matrix(MonicPoly(3, (1, 0)))
    assert element_order(c4) == 4
    assert matrix_order_by_multiplication(c4.a, 3, 10) == 4


def test_element_order_identity():
    assert element_order(Matrix.identity(FieldParams(p=3, d=2))) == 1


def test_element_order_minimality_property():
    from tdpkex import mat_pow

    rs = SplitMix64(6)
    group_order = 5 ** 2 - 1
    for _ in range(20):
        f, _ = random_irreducible(rs, 2, 5)
        m = companion_matrix(f)
        order = element_order(m)
        assert group_order % order == 0
        assert mat_pow(m, order).is_identity()
        for q in (2, 3):
            if order % q == 0:
                assert not mat_pow(m, order // q).is_identity()


def test_element_order_rejects_non_unit_order():
    # unipotent matrix has order 3, which does not divide 3^2 - 1 = 8
    m = Matrix.from_rows(FieldParams(p=3, d=2), [[1, 1], [0, 1]])
    with pytest.raises(NotUnitOrderError):
        element_order(m)


def test_element_order_rejects_singular():
    m = Matrix.from_rows(FieldParams(p=3, d=2), [[1, 1], [1, 1]])
    with pytest.raises(NotUnitOrderError):
        element_order(m)


# ---------------------------------------------------------------------------
# factorization helper
# ---------------------------------------------------------------------------

def test_trial_division_factorization_reconstructs():
    import math

    for n in (2, 12, 97, 2 ** 16 - 1, 251 ** 4 - 1, 251 ** 8 - 1):
        factors = trial_division_factorization(n)
        assert math.prod(q ** e for q, e in factors) == n
        for q, _ in factors:
            assert all(q % f for f in range(2, min(q, 1000)) if f * f <= q)


def test_trial_division_budget(monkeypatch):
    # semiprime with two ~2^31 factors cannot be split in 1000 trials
    monkeypatch.setattr(field_matrix, "TRIAL_DIVISION_LIMIT", 1000)
    hard = 2147483647 * 2147483629
    with pytest.raises(FactorizationError):
        trial_division_factorization(hard)


def test_monic_poly_str():
    assert str(MonicPoly(3, (2, 1))) == "x^2 + x + 2"
    assert str(MonicPoly(5, (0, 0, 0))) == "x^3"
    assert str(MonicPoly(7, (3,))) == "x + 3"
