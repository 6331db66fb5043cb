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

from oracles import (
    charpoly_berkowitz,
    charpoly_by_interpolation,
    count_irreducible_brute,
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
    """Random, nilpotent, scalar, zero and repeated matrices in one stack."""
    params = FieldParams(p=p, d=d)
    randoms = [random_matrix(rs, params).a for _ in range(6)]
    nilpotent = np.triu(random_matrix(rs, params).a, 1)
    scalar = (p - 1) * np.eye(d, dtype=np.int64)
    zero = np.zeros((d, d), dtype=np.int64)
    return np.stack(randoms + [nilpotent, scalar, zero, randoms[0], nilpotent])


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_char_poly_many_matches_berkowitz_oracle_at_small_p(p, d):
    # p <= d: too few distinct points to interpolate, Berkowitz needs no division
    stack = _mixed_stack(SplitMix64(p * 10 + d), p, d)
    got = char_poly_many(stack, p)
    assert got.shape == (len(stack), d)
    assert got.tolist() == [charpoly_berkowitz(m, p) for m in stack]


@pytest.mark.parametrize("p,d", [(7, 2), (11, 5), (251, 8), (65521, 3)])
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


def test_trial_division_budget():
    # semiprime with two ~2^31 factors cannot be split in 1000 trials
    hard = 2147483647 * 2147483629
    with pytest.raises(FactorizationError):
        trial_division_factorization(hard, max_trials=1000)


def test_monic_poly_str():
    assert str(MonicPoly(3, (2, 1))) == "x^2 + x + 2"
    assert str(MonicPoly(5, (0, 0, 0))) == "x^3"
    assert str(MonicPoly(7, (3,))) == "x + 3"
