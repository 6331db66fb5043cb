import itertools

import numpy as np
import pytest

from tdpkex import (
    DiagonalSpec,
    FieldParams,
    Matrix,
    ParamsMismatchError,
    SingularMatrixError,
    SplitMix64,
    commutator,
    commuting_from_basis,
    mat_det,
    mat_inverse,
    mat_mul,
    random_diagonal,
    random_nonsingular,
)
from tdpkex.commuting import family_member

P5 = FieldParams(p=5, d=2)
P251 = FieldParams()


def test_identity_basis_gives_plain_diagonal():
    spec = DiagonalSpec(P5, (2, 3))
    assert commuting_from_basis(Matrix.identity(P5), spec) == Matrix.from_rows(
        P5, [[2, 0], [0, 3]]
    )


def test_hand_example():
    basis = Matrix.from_rows(P5, [[1, 1], [0, 1]])
    assert commuting_from_basis(basis, DiagonalSpec(P5, (2, 3))) == Matrix.from_rows(
        P5, [[2, 4], [0, 3]]
    )


def test_determinant_is_product_of_eigenvalues():
    rs = SplitMix64(1)
    for _ in range(100):
        basis, _ = random_nonsingular(rs, P251)
        spec = random_diagonal(rs, P251)
        m = commuting_from_basis(basis, spec)
        expected = 1
        for v in spec.eigenvalues:
            expected = expected * v % 251
        assert mat_det(m) == expected


def test_singular_basis_rejected():
    with pytest.raises(SingularMatrixError):
        commuting_from_basis(Matrix.from_rows(P5, [[1, 1], [1, 1]]), DiagonalSpec(P5, (2, 3)))


def test_mixed_parameters_rejected():
    # a ValueError subclass, like every other mixed-parameter refusal
    with pytest.raises(ParamsMismatchError, match="basis and spec parameters differ"):
        commuting_from_basis(Matrix.identity(P5), DiagonalSpec(FieldParams(p=7, d=2), (2, 3)))


def test_known_commuting_pair_products():
    basis = Matrix.from_rows(P5, [[1, 1], [0, 1]])
    a = commuting_from_basis(basis, DiagonalSpec(P5, (2, 3)))
    b = commuting_from_basis(basis, DiagonalSpec(P5, (4, 1)))
    assert a == Matrix.from_rows(P5, [[2, 4], [0, 3]])
    assert b == Matrix.from_rows(P5, [[4, 3], [0, 1]])
    # both orderings multiply to the same scalar matrix
    assert mat_mul(a, b) == Matrix.from_rows(P5, [[3, 0], [0, 3]])
    assert mat_mul(b, a) == Matrix.from_rows(P5, [[3, 0], [0, 3]])
    assert commutator(a, b).is_identity()


def test_shared_basis_members_always_commute():
    rs = SplitMix64(2)
    for _ in range(1000):
        basis, _ = random_nonsingular(rs, P251)
        m1 = commuting_from_basis(basis, random_diagonal(rs, P251))
        m2 = commuting_from_basis(basis, random_diagonal(rs, P251))
        assert commutator(m1, m2).is_identity()


def test_independent_random_matrices_do_not_commute():
    rs = SplitMix64(3)
    for _ in range(100):
        a, _ = random_nonsingular(rs, P251)
        b, _ = random_nonsingular(rs, P251)
        assert mat_mul(a, b) != mat_mul(b, a)


def test_all_ones_spec_gives_identity():
    rs = SplitMix64(4)
    basis, _ = random_nonsingular(rs, P251)
    assert commuting_from_basis(basis, DiagonalSpec(P251, (1,) * 8)).is_identity()


def test_family_is_pairwise_commuting():
    rs = SplitMix64(5)
    basis, _ = random_nonsingular(rs, P251)
    specs = [random_diagonal(rs, P251) for _ in range(4)]
    members = [commuting_from_basis(basis, s) for s in specs]
    for a, b in itertools.combinations(members, 2):
        assert mat_mul(a, b) == mat_mul(b, a)
    assert all(mat_det(m) != 0 for m in members)
    # one stacked call, over one basis or a stack of it, gives every member at once
    b, b_inv = basis.a, mat_inverse(basis).a
    eigenvalues = [s.eigenvalues for s in specs]
    per_member = [Matrix(P251, family_member(b, b_inv, e, 251)) for e in eigenvalues]
    for stacked in (
        family_member(b, b_inv, eigenvalues, 251),
        family_member(np.stack([b] * 4), np.stack([b_inv] * 4), eigenvalues, 251),
    ):
        assert [Matrix(P251, m) for m in stacked] == per_member == members


# d(p-1)^3, the bound on family_member's sums when the scaled inverse is not
# reduced, passes 2^63 at d = 8 where p - 1 passes 2^20: p = 1048573 lies
# below that switch and 1048583 above it (both past FieldParams' cap)
@pytest.mark.parametrize("p,d", [(65521, 8), (65521, 16), (1048573, 8), (1048583, 8)])
def test_family_member_matches_exact_products_at_the_bound(p, d):
    rng = np.random.default_rng(d)
    # the worst case, every entry p - 1, then random operands
    basis = np.concatenate([np.full((1, d, d), p - 1), rng.integers(0, p, (3, d, d))])
    basis_inv = np.concatenate([np.full((1, d, d), p - 1), rng.integers(0, p, (3, d, d))])
    eigenvalues = np.concatenate([np.full((1, d), p - 1), rng.integers(1, p, (3, d))])
    expected = [
        (b_inv.astype(object) * e.astype(object)) @ b.astype(object) % p
        for b, b_inv, e in zip(basis, basis_inv, eigenvalues)
    ]
    assert family_member(basis, basis_inv, eigenvalues, p).tolist() == [m.tolist() for m in expected]
