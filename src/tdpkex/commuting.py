"""Commuting matrix families built from a shared similarity basis.

Conjugating diagonal matrices by one fixed invertible basis C yields a family
of pairwise-commuting invertible matrices: (C^-1 D1 C)(C^-1 D2 C) equals
C^-1 D1 D2 C regardless of the diagonals.  This is the fast construction the
key-agreement layer uses for its commutative subgroups.
"""

from __future__ import annotations

import numpy as np

from .errors import ParamsMismatchError
from .field_matrix import DiagonalSpec, Matrix, mat_inverse


def family_member(basis: np.ndarray, basis_inv: np.ndarray, eigenvalues, p: int) -> np.ndarray:
    """basis^-1 diag(eigenvalues) basis mod p from a known basis^-1: no elimination.

    Broadcasts over leading axes, so (k, d, d) bases or (k, d) eigenvalue
    lists give k members in one call.  Scaling the columns of basis^-1 is the
    product with the diagonal; a member's inverse is this call on the
    eigenvalues' inverses mod p.  With every entry in [0, p), the scaled
    inverse is reduced mod p only when d(p-1)^3, the bound on the product's
    int64 sums if it is not, reaches 2^63: never below d = 32,793 at
    p = 65521, where one d x d int64 matrix takes 8.6 GB (the delayed
    reduction of Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 35(3),
    2008, as in ``cipher``).
    """
    scaled = basis_inv * np.asarray(eigenvalues, dtype=np.int64)[..., None, :]
    if basis.shape[-1] * (p - 1) ** 3 >= 1 << 63:
        scaled %= p
    return scaled @ basis % p


def commuting_from_basis(basis: Matrix, spec: DiagonalSpec) -> Matrix:
    """basis^-1 diag(spec) basis; invertible, eigenvalues are exactly spec."""
    if basis.params != spec.params:
        raise ParamsMismatchError("basis and spec parameters differ")
    basis_inv = mat_inverse(basis)
    return Matrix(basis.params, family_member(basis.a, basis_inv.a, spec.eigenvalues, basis.params.p))
