"""Commuting matrix families built from a shared similarity basis.

Conjugating diagonal matrices by one fixed invertible basis C yields a family
of pairwise-commuting invertible matrices: (C^-1 D1 C)(C^-1 D2 C) equals
C^-1 D1 D2 C regardless of the diagonals.  This is the fast construction the
key-agreement layer uses for its commutative subgroups.
"""

from __future__ import annotations

import numpy as np

from .errors import ParamsMismatchError
from .field_matrix import DiagonalSpec, Matrix, _product, mat_inverse


def family_member(basis: np.ndarray, basis_inv: np.ndarray, eigenvalues, p: int) -> np.ndarray:
    """basis^-1 diag(eigenvalues) basis mod p from a known basis^-1: no elimination.

    Broadcasts over leading axes, so (k, d, d) bases or (k, d) eigenvalue
    lists give k members in one call.  Scaling the columns of basis^-1 is the
    product with the diagonal; a member's inverse is this call on the
    eigenvalues' inverses mod p.  Every entry must be in [0, p).
    """
    scaled = basis_inv * np.asarray(eigenvalues, dtype=np.int64)[..., None, :]
    return _product(scaled, (p - 1) ** 2, basis, p - 1, p)[0] % p


def commuting_from_basis(basis: Matrix, spec: DiagonalSpec) -> Matrix:
    """basis^-1 diag(spec) basis; invertible, eigenvalues are exactly spec."""
    if basis.params != spec.params:
        raise ParamsMismatchError("basis and spec parameters differ")
    basis_inv = mat_inverse(basis)
    return Matrix(basis.params, family_member(basis.a, basis_inv.a, spec.eigenvalues, basis.params.p))
