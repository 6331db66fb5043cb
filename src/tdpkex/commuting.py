"""Commuting matrix families built from a shared similarity basis.

Conjugating diagonal matrices by one fixed invertible basis C yields a family
of pairwise-commuting invertible matrices: (C^-1 D1 C)(C^-1 D2 C) equals
C^-1 D1 D2 C regardless of the diagonals.  This is the fast construction the
key-agreement layer uses for its commutative subgroups.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .field_matrix import DiagonalSpec, Matrix, mat_inverse


def family_member(basis: Matrix, basis_inv: Matrix, eigenvalues: Sequence[int]) -> Matrix:
    """basis^-1 diag(eigenvalues) basis from a known basis^-1: one matmul, no elimination.

    Scaling the columns of basis^-1 by the eigenvalues is the product with
    the diagonal.  The member's inverse is this call on the eigenvalues'
    inverses mod p.
    """
    scaled = basis_inv.a * np.asarray(eigenvalues, dtype=np.int64) % basis.params.p
    return Matrix(basis.params, scaled @ basis.a)


def commuting_from_basis(basis: Matrix, spec: DiagonalSpec) -> Matrix:
    """basis^-1 diag(spec) basis; invertible, eigenvalues are exactly spec."""
    if basis.params != spec.params:
        raise ValueError("basis and spec parameters differ")
    return family_member(basis, mat_inverse(basis), spec.eigenvalues)
