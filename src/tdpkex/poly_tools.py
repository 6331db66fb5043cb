"""Extension-field support: irreducible polynomials, companion matrices, counting.

Commutative matrix subgroups can be generated from the companion matrix of an
irreducible polynomial; this module provides that construction path plus the
exact cardinality formulas used to size groups and key spaces.  There is no
separate polynomial arithmetic: irreducibility is tested with matrix powers
and determinants of the companion matrix, on the field_matrix kernels.  All
counts are arbitrary-precision integers, never floats.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitOrderError
from .field_matrix import (
    FieldParams,
    Matrix,
    mat_det,
    mat_pow,
    trial_division_factorization,
    uniform_array,
)


@dataclass(frozen=True)
class MonicPoly:
    """Monic polynomial x^d + c_{d-1} x^{d-1} + ... + c_0 over F_p.

    ``coeffs`` stores (c_0, ..., c_{d-1}); the leading 1 is implicit.
    """

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) % self.p for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("degree must be >= 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        terms = [f"x^{self.degree}" if self.degree > 1 else "x"]
        for i in range(self.degree - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}x" if c > 1 else "x")
            else:
                terms.append(f"{c}x^{i}" if c > 1 else f"x^{i}")
        return " + ".join(terms)


def moebius(n: int) -> int:
    """Moebius function: 0 on squareful n, else (-1)^(number of prime factors)."""
    factors = trial_division_factorization(n)
    if any(e > 1 for _, e in factors):
        return 0
    return (-1) ** len(factors)


def matrix_space_size(params: FieldParams) -> int:
    """Number of all d x d matrices over F_p: p^(d^2)."""
    return params.p ** (params.d * params.d)


def gl_order(params: FieldParams) -> int:
    """Order of GL(d, F_p): product of (p^d - p^i) for i = 0 .. d-1."""
    p, d = params.p, params.d
    q = p ** d
    order = 1
    for i in range(d):
        order *= q - p ** i
    return order


def singular_count(params: FieldParams) -> int:
    """Number of singular d x d matrices over F_p (space size minus group order)."""
    return matrix_space_size(params) - gl_order(params)


def nilpotent_count(params: FieldParams) -> int:
    """Number of nilpotent d x d matrices over F_p: p^(d^2 - d)."""
    return params.p ** (params.d * params.d - params.d)


def count_irreducible(d: int, p: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_p.

    Exact Moebius sum (1/d) * sum over e | d of mu(e) * p^(d/e).  The
    frequently quoted shorthand (p^d - 2)/d is only an approximation; the sum
    here matches brute-force enumeration exactly.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    total = sum(moebius(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


def ntot_count(d: int, p: int) -> int:
    """Count of monic degree-d polynomials excluding two trivial ones: p^d - 2."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return p ** d - 2


def is_irreducible(f: MonicPoly) -> bool:
    """Deterministic irreducibility test over F_p (Rabin), on the companion matrix.

    f of degree n is irreducible iff x^(p^n) == x mod f and, for every prime
    t dividing n, gcd(x^(p^(n/t)) - x, f) = 1.  Both conditions are checked on
    the companion matrix C of f instead of on polynomials mod f: f is C's
    minimal polynomial, so g(C) = 0 iff f divides g, and g(C) is invertible
    iff gcd(g, f) = 1.  The test is therefore C^(p^n) == C and
    det(C^(p^(n/t)) - C) != 0 for every prime t | n.  p must be a prime
    accepted by FieldParams.
    """
    p, n = f.p, f.degree
    if n == 1:
        return True
    comp = companion_matrix(f)
    # frob[k] = C^(p^k), advanced one Frobenius power at a time
    frob = {}
    h = comp
    for k in range(1, n + 1):
        h = mat_pow(h, p)
        frob[k] = h
    if frob[n] != comp:
        return False
    for t, _ in trial_division_factorization(n):
        if mat_det(Matrix(comp.params, frob[n // t].a - comp.a)) == 0:
            return False
    return True


def random_irreducible(rs, d: int, p: int) -> tuple[MonicPoly, int]:
    """Draw monic degree-d polynomials until one is irreducible.

    Coefficients are uniform, except the constant term is kept nonzero so the
    companion matrix is always invertible (irreducible polynomials of degree
    >= 2 never have a zero constant term, so this skips only reducible draws).
    Returns the polynomial and the number of trials used; the expected trial
    count is about d.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    trials = 0
    while True:
        trials += 1
        c0 = int(uniform_array(rs, 1, p - 1, 1)[0])
        rest = [int(v) for v in uniform_array(rs, 0, p - 1, d - 1)] if d > 1 else []
        f = MonicPoly(p, tuple([c0] + rest))
        if is_irreducible(f):
            return f, trials


def companion_matrix(f: MonicPoly) -> Matrix:
    """Companion matrix of f: ones on the subdiagonal, last column -coeffs."""
    d = f.degree
    if d < 2:
        raise ValueError("companion matrix needs degree >= 2")
    params = FieldParams(p=f.p, d=d)
    m = np.zeros((d, d), dtype=np.int64)
    for i in range(1, d):
        m[i, i - 1] = 1
    for i in range(d):
        m[i, d - 1] = (-f.coeffs[i]) % f.p
    return Matrix(params, m)


def char_poly_many(stack: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomials det(xI - a) of an (n, d, d) stack, by division-free Berkowitz.

    Returns an (n, d) array whose row i holds c_0 .. c_{d-1} of stack[i]'s
    polynomial.  Works over F_p for every p (no divisions).  Berkowitz
    extends the polynomial of the leading i x i submatrix A_i to that of
    A_{i+1} through the Toeplitz vector t_i = (1, -a_ii, -r A_i^k c for
    k < i), with r and c the new row and column.  All of these come from
    d - 1 stacked products: column i of W holds A_i^k c (zero from row i
    down), so W <- (A W) masked to the strict upper triangle advances every
    i at once, and diag(A W) is r A_i^k c.  Then d - 1 stacked Toeplitz
    products fold the t_i into the coefficients.
    """
    stack = np.asarray(stack, dtype=np.int64) % p
    n, d, _ = stack.shape
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    # t[:, i] is t_i, padded with zeros to length d + 2; the last entry stays 0
    t = np.zeros((n, d, d + 2), dtype=np.int64)
    t[:, :, 0] = 1
    t[:, :, 1] = -np.diagonal(stack, axis1=1, axis2=2)
    w = stack * upper
    for k in range(d - 1):
        aw = stack @ w % p
        t[:, k + 1:, k + 2] = -np.diagonal(aw, axis1=1, axis2=2)[:, k + 1:]
        w = aw * upper
    t %= p
    # v holds the leading submatrix's coefficients, highest degree first; each
    # step multiplies it by the lower-triangular Toeplitz matrix of t_i
    v = t[:, 0, :2, None]
    for i, shift in enumerate(_toeplitz_indices(d), 1):
        v = t[:, i, shift] @ v % p
    return v[:, :0:-1, 0]


@functools.cache
def _toeplitz_indices(d: int) -> list[np.ndarray]:
    """For i in 1 .. d-1, the (i+2, i+1) indices into t_i of its lower-triangular Toeplitz matrix.

    Entry (m, j) is m - j on and below the diagonal and -1 above it, which
    picks t_i's always-zero last pad entry.
    """
    out = []
    for i in range(1, d):
        shift = np.arange(i + 2)[:, None] - np.arange(i + 1)
        idx = np.where(shift >= 0, shift, -1)
        idx.flags.writeable = False
        out.append(idx)
    return out


def char_poly(m: Matrix) -> MonicPoly:
    """Characteristic polynomial det(xI - m): the one-matrix case of ``char_poly_many``."""
    return MonicPoly(m.params.p, tuple(char_poly_many(m.a[None], m.params.p)[0].tolist()))


def element_order(m: Matrix, factorization: list[tuple[int, int]] | None = None) -> int:
    """Multiplicative order of m inside a cyclic subgroup of exponent p^d - 1.

    Starts from n = p^d - 1 and strips every prime q of the supplied
    factorization while m^(n/q) stays the identity.  The factorization of
    p^d - 1 may be passed in; by default it is obtained by trial division.

    Raises:
        NotUnitOrderError: m^(p^d - 1) is not the identity, i.e. m does not
            live in such a subgroup (typical for matrices not generated by an
            irreducible companion matrix).
    """
    if mat_det(m) == 0:
        raise NotUnitOrderError("singular matrix has no multiplicative order")
    p, d = m.params.p, m.params.d
    n = p ** d - 1
    if factorization is None:
        factorization = trial_division_factorization(n)
    if not mat_pow(m, n).is_identity():
        raise NotUnitOrderError(f"matrix order does not divide p^d - 1 = {n}")
    order = n
    for q, _ in factorization:
        while order % q == 0 and mat_pow(m, order // q).is_identity():
            order //= q
    return order
