"""Two-party key agreement via triple decomposition over GL(d, F_p).

The public setup is four independent random invertible bases P, Q, R, S.
Each basis carries one commuting family (conjugated diagonals); the families
are assigned so that exactly the cross-party pairs that must commute do:

    Alice                      Bob              shared basis
    a2 (families of P)   <->   y1               P
    a3 (families of Q)   <->   y2               Q
    x1 (families of R)   <->   b1               R
    x2 (families of S)   <->   b2               S

a1 and b3 are free draws from the whole group.  Alice publishes
(u, v, w) = (a1 x1, x1^-1 a2 x2, x2^-1 a3); Bob publishes
(p, q, r) = (b1 y1, y1^-1 b2 y2, y2^-1 b3).  Both sides then collapse the
other's token with their own commuting factors to the same product
a1 b1 a2 b2 a3 b3, which is the session key.  Keygen, token and key
derivation are one algorithm for both parties; ROLE_LAYOUT says which of a
party's factors plays which part.

All protocol objects are immutable; sessions on distinct random sources may
run concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .commuting import family_member
from .errors import ParamsMismatchError, SingularMatrixError
from .field_matrix import (
    DiagonalSpec,
    FieldParams,
    Matrix,
    _random_nonsingular_with_inverses,
    mat_inverse,
    mat_inverse_many,
    mat_mul,
    uniform_array,
)


class Role(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


def _require_protocol_params(params: FieldParams) -> None:
    if params.p < 3:
        raise ValueError("key agreement needs p > 2 (nonzero eigenvalue choices)")


def _product(*ms: Matrix) -> Matrix:
    out = ms[0]
    for m in ms[1:]:
        out = mat_mul(out, m)
    return out


def _inverse_or_none(m: Matrix) -> Matrix | None:
    try:
        return mat_inverse(m)
    except SingularMatrixError:
        return None


def _checked_inverses(ms: Sequence[Matrix], invs: Sequence[Matrix]) -> list[Matrix | None]:
    """Each supplied inverse x where m x == I mod p, else None, from one stacked matmul.

    m x == I proves m invertible with inverse x, so a supplied inverse is a
    certificate, not something taken on trust.
    """
    params = ms[0].params
    if any(x.params != params for x in invs):
        raise ParamsMismatchError("supplied inverse has foreign parameters")
    prod = np.stack([m.a for m in ms]) @ np.stack([x.a for x in invs]) % params.p
    ok = (prod == np.eye(params.d, dtype=np.int64)).all(axis=(1, 2))
    return [x if good else None for x, good in zip(invs, ok.tolist())]


_BASES = ("P", "Q", "R", "S")


@dataclass(frozen=True)
class PublicSetup:
    """The four public eigenvector bases; all invertible, all same params.

    basis_inv maps each basis name to its inverse, so every family member and
    member inverse is one matmul (see ``member``).  A caller that already
    holds the inverses, as the setup draw does, passes them in and the
    constructor checks all four with one stacked matmul; otherwise it
    inverts the four bases with one stacked reduction.
    """

    params: FieldParams
    P: Matrix
    Q: Matrix
    R: Matrix
    S: Matrix
    basis_inv: dict[str, Matrix] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_protocol_params(self.params)
        bases = [getattr(self, name) for name in _BASES]
        for name, m in zip(_BASES, bases):
            if m.params != self.params:
                raise ParamsMismatchError(f"basis {name} has foreign parameters")
        if self.basis_inv is None:
            inverses = mat_inverse_many(bases)
        else:
            inverses = _checked_inverses(bases, [self.basis_inv[name] for name in _BASES])
        for name, inv in zip(_BASES, inverses):
            if inv is None:
                raise SingularMatrixError(f"basis {name} is singular")
        object.__setattr__(self, "basis_inv", dict(zip(_BASES, inverses)))

    def member(self, basis_name: str, eigenvalues: Sequence[int]) -> Matrix:
        """basis^-1 diag(eigenvalues) basis for the named basis, with no elimination."""
        return family_member(getattr(self, basis_name), self.basis_inv[basis_name], eigenvalues)


@dataclass(frozen=True)
class _Private:
    """Shared checks of a party's secret material; the layout comes from ROLE_LAYOUT.

    free_inv is the free factor's inverse: checked with one matmul when the
    caller supplies it (keygen's draw computed it), else computed here.
    """

    role: ClassVar[Role]
    setup: PublicSetup
    free_inv: Matrix | None = field(default=None, kw_only=True, compare=False, repr=False)

    def __post_init__(self):
        layout = ROLE_LAYOUT[self.role]
        params = self.setup.params
        names = [name for name, _ in layout.families]
        derived = [getattr(self, name) for name in names]
        specs = [getattr(self, "d_" + name) for name in names]
        for name, m, spec in zip(names, derived, specs):
            if m.params != params or spec.params != params:
                raise ParamsMismatchError(f"{name} has foreign parameters")
        b = np.stack([getattr(self.setup, basis_name).a for _, basis_name in layout.families])
        f = np.stack([m.a for m in derived])
        eigenvalues = np.array([spec.eigenvalues for spec in specs])
        # B F == diag(eigenvalues) B for all four families at once: F == B^-1 diag B,
        # tested inversion-free
        if not np.array_equal(b @ f % params.p, eigenvalues[:, :, None] * b % params.p):
            raise ValueError("derived matrix does not match its basis and eigenvalues")
        free = getattr(self, layout.free)
        if self.free_inv is None:
            free_inv = _inverse_or_none(free)
        else:
            (free_inv,) = _checked_inverses([free], [self.free_inv])
        if free_inv is None:
            raise SingularMatrixError(f"{layout.free} is singular")
        object.__setattr__(self, "free_inv", free_inv)


@dataclass(frozen=True)
class AlicePrivate(_Private):
    """Alice's secret material: four eigenvalue lists, one free matrix, derived factors."""

    role = Role.ALICE
    d_a2: DiagonalSpec
    d_a3: DiagonalSpec
    d_x1: DiagonalSpec
    d_x2: DiagonalSpec
    a1: Matrix
    a2: Matrix
    a3: Matrix
    x1: Matrix
    x2: Matrix


@dataclass(frozen=True)
class BobPrivate(_Private):
    """Bob's secret material; mirror image of Alice's with bases swapped."""

    role = Role.BOB
    d_b1: DiagonalSpec
    d_b2: DiagonalSpec
    d_y1: DiagonalSpec
    d_y2: DiagonalSpec
    b1: Matrix
    b2: Matrix
    b3: Matrix
    y1: Matrix
    y2: Matrix


@dataclass(frozen=True)
class RoleLayout:
    """Where one party's factors come from and how its private record is ordered.

    ``families`` pairs each basis-derived factor with the basis that conjugates
    its eigenvalue list ``d_<factor>``, in record order.  ``key`` holds the
    three factors (f1, f2, f3) that enter the session key, ``hide`` the two
    (h1, h2) that mask them in the token (f1 h1, h1^-1 f2 h2, h2^-1 f3), and
    ``free`` names the factor drawn from the whole group.  The record stores
    the eigenvalue lists in ``families`` order, then ``key`` and ``hide``.
    """

    private: type
    families: tuple[tuple[str, str], ...]
    key: tuple[str, str, str]
    hide: tuple[str, str]
    free: str

    def specs(self, priv: _Private) -> list[DiagonalSpec]:
        return [getattr(priv, "d_" + name) for name, _ in self.families]

    def matrices(self, priv: _Private) -> list[Matrix]:
        return [getattr(priv, name) for name in self.key + self.hide]

    def hide_inverses(self, priv: _Private) -> list[Matrix]:
        """h1^-1, h2^-1 from the inverted eigenvalues; exact because _Private checked each h."""
        p, basis = priv.setup.params.p, dict(self.families)
        out = []
        for h in self.hide:
            inverted = [pow(v, -1, p) for v in getattr(priv, "d_" + h).eigenvalues]
            out.append(priv.setup.member(basis[h], inverted))
        return out


ROLE_LAYOUT = {
    Role.ALICE: RoleLayout(
        AlicePrivate,
        families=(("a2", "P"), ("a3", "Q"), ("x1", "R"), ("x2", "S")),
        key=("a1", "a2", "a3"),
        hide=("x1", "x2"),
        free="a1",
    ),
    Role.BOB: RoleLayout(
        BobPrivate,
        families=(("b1", "R"), ("b2", "S"), ("y1", "P"), ("y2", "Q")),
        key=("b1", "b2", "b3"),
        hide=("y1", "y2"),
        free="b3",
    ),
}


@dataclass(frozen=True)
class PublicToken:
    """The published triple: (u, v, w) from Alice or (p, q, r) from Bob."""

    role: Role
    t1: Matrix
    t2: Matrix
    t3: Matrix

    @property
    def params(self) -> FieldParams:
        return self.t1.params

    def __post_init__(self):
        if not (self.t1.params == self.t2.params == self.t3.params):
            raise ParamsMismatchError("token matrices have mixed parameters")


@dataclass(frozen=True)
class SessionKey:
    """The agreed key matrix; invertible because all six factors are.

    k_inv is held here, so the cipher conjugates every block with no further
    elimination.  A supplied k_inv is checked with one matmul (``run_session``
    inverts both parties' keys in one stacked call); without one it is
    computed here.
    """

    k: Matrix
    k_inv: Matrix | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.k_inv is None:
            k_inv = _inverse_or_none(self.k)
        else:
            (k_inv,) = _checked_inverses([self.k], [self.k_inv])
        if k_inv is None:
            raise SingularMatrixError("session key is singular")
        object.__setattr__(self, "k_inv", k_inv)


def gen_setup(rs, params: FieldParams) -> PublicSetup:
    """Draw the four public bases P, Q, R, S independently from GL(d, F_p)."""
    setup, _ = _gen_setup_counted(rs, params)
    return setup


def _gen_setup_counted(rs, params: FieldParams) -> tuple[PublicSetup, int]:
    bases, inverses, redraws = _random_nonsingular_with_inverses(rs, params, 4)
    return PublicSetup(params, *bases, basis_inv=dict(zip(_BASES, inverses))), redraws


def _keygen(rs, setup: PublicSetup, role: Role) -> tuple[_Private, int]:
    """Draw the four eigenvalue lists in record order, then the free factor.

    The lists are one ``uniform_array`` call, the same bytes as one
    ``random_diagonal`` per list, and the four family members are one
    broadcast product basis^-1 diag basis.
    """
    layout = ROLE_LAYOUT[role]
    params = setup.params
    p, d = params.p, params.d
    eigenvalues = uniform_array(rs, 1, p - 1, len(layout.families) * d).reshape(-1, d)
    specs = [DiagonalSpec(params, row) for row in eigenvalues.tolist()]
    (free,), (free_inv,), redraws = _random_nonsingular_with_inverses(rs, params, 1)
    b = np.stack([getattr(setup, basis_name).a for _, basis_name in layout.families])
    b_inv = np.stack([setup.basis_inv[basis_name].a for _, basis_name in layout.families])
    members = (b_inv * eigenvalues[:, None, :] % p) @ b
    factors = {name: Matrix(params, m) for (name, _), m in zip(layout.families, members)}
    factors[layout.free] = free
    return layout.private(setup, *specs, **factors, free_inv=free_inv), redraws


def _token(priv: _Private) -> PublicToken:
    layout = ROLE_LAYOUT[priv.role]
    f1, f2, f3, h1, h2 = layout.matrices(priv)
    h1_inv, h2_inv = layout.hide_inverses(priv)
    t1 = mat_mul(f1, h1)
    t2 = _product(h1_inv, f2, h2)
    t3 = mat_mul(h2_inv, f3)
    return PublicToken(priv.role, t1, t2, t3)


def _key_product(priv: _Private, token: PublicToken) -> Matrix:
    if token.role is priv.role:
        raise ValueError(f"{priv.role.value} needs the peer's token, not a {token.role.value} token")
    if token.params != priv.setup.params:
        raise ParamsMismatchError("token parameters differ from private key")
    own = [getattr(priv, name) for name in ROLE_LAYOUT[priv.role].key]
    peer = [token.t1, token.t2, token.t3]
    # K = a1 b1 a2 b2 a3 b3: Alice's factors always sit on the left of Bob's
    left, right = (own, peer) if priv.role is Role.ALICE else (peer, own)
    return _product(*(m for pair in zip(left, right) for m in pair))


def _shared(priv: _Private, token: PublicToken) -> SessionKey:
    return SessionKey(_key_product(priv, token))


def alice_keygen(rs, setup: PublicSetup) -> AlicePrivate:
    """Draw Alice's eigenvalue lists and free factor, derive a2, a3, x1, x2."""
    return _keygen(rs, setup, Role.ALICE)[0]


def bob_keygen(rs, setup: PublicSetup) -> BobPrivate:
    """Draw Bob's eigenvalue lists and free factor, derive b1, b2, y1, y2."""
    return _keygen(rs, setup, Role.BOB)[0]


def alice_token(priv: AlicePrivate) -> PublicToken:
    """u = a1 x1, v = x1^-1 a2 x2, w = x2^-1 a3."""
    return _token(priv)


def bob_token(priv: BobPrivate) -> PublicToken:
    """p = b1 y1, q = y1^-1 b2 y2, r = y2^-1 b3."""
    return _token(priv)


def alice_shared(priv: AlicePrivate, token: PublicToken) -> SessionKey:
    """K = a1 p a2 q a3 r, which telescopes to a1 b1 a2 b2 a3 b3."""
    return _shared(priv, token)


def bob_shared(priv: BobPrivate, token: PublicToken) -> SessionKey:
    """K = u b1 v b2 w b3, which telescopes to a1 b1 a2 b2 a3 b3."""
    return _shared(priv, token)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    commutator: Matrix


@dataclass(frozen=True)
class ValidationReport:
    """Result of the session health checks.

    ``required`` lists the cross-party commutation conditions the key
    agreement depends on (must all hold).  ``pitfalls`` lists commutators
    that must NOT be the identity; if any of them is, the private material is
    degenerate enough that the session key leaks from public data, so the
    session is flagged weak.  Advisory only: callers decide whether to abort.
    """

    required: dict[str, CheckResult]
    pitfalls: dict[str, CheckResult]

    @property
    def all_required_pass(self) -> bool:
        return all(r.passed for r in self.required.values())

    @property
    def weak(self) -> bool:
        return any(not r.passed for r in self.pitfalls.values())

    @property
    def ok(self) -> bool:
        return self.all_required_pass and not self.weak


def validate_session(setup: PublicSetup, alice: AlicePrivate, bob: BobPrivate) -> ValidationReport:
    """Check required commutation conditions and degenerate-commutation pitfalls."""
    if alice.setup != setup or bob.setup != setup:
        raise ParamsMismatchError("private keys built on a different setup")
    required_pairs = {
        "[a2,y1]": (alice.a2, bob.y1),
        "[a3,y2]": (alice.a3, bob.y2),
        "[b1,x1]": (bob.b1, alice.x1),
        "[b2,x2]": (bob.b2, alice.x2),
    }
    pitfall_pairs = {
        "[x1,y1]": (alice.x1, bob.y1),
        "[x2,y1]": (alice.x2, bob.y1),
        "[x2,y2]": (alice.x2, bob.y2),
        "[a2,b1]": (alice.a2, bob.b1),
        "[a3,b2]": (alice.a3, bob.b2),
        "[a3,b1]": (alice.a3, bob.b1),
        "[x2,b1]": (alice.x2, bob.b1),
        "[a3,y1]": (alice.a3, bob.y1),
    }
    pairs = {**required_pairs, **pitfall_pairs}
    # commutator(a, b) = (b a)^-1 (a b), with all twelve (b a) inverted at once
    # every factor is invertible (_Private checked it), so every product is
    inverses = mat_inverse_many([mat_mul(b, a) for a, b in pairs.values()])
    c = {name: mat_mul(inv, mat_mul(a, b)) for (name, (a, b)), inv in zip(pairs.items(), inverses)}
    required = {name: CheckResult(c[name].is_identity(), c[name]) for name in required_pairs}
    pitfalls = {name: CheckResult(not c[name].is_identity(), c[name]) for name in pitfall_pairs}
    return ValidationReport(required=required, pitfalls=pitfalls)


@dataclass(frozen=True)
class SessionResult:
    """One full seeded exchange, with the redraw counters the statistics use."""

    setup: PublicSetup
    alice: AlicePrivate
    bob: BobPrivate
    alice_pub: PublicToken
    bob_pub: PublicToken
    alice_key: SessionKey
    bob_key: SessionKey
    singular_redraws: int

    @property
    def agreed(self) -> bool:
        return self.alice_key.k == self.bob_key.k


def run_session(rs, params: FieldParams) -> SessionResult:
    """Run setup, both keygens, token exchange and both key derivations.

    Every draw hands on the inverses its elimination computed, and the two
    session keys are inverted in one stacked call, so a session makes four
    elimination kernel calls plus one per redraw round.
    """
    setup, redraws = _gen_setup_counted(rs, params)
    alice, r_a = _keygen(rs, setup, Role.ALICE)
    bob, r_b = _keygen(rs, setup, Role.BOB)
    tok_a = alice_token(alice)
    tok_b = bob_token(bob)
    keys = [_key_product(alice, tok_b), _key_product(bob, tok_a)]
    k_a, k_b = (SessionKey(k, k_inv) for k, k_inv in zip(keys, mat_inverse_many(keys)))
    return SessionResult(
        setup=setup,
        alice=alice,
        bob=bob,
        alice_pub=tok_a,
        bob_pub=tok_b,
        alice_key=k_a,
        bob_key=k_b,
        singular_redraws=redraws + r_a + r_b,
    )
