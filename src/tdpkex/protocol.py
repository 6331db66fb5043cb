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
import functools
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .commuting import family_member
from .errors import ParamsMismatchError, SingularMatrixError
from .field_matrix import (
    DiagonalSpec,
    FieldParams,
    Matrix,
    NonsingularDraws,
    UniformDraws,
    _inverse_table,
    commutator,
    draw_segments,
    mat_inverse_many,
)


class Role(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


def _require_protocol_params(params: FieldParams) -> None:
    if params.p < 3:
        raise ValueError("key agreement needs p > 2 (nonzero eigenvalue choices)")


def _inverses(ms: list[Matrix], supplied: list[Matrix | None], names: list[str]) -> list[Matrix]:
    """The inverses of same-params ms; SingularMatrixError naming the first that has none.

    Supplied inverses are checked with one stacked m x == I mod p, which
    proves m invertible with inverse x, so they are certificates, not taken
    on trust.  If any is missing, ms are inverted in one stacked reduction.
    """
    params = ms[0].params
    if any(x is None for x in supplied):
        inverses = mat_inverse_many(ms)
    else:
        if any(x.params != params for x in supplied):
            raise ParamsMismatchError("supplied inverse has foreign parameters")
        prod = np.array([m.a for m in ms]) @ np.array([x.a for x in supplied]) % params.p
        ok = (prod == np.eye(params.d, dtype=np.int64)).all(axis=(1, 2))
        inverses = [x if good else None for x, good in zip(supplied, ok.tolist())]
    for name, inv in zip(names, inverses):
        if inv is None:
            raise SingularMatrixError(f"{name} is singular")
    return inverses


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
        supplied = [None] * 4 if self.basis_inv is None else [self.basis_inv[name] for name in _BASES]
        inverses = _inverses(bases, supplied, [f"basis {name}" for name in _BASES])
        object.__setattr__(self, "basis_inv", dict(zip(_BASES, inverses)))

    def member(self, basis_name: str, eigenvalues: Sequence[int]) -> Matrix:
        """basis^-1 diag(eigenvalues) basis for the named basis, with no elimination."""
        return Matrix(self.params, self._members([basis_name], [eigenvalues])[0])

    def _members(self, basis_names: Sequence[str], eigenvalues) -> np.ndarray:
        """One family member per named basis and eigenvalue row, as one (k, d, d) broadcast."""
        b = np.array([getattr(self, name).a for name in basis_names])
        b_inv = np.array([self.basis_inv[name].a for name in basis_names])
        return family_member(b, b_inv, eigenvalues, self.params.p)


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
        free = getattr(self, layout.free)
        if free.params != params:
            raise ParamsMismatchError(f"{layout.free} has foreign parameters")
        b = np.array([getattr(self.setup, basis_name).a for _, basis_name in layout.families])
        f = np.array([m.a for m in derived])
        eigenvalues = np.array([spec.eigenvalues for spec in specs])
        # B F == diag(eigenvalues) B for all four families at once: F == B^-1 diag B,
        # tested inversion-free
        if not np.array_equal(b @ f % params.p, eigenvalues[:, :, None] * b % params.p):
            raise ValueError("derived matrix does not match its basis and eigenvalues")
        (free_inv,) = _inverses([free], [self.free_inv], [layout.free])
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

    def inverses(self, priv: _Private, names: Sequence[str]) -> np.ndarray:
        """The named factors' inverses as one (k, d, d) array, with no elimination.

        A family factor's inverse is its family member on the inverted
        eigenvalues, exact because _Private checked each family factor
        against its basis; the free factor's is the certified ``free_inv``.
        """
        family = [name for name in names if name != self.free]
        basis = dict(self.families)
        eigenvalues = np.array([getattr(priv, "d_" + name).eigenvalues for name in family])
        inverted = _inverse_table(priv.setup.params.p)[eigenvalues]
        found = dict(zip(family, priv.setup._members([basis[name] for name in family], inverted)))
        found[self.free] = priv.free_inv.a
        return np.array([found[name] for name in names])


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
    """The published triple: (u, v, w) from Alice or (p, q, r) from Bob.

    inverses, when a reader that eliminated the triple supplies it, is the
    (3, d, d) array of t1^-1, t2^-1, t3^-1.  It is not checked here: a
    session key derived from the token builds its own inverse from it, and
    ``SessionKey`` certifies that product.
    """

    role: Role
    t1: Matrix
    t2: Matrix
    t3: Matrix
    inverses: np.ndarray | None = field(default=None, compare=False, repr=False)

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
    elimination.  A supplied k_inv is checked with one matmul; ``run_session``
    builds it from the six factors' inverses, and a shared key from a token
    that carries its inverses.  Without one it is computed here.
    """

    k: Matrix
    k_inv: Matrix | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        (k_inv,) = _inverses([self.k], [self.k_inv], ["session key"])
        object.__setattr__(self, "k_inv", k_inv)


_SETUP_DRAWS = (NonsingularDraws(len(_BASES)),)


def _keygen_draws(params: FieldParams) -> tuple[UniformDraws, NonsingularDraws]:
    """A party's draws: one eigenvalue list per basis, in record order, then the free factor."""
    return UniformDraws(1, params.p - 1, len(_BASES) * params.d), NonsingularDraws(1)


def _setup(params: FieldParams, drawn: list) -> PublicSetup:
    """The setup from the draws of ``_SETUP_DRAWS``, their inverses passed on."""
    ((bases, inverses),) = drawn
    basis_inv = {name: Matrix(params, x) for name, x in zip(_BASES, inverses)}
    return PublicSetup(params, *(Matrix(params, b) for b in bases), basis_inv=basis_inv)


def _private(setup: PublicSetup, role: Role, drawn: list) -> _Private:
    """A party's private key from the draws of ``_keygen_draws``.

    The four family members are one broadcast product basis^-1 diag basis.
    """
    layout, params = ROLE_LAYOUT[role], setup.params
    eigenvalues, ((free,), (free_inv,)) = drawn
    eigenvalues = eigenvalues.reshape(-1, params.d)
    specs = [DiagonalSpec(params, row) for row in eigenvalues.tolist()]
    members = setup._members([basis_name for _, basis_name in layout.families], eigenvalues)
    factors = {name: Matrix(params, m) for (name, _), m in zip(layout.families, members)}
    factors[layout.free] = Matrix(params, free)
    return layout.private(setup, *specs, **factors, free_inv=Matrix(params, free_inv))


def gen_setup(rs, params: FieldParams) -> PublicSetup:
    """Draw the four public bases P, Q, R, S independently from GL(d, F_p)."""
    return _setup(params, draw_segments(rs, params, _SETUP_DRAWS)[0])


def _keygen(rs, setup: PublicSetup, role: Role) -> _Private:
    return _private(setup, role, draw_segments(rs, setup.params, _keygen_draws(setup.params))[0])


def _token(priv: _Private) -> PublicToken:
    """(f1 h1, h1^-1 f2 h2, h2^-1 f3): one stacked product, then one matmul by h2."""
    layout, params = ROLE_LAYOUT[priv.role], priv.setup.params
    f1, f2, f3, h1, h2 = (m.a for m in layout.matrices(priv))
    h1_inv, h2_inv = layout.inverses(priv, layout.hide)
    t1, t2, t3 = np.array([f1, h1_inv, h2_inv]) @ np.array([h1, f2, f3]) % params.p
    return PublicToken(priv.role, *(Matrix(params, t) for t in (t1, t2 @ h2, t3)))


def _chain(alice, bob, p: int) -> np.ndarray:
    """a1 b1 a2 b2 a3 b3 from Alice's and Bob's factor triples: hers sit left of his."""
    factors = [m for pair in zip(alice, bob) for m in pair]
    return functools.reduce(lambda k, f: k @ f % p, factors)


def _chain_inverse(alice_inv, bob_inv, p: int) -> np.ndarray:
    """(a1 b1 a2 b2 a3 b3)^-1 = b3^-1 a3^-1 b2^-1 a2^-1 b1^-1 a1^-1 from the factors' inverses."""
    return _chain(bob_inv[::-1], alice_inv[::-1], p)


def _by_role(role: Role, own, peer) -> tuple:
    """A party's own and its peer's triples, ordered (Alice's, Bob's)."""
    return (own, peer) if role is Role.ALICE else (peer, own)


def _key_inverses(priv: _Private) -> np.ndarray:
    layout = ROLE_LAYOUT[priv.role]
    return layout.inverses(priv, layout.key)


def _key_product(priv: _Private, token: PublicToken) -> Matrix:
    if token.role is priv.role:
        raise ValueError(f"{priv.role.value} needs the peer's token, not a {token.role.value} token")
    params = priv.setup.params
    if token.params != params:
        raise ParamsMismatchError("token parameters differ from private key")
    own = [getattr(priv, name).a for name in ROLE_LAYOUT[priv.role].key]
    peer = [token.t1.a, token.t2.a, token.t3.a]
    return Matrix(params, _chain(*_by_role(priv.role, own, peer), params.p))


def _shared(priv: _Private, token: PublicToken) -> SessionKey:
    """The session key; its inverse comes with no elimination when the token carries its own."""
    k = _key_product(priv, token)
    k_inv = None
    if token.inverses is not None:
        pair = _by_role(priv.role, _key_inverses(priv), token.inverses)
        k_inv = Matrix(k.params, _chain_inverse(*pair, k.params.p))
    return SessionKey(k, k_inv)


def alice_keygen(rs, setup: PublicSetup) -> AlicePrivate:
    """Draw Alice's eigenvalue lists and free factor, derive a2, a3, x1, x2."""
    return _keygen(rs, setup, Role.ALICE)


def bob_keygen(rs, setup: PublicSetup) -> BobPrivate:
    """Draw Bob's eigenvalue lists and free factor, derive b1, b2, y1, y2."""
    return _keygen(rs, setup, Role.BOB)


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
    """One checked pair (a, b) of private factors.

    ``passed`` says a b == b a for a required pair, a b != b a for a pitfall.
    ``commutator`` (a^-1 b^-1 a b) costs an elimination, so it is computed
    on access, never by the check.
    """

    passed: bool
    pair: tuple[Matrix, Matrix]

    @property
    def commutator(self) -> Matrix:
        return commutator(*self.pair)


@dataclass(frozen=True)
class ValidationReport:
    """Result of the session health checks.

    ``required`` lists the cross-party commutation conditions the key
    agreement depends on (must all hold).  ``pitfalls`` lists pairs that
    must NOT commute; one that does marks degenerate private material (say,
    bases that share one family), and the session is flagged ``weak``.
    ``weak`` flags degenerate material, not security: an ``ok`` session
    still leaks its key to a linear-algebra attack on the public tokens
    (README, "Known limitations").  Advisory only: callers decide whether
    to abort.
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


# each check is named [f,g] after the pair of factors it tests; Alice's are a*
# and x*, Bob's b* and y*
_REQUIRED = ("[a2,y1]", "[a3,y2]", "[b1,x1]", "[b2,x2]")
_PITFALLS = ("[x1,y1]", "[x2,y1]", "[x2,y2]", "[a2,b1]", "[a3,b2]", "[a3,b1]", "[x2,b1]", "[a3,y1]")


def validate_session(setup: PublicSetup, alice: AlicePrivate, bob: BobPrivate) -> ValidationReport:
    """Check required commutation conditions and degenerate-commutation pitfalls.

    All twelve verdicts come from one stacked a b and one stacked b a, with
    no elimination.
    """
    if alice.setup != setup or bob.setup != setup:
        raise ParamsMismatchError("private keys built on a different setup")
    pairs = {
        name: tuple(getattr(alice if f[0] in "ax" else bob, f) for f in name[1:-1].split(","))
        for name in _REQUIRED + _PITFALLS
    }
    a, b = (np.array([pair[i].a for pair in pairs.values()]) for i in (0, 1))
    p = setup.params.p
    commute = dict(zip(pairs, (a @ b % p == b @ a % p).all(axis=(1, 2)).tolist()))
    return ValidationReport(
        required={name: CheckResult(commute[name], pairs[name]) for name in _REQUIRED},
        pitfalls={name: CheckResult(not commute[name], pairs[name]) for name in _PITFALLS},
    )


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

    The setup and both parties' material are one ``draw_segments`` call, so
    every nonsingular draw comes with its inverse and a session makes one
    elimination kernel call plus one per re-parse round.  The session key's
    inverse is b3^-1 a3^-1 b2^-1 a2^-1 b1^-1 a1^-1, built from the factors'
    inverses with no elimination, and both keys certify it.
    """
    keygen = _keygen_draws(params)
    drawn, redraws = draw_segments(rs, params, _SETUP_DRAWS + keygen + keygen)
    setup = _setup(params, drawn[:1])
    alice = _private(setup, Role.ALICE, drawn[1:3])
    bob = _private(setup, Role.BOB, drawn[3:])
    tok_a, tok_b = alice_token(alice), bob_token(bob)
    k_inv = Matrix(params, _chain_inverse(_key_inverses(alice), _key_inverses(bob), params.p))
    return SessionResult(
        setup=setup,
        alice=alice,
        bob=bob,
        alice_pub=tok_a,
        bob_pub=tok_b,
        alice_key=SessionKey(_key_product(alice, tok_b), k_inv),
        bob_key=SessionKey(_key_product(bob, tok_a), k_inv),
        singular_redraws=redraws,
    )
