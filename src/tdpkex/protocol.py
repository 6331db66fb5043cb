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

Every protocol object is a value over int64 stacks (``field_matrix._Value``,
the base of Matrix and CipherMessage): the setup holds its bases and their
inverses, a private key its eigenvalue lists, five factors and their
inverses, a token its triple, and a session key k and k^-1.  A named member
(``setup.P``, ``alice.d_a2``, ``token.t1``, ``key.k``) is built when read:
a DiagonalSpec, or a Matrix by the trusted wrap ``Matrix._held``.  The
constructors take Matrix and DiagonalSpec arguments and compute every
inverse; the CLI readers hand stacks and the inverses they hold to
``_from_stacks``, and both routes run the same checks once on the stack.  ``_fill`` is the one builder of a
private key's factors and inverses: keygen keeps its build, and a key from
outside the package is refused unless its factors equal the build.

Each step takes a leading party axis: ``run_session`` runs Alice and Bob
through it at once (one ``family_member`` call, one token product, one key
product tree, and one certificate of the bases', free factors' and keys'
inverses; its result builds each object from the stacks when first read),
and the single-party functions, the constructors and the CLI readers are its
k = 1 case.

All protocol objects are immutable; sessions on distinct random sources may
run concurrently.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .commuting import family_member
from .errors import ParamsMismatchError, SingularMatrixError
from .field_matrix import (
    DiagonalSpec,
    FieldParams,
    Matrix,
    NonsingularDraws,
    UniformDraws,
    _check_eigenvalues,
    _identity,
    _invert,
    _inverse_table,
    _product,
    _readonly,
    _Value,
    commutator,
    draw_segments,
)


class Role(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


def _require_protocol_params(params: FieldParams) -> None:
    if params.p < 3:
        raise ValueError("key agreement needs p > 2 (nonzero eigenvalue choices)")


def _certify(ms: np.ndarray, inverses: np.ndarray | None, names, p: int) -> np.ndarray:
    """The inverses of the (k, d, d) stack ms; SingularMatrixError naming the first that has none.

    Supplied inverses are checked with one stacked m x == I mod p, which
    proves m invertible with inverse x, so they are certificates, not taken
    on trust.  Without them ms are inverted in one stacked reduction.
    """
    if inverses is None:
        inverses, ok = _invert(ms, p)
    else:
        ok = (ms @ inverses % p == _identity(ms.shape[-1])).all(axis=(1, 2)).tolist()
    for name, good in zip(names, ok):
        if not good:
            raise SingularMatrixError(f"{name} is singular")
    return inverses


def _check_params(params: FieldParams, named: dict) -> None:
    """The Matrix route's parameter check: ParamsMismatchError naming the first foreign argument."""
    for name, arg in named.items():
        if arg.params != params:
            raise ParamsMismatchError(f"{name} has foreign parameters")


class _Member:
    """Row ``index`` of the object's ``stack`` attribute, wrapped when read (a Matrix by ``Matrix._held``)."""

    def __init__(self, stack: str, index: int, wrap=Matrix._held):
        self.stack, self.index, self.wrap = stack, index, wrap

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return self.wrap(obj.params, getattr(obj, self.stack)[self.index])


_BASES = ("P", "Q", "R", "S")
_BASIS_NAMES = tuple(f"basis {name}" for name in _BASES)


class PublicSetup(_Value):
    """The four public eigenvector bases; all invertible, all same params.

    bases is the (4, d, d) stack of P, Q, R, S and inverses theirs, so every
    family member and member inverse is one matmul (see ``_fill``).  The
    constructor inverts the four bases with one stacked reduction.  On the
    stack route a caller that already holds the inverses, as the setup draw
    does, passes them in, and all four are checked with one stacked matmul.
    ``basis_inv`` maps each basis name to its inverse as a Matrix.
    """

    __slots__ = ("params", "bases", "inverses")
    _compared = ("params", "bases")
    P, Q, R, S = (_Member("bases", i) for i in range(4))

    def __init__(self, params: FieldParams, P: Matrix, Q: Matrix, R: Matrix, S: Matrix):
        _require_protocol_params(params)  # _init checks it too; here it comes first
        bases = (P, Q, R, S)
        _check_params(params, dict(zip(_BASIS_NAMES, bases)))
        self._init(params, np.array([m.a for m in bases]))

    def _init(self, params: FieldParams, bases: np.ndarray, inverses: np.ndarray | None = None):
        _require_protocol_params(params)
        self._hold(params, bases, _certify(bases, inverses, _BASIS_NAMES, params.p))

    @property
    def basis_inv(self) -> dict[str, Matrix]:
        return {name: Matrix._held(self.params, x) for name, x in zip(_BASES, self.inverses)}


class _Private(_Value):
    """A party's secret material over one setup; the layout comes from ROLE_LAYOUT.

    eigenvalues is the (4, d) stack of the eigenvalue lists in ``families``
    order, factors the (5, d, d) stack of the factors in record order (``key``
    then ``hide``), and inverses theirs, all set by ``_fill``.  A family
    factor's inverse is its family member on the inverted eigenvalues; the
    free factor's is computed by the constructor, or supplied on the stack
    route and checked with one matmul.  ``free_inverse`` is that row of
    inverses and ``free_inv`` the same as a Matrix.
    """

    __slots__ = ("setup", "eigenvalues", "factors", "inverses")
    _compared = ("setup", "eigenvalues", "factors")
    role: ClassVar[Role]
    params = property(lambda self: self.setup.params)

    def _from_material(self, setup: PublicSetup, specs: tuple, factors: tuple) -> None:
        """The Matrix route: each argument's parameters checked, then the stack checks."""
        layout = ROLE_LAYOUT[self.role]
        names = ["d_" + name for name, _ in layout.families] + list(layout.record)
        _check_params(setup.params, dict(zip(names, specs + factors)))
        eigenvalues = np.array([spec.eigenvalues for spec in specs], dtype=np.int64)
        self._init(setup, eigenvalues, np.array([m.a for m in factors]))

    def _init(self, setup: PublicSetup, eigenvalues: np.ndarray, factors: np.ndarray,
              free_inverse: np.ndarray | None = None):
        # the setup's inverses are certified, so a family factor equals its
        # build B^-1 diag B exactly when B F == diag B
        layout = ROLE_LAYOUT[self.role]
        free = factors[[layout.free_index]]
        _check_eigenvalues(setup.params, eigenvalues)
        # the free factor stands in for its inverse until _certify sets that
        (built,), (inverses,) = _fill(setup.params.p, setup.bases, setup.inverses, (self.role,),
                                      eigenvalues[None], free, free)
        if not np.array_equal(built, factors):
            raise ValueError("derived matrix does not match its basis and eigenvalues")
        supplied = None if free_inverse is None else free_inverse[None]
        (inverses[layout.free_index],) = _certify(free, supplied, [layout.free], setup.params.p)
        self._hold(setup, eigenvalues, factors, inverses)

    @property
    def free_inverse(self) -> np.ndarray:
        return self.inverses[ROLE_LAYOUT[self.role].free_index]

    @property
    def free_inv(self) -> Matrix:
        return Matrix._held(self.params, self.free_inverse)


class AlicePrivate(_Private):
    """Alice's secret material: four eigenvalue lists, one free matrix, derived factors."""

    __slots__ = ()
    role = Role.ALICE
    d_a2, d_a3, d_x1, d_x2 = (_Member("eigenvalues", i, DiagonalSpec) for i in range(4))
    a1, a2, a3, x1, x2 = (_Member("factors", i) for i in range(5))

    def __init__(self, setup: PublicSetup, d_a2: DiagonalSpec, d_a3: DiagonalSpec,
                 d_x1: DiagonalSpec, d_x2: DiagonalSpec, a1: Matrix, a2: Matrix, a3: Matrix,
                 x1: Matrix, x2: Matrix):
        self._from_material(setup, (d_a2, d_a3, d_x1, d_x2), (a1, a2, a3, x1, x2))


class BobPrivate(_Private):
    """Bob's secret material; mirror image of Alice's with bases swapped."""

    __slots__ = ()
    role = Role.BOB
    d_b1, d_b2, d_y1, d_y2 = (_Member("eigenvalues", i, DiagonalSpec) for i in range(4))
    b1, b2, b3, y1, y2 = (_Member("factors", i) for i in range(5))

    def __init__(self, setup: PublicSetup, d_b1: DiagonalSpec, d_b2: DiagonalSpec,
                 d_y1: DiagonalSpec, d_y2: DiagonalSpec, b1: Matrix, b2: Matrix, b3: Matrix,
                 y1: Matrix, y2: Matrix):
        self._from_material(setup, (d_b1, d_b2, d_y1, d_y2), (b1, b2, b3, y1, y2))


@dataclass(frozen=True)
class RoleLayout:
    """Where one party's factors come from and how its private record is ordered.

    ``families`` pairs each basis-derived factor with the basis that conjugates
    its eigenvalue list ``d_<factor>``, in record order.  ``key`` holds the
    three factors (f1, f2, f3) that enter the session key, ``hide`` the two
    (h1, h2) that mask them in the token (f1 h1, h1^-1 f2 h2, h2^-1 f3), and
    ``free`` names the factor drawn from the whole group.  The record stores
    the eigenvalue lists in ``families`` order, then ``key`` and ``hide``,
    which is the order of a private key's factor stack: ``record``.  In
    ``families`` order, ``family_index`` gives each family factor's place in
    that stack and ``basis_index`` its basis's place in the setup's.
    """

    private: type
    families: tuple[tuple[str, str], ...]
    key: tuple[str, str, str]
    hide: tuple[str, str]
    free: str
    record: tuple[str, ...] = field(init=False, repr=False)
    family_index: list[int] = field(init=False, repr=False)
    basis_index: list[int] = field(init=False, repr=False)
    free_index: int = field(init=False, repr=False)

    def __post_init__(self):
        record = self.key + self.hide
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "family_index", [record.index(name) for name, _ in self.families])
        object.__setattr__(self, "basis_index", [_BASES.index(basis) for _, basis in self.families])
        object.__setattr__(self, "free_index", record.index(self.free))


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
_PARTIES = (Role.ALICE, Role.BOB)
_RECORD_LENGTH = 5


@functools.cache
def _party_index(roles: tuple[Role, ...]) -> tuple:
    """The k parties' (k, 4) basis rows, and where their family and free factors sit in (k, 5) stacks."""
    layouts = [ROLE_LAYOUT[role] for role in roles]
    parties, basis, family, free = (_readonly(np.array(index)) for index in (
        range(len(roles)),
        [layout.basis_index for layout in layouts],
        [layout.family_index for layout in layouts],
        [layout.free_index for layout in layouts],
    ))
    return parties, basis, family, free


def _fill(p: int, bases: np.ndarray, basis_inverses: np.ndarray, roles: tuple[Role, ...],
          eigenvalues: np.ndarray, free: np.ndarray, free_inverse: np.ndarray) -> tuple:
    """The k parties' (k, 5, d, d) factor stacks and their inverses, one ``family_member`` call.

    From a setup's bases and their certified inverses, (k, 4, d) eigenvalue
    lists in [1, p-1], and (k, d, d) free factors and their inverses.  A
    family factor's inverse is its member on the inverted list, so the call
    builds the lists' and the inverted lists' members at once.
    """
    parties, basis, family, free_at = _party_index(roles)
    d = bases.shape[-1]
    lists = np.array([eigenvalues, _inverse_table(p)[eigenvalues]])
    out = np.empty((2, len(roles), _RECORD_LENGTH, d, d), dtype=np.int64)
    out[:, parties[:, None], family] = family_member(bases[basis], basis_inverses[basis], lists, p)
    out[:, parties, free_at] = np.array([free, free_inverse])
    return out[0], out[1]


class PublicToken(_Value):
    """The published triple: (u, v, w) from Alice or (p, q, r) from Bob.

    stack is the (3, d, d) stack of t1, t2, t3.  inverses is None, or, when
    a reader that eliminated the triple supplies it on the stack route, the
    (3, d, d) array of t1^-1, t2^-1, t3^-1.  It is not checked here: a
    session key derived from the token builds its own inverse from it, and
    ``SessionKey`` certifies that product.  It takes no part in equality.
    """

    __slots__ = ("role", "params", "stack", "inverses")
    _compared = ("role", "params", "stack")
    t1, t2, t3 = (_Member("stack", i) for i in range(3))

    def __init__(self, role: Role, t1: Matrix, t2: Matrix, t3: Matrix):
        _check_params(t1.params, {"t2": t2, "t3": t3})
        self._hold(role, t1.params, np.array([t1.a, t2.a, t3.a]), None)

    def _init(self, role: Role, params: FieldParams, stack: np.ndarray, inverses: np.ndarray | None = None):
        # the stack route adds no check: SessionKey certifies the key derived from a token
        self._hold(role, params, stack, inverses)


class SessionKey(_Value):
    """The agreed key matrix; invertible because all six factors are.

    stack is the (2, d, d) stack of k and k^-1, so the cipher conjugates
    every block with no further elimination.  The constructor computes k^-1.
    On the stack route ``run_session`` supplies it, built from the six
    factors' inverses, and so does a shared key from a token that carries
    its inverses; a supplied one is checked with one matmul (``run_session``
    checks it in its one certificate).
    """

    __slots__ = ("params", "stack")
    _compared = ("params", "stack")
    k, k_inv = _Member("stack", 0), _Member("stack", 1)

    def __init__(self, k: Matrix):
        self._init(k.params, k.a)

    def _init(self, params: FieldParams, k: np.ndarray, k_inv: np.ndarray | None = None):
        supplied = None if k_inv is None else k_inv[None]
        (k_inv,) = _certify(k[None], supplied, [_KEY_NAME], params.p)
        self._hold(params, np.array([k, k_inv]))


_KEY_NAME = "session key"
# run_session's one certificate, in this order: the four bases, both free factors, both keys
_SESSION_CERTIFIED = _BASIS_NAMES + tuple(ROLE_LAYOUT[role].free for role in _PARTIES) + (_KEY_NAME,) * 2


_SETUP_DRAWS = (NonsingularDraws(len(_BASES)),)


def _keygen_draws(params: FieldParams) -> tuple[UniformDraws, NonsingularDraws]:
    """A party's draws: one eigenvalue list per basis, in record order, then the free factor."""
    return UniformDraws(1, params.p - 1, len(_BASES) * params.d), NonsingularDraws(1)


def _material(drawn: list, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k parties' eigenvalue lists, free factors and their inverses from k runs of ``_keygen_draws``."""
    eigenvalues = np.array(drawn[::2]).reshape(-1, len(_BASES), d)
    free, free_inverse = (np.concatenate(part) for part in zip(*drawn[1::2]))
    return eigenvalues, free, free_inverse


def gen_setup(rs, params: FieldParams) -> PublicSetup:
    """Draw the four public bases P, Q, R, S independently from GL(d, F_p); their inverses are passed on."""
    ((bases, inverses),), _ = draw_segments(rs, params, _SETUP_DRAWS)
    return PublicSetup._from_stacks(params, bases, inverses)


def _session_draws(params: FieldParams) -> tuple:
    """A session's draws in stream order: the setup's, then Alice's keygen, then Bob's."""
    keygen = _keygen_draws(params)
    return _SETUP_DRAWS + keygen + keygen


def _keygen(rs, setup: PublicSetup, role: Role) -> _Private:
    layout = ROLE_LAYOUT[role]
    drawn, _ = draw_segments(rs, setup.params, _keygen_draws(setup.params))
    eigenvalues, free, free_inverse = _material(drawn, setup.params.d)
    _certify(free, free_inverse, [layout.free], setup.params.p)
    (factors,), (inverses,) = _fill(setup.params.p, setup.bases, setup.inverses, (role,), eigenvalues, free,
                                    free_inverse)
    return layout.private._held(setup, eigenvalues[0], factors, inverses)


def _tokens(p: int, factors: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    """The (k, 3, d, d) triples (f1 h1, h1^-1 f2 h2, h2^-1 f3) from (k, 5, d, d) record-order stacks.

    One stacked product of the 3k pairs, then one of the k middle entries by
    h2, and one reduction mod p.
    """
    left = np.concatenate([factors[:, :1], inverses[:, 3:]], axis=1)
    stack, bound = _product(left, p - 1, factors[:, [3, 1, 2]], p - 1, p)
    stack[:, 1] = _product(stack[:, 1], bound, factors[:, 4], p - 1, p)[0]
    stack %= p
    return stack


def _token(priv: _Private) -> PublicToken:
    (stack,) = _tokens(priv.params.p, priv.factors[None], priv.inverses[None])
    return PublicToken._held(priv.role, priv.params, stack, None)


def _chain(left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """l1 r1 l2 r2 l3 r3 for triples stacked on axis -3, batched over any leading axes.

    A product tree: one stacked product of the pairs l_i r_i, then two, and
    one reduction mod p at the end.  Entries must be in [0, p).
    """
    m, bound = _product(left, p - 1, right, p - 1, p)
    first, first_bound = _product(m[..., 0, :, :], bound, m[..., 1, :, :], bound, p)
    return _product(first, first_bound, m[..., 2, :, :], bound, p)[0] % p


def _by_role(role: Role, own, peer) -> tuple:
    """A party's own and its peer's triples, ordered (Alice's, Bob's): hers sit left of his."""
    return (own, peer) if role is Role.ALICE else (peer, own)


def _shared(priv: _Private, token: PublicToken) -> SessionKey:
    """The session key; its inverse comes with no elimination when the token carries its own.

    K^-1 = b3^-1 a3^-1 b2^-1 a2^-1 b1^-1 a1^-1 is the chain of Bob's and
    Alice's inverse triples, each reversed.
    """
    if token.role is priv.role:
        raise ValueError(f"{priv.role.value} needs the peer's token, not a {token.role.value} token")
    params = priv.params
    if token.params != params:
        raise ParamsMismatchError("token parameters differ from private key")
    k = _chain(*_by_role(priv.role, priv.factors[:3], token.stack), params.p)
    k_inv = None
    if token.inverses is not None:
        alice_inv, bob_inv = _by_role(priv.role, priv.inverses[:3], token.inverses)
        k_inv = _chain(bob_inv[::-1], alice_inv[::-1], params.p)
    return SessionKey._from_stacks(params, k, k_inv)


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


class CheckResult(_Value):
    """One checked pair (a, b) of private factors, held as one (2, d, d) stack.

    ``passed`` says a b == b a for a required pair, a b != b a for a pitfall.
    ``pair`` and ``commutator`` (a^-1 b^-1 a b, which costs an elimination)
    are computed on access, never by the check.
    """

    __slots__ = ("passed", "params", "stack")

    def __init__(self, passed: bool, params: FieldParams, stack: np.ndarray):
        self._hold(passed, params, stack)

    @property
    def pair(self) -> tuple[Matrix, Matrix]:
        return Matrix(self.params, self.stack[0]), Matrix(self.params, self.stack[1])

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
# each check's two places in Alice's factor stack followed by Bob's
_SESSION_FACTORS = ROLE_LAYOUT[Role.ALICE].record + ROLE_LAYOUT[Role.BOB].record
_CHECK_INDEX = _readonly(np.array([[_SESSION_FACTORS.index(f) for f in name[1:-1].split(",")]
                                   for name in _REQUIRED + _PITFALLS]))


def validate_session(setup: PublicSetup, alice: AlicePrivate, bob: BobPrivate) -> ValidationReport:
    """Check required commutation conditions and degenerate-commutation pitfalls.

    All twelve verdicts come from one stacked a b and one stacked b a, with
    no elimination.
    """
    if alice.setup != setup or bob.setup != setup:
        raise ParamsMismatchError("private keys built on a different setup")
    params, names = setup.params, _REQUIRED + _PITFALLS
    pairs = np.concatenate([alice.factors, bob.factors])[_CHECK_INDEX]
    a, b = pairs[:, 0], pairs[:, 1]
    commute = dict(zip(names, (a @ b % params.p == b @ a % params.p).all(axis=(1, 2)).tolist()))
    pair = dict(zip(names, pairs))
    return ValidationReport(
        required={name: CheckResult._held(commute[name], params, pair[name]) for name in _REQUIRED},
        pitfalls={name: CheckResult._held(not commute[name], params, pair[name]) for name in _PITFALLS},
    )


class SessionResult(_Value):
    """One full seeded exchange, with the redraw counters the statistics use.

    It keeps the stacks ``run_session`` computed and certified.  ``setup``,
    ``alice``, ``bob``, ``alice_pub``, ``bob_pub``, ``alice_key`` and
    ``bob_key`` are each built from them when first read, once, by the
    unchecked route (``_held``), with no read of the random source.
    ``agreed`` compares the key rows.  The constructor is internal:
    ``run_session`` is the one way to build one.
    """

    # __dict__, for the cached members, stays last: _hold sets the slots before it
    __slots__ = ("_params", "_bases", "_basis_inverses", "_eigenvalues", "_factors", "_inverses", "_tokens",
                 "_keys", "singular_redraws", "__dict__")
    _compared = ("setup", "alice", "bob", "alice_pub", "bob_pub", "alice_key", "bob_key", "singular_redraws")

    def _private(self, party: int) -> _Private:
        material = self._eigenvalues, self._factors, self._inverses
        return ROLE_LAYOUT[_PARTIES[party]].private._held(self.setup, *(m[party] for m in material))

    def _public(self, party: int) -> PublicToken:
        return PublicToken._held(_PARTIES[party], self._params, self._tokens[party], None)

    setup = functools.cached_property(lambda self: PublicSetup._held(self._params, self._bases, self._basis_inverses))
    alice = functools.cached_property(lambda self: self._private(0))
    bob = functools.cached_property(lambda self: self._private(1))
    alice_pub = functools.cached_property(lambda self: self._public(0))
    bob_pub = functools.cached_property(lambda self: self._public(1))
    alice_key = functools.cached_property(lambda self: SessionKey._held(self._params, self._keys[::2]))
    bob_key = functools.cached_property(lambda self: SessionKey._held(self._params, self._keys[1:]))

    @property
    def agreed(self) -> bool:
        return bool(np.array_equal(self._keys[0], self._keys[1]))


def run_session(rs, params: FieldParams) -> SessionResult:
    """Run setup, both keygens, token exchange and both key derivations.

    The setup and both parties' material are one ``draw_segments`` call, so
    every nonsingular draw comes with its inverse and a session makes one
    elimination kernel call plus one per re-parse round.  Both parties then
    take each step at once: their eight family factors and eight factor
    inverses are one ``_fill``, and both keys and their shared inverse
    b3^-1 a3^-1 b2^-1 a2^-1 b1^-1 a1^-1 one product tree, with no
    elimination.  One stacked m x == I certifies every supplied inverse:
    the four bases', both free factors' and the keys'.  The family factors
    are built from the certified basis inverses, so no further check runs.
    It returns the stacks: no protocol object is built until it is read.
    """
    _require_protocol_params(params)
    p = params.p
    drawn, redraws = draw_segments(rs, params, _session_draws(params))
    ((bases, basis_inverses),) = drawn[:1]
    eigenvalues, free, free_inverse = _material(drawn[1:], params.d)
    factors, inverses = _fill(p, bases, basis_inverses, _PARTIES, eigenvalues, free, free_inverse)
    tokens = _tokens(p, factors, inverses)
    # rows: Alice's a1 p a2 q a3 r, Bob's u b1 v b2 w b3, and K^-1
    keys = _chain(
        np.array([factors[0, :3], tokens[0], inverses[1, 2::-1]]),
        np.array([tokens[1], factors[1, :3], inverses[0, 2::-1]]),
        p,
    )
    _certify(np.concatenate([bases, free, keys[:2]]),
             np.concatenate([basis_inverses, free_inverse, keys[[2, 2]]]), _SESSION_CERTIFIED, p)
    return SessionResult._held(params, bases, basis_inverses, eigenvalues, factors, inverses, tokens, keys,
                               redraws)
