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

Every protocol object holds read-only int64 stacks, as CipherMessage does:
the setup its bases and their inverses, a private key its eigenvalue lists,
its five factors and the free factor's inverse, a token its triple, and a
session key k and k^-1.  A named member (``setup.P``, ``alice.a2``,
``alice.d_a2``, ``token.t1``, ``key.k``) is a Matrix or DiagonalSpec built
when it is read.  The constructors take Matrix and DiagonalSpec arguments;
``run_session`` and the CLI readers build the same objects from stacks
(``_from_stacks``), and both routes run the same checks once on the stack.

All protocol objects are immutable; sessions on distinct random sources may
run concurrently.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import FrozenInstanceError, dataclass, field
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
    _invert,
    _inverse_table,
    commutator,
    draw_segments,
)


class Role(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


def _require_protocol_params(params: FieldParams) -> None:
    if params.p < 3:
        raise ValueError("key agreement needs p > 2 (nonzero eigenvalue choices)")


@functools.cache
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d, dtype=np.int64)
    eye.flags.writeable = False
    return eye


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


def _check_eigenvalues(params: FieldParams, eigenvalues: np.ndarray) -> None:
    """DiagonalSpec's refusals, run once over a (k, d) stack of eigenvalue lists."""
    if eigenvalues.shape[-1] != params.d:
        raise ValueError(f"expected {params.d} eigenvalues, got {eigenvalues.shape[-1]}")
    bad = (eigenvalues < 1) | (eigenvalues >= params.p)
    if bad.any():
        raise ValueError(f"eigenvalue {eigenvalues[bad][0]} outside [1, p-1]")


class _Stacked:
    """Attributes set once by the constructor; assigning one later raises, as on a frozen dataclass.

    The public constructor checks its Matrix arguments' parameters, stacks
    them and hands the stacks to ``_init``, which runs every other check
    and keeps them.  ``_from_stacks`` is the route of ``run_session`` and
    the CLI readers: it hands int64 stacks with entries in [0, p) to the
    same ``_init``, which keeps them uncopied (a session key stacks k with
    its inverse) and read-only.  Two objects of one class are equal when
    the attributes named in ``_compared`` are: arrays entry by entry,
    anything else by ``==``.
    """

    __slots__ = ()
    _compared: ClassVar[tuple[str, ...]]

    @classmethod
    def _from_stacks(cls, *args):
        obj = cls.__new__(cls)
        obj._init(*args)
        return obj

    def _set(self, **attributes) -> None:
        for name, value in attributes.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore slots through here, not through __setattr__
        self._set(**state[1])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for name in self._compared:
            mine, theirs = getattr(self, name), getattr(other, name)
            same = np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            if not same:
                return False
        return True


class _Member:
    """Row ``index`` of the object's ``stack`` attribute, wrapped as a ``kind`` when read."""

    def __init__(self, stack: str, index: int, kind: type = Matrix):
        self.stack, self.index, self.kind = stack, index, kind

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return self.kind(obj.params, getattr(obj, self.stack)[self.index])


_BASES = ("P", "Q", "R", "S")
_BASIS_NAMES = tuple(f"basis {name}" for name in _BASES)


class PublicSetup(_Stacked):
    """The four public eigenvector bases; all invertible, all same params.

    bases is the (4, d, d) stack of P, Q, R, S and inverses theirs, so every
    family member and member inverse is one matmul (see ``member``).  A
    caller that already holds the inverses, as the setup draw does, passes
    them in and the constructor checks all four with one stacked matmul;
    otherwise it inverts the four bases with one stacked reduction.
    ``basis_inv`` maps each basis name to its inverse as a Matrix.
    """

    __slots__ = ("params", "bases", "inverses")
    _compared = ("params", "bases")
    P, Q, R, S = (_Member("bases", i) for i in range(4))

    def __init__(self, params: FieldParams, P: Matrix, Q: Matrix, R: Matrix, S: Matrix,
                 basis_inv: dict[str, Matrix] | None = None):
        _require_protocol_params(params)  # _init checks it too; here it comes first
        bases = (P, Q, R, S)
        for name, m in zip(_BASES, bases):
            if m.params != params:
                raise ParamsMismatchError(f"basis {name} has foreign parameters")
        inverses = None
        if basis_inv is not None:
            supplied = [basis_inv[name] for name in _BASES]
            if any(x.params != params for x in supplied):
                raise ParamsMismatchError("supplied inverse has foreign parameters")
            inverses = np.array([x.a for x in supplied])
        self._init(params, np.array([m.a for m in bases]), inverses)

    def _init(self, params: FieldParams, bases: np.ndarray, inverses: np.ndarray | None = None):
        _require_protocol_params(params)
        inverses = _certify(bases, inverses, _BASIS_NAMES, params.p)
        self._set(params=params, bases=_readonly(bases), inverses=_readonly(inverses))

    @property
    def basis_inv(self) -> dict[str, Matrix]:
        return {name: Matrix(self.params, x) for name, x in zip(_BASES, self.inverses)}

    def member(self, basis_name: str, eigenvalues) -> Matrix:
        """basis^-1 diag(eigenvalues) basis for the named basis, with no elimination."""
        i = _BASES.index(basis_name)
        member = family_member(self.bases[i], self.inverses[i], eigenvalues, self.params.p)
        return Matrix(self.params, member)


class _Private(_Stacked):
    """A party's secret material over one setup; the layout comes from ROLE_LAYOUT.

    eigenvalues is the (4, d) stack of the eigenvalue lists in ``families``
    order, factors the (5, d, d) stack of the factors in record order (``key``
    then ``hide``), and free_inverse the free factor's inverse: checked with
    one matmul when the caller supplies it (keygen's draw computed it), else
    computed here.  ``free_inv`` is that inverse as a Matrix, and
    ``inverses`` all five factors' inverses, built on first use.
    """

    __slots__ = ("setup", "params", "eigenvalues", "factors", "free_inverse", "_inverses")
    _compared = ("setup", "eigenvalues", "factors")
    role: ClassVar[Role]

    def _from_material(self, setup: PublicSetup, specs, factors, free_inv: Matrix | None) -> None:
        """The Matrix route: each argument's parameters checked, then the stack checks."""
        layout, params = ROLE_LAYOUT[self.role], setup.params
        for (name, _), spec in zip(layout.families, specs):
            if factors[layout.record.index(name)].params != params or spec.params != params:
                raise ParamsMismatchError(f"{name} has foreign parameters")
        if factors[layout.free_index].params != params:
            raise ParamsMismatchError(f"{layout.free} has foreign parameters")
        if free_inv is not None and free_inv.params != params:
            raise ParamsMismatchError("supplied inverse has foreign parameters")
        eigenvalues = np.array([spec.eigenvalues for spec in specs], dtype=np.int64)
        self._init(setup, eigenvalues, np.array([m.a for m in factors]),
                   None if free_inv is None else free_inv.a)

    def _init(self, setup: PublicSetup, eigenvalues: np.ndarray, factors: np.ndarray,
              free_inverse: np.ndarray | None = None):
        layout, params = ROLE_LAYOUT[self.role], setup.params
        p = params.p
        _check_eigenvalues(params, eigenvalues)
        b = setup.bases[layout.basis_index]
        # B F == diag(eigenvalues) B for all four families at once: F == B^-1 diag B,
        # tested inversion-free
        f = factors[layout.family_index]
        if not np.array_equal(b @ f % p, eigenvalues[:, :, None] * b % p):
            raise ValueError("derived matrix does not match its basis and eigenvalues")
        free = factors[layout.free_index, None]
        supplied = None if free_inverse is None else free_inverse[None]
        (free_inverse,) = _certify(free, supplied, [layout.free], p)
        self._set(setup=setup, params=params, eigenvalues=_readonly(eigenvalues),
                  factors=_readonly(factors), free_inverse=_readonly(free_inverse), _inverses=None)

    @property
    def free_inv(self) -> Matrix:
        return Matrix(self.params, self.free_inverse)

    @property
    def inverses(self) -> np.ndarray:
        """The five factors' inverses as one (5, d, d) stack in record order, with no elimination.

        A family factor's inverse is its family member on the inverted
        eigenvalues, exact because the constructor checked each family factor
        against its basis; the free factor's is the certified free_inverse.
        Built on first use and kept, for the token and the session key alike.
        """
        if self._inverses is None:
            layout = ROLE_LAYOUT[self.role]
            out = np.empty_like(self.factors)
            inverted = _inverse_table(self.params.p)[self.eigenvalues]
            out[layout.family_index] = layout.members(self.setup, inverted)
            out[layout.free_index] = self.free_inverse
            self._set(_inverses=_readonly(out))
        return self._inverses


class AlicePrivate(_Private):
    """Alice's secret material: four eigenvalue lists, one free matrix, derived factors."""

    __slots__ = ()
    role = Role.ALICE
    d_a2, d_a3, d_x1, d_x2 = (_Member("eigenvalues", i, DiagonalSpec) for i in range(4))
    a1, a2, a3, x1, x2 = (_Member("factors", i) for i in range(5))

    def __init__(self, setup: PublicSetup, d_a2: DiagonalSpec, d_a3: DiagonalSpec,
                 d_x1: DiagonalSpec, d_x2: DiagonalSpec, a1: Matrix, a2: Matrix, a3: Matrix,
                 x1: Matrix, x2: Matrix, *, free_inv: Matrix | None = None):
        self._from_material(setup, (d_a2, d_a3, d_x1, d_x2), (a1, a2, a3, x1, x2), free_inv)


class BobPrivate(_Private):
    """Bob's secret material; mirror image of Alice's with bases swapped."""

    __slots__ = ()
    role = Role.BOB
    d_b1, d_b2, d_y1, d_y2 = (_Member("eigenvalues", i, DiagonalSpec) for i in range(4))
    b1, b2, b3, y1, y2 = (_Member("factors", i) for i in range(5))

    def __init__(self, setup: PublicSetup, d_b1: DiagonalSpec, d_b2: DiagonalSpec,
                 d_y1: DiagonalSpec, d_y2: DiagonalSpec, b1: Matrix, b2: Matrix, b3: Matrix,
                 y1: Matrix, y2: Matrix, *, free_inv: Matrix | None = None):
        self._from_material(setup, (d_b1, d_b2, d_y1, d_y2), (b1, b2, b3, y1, y2), free_inv)


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

    def members(self, setup: PublicSetup, eigenvalues) -> np.ndarray:
        """The four family members on (4, d) eigenvalue lists, in ``families`` order."""
        i = self.basis_index
        return family_member(setup.bases[i], setup.inverses[i], eigenvalues, setup.params.p)


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


class PublicToken(_Stacked):
    """The published triple: (u, v, w) from Alice or (p, q, r) from Bob.

    stack is the (3, d, d) stack of t1, t2, t3.  inverses, when a reader that
    eliminated the triple supplies it, is the (3, d, d) array of t1^-1,
    t2^-1, t3^-1.  It is not checked here: a session key derived from the
    token builds its own inverse from it, and ``SessionKey`` certifies that
    product.  It takes no part in equality.
    """

    __slots__ = ("role", "params", "stack", "inverses")
    _compared = ("role", "params", "stack")
    t1, t2, t3 = (_Member("stack", i) for i in range(3))

    def __init__(self, role: Role, t1: Matrix, t2: Matrix, t3: Matrix,
                 inverses: np.ndarray | None = None):
        if not (t1.params == t2.params == t3.params):
            raise ParamsMismatchError("token matrices have mixed parameters")
        self._init(role, t1.params, np.array([t1.a, t2.a, t3.a]), inverses)

    def _init(self, role: Role, params: FieldParams, stack: np.ndarray,
              inverses: np.ndarray | None = None):
        self._set(role=role, params=params, stack=_readonly(stack), inverses=inverses)


class SessionKey(_Stacked):
    """The agreed key matrix; invertible because all six factors are.

    stack is the (2, d, d) stack of k and k^-1, so the cipher conjugates
    every block with no further elimination.  A supplied k_inv is checked
    with one matmul; ``run_session`` builds it from the six factors'
    inverses, and a shared key from a token that carries its inverses.
    Without one it is computed here.
    """

    __slots__ = ("params", "stack")
    _compared = ("params", "stack")
    k, k_inv = _Member("stack", 0), _Member("stack", 1)

    def __init__(self, k: Matrix, k_inv: Matrix | None = None):
        if k_inv is not None and k_inv.params != k.params:
            raise ParamsMismatchError("supplied inverse has foreign parameters")
        self._init(k.params, k.a, None if k_inv is None else k_inv.a)

    def _init(self, params: FieldParams, k: np.ndarray, k_inv: np.ndarray | None = None):
        supplied = None if k_inv is None else k_inv[None]
        (k_inv,) = _certify(k[None], supplied, ["session key"], params.p)
        self._set(params=params, stack=_readonly(np.array([k, k_inv])))


_SETUP_DRAWS = (NonsingularDraws(len(_BASES)),)


def _keygen_draws(params: FieldParams) -> tuple[UniformDraws, NonsingularDraws]:
    """A party's draws: one eigenvalue list per basis, in record order, then the free factor."""
    return UniformDraws(1, params.p - 1, len(_BASES) * params.d), NonsingularDraws(1)


def _setup(params: FieldParams, drawn: list) -> PublicSetup:
    """The setup from the draws of ``_SETUP_DRAWS``, their inverses passed on."""
    ((bases, inverses),) = drawn
    return PublicSetup._from_stacks(params, bases, inverses)


def _private(setup: PublicSetup, role: Role, drawn: list) -> _Private:
    """A party's private key from the draws of ``_keygen_draws``.

    The four family members are one broadcast product basis^-1 diag basis.
    """
    layout, d = ROLE_LAYOUT[role], setup.params.d
    eigenvalues, ((free,), (free_inv,)) = drawn
    eigenvalues = eigenvalues.reshape(-1, d)
    factors = np.empty((len(layout.record), d, d), dtype=np.int64)
    factors[layout.family_index] = layout.members(setup, eigenvalues)
    factors[layout.free_index] = free
    return layout.private._from_stacks(setup, eigenvalues, factors, free_inv)


def gen_setup(rs, params: FieldParams) -> PublicSetup:
    """Draw the four public bases P, Q, R, S independently from GL(d, F_p)."""
    return _setup(params, draw_segments(rs, params, _SETUP_DRAWS)[0])


def _keygen(rs, setup: PublicSetup, role: Role) -> _Private:
    return _private(setup, role, draw_segments(rs, setup.params, _keygen_draws(setup.params))[0])


def _token(priv: _Private) -> PublicToken:
    """(f1 h1, h1^-1 f2 h2, h2^-1 f3): one stacked product, then one matmul by h2."""
    p = priv.params.p
    f1, f2, f3, h1, h2 = priv.factors
    stack = np.array([f1, priv.inverses[3], priv.inverses[4]]) @ np.array([h1, f2, f3]) % p
    stack[1] = stack[1] @ h2 % p
    return PublicToken._from_stacks(priv.role, priv.params, stack)


def _chain(left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """l1 r1 l2 r2 l3 r3 for triples stacked on axis -3, batched over any leading axes."""
    k = left[..., 0, :, :]
    for i in range(3):
        if i:
            k = k @ left[..., i, :, :] % p
        k = k @ right[..., i, :, :] % p
    return k


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


@dataclass(frozen=True, eq=False)
class CheckResult:
    """One checked pair (a, b) of private factors, held as one (2, d, d) stack.

    ``passed`` says a b == b a for a required pair, a b != b a for a pitfall.
    ``pair`` and ``commutator`` (a^-1 b^-1 a b, which costs an elimination)
    are computed on access, never by the check.
    """

    passed: bool
    params: FieldParams
    stack: np.ndarray

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
_CHECK_INDEX = np.array([[_SESSION_FACTORS.index(f) for f in name[1:-1].split(",")]
                         for name in _REQUIRED + _PITFALLS])


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
        required={name: CheckResult(commute[name], params, pair[name]) for name in _REQUIRED},
        pitfalls={name: CheckResult(not commute[name], params, pair[name]) for name in _PITFALLS},
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
        return bool(np.array_equal(self.alice_key.stack[0], self.bob_key.stack[0]))


def run_session(rs, params: FieldParams) -> SessionResult:
    """Run setup, both keygens, token exchange and both key derivations.

    The setup and both parties' material are one ``draw_segments`` call, so
    every nonsingular draw comes with its inverse and a session makes one
    elimination kernel call plus one per re-parse round.  Each party's
    factor inverses are built once, for its token and for the session key's
    inverse b3^-1 a3^-1 b2^-1 a2^-1 b1^-1 a1^-1; both keys and that inverse
    are one batched chain, with no elimination, and both keys certify it.
    """
    keygen = _keygen_draws(params)
    drawn, redraws = draw_segments(rs, params, _SETUP_DRAWS + keygen + keygen)
    setup = _setup(params, drawn[:1])
    alice = _private(setup, Role.ALICE, drawn[1:3])
    bob = _private(setup, Role.BOB, drawn[3:])
    tok_a, tok_b = alice_token(alice), bob_token(bob)
    # rows: Alice's a1 p a2 q a3 r, Bob's u b1 v b2 w b3, and K^-1
    k_a, k_b, k_inv = _chain(
        np.array([alice.factors[:3], tok_a.stack, bob.inverses[2::-1]]),
        np.array([tok_b.stack, bob.factors[:3], alice.inverses[2::-1]]),
        params.p,
    )
    return SessionResult(
        setup=setup,
        alice=alice,
        bob=bob,
        alice_pub=tok_a,
        bob_pub=tok_b,
        alice_key=SessionKey._from_stacks(params, k_a, k_inv),
        bob_key=SessionKey._from_stacks(params, k_b, k_inv),
        singular_redraws=redraws,
    )
