import sys
from pathlib import Path

import numpy as np
import pytest

from tdpkex import (
    AlicePrivate,
    BobPrivate,
    CipherMessage,
    DiagonalSpec,
    FieldParams,
    Matrix,
)
from tdpkex import field_matrix, protocol

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def p251():
    return FieldParams()


@pytest.fixture
def p5d2():
    return FieldParams(p=5, d=2)


@pytest.fixture
def spy(monkeypatch):
    """spy(module, name, record) wraps ``module.name`` for the test and returns its call list.

    Each call appends ``record(*args, **kwargs)`` (the arguments as a tuple
    when no record is given) and then runs the original function.  The
    wrapper replaces the name in ``module`` only, so spy on the module that
    calls the function: ``protocol.family_member``, not
    ``commuting.family_member``.
    """

    def install(module, name, record=lambda *args, **kwargs: args):
        calls = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(record(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return install


@pytest.fixture
def row_reductions(spy):
    """One entry per call of the stacked Gauss-Jordan kernel: the number of matrices it reduced.

    ``len`` counts kernel calls, ``sum`` counts eliminated matrices
    (determinants and inverses).
    """
    return spy(field_matrix, "_row_reduce", lambda m, p: len(m))


@pytest.fixture
def family_members(spy):
    """One entry per ``family_member`` call the protocol makes: the number of members it built."""

    def members(basis, basis_inv, eigenvalues, p):
        return int(np.prod(np.broadcast_shapes(basis.shape[:-2], np.shape(eigenvalues)[:-1])))

    return spy(protocol, "family_member", members)


@pytest.fixture
def built_matrices(monkeypatch):
    """One entry per validating construction, ``Matrix(...)`` or ``CipherMessage(...)``: the object built.

    ``len`` counts the checked wrappers a call builds, by wrapping each
    class's ``__init__``.  The trusted wrap ``_held`` builds with no
    ``__init__`` and no check, and is not counted here (see ``trusted_wraps``).
    """
    built = []
    for cls in (Matrix, CipherMessage):
        def counted(self, *args, init=cls.__init__, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.fixture
def trusted_wraps(monkeypatch):
    """One entry per ``Matrix._held`` or ``CipherMessage._held`` call through the class: the object built.

    ``_held`` is the value base's trusted wrap, ``_hold`` with no check.  A
    protocol member binds ``Matrix._held`` when its class is defined, so
    member reads are not seen here, and neither are the protocol objects'
    own ``_held`` calls.
    """
    wrapped = []
    for cls in (Matrix, CipherMessage):
        def counted(*args, held=cls._held):
            wrapped.append(held(*args))
            return wrapped[-1]

        monkeypatch.setattr(cls, "_held", counted)
    return wrapped


def identity_privates(setup):
    """Degenerate all-identity key pair on a given setup (valid but weak)."""
    params = setup.params
    ones = DiagonalSpec(params, (1,) * params.d)
    ident = Matrix.identity(params)
    alice = AlicePrivate(setup, ones, ones, ones, ones, ident, ident, ident, ident, ident)
    bob = BobPrivate(setup, ones, ones, ones, ones, ident, ident, ident, ident, ident)
    return alice, bob
