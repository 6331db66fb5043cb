import sys
from pathlib import Path

import pytest

from tdpkex import (
    AlicePrivate,
    BobPrivate,
    DiagonalSpec,
    FieldParams,
    Matrix,
)
from tdpkex import field_matrix

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def p251():
    return FieldParams()


@pytest.fixture
def p5d2():
    return FieldParams(p=5, d=2)


@pytest.fixture
def row_reductions(monkeypatch):
    """One entry per call of the stacked Gauss-Jordan kernel: the number of matrices it reduced.

    ``len`` counts kernel calls, ``sum`` counts eliminated matrices
    (determinants and inverses).
    """
    calls = []
    row_reduce = field_matrix._row_reduce
    monkeypatch.setattr(
        field_matrix, "_row_reduce", lambda m, p: calls.append(len(m)) or row_reduce(m, p)
    )
    return calls


@pytest.fixture
def built_matrices(monkeypatch):
    """One entry per Matrix constructed, so ``len`` counts the wrappers a call builds."""
    built = []
    post_init = Matrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Matrix, "__post_init__", counted)
    return built


def identity_privates(setup):
    """Degenerate all-identity key pair on a given setup (valid but weak)."""
    params = setup.params
    ones = DiagonalSpec(params, (1,) * params.d)
    ident = Matrix.identity(params)
    alice = AlicePrivate(setup, ones, ones, ones, ones, ident, ident, ident, ident, ident)
    bob = BobPrivate(setup, ones, ones, ones, ones, ident, ident, ident, ident, ident)
    return alice, bob
