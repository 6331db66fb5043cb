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
    """A list that gains one entry per Gauss-Jordan elimination (determinant or inverse)."""
    calls = []
    row_reduce = field_matrix._row_reduce
    monkeypatch.setattr(
        field_matrix, "_row_reduce", lambda m, p: calls.append(p) or row_reduce(m, p)
    )
    return calls


def identity_privates(setup):
    """Degenerate all-identity key pair on a given setup (valid but weak)."""
    params = setup.params
    ones = DiagonalSpec(params, (1,) * params.d)
    ident = Matrix.identity(params)
    alice = AlicePrivate(setup, ones, ones, ones, ones, ident, ident, ident, ident, ident)
    bob = BobPrivate(setup, ones, ones, ones, ones, ident, ident, ident, ident, ident)
    return alice, bob
