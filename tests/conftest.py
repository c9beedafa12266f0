import random
from fractions import Fraction
from pathlib import Path

import pytest

from lodayops.algebra import AlgebraSpec, product_fixture, suspension_fixture
from lodayops.algfile import load_algebra
from lodayops.fields import PrimeField

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def rng():
    return random.Random(20240901)


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURE_DIR


def _recast(alg, field, factor=1):
    """The algebra with every structure constant times ``factor``, over
    ``field``."""
    tables = {op: {cell: {k: field.from_fraction(Fraction(c) * factor)
                          for k, c in row.items()}
                   for cell, row in table.items()}
              for op, table in alg.tables.items()}
    return AlgebraSpec(alg.type_tag, field, alg.dim, alg.basis, tables)


@pytest.fixture(scope="session")
def case_algebra():
    """Builds the algebra named by a test case: ``product:<type>`` (dim 2),
    ``suspension:<type>``, ``file:<fixture>``, or ``fp101:<fixture>`` and
    ``scaled:<fixture>``, the fixture over F_101 and with every structure
    constant times 2/3."""
    def build(case):
        source, name = case.split(":")
        if source == "product":
            return product_fixture(name, 2)
        if source == "suspension":
            return suspension_fixture(name)
        alg = load_algebra(FIXTURE_DIR / ("%s.alg" % name),
                           warn=lambda m: None)
        if source == "fp101":
            return _recast(alg, PrimeField(101))
        if source == "scaled":
            return _recast(alg, alg.field, Fraction(2, 3))
        return alg
    return build
