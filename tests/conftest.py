import random
from fractions import Fraction

import pytest

from lodayops.algebra import PI_OPS, AlgebraSpec
from lodayops.algfile import load_algebra
from lodayops.fields import PrimeField

from corpus import FIXTURE_DIR, product_fixture, suspension_fixture

# [(n, dim H^n)] of each corpus file, filed after the fraction-free and
# echelon engines first agreed over Q and the F_101 run matched; frozen so
# that regressions surface as golden-file diffs.  trias_dim2 is filed
# through degree 4: rank d^3 = 155 and rank d^4 = 1,284 from every engine;
# H^5 = 1 is checked by the row engine over Q and F_101, and by the F_101
# echelon, in tests/test_cohomology.py (test_trias_dim2_degree_5[Q|F101])
GOLDEN_DIMS = {
    "dias_dim1": [(1, 0), (2, 0), (3, 0)],
    "didend_dim1": [(1, 0), (2, 1), (3, 0)],
    "trias_dim1": [(1, 0), (2, 0), (3, 0)],
    "tridend_dim1": [(1, 0), (2, 2), (3, 0)],
    "tricub_dim1": [(1, 0), (2, 0), (3, 0)],
    "trias_dim2": [(1, 1), (2, 1), (3, 1), (4, 1)],
    "zero_didend_dim1": [(1, 1), (2, 2), (3, 3)],
}


def t2_op(alg, u_idx):
    """The one operation pi reads at a weight-2 parameter, from PI_OPS."""
    op, = PI_OPS[alg.type_tag][u_idx]
    return op


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
        alg = load_algebra(FIXTURE_DIR / ("%s.alg" % name))
        if source == "fp101":
            return _recast(alg, PrimeField(101))
        if source == "scaled":
            return _recast(alg, alg.field, Fraction(2, 3))
        return alg
    return build
