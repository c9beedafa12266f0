"""H^1 and H^2 read off the axiom table, against the complex.

There are no degree-0 cochains, so H^1 should be Der(A), the maps D with
D(x op y) = Dx op y + x op Dy for every operation.  H^2 should count the
infinitesimal deformations: the tuples c = (c_op) of bilinear maps that
solve the type's axioms linearised at A, modulo the c = delta D of
D in End(A), whose span has dimension d^2 - dim Der for d = dim A.  So

    H^1 = dim Der,    H^2 = dim Z - (d^2 - dim Der)

with Z the solutions of the linearised axioms (Gerstenhaber, "On the
deformation of rings and algebras", Ann. Math. 79, 1964).  Both systems are
built here from ``AXIOMS`` and the structure constants alone, with no
cochain, ``gamma``, R table or matrix of d, and eliminated by
``linalg.column_echelon``, which ``cohomology_dims`` does not use: the
unknowns are the columns, so the kernel is the solution space.

Only dias and trias are checked.  For didend, tridend and tricub the
shipped complex reads pi as the sum of the operations at every element of
U_2, and its H^1 and H^2 differ from these routes (ROADMAP item 2).
"""

import pytest

from lodayops.algebra import AXIOMS
from lodayops.cochains import MultContext
from lodayops.cohomology import cohomology_dims
from lodayops.fields import QQ, PrimeField
from lodayops.linalg import column_echelon

from corpus import product_fixture, suspension_fixture

# (H^1, H^2) of each case, over Q and over F_101
EXPECTED = {
    "file:dias_dim1": (0, 0),
    "file:trias_dim1": (0, 0),
    "file:trias_dim2": (1, 1),
    "product:dias": (1, 1),
    "product:trias": (1, 1),
    "suspension:dias": (22, 124),
    "suspension:trias": (30, 292),
}


def _algebra(case_algebra, case, field):
    """The algebra of ``case`` over ``field``: a product of dimension 2, a
    suspension, or a corpus file."""
    source, name = case.split(":")
    if source == "product":
        return product_fixture(name, 2, field)
    if source == "suspension":
        return suspension_fixture(name, field)
    return case_algebra(("file:" if field == QQ else "fp101:") + name)


def _solution_dim(field, columns):
    """dim of the solutions of the linear system whose unknowns have the
    sparse ``columns`` {equation: coefficient}."""
    echelon = column_echelon([field.collect(c) for c in columns.values()],
                             field)
    return len(echelon.kernel)


def _add(columns, unknown, equation, coeff):
    column = columns[unknown]
    column[equation] = column.get(equation, 0) + coeff


def _products(alg, op):
    """The structure constants (i, j, k, c): e_i op e_j has c e_k."""
    return [(i, j, k, c) for (i, j), out in alg.tables[op].items()
            for k, c in out.items()]


def derivation_dim(alg):
    """dim Der(A).  Unknown (a, b) is the coefficient of e_a in D(e_b);
    equation (op, i, j, k) is the e_k coefficient of
    D(e_i op e_j) - D(e_i) op e_j - e_i op D(e_j)."""
    span = range(alg.dim)
    columns = {(a, b): {} for a in span for b in span}
    for op in alg.ops:
        for i, j, m, c in _products(alg, op):
            for k in span:                      # D(e_i op e_j)
                _add(columns, (k, m), (op, i, j, k), c)
        for a, j, k, c in _products(alg, op):
            for i in span:                      # D(e_i) op e_j
                _add(columns, (a, i), (op, i, j, k), -c)
        for i, a, k, c in _products(alg, op):
            for j in span:                      # e_i op D(e_j)
                _add(columns, (a, j), (op, i, j, k), -c)
    return _solution_dim(alg.field, columns)


def deformation_cocycle_dim(alg):
    """dim Z.  Unknown (op, i, j, k) is the coefficient of e_k in
    c_op(e_i, e_j); equation (n, i, j, l, k) is the e_k coefficient at
    (x, y, z) = (e_i, e_j, e_l) of the t-linear part of axiom n with every
    operation op replaced by op + t c_op:

        sum over (a, b) on the left  of  c_b(x a y, z) + c_a(x, y) b z
      - sum over (c, d) on the right of  c_c(x, y d z) + x c c_d(y, z)
    """
    span = range(alg.dim)
    columns = {(op, i, j, k): {} for op in alg.ops
               for i in span for j in span for k in span}
    for n, (lhs, rhs) in enumerate(AXIOMS[alg.type_tag]):
        for a, b in lhs:
            for i, j, m, t in _products(alg, a):
                for l in span:
                    for k in span:              # c_b(x a y, z)
                        _add(columns, (b, m, l, k), (n, i, j, l, k), t)
            for m, l, k, t in _products(alg, b):
                for i in span:
                    for j in span:              # c_a(x, y) b z
                        _add(columns, (a, i, j, m), (n, i, j, l, k), t)
        for c, d in rhs:
            for j, l, m, t in _products(alg, d):
                for i in span:
                    for k in span:              # c_c(x, y d z)
                        _add(columns, (c, i, m, k), (n, i, j, l, k), -t)
            for i, m, k, t in _products(alg, c):
                for j in span:
                    for l in span:              # x c c_d(y, z)
                        _add(columns, (d, j, l, m), (n, i, j, l, k), -t)
    return _solution_dim(alg.field, columns)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_h1_is_derivations_and_h2_is_deformations(case_algebra, case, field):
    alg = _algebra(case_algebra, case, field)
    assert alg.field == field
    der = derivation_dim(alg)
    inner = alg.dim ** 2 - der          # dim of the span of the delta D
    routes = [(1, der), (2, deformation_cocycle_dim(alg) - inner)]
    assert routes == cohomology_dims(MultContext(alg), 2)
    assert (der, routes[1][1]) == EXPECTED[case]
