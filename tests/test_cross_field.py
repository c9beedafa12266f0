"""Entrywise agreement of the Q and F_101 computations.

trias_dim2 is written with every structure constant times 103, each as two
entries 100 and 103 c - 100, once over Q and once over F_101.  Scaling keeps
the trias axioms, since both sides of each are quadratic in the constants,
and 103 = 2 mod 101, so values past p arise in every sum and product.  Each
result over F_101 must be its Q counterpart reduced mod 101 without zeros.
The reduction here uses the operators and its own ``% P``, apart from the
fields' collect step.
"""

import random

import pytest

from lodayops.algebra import AlgebraSpec, multiply
from lodayops.algfile import parse_algebra
from lodayops.cochains import (Cochain, MultContext,
                               canonical_multiplication, cochain_dim,
                               delta_trias, diff_d)
from lodayops.cohomology import matrix_of_d
from lodayops.fields import QQ, PrimeField

P = 101
SCALE = 103


def _mod(values):
    """A dict of Q values reduced mod P, without the entries that vanish."""
    return {k: v % P for k, v in values.items() if v % P}


def _scaled_text(fixture_dir, field):
    lines = []
    with open(fixture_dir / "trias_dim2.alg", encoding="utf-8") as fh:
        source = fh.readlines()
    for raw in source:
        tokens = raw.split()
        if tokens[:1] == ["field"]:
            raw = "field = %s\n" % field
        elif len(tokens) == 4 and all(t.isdigit() for t in tokens[:3]):
            cell = " ".join(tokens[:3])
            rest = int(tokens[3]) * SCALE - 100
            raw = "%s 100\n%s %d\n" % (cell, cell, rest)
        lines.append(raw)
    return "".join(lines)


@pytest.fixture(scope="module")
def algebras(fixture_dir):
    return tuple(parse_algebra(_scaled_text(fixture_dir, field))
                 for field in ("Q", "Fp:%d" % P))


def test_parsed_tables_agree(algebras):
    alg_q, alg_p = algebras
    assert alg_q.tables["left"][(0, 0)] == {0: SCALE}
    assert alg_p.tables == {
        op: {cell: _mod(row) for cell, row in table.items()}
        for op, table in alg_q.tables.items()}


def test_products_agree(algebras):
    # -e_i op -e_j: over F_101 the factors are 100, so every product passes p
    alg_q, alg_p = algebras
    for op in alg_q.ops:
        for i in range(alg_q.dim):
            for j in range(alg_q.dim):
                x, y = {i: -1}, {j: -1}
                assert multiply(alg_p, op, _mod(x), _mod(y)) == \
                    _mod(multiply(alg_q, op, x, y))


def test_pi_agrees():
    # a tridend whose three constants sum to 304 = 1 mod 101; over F_101
    # they are 2, 2 and 98, so pi, their sum, passes p
    tables = {op: {(0, 0): {0: c}}
              for op, c in (("left", SCALE), ("middle", SCALE),
                            ("right", 98))}
    alg_q, alg_p = (AlgebraSpec("tridend", field, 1, None, tables)
                    for field in (QQ, PrimeField(P)))
    assert alg_p.tables == {op: {(0, 0): _mod(table[(0, 0)])}
                            for op, table in alg_q.tables.items()}
    pi_q, pi_p = (canonical_multiplication(alg) for alg in (alg_q, alg_p))
    assert pi_q.cells == {0: 304, 1: 304, 2: 304}
    assert pi_p.cells == _mod(pi_q.cells)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrices_of_d_agree(algebras, n):
    ctx_q, ctx_p = (MultContext(alg) for alg in algebras)
    m_q, m_p = matrix_of_d(ctx_q, n), matrix_of_d(ctx_p, n)
    assert m_p.columns == tuple(_mod(col) for col in m_q.columns)
    assert m_p.echelon().rank == m_q.echelon().rank
    rng = random.Random("apply:%d" % n)
    for _ in range(20):
        x = {c: rng.choice((-5, -1, 1, 3, SCALE, 2 * P + 7))
             for c in rng.sample(range(m_q.ncols), 4)}
        assert diff_d(ctx_p, Cochain(ctx_p.alg, n, _mod(x))).cells == \
            _mod(diff_d(ctx_q, Cochain(ctx_q.alg, n, x)).cells)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_trias_agrees(algebras, n):
    alg_q, alg_p = algebras
    rng = random.Random("delta:%d" % n)
    for _ in range(20):
        cell = {rng.randrange(cochain_dim(alg_q, n)):
                rng.choice((-1, 1, SCALE, -2 * P - 3))}
        x_q, x_p = Cochain(alg_q, n, cell), Cochain(alg_p, n, cell)
        assert x_p.cells == _mod(x_q.cells)
        assert (-x_p).cells == _mod((-x_q).cells)
        assert delta_trias(alg_p, x_p).cells == \
            _mod(delta_trias(alg_q, x_q).cells)
