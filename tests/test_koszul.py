"""Each shipped parameter family is the Koszul dual of its axiom table.

A type's cochains are Hom(K[U_n] (x) A^(x)n, A), with U_n a basis of
P^!(n), the arity-n part of the Koszul dual of the nonsymmetric operad P
that the type's axioms present (Ginzburg-Kapranov, "Koszul duality for
operads", Duke Math. J. 76, 1994).  These tests derive P^! from
``AXIOMS`` and ``OPS`` alone, with no cochain, R table or parameter
enumeration:

* R is the span of the axioms in the 2k^2 quadratic monomials
  (x a y) b z and x c (y d z) on the k operations;
* R^perp is its orthogonal under the pairing that is +1 on the left combs
  (x a y) b z and -1 on the right combs x c (y d z);
* P^!(n) is the arity-n part of the free nonsymmetric operad on the k
  operations modulo the ideal that R^perp generates, eliminated mod
  1,000,003 by ``linalg.rank_bareiss``.

dim P^!(n) must be |U_n|, ``family_size(PARAM_KIND[t], n)``, for n <= 5,
and R^perp must span the axioms of the dual type, the operations matched
by name: dias and didend, trias and tridend, and tricub with itself.
tricub's size check is left out: its shipped ``signs`` family has 3^n
elements, against P^!(n) = 3^(n-1), and the switch to the family of gap
signs is ROADMAP item 2.
"""

from functools import lru_cache
from itertools import product

import pytest

from lodayops.algebra import AXIOMS, OPS, PARAM_KIND
from lodayops.linalg import rank_bareiss
from lodayops.params import family_size

P = 1_000_003
MAX_ARITY = 5

# dim P^!(1..5), which the shipped families must match
DUAL_DIMS = {
    "dias": [1, 2, 5, 14, 42],
    "didend": [1, 2, 3, 4, 5],
    "trias": [1, 3, 11, 45, 197],
    "tridend": [1, 3, 7, 15, 31],
}

DUAL_PAIRS = [("dias", "didend"), ("didend", "dias"), ("trias", "tridend"),
              ("tridend", "trias"), ("tricub", "tricub")]


def _monomials(t):
    """The quadratic monomials of type t, by operation name: ("L", a, b) is
    (x a y) b z and ("R", c, d) is x c (y d z)."""
    return sorted((side, a, b) for side in "LR"
                  for a in OPS[t] for b in OPS[t])


def _axioms(t):
    """R: one row {monomial: coefficient} per axiom, left side minus right."""
    rows = []
    for lhs, rhs in AXIOMS[t]:
        row = {}
        for key, sign in ([(("L", a, b), 1) for a, b in lhs]
                          + [(("R", c, d), -1) for c, d in rhs]):
            row[key] = row.get(key, 0) + sign
        rows.append(row)
    return rows


def _null_space(rows, ncols):
    """A basis mod P of the vectors v with row . v = 0 for every row."""
    rows = [[v % P for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        lead = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if lead is None:
            continue
        rows[rank], rows[lead] = rows[lead], rows[rank]
        inv = pow(rows[rank][c], -1, P)
        rows[rank] = [v * inv % P for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                rows[i] = [(v - row[c] * w) % P
                           for v, w in zip(row, rows[rank])]
        pivots.append(c)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[free] = 1
        for row, c in zip(rows, pivots):
            vec[c] = -row[free] % P
        basis.append(vec)
    return basis


@lru_cache(maxsize=None)
def _dual_relations(t):
    """R^perp, as rows {monomial: coefficient}."""
    keys = _monomials(t)
    paired = [[row.get(m, 0) * (1 if m[0] == "L" else -1) for m in keys]
              for row in _axioms(t)]
    return tuple({m: v for m, v in zip(keys, vec) if v}
                 for vec in _null_space(paired, len(keys)))


@lru_cache(maxsize=None)
def _shapes(n, ternary):
    """The planar trees with n leaves whose vertices are binary but for
    ``ternary`` (0 or 1) ternary ones; a vertex is the tuple of its
    children, a leaf is None."""
    if n == 1:
        return () if ternary else (None,)
    out = [(left, right) for i in range(1, n) for t in range(ternary + 1)
           for left in _shapes(i, t) for right in _shapes(n - i, ternary - t)]
    if ternary:
        out += [children for i in range(1, n - 1) for j in range(1, n - i)
                for children in product(_shapes(i, 0), _shapes(j, 0),
                                        _shapes(n - i - j, 0))]
    return tuple(out)


def _elements(t, shape, relations):
    """Each element of the free operad on shape: every labelling of its
    binary vertices by operations and of its ternary vertex by a relation,
    as {monomial: coefficient}.  A monomial is a leaf (None) or a tuple
    (operation, left, right)."""
    if shape is None:
        yield {None: 1}
        return
    labels = OPS[t] if len(shape) == 2 else relations
    subtrees = [list(_elements(t, child, relations)) for child in shape]
    for label in labels:
        for parts in product(*subtrees):
            out = {}
            for terms in product(*(part.items() for part in parts)):
                (x, a), (y, b) = terms[:2]
                if len(shape) == 2:
                    out[(label, x, y)] = a * b
                    continue
                z, c = terms[2]
                for (side, o1, o2), v in label.items():
                    key = ((o2, (o1, x, y), z) if side == "L"
                           else (o1, x, (o2, y, z)))
                    out[key] = (out.get(key, 0) + a * b * c * v) % P
            yield out


def _dual_dim(t, n):
    """dim P^!(n): the free monomials of arity n, less the rank of the
    ideal of R^perp in arity n."""
    column = {}
    for shape in _shapes(n, 0):
        for element in _elements(t, shape, ()):
            column[next(iter(element))] = len(column)
    rows = [{column[m]: v for m, v in element.items() if v}
            for shape in _shapes(n, 1)
            for element in _elements(t, shape, _dual_relations(t))]
    return len(column) - rank_bareiss(rows, len(column), P)


def _rank(rows, keys):
    index = {m: i for i, m in enumerate(keys)}
    return rank_bareiss([{index[m]: v % P for m, v in row.items()}
                         for row in rows], len(keys), P)


@pytest.mark.parametrize("t", sorted(DUAL_DIMS))
def test_dual_dimension_is_the_family_size(t):
    dims = [_dual_dim(t, n) for n in range(1, MAX_ARITY + 1)]
    assert dims == DUAL_DIMS[t] == [family_size(PARAM_KIND[t], n)
                                    for n in range(1, MAX_ARITY + 1)]


@pytest.mark.parametrize("t,partner", DUAL_PAIRS,
                         ids=["%s-%s" % pair for pair in DUAL_PAIRS])
def test_dual_relations_are_the_partner_axioms(t, partner):
    keys = _monomials(t)
    assert keys == _monomials(partner)
    dual, axioms = _dual_relations(t), _axioms(partner)
    assert len(dual) == 2 * len(OPS[t]) ** 2 - len(AXIOMS[t])
    assert _rank(dual, keys) == _rank(axioms, keys) == \
        _rank(list(dual) + axioms, keys)
