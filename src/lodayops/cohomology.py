"""Exact cohomology of the cochain complex and the induced structure on it.

The cells of a degree-n cochain are keyed by its flat index in the order
(parameter index, input tuple, output index), so a cochain is a sparse
vector of length |U_n| * d^(n+1) and the differential a sparse matrix per
degree in the same coordinates.  There are no cochains below degree 1,
so H^1 = ker d^1; every report states this convention.

Each matrix of d is stored once, over the field of its algebra, as its
sparse columns in column order: the layout in which it is assembled,
applied, multiplied and eliminated.  The (row, col) triples are derived
from the columns on demand.  Each matrix carries the field engine's
triangular column echelon (each pivot on the sparsest row of its reduced
column, and never changed), eliminated on first use; kernels,
representatives and coboundary witnesses are all read from it.  Ranks come
by default from the fraction-free row engine, which reads the columns as
the rows of the transpose, runs over Q on primitive integer rows and over
F_p on integer rows reduced mod p, and shares no code with the echelon.
The ``engine`` argument of ``matrix_rank`` and ``cohomology_dims`` picks
``"bareiss"`` or ``"echelon"``, and a dimension is trusted only once the
two agree; the CLI's ``rank-engines-agree`` check compares them on both
fields.

A class of H^n is given by its representative, a cocycle ``Cochain``.
``check_g_algebra`` builds each law instance on representatives as one
signed sum and asks the cached echelon whether it is a coboundary; each
instance gives one ``identities.LawCheck``.
"""

from itertools import product
from operator import itemgetter
from typing import NamedTuple

from . import linalg
from .cochains import (Cochain, _signed_sum, bracket, cochain_dim, diff_d,
                       dot, zero_cochain)
from .identities import LawCheck
from .params import family_size
from .preoperadic import r_index_tables

ENGINES = ("bareiss", "echelon")


class DifferentialMatrix:
    """Sparse matrix of d: C^n -> C^(n+1) over ``field``, stored by columns:
    ``columns[c]`` maps each row to its nonzero value in column c."""

    __slots__ = ("degree", "nrows", "ncols", "columns", "field", "_echelon")

    def __init__(self, degree, nrows, ncols, columns, field):
        self.degree, self.nrows, self.ncols = degree, nrows, ncols
        self.columns, self.field, self._echelon = columns, field, None

    @property
    def entries(self):
        """The (row, col, value) triples sorted by (row, col), built anew on
        each access."""
        # the triples come in column order, so a stable sort by row gives
        # the (row, col) order without comparing tuples
        entries = [(r, c, v) for c, col in enumerate(self.columns)
                   for r, v in col.items()]
        entries.sort(key=itemgetter(0))
        return tuple(entries)

    def echelon(self):
        """The field engine's column echelon, eliminated on first use."""
        if self._echelon is None:
            self._echelon = linalg.column_echelon(self.columns, self.field)
        return self._echelon

    def apply(self, cells):
        """M x for a sparse vector x ({column: value}), as {row: value}
        without zeros."""
        out = {}
        get = out.get
        for c, x in cells.items():
            for r, v in self.columns[c].items():
                out[r] = get(r, 0) + v * x
        return self.field.collect(out)


def matrix_of_d(ctx, n):
    """Matrix of d on degree n, assembled by linearity from the index tables.

    Column (u, b, o) is d e for the basis cochain e with the single cell
    e(u; b) = e_o.  By SIGN_NOTES.md

        d e =   gamma(pi; e, Id) + (-1)^|e| gamma(pi; Id, e)
              - (-1)^|e| sum_s (-1)^s gamma(e; Id,...,pi at s,...,Id),

    so every entry is a signed cell of pi read through ``r_index_tables``
    on the n+2 profiles (n, 1), (1, n) and (1,...,2 at s,...,1).  On the
    first two, R_1 or R_2 of the output parameter r gives u and pi is read
    at R_0(r); on the third, R_0(r) gives u and each cell of pi at R_s(r)
    with output b_s puts its pair of inputs in place of b_s.  One walk per
    profile files every r under the u it feeds.  The columns of one u are
    then summed with the plain operators and finished by the field's collect
    step, one parameter at a time.  No cochain is built per column.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    cached = ctx.matrix_cache.get(n)
    if cached is not None:
        return cached
    alg = ctx.alg
    kind = alg.kind
    d = alg.dim
    collect = alg.field.collect
    width = d ** n                  # input tuples b of a degree-n cochain
    col_stride = width * d          # columns (b, o) per parameter u
    row_stride = col_stride * d     # rows per output parameter r
    nparams = family_size(kind, n)

    # the cells of pi at each parameter as (first input, second input,
    # output, coefficient), and by output as (input pair, coefficient) with
    # the coefficient as it is and negated
    cells, preimages, negated = {}, {}, {}
    for key, a in ctx.pi.cells.items():
        rest, out = divmod(key, d)
        p, pair = divmod(rest, d * d)
        cells.setdefault(p, []).append((pair // d, pair % d, out, a))
        preimages.setdefault(p, {}).setdefault(out, []).append((pair, a))
        negated.setdefault(p, {}).setdefault(out, []).append((pair, -a))

    def filed(u_of, at):
        """Each output parameter r, as (r, at[r]), under the column
        parameter u_of[r] it feeds."""
        by_u = [[] for _ in range(nparams)]
        for r, (u, p) in enumerate(zip(u_of, at)):
            by_u[u].append((r, p))
        return by_u

    # u is R_1 r on the profile (n, 1), R_2 r on (1, n) and R_0 r on the
    # profile with 2 at s; pi is read at R_0 r, R_0 r and R_s r
    r0, (u_of, _) = r_index_tables(kind, (n, 1))
    left = filed(u_of, r0)
    r0, (_, u_of) = r_index_tables(kind, (1, n))
    right = filed(u_of, r0)
    inner = []
    for s in range(n):
        r0, part_tables = r_index_tables(
            kind, (1,) * s + (2,) + (1,) * (n - 1 - s))
        inner.append(filed(r0, part_tables[s]))

    # each walk adds its cells of pi, negated where its sign is -1
    right_sign = -1 if (n - 1) % 2 else 1
    columns = []
    for u in range(nparams):
        cols = [{} for _ in range(col_stride)]  # column (u, b, o) at b * d + o
        # gamma(pi; e, Id): (r; b, y) -> pi(R_0 r; e_o, e_y)
        for r, i0 in left[u]:
            for o, y, out, a in cells.get(i0, ()):
                row = r * row_stride + y * d + out
                for b in range(width):
                    acc = cols[b * d + o]
                    key = row + b * d * d
                    acc[key] = acc.get(key, 0) + a
        # (-1)^|e| gamma(pi; Id, e): (r; y, b) -> pi(R_0 r; e_y, e_o)
        for r, i0 in right[u]:
            for y, o, out, a in cells.get(i0, ()):
                row = r * row_stride + y * col_stride + out
                a *= right_sign
                for b in range(width):
                    acc = cols[b * d + o]
                    key = row + b * d
                    acc[key] = acc.get(key, 0) + a
        # -(-1)^|e| (-1)^s gamma(e; Id,...,pi at s,...,Id): the input b_s is
        # replaced by each pair (x, y) with pi(R_s r; e_x, e_y) = a e_(b_s)
        for s, by_u in enumerate(inner):
            place = d ** (n - 1 - s)    # weight of b_s in b
            signed = negated if (n + s) % 2 else preimages
            for r, p in by_u[u]:
                for k, pairs in signed.get(p, {}).items():
                    for rest in range(width // d):
                        high, low = divmod(rest, place)
                        col = ((high * d + k) * place + low) * d
                        base = r * width * d + high * d * d * place + low
                        for pair, a in pairs:
                            row = (base + pair * place) * d
                            for o in range(d):
                                acc = cols[col + o]
                                key = row + o
                                acc[key] = acc.get(key, 0) + a
        columns.extend(collect(acc) for acc in cols)
    matrix = DifferentialMatrix(n, cochain_dim(alg, n + 1),
                                cochain_dim(alg, n), tuple(columns),
                                alg.field)
    ctx.matrix_cache[n] = matrix
    return matrix


def matrix_product_is_zero(a, b, field):
    """Whether the sparse product a*b vanishes (b maps into a's source);
    both matrices must be over ``field``."""
    if not a.field == b.field == field:
        raise ValueError("matrices over %s and %s used over %s"
                         % (a.field.name, b.field.name, field.name))
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    return not any(a.apply(col) for col in b.columns)


def matrix_rank(matrix, engine="bareiss"):
    if engine not in ENGINES:
        raise ValueError("unknown engine %r" % engine)
    if engine == "bareiss":
        # rank M = rank M^T: the columns are the rows of the transpose
        return linalg.rank_bareiss([c.items() for c in matrix.columns],
                                   matrix.nrows, matrix.field.characteristic)
    return matrix.echelon().rank


def cohomology_dims(ctx, max_degree, engine="bareiss"):
    """[(n, dim H^n)] for 1 <= n <= max_degree; H^1 = ker d^1."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    ranks = {}
    for n in range(1, max_degree + 1):
        ranks[n] = matrix_rank(matrix_of_d(ctx, n), engine)
    out = []
    for n in range(1, max_degree + 1):
        nullity = cochain_dim(ctx.alg, n) - ranks[n]
        boundary_rank = ranks[n - 1] if n > 1 else 0
        out.append((n, nullity - boundary_rank))
    return out


def cocycle_representatives(ctx, n):
    """Deterministic cocycle representatives of a basis of H^n: the kernel
    vectors of d^n that are independent modulo im d^(n-1) and the ones
    before them, as cochains; each is checked to be a cocycle."""
    alg = ctx.alg
    ker = matrix_of_d(ctx, n).echelon().kernel
    if n > 1:
        below = matrix_of_d(ctx, n - 1).echelon()
        ker = [ker[i] for i in linalg.independent_mod_image(below, ker)]
    reps = [Cochain(alg, n, vec) for vec in ker]
    for rep in reps:
        if not diff_d(ctx, rep).is_zero():
            raise ValueError("representative is not a cocycle")
    return reps


def coboundary_preimage(ctx, c):
    """Some b with d b = c when c is a coboundary, else None.

    Degree 1 has no incoming differential, so only c = 0 succeeds there;
    the witness returned in that case is the degree-1 zero cochain, standing
    in for the nonexistent degree-0 module.
    """
    n = c.degree
    if n < 2:
        if c.is_zero():
            return zero_cochain(ctx.alg, 1)
        return None
    sol = matrix_of_d(ctx, n - 1).echelon().preimage(c.cells)
    if sol is None:
        return None
    return Cochain(ctx.alg, n - 1, sol)


def is_coboundary(ctx, c):
    return coboundary_preimage(ctx, c) is not None


class GAlgebraReport(NamedTuple):
    max_degree: int
    checks: list
    reps_per_degree: dict

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def check_g_algebra(ctx, max_degree):
    """Verify, up to coboundary, that cohomology is a G-algebra:

    (1) x.y - (-1)^(deg x deg y) y.x is a coboundary;
    (2) [x, y.z] - [x,y].z - (-1)^(|x| deg y) y.[x,z] is a coboundary;
    (3) graded Jacobi for the bracket holds up to coboundary;

    over all representative pairs/triples of total degree <= max_degree.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    reps = {n: cocycle_representatives(ctx, n) for n in range(1, max_degree)}
    degs = [n for n in reps if reps[n]]

    def classes(count):
        """Every tuple of ``count`` representatives of total degree at most
        max_degree, by degree tuple and then by representatives."""
        for ns in product(degs, repeat=count):
            if sum(ns) <= max_degree:
                yield from product(*(reps[n] for n in ns))

    checks = []
    for x, y in classes(2):
        comm = _signed_sum(ctx.alg, x.degree + y.degree, (
            (False, dot(ctx, x, y)),
            ((x.degree * y.degree) % 2 == 0, dot(ctx, y, x))))
        checks.append(LawCheck("graded-commutativity", (x.degree, y.degree),
                               is_coboundary(ctx, comm)))

    for x, y, z in classes(3):
        degrees = (x.degree, y.degree, z.degree)
        derivation = _signed_sum(ctx.alg, sum(degrees) - 1, (
            (False, bracket(x, dot(ctx, y, z))),
            (True, dot(ctx, bracket(x, y), z)),
            ((x.shifted * y.degree) % 2 == 0, dot(ctx, y, bracket(x, z)))))
        checks.append(LawCheck("bracket-derivation", degrees,
                               is_coboundary(ctx, derivation)))

        jacobi = _signed_sum(ctx.alg, sum(degrees) - 2, (
            (False, bracket(x, bracket(y, z))),
            (True, bracket(bracket(x, y), z)),
            ((x.shifted * y.shifted) % 2 == 0, bracket(y, bracket(x, z)))))
        checks.append(LawCheck("graded-jacobi", degrees,
                               is_coboundary(ctx, jacobi)))

    return GAlgebraReport(max_degree, checks,
                          {n: len(v) for n, v in reps.items()})
