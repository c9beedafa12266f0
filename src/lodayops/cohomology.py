"""Exact cohomology of the cochain complex and the induced structure on it.

The cells of a degree-n cochain are keyed by its flat index in the order
(parameter index, input tuple, output index), so a cochain is a sparse
vector of length |U_n| * d^(n+1) and the differential a sparse matrix per
degree in the same coordinates.  There are no cochains below degree 1,
so H^1 = ker d^1; every report states this convention.

Each matrix of d is the signed sum of the n+2 cofaces that pi makes on
the cochains, assembled from the index tables and stored once, over the
field of its algebra, as its sparse columns in column order: the layout
in which it is assembled, applied, multiplied and eliminated.  The (row,
col) triples are derived from the columns on demand.  Each matrix carries
the field engine's triangular column echelon (each pivot on the sparsest
row of its reduced column, and never changed), eliminated on first use;
kernels, representatives and coboundary witnesses are all read from it.
Ranks come by default from the fraction-free row engine, which reads the
columns as the rows of the transpose, runs over Q on primitive integer
rows and over F_p on integer rows reduced mod p, and shares no code with
the echelon.  The ``engine`` argument of ``matrix_rank`` and
``cohomology_dims`` picks ``"bareiss"`` or ``"echelon"``, and a dimension
is trusted only once the two agree; the CLI's ``rank-engines-agree``
check compares them on both fields.

A class of H^n is given by its representative, a cocycle ``Cochain``.
``check_g_algebra`` builds each law instance on representatives as one
signed sum and asks the cached echelon whether it is a coboundary; each
instance gives one ``identities.LawCheck``.
"""

from itertools import product
from operator import itemgetter
from typing import NamedTuple

from . import linalg
from .cochains import (Cochain, _options, _rows, _signed_sum, bracket,
                       cochain_dim, diff_d, dot, zero_cochain)
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
        without zeros.  A key outside ``range(ncols)`` raises ValueError."""
        if cells:
            low, high = min(cells), max(cells)
            if low < 0 or high >= self.ncols:
                raise ValueError("column keys %r..%r are not all in range(%d)"
                                 % (low, high, self.ncols))
        out = {}
        get = out.get
        for c, x in cells.items():
            for r, v in self.columns[c].items():
                out[r] = get(r, 0) + v * x
        return self.field.collect(out)


def matrix_of_d(ctx, n):
    """Matrix of d on degree n, assembled by linearity from the index tables.

    Column (u, b, o) is d e for the basis cochain e with the single cell
    e(u; b) = e_o.  It is the sum of the n+2 signed coface walks of
    ``_cofaces``, as d = (-1)^(n+1) sum_i (-1)^i delta^i (SIGN_NOTES.md).
    No cochain is built per column.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n not in ctx.matrix_cache:
        ctx.matrix_cache[n] = _summed(ctx, n, _cofaces(ctx, n))
    return ctx.matrix_cache[n]


def _summed(ctx, n, walks):
    """The matrix on degree n of the sum of ``walks``, each parameter's
    columns summed with the plain operators and then collected."""
    alg = ctx.alg
    columns = []
    for u in range(family_size(alg.kind, n)):
        cols = [{} for _ in range(alg.dim ** (n + 1))]  # (u, b, o) at b*d + o
        for walk in walks:
            walk(cols, u)
        columns.extend(alg.field.collect(acc) for acc in cols)
    return DifferentialMatrix(n, cochain_dim(alg, n + 1), cochain_dim(alg, n),
                              tuple(columns), alg.field)


def _cofaces(ctx, n):
    """The cofaces delta^0..delta^(n+1) on degree n, delta^i signed by
    (-1)^(n+1+i), as walks: ``walk(cols, u)`` adds its entries in column
    (u, b, o) to ``cols[b * d + o]``.  delta^0 e = gamma(pi; Id, e) and
    delta^(n+1) e = gamma(pi; e, Id) read pi at R_0 r on (1, n) and (n, 1);
    delta^i e = gamma(e; Id,..,pi at s,..,Id), s = i-1, reads pi at R_s r on
    (1,..,2 at s,..,1).  Each output parameter r is filed under its u."""
    kind, d = ctx.alg.kind, ctx.alg.dim
    width = d ** n                  # input tuples b of a degree-n cochain
    col_stride = width * d          # columns (b, o) per parameter u
    row_stride = col_stride * d     # rows per output parameter r
    rows = _rows(ctx.pi)            # [(p, (x, y), [(out, a)])]
    options = _options(ctx.pi)      # {p * d + out: [(x * d + y, a)]}

    def outer(sign, slot, by_u):
        """e in pi's ``slot``: each cell of pi at R_0 r with o in that slot
        and z in the other gives its output to (r; b, z) or (r; z, b)."""
        b_weight, z_weight = (d * d, d) if slot == 0 else (d, col_stride)
        cells = {}
        for p, pair, vec in rows:
            cells.setdefault(p, []).extend(
                (pair[slot], pair[1 - slot] * z_weight + out, sign * a)
                for out, a in vec)

        def walk(cols, u):
            for r, p in by_u[u]:
                for o, offset, a in cells.get(p, ()):
                    row = r * row_stride + offset
                    for b in range(width):
                        acc = cols[b * d + o]
                        key = row + b * b_weight
                        acc[key] = acc.get(key, 0) + a
        return walk

    def inner(sign, s, by_u):
        """pi in e's slot s: the input b_s is replaced by each pair (x, y)
        with pi(R_s r; e_x, e_y) = a e_(b_s)."""
        place = d ** (n - 1 - s)        # weight of b_s in b
        signed = {}                     # by parameter, the outputs pi has
        for key, pairs in options.items():
            p, k = divmod(key, d)
            signed.setdefault(p, {})[k] = [(pair * place * d, sign * a)
                                           for pair, a in pairs]

        def walk(cols, u):
            for r, p in by_u[u]:
                for k, pairs in signed.get(p, {}).items():
                    for rest in range(width // d):
                        high, low = divmod(rest, place)
                        col = ((high * d + k) * place + low) * d
                        base = (r * width * d + high * d * d * place + low) * d
                        for pair, a in pairs:
                            row = base + pair
                            for o in range(d):
                                acc = cols[col + o]
                                key = row + o
                                acc[key] = acc.get(key, 0) + a
        return walk

    walks = []
    for i in range(n + 2):
        is_outer = i in (0, n + 1)
        slot = (0 if i else 1) if is_outer else i - 1
        parts = [1] * (2 if is_outer else n)
        parts[slot] = n if is_outer else 2
        r0, tables = r_index_tables(kind, tuple(parts))
        u_of, at = (tables[slot], r0) if is_outer else (r0, tables[slot])
        by_u = [[] for _ in range(family_size(kind, n))]
        for r, (u, p) in enumerate(zip(u_of, at)):
            by_u[u].append((r, p))
        sign = -1 if (n + 1 + i) % 2 else 1
        walks.append((outer if is_outer else inner)(sign, slot, by_u))
    return walks


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
    if c.alg != ctx.alg:
        raise ValueError("cochain does not belong to this context")
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
