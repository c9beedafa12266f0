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
The dimensions of ``cohomology_dims`` come from the fraction-free row
engine alone, which reads the columns as the rows of the transpose, runs
over Q on primitive integer rows and over F_p on integer rows reduced mod
p, and shares no code with the echelon.  A dimension is trusted only once
the two engines agree: the CLI's ``rank-engines-agree`` check compares
the row engine's dimensions with the number of representatives the
echelon gives, on both fields.

A class of H^n is given by its representative, a cocycle ``Cochain``.
``check_g_algebra`` builds each law instance on representatives as one
signed sum and asks the cached echelon whether it is a coboundary; each
instance gives one ``identities.LawCheck``.
"""

from collections import namedtuple
from itertools import product
from operator import itemgetter

from . import identities, linalg
from .cochains import (_collected, _over, _signed_sum, bracket, cochain_dim,
                       dot, zero_cochain)
from .fields import _at_least
from .params import family_size
from .preoperadic import r_index_tables

# the G-algebra laws, in report order
G_LAWS = ("graded-commutativity", "bracket-derivation", "graded-jacobi")


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

    def _product(self, cells):
        """M x summed with the plain operators, not collected, for keys the
        library built in ``range(ncols)``, which are not judged again."""
        out = {}
        get = out.get
        for c, x in cells.items():
            for r, v in self.columns[c].items():
                out[r] = get(r, 0) + v * x
        return out


def matrix_of_d(ctx, n):
    """Matrix of d on degree n, assembled by linearity from the index tables.

    Column (u, b, o) is d e for the basis cochain e with the single cell
    e(u; b) = e_o.  It is the sum of the n+2 signed cofaces of ``_cofaces``,
    as d = (-1)^(n+1) sum_i (-1)^i delta^i (SIGN_NOTES.md).
    No cochain is built per column.
    """
    if _at_least(n, 1, "n") not in ctx.matrix_cache:
        ctx.matrix_cache[n] = _summed(ctx, n, _cofaces(ctx, n))
    return ctx.matrix_cache[n]


def _summed(ctx, n, cofaces):
    """The matrix on degree n of the sum of ``cofaces`` (``_cofaces``),
    each parameter's columns summed with the plain operators and then
    collected."""
    alg = ctx.alg
    row_stride = alg.dim ** (n + 2)     # rows per output parameter r
    columns = []
    for u in range(family_size(alg.kind, n)):
        cols = [{} for _ in range(alg.dim ** (n + 1))]  # (u, b, o) at b*d + o
        for by_u, cells, offsets in cofaces:
            for r, p in by_u[u]:
                base = r * row_stride
                for col, row, a in cells[p]:
                    row += base
                    for c_off, r_off in offsets:
                        acc = cols[col + c_off]
                        key = row + r_off
                        acc[key] = acc.get(key, 0) + a
        columns.extend(alg.field.collect(acc) for acc in cols)
    return DifferentialMatrix(n, cochain_dim(alg, n + 1), cochain_dim(alg, n),
                              tuple(columns), alg.field)


def _cofaces(ctx, n):
    """The cofaces delta^0..delta^(n+1) on degree n, delta^i signed by
    (-1)^(n+1+i), as triples (by_u, cells, offsets).  delta^0 e =
    gamma(pi; Id, e) and delta^(n+1) e = gamma(pi; e, Id) read pi at R_0 r
    on (1, n) and (n, 1); delta^i e = gamma(e; Id,..,pi at s,..,Id),
    s = i-1, reads pi at R_s r on (1,..,2 at s,..,1).  ``by_u[u]`` lists
    the (r, p) with r an output parameter over u and p the parameter pi is
    read at.  Each cell of pi at p fixes one digit of e's column (b, o) and
    gives ``cells[p]`` an entry (column offset, row offset, signed value):
    e in pi's slot fixes o to the input there, and the other input z joins
    the row; pi in e's slot s fixes b_s to pi's output, and the pair (x, y)
    takes its place.  ``offsets`` holds the (column, row) offsets of every
    value of the other n digits of (b, o)."""
    kind, d = ctx.alg.kind, ctx.alg.dim
    cofaces = []
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
        fixed = n if is_outer else slot     # digit j of (b, o) weighs d^(n-j)
        place = d ** (n - fixed)
        cells = [[] for _ in range(family_size(kind, 2))]
        for key, a in ctx.pi.cells.items():
            rest, out = divmod(key, d)
            p, pair = divmod(rest, d * d)
            x, y = divmod(pair, d)
            if i == 0:              # (r; z, b, out), o = y, z = x
                cell = (y, x * d ** (n + 1) + out)
            elif i == n + 1:        # (r; b, z, out), o = x, z = y
                cell = (x, y * d + out)
            else:                   # (r; .., x, y at s, .., o), b_s = out
                cell = (out * place, pair * place)
            cells[p].append(cell + (sign * a,))
        # a digit in front of z or of pi's inputs moves up one place
        front = max(i - 1, 0)
        offsets = [(0, 0)]
        for j in range(n + 1):
            if j != fixed:
                weight = d ** (n - j)
                row_weight = weight * d if j < front else weight
                offsets = [(c + v * weight, r + v * row_weight)
                           for c, r in offsets for v in range(d)]
        cofaces.append((by_u, cells, offsets))
    return cofaces


def matrix_product_is_zero(a, b, field):
    """Whether the sparse product a*b vanishes (b maps into a's source);
    both matrices must be over ``field``."""
    if not a.field == b.field == field:
        raise ValueError("matrices over %s and %s used over %s"
                         % (a.field.name, b.field.name, field.name))
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    return not any(a.field.collect(a._product(col)) for col in b.columns)


def cohomology_dims(ctx, max_degree):
    """[(n, dim H^n)] for 1 <= n <= max_degree; H^1 = ker d^1.  The ranks
    come from the row engine, never from the echelon."""
    _at_least(max_degree, 1, "max_degree")
    out, below = [], 0      # below: rank d^(n-1), and there is no d^0
    for n in range(1, max_degree + 1):
        m = matrix_of_d(ctx, n)
        # rank M = rank M^T: the columns are the rows of the transpose
        rank = linalg.rank_bareiss(m.columns, m.nrows,
                                   m.field.characteristic)
        out.append((n, m.ncols - rank - below))
        below = rank
    return out


def cocycle_representatives(ctx, n):
    """Deterministic cocycle representatives of a basis of H^n: the kernel
    vectors of d^n that are independent modulo im d^(n-1) and the ones
    before them, as cochains.  Each is checked to be a cocycle through
    [pi, -], the brace route to d, which shares no code with the matrix."""
    alg = ctx.alg
    ker = matrix_of_d(ctx, n).echelon().kernel
    if n > 1:
        below = matrix_of_d(ctx, n - 1).echelon()
        ker = [ker[i] for i in linalg.independent_mod_image(below, ker)]
    reps = [_collected(alg, n, vec) for vec in ker]
    for rep in reps:
        if not bracket(ctx.pi, rep).is_zero():
            raise ValueError("representative is not a cocycle")
    return reps


def coboundary_preimage(ctx, c):
    """Some b with d b = c when c is a coboundary, else None.

    Degree 1 has no incoming differential, so only c = 0 succeeds there;
    the witness returned in that case is the degree-1 zero cochain, standing
    in for the nonexistent degree-0 module.
    """
    n = _over(ctx.alg, c, "c").degree
    if n < 2:
        if c.is_zero():
            return zero_cochain(ctx.alg, 1)
        return None
    sol = matrix_of_d(ctx, n - 1).echelon().preimage(c.cells)
    if sol is None:
        return None
    return _collected(ctx.alg, n - 1, sol)


def is_coboundary(ctx, c):
    return coboundary_preimage(ctx, c) is not None


class GAlgebraReport(namedtuple("GAlgebraReport",
                                 "max_degree checks reps_per_degree")):
    __slots__ = ()

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def check_g_algebra(ctx, max_degree):
    """Verify, up to coboundary, that cohomology is a G-algebra:

    (1) x.y - (-1)^(deg x deg y) y.x is a coboundary;
    (2) [x, y.z] - [x,y].z - (-1)^(|x| deg y) y.[x,z] is a coboundary;
    (3) graded Jacobi for the bracket holds up to coboundary;

    over all representative pairs/triples of total degree <= max_degree.
    The laws are named, in this order, by ``G_LAWS``.
    """
    _at_least(max_degree, 2, "max_degree")
    reps = {n: cocycle_representatives(ctx, n) for n in range(1, max_degree)}
    degs = [n for n in reps if reps[n]]

    def classes(count):
        """Every tuple of ``count`` representatives of total degree at most
        max_degree, by degree tuple and then by representatives."""
        for ns in product(degs, repeat=count):
            if sum(ns) <= max_degree:
                yield from product(*(reps[n] for n in ns))

    comm_law, derivation_law, jacobi_law = G_LAWS
    checks = []
    for x, y in classes(2):
        comm = _signed_sum(ctx.alg, x.degree + y.degree, (
            (False, dot(ctx, x, y)),
            ((x.degree * y.degree) % 2 == 0, dot(ctx, y, x))))
        checks.append(identities.LawCheck(comm_law, (x.degree, y.degree),
                                          is_coboundary(ctx, comm)))

    for x, y, z in classes(3):
        degrees = (x.degree, y.degree, z.degree)
        derivation = _signed_sum(ctx.alg, sum(degrees) - 1, (
            (False, bracket(x, dot(ctx, y, z))),
            (True, dot(ctx, bracket(x, y), z)),
            ((x.shifted * y.degree) % 2 == 0, dot(ctx, y, bracket(x, z)))))
        checks.append(identities.LawCheck(derivation_law, degrees,
                                          is_coboundary(ctx, derivation)))

        jacobi = _signed_sum(ctx.alg, sum(degrees) - 2, (
            (False, bracket(x, bracket(y, z))),
            (True, bracket(bracket(x, y), z)),
            ((x.shifted * y.shifted) % 2 == 0, bracket(y, bracket(x, z)))))
        checks.append(identities.LawCheck(jacobi_law, degrees,
                                          is_coboundary(ctx, jacobi)))

    return GAlgebraReport(max_degree, checks,
                          {n: len(v) for n, v in reps.items()})
