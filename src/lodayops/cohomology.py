"""Exact cohomology of the cochain complex and the induced structure on it.

The cells of a degree-n cochain are keyed by its flat index in the order
(parameter index, input tuple, output index), so a cochain is a sparse
vector of length |U_n| * d^(n+1) and the differential a sparse matrix per
degree in the same coordinates.  There are no cochains below degree 1,
so H^1 = ker d^1; every report states this convention.

Each matrix of d carries the field engine's column echelon, eliminated on
first use; kernels, representatives and coboundary witnesses are all read
from it.  Ranks come by default from the fraction-free row engine, which
runs over Q on primitive integer rows and over F_p on integer rows reduced
mod p, and shares no code with the echelon.  The ``engine`` argument picks
either engine, and a dimension is trusted only once the two agree; the
CLI's ``rank-engines-agree`` check compares them on both fields.
"""

from dataclasses import dataclass, field as dataclass_field
from itertools import groupby
from operator import itemgetter

from . import linalg
from .cochains import Cochain, cochain_dim, diff_d, dot, bracket, zero_cochain

ENGINES = ("bareiss", "rref")


@dataclass(frozen=True)
class DifferentialMatrix:
    """Sparse matrix of d: C^n -> C^(n+1); entries sorted by (row, col)."""

    degree: int
    nrows: int
    ncols: int
    entries: tuple
    _echelons: dict = dataclass_field(default_factory=dict, init=False,
                                      repr=False, compare=False)

    def sparse_rows(self):
        """The nonzero rows, each a tuple of (column, value) pairs."""
        return [tuple((c, v) for _, c, v in row)
                for _, row in groupby(self.entries, key=itemgetter(0))]

    def column_maps(self):
        cols = {}
        for r, c, v in self.entries:
            cols.setdefault(c, {})[r] = v
        return cols

    def echelon(self, field):
        """The field engine's column echelon, eliminated on first use."""
        ech = self._echelons.get(field)
        if ech is None:
            cols = self.column_maps()
            ech = linalg.column_echelon(
                [cols.get(c, {}) for c in range(self.ncols)], field)
            self._echelons[field] = ech
        return ech

    def apply(self, cells, field):
        """M x for a sparse vector x ({column: value}), as {row: value}
        without zeros."""
        out = {}
        for r, c, v in self.entries:
            x = cells.get(c)
            if x is not None:
                out[r] = field.add(out.get(r, field.zero), field.mul(v, x))
        return {r: v for r, v in out.items() if v != field.zero}


def matrix_of_d(ctx, n):
    """Matrix of d on degree n, assembled column by column from basis cochains."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    cached = ctx.matrix_cache.get(n)
    if cached is not None:
        return cached
    alg = ctx.alg
    one = alg.field.one
    ncols = cochain_dim(alg, n)
    entries = []
    for col in range(ncols):
        image = diff_d(ctx, Cochain(alg, n, {col: one}))
        entries.extend((row, col, v) for row, v in image.cells.items())
    # (row, col) pairs are distinct, so values are never compared
    entries.sort()
    matrix = DifferentialMatrix(n, cochain_dim(alg, n + 1), ncols,
                                tuple(entries))
    ctx.matrix_cache[n] = matrix
    return matrix


def matrix_product_is_zero(a, b, field):
    """Whether the sparse product a*b vanishes (b maps into a's source)."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    a_cols = a.column_maps()
    b_cols = b.column_maps()
    for c, bcol in b_cols.items():
        acc = {}
        for mid, bv in bcol.items():
            for r, av in a_cols.get(mid, {}).items():
                acc[r] = field.add(acc.get(r, field.zero), field.mul(av, bv))
        if any(v != field.zero for v in acc.values()):
            return False
    return True


def matrix_rank(matrix, field, engine="bareiss"):
    if engine not in ENGINES:
        raise ValueError("unknown engine %r" % engine)
    if engine == "bareiss":
        return linalg.rank_bareiss(matrix.sparse_rows(), matrix.ncols,
                                   field.characteristic)
    return matrix.echelon(field).rank


def cohomology_dims(ctx, max_degree, engine="bareiss"):
    """[(n, dim H^n)] for 1 <= n <= max_degree; H^1 = ker d^1."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    field = ctx.alg.field
    ranks = {}
    for n in range(1, max_degree + 1):
        ranks[n] = matrix_rank(matrix_of_d(ctx, n), field, engine)
    out = []
    for n in range(1, max_degree + 1):
        nullity = cochain_dim(ctx.alg, n) - ranks[n]
        boundary_rank = ranks[n - 1] if n > 1 else 0
        out.append((n, nullity - boundary_rank))
    return out


@dataclass(frozen=True)
class CohomologyClass:
    degree: int
    representative: Cochain


def _make_class(ctx, n, rep):
    if not diff_d(ctx, rep).is_zero():
        raise ValueError("representative is not a cocycle")
    return CohomologyClass(n, rep)


def cocycle_representatives(ctx, n):
    """Deterministic cocycle representatives of a basis of H^n: the kernel
    vectors of d^n that are independent modulo im d^(n-1) and the ones
    before them."""
    alg = ctx.alg
    field = alg.field
    ker = matrix_of_d(ctx, n).echelon(field).kernel
    if n > 1:
        below = matrix_of_d(ctx, n - 1).echelon(field)
        ker = [ker[i] for i in linalg.independent_mod_image(below, ker)]
    return [_make_class(ctx, n, Cochain(alg, n, dict(vec))) for vec in ker]


def coboundary_preimage(ctx, c):
    """Some b with d b = c when c is a coboundary, else None.

    Degree 1 has no incoming differential, so only c = 0 succeeds there;
    the witness returned in that case is the degree-1 zero cochain, standing
    in for the nonexistent degree-0 module.
    """
    field = ctx.alg.field
    n = c.degree
    if n < 2:
        if c.is_zero():
            return zero_cochain(ctx.alg, 1)
        return None
    sol = matrix_of_d(ctx, n - 1).echelon(field).preimage(c.cells)
    if sol is None:
        return None
    return Cochain(ctx.alg, n - 1, sol)


def is_coboundary(ctx, c):
    if c.degree < 2:
        return c.is_zero()
    return coboundary_preimage(ctx, c) is not None


def induced_dot(ctx, a, b):
    """Dot product on cohomology classes: H^m x H^n -> H^(m+n)."""
    return _make_class(ctx, a.degree + b.degree,
                       dot(ctx, a.representative, b.representative))


def induced_bracket(ctx, a, b):
    """Bracket on cohomology classes: H^m x H^n -> H^(m+n-1)."""
    return _make_class(ctx, a.degree + b.degree - 1,
                       bracket(a.representative, b.representative))


@dataclass
class CohomologyReport:
    """Per-degree dimensions and representatives; H^1 = ker d^1."""

    max_degree: int
    dims: list
    representatives: dict


def cohomology_report(ctx, max_degree, engine="bareiss"):
    dims = cohomology_dims(ctx, max_degree, engine=engine)
    reps = {n: cocycle_representatives(ctx, n) for n, _ in dims}
    return CohomologyReport(max_degree, dims, reps)


@dataclass(frozen=True)
class GCheck:
    law: str
    degrees: tuple
    passed: bool


@dataclass
class GAlgebraReport:
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
    reps = {}
    for n in range(1, max_degree):
        reps[n] = cocycle_representatives(ctx, n)
    checks = []

    def classes(total_max, count):
        degs = [n for n in reps if reps[n]]
        if count == 2:
            for p in degs:
                for q in degs:
                    if p + q <= total_max:
                        for a in reps[p]:
                            for b in reps[q]:
                                yield (a, b)
        else:
            for p in degs:
                for q in degs:
                    for r in degs:
                        if p + q + r <= total_max:
                            for a in reps[p]:
                                for b in reps[q]:
                                    for c in reps[r]:
                                        yield (a, b, c)

    for a, b in classes(max_degree, 2):
        x, y = a.representative, b.representative
        comm = dot(ctx, x, y)
        swapped = dot(ctx, y, x)
        if (x.degree * y.degree) % 2 == 0:
            comm = comm - swapped
        else:
            comm = comm + swapped
        checks.append(GCheck("graded-commutativity", (a.degree, b.degree),
                             is_coboundary(ctx, comm)))

    for a, b, c in classes(max_degree, 3):
        x, y, z = a.representative, b.representative, c.representative
        lhs = bracket(x, dot(ctx, y, z))
        lhs = lhs - dot(ctx, bracket(x, y), z)
        term = dot(ctx, y, bracket(x, z))
        if (x.shifted * y.degree) % 2 == 0:
            lhs = lhs - term
        else:
            lhs = lhs + term
        checks.append(GCheck("bracket-derivation",
                             (a.degree, b.degree, c.degree),
                             is_coboundary(ctx, lhs)))

        jac = bracket(x, bracket(y, z)) - bracket(bracket(x, y), z)
        term = bracket(y, bracket(x, z))
        if (x.shifted * y.shifted) % 2 == 0:
            jac = jac - term
        else:
            jac = jac + term
        checks.append(GCheck("graded-jacobi",
                             (a.degree, b.degree, c.degree),
                             is_coboundary(ctx, jac)))

    return GAlgebraReport(max_degree, checks,
                          {n: len(v) for n, v in reps.items()})
