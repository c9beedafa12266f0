import copy
import hashlib
from fractions import Fraction

import pytest

from lodayops import cochains, cohomology, linalg
from lodayops.algebra import TYPES
from lodayops.algfile import load_algebra
from lodayops.cochains import (Cochain, MultContext, bracket, diff_d, dot,
                               random_cochain)
from lodayops.cohomology import (DifferentialMatrix, check_g_algebra,
                                 coboundary_preimage, cochain_dim,
                                 cocycle_representatives, cohomology_dims,
                                 is_coboundary, matrix_of_d,
                                 matrix_product_is_zero)
from lodayops.fields import QQ, PrimeField

from conftest import GOLDEN_DIMS
from corpus import product_fixture, zero_fixture

# the product fixtures filed in GOLDEN_DIMS under their corpus file name,
# by (type, dim), checked through degree 3.  Degree 5 of trias_dim2 is
# checked by test_trias_dim2_degree_5[Q|F101] below
PRODUCTS = sorted([(t, 1) for t in TYPES] + [("trias", 2)])


def _class_counts(ctx, max_degree):
    """[(n, number of representatives of H^n)]: the echelon's answer to
    what ``cohomology_dims`` computes with the row engine."""
    return [(n, len(cocycle_representatives(ctx, n)))
            for n in range(1, max_degree + 1)]


def test_matrix_shapes_trias_dim1():
    ctx = MultContext(product_fixture("trias", 1))
    m = matrix_of_d(ctx, 2)
    assert (m.nrows, m.ncols) == (11, 3)
    m1 = matrix_of_d(ctx, 1)
    assert (m1.nrows, m1.ncols) == (3, 1)


def test_matrix_agrees_with_differential(rng):
    for t in ("didend", "trias"):
        ctx = MultContext(product_fixture(t, 1))
        for n in (1, 2):
            f = random_cochain(ctx.alg, n, rng)
            assert diff_d(ctx, f) == bracket(ctx.pi, f)


def test_matrix_kills_multiplication():
    ctx = MultContext(product_fixture("trias", 1))
    assert not ctx.pi.is_zero()
    assert diff_d(ctx, ctx.pi).is_zero()


@pytest.mark.parametrize("cells", [{-1: 1}, {"ncols": 1}, {0: 1, "ncols": 1}])
def test_apply_refuses_keys_outside_the_columns(fixture_dir, cells):
    # d acts on a cochain, whose keys are judged against the columns of the
    # matrix of d: {-1: 1} used to act as the last column and the key ncols
    # to raise a bare IndexError
    alg = load_algebra(fixture_dir / "trias_dim2.alg")
    ctx = MultContext(alg)
    m = matrix_of_d(ctx, 1)
    cells = {m.ncols if k == "ncols" else k: v for k, v in cells.items()}
    bad = [k for k in cells if not 0 <= k < m.ncols]
    with pytest.raises(ValueError, match=r"^cochain key must be an int in "
                       r"0\.\.%d, got %r$" % (m.ncols - 1, bad[0])):
        diff_d(ctx, Cochain(alg, 1, cells))
    assert diff_d(ctx, Cochain(alg, 1, {})).is_zero()
    assert (diff_d(ctx, Cochain(alg, 1, {m.ncols - 1: 1})).cells
            == m.columns[-1])


def test_d_squared_zero_as_matrices():
    for t in TYPES:
        ctx = MultContext(product_fixture(t, 1))
        for n in (1, 2):
            assert matrix_product_is_zero(
                matrix_of_d(ctx, n + 1), matrix_of_d(ctx, n), ctx.alg.field)


# -- the assembly of d against the per-column route ---------------------------

def _matrix_by_columns(ctx, n):
    """Columns of the matrix of d from [pi, e] of each basis cochain e, the
    brace route that matrix_of_d replaced."""
    alg = ctx.alg
    return tuple(bracket(ctx.pi, Cochain(alg, n, {col: alg.field.one})).cells
                 for col in range(cochain_dim(alg, n)))


SHIPPED = ("dias_dim1", "didend_dim1", "trias_dim1", "tridend_dim1",
           "tricub_dim1", "trias_dim2", "zero_didend_dim1")

# (case, max degree); the 11-dim suspension of tricub costs 8.6 s per
# column route at degree 2, so it stops at degree 1
ORACLE_CASES = ([("file:%s" % name, 4) for name in SHIPPED]
                + [("product:%s" % t, 3) for t in TYPES]
                + [("suspension:%s" % t, 2)
                   for t in ("dias", "didend", "trias", "tridend")]
                + [("suspension:tricub", 1),
                   ("fp101:trias_dim2", 3), ("scaled:trias_dim2", 3)])


@pytest.mark.parametrize("case,max_degree", ORACLE_CASES,
                         ids=[c for c, _ in ORACLE_CASES])
def test_matrix_of_d_equals_per_column_route(case, max_degree, case_algebra):
    ctx = MultContext(case_algebra(case))
    fractions = False
    dims, below = [], 0     # below: the rank of d^(n-1)
    for n in range(1, max_degree + 1):
        m = matrix_of_d(ctx, n)
        columns = _matrix_by_columns(ctx, n)
        expected = tuple(sorted((row, col, v)
                                for col, cells in enumerate(columns)
                                for row, v in cells.items()))
        assert (m.nrows, m.ncols) == (cochain_dim(ctx.alg, n + 1),
                                      cochain_dim(ctx.alg, n))
        assert m.columns == columns
        assert m.entries == expected
        # the row engine on the rows of the expected matrix
        rows = {}
        for row, col, v in expected:
            rows.setdefault(row, {})[col] = v
        rank = linalg.rank_bareiss(list(rows.values()), m.ncols,
                                   ctx.alg.field.characteristic)
        dims.append((n, m.ncols - rank - below))
        below = rank
        # equal values are not enough: an int must stay an int
        assert [type(v) for _, _, v in m.entries] == \
            [type(v) for _, _, v in expected]
        fractions = fractions or any(type(v) is Fraction
                                     for _, _, v in m.entries)
    assert fractions == case.startswith("scaled:")
    # cohomology_dims reads the columns as the rows of the transpose: its
    # ranks must be those of the rows of the expected matrices
    assert cohomology_dims(ctx, max_degree) == dims


def test_matrix_of_d_builds_no_cochain_per_column(fixture_dir, monkeypatch):
    ctx = MultContext(load_algebra(fixture_dir / "trias_dim2.alg"))
    expected = [matrix_of_d(ctx, n) for n in range(1, 5)]
    ctx.matrix_cache.clear()

    def refuse(*args):
        raise AssertionError("matrix_of_d went through the cochain calculus")

    monkeypatch.setattr(cohomology, "bracket", refuse)
    monkeypatch.setattr(cochains, "_gamma_into", refuse)
    for n, old in enumerate(expected, start=1):
        m = matrix_of_d(ctx, n)
        assert m is not old
        assert ((m.degree, m.nrows, m.ncols, m.columns, m.field)
                == (old.degree, old.nrows, old.ncols, old.columns, old.field))


def test_echelon_is_memoised():
    m = matrix_of_d(MultContext(product_fixture("trias", 1)), 2)
    ech = m.echelon()
    assert m.echelon() is ech and ech.field == m.field == QQ


def _perturbed(m, row, col, field):
    """m with 1 added to its entry at (row, col), reduced mod p here over
    F_p."""
    p = field.characteristic
    columns = list(m.columns)
    cells = columns[col] = dict(columns[col])
    value = cells.get(row, 0) + 1
    cells[row] = value % p if p else value
    return DifferentialMatrix(m.degree, m.nrows, m.ncols, tuple(columns),
                              m.field)


@pytest.mark.parametrize("case", ["file:trias_dim2", "fp101:trias_dim2"])
def test_matrix_product_is_zero_can_fail(case, case_algebra):
    ctx = MultContext(case_algebra(case))
    field = ctx.alg.field
    lower, upper = matrix_of_d(ctx, 2), matrix_of_d(ctx, 3)
    assert matrix_product_is_zero(upper, lower, field)
    # an entry (r, c) of d^2 whose row r meets a nonzero column of d^3: the
    # product's column c moves by that column
    r, c, _ = next(e for e in lower.entries if upper.columns[e[0]])
    assert not matrix_product_is_zero(upper, _perturbed(lower, r, c, field),
                                      field)
    # an entry (r, c) of d^3 whose column c meets a nonzero row of d^2: the
    # product's row r moves by that row
    lower_rows = {row for row, _, _ in lower.entries}
    r, c, _ = next(e for e in upper.entries if e[1] in lower_rows)
    assert not matrix_product_is_zero(_perturbed(upper, r, c, field), lower,
                                      field)
    for a, b in ((lower, upper), (upper, upper), (lower, lower)):
        with pytest.raises(ValueError):
            matrix_product_is_zero(a, b, field)


def test_matrix_product_refuses_mixed_fields(fixture_dir):
    # a matrix over Q read over F_101 is not the matrix of d over F_101
    ctx = MultContext(load_algebra(fixture_dir / "trias_dim2.alg"))
    ctx_p = MultContext(product_fixture("trias", 2, field=PrimeField(101)))
    d2, d3 = matrix_of_d(ctx, 2), matrix_of_d(ctx, 3)
    d2_p = matrix_of_d(ctx_p, 2)
    for a, b, field in ((d3, d2, PrimeField(101)), (d3, d2_p, QQ),
                        (d3, d2_p, PrimeField(101))):
        with pytest.raises(ValueError, match="used over"):
            matrix_product_is_zero(a, b, field)
    assert matrix_product_is_zero(d3, d2, QQ)


def test_trias_dim2_degree_5_matrix_pinned(fixture_dir):
    # sha256 of the "%d %d %s\n" text of the entries, computed once by the
    # per-column route (30-45 s on a 2-core host, so not run here)
    ctx = MultContext(load_algebra(fixture_dir / "trias_dim2.alg"))
    m4 = matrix_of_d(ctx, 4)
    m5 = matrix_of_d(ctx, 5)
    assert (m5.nrows, m5.ncols, len(m5.entries)) == (115584, 12608, 271929)
    text = "".join("%d %d %s\n" % e for e in m5.entries)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a32e3e7467c05e2f14ca1eb9123bd6d9eeb9fafa4263c21fe73ad1f9bf6765d1")
    assert matrix_product_is_zero(m5, m4, ctx.alg.field)


def test_flatten_round_trip(rng):
    alg = product_fixture("trias", 2)
    f = random_cochain(alg, 2, rng)
    assert Cochain(alg, 2, f.cells) == f
    d = alg.dim
    rebuilt = {}
    for u_idx, (i, j), out, c in f.entries():
        rebuilt[((u_idx * d + i) * d + j) * d + out] = c
    assert rebuilt == f.cells
    assert all(0 <= k < cochain_dim(alg, 2) for k in f.cells)


@pytest.mark.parametrize("key", PRODUCTS)
def test_golden_dims_dual_engines(key):
    type_tag, dim = key
    ctx = MultContext(product_fixture(type_tag, dim))
    assert cohomology_dims(ctx, 3) == _class_counts(ctx, 3) == \
        GOLDEN_DIMS["%s_dim%d" % key][:3]


@pytest.mark.parametrize("key", PRODUCTS)
def test_golden_dims_stable_mod_101(key):
    type_tag, dim = key
    ctx = MultContext(product_fixture(type_tag, dim, field=PrimeField(101)))
    assert cohomology_dims(ctx, 3) == GOLDEN_DIMS["%s_dim%d" % key][:3]


@pytest.mark.parametrize("type_tag", TYPES)
def test_cohomology_mod_p_bounds_cohomology_over_q(type_tag):
    # the structure constants are integers, so d has integer matrices and
    # rank mod p <= rank over Q: dim H^n over F_p >= dim H^n over Q; the
    # two rank engines must also agree over each field
    over_q = None
    for field in (QQ, PrimeField(5), PrimeField(7), PrimeField(101)):
        ctx = MultContext(product_fixture(type_tag, 2, field=field))
        dims = cohomology_dims(ctx, 4)
        assert _class_counts(ctx, 3) == dims[:3]
        if over_q is None:
            over_q = dims
        assert all(d_p >= d_q for (_, d_p), (_, d_q) in zip(dims, over_q))


def test_zero_algebra_full_cohomology():
    # zero multiplication: d = 0, so H^n is all of C^n, of dimension n here
    ctx = MultContext(zero_fixture("didend", 1))
    assert cohomology_dims(ctx, 3) == [(1, 1), (2, 2), (3, 3)]
    reps = cocycle_representatives(ctx, 2)
    assert len(reps) == 2


def test_representatives_are_cocycles_and_count():
    for key in (("didend", 1), ("tridend", 1), ("trias", 2)):
        ctx = MultContext(product_fixture(*key))
        dims = dict(cohomology_dims(ctx, 3))
        for n in (1, 2, 3):
            reps = cocycle_representatives(ctx, n)
            assert len(reps) == dims[n]
            for rep in reps:
                assert rep.degree == n
                assert diff_d(ctx, rep).is_zero()


def test_coboundary_preimage_round_trip(rng):
    ctx = MultContext(product_fixture("didend", 1))
    b = random_cochain(ctx.alg, 1, rng)
    c = diff_d(ctx, b)
    pre = coboundary_preimage(ctx, c)
    assert pre is not None
    assert diff_d(ctx, pre) == c
    z = c - c
    assert coboundary_preimage(ctx, z) is not None


def test_coboundary_preimage_refuses_cochains_of_another_algebra(rng):
    # the zero algebra of the same type and dimension has the same cell
    # layout, so this used to answer False instead of refusing
    alg = product_fixture("trias", 2)
    g = diff_d(MultContext(alg), random_cochain(alg, 1, rng))
    assert not g.is_zero()
    ctx = MultContext(zero_fixture("trias", 2))
    for query in (coboundary_preimage, is_coboundary):
        with pytest.raises(ValueError, match="^cochain of another algebra$"):
            query(ctx, g)


def test_nonzero_class_is_not_a_coboundary():
    ctx = MultContext(product_fixture("didend", 1))
    (rep,) = cocycle_representatives(ctx, 2)
    assert coboundary_preimage(ctx, rep) is None


def test_degree_one_preimage_convention(rng):
    ctx = MultContext(product_fixture("didend", 1))
    f = random_cochain(ctx.alg, 1, rng)
    if not f.is_zero():
        assert coboundary_preimage(ctx, f) is None
    zero = f - f
    assert coboundary_preimage(ctx, zero) is not None


def test_product_of_classes_is_well_posed(rng):
    # changing a representative by a coboundary moves the product by one
    ctx = MultContext(product_fixture("didend", 1))
    (rep,) = cocycle_representatives(ctx, 2)
    c = random_cochain(ctx.alg, 1, rng)
    shifted = rep + diff_d(ctx, c)
    assert shifted != rep
    diff = dot(ctx, rep, rep) - dot(ctx, rep, shifted)
    assert coboundary_preimage(ctx, diff) is not None


def test_representative_that_is_no_cocycle_raises(monkeypatch):
    ctx = MultContext(product_fixture("didend", 1))
    monkeypatch.setattr(cohomology, "bracket",
                        lambda pi, x: cochains.identity_cochain(pi.alg))
    with pytest.raises(ValueError, match="not a cocycle"):
        cocycle_representatives(ctx, 2)


def test_check_g_algebra_passes():
    for key in (("didend", 1), ("trias", 1)):
        ctx = MultContext(product_fixture(*key))
        report = check_g_algebra(ctx, 4)
        assert report.passed
    ctx = MultContext(zero_fixture("didend", 1))
    report = check_g_algebra(ctx, 4)
    assert report.passed
    laws = {c.law for c in report.checks}
    assert laws == {"graded-commutativity", "bracket-derivation", "graded-jacobi"}


@pytest.mark.parametrize("order", [0, 1, 2])
def test_g_laws_are_public_and_in_report_order(order):
    # the CLI reads the laws' report order from this public name (it read
    # the private one before); each law's first check comes in that order
    laws = ("graded-commutativity", "bracket-derivation", "graded-jacobi")
    assert len(cohomology.G_LAWS) == 3
    assert cohomology.G_LAWS[order] == laws[order]
    report = check_g_algebra(MultContext(zero_fixture("didend", 1)), 4)
    first = [[c.law for c in report.checks].index(law) for law in laws]
    assert first[order] == sorted(first)[order]


def test_rank_nullity_consistency():
    for key in (("trias", 1), ("trias", 2)):
        ctx = MultContext(product_fixture(*key))
        field = ctx.alg.field
        for n in (1, 2, 3):
            m = matrix_of_d(ctx, n)
            ech = m.echelon()
            r = ech.rank
            assert r == linalg.rank_bareiss(m.columns, m.nrows,
                                            field.characteristic)
            assert r + len(ech.kernel) == m.ncols
            for vec in ech.kernel:
                x = Cochain(ctx.alg, n, vec)
                assert diff_d(ctx, x).is_zero()
                assert bracket(ctx.pi, x).is_zero()


def test_q_echelon_stores_integral_values_as_int(fixture_dir):
    # the kernels of d^1..d^4 of trias_dim2 over Q, and every pivot's image
    # and preimage: an integral value is an int, never an integral Fraction
    ctx = MultContext(load_algebra(fixture_dir / "trias_dim2.alg"))
    kernel, pivots = [], []
    for n in range(1, 5):
        ech = matrix_of_d(ctx, n).echelon()
        kernel += [v for vec in ech.kernel for v in vec.values()]
        pivots += [v for p in ech.basis for vec in (p.image, p.preimage)
                   for v in vec.values()]
    assert len(kernel) == 3244
    assert [v for v in kernel + pivots
            if v.denominator == 1 and type(v) is not int] == []


def test_coboundary_preimage_round_trip_trias_dim2(rng):
    ctx = MultContext(product_fixture("trias", 2))
    for _ in range(3):
        b = random_cochain(ctx.alg, 2, rng)
        c = diff_d(ctx, b)
        assert c.degree == 3 and not c.is_zero()
        pre = coboundary_preimage(ctx, c)
        assert pre is not None and pre.degree == 2
        assert diff_d(ctx, pre) == c


def test_each_matrix_eliminated_once_per_engine(monkeypatch):
    calls = {}
    ctx = MultContext(product_fixture("didend", 1))

    def counting(kind, fn):
        def run(*args):
            name = kind(*args)
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return run

    def echelon_kind(columns, field):
        # the columns of a matrix of d, or independent_mod_image's residuals
        of_d = any(columns is m.columns for m in ctx.matrix_cache.values())
        return "matrix" if of_d else "residuals"

    monkeypatch.setattr(linalg, "column_echelon",
                        counting(echelon_kind, linalg.column_echelon))
    monkeypatch.setattr(linalg, "rank_bareiss",
                        counting(lambda *args: "fraction-free",
                                 linalg.rank_bareiss))
    cohomology_dims(ctx, 3)
    for n in (1, 2, 3):
        cocycle_representatives(ctx, n)
    report = check_g_algebra(ctx, 4)
    assert report.passed and report.checks
    # one echelon per degree 1..3; is_coboundary reuses them.  Each
    # cocycle_representatives(ctx, n > 1) eliminates its residuals once:
    # n = 2, 3 above and again in check_g_algebra
    assert calls == {"matrix": 3, "residuals": 4, "fraction-free": 3}


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
def test_trias_dim2_degree_5(field):
    # filed after both engines agreed on H^5 = 1 over Q and over F_101
    # (rank d^5 = 11,323).  The row engine takes about 1.5 s per field at
    # this size; the echelon about 5 s over Q, so only the F_101 echelon
    # runs here
    ctx = MultContext(product_fixture("trias", 2, field=field))
    assert cohomology_dims(ctx, 5) == [(n, 1) for n in range(1, 6)]
    if field is QQ:
        return
    assert len(cocycle_representatives(ctx, 5)) == 1
    ech = matrix_of_d(ctx, 5).echelon()
    assert (ech.rank, len(ech.kernel)) == (11323, 1285)


def test_degrees_below_the_first_are_refused():
    ctx = MultContext(product_fixture("trias", 1))
    for n in (0, -1):
        with pytest.raises(ValueError,
                           match="^n must be an int >= 1, got %d$" % n):
            matrix_of_d(ctx, n)
        with pytest.raises(ValueError, match="^max_degree must be an int "
                           ">= 1, got %d$" % n):
            cohomology_dims(ctx, n)
    for n in (1, 0):
        with pytest.raises(ValueError, match="^max_degree must be an int "
                           ">= 2, got %d$" % n):
            check_g_algebra(ctx, n)


def test_cached_echelons_not_changed_by_use(rng):
    # representatives are built from the echelon's own kernel dicts and
    # witnesses read its pivots: using them must leave the echelon as it was
    ctx = MultContext(product_fixture("trias", 2))
    echelons = [matrix_of_d(ctx, n).echelon() for n in (1, 2, 3)]

    def snapshot():
        return copy.deepcopy([(e.basis, e.kernel, e.by_row)
                              for e in echelons])

    before = snapshot()
    reps = [rep for n in (1, 2, 3)
            for rep in cocycle_representatives(ctx, n)]
    assert len(reps) == 3
    witness = coboundary_preimage(ctx, diff_d(ctx, random_cochain(
        ctx.alg, 2, rng)))
    assert witness is not None and witness.cells
    assert check_g_algebra(ctx, 4).passed
    assert snapshot() == before
    # the returned cochains own their cells
    for c in reps + [witness]:
        c.cells.clear()
    assert snapshot() == before
