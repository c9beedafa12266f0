import pytest

from lodayops import linalg
from lodayops.algebra import TYPES, product_fixture, zero_fixture
from lodayops.cochains import Cochain, MultContext, diff_d, dot, random_cochain
from lodayops.cohomology import (check_g_algebra, coboundary_preimage,
                                 cochain_dim, cocycle_representatives,
                                 cohomology_dims, cohomology_report,
                                 induced_bracket, induced_dot, matrix_of_d,
                                 matrix_product_is_zero, matrix_rank)
from lodayops.fields import PrimeField

# dimensions established by the dual-elimination protocol: the fraction-free
# and RREF engines agreed on these values over Q, and the F_101 run matched;
# frozen here so regressions surface as golden-file diffs
GOLDEN_DIMS = {
    ("dias", 1): [(1, 0), (2, 0), (3, 0)],
    ("didend", 1): [(1, 0), (2, 1), (3, 0)],
    ("trias", 1): [(1, 0), (2, 0), (3, 0)],
    ("tridend", 1): [(1, 0), (2, 2), (3, 0)],
    ("tricub", 1): [(1, 0), (2, 0), (3, 0)],
    ("trias", 2): [(1, 1), (2, 1), (3, 1)],
}


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
            m = matrix_of_d(ctx, n)
            f = random_cochain(ctx.alg, n, rng)
            assert m.apply(f.cells, ctx.alg.field) == diff_d(ctx, f).cells


def test_matrix_kills_multiplication():
    ctx = MultContext(product_fixture("trias", 1))
    m = matrix_of_d(ctx, 2)
    assert not ctx.pi.is_zero()
    assert m.apply(ctx.pi.cells, ctx.alg.field) == {}


def test_d_squared_zero_as_matrices():
    for t in TYPES:
        ctx = MultContext(product_fixture(t, 1))
        for n in (1, 2):
            assert matrix_product_is_zero(
                matrix_of_d(ctx, n + 1), matrix_of_d(ctx, n), ctx.alg.field)


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


@pytest.mark.parametrize("key", sorted(GOLDEN_DIMS))
def test_golden_dims_dual_engines(key):
    type_tag, dim = key
    ctx = MultContext(product_fixture(type_tag, dim))
    via_bareiss = cohomology_dims(ctx, 3, engine="bareiss")
    via_rref = cohomology_dims(ctx, 3, engine="rref")
    assert via_bareiss == via_rref == GOLDEN_DIMS[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_DIMS))
def test_golden_dims_stable_mod_101(key):
    type_tag, dim = key
    ctx = MultContext(product_fixture(type_tag, dim, field=PrimeField(101)))
    assert cohomology_dims(ctx, 3) == GOLDEN_DIMS[key]


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
            for cls in reps:
                assert diff_d(ctx, cls.representative).is_zero()


def test_coboundary_preimage_round_trip(rng):
    ctx = MultContext(product_fixture("didend", 1))
    b = random_cochain(ctx.alg, 1, rng)
    c = diff_d(ctx, b)
    pre = coboundary_preimage(ctx, c)
    assert pre is not None
    assert diff_d(ctx, pre) == c
    z = c - c
    assert coboundary_preimage(ctx, z) is not None


def test_nonzero_class_is_not_a_coboundary():
    ctx = MultContext(product_fixture("didend", 1))
    (cls,) = cocycle_representatives(ctx, 2)
    assert coboundary_preimage(ctx, cls.representative) is None


def test_degree_one_preimage_convention(rng):
    ctx = MultContext(product_fixture("didend", 1))
    f = random_cochain(ctx.alg, 1, rng)
    if not f.is_zero():
        assert coboundary_preimage(ctx, f) is None
    zero = f - f
    assert coboundary_preimage(ctx, zero) is not None


def test_induced_operations_degrees_and_wellposedness(rng):
    ctx = MultContext(zero_fixture("didend", 1))
    a = cocycle_representatives(ctx, 1)[0]
    b = cocycle_representatives(ctx, 2)[0]
    assert induced_dot(ctx, a, b).degree == 3
    assert induced_bracket(ctx, a, b).degree == 2
    # changing a representative by a coboundary moves the product by one
    ctx2 = MultContext(product_fixture("didend", 1))
    (cls2,) = cocycle_representatives(ctx2, 2)
    c = random_cochain(ctx2.alg, 1, rng)
    shifted = cls2.representative + diff_d(ctx2, c)
    diff = dot(ctx2, cls2.representative, cls2.representative) - \
        dot(ctx2, cls2.representative, shifted)
    assert coboundary_preimage(ctx2, diff) is not None


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


def test_rank_nullity_consistency():
    for key in (("trias", 1), ("trias", 2)):
        ctx = MultContext(product_fixture(*key))
        field = ctx.alg.field
        for n in (1, 2, 3):
            m = matrix_of_d(ctx, n)
            ech = m.echelon(field)
            r = matrix_rank(m, field, "rref")
            assert r == ech.rank == matrix_rank(m, field, "bareiss")
            assert r + len(ech.kernel) == m.ncols
            for vec in ech.kernel:
                assert m.apply(dict(vec), field) == {}
                assert diff_d(ctx, Cochain(ctx.alg, n, dict(vec))).is_zero()


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

    def counting(name, fn):
        def run(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return run

    monkeypatch.setattr(linalg, "column_echelon",
                        counting("field", linalg.column_echelon))
    monkeypatch.setattr(linalg, "rank_bareiss",
                        counting("fraction-free", linalg.rank_bareiss))
    ctx = MultContext(product_fixture("didend", 1))
    cohomology_report(ctx, 3, engine="bareiss")
    cohomology_dims(ctx, 3, engine="rref")
    report = check_g_algebra(ctx, 4)
    assert report.passed and report.checks
    # one echelon per degree 1..3; is_coboundary reuses them
    assert calls == {"field": 3, "fraction-free": 3}
