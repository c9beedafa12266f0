import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lodayops.fields import QQ, PrimeField
from lodayops.linalg import (column_echelon, independent_mod_image,
                             rank_bareiss)

F101 = PrimeField(101)


def random_matrix(rng, nrows, ncols, rank):
    """Matrix of known rank: product of random full-rank-ish factors."""
    a = [[Fraction(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(nrows)]
    b = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(rank)]
    # force pivots so the factors have full rank
    for i in range(rank):
        a[i][i] += 7
        b[i][i] += 7
    return [[sum(a[r][k] * b[k][c] for k in range(rank)) for c in range(ncols)]
            for r in range(nrows)]


def sparse_rows(m):
    return [{c: v for c, v in enumerate(row) if v} for row in m]


def columns(m, field=QQ):
    ncols = len(m[0]) if m else 0
    return [{r: field.from_fraction(row[c]) for r, row in enumerate(m) if row[c]}
            for c in range(ncols)]


def echelon(m, field=QQ):
    return column_echelon(columns(m, field), field)


def dense(vec, n, field=QQ):
    out = [field.zero] * n
    for i, v in vec.items():
        out[i] = v
    return out


def times(m, x, field=QQ):
    """M x for a dense matrix of Fractions and a dense vector over field,
    reduced mod p here over F_p."""
    p = field.characteristic
    out = []
    for row in m:
        acc = sum(field.from_fraction(a) * b for a, b in zip(row, x))
        out.append(acc % p if p else acc)
    return out


def test_rank_engines_agree_on_random_matrices():
    rng = random.Random(12)
    for _ in range(30):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rank = rng.randint(0, min(nrows, ncols))
        m = random_matrix(rng, nrows, ncols, rank)
        rb = rank_bareiss(sparse_rows(m), ncols)
        rows_p = [{c: F101.from_fraction(v) for c, v in row.items()}
                  for row in sparse_rows(m)]
        assert rb == echelon(m).rank == echelon(m, F101).rank
        assert rank_bareiss(rows_p, ncols, 101) == rb
        # the columns as the rows of the transpose
        assert rank_bareiss(columns(m), nrows) == rb
        assert rank_bareiss(columns(m, F101), nrows, 101) == rb
        assert rb <= rank


def test_known_ranks():
    assert rank_bareiss([{0: 1, 1: 2}, {0: 2, 1: 4}], 2) == 1
    assert rank_bareiss([{0: 1}, {1: 1}], 2) == 2
    assert rank_bareiss([{}, {}], 2) == 0
    assert rank_bareiss([], 3) == 0
    # determinant -5: full rank over Q, rank 1 over F_5, entries reduced
    rows = [{0: 1, 1: 2}, {0: 3, 1: 1}]
    assert rank_bareiss(rows, 2) == 2
    assert rank_bareiss(rows, 2, 5) == 1
    assert echelon([[1, 2], [3, 1]], PrimeField(5)).rank == 1
    assert rank_bareiss([{0: 10}, {1: -3}], 2, 5) == 1
    assert echelon([[Fraction(1, 2), Fraction(1)],
                    [Fraction(1), Fraction(2)]]).rank == 1


def test_rank_bareiss_refuses_columns_outside_range():
    # a float or a bool column used to be counted as a column of its own:
    # rank_bareiss([{0.5: 1}], 2) was 1
    for column in (2, -1, 0.5, 1.0, True):
        message = r"^column must be an int in 0\.\.1, got %r$" % column
        with pytest.raises(ValueError, match=message):
            rank_bareiss([{0: 1}, {1: 1}, {0: 2, column: 1}], 2)
        with pytest.raises(ValueError, match=message):
            rank_bareiss([{column: 1}], 2, 5)


def test_clear_denominators():
    # rational rows are scaled to integers row by row: these two rows are
    # proportional only if the denominators are cleared exactly
    rows = [{0: Fraction(1, 2), 1: Fraction(2, 3)}, {0: 3, 1: 4}]
    assert rank_bareiss(rows, 2) == 1
    rows[1] = {0: 3, 1: 5}
    assert rank_bareiss(rows, 2) == 2


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(20):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
             for _ in range(nrows)]
        ech = echelon(m)
        assert ech.rank + len(ech.kernel) == ncols
        assert rank_bareiss(sparse_rows(m), ncols) == ech.rank
        pivots = [p.column for p in ech.basis]
        free = [c for c in range(ncols) if c not in pivots]
        for f, vec in zip(free, ech.kernel):
            assert all(v == 0 for v in times(m, dense(vec, ncols)))
            # canonical form: 1 at the free column, otherwise supported on
            # the pivot columns before it (the RREF kernel vector)
            assert vec[f] == 1
            assert all(c == f or (c in pivots and c < f) for c in vec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=5, max_size=5),
                min_size=1, max_size=5),
       st.sampled_from([QQ, F101]),
       st.lists(st.integers(-2, 2), min_size=5, max_size=5))
def test_kernel_is_canonical_on_generated_matrices(m, field, x):
    m = [[Fraction(v) for v in row] for row in m]
    ech = echelon(m, field)
    assert ech.rank + len(ech.kernel) == 5
    if field == QQ:
        assert rank_bareiss(sparse_rows(m), 5) == ech.rank
    pivots = [p.column for p in ech.basis]
    # the pivots are the greedy column set: a column is a pivot exactly when
    # it is independent of the columns before it
    for c in range(5):
        before = echelon([row[:c + 1] for row in m], field).rank
        assert (c in pivots) == (before > len([p for p in pivots if p < c]))
    for vec in ech.kernel:
        f = max(vec)
        assert f not in pivots and vec[f] == field.one
        assert all(c == f or c in pivots for c in vec)
        assert all(v == field.zero for v in times(m, dense(vec, 5, field),
                                                  field))
    x = [field.from_fraction(v) for v in x]
    image = times(m, x, field)
    pre = ech.preimage(dict(enumerate(image)))
    assert pre is not None and times(m, dense(pre, 5, field), field) == image
    # a unit vector is an image exactly when adding it as a column keeps
    # the rank
    for r in range(len(m)):
        unit = [row + [Fraction(int(i == r))] for i, row in enumerate(m)]
        outside = echelon(unit, field).rank > ech.rank
        assert (ech.preimage({r: field.one}) is None) == outside


def test_solve_consistent_and_inconsistent():
    m = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    x = echelon(m).preimage({0: Fraction(3), 1: Fraction(1)})
    assert dense(x, 2) == [Fraction(2), Fraction(1)]
    m = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert echelon(m).preimage({0: Fraction(1), 1: Fraction(3)}) is None
    assert echelon(m).preimage({}) == {}
    rng = random.Random(8)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
             for _ in range(nrows)]
        target = [Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
        rhs = times(m, target)
        x = echelon(m).preimage(dict(enumerate(rhs)))
        assert x is not None
        assert times(m, dense(x, ncols)) == rhs
        ech = echelon(m)
        for r in range(nrows):
            # a unit vector outside the image, alone or added to an image
            if ech.preimage({r: Fraction(1)}) is None:
                rhs[r] += 1
                assert ech.preimage(dict(enumerate(rhs))) is None
                break


def test_prime_field_elimination():
    f = F101
    m = [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]]
    assert echelon(m, f).rank == 1
    ech = column_echelon([{0: 2, 1: 1}, {0: 4, 1: 3}], f)
    assert [p.column for p in ech.basis] == [0, 1]
    assert ech.kernel == ()
    # values outside range(p) are read mod p, in the columns and in the
    # vectors to solve for: 101 and 202 are zero, so the second column is
    # in the kernel, row 0 ties with row 1 and wins, and 0 is an image
    ech = column_echelon([{0: 1, 1: 1}, {0: 101}], f)
    assert [p.row for p in ech.basis] == [0] and ech.kernel == ({1: 1},)
    assert ech.preimage({0: 101, 2: 202}) == {}


def test_reduction_follows_pivot_order():
    # row 1 is the sparser row of column 0, so pivot 0 sits on row 1; its
    # image is nonzero on row 0, the row of pivot 1, which reducing by
    # pivot 0 brings in and pivot 1 must then clear
    for field in (QQ, F101):
        ech = column_echelon([{0: 1, 1: 1}, {0: 1}], field)
        assert tuple(p.row for p in ech.basis) == (1, 0)
        x = ech.preimage({1: 1})
        assert times([[1, 1], [1, 0]], dense(x, 2, field), field) == [0, 1]
        assert ech.preimage({0: 1}) is not None
        assert independent_mod_image(ech, [{1: 1}, {2: 1}]) == [1]


def test_echelon_is_not_changed_by_use():
    ech = echelon([[Fraction(1), Fraction(1), Fraction(0)],
                   [Fraction(0), Fraction(1), Fraction(1)],
                   [Fraction(0), Fraction(0), Fraction(0)]])
    snapshot = copy.deepcopy((ech.basis, ech.kernel, ech.by_row))
    ech.preimage({0: Fraction(2), 1: Fraction(5)})
    independent_mod_image(ech, [{2: Fraction(1)}, {0: Fraction(1)}])
    assert (ech.basis, ech.kernel, ech.by_row) == snapshot


def test_extend_independent():
    # against an empty image: plain greedy independence
    ech = column_echelon([], QQ)
    vecs = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)],
            [Fraction(0), Fraction(1)], [Fraction(5), Fraction(7)]]
    assert independent_mod_image(ech, [dict(enumerate(v)) for v in vecs]) \
        == [0, 2]
    rng = random.Random(3)
    for _ in range(10):
        dim = rng.randint(2, 6)
        vecs = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
                for _ in range(dim + 2)]
        added = independent_mod_image(ech, [dict(enumerate(v)) for v in vecs])
        assert len(added) == echelon(vecs).rank
        # modulo the image of a matrix: count the dimension of the sum
        m = [[Fraction(rng.randint(-1, 1)) for _ in range(2)]
             for _ in range(dim)]
        below = echelon(m)
        added = independent_mod_image(below,
                                      [dict(enumerate(v)) for v in vecs])
        both = [[row[0], row[1]] + [v[r] for v in vecs]
                for r, row in enumerate(m)]
        assert below.rank + len(added) == echelon(both).rank


def _combination(rng, vecs, field):
    """A seeded random combination of sparse vectors, collected."""
    out = {}
    for vec in vecs:
        coeff = rng.randint(-2, 2)
        for i, v in vec.items():
            out[i] = out.get(i, 0) + coeff * v
    return field.collect({i: field.from_fraction(v) for i, v in out.items()})


def _greedy_independent(image, vectors, nrows, field):
    """The oracle: keep vector i iff it raises the rank, by the row engine,
    of the image columns, the vectors kept so far and vector i."""
    p = field.characteristic
    kept, keep = [], []
    rank = rank_bareiss(image, nrows, p)
    for idx, vec in enumerate(vectors):
        grown = rank_bareiss(image + kept + [vec], nrows, p)
        if grown > rank:
            rank = grown
            kept.append(vec)
            keep.append(idx)
    return keep


def test_independent_mod_image_matches_greedy_rank_oracle():
    rng = random.Random(35)
    for field in (QQ, F101):
        for _ in range(60):
            nrows = rng.randint(2, 9)

            def sparse():
                return field.collect({
                    r: field.from_fraction(Fraction(rng.randint(-4, 4),
                                                    rng.randint(1, 3)))
                    for r in range(nrows) if rng.random() < 0.35})

            image = [sparse() for _ in range(rng.randint(0, 5))]
            # dependent columns, so the echelon has a kernel too
            image += [_combination(rng, image, field)
                      for _ in range(rng.randint(0, 2))]
            vectors = []
            for _ in range(rng.randint(0, 10)):
                kind = rng.randrange(5)
                if kind == 0:       # in the image
                    vec = _combination(rng, image, field)
                elif kind == 1 and vectors:     # a repeat
                    vec = dict(rng.choice(vectors))
                elif kind == 2:     # zero
                    vec = {}
                elif kind == 3:     # the span of the image and the earlier
                    vec = _combination(rng, image + vectors, field)
                else:
                    vec = sparse()
                vectors.append(vec)
            ech = column_echelon(image, field)
            assert (independent_mod_image(ech, vectors)
                    == _greedy_independent(image, vectors, nrows, field))
