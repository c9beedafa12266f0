import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lodayops.algebra import (AXIOMS, TYPES, axiom_mutation, product_fixture,
                              suspension_fixture, zero_fixture)
from lodayops.cochains import (Cochain, MultContext, bracket, brace,
                               canonical_multiplication, circ, cochain_dim,
                               delta_trias, diff_d, dot, gamma,
                               identity_cochain, random_cochain, zero_cochain)
from lodayops.fields import QQ, PrimeField
from lodayops.params import enumerate_params
from lodayops.preoperadic import r_index_tables


def test_table_shape(rng):
    alg = product_fixture("trias", 2)
    for n in (1, 2, 3):
        c = zero_cochain(alg, n)
        assert c.cells == {} and c.is_zero()
        assert cochain_dim(alg, n) == \
            len(enumerate_params("planar", n)) * alg.dim ** (n + 1)
        # the dense view keeps the layout [u_idx][flat inputs][output]
        table = random_cochain(alg, n, rng).table
        assert len(table) == len(enumerate_params("planar", n))
        assert all(len(rows) == alg.dim ** n for rows in table)
        assert all(len(row) == alg.dim for rows in table for row in rows)
        assert c.shifted == n - 1
    x = random_cochain(alg, 2, rng)
    table = x.table
    for u_idx, (a, b), out, coeff in x.entries():
        flat = a * alg.dim + b
        key = (u_idx * alg.dim ** 2 + flat) * alg.dim + out
        assert x.cells[key] == coeff == table[u_idx][flat][out]
    assert len(x.cells) == sum(1 for rows in table for row in rows
                               for coeff in row if coeff)


def test_identity_cochain_values():
    alg = product_fixture("tricub", 2)   # U_1 has three elements here
    ident = identity_cochain(alg)
    assert list(ident.entries()) == [
        (u_idx, (i,), i, alg.field.one)
        for u_idx in range(len(enumerate_params("signs", 1)))
        for i in range(alg.dim)]


def test_gamma_unit_laws_exact(rng):
    for t in TYPES:
        alg = product_fixture(t, 1)
        ident = identity_cochain(alg)
        for n in (1, 2, 3):
            f = random_cochain(alg, n, rng)
            assert gamma(f, [ident] * n) == f
        g = random_cochain(alg, 2, rng)
        assert gamma(ident, [g]) == g


def test_gamma_shape_checks(rng):
    alg = product_fixture("didend", 1)
    other = product_fixture("trias", 1)
    f = random_cochain(alg, 2, rng)
    with pytest.raises(ValueError):
        gamma(f, [identity_cochain(alg)])
    with pytest.raises(ValueError):
        gamma(f, [identity_cochain(other), identity_cochain(other)])


def _assoc_patterns():
    # (k; n_1..n_k; m_1..m_N) with k <= 2, n_i <= 2, m_j <= 2, sum(m) <= 5;
    # this covers every shape up to (2; 2,2; 1,1,1,1)
    pats = []
    for k in (1, 2):
        for ns in _tuples(k, 2):
            n_total = sum(ns)
            for ms in _tuples(n_total, 2):
                if sum(ms) <= 5:
                    pats.append((k, ns, ms))
    return pats


def _tuples(length, hi):
    if length == 0:
        return [()]
    return [(v,) + rest for v in range(1, hi + 1)
            for rest in _tuples(length - 1, hi)]


def test_gamma_associativity_exhaustive_dim1(rng):
    for t in TYPES:
        alg = product_fixture(t, 1)
        for k, ns, ms in _assoc_patterns():
            f = random_cochain(alg, k, rng)
            gs = [random_cochain(alg, n, rng) for n in ns]
            hs = [random_cochain(alg, m, rng) for m in ms]
            lhs = gamma(gamma(f, gs), hs)
            pos = 0
            inner = []
            for i, n in enumerate(ns):
                inner.append(gamma(gs[i], hs[pos:pos + n]))
                pos += n
            assert lhs == gamma(f, inner), (t, k, ns, ms)


def test_gamma_associativity_sampled_dim2(rng):
    alg = product_fixture("trias", 2)
    for _ in range(25):
        f = random_cochain(alg, 2, rng)
        gs = [random_cochain(alg, rng.choice((1, 2)), rng) for _ in range(2)]
        hs = [random_cochain(alg, 1, rng) for _ in range(sum(g.degree for g in gs))]
        lhs = gamma(gamma(f, gs), hs)
        pos = 0
        inner = []
        for g in gs:
            inner.append(gamma(g, hs[pos:pos + g.degree]))
            pos += g.degree
        assert lhs == gamma(f, inner)


def test_brace_base_cases(rng):
    alg = product_fixture("didend", 1)
    x = random_cochain(alg, 2, rng)
    assert brace(x, []) == x
    ident = identity_cochain(alg)
    y = random_cochain(alg, 1, rng)
    # single argument of shifted degree 0: both placements carry plus signs
    assert brace(x, [y]) == gamma(x, [y, ident]) + gamma(x, [ident, y])
    f = random_cochain(alg, 1, rng)
    assert brace(f, [y]) == gamma(f, [y])
    # too many arguments: empty sum of the formal degree
    z = brace(y, [x, x])
    assert z.degree == 2 + 2 + 1 - 2 and z.is_zero()


def test_circ_with_unit_gives_degree_many_copies(rng):
    # expanding the substitution sum with the unit: deg x placements, all +
    alg = product_fixture("trias", 1)
    ident = identity_cochain(alg)
    for n in (1, 2, 3):
        x = random_cochain(alg, n, rng)
        expected = zero_cochain(alg, n)
        for _ in range(n):
            expected = expected + x
        assert circ(x, ident) == expected


def test_bracket_antisymmetry(rng):
    alg = product_fixture("tridend", 1)
    for p, q in ((1, 1), (1, 2), (2, 2), (2, 3)):
        x = random_cochain(alg, p, rng)
        y = random_cochain(alg, q, rng)
        flip = bracket(y, x)
        sign = (x.shifted * y.shifted) % 2
        assert bracket(x, y) == (flip if sign else -flip)


def test_bracket_of_multiplication_vanishes():
    for t in TYPES:
        ctx = MultContext(product_fixture(t, 1))
        assert bracket(ctx.pi, ctx.pi).is_zero()
        assert diff_d(ctx, ctx.pi).is_zero()


def test_dot_degree_and_id_square(rng):
    alg = product_fixture("didend", 1)
    ctx = MultContext(alg)
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
        x = random_cochain(alg, p, rng)
        y = random_cochain(alg, q, rng)
        assert dot(ctx, x, y).degree == p + q
    # frozen by expanding the single substitution: dot(Id, Id) = -pi
    ident = ctx.identity
    assert dot(ctx, ident, ident) == -ctx.pi


def test_diff_degree_and_square(rng):
    for t in TYPES:
        alg = product_fixture(t, 1)
        ctx = MultContext(alg)
        for n in (1, 2, 3):
            x = random_cochain(alg, n, rng)
            dx = diff_d(ctx, x)
            assert dx.degree == n + 1
            assert diff_d(ctx, dx).is_zero()
    alg = product_fixture("trias", 2)
    ctx = MultContext(alg)
    for n in (1, 2):
        x = random_cochain(alg, n, rng)
        assert diff_d(ctx, diff_d(ctx, x)).is_zero()


def test_unit_cochain_built_at_most_once_per_call(rng, monkeypatch):
    from lodayops import cochains
    alg = product_fixture("trias", 2)
    ctx = MultContext(alg)
    x = random_cochain(alg, 2, rng)
    y = random_cochain(alg, 1, rng)
    builds = []

    def counting(a):
        builds.append(a)
        return identity_cochain(a)

    monkeypatch.setattr(cochains, "identity_cochain", counting)
    calls = {
        "brace": lambda: brace(x, [y]),
        "brace-two": lambda: brace(ctx.pi, [x, y]),
        "bracket": lambda: bracket(x, y),
        "dot": lambda: dot(ctx, x, y),
        "diff_d": lambda: diff_d(ctx, x),
    }
    for name, call in calls.items():
        builds.clear()
        expected = call()
        assert len(builds) <= 1, name
        monkeypatch.setattr(cochains, "identity_cochain", identity_cochain)
        assert call() == expected, name
        monkeypatch.setattr(cochains, "identity_cochain", counting)


def test_multiplication_square_zero_on_fixtures():
    for t in TYPES:
        for alg in (product_fixture(t, 1), product_fixture(t, 2),
                    zero_fixture(t), suspension_fixture(t)):
            pi = canonical_multiplication(alg)
            assert circ(pi, pi).is_zero(), t


def test_context_rejects_invalid_algebra():
    with pytest.raises(ValueError):
        MultContext(axiom_mutation("trias", 3))


def test_mutants_have_nonzero_pi_square():
    for t in TYPES:
        for index in range(1, len(AXIOMS[t]) + 1):
            alg = axiom_mutation(t, index)
            pi = canonical_multiplication(alg)
            assert not circ(pi, pi).is_zero(), (t, index)


def _t2_op(alg, u_idx):
    """Operation selected by a weight-2 tree under the canonical assignment."""
    e = enumerate_params(alg.kind, 2)[u_idx]
    parts = e.payload.children
    if len(parts) == 3:
        return "middle"
    return "left" if parts[0].is_leaf else "right"


def _tree_axiom_map(alg):
    """For each weight-3 tree: the instance ((A,B),(C,D)) realised by the
    square of the multiplication, read off the composition index tables."""
    left = r_index_tables(alg.kind, (2, 1))    # gamma(pi; pi, Id)
    right = r_index_tables(alg.kind, (1, 2))   # gamma(pi; Id, pi)
    out = []
    for u in range(len(enumerate_params(alg.kind, 3))):
        i0a, (i1a, _) = left[u]
        i0b, (_, i2b) = right[u]
        out.append((( _t2_op(alg, i1a), _t2_op(alg, i0a)),
                    (( _t2_op(alg, i0b), _t2_op(alg, i2b)))))
    return out


@pytest.mark.parametrize("type_tag", ["trias", "dias"])
def test_tree_axiom_correspondence_is_bijective(type_tag):
    alg = product_fixture(type_tag, 1)
    derived = _tree_axiom_map(alg)
    axioms = [ (lhs[0], rhs[0]) for lhs, rhs in AXIOMS[type_tag] ]
    assert sorted(derived) == sorted(axioms)
    assert len(set(derived)) == len(derived)


def test_trias_mutations_localise_on_the_matching_tree():
    alg = product_fixture("trias", 1)
    derived = _tree_axiom_map(alg)
    axioms = [(lhs[0], rhs[0]) for lhs, rhs in AXIOMS["trias"]]
    tree_of_axiom = {axioms.index(inst): u for u, inst in enumerate(derived)}
    for index in range(1, 12):
        mutated = axiom_mutation("trias", index)
        pi = canonical_multiplication(mutated)
        pipi = circ(pi, pi)
        nonzero = {u for u, _, _, _ in pipi.entries()}
        assert nonzero == {tree_of_axiom[index - 1]}, index


def test_comparison_theorem_entrywise_basis(rng):
    for dim in (1, 2):
        alg = product_fixture("trias", dim)
        ctx = MultContext(alg)
        for n in (1, 2):
            f = random_cochain(alg, n, rng)
            lhs = diff_d(ctx, f)
            rhs = delta_trias(alg, f)
            if (n + 1) % 2:
                rhs = -rhs
            assert lhs == rhs


def test_delta_square_zero(rng):
    alg = product_fixture("trias", 1)
    for n in (1, 2):
        f = random_cochain(alg, n, rng)
        assert delta_trias(alg, delta_trias(alg, f)).is_zero()
        assert delta_trias(alg, f).degree == n + 1


def test_delta_requires_trias():
    alg = product_fixture("didend", 1)
    with pytest.raises(ValueError):
        delta_trias(alg, zero_cochain(alg, 1))


def test_multilinearity_of_gamma_and_brace(rng):
    alg = product_fixture("trias", 1)
    f = random_cochain(alg, 2, rng)
    g = random_cochain(alg, 1, rng)
    g2 = random_cochain(alg, 1, rng)
    h = random_cochain(alg, 1, rng)
    assert gamma(f, [g + g2, h]) == gamma(f, [g, h]) + gamma(f, [g2, h])
    assert brace(f, [g + g2]) == brace(f, [g]) + brace(f, [g2])
    x2 = random_cochain(alg, 2, rng)
    assert brace(f + x2, [g]) == brace(f, [g]) + brace(x2, [g])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([QQ, PrimeField(101)]),
       st.sampled_from([1, 2]))
def test_results_store_no_zero_coefficient(seed, field, dim):
    # coefficients in {-1, 0, 1} make cancellations common
    rng = random.Random(seed)
    alg = product_fixture("trias", dim, field=field)
    ctx = MultContext(alg)
    x1, y1 = (random_cochain(alg, 1, rng, span=1) for _ in range(2))
    x2, y2 = (random_cochain(alg, 2, rng, span=1) for _ in range(2))
    results = [x2 + y2, x2 - y2, x2.scaled(field.zero),
               x2.scaled(field.from_fraction(3)), -x2,
               gamma(x2, [x1, y1]), gamma(x1, [y2]), brace(x2, [x1]),
               brace(x2, [x1, y1]), bracket(x1, y2), bracket(x2, y2),
               diff_d(ctx, x1), diff_d(ctx, y2), delta_trias(alg, x2),
               delta_trias(alg, delta_trias(alg, x1))]
    for x in results:
        assert all(c != field.zero for c in x.cells.values())
        keys = [((u_idx * dim ** x.degree + _flat(tup, dim)) * dim + out)
                for u_idx, tup, out, _ in x.entries()]
        assert keys == sorted(x.cells)
    assert x2.scaled(field.zero) == zero_cochain(alg, 2)
    for x in (x1, x2, y2, brace(x2, [x1])):
        zero = zero_cochain(alg, x.degree)
        assert x - x == zero
        assert x + (-x) == zero


def _flat(tup, d):
    flat = 0
    for b in tup:
        flat = flat * d + b
    return flat


def _as_fractions(x):
    return Cochain(x.alg, x.degree,
                   {i: Fraction(c) for i, c in x.cells.items()})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from([("trias", 1), ("trias", 2), ("tricub", 1)]))
def test_integral_cells_stay_int_and_match_fraction_cells(seed, key):
    # over Q an integral scalar is an int; the same cochains with every
    # cell cast to Fraction must give equal results
    rng = random.Random(seed)
    alg = product_fixture(*key)
    ctx = MultContext(alg)
    x1, y1 = (random_cochain(alg, 1, rng) for _ in range(2))
    x2 = random_cochain(alg, 2, rng)

    def results(x1, y1, x2):
        out = [gamma(x2, [x1, y1]), gamma(x1, [x2]), brace(x2, [x1]),
               brace(x2, [x1, y1]), bracket(x1, x2), bracket(x2, x2),
               dot(ctx, x1, y1), dot(ctx, x1, x2), diff_d(ctx, x1),
               diff_d(ctx, x2)]
        if alg.type_tag == "trias":
            out += [delta_trias(alg, x1), delta_trias(alg, x2)]
        return out

    ints = results(x1, y1, x2)
    assert ints == results(*map(_as_fractions, (x1, y1, x2)))
    assert any(not x.is_zero() for x in ints)
    for x in [x1, y1, x2, ctx.pi, ctx.identity] + ints:
        assert all(type(c) is int for c in x.cells.values())
