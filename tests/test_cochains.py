import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from lodayops import cochains, cohomology
from lodayops.algebra import AXIOMS, TYPES
from lodayops.algfile import load_algebra
from lodayops.cochains import (Cochain, MultContext, bracket, brace,
                               canonical_multiplication, circ, cochain_dim,
                               delta_trias, diff_d, dot, gamma,
                               identity_cochain, random_cochain, zero_cochain)
from lodayops.cohomology import DifferentialMatrix, matrix_of_d
from lodayops.fields import QQ, PrimeField
from lodayops.params import _family, enumerate_params
from lodayops.preoperadic import r_index_tables, r_part, r_zero

from conftest import t2_op
from corpus import (axiom_mutation, product_fixture, suspension_fixture,
                    zero_fixture)


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
    ident = identity_cochain(alg)
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


CORPUS_FILES = ("dias_dim1", "didend_dim1", "trias_dim1", "trias_dim2",
                "tridend_dim1", "tricub_dim1", "zero_didend_dim1")


def test_diff_d_equals_the_bracket_route(fixture_dir, rng):
    # diff_d applies the matrix of d, built once per degree and cached on
    # the context; [pi, x] is the brace route.  Three single-cell cochains
    # (first, middle and last cell) and one dense one per degree n <= 3, on
    # every corpus file and on the dim-2 product of each type over Q and
    # F_7, and per degree n <= 2 on each type's suspension, where the
    # matrix of d^3 has up to 395,307 columns
    algebras = ([(load_algebra(fixture_dir / ("%s.alg" % name)), 3)
                 for name in CORPUS_FILES]
                + [(product_fixture(t, 2, field=field), 3)
                   for t in TYPES for field in (QQ, PrimeField(7))]
                + [(suspension_fixture(t), 2) for t in TYPES])
    checked = 0
    for alg, top in algebras:
        ctx = MultContext(alg)
        for n in range(1, top + 1):
            size = cochain_dim(alg, n)
            xs = [Cochain(alg, n, {c: alg.field.one})
                  for c in (0, size // 2, size - 1)]
            xs.append(random_cochain(alg, n, rng))
            for x in xs:
                assert diff_d(ctx, x) == bracket(ctx.pi, x), (alg, n)
                checked += 1
        assert sorted(ctx.matrix_cache) == list(range(1, top + 1))
    assert checked == 244


def test_unit_cochain_built_at_most_once_per_call(rng, monkeypatch):
    # the free slots of a brace pass the unit to gamma as a marker, so no
    # call builds the unit cochain at all
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
        assert builds == [], name
        monkeypatch.setattr(cochains, "identity_cochain", identity_cochain)
        assert call() == expected, name
        monkeypatch.setattr(cochains, "identity_cochain", counting)


def _brace_by_gamma(x, xs, compose=gamma):
    """x{x_1..x_n} written out: the sum over order-preserving slot choices
    s_1 < .. < s_n of compose(x; ..) with x_p in slot s_p and the unit
    cochain in every other slot, signed by (-1)^(sum_p |x_p| i_p), where
    i_p = deg g_1 + .. + deg g_(s_p - 1) counts the inputs in front of x_p;
    ``compose`` is gamma or its oracle."""
    alg = x.alg
    ident = identity_cochain(alg)
    total = zero_cochain(alg, x.degree + sum(g.degree for g in xs) - len(xs))
    for chosen in combinations(range(x.degree), len(xs)):
        gs = [ident] * x.degree
        for p, s in enumerate(chosen):
            gs[s] = xs[p]
        eps = sum(xs[p].shifted * sum(g.degree for g in gs[:s])
                  for p, s in enumerate(chosen))
        term = compose(x, gs)
        total = total - term if eps % 2 else total + term
    return total


def _bracket_by_gamma(x, y, compose=gamma):
    """[x, y] = x{y} - (-1)^(|x||y|) y{x}, on the written-out braces."""
    flip = _brace_by_gamma(y, [x], compose)
    if (x.shifted * y.shifted) % 2:
        return _brace_by_gamma(x, [y], compose) + flip
    return _brace_by_gamma(x, [y], compose) - flip


def _shapes(top):
    """(deg x, degrees of x_1..x_n) with 1 <= n <= deg x and a brace of
    degree at most ``top``."""
    out = []
    for k in range(1, top + 1):
        for n in range(1, k + 1):
            for ds in _tuples(n, top):
                if k + sum(ds) - n <= top:
                    out.append((k, ds))
    return out


# the highest degree whose dense random cochains stay cheap: 3 in dimension
# 2, 2 on the suspensions (dimension 9 to 11)
UNIT_CASES = ([("product:%s" % t, 3) for t in TYPES]
              + [("suspension:%s" % t, 2) for t in TYPES]
              + [("fp101:trias_dim2", 3), ("scaled:trias_dim2", 3)])


@pytest.mark.parametrize("case,top", UNIT_CASES,
                         ids=[c for c, _ in UNIT_CASES])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_unit_slots_match_explicit_unit_cochain(case, top, case_algebra,
                                                data):
    # brace, bracket, dot and d fill free slots with the unit by index;
    # the oracle composes with the unit cochain itself
    alg = case_algebra(case)
    ctx = MultContext(alg)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    degrees = range(1, top + 1)
    k, ds = data.draw(st.sampled_from(_shapes(top)), label="brace shape")
    p, q = data.draw(st.sampled_from([(p, q) for p in degrees for q in degrees
                                      if p + q - 1 <= top]),
                     label="bracket degrees")
    a, b = data.draw(st.sampled_from([(a, b) for a in degrees for b in degrees
                                      if a + b <= top]),
                     label="dot degrees")
    e = data.draw(st.integers(1, top - 1), label="d degree")
    x = random_cochain(alg, k, rng)
    xs = [random_cochain(alg, n, rng) for n in ds]
    y, z = random_cochain(alg, p, rng), random_cochain(alg, q, rng)
    u, v = random_cochain(alg, a, rng), random_cochain(alg, b, rng)
    w = random_cochain(alg, e, rng)
    slow_dot = _brace_by_gamma(ctx.pi, [u, v])
    pairs = [(brace(x, xs), _brace_by_gamma(x, xs)),
             (bracket(y, z), _bracket_by_gamma(y, z)),
             (dot(ctx, u, v), -slow_dot if a % 2 else slow_dot),
             (diff_d(ctx, w), _bracket_by_gamma(ctx.pi, w))]
    fractions = False
    for fast, slow in pairs:
        assert fast == slow
        assert not slow.is_zero()
        # equal values are not enough: an int must stay an int
        assert [type(fast.cells[i]) for i in sorted(fast.cells)] == \
            [type(slow.cells[i]) for i in sorted(slow.cells)]
        fractions = fractions or any(type(c) is Fraction
                                     for c in fast.cells.values())
    assert all(type(c) is int for fast, _ in pairs[:2]
               for c in fast.cells.values())
    assert fractions == case.startswith("scaled:")


def _gamma_by_definition(f, gs):
    """gamma(f; g_1..g_k) cell by cell from its definition, without the
    composition kernel: the value at (r; x_1..x_N) is f at R_0(r) applied
    to the values of the g_t at (R_t(r), t-th input block), with R_0 and R_t
    read element by element through ``r_zero`` and ``r_part``.  Since f is
    multilinear, only the cells where every g_t is nonzero on its block are
    visited; every other cell is zero.  Values are built with the operators
    and reduced mod p here over F_p, apart from the library's collect step."""
    alg = f.alg
    d, kind, p = alg.dim, alg.kind, alg.field.characteristic
    parts = tuple(g.degree for g in gs)
    total = sum(parts)

    def cell(n, u_idx, inputs, out):
        return (u_idx * d ** n + _flat(inputs, d)) * d + out

    memo = {}

    def values(t, u_idx):
        """(input block, {output: nonzero value}) of g_t at u_idx."""
        if (t, u_idx) not in memo:
            g = gs[t]
            memo[t, u_idx] = out = []
            for block in product(range(d), repeat=g.degree):
                vals = {c: g.cells[i] for c in range(d)
                        for i in (cell(g.degree, u_idx, block, c),)
                        if i in g.cells}
                if vals:
                    out.append((block, vals))
        return memo[t, u_idx]

    cells = {}
    slot_index = [_family(kind, n_t)[1] for n_t in parts]
    for r_idx, r in enumerate(enumerate_params(kind, total)):
        f_idx = _family(kind, len(parts))[1][r_zero(kind, parts, r)]
        per_slot = [values(t, index[r_part(kind, parts, t + 1, r)])
                    for t, index in enumerate(slot_index)]
        for choice in product(*per_slot):
            inputs = sum((block for block, _ in choice), ())
            value = {}
            for args in product(*(vals.items() for _, vals in choice)):
                coeff = 1
                for _, v in args:
                    coeff *= v
                f_inputs = tuple(c for c, _ in args)
                for out in range(d):
                    a = f.cells.get(cell(f.degree, f_idx, f_inputs, out))
                    if a is not None:
                        value[out] = value.get(out, 0) + coeff * a
            for out, v in value.items():
                if p:
                    v %= p
                if v:
                    cells[cell(total, r_idx, inputs, out)] = v
    return Cochain(alg, total, cells)


def _sample(alg, n, density, rng):
    """A degree-n cochain with one cell, three cells or every cell set to a
    nonzero integer in -3..3."""
    size = cochain_dim(alg, n)
    keys = (range(size) if density == "dense"
            else rng.sample(range(size), 1 if density == "single" else 3))
    return Cochain(alg, n, {i: alg.field.from_fraction(
        rng.choice((-3, -2, -1, 1, 2, 3))) for i in keys})


ORACLE_CASES = [(source, t, name) for source in ("product", "suspension")
                for t in TYPES for name in ("Q", "F101")]


@pytest.mark.parametrize("source,type_tag,field_name", ORACLE_CASES,
                         ids=["%s:%s:%s" % case for case in ORACLE_CASES])
def test_operations_match_the_gamma_oracle(source, type_tag, field_name):
    # gamma, brace, bracket, dot and d against sums of the cell-by-cell
    # oracle, with the unit cochain in the free slots
    field = QQ if field_name == "Q" else PrimeField(101)
    if source == "product":
        alg = product_fixture(type_tag, 2, field=field)
    else:
        alg = suspension_fixture(type_tag, field=field)
    ctx = MultContext(alg)
    rng = random.Random("%s:%s:%s" % (source, type_tag, field_name))
    oracle = _gamma_by_definition
    for density in ("single", "few", "dense"):
        # a suspension has dimension 9 to 11: a dense operand there has
        # degree 1, and its degree-2 operand stays few-celled
        b_density = ("few" if source == "suspension" and density == "dense"
                     else density)
        a, a2 = (_sample(alg, 1, density, rng) for _ in range(2))
        b = _sample(alg, 2, b_density, rng)
        pairs = [
            ("gamma", gamma(b, [a, b]), oracle(b, [a, b])),
            ("b{a}", brace(b, [a]), _brace_by_gamma(b, [a], oracle)),
            ("b{a,a2}", brace(b, [a, a2]),
             _brace_by_gamma(b, [a, a2], oracle)),
            ("[a,b]", bracket(a, b), _bracket_by_gamma(a, b, oracle)),
            ("[a,a]", bracket(a, a), _bracket_by_gamma(a, a, oracle)),
            ("[b,b]", bracket(b, b), _bracket_by_gamma(b, b, oracle)),
            # dot folds (-1)^(deg x) into its accumulation: odd, then even
            ("a.b", dot(ctx, a, b),
             -_brace_by_gamma(ctx.pi, [a, b], oracle)),
            ("b.a", dot(ctx, b, a), _brace_by_gamma(ctx.pi, [b, a], oracle)),
            ("da", diff_d(ctx, a), _bracket_by_gamma(ctx.pi, a, oracle)),
            ("db", diff_d(ctx, b), _bracket_by_gamma(ctx.pi, b, oracle)),
        ]
        for label, fast, slow in pairs:
            assert fast == slow, (density, label)
            assert all(type(c) is int for c in fast.cells.values())
            # [a, a] = a{a} - a{a} vanishes since |a| = 0; with b
            # few-celled, so may gamma(b; a, b), [b, b] and b . a
            if density == "dense" and label != "[a,a]" and (
                    source == "product" or label not in ("gamma", "[b,b]",
                                                         "b.a")):
                assert not slow.is_zero(), label


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


def _tree_axiom_map(alg):
    """For each weight-3 tree: the instance ((A,B),(C,D)) realised by the
    square of the multiplication, read off the composition index tables."""
    left0, (left1, _) = r_index_tables(alg.kind, (2, 1))    # gamma(pi; pi, Id)
    right0, (_, right2) = r_index_tables(alg.kind, (1, 2))  # gamma(pi; Id, pi)
    out = []
    for u in range(len(enumerate_params(alg.kind, 3))):
        out.append(((t2_op(alg, left1[u]), t2_op(alg, left0[u])),
                    (t2_op(alg, right0[u]), t2_op(alg, right2[u]))))
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


def _cofaces(ctx, x):
    """delta^0 x, ..., delta^(n+1) x for x of degree n, the cofaces that pi
    makes on the cochains (SIGN_NOTES.md): delta^0 x = gamma(pi; Id, x),
    delta^i x = gamma(x; Id,...,pi at slot i-1,...,Id) for 1 <= i <= n, and
    delta^(n+1) x = gamma(pi; x, Id)."""
    ident = identity_cochain(ctx.alg)
    n = x.degree
    return ([gamma(ctx.pi, [ident, x])]
            + [gamma(x, [ctx.pi if s == i - 1 else ident for s in range(n)])
               for i in range(1, n + 1)]
            + [gamma(ctx.pi, [x, ident])])


def test_cofaces_are_cosimplicial_and_sum_to_d(fixture_dir):
    # pi{pi} = 0 makes the cochains a cosimplicial object (McClure-Smith):
    # delta^j delta^i = delta^i delta^(j-1) for i < j <= n + 2, and
    # sum_i (-1)^i delta^i x = (-1)^(n+1) d x.  Three seeded dense cochains
    # per case: C(n+3, 2) instances each, 162 in all
    cases = [(load_algebra(fixture_dir / "trias_dim2.alg"), (1, 2)),
             (product_fixture("dias", 2), (1, 2)),
             (product_fixture("tridend", 2), (1, 2)),
             (suspension_fixture("tricub"), (1,))]
    checked = 0
    for alg, degrees in cases:
        ctx = MultContext(alg)
        rng = random.Random(7)
        for n in degrees:
            for _ in range(3):
                x = random_cochain(alg, n, rng)
                faces = _cofaces(ctx, x)
                twice = [_cofaces(ctx, face) for face in faces]
                for j in range(1, n + 3):
                    for i in range(j):
                        assert twice[i][j] == twice[j - 1][i], (n, i, j)
                        assert not twice[i][j].is_zero()
                        checked += 1
                alternating = faces[0]
                for i, face in enumerate(faces[1:], start=1):
                    alternating = (alternating - face if i % 2
                                   else alternating + face)
                d = diff_d(ctx, x)
                assert not d.is_zero()
                assert alternating == (-d if (n + 1) % 2 else d)
    assert checked == 162


def _coface_matrices(ctx, n):
    """delta^0..delta^(n+1) on degree n as matrices, each assembled alone
    from the signed coface walks that matrix_of_d sums, with its sign
    (-1)^(n+1+i) taken off."""
    out = []
    for i, walk in enumerate(cohomology._cofaces(ctx, n)):
        m = cohomology._summed(ctx, n, [walk])
        if (n + 1 + i) % 2:
            m = DifferentialMatrix(n, m.nrows, m.ncols, tuple(
                {r: -v for r, v in col.items()} for col in m.columns),
                m.field)
        out.append(m)
    return out


def _product(a, b):
    """The columns of the sparse product a*b."""
    return [a.field.collect(a._product(col)) for col in b.columns]


@pytest.mark.parametrize("case", ["file:trias_dim2"]
                         + ["product:%s" % t for t in TYPES])
def test_coface_matrices_are_cosimplicial_and_sum_to_d(case, case_algebra):
    # the matrix-level form of the test above: delta^j delta^i =
    # delta^i delta^(j-1) for i < j as sparse products, each nonzero, on
    # C(n+3, 2) pairs for n = 1, 2, 3: 31 instances per algebra
    ctx = MultContext(case_algebra(case))
    one = ctx.alg.field.one
    faces = {n: _coface_matrices(ctx, n) for n in range(1, 5)}
    checked = 0
    for n in range(1, 4):
        for j in range(1, n + 3):
            for i in range(j):
                left = _product(faces[n + 1][j], faces[n][i])
                assert left == _product(faces[n + 1][i],
                                        faces[n][j - 1]), (n, i, j)
                assert any(left)
                checked += 1
        # the signed sum is the matrix of d, and each coface is the
        # gamma route on the basis cochains
        signed = [{} for _ in range(cochain_dim(ctx.alg, n))]
        for i, face in enumerate(faces[n]):
            for acc, col in zip(signed, face.columns):
                for r, v in col.items():
                    acc[r] = acc.get(r, 0) + (-v if (n + 1 + i) % 2 else v)
        assert tuple(map(ctx.alg.field.collect, signed)) == \
            matrix_of_d(ctx, n).columns
        if n < 3:
            for c in range(cochain_dim(ctx.alg, n)):
                routes = _cofaces(ctx, Cochain(ctx.alg, n, {c: one}))
                assert [ctx.alg.field.collect(face.columns[c])
                        for face in faces[n]] == [x.cells for x in routes]
    assert checked == 31


def _one_face(full, i):
    """The face table ``full`` with every face but face i emptied."""
    return lambda kind, n: tuple(pushes if j == i else {}
                                 for j, pushes in enumerate(full(kind, n)))


def test_delta_matches_d_face_by_face(fixture_dir, monkeypatch):
    # delta with its face table cut down to face i is the unsigned coface
    # delta^i, so (-1)^(n+1) times the i-th signed walk of matrix_of_d, on
    # every basis cochain: the n+2 faces of trias_dim2 for n <= 3 and of
    # the trias suspension for n <= 2 (19 faces), and on binary trees of
    # dias_dim1 for n <= 4, of dias_dim2 over F_7 for n <= 3 and of the
    # dias suspension for n <= 2 (37 faces), each nonzero
    full = cochains._delta_data
    checked = 0
    for alg, top in ((load_algebra(fixture_dir / "trias_dim2.alg"), 3),
                     (suspension_fixture("trias"), 2),
                     (load_algebra(fixture_dir / "dias_dim1.alg"), 4),
                     (product_fixture("dias", 2, field=PrimeField(7)), 3),
                     (suspension_fixture("dias"), 2)):
        ctx = MultContext(alg)
        for n in range(1, top + 1):
            for i, walk in enumerate(cohomology._cofaces(ctx, n)):
                monkeypatch.setattr(cochains, "_delta_data",
                                    _one_face(full, i))
                columns = cohomology._summed(ctx, n, [walk]).columns
                assert any(columns), (n, i)
                for c, col in enumerate(columns):
                    if (n + 1) % 2:
                        col = alg.field.collect(
                            {r: -v for r, v in col.items()})
                    assert delta_trias(alg, Cochain(alg, n, {c: 1})).cells \
                        == col, (alg.type_tag, n, i, c)
                checked += 1
    assert checked == 19 + 37


def test_zero_cochain_of_degree_zero_refused():
    # the families have no arity-0 part, so there are no degree-0 cochains
    with pytest.raises(ValueError,
                       match="^degree must be an int >= 1, got 0$"):
        zero_cochain(product_fixture("trias", 1), 0)


def test_delta_requires_trias():
    alg = product_fixture("didend", 1)
    with pytest.raises(ValueError):
        delta_trias(alg, zero_cochain(alg, 1))


def test_delta_refuses_cochains_of_another_algebra(rng):
    # it used to read the cells against the wrong dimension and return a
    # 5-cell cochain
    f = random_cochain(product_fixture("trias", 2), 2, rng)
    with pytest.raises(ValueError, match="^cochain of another algebra$"):
        delta_trias(product_fixture("trias", 1), f)


# the eight entries that take cochains over one algebra, each given one
# cochain y of another algebra, with x of the context's
FOREIGN = {
    "sum": lambda ctx, x, y: x + y,
    "gamma": lambda ctx, x, y: gamma(x, [y]),
    "brace": lambda ctx, x, y: brace(x, [y]),
    "bracket": lambda ctx, x, y: bracket(x, y),
    "dot": lambda ctx, x, y: dot(ctx, x, y),
    "diff_d": lambda ctx, x, y: diff_d(ctx, y),
    "delta_trias": lambda ctx, x, y: delta_trias(ctx.alg, y),
    "coboundary_preimage":
        lambda ctx, x, y: cohomology.coboundary_preimage(ctx, y),
}


@pytest.mark.parametrize("entry", sorted(FOREIGN))
def test_foreign_cochain_gets_the_one_message(entry, rng):
    # the eight checks used four messages; a zero algebra of the same type
    # and dimension has the same cell layout, so only the check refuses it
    ctx = MultContext(product_fixture("trias", 1))
    x = random_cochain(ctx.alg, 1, rng)
    for other in (zero_fixture("trias", 1), product_fixture("trias", 2),
                  product_fixture("trias", 1, field=PrimeField(101))):
        y = random_cochain(other, 1, rng)
        with pytest.raises(ValueError, match="^cochain of another algebra$"):
            FOREIGN[entry](ctx, x, y)


def test_operations_refuse_cochains_of_another_complex(rng):
    ctx = MultContext(product_fixture("didend", 1))
    alg = ctx.alg
    x1, x2 = random_cochain(alg, 1, rng), random_cochain(alg, 2, rng)
    for other_alg in (product_fixture("trias", 1),
                      product_fixture("didend", 2),
                      product_fixture("didend", 1, field=PrimeField(101))):
        other = MultContext(other_alg)
        y1 = random_cochain(other_alg, 1, rng)
        refused = [lambda: x1 + y1, lambda: x1 - y1,
                   lambda: gamma(x2, [x1, y1]), lambda: gamma(y1, [x1]),
                   lambda: brace(x2, [y1]), lambda: brace(x2, [x1, y1]),
                   lambda: brace(y1, [x1]), lambda: circ(x2, y1),
                   lambda: circ(y1, x1),
                   lambda: bracket(x1, y1), lambda: bracket(y1, x1),
                   lambda: dot(ctx, x1, y1), lambda: dot(ctx, y1, x1),
                   lambda: dot(other, x1, y1), lambda: diff_d(ctx, y1),
                   lambda: diff_d(other, x1)]
        for op in refused:
            with pytest.raises(ValueError):
                op()
    for op in (lambda: x1 + x2, lambda: x1 - x2, lambda: x2 - x1):
        with pytest.raises(ValueError):
            op()
    assert (x1 - x1).is_zero() and (x2 + x2).degree == 2


# each call with one operand that is not a cochain: (operand name, type
# name, call); x is a degree-1 and y a degree-2 cochain of the context
NOT_COCHAINS = {
    "brace-x": ("x", "int", lambda ctx, x, y: brace(5, [y])),
    "brace-xs": ("x_p", "int", lambda ctx, x, y: brace(x, [5])),
    "circ": ("x_p", "int", lambda ctx, x, y: circ(x, 5)),
    "bracket-x": ("x", "str", lambda ctx, x, y: bracket("a", x)),
    "bracket-y": ("y", "str", lambda ctx, x, y: bracket(x, "a")),
    "dot": ("y", "dict", lambda ctx, x, y: dot(ctx, x, {0: 1})),
    "diff_d": ("x", "list", lambda ctx, x, y: diff_d(ctx, [1])),
    "gamma-f": ("f", "NoneType", lambda ctx, x, y: gamma(None, [x])),
    "gamma-gs": ("g", "NoneType", lambda ctx, x, y: gamma(x, [None])),
    "coboundary_preimage": ("c", "dict", lambda ctx, x, y:
                            cohomology.coboundary_preimage(ctx, {1: 2})),
    "delta_trias": ("f", "dict", lambda ctx, x, y: delta_trias(ctx.alg, {})),
    "add": ("term", "int", lambda ctx, x, y: x + 3),
    "sub": ("term", "int", lambda ctx, x, y: x - 3),
}


@pytest.mark.parametrize("entry", sorted(NOT_COCHAINS))
def test_operand_that_is_not_a_cochain_is_refused(entry, rng):
    # each used to raise AttributeError, a first operand too
    ctx = MultContext(product_fixture("trias", 1))
    x, y = random_cochain(ctx.alg, 1, rng), random_cochain(ctx.alg, 2, rng)
    name, got, call = NOT_COCHAINS[entry]
    with pytest.raises(ValueError, match="^%s must be a Cochain, not %s$"
                       % (name, got)):
        call(ctx, x, y)


# each call whose list of operands is no list or tuple: (argument name,
# type name, call), x a degree-2 cochain of trias_dim1
NOT_LISTS = {
    "gamma-int": ("gs", "int", lambda x: gamma(x, 5)),
    "gamma-cochain": ("gs", "Cochain", lambda x: gamma(x, x)),
    "gamma-none": ("gs", "NoneType", lambda x: gamma(x, None)),
    "brace-int": ("xs", "int", lambda x: brace(x, 5)),
    "brace-cochain": ("xs", "Cochain", lambda x: brace(x, x)),
    "brace-none": ("xs", "NoneType", lambda x: brace(x, None)),
}


@pytest.mark.parametrize("entry", sorted(NOT_LISTS))
def test_operand_list_that_is_not_a_list_is_refused(entry, fixture_dir, rng):
    # each used to raise TypeError from iterating the argument
    x = random_cochain(load_algebra(fixture_dir / "trias_dim1.alg"), 2, rng)
    name, got, call = NOT_LISTS[entry]
    with pytest.raises(ValueError, match="^%s must be a list or a tuple, "
                       "not %s$" % (name, got)):
        call(x)


@pytest.mark.parametrize("key", [12345, -1, 3993, (0, 1), True, 0.0, 1.0])
def test_cochain_refuses_keys_outside_its_cells(key):
    # a key outside range(cochain_dim) used to build a cochain that every
    # operation treated as zero; a bool or a float is no key either, alone
    # or beside a valid key
    alg = suspension_fixture("trias")
    assert cochain_dim(alg, 2) == 3993
    for cells in ({key: 1}, {3992: 1, key: 1}):
        with pytest.raises(ValueError, match=r"^cochain key must be an int "
                           r"in 0\.\.3992, got %s$" % re.escape(repr(key))):
            Cochain(alg, 2, cells)
    assert Cochain(alg, 2, {3992: 1}).cells == {3992: 1}


@pytest.mark.parametrize("cells", [[0, 1], (0,), None],
                         ids=["list", "tuple", "None"])
def test_cochain_refuses_cells_that_are_not_a_mapping(cells):
    # each used to raise AttributeError
    alg = product_fixture("trias", 2)
    with pytest.raises(ValueError, match="^cells must be a mapping, not %s$"
                       % type(cells).__name__):
        Cochain(alg, 1, cells)


@pytest.mark.parametrize("field, half", [(QQ, Fraction(1, 2)),
                                         (PrimeField(101), 51)],
                         ids=["Q", "F101"])
def test_cochain_values_are_read_as_field_scalars(field, half):
    # each value goes through field.from_fraction, as a structure constant
    # does: a half over F_101 used to stay a Fraction that diff_d spread
    # over nine cells, and a float was carried through diff_d and bracket
    alg = product_fixture("trias", 2, field=field)
    ctx = MultContext(alg)
    x = Cochain(alg, 1, {0: Fraction(1, 2)})
    assert x.cells == {0: half} and type(x.cells[0]) is type(half)
    assert x == Cochain(alg, 1, {0: half})
    d_unit = diff_d(ctx, Cochain(alg, 1, {0: 1}))
    assert not d_unit.is_zero() and diff_d(ctx, x) + diff_d(ctx, x) == d_unit
    two = Cochain(alg, 1, {0: Fraction(4, 2)})
    assert two.cells == {0: 2} and type(two.cells[0]) is int
    # a bool is no scalar either: True used to be stored as 1
    for value in (0.5, True):
        with pytest.raises(ValueError, match=r"^cochain key 0: %s is not an "
                           r"int or a Fraction$" % re.escape(repr(value))):
            Cochain(alg, 1, {0: value})
    if field.characteristic:
        with pytest.raises(ValueError, match="^cochain key 3: denominator "
                                             "divisible by 101$"):
            Cochain(alg, 1, {3: Fraction(1, 101)})


def test_sparse_results_allocate_only_their_cells():
    # a result is built in a dict of the cells its terms touch: one basis
    # cochain of the 11-dim trias suspension must not cost a slot for each
    # of the 161,051 cells of a degree-3 cochain
    alg = suspension_fixture("trias")
    ctx = MultContext(alg)
    e = Cochain(alg, 2, {11: alg.field.one})
    bound = 8 * cochain_dim(alg, 3) // 10
    for label, op in (("diff_d", lambda: diff_d(ctx, e)),
                      ("bracket", lambda: bracket(e, e)),
                      ("brace", lambda: brace(e, [e]))):
        assert not op().is_zero(), label            # warm the caches
        tracemalloc.start()
        try:
            op()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (label, peak)


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.sampled_from([QQ, PrimeField(101)]),
       st.sampled_from([1, 2]))
def test_results_store_no_zero_coefficient(seed, field, dim):
    # coefficients in {-1, 0, 1} make cancellations common
    rng = random.Random(seed)
    alg = product_fixture("trias", dim, field=field)
    ctx = MultContext(alg)

    def small(n):
        return Cochain(alg, n, {i: rng.randint(-1, 1)
                                for i in range(cochain_dim(alg, n))})

    x1, y1 = small(1), small(1)
    x2, y2 = small(2), small(2)
    results = [x2 + y2, x2 - y2, x2.scaled(field.zero),
               x2.scaled(field.from_fraction(3)), x2.scaled(Fraction(1, 2)),
               -x2,
               gamma(x2, [x1, y1]), gamma(x1, [y2]), brace(x2, [x1]),
               brace(x2, [x1, y1]), circ(x2, y2), bracket(x1, y2),
               bracket(x2, y2), dot(ctx, x1, y2), dot(ctx, x2, y1),
               diff_d(ctx, x1), diff_d(ctx, y2), delta_trias(alg, x2),
               delta_trias(alg, delta_trias(alg, x1))]
    for x in results:
        assert all(c != field.zero for c in x.cells.values())
        if field.characteristic:
            assert all(type(c) is int and 0 < c < field.characteristic
                       for c in x.cells.values())
        keys = [((u_idx * dim ** x.degree + _flat(tup, dim)) * dim + out)
                for u_idx, tup, out, _ in x.entries()]
        assert keys == sorted(x.cells)
    assert x2.scaled(field.zero) == zero_cochain(alg, 2)
    # the factor is read through from_fraction, as the constructor reads a
    # cell: a half over F_101 is 51, and a float is no scalar
    assert x2.scaled(Fraction(1, 2)) == Cochain(
        alg, 2, {i: Fraction(c, 2) for i, c in x2.cells.items()})
    for factor in (0.5, True):
        with pytest.raises(ValueError, match="^%s is not an int or a "
                                             "Fraction$" % factor):
            x2.scaled(factor)
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


def _nowhere_zero_cochain(alg, n, rng):
    """A random cochain whose every cell is a nonzero integer."""
    return Cochain(alg, n, {i: rng.choice((-3, -2, -1, 1, 2, 3))
                            for i in range(cochain_dim(alg, n))})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32),
       st.sampled_from([("trias", 1), ("trias", 2), ("tricub", 1)]))
def test_integral_cells_stay_int_and_match_fraction_cells(seed, key):
    # over Q an integral scalar is an int; the same cochains with every
    # cell cast to Fraction must give equal results.  No input cell is
    # zero: on the dim-1 algebras each cell of gamma(x2; x1, y1) is then a
    # product of nonzero cells, so the results cannot all vanish there.
    rng = random.Random(seed)
    alg = product_fixture(*key)
    ctx = MultContext(alg)
    x1, y1 = (_nowhere_zero_cochain(alg, 1, rng) for _ in range(2))
    x2 = _nowhere_zero_cochain(alg, 2, rng)

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
    for x in [x1, y1, x2, ctx.pi, identity_cochain(alg)] + ints:
        assert all(type(c) is int for c in x.cells.values())
