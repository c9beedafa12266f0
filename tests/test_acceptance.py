"""Acceptance gate: one test per criterion, exact tolerances throughout.

Every check here is exact (rational or prime-field arithmetic); there are no
numeric tolerances to tune.  Run with `pytest tests/test_acceptance.py -v -s`
to see one line per criterion.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

from lodayops.algebra import (AXIOMS, TYPES, axiom_mutation, product_fixture,
                              suspension_fixture)
from lodayops.algfile import load_algebra
from lodayops.cli import main as cli_main
from lodayops.cochains import (Cochain, MultContext,
                               canonical_multiplication, circ, cochain_dim,
                               delta_trias, diff_d, gamma, identity_cochain,
                               random_cochain)
from lodayops.cohomology import (check_g_algebra, cohomology_dims,
                                 matrix_of_d, matrix_product_is_zero)
from lodayops.fields import PrimeField
from lodayops.identities import run_identity_suite
from lodayops.params import enumerate_params
from lodayops.preoperadic import r_index_tables, verify_system

SEED = 20240901

# the shipped corpus; (file name, type, dim)
CORPUS = [
    ("dias_dim1", "dias", 1),
    ("didend_dim1", "didend", 1),
    ("trias_dim1", "trias", 1),
    ("tridend_dim1", "tridend", 1),
    ("tricub_dim1", "tricub", 1),
    ("trias_dim2", "trias", 2),
    ("zero_didend_dim1", "didend", 1),
]

# filed after the fraction-free and RREF engines first agreed (criterion 8);
# the F_101 column matched on the same run.  trias_dim2 is checked through
# degree 4: rank d^3 = 155 and rank d^4 = 1,284 from every engine
GOLDEN_DIMS = {
    "dias_dim1": [(1, 0), (2, 0), (3, 0)],
    "didend_dim1": [(1, 0), (2, 1), (3, 0)],
    "trias_dim1": [(1, 0), (2, 0), (3, 0)],
    "tridend_dim1": [(1, 0), (2, 2), (3, 0)],
    "tricub_dim1": [(1, 0), (2, 0), (3, 0)],
    "trias_dim2": [(1, 1), (2, 1), (3, 1), (4, 1)],
    "zero_didend_dim1": [(1, 1), (2, 2), (3, 3)],
}


def _report(number, description, ok):
    print("ACCEPTANCE %d %s: %s" % (number, description,
                                    "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (number, description)


def _corpus_algebra(fixture_dir, name, field=None):
    alg = load_algebra(fixture_dir / ("%s.alg" % name), warn=lambda m: None)
    if field is not None:
        from lodayops.algebra import AlgebraSpec
        tables = {op: {cell: {k: field.from_fraction(c) for k, c in row.items()}
                       for cell, row in table.items()}
                  for op, table in alg.tables.items()}
        alg = AlgebraSpec(alg.type_tag, field, alg.dim, alg.basis, tables)
    return alg


def test_criterion_1_pre_operadic_systems():
    ok = True
    for kind in ("linear", "binary", "planar", "subsets", "signs"):
        report = verify_system(kind, 5)
        ok = ok and report.passed
    assert len(enumerate_params("planar", 5)) == 197
    _report(1, "pre-operadic axioms, all five families, max total 5", ok)


def test_criterion_2_operad_laws(fixture_dir):
    rng = random.Random(SEED)
    ok = True
    # unit laws, exact, every fixture
    for name, _, _ in CORPUS:
        alg = _corpus_algebra(fixture_dir, name)
        ident = identity_cochain(alg)
        for n in (1, 2):
            f = random_cochain(alg, n, rng)
            ok = ok and gamma(f, [ident] * n) == f
        g = random_cochain(alg, 2, rng)
        ok = ok and gamma(ident, [g]) == g
    # associativity, exhaustive shapes up to (2; 2,2; 1,1,1,1), dim 1
    shapes = []
    for k in (1, 2):
        for ns in ([(n1,) for n1 in (1, 2)] if k == 1 else
                   [(a, b) for a in (1, 2) for b in (1, 2)]):
            if len(ns) == k:
                shapes.append((k, ns, (1,) * sum(ns)))
    for t in TYPES:
        alg = product_fixture(t, 1)
        for k, ns, ms in shapes:
            f = random_cochain(alg, k, rng)
            gs = [random_cochain(alg, n, rng) for n in ns]
            hs = [random_cochain(alg, m, rng) for m in ms]
            lhs = gamma(gamma(f, gs), hs)
            pos, inner = 0, []
            for g in gs:
                inner.append(gamma(g, hs[pos:pos + g.degree]))
                pos += g.degree
            ok = ok and lhs == gamma(f, inner)
    # associativity, >= 100 random triples at dim 2
    alg = _corpus_algebra(fixture_dir, "trias_dim2")
    for _ in range(100):
        f = random_cochain(alg, 2, rng)
        gs = [random_cochain(alg, rng.choice((1, 2)), rng) for _ in range(2)]
        hs = [random_cochain(alg, 1, rng)
              for _ in range(sum(g.degree for g in gs))]
        lhs = gamma(gamma(f, gs), hs)
        pos, inner = 0, []
        for g in gs:
            inner.append(gamma(g, hs[pos:pos + g.degree]))
            pos += g.degree
        ok = ok and lhs == gamma(f, inner)
    _report(2, "operad unit and associativity laws", ok)


def _t2_op(alg, u_idx):
    parts = enumerate_params(alg.kind, 2)[u_idx].payload.children
    if len(parts) == 3:
        return "middle"
    return "left" if parts[0].is_leaf else "right"


def test_criterion_3_multiplication_matches_axioms(fixture_dir):
    ok = True
    for name, _, _ in CORPUS:
        alg = _corpus_algebra(fixture_dir, name)
        pi = canonical_multiplication(alg)
        ok = ok and circ(pi, pi).is_zero()
    # tree <-> axiom dictionary, derived through the composition tables
    alg = product_fixture("trias", 1)
    left = r_index_tables("planar", (2, 1))
    right = r_index_tables("planar", (1, 2))
    derived = []
    for u in range(11):
        i0a, (i1a, _) = left[u]
        i0b, (_, i2b) = right[u]
        derived.append(((_t2_op(alg, i1a), _t2_op(alg, i0a)),
                        (_t2_op(alg, i0b), _t2_op(alg, i2b))))
    axioms = [(lhs[0], rhs[0]) for lhs, rhs in AXIOMS["trias"]]
    ok = ok and sorted(derived) == sorted(axioms)
    # each single-axiom mutation is nonzero exactly at the matching tree
    tree_of_axiom = {axioms.index(inst): u for u, inst in enumerate(derived)}
    for index in range(1, 12):
        mutated = axiom_mutation("trias", index)
        pipi = circ(canonical_multiplication(mutated),
                    canonical_multiplication(mutated))
        nonzero = {u for u, _, _, _ in pipi.entries()}
        ok = ok and nonzero == {tree_of_axiom[index - 1]}
    _report(3, "pi o pi = 0 iff axioms; 11 mutations localise on trees", ok)


def test_criterion_4_differential_squares_to_zero(fixture_dir):
    ok = True
    for name, _, _ in CORPUS:
        alg = _corpus_algebra(fixture_dir, name)
        ctx = MultContext(alg)
        for n in (1, 2, 3):
            ok = ok and matrix_product_is_zero(
                matrix_of_d(ctx, n + 1), matrix_of_d(ctx, n), alg.field)
    _report(4, "d^2 = 0 as exact matrix products, n <= 3, all fixtures", ok)


def test_criterion_5_comparison_theorem(fixture_dir):
    cases = [(_corpus_algebra(fixture_dir, name), (1, 2, 3))
             for name in ("trias_dim1", "trias_dim2")]
    # the three operations are equal in both files; in the suspension
    # fixture they differ, so a wrong operation symbol at a face shows there
    cases.append((suspension_fixture("trias"), (1, 2)))
    ok = True
    for alg, degrees in cases:
        ctx = MultContext(alg)
        for n in degrees:
            sign_flip = (n + 1) % 2 == 1
            for col in range(cochain_dim(alg, n)):
                basis = Cochain(alg, n, {col: alg.field.one})
                lhs = diff_d(ctx, basis)
                rhs = delta_trias(alg, basis)
                if sign_flip:
                    rhs = -rhs
                ok = ok and lhs == rhs
    _report(5, "d = (-1)^(n+1) delta entrywise, trias: n <= 3 at dim <= 2, "
               "n <= 2 on the 11-dim suspension fixture", ok)


def test_criterion_6_brace_and_homotopy_identities():
    rng = random.Random(SEED)
    results = []
    for t in ("didend", "trias"):
        ctx = MultContext(product_fixture(t, 1))
        results.extend(run_identity_suite(ctx, rng, 120, random_cochain))
    ok = len(results) >= 200 and all(r.passed for r in results)
    _report(6, "brace + homotopy identities on %d random instances"
            % len(results), ok)


# law instances checked by criterion 7 on the dim-2 algebra, so that the
# criterion cannot pass on zero instances
TRIAS_DIM2_G_INSTANCES = {"graded-commutativity": 6, "bracket-derivation": 4,
                          "graded-jacobi": 4}


def test_criterion_7_g_algebra_on_cohomology(fixture_dir):
    ok = True
    for name in ("dias_dim1", "didend_dim1", "trias_dim1", "tridend_dim1",
                 "tricub_dim1", "trias_dim2", "zero_didend_dim1"):
        alg = _corpus_algebra(fixture_dir, name)
        report = check_g_algebra(MultContext(alg), 4)
        ok = ok and report.passed
        if name == "trias_dim2":
            counts = {}
            for c in report.checks:
                counts[c.law] = counts.get(c.law, 0) + 1
            ok = ok and counts == TRIAS_DIM2_G_INSTANCES
    _report(7, "G-algebra laws up to coboundary, total degree <= 4", ok)


def test_criterion_8_dual_oracle_dimensions(fixture_dir):
    ok = True
    for name, _, _ in CORPUS:
        top = len(GOLDEN_DIMS[name])
        ctx = MultContext(_corpus_algebra(fixture_dir, name))
        ctx_p = MultContext(_corpus_algebra(fixture_dir, name,
                                            field=PrimeField(101)))
        found = [cohomology_dims(c, top, engine=engine)
                 for c in (ctx, ctx_p) for engine in ("bareiss", "rref")]
        ok = ok and all(dims == GOLDEN_DIMS[name] for dims in found)
    _report(8, "dual-oracle cohomology dimensions, golden-filed, Q and F_101", ok)


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_criterion_9_determinism(fixture_dir):
    trias = str(fixture_dir / "trias_dim1.alg")
    runs = [_run_cli("cohomology", trias, "--max-degree", "2")
            for _ in range(2)]
    ok = runs[0] == runs[1]
    ids = [_run_cli("identities", trias, "--samples", "20", "--seed", "7")
           for _ in range(2)]
    ok = ok and ids[0] == ids[1]
    workers = [_run_cli("verify-system", "--kind", "planar", "--max-total", "4",
                        "--workers", str(w)) for w in (1, 4)]
    ok = ok and workers[0] == workers[1]
    _report(9, "byte-identical reports across runs and worker counts", ok)
