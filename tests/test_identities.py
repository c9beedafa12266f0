import random

import pytest

from lodayops.algebra import product_fixture
from lodayops.cochains import MultContext, random_cochain
from lodayops.identities import (BRACE_PATTERNS, DOT_BRACE_PATTERNS,
                                 HG_DIFF_PATTERNS, brace_identity_sides,
                                 dg_algebra_sides, dot_brace_sides,
                                 hg_differential_sides, run_identity_suite)


@pytest.fixture(params=["didend", "trias"])
def ctx(request):
    return MultContext(product_fixture(request.param, 1))


def test_brace_identity_all_patterns(ctx, rng):
    for pat in BRACE_PATTERNS:
        dx, dxs, dys = pat
        for _ in range(3):
            lhs, rhs = brace_identity_sides(
                random_cochain(ctx.alg, dx, rng),
                [random_cochain(ctx.alg, k, rng) for k in dxs],
                [random_cochain(ctx.alg, k, rng) for k in dys])
            assert lhs == rhs, pat


def test_dot_brace_all_patterns(ctx, rng):
    for pat in DOT_BRACE_PATTERNS:
        d1, d2, dys = pat
        for _ in range(3):
            lhs, rhs = dot_brace_sides(
                ctx, random_cochain(ctx.alg, d1, rng),
                random_cochain(ctx.alg, d2, rng),
                [random_cochain(ctx.alg, k, rng) for k in dys])
            assert lhs == rhs, pat


def test_hg_differential_all_patterns(ctx, rng):
    for pat in HG_DIFF_PATTERNS:
        dx, dargs = pat
        for _ in range(3):
            lhs, rhs = hg_differential_sides(
                ctx, random_cochain(ctx.alg, dx, rng),
                [random_cochain(ctx.alg, k, rng) for k in dargs])
            assert lhs == rhs, pat


def test_dg_algebra_laws(ctx, rng):
    for _ in range(6):
        (al, ar), (ll, lr) = dg_algebra_sides(
            ctx, random_cochain(ctx.alg, rng.choice((1, 2)), rng),
            random_cochain(ctx.alg, rng.choice((1, 2)), rng),
            random_cochain(ctx.alg, 1, rng))
        assert al == ar
        assert ll == lr


def test_suite_runner_deterministic():
    ctx = MultContext(product_fixture("didend", 1))
    a = run_identity_suite(ctx, random.Random(5), 40)
    b = run_identity_suite(ctx, random.Random(5), 40)
    assert a == b
    assert len(a) == 40
    assert all(r.passed for r in a)
