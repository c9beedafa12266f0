import io
import os
import random
import threading
from contextlib import redirect_stdout

import pytest

from lodayops import identities
from lodayops.algfile import load_algebra
from lodayops.cli import main
from lodayops.cochains import MultContext, random_cochain, zero_cochain
from lodayops.identities import (BRACE_PATTERNS, DOT_BRACE_PATTERNS,
                                 HG_DIFF_PATTERNS, brace_identity_sides,
                                 dg_algebra_sides, dot_brace_sides,
                                 hg_differential_sides, run_identity_suite)

from corpus import product_fixture


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


def _usable_cpus(monkeypatch, count):
    """Make the suite see ``count`` usable CPUs; return the list that gets
    one entry per fork (in a child, its length is the child's block)."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _context(fixture_dir, name):
    return MultContext(load_algebra(fixture_dir / ("%s.alg" % name)))


def test_suite_runner_deterministic(fixture_dir, monkeypatch):
    # one block per usable CPU, of whole 26-sample rounds: the checks and
    # the generator's state afterwards must not depend on the CPU count
    ctx = MultContext(product_fixture("didend", 1))
    a = run_identity_suite(ctx, random.Random(5), 40)
    b = run_identity_suite(ctx, random.Random(5), 40)
    assert a == b
    assert len(a) == 40
    assert all(r.passed for r in a)
    for name in ("trias_dim1", "tricub_dim1"):
        ctx = _context(fixture_dir, name)
        for samples in (52, 60, 208):
            runs = []
            for cpus in (1, 4):
                forks = _usable_cpus(monkeypatch, cpus)
                rng = random.Random(5)
                runs.append((run_identity_suite(ctx, rng, samples),
                             rng.getstate()))
                assert len(forks) == min(cpus, samples // 26) - 1
            assert runs[0] == runs[1], (name, samples)
            checks = runs[0][0]
            assert len(checks) == samples and all(r.passed for r in checks)
    # another live thread keeps the suite in one process, since a forked
    # child would hold only the calling thread
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        forks = _usable_cpus(monkeypatch, 4)
        assert run_identity_suite(ctx, random.Random(5), 208) == checks
        assert not forks
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_forked_blocks_check_the_callers_draws(fixture_dir, monkeypatch):
    # every sample is drawn in the calling process before the fork; a
    # child that drew would raise, and the call with it
    ctx = _context(fixture_dir, "trias_dim1")
    _usable_cpus(monkeypatch, 1)
    alone = run_identity_suite(ctx, random.Random(5), 208)
    caller = os.getpid()
    real = identities._draw

    def draw_in_caller(alg, rng, pattern):
        if os.getpid() != caller:
            raise AssertionError("a forked block drew a sample")
        return real(alg, rng, pattern)
    monkeypatch.setattr(identities, "_draw", draw_in_caller)
    forks = _usable_cpus(monkeypatch, 4)
    checks = run_identity_suite(ctx, random.Random(5), 208)
    assert len(forks) == 3
    assert checks == alone
    assert len(checks) == 208 and all(r.passed for r in checks)


def test_suite_failures_are_the_same_on_any_cpu_count(fixture_dir,
                                                      monkeypatch):
    # hg-dot-brace fails on pattern (1, 2, (1,)) in every round, so in
    # every process of the forked run, and on pattern (1, 1, (1,)) when
    # cell 0 of the drawn x_1 is positive, so the lines also show whether
    # each process checked the draws of the one-process run
    real = identities.dot_brace_sides

    def failing(ctx, x1, x2, ys):
        if (x1.degree, x2.degree) == (1, 2) or (
                (x1.degree, x2.degree, [y.degree for y in ys]) == (1, 1, [1])
                and x1.cells.get(0, 0) > 0):
            return x1, zero_cochain(ctx.alg, x1.degree + 1)
        return real(ctx, x1, x2, ys)
    monkeypatch.setattr(identities, "dot_brace_sides", failing)
    reports = []
    for cpus in (1, 4):
        forks = _usable_cpus(monkeypatch, cpus)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["identities", str(fixture_dir / "trias_dim1.alg"),
                         "--samples", "208", "--seed", "0"])
        assert code == 1 and len(forks) == cpus - 1
        reports.append(out.getvalue())
    assert reports[0] == reports[1]
    failed = [line for line in reports[0].splitlines()
              if line.startswith("FAILED-AT")]
    always = failed.count("FAILED-AT hg-dot-brace pattern=(1, 2, (1,))")
    drawn = failed.count("FAILED-AT hg-dot-brace pattern=(1, 1, (1,))")
    assert always == 8 and 0 < drawn < 8 and always + drawn == len(failed)


@pytest.mark.parametrize("block", ["first", "last"])
def test_suite_reaps_every_child_when_a_block_raises(fixture_dir, monkeypatch,
                                                     block):
    ctx = _context(fixture_dir, "trias_dim1")
    forks = _usable_cpus(monkeypatch, 4)
    parent = os.getpid()
    real = identities.hg_differential_sides

    def in_block():
        if os.getpid() == parent:
            return block == "first"
        return block == "last" and len(forks) == 3

    def raising(ctx, x, args):
        if in_block():
            raise ValueError("hg sides broke in the %s block" % block)
        return real(ctx, x, args)
    monkeypatch.setattr(identities, "hg_differential_sides", raising)
    if block == "last":         # a child's exception comes back as text
        expected = pytest.raises(RuntimeError,
                                 match="ValueError: hg sides broke in the last")
    else:
        expected = pytest.raises(ValueError, match="in the first block")
    with expected:
        run_identity_suite(ctx, random.Random(5), 208)
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
