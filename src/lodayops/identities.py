"""Randomised verification suites for the brace and homotopy-G identities.

Every check is an exact entrywise cochain equality on seeded random inputs,
each side one signed sum of cochains (``cochains._signed_sum``), and gives
one ``LawCheck``, the record ``check_g_algebra`` uses too.  The two
identities whose displayed forms circulate with varying sign conventions
are implemented in the form verified by exhaustive sign fitting at small
degrees; see SIGN_NOTES.md.
"""

import os
import threading
from collections import namedtuple
from itertools import accumulate, cycle, islice

from .cochains import _signed_sum, brace, diff_d, dot, random_cochain
from .fields import _at_least


class LawCheck(namedtuple("LawCheck", "law pattern passed")):
    """One checked instance of a law: its degrees (for the identities, the
    pattern of degrees the cochains were drawn with) and the verdict."""

    __slots__ = ()


def brace_identity_sides(x, xs, ys):
    """Both sides of x{x_1..x_m}{y_1..y_n} = sum of interleaved substitutions.

    The right side runs over 0 <= i_1 <= j_1 <= ... <= i_m <= j_m <= n, where
    x_p swallows y_{i_p+1}..y_{j_p}, with sign (-1)^(sum_p |x_p|(|y_1|+...+|y_{i_p}|)).
    """
    m, n = len(xs), len(ys)
    lhs = brace(brace(x, xs), ys)
    sy = [y.shifted for y in ys]

    def terms(p, start, chosen):
        if p == m:
            args = []
            eps = 0
            pos = 0
            for q, (i_q, j_q) in enumerate(chosen):
                args.extend(ys[pos:i_q])
                args.append(brace(xs[q], ys[i_q:j_q]))
                eps += xs[q].shifted * sum(sy[:i_q])
                pos = j_q
            args.extend(ys[pos:n])
            yield eps % 2 == 1, brace(x, args)
            return
        for i_p in range(start, n + 1):
            for j_p in range(i_p, n + 1):
                yield from terms(p + 1, j_p, chosen + [(i_p, j_p)])

    return lhs, _signed_sum(x.alg, lhs.degree, terms(0, 0, []))


def dot_brace_sides(ctx, x1, x2, ys):
    """(x_1 . x_2){y_1..y_n} = sum_k (-1)^(deg x_2 (|y_1|+...+|y_k|))
    x_1{y_1..y_k} . x_2{y_{k+1}..y_n}."""
    sy = [y.shifted for y in ys]
    lhs = brace(dot(ctx, x1, x2), ys)
    return lhs, _signed_sum(x1.alg, lhs.degree, (
        ((x2.degree * sum(sy[:k])) % 2 == 1,
         dot(ctx, brace(x1, ys[:k]), brace(x2, ys[k:])))
        for k in range(len(ys) + 1)))


def hg_differential_sides(ctx, x, args):
    """The homotopy-G compatibility of d with braces, for args x_1..x_{n+1}:

        d(x{x_1..x_{n+1}}) - (dx){x_1..x_{n+1}}
            - (-1)^|x| sum_i (-1)^(|x_1|+..+|x_{i-1}|) x{x_1,..,dx_i,..}
      =   (-1)^(|x_1| deg x) x_1 . x{x_2..x_{n+1}}
        - (-1)^|x| sum_i (-1)^(|x_1|+..+|x_i|) x{x_1,..,x_i . x_{i+1},..}
        + (-1)^(|x|+|x_1|+..+|x_n|) x{x_1..x_n} . x_{n+1}
    """
    sx = x.shifted
    k = len(args)
    # pre[i] = |x_1| + ... + |x_i|
    pre = list(accumulate((a.shifted for a in args), initial=0))

    def lhs():
        yield False, diff_d(ctx, brace(x, args))
        yield True, brace(diff_d(ctx, x), args)
        for i in range(k):
            term = brace(x, args[:i] + [diff_d(ctx, args[i])] + args[i + 1:])
            yield (sx + pre[i]) % 2 == 0, term

    def rhs():
        yield ((args[0].shifted * x.degree) % 2 == 1,
               dot(ctx, args[0], brace(x, args[1:])))
        for i in range(1, k):
            term = brace(x, args[:i - 1] + [dot(ctx, args[i - 1], args[i])]
                         + args[i + 1:])
            yield (sx + pre[i]) % 2 == 0, term
        yield ((sx + pre[k - 1]) % 2 == 1,
               dot(ctx, brace(x, args[:-1]), args[-1]))

    degree = x.degree + pre[k] + 1  # of d(x{args})
    return (_signed_sum(x.alg, degree, lhs()),
            _signed_sum(x.alg, degree, rhs()))


def dg_algebra_sides(ctx, x, y, z):
    """Dot associativity and the Leibniz rule d(x.y) = dx.y + (-1)^(deg x) x.dy."""
    xy = dot(ctx, x, y)
    assoc_l = dot(ctx, xy, z)
    assoc_r = dot(ctx, x, dot(ctx, y, z))
    leib_l = diff_d(ctx, xy)
    leib_r = _signed_sum(x.alg, leib_l.degree, (
        (False, dot(ctx, diff_d(ctx, x), y)),
        (x.degree % 2 == 1, dot(ctx, x, diff_d(ctx, y)))))
    return (assoc_l, assoc_r), (leib_l, leib_r)


# patterns (deg x; degrees of xs; degrees of ys), total degree <= 4
BRACE_PATTERNS = (
    (1, (1,), (1,)),
    (2, (1,), (1,)),
    (2, (2,), (1,)),
    (2, (1,), (2,)),
    (2, (1, 1), (1,)),
    (2, (1,), (1, 1)),
    (1, (2,), (1,)),
    (3, (1, 1), (1,)),
)

DOT_BRACE_PATTERNS = (
    (1, 1, (1,)),
    (1, 1, (2,)),
    (1, 2, (1,)),
    (2, 1, (1,)),
    (1, 1, (1, 1)),
)

HG_DIFF_PATTERNS = (
    (1, (1,)),
    (2, (1,)),
    (1, (2,)),
    (2, (2,)),
    (3, (1,)),
    (2, (1, 1)),
    (1, (1, 2)),
    (1, (2, 1)),
    (1, (1, 1, 1)),
)

DG_PATTERNS = ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1))


def _draw(alg, rng, pattern):
    """Random cochains of the degrees in ``pattern``, nested as it is and
    drawn from left to right."""
    if isinstance(pattern, int):
        return random_cochain(alg, pattern, rng)
    return [_draw(alg, rng, p) for p in pattern]


def _blocks(samples, round_size):
    """Split ``range(samples)`` into contiguous blocks of whole rounds, one
    per usable CPU and never more blocks than rounds; the last block also
    takes the unfinished round.  One block when forking is unavailable, or
    unsafe because another thread is alive."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    rounds = samples // round_size
    count = min(cpus, rounds)
    if (count < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [range(samples)]
    ends = [rounds * k // count * round_size for k in range(count)]
    return [range(a, b) for a, b in zip(ends, ends[1:] + [samples])]


def _checked(drawn):
    """Check each drawn ``(law, pattern, sides, cochains)`` record."""
    return [LawCheck(law, pattern, all(lhs == rhs for lhs, rhs in sides(*xs)))
            for law, pattern, sides, xs in drawn]


def _forked(drawn):
    """Check the ``drawn`` records in a forked child; return its pid and the
    read end of its pipe.

    The child writes b"+" and one verdict byte per record, or b"!" and the
    text of the exception that stopped it.  It leaves by ``os._exit``, so it
    runs no exit handler and flushes no buffer it shares with the parent."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        os.close(read_fd)
        try:
            message = b"+" + bytes(c.passed for c in _checked(drawn))
        except Exception as exc:        # sent to the parent, which raises
            message = b"!" + ("%s: %s" % (type(exc).__name__, exc)).encode()
        with open(write_fd, "wb") as pipe:
            pipe.write(message)
    finally:
        os._exit(0)


def _received(read_fd, drawn, block):
    """The checks of the records of ``block`` in ``drawn``, read from a
    child's pipe to its end."""
    chunks = []
    while chunk := os.read(read_fd, 1 << 16):
        chunks.append(chunk)
    message = b"".join(chunks)
    if message[:1] != b"+" or len(message) != len(block) + 1:
        raise RuntimeError(
            "identity samples %d-%d failed in a child process: %s"
            % (block.start, block.stop - 1,
               message[1:].decode(errors="replace") or "no verdicts"))
    return [LawCheck(law, pattern, bool(passed))
            for (law, pattern, _, _), passed
            in zip(drawn[block.start:block.stop], message[1:])]


def run_identity_suite(ctx, rng, samples):
    """Spread ``samples`` random instances across all identity families,
    round robin, from one table of (law, patterns, sides).

    All instances are drawn from ``rng`` in order, in this process, before
    any is checked.  They are checked in contiguous blocks of whole rounds
    of the table, one block per usable CPU: the first block in this
    process, each other one in a forked child, which inherits the drawn
    list and sends back one verdict byte per instance.  Fewer than two
    rounds, one usable CPU, no ``os.fork`` or another live thread keep the
    suite in this process.  A failed child makes the call raise
    RuntimeError with the child's exception text; every child is reaped
    before the call returns.
    """
    _at_least(samples, 0, "samples")
    laws = (
        ("brace-identity", BRACE_PATTERNS,
         lambda *xs: [brace_identity_sides(*xs)]),
        ("hg-dot-brace", DOT_BRACE_PATTERNS,
         lambda *xs: [dot_brace_sides(ctx, *xs)]),
        ("hg-differential", HG_DIFF_PATTERNS,
         lambda *xs: [hg_differential_sides(ctx, *xs)]),
        ("dg-algebra", DG_PATTERNS, lambda *xs: dg_algebra_sides(ctx, *xs)),
    )
    families = [(law, pattern, sides) for law, patterns, sides in laws
                for pattern in patterns]
    drawn = [(law, pattern, sides, _draw(ctx.alg, rng, pattern))
             for law, pattern, sides in islice(cycle(families), samples)]
    first, *others = _blocks(samples, len(families))
    children = []
    try:
        for block in others:
            children.append((block, *_forked(drawn[block.start:block.stop])))
        results = _checked(drawn[first.start:first.stop])
        for block, _, read_fd in children:
            results.extend(_received(read_fd, drawn, block))
        return results
    except BaseException:
        # stop the blocks still running; signal is imported only here, as
        # every command imports this module
        from signal import SIGKILL
        for _, pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for _, pid, read_fd in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
