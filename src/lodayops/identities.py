"""Randomised verification suites for the brace and homotopy-G identities.

Every check is an exact entrywise cochain equality on seeded random inputs.
The two identities whose displayed forms circulate with varying sign
conventions are implemented in the form verified by exhaustive sign fitting
at small degrees; see SIGN_NOTES.md.
"""

from typing import NamedTuple

from .cochains import Cochain, brace, diff_d, dot, random_cochain


class IdentityResult(NamedTuple):
    check: str
    pattern: tuple
    passed: bool


def _add_into(cells, term, negative):
    """Add term, or subtract it if ``negative``, into the cell dict of a
    sum; the sum drops its zeros once, when it becomes a cochain."""
    field = term.alg.field
    combine = field.sub if negative else field.add
    for i, c in term.cells.items():
        cells[i] = combine(cells.get(i, field.zero), c)


def brace_identity_sides(x, xs, ys):
    """Both sides of x{x_1..x_m}{y_1..y_n} = sum of interleaved substitutions.

    The right side runs over 0 <= i_1 <= j_1 <= ... <= i_m <= j_m <= n, where
    x_p swallows y_{i_p+1}..y_{j_p}, with sign (-1)^(sum_p |x_p|(|y_1|+...+|y_{i_p}|)).
    """
    m, n = len(xs), len(ys)
    lhs = brace(brace(x, xs), ys)
    sy = [y.shifted for y in ys]
    rhs = {}

    def rec(p, start, chosen):
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
            _add_into(rhs, brace(x, args), eps % 2 == 1)
            return
        for i_p in range(start, n + 1):
            for j_p in range(i_p, n + 1):
                rec(p + 1, j_p, chosen + [(i_p, j_p)])

    rec(0, 0, [])
    return lhs, Cochain(x.alg, lhs.degree, rhs)


def dot_brace_sides(ctx, x1, x2, ys):
    """(x_1 . x_2){y_1..y_n} = sum_k (-1)^(deg x_2 (|y_1|+...+|y_k|))
    x_1{y_1..y_k} . x_2{y_{k+1}..y_n}."""
    n = len(ys)
    sy = [y.shifted for y in ys]
    lhs = brace(dot(ctx, x1, x2), ys)
    rhs = {}
    for k in range(n + 1):
        eps = x2.degree * sum(sy[:k])
        _add_into(rhs, dot(ctx, brace(x1, ys[:k]), brace(x2, ys[k:])),
                  eps % 2 == 1)
    return lhs, Cochain(x1.alg, lhs.degree, rhs)


def hg_differential_sides(ctx, x, args):
    """The homotopy-G compatibility of d with braces, for args x_1..x_{n+1}:

        d(x{x_1..x_{n+1}}) - (dx){x_1..x_{n+1}}
            - (-1)^|x| sum_i (-1)^(|x_1|+..+|x_{i-1}|) x{x_1,..,dx_i,..}
      =   (-1)^(|x_1| deg x) x_1 . x{x_2..x_{n+1}}
        - (-1)^|x| sum_i (-1)^(|x_1|+..+|x_i|) x{x_1,..,x_i . x_{i+1},..}
        + (-1)^(|x|+|x_1|+..+|x_n|) x{x_1..x_n} . x_{n+1}
    """
    sx = x.shifted
    lhs, rhs = {}, {}
    _add_into(lhs, diff_d(ctx, brace(x, args)), False)
    _add_into(lhs, brace(diff_d(ctx, x), args), True)
    for i in range(len(args)):
        pre = sum(a.shifted for a in args[:i])
        term = brace(x, args[:i] + [diff_d(ctx, args[i])] + args[i + 1:])
        _add_into(lhs, term, (sx + pre) % 2 == 0)
    _add_into(rhs, dot(ctx, args[0], brace(x, args[1:])),
              (args[0].shifted * x.degree) % 2 == 1)
    for i in range(1, len(args)):
        pre = sum(a.shifted for a in args[:i])
        term = brace(x, args[:i - 1] + [dot(ctx, args[i - 1], args[i])] + args[i + 1:])
        _add_into(rhs, term, (sx + pre) % 2 == 0)
    term = dot(ctx, brace(x, args[:-1]), args[-1])
    pre = sum(a.shifted for a in args[:-1])
    _add_into(rhs, term, (sx + pre) % 2 == 1)
    degree = x.degree + sum(a.shifted for a in args) + 1  # of d(x{args})
    return Cochain(x.alg, degree, lhs), Cochain(x.alg, degree, rhs)


def dg_algebra_sides(ctx, x, y, z):
    """Dot associativity and the Leibniz rule d(x.y) = dx.y + (-1)^(deg x) x.dy."""
    assoc_l = dot(ctx, dot(ctx, x, y), z)
    assoc_r = dot(ctx, x, dot(ctx, y, z))
    leib_l = diff_d(ctx, dot(ctx, x, y))
    leib_r = {}
    _add_into(leib_r, dot(ctx, diff_d(ctx, x), y), False)
    _add_into(leib_r, dot(ctx, x, diff_d(ctx, y)), x.degree % 2 == 1)
    return (assoc_l, assoc_r), (leib_l, Cochain(x.alg, leib_l.degree, leib_r))


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


def run_identity_suite(ctx, rng, samples):
    """Spread `samples` random instances across all identity families."""
    results = []
    families = []
    for pat in BRACE_PATTERNS:
        families.append(("brace-identity", pat))
    for pat in DOT_BRACE_PATTERNS:
        families.append(("hg-dot-brace", pat))
    for pat in HG_DIFF_PATTERNS:
        families.append(("hg-differential", pat))
    for pat in DG_PATTERNS:
        families.append(("dg-algebra", pat))
    alg = ctx.alg
    i = 0
    while i < samples:
        check, pat = families[i % len(families)]
        if check == "brace-identity":
            dx, dxs, dys = pat
            lhs, rhs = brace_identity_sides(
                random_cochain(alg, dx, rng),
                [random_cochain(alg, k, rng) for k in dxs],
                [random_cochain(alg, k, rng) for k in dys])
            results.append(IdentityResult(check, pat, lhs == rhs))
        elif check == "hg-dot-brace":
            d1, d2, dys = pat
            lhs, rhs = dot_brace_sides(
                ctx, random_cochain(alg, d1, rng), random_cochain(alg, d2, rng),
                [random_cochain(alg, k, rng) for k in dys])
            results.append(IdentityResult(check, pat, lhs == rhs))
        elif check == "hg-differential":
            dx, dargs = pat
            lhs, rhs = hg_differential_sides(
                ctx, random_cochain(alg, dx, rng),
                [random_cochain(alg, k, rng) for k in dargs])
            results.append(IdentityResult(check, pat, lhs == rhs))
        else:
            p, q, r = pat
            (al, ar), (ll, lr) = dg_algebra_sides(
                ctx, random_cochain(alg, p, rng), random_cochain(alg, q, rng),
                random_cochain(alg, r, rng))
            results.append(IdentityResult(check, pat, al == ar and ll == lr))
        i += 1
    return results
