"""The structure functions R_0, R_j on each parameter family, and an
exhaustive verifier for the four conditions (identity, idempotency,
commutativity, closure) that make them a pre-operadic system.

R_0 and R_j restrict an element to a set of labels: the partial sums
N_0, ..., N_k for R_0, and the interval N_{j-1}..N_j for R_j; on the tree
families (binary, planar), to the tree spanned by those leaves.  Both maps
have one form, the index tables of ``r_index_tables``: one table per
(kind, N, labels), built once over all of U_N, and the R_j table of an
interval serves every profile with that interval.  These cached tables
are the one cache of restrictions: a tree table puts each restriction
together from its children's, read from their own tables, as a plain
tuple that finds its index in U_k, so no tree is built.  The linear,
subset and sign tables are integer arithmetic on the canonical index.
Composition, the matrices of d, the public ``r_zero``/``r_part`` and the
law scan all read these tables through ``r_index_tables``, which judges
each profile's tables once, when it builds them; ``r_zero``/``r_part``
take and return elements themselves, and refuse a value outside U_N.

``verify_system`` checks the laws on canonical indices: U_m is
range(|U_m|), each map R_0(p), R_j(p) is a table of ``r_index_tables``,
and a law compares the images of all of U_m at once, in one thread.
"""

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, product
from math import prod

from .fields import _all_at_least, _at_least
from .params import TREE_KINDS, _family, family_size, param_text
from .trees import LEAF, _compositions


def _spanned(kind, node, keep):
    """The tree spanned by the leaves ``keep`` of node, two or more, sorted
    and labelled from its first leaf, as its tuple of children: a tree, or
    a plain tuple equal to one.  A child keeping some of its leaves, two or
    more, is read from its own family's ``_restriction_table``."""
    live = []
    lo = offset = 0
    for c in node:
        end = offset + c.weight + 1
        mid = bisect_left(keep, end, lo)
        if mid - lo == end - offset:
            live.append(c)
        elif mid - lo == 1:
            live.append(LEAF)
        elif mid > lo:
            table = _restriction_table(
                kind, c.weight, tuple(x - offset for x in keep[lo:mid]))
            live.append(_family(kind, mid - lo - 1)[0][
                table[_family(kind, c.weight)[1][c]]])
        lo, offset = mid, end
    return live[0] if len(live) == 1 else tuple(live)


def _digit_table(pieces):
    """The index table of a map that reads an index block of digits by
    block: ``pieces`` lists, most significant block first, (radix, values)
    where values[d] is the output digit of the block with digits d."""
    table = [0]
    for radix, values in pieces:
        table = [h * radix + v for h in table for v in values]
    return table


@lru_cache(maxsize=None)
def _restriction_table(kind, n, labels):
    """For each element of U_n, by index: the index in U_k of its
    restriction to the k + 1 sorted ``labels`` l_0 < ... < l_k in 0..n.
    On trees it spans the leaves ``labels``; on the linear family, x goes
    to the b with x in (l_{b-1}, l_b], the first interval widened down to 1
    and the last up to n; on subsets, bit b is set if the subset meets
    (l_{b-1}, l_b], widened the same way; on signs, digit b is the product
    of the signs in (l_{b-1}, l_b].  Element i of C_n is i + 1, element i
    of P_n is the bitmask i + 1 of its members, and element i of Q_n has
    the base-3 digits s + 1 of its signs.  This cache is the one cache of
    restrictions, which ``_spanned`` reads for each restricted child.
    """
    k = len(labels) - 1
    if kind in TREE_KINDS:
        if family_size(kind, k) == 1:   # U_1: every tree spans its one element
            return (0,) * family_size(kind, n)
        index = _family(kind, k)[1]
        return tuple(index[_spanned(kind, t, labels)]
                     for t in _family(kind, n)[0])
    if kind == "linear":
        return tuple(min(max(bisect_left(labels, x), 1), k) - 1
                     for x in range(1, n + 1))
    if kind == "subsets":
        # one output bit per interval, read from its mask of member bits
        widths = [hi - lo for lo, hi in
                  zip((0,) + labels[1:-1], labels[1:-1] + (n,))]
        masks = _digit_table([(2, [0] + [1] * ((1 << w) - 1))
                              for w in reversed(widths)])
        return tuple(m - 1 for m in masks[1:])
    if kind == "signs":
        # the signs outside l_0..l_k are dropped, and each interval gives
        # one digit, read from the digits of its signs
        return tuple(_digit_table(
            [(1, (0,) * 3 ** labels[0])]
            + [(3, [prod(x) + 1 for x in product((-1, 0, 1), repeat=hi - lo)])
               for lo, hi in zip(labels, labels[1:])]
            + [(1, (0,) * 3 ** (n - labels[-1]))]))
    raise ValueError("unknown parameter kind %r" % kind)


@lru_cache(maxsize=None)
def r_index_tables(kind, parts):
    """(R_0 table, (R_1 table, ..., R_k table)) of the profile ``parts``,
    the tuple (n_1,...,n_k): the R_j table holds, for each element of U_N
    by index, the index of R_j(u) in U_{n_j}, and the R_0 table the index
    of R_0(u) in U_k.

    These tables are the one form of the structure maps, and this is their
    one cache, per (kind, parts), since the same profiles recur for every
    cochain degree; each is a shared restriction table, so the R_j table of
    an interval serves every profile with that interval.  Each profile's
    tables are judged once, when built, so no reader gets a malformed one.
    """
    _at_least(len(parts), 1, "len(parts)")
    cuts = (0, *accumulate(_all_at_least(parts, 1, "part")))
    n = cuts[-1]
    r0 = _restriction_table(kind, n, cuts)
    part_tables = tuple(_restriction_table(kind, n, tuple(range(lo, hi + 1)))
                        for lo, hi in zip(cuts, cuts[1:]))
    _check_tables(kind, parts, (r0, *part_tables))
    return r0, part_tables


def _check_tables(kind, parts, maps):
    """Raise ValueError unless ``maps``, (R_0, R_1, ..., R_k) of the
    profile ``parts``, map the indices of U_N into U_k and U_{n_1}, ...,
    U_{n_k}."""
    n = sum(parts)
    size = len(_family(kind, n)[0])
    for j, (table, k) in enumerate(zip(maps, (len(parts),) + parts)):
        target = len(_family(kind, k)[0])
        if len(table) != size:
            problem = "has %d entries, not |U_%d| = %d" % (len(table), n, size)
        elif not 0 <= min(table) <= max(table) < target:
            problem = "holds an index outside 0..%d, the indices of U_%d" % (
                target - 1, k)
        else:
            continue
        raise ValueError("%s R_%d table of profile %r %s"
                         % (kind, j, parts, problem))


def _apply(kind, parts, j, elem):
    """R_0 of elem, an element of U_N, for j = 0, else R_j, read from the
    index tables of the profile ``parts``.  The cache refuses a list, and
    the parts are judged after it, since a warm cache does not judge them."""
    r0, part_tables = r_index_tables(kind, parts)
    i = _family(kind, sum(_all_at_least(parts, 1, "part")))[1].get(elem)
    if i is None:
        raise ValueError("%s is not an element of the %s family"
                         % (param_text(kind, elem), kind))
    table, k = (r0, len(parts)) if j == 0 else (part_tables[j - 1], parts[j - 1])
    return _family(kind, k)[0][table[i]]


def r_zero(kind, parts, elem):
    """R_0(k; n_1,...,n_k): U_N -> U_k, the parts (n_1,...,n_k) a tuple."""
    return _apply(kind, parts, 0, elem)


def r_part(kind, parts, j, elem):
    """R_j(k; n_1,...,n_k): U_N -> U_{n_j} for 1 <= j <= k."""
    return _apply(kind, parts, _at_least(j, 1, "j", len(parts)), elem)


# -- exhaustive verification ------------------------------------------------

AXIOM_IDS = ("identity", "idempotency", "commutativity", "closure")


class Counterexample(namedtuple(
        "Counterexample", "axiom outer inner element expected actual")):
    __slots__ = ()

    def sort_key(self):
        return (self.axiom, self.outer, self.inner, self.element)


class SystemReport(namedtuple("SystemReport",
                               "kind max_total checked counterexamples")):
    """The instances checked and the counterexamples, in ``sort_key`` order."""

    __slots__ = ()

    @property
    def passed(self):
        return not self.counterexamples


def _compositions_of(total):
    """All ordered compositions of total, lexicographically."""
    return sorted(c for nparts in range(1, total + 1)
                  for c in _compositions(total, nparts))


def scan_instances(kind, max_total, limit):
    """The number of law instances ``verify_system(kind, max_total)``
    checks: the sum over m <= max_total of |U_m| (1 + 3^(m-1)).  Each u in
    U_m is one identity instance, and one instance for each of the 3^(m-1)
    (outer, inner) pairs whose inner profile has total m.  The sum stops as
    soon as it passes ``limit``, so no family past that point is
    enumerated."""
    total = 0
    for m in range(1, max_total + 1):
        total += family_size(kind, m) * (1 + 3 ** (m - 1))
        if total > limit:
            break
    return total


def _compose(outer, inner):
    """The index table of ``outer`` after ``inner``."""
    return tuple(map(outer.__getitem__, inner))


def verify_system(kind, max_total, workers=1):
    """Exhaustively check conditions (1)-(4) for all outer profiles
    (k; n_1..n_k) and inner profiles (m_1..m_N) with sum(m) <= max_total,
    over every element of the relevant family.

    The scan works on canonical indices: the elements of U_m are
    range(|U_m|), each map R_0(p), R_j(p) is the index table of
    ``r_index_tables(kind, p)``, the one cache of these tables, which
    judges them when it builds them, and a law compares the images of all
    of U_m at once.  Counterexample texts are read from the families.
    ``workers`` must be an int >= 1, as the CLI's ``--workers`` must, and
    changes nothing else: the scan runs in one thread.
    """
    _at_least(max_total, 1, "max_total")
    _at_least(workers, 1, "workers")
    checked, counterexamples = 0, []
    family = [()] + [_family(kind, m)[0] for m in range(1, max_total + 1)]
    sizes = [len(f) for f in family]

    def check(axiom, outer, inner, m, k, expected, actual):
        """Record each u in U_m whose two images in U_k differ."""
        if expected == actual:
            return
        for u, e, a in zip(family[m], expected, actual):
            if e != a:
                counterexamples.append(Counterexample(
                    axiom, outer, inner, param_text(kind, u),
                    param_text(kind, family[k][e]),
                    param_text(kind, family[k][a])))

    # (1) identity: R_0(k; 1,...,1) = id on U_k
    for k in range(1, max_total + 1):
        ones = (1,) * k
        checked += sizes[k]
        check("identity", ones, (), k, k, tuple(range(sizes[k])),
              r_index_tables(kind, ones)[0])

    for n_total in range(1, max_total + 1):
        for outer in _compositions_of(n_total):
            cuts = (0, *accumulate(outer))
            outer0, outer_parts = r_index_tables(kind, outer)
            for m_total in range(n_total, max_total + 1):
                for inner in _compositions(m_total, n_total):
                    checked += sizes[m_total]
                    m_cuts = (0, *accumulate(inner))
                    via0, inner_parts = r_index_tables(kind, inner)
                    t0, t_parts = r_index_tables(
                        kind, tuple(m_cuts[hi] - m_cuts[lo]
                                    for lo, hi in zip(cuts, cuts[1:])))
                    # (2) idempotency
                    check("idempotency", outer, inner, m_total, len(outer),
                          t0, _compose(outer0, via0))
                    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                        block0, block_parts = r_index_tables(kind,
                                                             inner[lo:hi])
                        via_i = t_parts[i]
                        # (3) commutativity
                        check("commutativity", outer, inner, m_total,
                              outer[i], _compose(block0, via_i),
                              _compose(outer_parts[i], via0))
                        # (4) closure
                        for j in range(hi - lo):
                            check("closure", outer, inner, m_total,
                                  inner[lo + j],
                                  _compose(block_parts[j], via_i),
                                  inner_parts[lo + j])
    counterexamples.sort(key=Counterexample.sort_key)
    return SystemReport(kind, max_total, checked, tuple(counterexamples))
