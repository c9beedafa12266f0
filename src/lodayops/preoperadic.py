"""The structure functions R_0, R_j on each parameter family, and an
exhaustive verifier for the four conditions (identity, idempotency,
commutativity, closure) that make them a pre-operadic system.

R_0 and R_j restrict an element to a set of labels: the partial sums
N_0, ..., N_k for R_0, and the interval N_{j-1}..N_j for R_j; on the tree
families (binary, planar), to the tree spanned by those leaves.  Both maps
have one form, the index tables of ``r_index_tables``: one table per
(kind, N, labels), built once over all of U_N, and the R_j table of an
interval serves every profile with that interval.  These cached tables
are the one cache of restrictions.  Every family's table composes the
cached tables ``_deletions`` of the labels outside the kept ones, each of
which deletes one label from all of U_n and finds each result in
U_(n-1)'s own index, so only ``params`` knows the families' order.  A
tree deletion reads the deleted child's own smaller table and splices
its result into the tuple of the other children.
Composition, the matrices of d, the public ``r_zero``/``r_part`` and the
law scan all read these tables through ``r_index_tables``, which judges
each profile's tables once, when it builds them; ``r_zero``/``r_part``
take and return elements themselves, and refuse a value outside U_N.

``verify_system`` checks the laws on canonical indices: U_m is
range(|U_m|), each map R_0(p), R_j(p) is a table of ``r_index_tables``,
and a law compares the images of all of U_m at once, in one thread.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, islice

from .fields import _all_at_least, _at_least
from .params import _family, family_size, param_text
from .trees import LEAF, _compositions, _weight


@lru_cache(maxsize=None)
def _deletions(kind, n):
    """For each label i of 0..n, n >= 2: the index table U_n -> U_(n-1) of
    deleting label i.  Each table reads every element of U_n and finds the
    element left by the deletion in U_(n-1)'s own index, so no order of
    the family is assumed here.  On a tree, the deleted leaf's vertex is
    spliced out if it is left with one child; a child of weight w >= 2
    loses its leaf by its own family's table of U_w, whose result takes
    the child's place."""
    elems, index = _family(kind, n)[0], _family(kind, n - 1)[1]
    if kind == "linear" or kind == "subsets":
        # labels i - 1 and i + 1 meet: members m and m + 1 merge, m being
        # i clamped to 1..n-1, so labels 0 and 1 delete alike, as do n - 1
        # and n
        if kind == "linear":
            merged = [tuple(index[x - (x > m)] for x in elems)
                      for m in range(1, n)]
        else:
            merged = [tuple(index[frozenset(x - (x > m) for x in s)]
                            for s in elems) for m in range(1, n)]
        return (merged[0], *merged, merged[-1])
    if kind == "signs":
        # an end label drops its end sign; inner label i multiplies signs
        # i and i + 1
        return (tuple(index[s[1:]] for s in elems),
                *(tuple(index[s[:i - 1] + (s[i - 1] * s[i],) + s[i + 1:]]
                        for s in elems) for i in range(1, n)),
                tuple(index[s[:-1]] for s in elems))
    flat = []           # per tree of U_n in turn, its deletions of leaves 0..n
    for t in elems:
        for pos, c in enumerate(t):
            head, tail, w = t[:pos], t[pos + 1:], _weight(c)
            if not w:
                rest = head + tail
                flat.append(index[rest[0] if len(rest) == 1 else rest])
            elif w == 1:
                flat += [index[head + (LEAF,) + tail]] * 2
            else:
                smaller = _family(kind, w - 1)[0]
                at = _family(kind, w)[1][c]
                flat += [index[head + (smaller[table[at]],) + tail]
                         for table in _deletions(kind, w)]
    return tuple(tuple(islice(flat, i, None, n + 1)) for i in range(n + 1))


@lru_cache(maxsize=None)
def _restriction_table(kind, n, labels):
    """For each element of U_n, by index: the index in U_k of its
    restriction to the k + 1 sorted ``labels`` l_0 < ... < l_k in 0..n.
    On trees it spans the leaves ``labels``; on the linear family, x goes
    to the b with x in (l_{b-1}, l_b], the first interval widened down to 1
    and the last up to n; on subsets, member b is present if the subset
    meets (l_{b-1}, l_b], widened the same way; on signs, sign b is the
    product of the signs in (l_{b-1}, l_b], and the signs outside l_0..l_k
    are dropped.  Each is the composition of ``_deletions``' tables of the
    labels outside ``labels``.  This cache is the one cache of
    restrictions.
    """
    # delete the labels outside labels, highest first; the table is
    # composed from the last deletion, on the smallest family, outward,
    # and starts from U_k's own index objects, so it holds no new int
    k = len(labels) - 1
    gone = [x for x in range(n + 1) if x not in labels]
    table = tuple(_family(kind, k)[1].values())
    for m, label in enumerate(gone, k + 1):
        table = tuple(map(table.__getitem__, _deletions(kind, m)[label]))
    return table


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
    the parts are judged after it, since a warm cache does not judge them.
    An unhashable elem has no index, and param_text refuses it."""
    r0, part_tables = r_index_tables(kind, parts)
    n = sum(_all_at_least(parts, 1, "part"))
    try:
        i = _family(kind, n)[1].get(elem)
    except TypeError:
        i = None
    if i is None:
        raise ValueError("%s is not an element of U_%d of the %s family"
                         % (param_text(kind, elem), n, kind))
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
