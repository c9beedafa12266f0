"""The structure functions R_0, R_j on each parameter family, and an
exhaustive verifier for the four conditions (identity, idempotency,
commutativity, closure) that make them a pre-operadic system.

R_0 and R_j restrict an element to a set of labels: the partial sums
N_0, ..., N_k for R_0, and the interval N_{j-1}..N_j for R_j; on the tree
families (binary, planar), to the tree spanned by those leaves.  Off the
linear family both maps read one index table per (kind, N, labels), built
once over all of U_N, and the R_j table of an interval serves every
profile with that interval.  The children of a family's tree are the
family's own tree objects, so a tree table puts each restriction together
from its children's and finds it by its tuple of children: no tree is
built.  The subset and sign tables are integer arithmetic on the canonical
index.  The linear maps stay on payloads, which may lie outside the
family, and its index tables call them.

``verify_system`` checks the laws on index tables of its own, built per
scan from whatever r0/rj it is given, default or overridden, by one path:
every element it meets gets an integer id (equal elements share one), and
each map R_0(p), R_j(p) is a dict from id to id that calls r0/rj once per
new input.  A law is then checked on all of U_m by dict lookups and a
comparison of id lists, in one thread.  The scan relies on r0/rj being
pure and returning hashable elements.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate, product
from math import prod

from .params import ParamElement, _family, family_size, param_text
from .trees import LEAF, _compositions

TREE_KINDS = ("binary", "planar")


@dataclass(frozen=True)
class Profile:
    """Composition data (k; n_1,...,n_k) with partial sums N_i."""

    parts: tuple
    # (N_0, N_1, ..., N_k), also the leaves that R_0 keeps on a tree
    partials: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("profile parts must be positive: %r" % (self.parts,))
        object.__setattr__(self, "partials", (0,) + tuple(accumulate(self.parts)))

    @property
    def k(self):
        return len(self.parts)

    @property
    def total(self):
        return self.partials[-1]

    def partial(self, i):
        """N_i = n_1 + ... + n_i, with N_0 = 0."""
        return self.partials[i]


def _check_arity(p, elem):
    if elem.n != p.total:
        raise ValueError(
            "element arity %d does not match profile total %d" % (elem.n, p.total))


@lru_cache(maxsize=None)
def _by_children(kind, n):
    """The trees of U_n keyed by their tuple of children."""
    return {e.payload.children: e.payload for e in _family(kind, n)[0]}


def _spanned(kind, memo, node, keep):
    """The tree spanned by the leaves ``keep`` of node: two or more, sorted,
    labelled from its first leaf.  ``memo`` holds restricted subtrees."""
    live = []
    lo = offset = 0
    for c in node.children:
        end = offset + c.weight + 1
        mid = bisect_left(keep, end, lo)
        if mid - lo == end - offset:
            live.append(c)
        elif mid - lo == 1:
            live.append(LEAF)
        elif mid > lo:
            sub = keep[lo:mid]
            if offset:
                sub = tuple(x - offset for x in sub)
            out = memo.get((c, sub))
            if out is None:
                out = memo[c, sub] = _spanned(kind, memo, c, sub)
            live.append(out)
        lo, offset = mid, end
    if len(live) == 1:
        return live[0]
    return _by_children(kind, len(keep) - 1)[tuple(live)]


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
    On trees it spans the leaves ``labels``; on subsets, bit b is set if
    the subset meets (l_{b-1}, l_b], the first interval widened down to 1
    and the last up to n; on signs, digit b is the product of the signs in
    (l_{b-1}, l_b].  Element i of P_n is the bitmask i + 1 of its members,
    and element i of Q_n has the base-3 digits s + 1 of its signs.
    """
    k = len(labels) - 1
    if kind in TREE_KINDS:
        if family_size(kind, k) == 1:   # U_1: every tree spans its one element
            return (0,) * family_size(kind, n)
        index, memo = _family(kind, k)[1], {}   # one memo per table
        return tuple(index[_spanned(kind, memo, e.payload, labels)]
                     for e in _family(kind, n)[0])
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


def _restricted(kind, elem, labels):
    """The element of U_k that is elem restricted to the k + 1 ``labels``."""
    i = _family(kind, elem.n)[1].get(elem.payload)
    if i is None:
        raise ValueError("%s is not an element of the %s family"
                         % (param_text(elem), kind))
    table = _restriction_table(kind, elem.n, labels)
    return _family(kind, len(labels) - 1)[0][table[i]]


def _linear_r_zero(p, x):
    """R_0 on a linear payload x, in the family or not."""
    return bisect_left(p.partials, x)


def _linear_r_part(p, j, x):
    """R_j on a linear payload x: x - N_{j-1}, clamped to 1..n_j."""
    return min(max(x - p.partial(j - 1), 1), p.parts[j - 1])


def r_zero(kind, p, elem):
    """R_0(k; n_1,...,n_k): U_N -> U_k."""
    _check_arity(p, elem)
    if kind == "linear":
        return ParamElement(kind, p.k, _linear_r_zero(p, elem.payload))
    return _restricted(kind, elem, p.partials)


def r_part(kind, p, j, elem):
    """R_j(k; n_1,...,n_k): U_N -> U_{n_j} for 1 <= j <= k."""
    _check_arity(p, elem)
    if not 1 <= j <= p.k:
        raise ValueError("part index %d out of range 1..%d" % (j, p.k))
    if kind == "linear":
        return ParamElement(kind, p.parts[j - 1],
                            _linear_r_part(p, j, elem.payload))
    return _restricted(kind, elem,
                       tuple(range(p.partial(j - 1), p.partial(j) + 1)))


@lru_cache(maxsize=None)
def r_index_tables(kind, parts):
    """(R_0 table, (R_1 table, ..., R_k table)): the R_j table holds, for
    each element of U_N by index, the index of R_j(u) in U_{n_j}, and the
    R_0 table the index of R_0(u) in U_k.

    These index maps drive operadic composition; they are cached per
    (kind, profile) since the same profiles recur for every cochain degree.
    Off the linear family they are the shared restriction tables.
    """
    p = Profile(parts)
    cuts, n = p.partials, p.total
    if kind == "linear":
        xs = range(1, n + 1)
        return (tuple(_linear_r_zero(p, x) - 1 for x in xs),
                tuple(tuple(_linear_r_part(p, j, x) - 1 for x in xs)
                      for j in range(1, p.k + 1)))
    return (_restriction_table(kind, n, cuts),
            tuple(_restriction_table(kind, n, tuple(range(lo, hi + 1)))
                  for lo, hi in zip(cuts, cuts[1:])))


# -- exhaustive verification ------------------------------------------------

AXIOM_IDS = ("identity", "idempotency", "commutativity", "closure")


@dataclass(frozen=True)
class Counterexample:
    axiom: str
    outer: tuple
    inner: tuple
    element: str
    expected: str
    actual: str

    def sort_key(self):
        return (self.axiom, self.outer, self.inner, self.element)


@dataclass
class SystemReport:
    kind: str
    max_total: int
    checked: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.counterexamples

    def axiom_passed(self, axiom):
        if axiom not in AXIOM_IDS:
            raise ValueError("unknown axiom id %r" % axiom)
        return all(c.axiom != axiom for c in self.counterexamples)

    def first_failure(self):
        return self.counterexamples[0] if self.counterexamples else None


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


class _Interner(dict):
    """Element -> integer id, handed out in order of first sight.  Equal
    elements share one id, and ``elements[id]`` reads the element back."""

    def __init__(self):
        super().__init__()
        self.elements = []

    def __missing__(self, elem):
        i = self[elem] = len(self.elements)
        self.elements.append(elem)
        return i


class _MapTable(dict):
    """One structure map R_0(p) or R_j(p) as a dict from input id to output
    id.  A miss calls the map once and interns its result; every later
    lookup of that input is a plain dict hit."""

    def __init__(self, ids, structure_map):
        super().__init__()
        self.ids = ids
        self.structure_map = structure_map

    def __missing__(self, i):
        out = self[i] = self.ids[self.structure_map(self.ids.elements[i])]
        return out


def _image(table, ids):
    """The table applied to each id of the list ``ids``."""
    return list(map(table.__getitem__, ids))


def verify_system(kind, max_total, workers=1, r0=r_zero, rj=r_part):
    """Exhaustively check conditions (1)-(4) for all outer profiles
    (k; n_1..n_k) and inner profiles (m_1..m_N) with sum(m) <= max_total,
    over every element of the relevant family.

    r0/rj may be overridden to scan a deliberately corrupted system.  The
    scan relies on this contract: r0 and rj are pure, and they return
    hashable elements, where equal elements are interchangeable (same
    text).  Each is called at most once per distinct argument: every
    element the scan meets (U_m, and whatever r0/rj return, in or out of
    the family) gets an integer id, each map R_0(p), R_j(p) is a table
    from id to id filled on first use, and a law compares the images of
    all of U_m at once.  Counterexample texts are read back from the
    interned elements.  ``workers`` is accepted and changes nothing: the
    tables are shared and filled in one thread.
    """
    if max_total < 1:
        raise ValueError("max_total must be >= 1")
    report = SystemReport(kind, max_total)
    ids = _Interner()
    tables = {}

    def table(parts, j=0):
        """R_0(parts) for j = 0, else R_j(parts), as an id table."""
        t = tables.get((parts, j))
        if t is None:
            p = Profile(parts)
            call = partial(r0, kind, p) if j == 0 else partial(rj, kind, p, j)
            t = tables[parts, j] = _MapTable(ids, call)
        return t

    def check(axiom, outer, inner, us, expected, actual):
        if expected == actual:
            return
        elems = ids.elements
        for u, e, a in zip(us, expected, actual):
            if e != a:
                report.counterexamples.append(Counterexample(
                    axiom, outer, inner, param_text(elems[u]),
                    param_text(elems[e]), param_text(elems[a])))

    family = {m: [ids[u] for u in _family(kind, m)[0]]
              for m in range(1, max_total + 1)}

    # (1) identity: R_0(k; 1,...,1) = id on U_k
    for k, us in family.items():
        ones = (1,) * k
        report.checked += len(us)
        check("identity", ones, (), us, us, _image(table(ones), us))

    for n_total in range(1, max_total + 1):
        for outer in _compositions_of(n_total):
            cuts = Profile(outer).partials
            for m_total in range(n_total, max_total + 1):
                us = family[m_total]
                for inner in _compositions(m_total, n_total):
                    report.checked += len(us)
                    m_cuts = Profile(inner).partials
                    t_parts = tuple(m_cuts[hi] - m_cuts[lo]
                                    for lo, hi in zip(cuts, cuts[1:]))
                    via0 = _image(table(inner), us)
                    # (2) idempotency
                    check("idempotency", outer, inner, us,
                          _image(table(t_parts), us),
                          _image(table(outer), via0))
                    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=1):
                        block = inner[lo:hi]
                        via_i = _image(table(t_parts, i), us)
                        # (3) commutativity
                        check("commutativity", outer, inner, us,
                              _image(table(block), via_i),
                              _image(table(outer, i), via0))
                        # (4) closure
                        for j in range(1, hi - lo + 1):
                            check("closure", outer, inner, us,
                                  _image(table(block, j), via_i),
                                  _image(table(inner, lo + j), us))
    report.counterexamples.sort(key=Counterexample.sort_key)
    return report
