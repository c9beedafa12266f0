"""The structure functions R_0, R_j on each parameter family, and an
exhaustive verifier for the four conditions (identity, idempotency,
commutativity, closure) that make them a pre-operadic system.

On the tree families (binary, planar) R_0 and R_j restrict a tree to a set
of its leaves: the leaves N_0, N_1, ..., N_k for R_0, and the interval
N_{j-1}..N_j for R_j.  Both read one index table per (kind, N, kept
leaves), built once from ``trees.restrict`` over all of U_N, and return
the canonical element of ``enumerate_params``; the R_j table of a leaf
interval is shared by every profile with that interval.  The linear,
subset and sign families compute their maps arithmetically on payloads, in
private helpers that the public R_0, R_j and the index tables all call.

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
from itertools import accumulate
from math import prod

from .params import ParamElement, _family, family_size, param_text
from .trees import _compositions, restrict

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
def _restriction_table(kind, n, labels):
    """For each tree of U_n, by index: the index in U_k of the tree spanned
    by its leaves ``labels`` (k + 1 sorted labels)."""
    trees = _family(kind, n)[0]
    targets, index = _family(kind, len(labels) - 1)
    if len(targets) == 1:       # U_1: every tree spans its one element
        return (0,) * len(trees)
    return tuple(index[restrict(e.payload, labels)] for e in trees)


def _restricted(kind, elem, labels):
    """The element of U_k spanned by the leaves ``labels`` of elem's tree."""
    i = _family(kind, elem.n)[1].get(elem.payload)
    if i is None:
        raise ValueError("%s is not an element of the %s family"
                         % (param_text(elem), kind))
    table = _restriction_table(kind, elem.n, labels)
    return _family(kind, len(labels) - 1)[0][table[i]]


def _r_zero_payload(kind, p, x):
    """The payload of R_0(u) for the payload x of u, on the linear, subset
    and sign families."""
    parts = p.parts
    if kind == "linear":
        return bisect_left(p.partials, x)
    if kind == "subsets":
        out = set()
        lo = 0
        for i, n_i in enumerate(parts, start=1):
            hi = lo + n_i
            if any(lo + 1 <= r <= hi for r in x):
                out.add(i)
            lo = hi
        return frozenset(out)
    if kind == "signs":
        out = []
        lo = 0
        for n_i in parts:
            out.append(prod(x[lo:lo + n_i]))
            lo += n_i
        return tuple(out)
    raise ValueError("unknown parameter kind %r" % kind)


def _r_part_payload(kind, p, j, x):
    """The payload of R_j(u) for the payload x of u, on the linear, subset
    and sign families."""
    n_j = p.parts[j - 1]
    lo = p.partial(j - 1)          # N_{j-1}
    hi = lo + n_j                  # N_j
    if kind == "linear":
        if x <= lo:
            return 1
        if x <= hi:
            return x - lo
        return n_j
    if kind == "subsets":
        n = p.total
        out = set()
        for i in range(1, n_j + 1):
            hit = False
            if i == 1:
                hit = any(1 <= r <= lo + 1 for r in x)
            if not hit and 2 <= i <= n_j - 1:
                hit = (i + lo) in x
            if not hit and i == n_j:
                hit = any(hi <= r <= n for r in x)
            if hit:
                out.add(i)
        return frozenset(out)
    if kind == "signs":
        return x[lo:hi]
    raise ValueError("unknown parameter kind %r" % kind)


def r_zero(kind, p, elem):
    """R_0(k; n_1,...,n_k): U_N -> U_k."""
    _check_arity(p, elem)
    if kind in TREE_KINDS:
        return _restricted(kind, elem, p.partials)
    return ParamElement(kind, p.k, _r_zero_payload(kind, p, elem.payload))


def r_part(kind, p, j, elem):
    """R_j(k; n_1,...,n_k): U_N -> U_{n_j} for 1 <= j <= k."""
    _check_arity(p, elem)
    if not 1 <= j <= p.k:
        raise ValueError("part index %d out of range 1..%d" % (j, p.k))
    if kind in TREE_KINDS:
        lo = p.partial(j - 1)
        return _restricted(kind, elem, tuple(range(lo, p.partial(j) + 1)))
    return ParamElement(kind, p.parts[j - 1],
                        _r_part_payload(kind, p, j, elem.payload))


@lru_cache(maxsize=None)
def r_index_tables(kind, parts):
    """(R_0 table, (R_1 table, ..., R_k table)): the R_j table holds, for
    each element of U_N by index, the index of R_j(u) in U_{n_j}, and the
    R_0 table the index of R_0(u) in U_k.

    These index maps drive operadic composition; they are cached per
    (kind, profile) since the same profiles recur for every cochain degree.
    On the tree families they are the shared restriction tables themselves;
    on the others they look up the payloads that R_0 and R_j compute.
    """
    p = Profile(parts)
    n = p.total
    if kind in TREE_KINDS:
        cuts = p.partials
        return (_restriction_table(kind, n, cuts),
                tuple(_restriction_table(kind, n, tuple(range(lo, hi + 1)))
                      for lo, hi in zip(cuts, cuts[1:])))
    payloads = [elem.payload for elem in _family(kind, n)[0]]
    index_k = _family(kind, p.k)[1]
    part_indices = [_family(kind, n_j)[1] for n_j in parts]
    return (tuple(index_k[_r_zero_payload(kind, p, x)] for x in payloads),
            tuple(tuple(index[_r_part_payload(kind, p, j, x)]
                        for x in payloads)
                  for j, index in enumerate(part_indices, start=1)))


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
