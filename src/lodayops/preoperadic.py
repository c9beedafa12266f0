"""The structure functions R_0, R_j on each parameter family, and an
exhaustive verifier for the four conditions (identity, idempotency,
commutativity, closure) that make them a pre-operadic system.

On the tree families (binary, planar) R_0 and R_j restrict a tree to a set
of its leaves: the leaves N_0, N_1, ..., N_k for R_0, and the interval
N_{j-1}..N_j for R_j.  Both read one index table per (kind, N, kept
leaves), built once from ``trees.restrict`` over all of U_N, and return
the canonical element of ``enumerate_params``; the R_j table of a leaf
interval is shared by every profile with that interval.  The linear,
subset and sign families compute their maps arithmetically.
"""

from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import prod

from .params import ParamElement, _family, param_text
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


def r_zero(kind, p, elem):
    """R_0(k; n_1,...,n_k): U_N -> U_k."""
    _check_arity(p, elem)
    parts = p.parts
    k = len(parts)
    if kind == "linear":
        return ParamElement(kind, k, bisect_left(p.partials, elem.payload))
    if kind in TREE_KINDS:
        return _restricted(kind, elem, p.partials)
    if kind == "subsets":
        x = elem.payload
        out = set()
        lo = 0
        for i, n_i in enumerate(parts, start=1):
            hi = lo + n_i
            if any(lo + 1 <= r <= hi for r in x):
                out.add(i)
            lo = hi
        return ParamElement(kind, k, frozenset(out))
    if kind == "signs":
        x = elem.payload
        out = []
        lo = 0
        for n_i in parts:
            out.append(prod(x[lo:lo + n_i]))
            lo += n_i
        return ParamElement(kind, k, tuple(out))
    raise ValueError("unknown parameter kind %r" % kind)


def r_part(kind, p, j, elem):
    """R_j(k; n_1,...,n_k): U_N -> U_{n_j} for 1 <= j <= k."""
    _check_arity(p, elem)
    if not 1 <= j <= p.k:
        raise ValueError("part index %d out of range 1..%d" % (j, p.k))
    n_j = p.parts[j - 1]
    lo = p.partial(j - 1)          # N_{j-1}
    hi = lo + n_j                  # N_j
    if kind == "linear":
        r = elem.payload
        if r <= lo:
            i = 1
        elif r <= hi:
            i = r - lo
        else:
            i = n_j
        return ParamElement(kind, n_j, i)
    if kind in TREE_KINDS:
        return _restricted(kind, elem, tuple(range(lo, hi + 1)))
    if kind == "subsets":
        x = elem.payload
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
        return ParamElement(kind, n_j, frozenset(out))
    if kind == "signs":
        return ParamElement(kind, n_j, elem.payload[lo:hi])
    raise ValueError("unknown parameter kind %r" % kind)


@lru_cache(maxsize=None)
def r_index_tables(kind, parts):
    """Per element of U_N (by index): (index of R_0(u), tuple of R_j(u) indices).

    These index maps drive operadic composition; they are cached per
    (kind, profile) since the same profiles recur for every cochain degree.
    On the tree families they zip the restriction tables.
    """
    p = Profile(parts)
    n = p.total
    if kind in TREE_KINDS:
        cuts = p.partials
        part_tables = [_restriction_table(kind, n, tuple(range(lo, hi + 1)))
                       for lo, hi in zip(cuts, cuts[1:])]
        return tuple(zip(_restriction_table(kind, n, cuts), zip(*part_tables)))
    index_k = _family(kind, p.k)[1]
    out = []
    for elem in _family(kind, n)[0]:
        i0 = index_k[r_zero(kind, p, elem).payload]
        ijs = tuple(_family(kind, n_j)[1][r_part(kind, p, j, elem).payload]
                    for j, n_j in enumerate(parts, start=1))
        out.append((i0, ijs))
    return tuple(out)


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


def _scan_outer(kind, outer, max_total, r0, rj):
    """All axiom instances for one outer profile; returns (checked, failures)."""
    checked = 0
    failures = []
    p_outer = Profile(outer)
    k = len(outer)
    n_total = p_outer.total

    def record(axiom, inner, elem, expected, actual):
        failures.append(Counterexample(
            axiom, outer, inner, param_text(elem),
            param_text(expected), param_text(actual)))

    for m_total in range(n_total, max_total + 1):
        for inner in _compositions(m_total, n_total):
            p_inner = Profile(inner)
            m_partial = [p_inner.partial(i) for i in range(n_total + 1)]
            t_parts = tuple(
                m_partial[p_outer.partial(i)] - m_partial[p_outer.partial(i - 1)]
                for i in range(1, k + 1))
            p_t = Profile(t_parts)
            blocks = [Profile(inner[p_outer.partial(i - 1):p_outer.partial(i)])
                      for i in range(1, k + 1)]
            for u in _family(kind, m_total)[0]:
                checked += 1
                via0 = r0(kind, p_inner, u)
                # (2) idempotency
                lhs = r0(kind, p_outer, via0)
                rhs = r0(kind, p_t, u)
                if lhs != rhs:
                    record("idempotency", inner, u, rhs, lhs)
                for i in range(1, k + 1):
                    via_i = rj(kind, p_t, i, u)
                    # (3) commutativity
                    lhs = rj(kind, p_outer, i, via0)
                    rhs = r0(kind, blocks[i - 1], via_i)
                    if lhs != rhs:
                        record("commutativity", inner, u, rhs, lhs)
                    # (4) closure
                    for j in range(1, outer[i - 1] + 1):
                        lhs = rj(kind, p_inner, p_outer.partial(i - 1) + j, u)
                        rhs = rj(kind, blocks[i - 1], j, via_i)
                        if lhs != rhs:
                            record("closure", inner, u, rhs, lhs)
    return checked, failures


def verify_system(kind, max_total, workers=1, r0=r_zero, rj=r_part):
    """Exhaustively check conditions (1)-(4) for all outer profiles
    (k; n_1..n_k) and inner profiles (m_1..m_N) with sum(m) <= max_total,
    over every element of the relevant family.

    r0/rj may be overridden to scan a deliberately corrupted system.
    """
    if max_total < 1:
        raise ValueError("max_total must be >= 1")
    report = SystemReport(kind, max_total)

    # (1) identity: R_0(k; 1,...,1) = id on U_k
    for k in range(1, max_total + 1):
        p = Profile((1,) * k)
        for u in _family(kind, k)[0]:
            report.checked += 1
            got = r0(kind, p, u)
            if got != u:
                report.counterexamples.append(Counterexample(
                    "identity", p.parts, (), param_text(u),
                    param_text(u), param_text(got)))

    outers = [c for n in range(1, max_total + 1) for c in _compositions_of(n)]
    if workers > 1:
        chunks = [outers[w::workers] for w in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda chunk: [_scan_outer(kind, o, max_total, r0, rj)
                               for o in chunk],
                chunks))
        flat = [item for chunk in results for item in chunk]
    else:
        flat = [_scan_outer(kind, o, max_total, r0, rj) for o in outers]
    for checked, failures in flat:
        report.checked += checked
        report.counterexamples.extend(failures)
    report.counterexamples.sort(key=Counterexample.sort_key)
    return report
