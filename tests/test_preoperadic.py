import re
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations
from math import prod

import pytest

from lodayops import cochains, cohomology, preoperadic
from lodayops.algfile import load_algebra
from lodayops.cochains import MultContext
from lodayops.params import (KINDS, TREE_KINDS, _family, enumerate_params,
                             param_text)
from lodayops.preoperadic import (Counterexample, SystemReport,
                                  _compositions_of, r_part, r_zero,
                                  r_index_tables, scan_instances,
                                  verify_system)
from lodayops.trees import LEAF, _compositions, face


def test_linear_r_zero_block_index():
    p = (2, 3)
    assert r_zero("linear", p, 4) == 2
    assert r_zero("linear", p, 2) == 1
    assert r_zero("linear", p, 3) == 2


def test_linear_r_part_clamps():
    p = (2, 3)
    assert r_part("linear", p, 1, 5) == 2   # r > N_1: clamp to n_1
    assert r_part("linear", p, 1, 1) == 1
    assert r_part("linear", p, 2, 1) == 1   # r <= N_1: clamp to 1
    assert r_part("linear", p, 2, 4) == 2


def test_profile_parts_given_as_a_list():
    # a profile is a tuple, the key of the tables' cache: a list is refused
    p = [2, 2]
    u = enumerate_params("linear", 4)[2]
    with pytest.raises(TypeError, match="unhashable"):
        r_index_tables("linear", p)
    with pytest.raises(TypeError, match="unhashable"):
        r_zero("linear", p, u)
    with pytest.raises(TypeError, match="unhashable"):
        r_part("planar", p, 2, enumerate_params("planar", 4)[0])


def test_nonpositive_profile_parts_are_errors():
    # the one judge's message, for the count of parts and for each part
    messages = {(): "^len\\(parts\\) must be an int >= 1, got 0$",
                (2, 0): "^part must be an int >= 1, got 0$",
                (1, -1): "^part must be an int >= 1, got -1$",
                (3, -1): "^part must be an int >= 1, got -1$"}
    u = enumerate_params("linear", 2)[0]
    for parts, message in messages.items():
        with pytest.raises(ValueError, match=message):
            r_index_tables("linear", parts)
    for parts in ((), (2, 0)):
        with pytest.raises(ValueError, match=messages[parts]):
            r_zero("linear", parts, u)
    with pytest.raises(ValueError, match=messages[(3, -1)]):
        r_part("linear", (3, -1), 1, u)
    # the list cases are refused as lists, before their parts are read
    for parts in ([2, 0], [], [3, -1]):
        with pytest.raises(TypeError, match="unhashable"):
            r_index_tables("linear", parts)
        with pytest.raises(TypeError, match="unhashable"):
            r_zero("linear", parts, u)


def test_identity_profile_is_identity():
    for kind in ("linear", "binary", "planar", "subsets", "signs"):
        for k in (1, 2, 3):
            p = (1,) * k
            for u in enumerate_params(kind, k):
                assert r_zero(kind, p, u) == u


def test_sign_block_products_and_extraction():
    p = (2, 1)
    x = (1, -1, 0)
    assert r_zero("signs", p, x) == (-1, 0)
    assert r_part("signs", p, 2, x) == (0,)
    assert r_part("signs", p, 1, x) == (1, -1)


def test_subset_membership_cases():
    p = (2, 2)
    x = frozenset({3})
    assert r_part("subsets", p, 1, x) == frozenset({2})
    assert r_zero("subsets", p, x) == frozenset({2})
    # the one-slot part always collapses to {1}
    p = (1, 3)
    for payload in ({1}, {4}, {2, 3}):
        assert r_part("subsets", p, 1, frozenset(payload)) == frozenset({1})


def test_results_always_valid_members():
    for kind in ("linear", "binary", "planar", "subsets", "signs"):
        for parts in ((2, 1), (1, 2), (2, 2), (1, 1, 2)):
            for u in enumerate_params(kind, sum(parts)):
                assert r_zero(kind, parts, u) in enumerate_params(
                    kind, len(parts))
                for j in range(1, len(parts) + 1):
                    assert r_part(kind, parts, j, u) in enumerate_params(
                        kind, parts[j - 1])


def test_arity_mismatch_is_an_error():
    with pytest.raises(ValueError, match=r"^j must be an int in 1\.\.2, got 3$"):
        r_part("linear", (2, 2), 3, 1)


@pytest.mark.parametrize("kind, elem, text", [
    ("subsets", frozenset({2, 7}), "{2,7}"),
    ("subsets", frozenset(), None),
    ("signs", (1, 0, 2, -1), None),
    ("signs", (1, 0, -1), "(+1,0,-1)"),
    ("planar", enumerate_params("planar", 3)[0], "(|,|,|,|)"),
    ("planar", LEAF, None),
    ("binary", (LEAF,) * 5, None),
    ("planar", [LEAF] * 5, None),
    ("linear", 0, None),
    ("linear", 5, "5"),
    ("subsets", {1}, None),
    ("subsets", [1], None),
], ids=["subset-out-of-range", "empty-subset", "sign-2", "sign-length-3",
        "tree-weight-3", "bare-leaf", "binary-corolla", "list-corolla",
        "linear-0", "linear-n-plus-1", "unhashable-set", "unhashable-list"])
def test_off_family_payloads_are_errors(kind, elem, text):
    # the maps read index tables, so a payload that is not in U_N, N = 4,
    # has no index; one that param_text accepts, an element of another
    # U_n, is named with the U_N it is not in, and any other is refused by
    # param_text itself, an unhashable one too
    p = (2, 2)
    if text is None:
        message = "is not an element of the %s family$" % kind
    else:
        message = "^%s is not an element of U_4 of the %s family$" % (
            re.escape(text), kind)
    with pytest.raises(ValueError, match=message):
        r_zero(kind, p, elem)
    with pytest.raises(ValueError, match=message):
        r_part(kind, p, 1, elem)


def _leaves(t):
    return 1 if not t else sum(map(_leaves, t))


def _keep_leaves_direct(t, keep):
    """Independent one-pass construction of the subtree on a leaf set."""
    def rec(node, offset):
        if not node:
            return node if offset in keep else None
        live = []
        pos = offset
        for c in node:
            r = rec(c, pos)
            if r is not None:
                live.append(r)
            pos += _leaves(c)
        if not live:
            return None
        if len(live) == 1:
            return live[0]
        return tuple(live)
    out = rec(t, 0)
    assert out is not None
    return out


def _all_compositions(max_total):
    """Every composition of every total 1..max_total, from its cut points."""
    for total in range(1, max_total + 1):
        for k in range(1, total + 1):
            for cuts in combinations(range(1, total), k - 1):
                bounds = (0,) + cuts + (total,)
                yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _sequential_deletions(t):
    """{kept labels: t with every other leaf deleted by ``face``, from the
    right}, for every nonempty kept set; shared prefixes are deleted once."""
    out = {}

    def rec(i, tree, kept):
        if i < 0:
            out[kept] = tree
            return
        rec(i - 1, tree, (i,) + kept)
        if tree:
            rec(i - 1, face(tree, i)[0], kept)

    rec(_leaves(t) - 1, t, ())
    return out


def test_restrict_matches_sequential_deletion_and_direct_construction():
    # the restriction tables that R_0 and R_j read, for every tree of
    # weight <= 6 and every set of >= 2 kept leaves: sum over n of
    # |T_n| (2^(n+1) - n - 2) planar cases, and the same over the binary
    # trees, whose restrictions must all be found in the binary family
    cases = Counter()
    for n in range(1, 7):
        keeps = [keep for size in range(2, n + 2)
                 for keep in combinations(range(n + 1), size)]
        tables = {kind: [(preoperadic._restriction_table(kind, n, keep),
                          _family(kind, len(keep) - 1)[0]) for keep in keeps]
                  for kind in TREE_KINDS}
        binary_index = _family("binary", n)[1]
        for i, t in enumerate(enumerate_params("planar", n)):
            sequential = _sequential_deletions(t)
            b = binary_index.get(t)
            for keep, (table, targets), (b_table, b_targets) in zip(
                    keeps, tables["planar"], tables["binary"]):
                got = targets[table[i]]
                assert got == sequential[keep]
                assert got == _keep_leaves_direct(t, set(keep))
                cases["planar"] += 1
                if b is not None:
                    assert b_targets[b_table[b]] == got
                    cases["binary"] += 1
    assert cases == {"planar": 120893, "binary": 18662}


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_deletion_tables_agree_with_face(kind):
    # the two leaf-removal routines share no code: the deletion tables that
    # the restriction tables compose, and ``face``, which delta_trias reads
    cases = 0
    for n in range(2, 8):
        deletions = preoperadic._deletions(kind, n)
        smaller = _family(kind, n - 1)[1]
        for u, t in enumerate(enumerate_params(kind, n)):
            for i in range(n + 1):
                assert deletions[i][u] == smaller[face(t, i)[0]]
                cases += 1
    assert cases == {"binary": 4704, "planar": 42013}[kind]


def test_tree_r_functions_match_direct_construction():
    # R_0 and R_j on trees versus direct extraction, every profile of total <= 6
    for kind in ("binary", "planar"):
        for parts in _all_compositions(6):
            partials = [0, *accumulate(parts)]
            for u in enumerate_params(kind, partials[-1]):
                keep0 = set(partials)
                direct = _keep_leaves_direct(u, keep0)
                assert r_zero(kind, parts, u) == direct
                for j in range(1, len(parts) + 1):
                    keep = set(range(partials[j - 1], partials[j] + 1))
                    direct = _keep_leaves_direct(u, keep)
                    assert r_part(kind, parts, j, u) == direct


@pytest.mark.parametrize("kind", ["linear", "binary", "planar", "subsets", "signs"])
def test_verify_system_passes_small(kind):
    report = verify_system(kind, 4)
    assert report.passed
    assert report.checked > 0


def test_verify_system_worker_partition_agrees():
    a = verify_system("signs", 4, workers=1)
    b = verify_system("signs", 4, workers=3)
    assert a == b


@pytest.mark.parametrize("workers", [0, -2, 2.5, True, "2", None])
def test_verify_system_refuses_workers_the_cli_refuses(workers):
    # the CLI's --workers wants an int >= 1; the library accepted these
    with pytest.raises(ValueError, match="^workers must be an int >= 1, "
                       "got %s$" % re.escape(repr(workers))):
        verify_system("linear", 2, workers=workers)


def test_profile_dependent_corruption_caught_by_closure():
    # a corruption keyed on the profile length hits the two closure sides
    # asymmetrically (the inner composite sees different profile shapes), so
    # the scan must produce a concrete (profile, element) counterexample
    def bad_r_part(kind, p, j, elem):
        if kind == "linear" and len(p) == 2:
            return 1
        return r_part(kind, p, j, elem)

    report = _scan_of("linear", 4, rj=bad_r_part)
    assert not report.passed
    axioms = {c.axiom for c in report.counterexamples}
    assert "idempotency" not in axioms
    assert "closure" in axioms
    first = report.counterexamples[0]
    assert first.outer and first.element


def test_index_tables_consistent_with_functions():
    # every profile of total <= 5 on every family, <= 6 on the tree families
    for kind in KINDS:
        max_total = 6 if kind in ("binary", "planar") else 5
        for parts in _all_compositions(max_total):
            r0, part_tables = r_index_tables(kind, parts)
            family = enumerate_params(kind, sum(parts))
            assert len(part_tables) == len(parts)
            for table in (r0,) + part_tables:
                assert len(table) == len(family)
            index0 = _family(kind, len(parts))[1]
            for i, u in enumerate(family):
                assert r0[i] == index0[r_zero(kind, parts, u)]
                for j, table in enumerate(part_tables, start=1):
                    index = _family(kind, parts[j - 1])[1]
                    assert table[i] == index[r_part(kind, parts, j, u)]


# The linear, subset and sign maps on payloads, as the library computed them
# before its tables read the canonical index: the oracle for those tables,
# and so for the public R_0 / R_j, which read them.

def _oracle_r_zero(kind, p, payloads):
    """R_0 on each of the payloads, one block at a time."""
    cuts = (0, *accumulate(p))
    if kind == "linear":
        # the block that holds x
        return [bisect_left(cuts, x) for x in payloads]
    columns = []
    for lo, hi in zip(cuts, cuts[1:]):
        if kind == "subsets":
            columns.append([any(lo + 1 <= r <= hi for r in x)
                            for x in payloads])
        else:
            columns.append([prod(x[lo:hi]) for x in payloads])
    if kind == "subsets":
        return [frozenset(i for i, hit in enumerate(bits, start=1) if hit)
                for bits in zip(*columns)]
    return list(zip(*columns))


def _oracle_r_part(kind, p, j, x):
    n_j = p[j - 1]
    lo = sum(p[:j - 1])            # N_{j-1}
    hi = lo + n_j                  # N_j
    if kind == "linear":
        return min(max(x - lo, 1), n_j)
    if kind == "signs":
        return x[lo:hi]
    out = set()
    for i in range(1, n_j + 1):
        hit = False
        if i == 1:
            hit = any(1 <= r <= lo + 1 for r in x)
        if not hit and 2 <= i <= n_j - 1:
            hit = (i + lo) in x
        if not hit and i == n_j:
            hit = any(hi <= r <= sum(p) for r in x)
        if hit:
            out.add(i)
    return frozenset(out)


@pytest.mark.parametrize("kind", ["linear", "subsets", "signs"])
def test_arithmetic_index_tables_match_payload_oracle(kind):
    # every profile of total <= 8; an R_j table depends only on N and the
    # interval N_{j-1}..N_j, so its oracle is computed once per interval
    part_oracles = {}
    for parts in _all_compositions(8):
        cuts = (0, *accumulate(parts))
        payloads = enumerate_params(kind, cuts[-1])
        r0, part_tables = r_index_tables(kind, parts)
        index_k = _family(kind, len(parts))[1]
        assert r0 == tuple(map(index_k.__getitem__,
                               _oracle_r_zero(kind, parts, payloads)))
        for j, table in enumerate(part_tables, start=1):
            key = (cuts[-1], cuts[j - 1], cuts[j])
            if key not in part_oracles:
                index = _family(kind, parts[j - 1])[1]
                part_oracles[key] = tuple(
                    index[_oracle_r_part(kind, parts, j, x)]
                    for x in payloads)
            assert table == part_oracles[key]


@pytest.mark.parametrize("kind", ["linear", "subsets", "signs"])
def test_arithmetic_tables_follow_the_family_order(kind, monkeypatch):
    # the tables read the order of _family, not one of their own: with
    # every U_n reversed, each table of total <= 5 is the payload oracle
    # read through the reversed index
    @lru_cache(maxsize=None)
    def reversed_family(kind, n):
        elems = _family(kind, n)[0][::-1]
        return elems, {p: i for i, p in enumerate(elems)}

    caches = (preoperadic._deletions, preoperadic._restriction_table,
              r_index_tables)
    monkeypatch.setattr(preoperadic, "_family", reversed_family)
    for cache in caches:
        cache.cache_clear()
    try:
        for parts in _all_compositions(5):
            payloads = reversed_family(kind, sum(parts))[0]
            r0, part_tables = r_index_tables(kind, parts)
            index_k = reversed_family(kind, len(parts))[1]
            assert r0 == tuple(map(index_k.__getitem__,
                                   _oracle_r_zero(kind, parts, payloads)))
            for j, table in enumerate(part_tables, start=1):
                index = reversed_family(kind, parts[j - 1])[1]
                assert table == tuple(
                    index[_oracle_r_part(kind, parts, j, x)]
                    for x in payloads)
    finally:
        for cache in caches:
            cache.cache_clear()


def test_tree_index_tables_are_the_restriction_tables():
    # no copy per profile: R_0 and each R_j are the shared cached tables
    for kind in ("binary", "planar"):
        for parts in _all_compositions(5):
            cuts = (0, *accumulate(parts))
            r0, part_tables = r_index_tables(kind, parts)
            n = cuts[-1]
            assert r0 is preoperadic._restriction_table(kind, n, cuts)
            for table, lo, hi in zip(part_tables, cuts, cuts[1:]):
                assert table is preoperadic._restriction_table(
                    kind, n, tuple(range(lo, hi + 1)))


def test_index_tables_built_without_public_r_functions(monkeypatch):
    # the tables compute on canonical indices, never through the public
    # R_0 / R_j
    keys = [(kind, parts) for kind in KINDS for parts in _all_compositions(5)]
    r_index_tables.cache_clear()
    expected = {key: r_index_tables(*key) for key in keys}

    def refuse(*args):
        raise AssertionError("public R function called by r_index_tables")

    monkeypatch.setattr(preoperadic, "r_zero", refuse)
    monkeypatch.setattr(preoperadic, "r_part", refuse)
    r_index_tables.cache_clear()
    try:
        for key in keys:
            assert r_index_tables(*key) == expected[key]
    finally:
        r_index_tables.cache_clear()


# -- reference scan ---------------------------------------------------------
# The per-instance scan that verify_system replaced, kept as the oracle: it
# calls r0/rj afresh for every instance and memoises nothing.

def _scan_outer(kind, outer, max_total, r0, rj):
    """All axiom instances for one outer profile; returns (checked, failures)."""
    checked = 0
    failures = []
    k = len(outer)
    cuts = (0, *accumulate(outer))
    n_total = cuts[-1]

    def record(axiom, inner, elem, expected, actual):
        failures.append(Counterexample(
            axiom, outer, inner, param_text(kind, elem),
            param_text(kind, expected), param_text(kind, actual)))

    for m_total in range(n_total, max_total + 1):
        for inner in _compositions(m_total, n_total):
            m_partial = (0, *accumulate(inner))
            t_parts = tuple(m_partial[hi] - m_partial[lo]
                            for lo, hi in zip(cuts, cuts[1:]))
            blocks = [inner[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
            for u in _family(kind, m_total)[0]:
                checked += 1
                via0 = r0(kind, inner, u)
                # (2) idempotency
                lhs = r0(kind, outer, via0)
                rhs = r0(kind, t_parts, u)
                if lhs != rhs:
                    record("idempotency", inner, u, rhs, lhs)
                for i in range(1, k + 1):
                    via_i = rj(kind, t_parts, i, u)
                    # (3) commutativity
                    lhs = rj(kind, outer, i, via0)
                    rhs = r0(kind, blocks[i - 1], via_i)
                    if lhs != rhs:
                        record("commutativity", inner, u, rhs, lhs)
                    # (4) closure
                    for j in range(1, outer[i - 1] + 1):
                        lhs = rj(kind, inner, cuts[i - 1] + j, u)
                        rhs = rj(kind, blocks[i - 1], j, via_i)
                        if lhs != rhs:
                            record("closure", inner, u, rhs, lhs)
    return checked, failures


def _reference_scan(kind, max_total, r0=r_zero, rj=r_part):
    checked, counterexamples = 0, []
    for k in range(1, max_total + 1):
        p = (1,) * k
        for u in _family(kind, k)[0]:
            checked += 1
            got = r0(kind, p, u)
            if got != u:
                counterexamples.append(Counterexample(
                    "identity", p, (), param_text(kind, u),
                    param_text(kind, u), param_text(kind, got)))
    for n in range(1, max_total + 1):
        for outer in _compositions_of(n):
            n_checked, failures = _scan_outer(kind, outer, max_total, r0, rj)
            checked += n_checked
            counterexamples.extend(failures)
    counterexamples.sort(key=Counterexample.sort_key)
    return SystemReport(kind, max_total, checked, tuple(counterexamples))


def _assert_same_report(got, want):
    assert got.checked == want.checked
    assert got.counterexamples == want.counterexamples
    assert got.counterexamples == tuple(
        sorted(got.counterexamples, key=Counterexample.sort_key))


def _tabulated(kind, parts, r0, rj):
    """(R_0 table, R_j tables) of the profile ``parts``: the element maps
    r0/rj tabulated over U_N by canonical index.  A value outside its
    target family is refused, since nothing judges these tables."""
    family = enumerate_params(kind, sum(parts))

    def column(k, values):
        index = _family(kind, k)[1]
        for x in values:
            if x not in index:
                raise ValueError("%s is not an element of U_%d"
                                 % (param_text(kind, x), k))
        return tuple(map(index.__getitem__, values))
    return (column(len(parts), [r0(kind, parts, u) for u in family]),
            tuple(column(n_j, [rj(kind, parts, j, u) for u in family])
                  for j, n_j in enumerate(parts, start=1)))


def _scan_of(kind, max_total, r0=r_zero, rj=r_part):
    """verify_system(kind, max_total) on the tables of the element maps
    r0/rj, tabulated before the scan and handed to it in place of the
    library's ``r_index_tables``."""
    tables = {parts: _tabulated(kind, parts, r0, rj)
              for parts in _all_compositions(max_total)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preoperadic, "r_index_tables",
                      lambda kind, parts: tables[parts])
        return verify_system(kind, max_total)


def _next_in_family(kind, k, elem):
    """The element after elem in U_k, cyclically."""
    family = enumerate_params(kind, k)
    return family[(family.index(elem) + 1) % len(family)]


def _corrupt_r0(kind, p, elem):
    out = r_zero(kind, p, elem)
    return _next_in_family(kind, len(p), out) if p[-1] == 2 else out


def _corrupt_rj(kind, p, j, elem):
    out = r_part(kind, p, j, elem)
    return _next_in_family(kind, p[j - 1], out) if j == len(p) > 1 else out


def _unclamped_linear_rj(kind, p, j, elem):
    # leaves the family: payloads below 1 and above n_j
    if kind == "linear":
        return elem - sum(p[:j - 1])
    return r_part(kind, p, j, elem)


def _wrapped_linear_rj(kind, p, j, elem):
    # (x - N_{j-1} - 1) mod n_j + 1: in the family, but not clamped
    if kind == "linear":
        return (elem - sum(p[:j - 1]) - 1) % p[j - 1] + 1
    return r_part(kind, p, j, elem)


@pytest.mark.parametrize("kind", KINDS)
def test_scan_matches_reference_on_default_maps(kind):
    _assert_same_report(verify_system(kind, 5), _reference_scan(kind, 5))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("corrupted", ["r0", "rj"])
def test_scan_matches_reference_on_corrupted_maps(kind, corrupted):
    maps = ({"r0": _corrupt_r0} if corrupted == "r0"
            else {"rj": _corrupt_rj})
    want = _reference_scan(kind, 4, **maps)
    _assert_same_report(_scan_of(kind, 4, **maps), want)
    assert want.counterexamples


def test_unclamped_linear_system_caught_by_commutativity():
    # wrapping R_j round 1..n_j instead of clamping it: the exhaustive scan
    # pins the damage on commutativity and closure, and idempotency (R_0
    # only) stays clean
    want = _reference_scan("linear", 4, rj=_wrapped_linear_rj)
    _assert_same_report(_scan_of("linear", 4, rj=_wrapped_linear_rj), want)
    axioms = Counter(c.axiom for c in want.counterexamples)
    assert axioms == {"commutativity": 2, "closure": 4}


def test_scan_matches_reference_on_off_family_values():
    # an unclamped R_j leaves the family; the reference scan may not report
    # on such a map: it refuses the off-family value when it feeds it to R_0
    with pytest.raises(ValueError,
                       match=r"^0 is not an element of the linear family$"):
        _reference_scan("linear", 4, rj=_unclamped_linear_rj)


@pytest.fixture
def corrupt(monkeypatch):
    """corrupt(fault) gives the R_1 table of the planar profile (2, 1), one
    ``_restriction_table`` result, the fault: one entry short, or its last
    entry 3 (|U_2| = 3) or -1.  The caches of profiles' tables are cleared
    then, and again after the test."""
    caches = (r_index_tables, cochains._composition_data)
    real = preoperadic._restriction_table

    def table(kind, n, labels, fault):
        out = real(kind, n, labels)
        if (kind, n, labels) != ("planar", 3, (0, 1, 2)):
            return out
        if fault == "short":
            return out[:-1]
        return out[:-1] + (3 if fault == "too-large" else -1,)

    def set_fault(fault):
        monkeypatch.setattr(preoperadic, "_restriction_table",
                            lambda *key: table(*key, fault))
        for cache in caches:
            cache.cache_clear()

    yield set_fault
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("fault", ["short", "too-large", "negative"])
def test_malformed_override_table_is_an_error(fault, corrupt):
    # a table must map every index of U_N into its target family;
    # r_index_tables judges each profile's tables as it builds them
    corrupt(fault)
    message = (r"has 10 entries, not \|U_3\| = 11$" if fault == "short"
               else r"holds an index outside 0\.\.2, the indices of U_2$")
    for _ in range(2):      # a refused build is not cached
        with pytest.raises(ValueError, match=r"^planar R_1 table of profile "
                           r"\(2, 1\) " + message):
            r_index_tables("planar", (2, 1))


def test_judge_guards_every_reader_of_the_tables(corrupt, fixture_dir, rng):
    # composition, the matrices of d and the scan all read the tables of
    # r_index_tables, so none of them reads a short table
    ctx = MultContext(load_algebra(fixture_dir / "trias_dim1.alg"))
    x1 = cochains.random_cochain(ctx.alg, 1, rng)
    corrupt("short")
    message = (r"^planar R_1 table of profile \(2, 1\) has 10 entries, "
               r"not \|U_3\| = 11$")
    readers = [lambda: cochains.gamma(ctx.pi, [ctx.pi, x1]),
               lambda: cohomology.matrix_of_d(ctx, 2),
               lambda: verify_system("planar", 3)]
    for reader in readers:
        with pytest.raises(ValueError, match=message):
            reader()


def test_unknown_kind_and_empty_scan_are_errors():
    with pytest.raises(ValueError, match="^unknown parameter kind 'nosuch'$"):
        r_index_tables("nosuch", (2, 1))
    for max_total in (0, -1):
        with pytest.raises(ValueError, match="^max_total must be an int "
                           ">= 1, got %d$" % max_total):
            verify_system("linear", max_total)


def test_each_profile_tables_built_and_judged_once(monkeypatch):
    # r_index_tables is the one cache of the tables: a second scan builds
    # and judges nothing, and composition is handed the tables the scan reads
    judged = Counter()
    check = preoperadic._check_tables

    def counted(kind, parts, *rest):
        judged[kind, parts] += 1
        return check(kind, parts, *rest)

    read = {}

    def recorded(kind, parts):
        read[kind, parts] = out = r_index_tables(kind, parts)
        return out

    monkeypatch.setattr(preoperadic, "_check_tables", counted)
    monkeypatch.setattr(preoperadic, "r_index_tables", recorded)
    r_index_tables.cache_clear()
    try:
        for kind in KINDS:
            built = []
            for _ in range(2):
                misses = r_index_tables.cache_info().misses
                verify_system(kind, 4)
                built.append(r_index_tables.cache_info().misses - misses)
            # every composition of every total <= 4, then none
            assert built == [15, 0]
        assert len(judged) == len(KINDS) * 15
        assert set(judged.values()) == {1}
        assert len(read) == len(KINDS) * 15
        for (kind, parts), (_, part_tables) in read.items():
            handed = cochains._composition_data(kind, parts)[1]
            assert [*map(id, handed)] == [*map(id, part_tables)]
    finally:
        r_index_tables.cache_clear()


@pytest.mark.parametrize("kind", KINDS)
def test_scan_instances_counts_the_scan(kind):
    for max_total in range(1, 6):
        assert scan_instances(kind, max_total, 10 ** 6) == \
            verify_system(kind, max_total).checked
    # the sum stops at the first total that passes the limit
    assert scan_instances(kind, 5, 1) == scan_instances(kind, 1, 10 ** 6)
