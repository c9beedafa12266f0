from itertools import combinations

import pytest

from lodayops import preoperadic
from lodayops.params import KINDS, ParamElement, encode, enumerate_params
from lodayops.preoperadic import (Profile, r_part, r_zero, r_index_tables,
                                  verify_system)
from lodayops.trees import (PlanarTree, binary_trees, delete_leaf, is_binary,
                            planar_trees, restrict)


def lin(n, r):
    return ParamElement("linear", n, r)


def test_linear_r_zero_block_index():
    p = Profile((2, 3))
    assert r_zero("linear", p, lin(5, 4)) == lin(2, 2)
    assert r_zero("linear", p, lin(5, 2)) == lin(2, 1)
    assert r_zero("linear", p, lin(5, 3)) == lin(2, 2)


def test_linear_r_part_clamps():
    p = Profile((2, 3))
    assert r_part("linear", p, 1, lin(5, 5)) == lin(2, 2)   # r > N_1: clamp to n_1
    assert r_part("linear", p, 1, lin(5, 1)) == lin(2, 1)
    assert r_part("linear", p, 2, lin(5, 1)) == lin(3, 1)   # r <= N_1: clamp to 1
    assert r_part("linear", p, 2, lin(5, 4)) == lin(3, 2)


def test_identity_profile_is_identity():
    for kind in ("linear", "binary", "planar", "subsets", "signs"):
        for k in (1, 2, 3):
            p = Profile((1,) * k)
            for u in enumerate_params(kind, k):
                assert r_zero(kind, p, u) == u


def test_sign_block_products_and_extraction():
    p = Profile((2, 1))
    x = ParamElement("signs", 3, (1, -1, 0))
    assert r_zero("signs", p, x) == ParamElement("signs", 2, (-1, 0))
    assert r_part("signs", p, 2, x) == ParamElement("signs", 1, (0,))
    assert r_part("signs", p, 1, x) == ParamElement("signs", 2, (1, -1))


def test_subset_membership_cases():
    p = Profile((2, 2))
    x = ParamElement("subsets", 4, frozenset({3}))
    assert r_part("subsets", p, 1, x) == ParamElement("subsets", 2, frozenset({2}))
    assert r_zero("subsets", p, x) == ParamElement("subsets", 2, frozenset({2}))
    # the one-slot part always collapses to {1}
    p = Profile((1, 3))
    for payload in ({1}, {4}, {2, 3}):
        got = r_part("subsets", p, 1,
                     ParamElement("subsets", 4, frozenset(payload)))
        assert got == ParamElement("subsets", 1, frozenset({1}))


def test_results_always_valid_members():
    from lodayops.params import validate_element
    for kind in ("linear", "binary", "planar", "subsets", "signs"):
        for parts in ((2, 1), (1, 2), (2, 2), (1, 1, 2)):
            p = Profile(parts)
            for u in enumerate_params(kind, sum(parts)):
                validate_element(r_zero(kind, p, u))
                for j in range(1, len(parts) + 1):
                    validate_element(r_part(kind, p, j, u))


def test_arity_mismatch_is_an_error():
    p = Profile((2, 2))
    with pytest.raises(ValueError):
        r_zero("linear", p, lin(3, 1))
    with pytest.raises(ValueError):
        r_part("linear", p, 3, lin(4, 1))


def _keep_leaves_direct(t, keep):
    """Independent one-pass construction of the subtree on a leaf set."""
    def rec(node, offset):
        if node.is_leaf:
            return node if offset in keep else None
        live = []
        pos = offset
        for c in node.children:
            r = rec(c, pos)
            if r is not None:
                live.append(r)
            pos += c.weight + 1
        if not live:
            return None
        if len(live) == 1:
            return live[0]
        return PlanarTree(live)
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
    """{kept labels: t with every other leaf deleted by delete_leaf, from the
    right}, for every nonempty kept set; shared prefixes are deleted once."""
    out = {}

    def rec(i, tree, kept):
        if i < 0:
            out[kept] = tree
            return
        rec(i - 1, tree, (i,) + kept)
        if not tree.is_leaf:
            rec(i - 1, delete_leaf(tree, i), kept)

    rec(t.weight, t, ())
    return out


def test_restrict_matches_sequential_deletion_and_direct_construction():
    # every tree of weight <= 6 and every set of >= 2 kept leaves:
    # sum over n of |T_n| (2^(n+1) - n - 2) cases
    cases = 0
    for n in range(1, 7):
        binary = set(binary_trees(n))
        for t in planar_trees(n):
            sequential = _sequential_deletions(t)
            for size in range(2, n + 2):
                for keep in combinations(range(n + 1), size):
                    got = restrict(t, keep)
                    assert got == sequential[keep]
                    assert got == _keep_leaves_direct(t, set(keep))
                    assert got.weight == size - 1
                    if t in binary:
                        assert is_binary(got)
                    cases += 1
    assert cases == 120893


def test_tree_r_functions_match_direct_construction():
    # R_0 and R_j on trees versus direct extraction, every profile of total <= 6
    for kind in ("binary", "planar"):
        for parts in _all_compositions(6):
            p = Profile(parts)
            total = sum(parts)
            partials = [p.partial(i) for i in range(len(parts) + 1)]
            for u in enumerate_params(kind, total):
                keep0 = set(partials)
                direct = _keep_leaves_direct(u.payload, keep0)
                assert r_zero(kind, p, u).payload == direct
                for j in range(1, len(parts) + 1):
                    keep = set(range(partials[j - 1], partials[j] + 1))
                    direct = _keep_leaves_direct(u.payload, keep)
                    assert r_part(kind, p, j, u).payload == direct


@pytest.mark.parametrize("kind", ["linear", "binary", "planar", "subsets", "signs"])
def test_verify_system_passes_small(kind):
    report = verify_system(kind, 4)
    assert report.passed
    assert report.checked > 0


def test_verify_system_worker_partition_agrees():
    a = verify_system("signs", 4, workers=1)
    b = verify_system("signs", 4, workers=3)
    assert a.counterexamples == b.counterexamples
    assert a.checked == b.checked


def test_unclamped_linear_system_caught_by_commutativity():
    # dropping the clamp cases entirely shifts both closure sides by the
    # same offset, so closure survives; the exhaustive scan pins the damage
    # on commutativity instead, and idempotency (R_0 only) stays clean
    def bad_r_part(kind, p, j, elem):
        if kind == "linear":
            return ParamElement("linear", p.parts[j - 1],
                                elem.payload - p.partial(j - 1))
        return r_part(kind, p, j, elem)

    report = verify_system("linear", 4, rj=bad_r_part)
    assert not report.passed
    axioms = {c.axiom for c in report.counterexamples}
    assert "idempotency" not in axioms
    assert "commutativity" in axioms


def test_profile_dependent_corruption_caught_by_closure():
    # a corruption keyed on the profile length hits the two closure sides
    # asymmetrically (the inner composite sees different profile shapes), so
    # the scan must produce a concrete (profile, element) counterexample
    def bad_r_part(kind, p, j, elem):
        if kind == "linear" and len(p.parts) == 2:
            return ParamElement("linear", p.parts[j - 1], 1)
        return r_part(kind, p, j, elem)

    report = verify_system("linear", 4, rj=bad_r_part)
    assert not report.passed
    axioms = {c.axiom for c in report.counterexamples}
    assert "idempotency" not in axioms
    assert "closure" in axioms
    first = report.first_failure()
    assert first.outer and first.element


def test_index_tables_consistent_with_functions():
    # every profile of total <= 5 on every family, <= 6 on the tree families
    for kind in KINDS:
        max_total = 6 if kind in ("binary", "planar") else 5
        for parts in _all_compositions(max_total):
            tables = r_index_tables(kind, parts)
            p = Profile(parts)
            family = enumerate_params(kind, p.total)
            assert len(tables) == len(family)
            for (i0, ijs), u in zip(tables, family):
                assert i0 == encode(kind, r_zero(kind, p, u))
                assert len(ijs) == p.k
                for j, ij in enumerate(ijs, start=1):
                    assert ij == encode(kind, r_part(kind, p, j, u))


def test_index_tables_built_without_public_r_functions(monkeypatch):
    # the tables compute on payloads; they never build a ParamElement
    # through the public R_0 / R_j
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
