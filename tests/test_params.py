import re

import pytest

from lodayops.params import (KINDS, _family, enumerate_params, family_size,
                             param_text)
from lodayops.trees import LEAF


def test_family_sizes():
    assert [family_size("linear", n) for n in range(1, 6)] == [1, 2, 3, 4, 5]
    assert [family_size("binary", n) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    assert [family_size("planar", n) for n in range(1, 6)] == [1, 3, 11, 45, 197]
    assert [family_size("subsets", n) for n in range(1, 6)] == [
        2 ** n - 1 for n in range(1, 6)]
    assert [family_size("signs", n) for n in range(1, 5)] == [
        3 ** n for n in range(1, 5)]


def test_linear_enumeration():
    assert enumerate_params("linear", 4) == (1, 2, 3, 4)


def test_enumeration_deterministic_and_nonempty():
    for kind in KINDS:
        for n in range(1, 5):
            first = enumerate_params(kind, n)
            again = enumerate_params(kind, n)
            assert first == again
            assert len(first) > 0


def test_subsets_in_bitmask_order():
    # the subset S has bitmask sum of 2^(i-1) over i in S
    masks = [sum(1 << (i - 1) for i in s)
             for s in enumerate_params("subsets", 4)]
    assert masks == list(range(1, 16))


def test_invalid_arity():
    for kind in KINDS:
        with pytest.raises(ValueError):
            enumerate_params(kind, 0)
    with pytest.raises(ValueError):
        enumerate_params("nosuch", 2)


def test_param_text_refuses_an_unknown_kind():
    # it used to print the value as a linear one: '3'
    with pytest.raises(ValueError, match="^unknown parameter kind 'bogus'$"):
        param_text("bogus", 3)
    with pytest.raises(ValueError, match="^unknown parameter kind 'bogus'$"):
        enumerate_params("bogus", 3)


@pytest.mark.parametrize("kind, good, text, bad", [
    ("linear", 3, "3", ["x", 0, True, 2.0, None, 1.0]),
    ("binary", ((), ()), "(|,|)",
     [5, ((), (), ()), (((),),), LEAF, "ab", [(), ()]]),
    ("planar", ((), (), ()), "(|,|,|)",
     [5, ((),), (((),),), LEAF, "ab", ((), 1)]),
    ("subsets", frozenset({3, 1}), "{1,3}",
     [3, frozenset(), frozenset({0, 1}), frozenset({True}), {1, 2}]),
    ("signs", (1, -1, 0), "(+1,-1,0)", [(7,), (1, 2), (), [1, 0], "+-"]),
], ids=["linear", "binary", "planar", "subsets", "signs"])
def test_param_text_refuses_what_is_not_an_element(kind, good, text, bad):
    # it used to print some of these ('(+7)', 'x', '0') and raise TypeError
    # on others; a tree may be a plain tuple.  U_1 is built first, so a
    # warm cache must not admit True or {True} as 1 or {1}
    _family(kind, 1)
    assert param_text(kind, good) == text
    for p in bad:
        want = "^%s is not an element of the %s family$" % (
            re.escape(repr(p)), kind)
        with pytest.raises(ValueError, match=want):
            param_text(kind, p)


def test_family_index_round_trip():
    # the canonical index of each element is its position: no element of
    # a family equals another
    for kind in KINDS:
        for n in range(1, 5):
            elems, index = _family(kind, n)
            assert elems is enumerate_params(kind, n)
            for j, e in enumerate(elems):
                assert index[e] == j
            assert len(index) == len(elems)


def test_param_text():
    assert param_text("subsets", frozenset({3, 1})) == "{1,3}"
    assert param_text("signs", (1, -1, 0)) == "(+1,-1,0)"
    assert param_text("planar", enumerate_params("planar", 2)[0]) == "(|,|,|)"
    assert param_text("linear", 2) == "2"
