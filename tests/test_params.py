import pytest

from lodayops.params import (KINDS, ParamElement, encode, enumerate_params,
                             family_size, param_text, validate_element)
from lodayops.trees import LEAF, PlanarTree


def test_family_sizes():
    assert [family_size("linear", n) for n in range(1, 6)] == [1, 2, 3, 4, 5]
    assert [family_size("binary", n) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    assert [family_size("planar", n) for n in range(1, 6)] == [1, 3, 11, 45, 197]
    assert [family_size("subsets", n) for n in range(1, 6)] == [
        2 ** n - 1 for n in range(1, 6)]
    assert [family_size("signs", n) for n in range(1, 5)] == [
        3 ** n for n in range(1, 5)]


def test_linear_enumeration():
    assert [e.payload for e in enumerate_params("linear", 4)] == [1, 2, 3, 4]


def test_enumeration_deterministic_and_nonempty():
    for kind in KINDS:
        for n in range(1, 5):
            first = enumerate_params(kind, n)
            again = enumerate_params(kind, n)
            assert first == again
            assert len(first) > 0


def test_subsets_in_bitmask_order():
    # the subset S has bitmask sum of 2^(i-1) over i in S
    masks = [sum(1 << (i - 1) for i in e.payload)
             for e in enumerate_params("subsets", 4)]
    assert masks == list(range(1, 16))


def test_invalid_arity():
    for kind in KINDS:
        with pytest.raises(ValueError):
            enumerate_params(kind, 0)
    with pytest.raises(ValueError):
        enumerate_params("nosuch", 2)


def test_encode_round_trip():
    for kind in KINDS:
        for n in range(1, 5):
            for j, e in enumerate(enumerate_params(kind, n)):
                assert encode(kind, e) == j


def test_encode_rejects_wrong_kind():
    e = enumerate_params("linear", 2)[0]
    with pytest.raises(ValueError):
        encode("signs", e)


def test_validate_rejects_bad_payloads():
    with pytest.raises(ValueError):
        validate_element(ParamElement("linear", 3, 4))
    with pytest.raises(ValueError):
        validate_element(ParamElement("subsets", 2, frozenset()))
    with pytest.raises(ValueError):
        validate_element(ParamElement("signs", 2, (0, 2)))
    with pytest.raises(ValueError):
        validate_element(ParamElement("planar", 2, LEAF))       # weight 0
    with pytest.raises(ValueError):
        validate_element(ParamElement("binary", 2, PlanarTree([LEAF] * 3)))


def test_param_text():
    assert param_text(ParamElement("subsets", 3, frozenset({3, 1}))) == "{1,3}"
    assert param_text(ParamElement("signs", 3, (1, -1, 0))) == "(+1,-1,0)"
    assert param_text(enumerate_params("planar", 2)[0]) == "(|,|,|)"


def test_param_element_equality_and_hash():
    a = ParamElement("subsets", 3, frozenset({1, 3}))
    b = ParamElement("subsets", 3, frozenset({3, 1}))
    assert a == b and hash(a) == hash(b)
    assert a != ParamElement("subsets", 4, frozenset({1, 3}))
    assert len({a, b, *enumerate_params("subsets", 3)}) == 7
