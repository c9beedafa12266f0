import pytest

from lodayops.algebra import (AXIOMS, GLYPHS, OPS, TYPES, AlgebraSpec,
                              axiom_label, axiom_mutation, multiply,
                              product_fixture, star, suspension_fixture,
                              verify_axioms, zero_fixture)
from lodayops.fields import QQ, PrimeField


def test_axiom_counts():
    assert [len(AXIOMS[t]) for t in TYPES] == [5, 3, 11, 7, 9]


def test_axiom_labels_render():
    assert axiom_label("trias", 7) == "(x ⊥ y) ⊣ z = x ⊥ (y ⊣ z)"
    assert axiom_label("trias", 1) == "(x ⊣ y) ⊣ z = x ⊣ (y ⊣ z)"
    assert axiom_label("didend", 1) == "(x ≺ y) ≺ z = x ≺ (y ≺ z + y ≻ z)"
    assert axiom_label("tridend", 3) == "(x ≺ y + x · y + x ≻ y) ≻ z = x ≻ (y ≻ z)"


def _element(field, coeffs):
    return {k: c for k, c in enumerate(map(field.from_fraction, coeffs)) if c}


def _sum(field, x, y):
    """x + y with the operators, reduced mod p here over F_p."""
    p = field.characteristic
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
    return {k: r for k, c in out.items() if (r := c % p if p else c)}


def test_multiply_bilinear_and_basis(rng):
    alg = product_fixture("trias", 2)
    f = alg.field
    for _ in range(10):
        x, xp, y = (_element(f, [rng.randint(-3, 3) for _ in range(2)])
                    for _ in range(3))
        lhs = multiply(alg, "left", _sum(f, x, xp), y)
        rhs = _sum(f, multiply(alg, "left", x, y), multiply(alg, "left", xp, y))
        assert lhs == rhs
    y = {0: f.one, 1: f.from_fraction(2)}
    assert multiply(alg, "middle", {}, y) == {}
    assert multiply(alg, "middle", y, {}) == {}


def test_fixture_products():
    alg = product_fixture("didend", 1)
    e = {0: alg.field.one}
    assert multiply(alg, "left", e, e) == e
    assert multiply(alg, "right", e, e) == {}
    assert star(alg, e, e) == e


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_cancelling_product_stores_no_zero(field):
    # in K[t]/(t^2), (e + t)(e - t) = e: the two t-terms cancel
    alg = product_fixture("trias", 2, field=field)
    assert multiply(alg, "left", _element(field, [1, 1]),
                    _element(field, [1, -1])) == {0: field.one}
    # e < e = e and e > e = -e cancel in the sum of the operations
    one = field.one
    p = field.characteristic
    alg = AlgebraSpec("tridend", field, 1, None,
                      {"left": {(0, 0): {0: one}},
                       "right": {(0, 0): {0: -one % p if p else -one}}})
    assert star(alg, {0: one}, {0: one}) == {}


def test_star_restricted_to_sum_types():
    e = {0: QQ.one}
    with pytest.raises(ValueError):
        star(product_fixture("trias", 1), e, e)
    with pytest.raises(ValueError):
        star(product_fixture("dias", 1), e, e)
    assert star(zero_fixture("tridend", 1), e, e) == {}


def test_valid_fixtures_have_no_violations():
    for t in TYPES:
        for dim in (1, 2):
            assert verify_axioms(product_fixture(t, dim)) == []
        assert verify_axioms(zero_fixture(t)) == []
        assert verify_axioms(suspension_fixture(t)) == []
        assert verify_axioms(product_fixture(t, 1, field=PrimeField(101))) == []


@pytest.mark.parametrize("type_tag", TYPES)
def test_single_axiom_mutations_break_exactly_one(type_tag):
    for index in range(1, len(AXIOMS[type_tag]) + 1):
        mutated = axiom_mutation(type_tag, index)
        violations = verify_axioms(mutated)
        assert violations, (type_tag, index)
        assert {v.index for v in violations} == {index}
        assert all(v.triple == (0, 1, 2) for v in violations)
        assert all(v.left != v.right for v in violations)


def test_trias_mutation_cites_label():
    violations = verify_axioms(axiom_mutation("trias", 7))
    assert violations[0].label == "(x ⊥ y) ⊣ z = x ⊥ (y ⊣ z)"


def test_wrong_operation_rejected():
    alg = product_fixture("didend", 1)
    e = {0: QQ.one}
    with pytest.raises(ValueError):
        multiply(alg, "middle", e, e)
    with pytest.raises(ValueError):
        AlgebraSpec("didend", QQ, 1, None, {"middle": {}})
    with pytest.raises(ValueError):
        AlgebraSpec("nosuch", QQ, 1)
    with pytest.raises(ValueError):
        multiply(alg, "left", e, {1: QQ.one})
    with pytest.raises(ValueError):
        multiply(alg, "left", {-1: QQ.one}, e)


def test_dimension_and_index_validation():
    with pytest.raises(ValueError):
        AlgebraSpec("trias", QQ, 0)
    with pytest.raises(ValueError):
        AlgebraSpec("trias", QQ, 1, basis=("a", "b"))
    with pytest.raises(ValueError):
        AlgebraSpec("trias", QQ, 1, None, {"left": {(0, 1): {0: QQ.one}}})


def test_ops_per_type():
    assert OPS["didend"] == ("left", "right")
    assert OPS["tridend"] == ("left", "middle", "right")
    assert GLYPHS["tridend"]["middle"] == "·"
