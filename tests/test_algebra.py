from fractions import Fraction
from itertools import product

import pytest

from lodayops.algebra import (AXIOMS, GLYPHS, OPS, PARAM_KIND, PI_OPS, TYPES,
                              AlgebraSpec, SpecError, axiom_label, multiply,
                              verify_axioms)
from lodayops.algfile import parse_algebra
from lodayops.cochains import canonical_multiplication
from lodayops.fields import QQ, PrimeField
from lodayops.params import family_size

from corpus import (axiom_mutation, product_fixture, suspension_fixture,
                    zero_fixture)


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


def test_multiply_refuses_keys_that_are_not_basis_indices():
    # {0.0: 1} and {True: 1} used to be read as e_1 and e_2
    alg = product_fixture("dias", 2)
    for x, y, bad in (({0.0: 1}, {True: 1}, 0.0), ({0: 1}, {True: 1}, True),
                      ({2: 1}, {0: 1}, 2), ({0: 1}, {-1: 1}, -1)):
        with pytest.raises(ValueError, match=r"^basis index must be an int "
                           r"in 0\.\.1, got %r$" % bad):
            multiply(alg, "left", x, y)


def test_fixture_products():
    alg = product_fixture("didend", 1)
    e = {0: alg.field.one}
    assert multiply(alg, "left", e, e) == e
    assert multiply(alg, "right", e, e) == {}
    # pi sums both operations at both linear parameters: e at each
    assert canonical_multiplication(alg).cells == {0: 1, 1: 1}


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_cancelling_product_stores_no_zero(field):
    # in K[t]/(t^2), (e + t)(e - t) = e: the two t-terms cancel
    alg = product_fixture("trias", 2, field=field)
    assert multiply(alg, "left", _element(field, [1, 1]),
                    _element(field, [1, -1])) == {0: field.one}
    # e < e = e and e > e = -e cancel in pi, the sum of the operations
    one = field.one
    p = field.characteristic
    alg = AlgebraSpec("tridend", field, 1, None,
                      {"left": {(0, 0): {0: one}},
                       "right": {(0, 0): {0: -one % p if p else -one}}})
    assert canonical_multiplication(alg).is_zero()


@pytest.mark.parametrize("type_tag", TYPES)
def test_pi_table_has_one_entry_per_weight_2_parameter(type_tag):
    entries = PI_OPS[type_tag]
    assert len(entries) == family_size(PARAM_KIND[type_tag], 2)
    for ops in entries:
        assert type(ops) is tuple and ops
        assert len(set(ops)) == len(ops)
        assert set(ops) <= set(OPS[type_tag])


def _pi_oracle(alg):
    """pi's cells from ``multiply`` on every pair of basis vectors: at the
    u-th weight-2 parameter, the sum of the products PI_OPS lists there."""
    d = alg.dim
    one = alg.field.one
    cells = {}
    for u_idx, ops in enumerate(PI_OPS[alg.type_tag]):
        for i, j in product(range(d), repeat=2):
            for op in ops:
                for k, c in multiply(alg, op, {i: one}, {j: one}).items():
                    key = ((u_idx * d + i) * d + j) * d + k
                    cells[key] = cells.get(key, 0) + c
    return alg.field.collect(cells)


def _corpus_over(fixture_dir, type_tag, field):
    """The shipped fixture files of one type, those of ``corpus/`` too,
    read over ``field``."""
    out = []
    for path in sorted(fixture_dir.glob("*.alg")) + sorted(
            fixture_dir.glob("corpus/*.alg")):
        text = path.read_text(encoding="utf-8")
        alg = parse_algebra(text.replace("field = Q", "field = " + field.name))
        if alg.type_tag == type_tag:
            out.append(alg)
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
@pytest.mark.parametrize("type_tag", TYPES)
def test_pi_matches_the_multiply_oracle(type_tag, field, fixture_dir):
    algebras = [product_fixture(type_tag, dim, field) for dim in (1, 2)]
    algebras += [zero_fixture(type_tag, 2, field),
                 suspension_fixture(type_tag, field)]
    algebras += [axiom_mutation(type_tag, index, field)
                 for index in range(1, len(AXIOMS[type_tag]) + 1)]
    algebras += _corpus_over(fixture_dir, type_tag, field)
    assert all(alg.field == field for alg in algebras)
    for alg in algebras:
        assert canonical_multiplication(alg).cells == _pi_oracle(alg), alg


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


def _dense_violations(alg):
    """verify_axioms' list, from every basis triple with no skipping."""
    f = alg.field
    out = []
    for a_idx, (lhs_terms, rhs_terms) in enumerate(AXIOMS[alg.type_tag], 1):
        for i, j, k in product(range(alg.dim), repeat=3):
            x, y, z = {i: f.one}, {j: f.one}, {k: f.one}
            lhs, rhs = {}, {}
            for a, b in lhs_terms:
                for t, c in multiply(alg, b, multiply(alg, a, x, y), z).items():
                    lhs[t] = lhs.get(t, 0) + c
            for c_op, d_op in rhs_terms:
                for t, c in multiply(alg, c_op, x,
                                     multiply(alg, d_op, y, z)).items():
                    rhs[t] = rhs.get(t, 0) + c
            lhs, rhs = f.collect(lhs), f.collect(rhs)
            if lhs != rhs:
                out.append((a_idx, (i, j, k),
                            tuple(lhs.get(t, 0) for t in range(alg.dim)),
                            tuple(rhs.get(t, 0) for t in range(alg.dim))))
    return out


@pytest.mark.parametrize("type_tag", TYPES)
def test_sparse_axiom_check_matches_every_triple(type_tag, rng):
    algebras = [axiom_mutation(type_tag, 1), product_fixture(type_tag, 2)]
    for field in (QQ, PrimeField(7)):
        for _ in range(4):
            # a few random constants at dim 4, almost never an algebra
            tables = {op: {} for op in OPS[type_tag]}
            for _ in range(3):
                op = rng.choice(OPS[type_tag])
                i, j, k = (rng.randrange(4) for _ in range(3))
                tables[op][(i, j)] = {k: field.from_fraction(
                    rng.choice((-2, -1, 1, 3)))}
            algebras.append(AlgebraSpec(type_tag, field, 4, None, tables))
    for alg in algebras:
        found = [(v.index, v.triple, v.left, v.right)
                 for v in verify_axioms(alg)]
        assert found == _dense_violations(alg), alg


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


@pytest.mark.parametrize("field", ["Q", None, 101])
def test_field_that_is_not_a_field_refused(field):
    # a field name or a modulus is not a field object: refused up front, not
    # later by an AttributeError of repr or of a constant's reading
    with pytest.raises(SpecError, match="^field %r is not a Rationals or a "
                                        "PrimeField$" % (field,)) as err:
        AlgebraSpec("trias", field, 1)
    assert err.value.where == "field"


def test_dimension_and_index_validation():
    for dim in (0, True, 1.0):
        with pytest.raises(SpecError, match="^dim must be an int >= 1, "
                                            "got %r$" % dim):
            AlgebraSpec("trias", QQ, dim)
    with pytest.raises(ValueError):
        AlgebraSpec("trias", QQ, 1, basis=("a", "b"))
    with pytest.raises(ValueError, match="repeats a name"):
        AlgebraSpec("trias", QQ, 2, basis=("e", "e"))
    with pytest.raises(ValueError):
        AlgebraSpec("trias", QQ, 1, None, {"left": {(0, 1): {0: QQ.one}}})
    with pytest.raises(ValueError,
                       match=r"^left table, cell \(0, 0\) -> 1: 0-based basis "
                             r"index must be an int in 0\.\.0, got 1$"):
        AlgebraSpec("trias", QQ, 1, None, {"left": {(0, 0): {1: QQ.one}}})
    # an output index is checked before its zero coefficient is dropped,
    # as an algebra file's "1 1 6 0" is refused
    with pytest.raises(SpecError,
                       match=r"^left table, cell \(0, 0\) -> 5: 0-based basis "
                             r"index must be an int in 0\.\.0, got 5$"):
        AlgebraSpec("trias", QQ, 1, None, {"left": {(0, 0): {5: 0}}})
    with pytest.raises(ValueError, match="dimensions 1 and 2 only"):
        product_fixture("trias", 3)
    for index in (0, len(AXIOMS["trias"]) + 1):
        with pytest.raises(ValueError, match=r"^index must be an int in "
                                             r"1\.\.11, got %d$" % index):
            axiom_mutation("trias", index)


@pytest.mark.parametrize("basis", [("a b",), ("",), ('"a', 'b"'), ("'a",),
                                   ("a\tb",), (1,)])
def test_basis_names_an_algebra_file_reads_back(basis):
    # serialize_algebra writes the names on one line split on white space,
    # and the parser strips a quoted value's quotes
    with pytest.raises(SpecError, match="is empty or holds white space or "
                                        "a quote$") as err:
        AlgebraSpec("trias", QQ, len(basis), basis=basis)
    assert err.value.where == "basis"


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
@pytest.mark.parametrize("constant", [0.5, 1.0, "1", None, True])
def test_inexact_structure_constant_refused(field, constant):
    tables = {op: {(0, 0): {0: constant}} for op in OPS["trias"]}
    with pytest.raises(ValueError,
                       match=r"^left table, cell \(0, 0\) -> 0: .* is not an"):
        AlgebraSpec("trias", field, 1, tables=tables)


def test_constant_outside_the_prime_field_refused():
    # 1/7 has no value in F_7: refused, naming its cell, like an inexact
    # constant, and not with the field's ZeroDivisionError
    tables = {op: {(0, 0): {0: Fraction(1, 7)}} for op in OPS["trias"]}
    with pytest.raises(ValueError, match=r"^left table, cell \(0, 0\) -> 0: "
                                         r"denominator divisible by 7$"):
        AlgebraSpec("trias", PrimeField(7), 1, tables=tables)


@pytest.mark.parametrize("field, half, stored", [
    (QQ, Fraction(1, 2), Fraction(1, 2)),
    (QQ, Fraction(4, 2), 2),
    (PrimeField(7), Fraction(1, 2), 4),
    (PrimeField(7), 9, 2),
])
def test_structure_constants_stored_in_the_field(field, half, stored):
    tables = {op: {(0, 0): {0: half}, (0, 1): {1: Fraction(7, 3)}}
              for op in OPS["trias"]}
    alg = AlgebraSpec("trias", field, 2, tables=tables)
    for op in OPS["trias"]:
        (value,), = [alg.tables[op][(0, 0)].values()]
        assert value == stored and type(value) is type(stored)
        # 7/3 is zero in F_7, and the cell that holds only it is dropped
        assert ((0, 1) in alg.tables[op]) == (field == QQ)


@pytest.mark.parametrize("table, where, message", [
    ({0: {0: 1}}, ("left",),
     "left table: cell key must be a pair (i, j), got 0"),
    ({(0, 0, 0): {0: 1}}, ("left",),
     "left table: cell key must be a pair (i, j), got (0, 0, 0)"),
    ({(0,): {0: 1}}, ("left",),
     "left table: cell key must be a pair (i, j), got (0,)"),
    ({(0, 0): 5}, ("left", 0, 0),
     "left table, cell (0, 0): row must be a mapping, not int"),
    ([((0, 0), {0: 1})], ("left",),
     "left table: the table must be a mapping, not list"),
    (None, ("left",), "left table: the table must be a mapping, not NoneType"),
], ids=["int-key", "triple-key", "single-key", "int-row", "list-table",
        "none-table"])
def test_table_of_the_wrong_shape_refused(table, where, message):
    # each used to raise a bare TypeError, ValueError (unpack) or
    # AttributeError that named no argument
    with pytest.raises(SpecError) as err:
        AlgebraSpec("trias", QQ, 1, None, {"left": table})
    assert err.value.where == where and str(err.value) == message


@pytest.mark.parametrize("operand", [[0], (0,), None],
                         ids=["list", "tuple", "None"])
def test_multiply_refuses_an_operand_that_is_not_a_mapping(operand):
    # each used to raise AttributeError
    alg = product_fixture("trias", 1)
    for x, y, name in ((operand, {0: 1}, "x"), ({0: 1}, operand, "y")):
        with pytest.raises(ValueError, match="^%s must be a mapping, not %s$"
                           % (name, type(operand).__name__)):
            multiply(alg, "left", x, y)


def test_ops_per_type():
    # TYPES and OPS are read from GLYPHS; these are the literals they were
    assert TYPES == ("dias", "didend", "trias", "tridend", "tricub")
    assert OPS == {
        "dias": ("left", "right"),
        "didend": ("left", "right"),
        "trias": ("left", "right", "middle"),
        "tridend": ("left", "middle", "right"),
        "tricub": ("left", "right", "middle"),
    }
    assert GLYPHS["tridend"]["middle"] == "·"


@pytest.mark.parametrize("kwargs, where, message", [
    ({"tables": ["left"]}, "tables", "tables must be a mapping, not list"),
    ({"tables": 0}, "tables", "tables must be a mapping, not int"),
    ({"tables": ()}, "tables", "tables must be a mapping, not tuple"),
    ({"tables": []}, "tables", "tables must be a mapping, not list"),
    ({"tables": "left"}, "tables", "tables must be a mapping, not str"),
    ({"basis": 5}, "basis", "basis must be a list or a tuple, not int"),
    ({"basis": "et"}, "basis", "basis must be a list or a tuple, not str"),
    ({"basis": {"e": 0, "t": 1}}, "basis",
     "basis must be a list or a tuple, not dict"),
    ({"basis": iter(["e", "t"])}, "basis",
     "basis must be a list or a tuple, not list_iterator"),
], ids=["tables-list", "tables-0", "tables-empty-tuple", "tables-empty-list",
        "tables-str", "basis-int", "basis-str", "basis-dict", "basis-iter"])
def test_tables_and_basis_of_another_form_refused(kwargs, where, message):
    # tables=['left'] raised AttributeError and basis=5 TypeError; 0, () and
    # [] were read as no tables, 'left' as the operations 'l', 'e', 'f', 't';
    # 'et' was split into the names ('e', 't'), and a dict or an iterator
    # gave its items as names
    with pytest.raises(SpecError) as err:
        AlgebraSpec("trias", QQ, 2, **kwargs)
    assert err.value.where == where and str(err.value) == message


@pytest.mark.parametrize("basis", [["e", "t"], ("e", "t")],
                         ids=["list", "tuple"])
def test_basis_list_or_tuple_accepted(basis):
    alg = AlgebraSpec("trias", QQ, 2, basis=basis, tables={})
    assert alg.basis == ("e", "t")
    assert alg == AlgebraSpec("trias", QQ, 2, basis=("e", "t"))
