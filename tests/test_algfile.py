import codecs
import re
from fractions import Fraction

import pytest

from lodayops.algebra import TYPES, AlgebraSpec, SpecError, verify_axioms
from lodayops.algfile import (AlgebraFileError, load_algebra, parse_algebra,
                              serialize_algebra)
from lodayops.fields import QQ, PrimeField

from corpus import FILES, product_fixture, suspension_fixture


def test_shipped_fixtures_parse(fixture_dir):
    names = ["didend_dim1", "dias_dim1", "trias_dim1", "trias_dim2",
             "tridend_dim1", "tricub_dim1", "zero_didend_dim1"]
    for name in names:
        alg = load_algebra(fixture_dir / ("%s.alg" % name))
        assert verify_axioms(alg) == []


def test_fixture_files_match_programmatic_corpus(fixture_dir):
    # every file under fixtures/, byte for byte, so that neither a file nor
    # its generator can drift
    found = {path.relative_to(fixture_dir).as_posix()
             for path in fixture_dir.rglob("*.alg")}
    assert found == set(FILES)
    for name, build in FILES.items():
        expected, path = build(), fixture_dir / name
        assert path.read_bytes() == serialize_algebra(expected).encode(
            "utf-8"), name
        assert load_algebra(path) == expected, name


def test_didend_fixture_contents(fixture_dir):
    alg = load_algebra(fixture_dir / "didend_dim1.alg")
    assert alg.dim == 1
    assert alg.tables["right"] == {}
    assert alg.tables["left"] == {(0, 0): {0: alg.field.one}}


def test_round_trip_all_types():
    for t in TYPES:
        for alg in (product_fixture(t, 1), product_fixture(t, 2),
                    suspension_fixture(t),
                    suspension_fixture(t, PrimeField(101))):
            text = serialize_algebra(alg)
            assert parse_algebra(text) == alg
            assert serialize_algebra(parse_algebra(text)) == text


def test_missing_block_is_zero_with_warning(capsys):
    alg = parse_algebra(
        "type = trias\nfield = Q\ndim = 1\nop left\n1 1 1 1\nop right\n1 1 1 1\n")
    assert alg.tables["middle"] == {}
    assert capsys.readouterr() == (
        "", "warning: operation 'middle' not given; taking it to be zero\n")


def test_quoted_values_accepted():
    alg = parse_algebra('type = "didend"\nfield = "Q"\ndim = 1\n')
    assert alg.type_tag == "didend"


def test_fraction_coefficients():
    alg = parse_algebra(
        "type = didend\nfield = Q\ndim = 1\nop left\n1 1 1 -2/3\n")
    from fractions import Fraction
    assert alg.tables["left"][(0, 0)][0] == Fraction(-2, 3)


def test_duplicate_entries_accumulate():
    alg = parse_algebra(
        "type = didend\nfield = Q\ndim = 1\nop left\n1 1 1 1\n1 1 1 -1\n")
    assert alg.tables["left"] == {}
    # over F_101 the summed entries pass p: 60 + 41 leaves no cell, and
    # 60 + 42 is stored as its residue 1
    head = "type = didend\nfield = Fp:101\ndim = 1\nop left\n"
    alg = parse_algebra(head + "1 1 1 60\n1 1 1 41\n")
    assert alg.tables["left"] == {}
    alg = parse_algebra(head + "1 1 1 60\n1 1 1 42\n")
    assert alg.tables["left"] == {(0, 0): {0: 1}}


def _expect_error(text, fragment):
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra(text)
    assert fragment in str(err.value)


def test_distinct_diagnostics():
    _expect_error("type = frobnicator\nfield = Q\ndim = 1\n", "unknown algebra type")
    _expect_error("type = didend\nfield = Fp:6\ndim = 1\n", "not prime")
    # digits that str.isdigit accepts but the grammar does not
    _expect_error("type = didend\nfield = Fp:\u00b2\ndim = 1\n",
                  "malformed field descriptor")
    _expect_error("type = didend\nfield = Q\ndim = \u00b2\n",
                  "line 3: malformed dim: '\u00b2' is not an ASCII number")
    _expect_error("type = didend\nfield = Q\ndim = 0\n",
                  "line 3: dim must be an int >= 1, got 0")
    _expect_error("type = didend\nfield = Q\ndim = 1\nop left\n1 1 2 1\n",
                  "line 5: left table, cell (0, 0) -> 1: 0-based basis index "
                  "must be an int in 0..0, got 1")
    _expect_error("type = didend\nfield = Q\ndim = 1\nop left\n1 1 1 1/0\n",
                  "line 5: malformed coefficient: '1/0'")
    _expect_error("type = didend\nfield = Q\ndim = 1\nop left\n1 1 1 x\n",
                  "line 5: malformed coefficient: 'x'")
    _expect_error("type = didend\nfield = Q\ndim = 1\nop middle\n",
                  "does not belong")
    _expect_error("type = didend\nfield = Q\n", "missing key")
    _expect_error("type = didend\nfield = Q\ndim = 1\n1 1 1 1\n",
                  "outside an operation block")
    _expect_error("type = didend\nfield = Q\ndim = 1\nbasis = a b\n",
                  "basis lists")
    _expect_error("bogus = 3\n", "unknown key")
    # a syntax fault is reported before the rules of AlgebraSpec are read
    _expect_error("type = frob\nfield = Q\ndim = 0\nop left\n1 1 1 x\n",
                  "line 5: malformed coefficient: 'x'")


# one input per rule of a valid algebra: the AlgebraSpec arguments, the
# SpecError.where that names the refused one, and a file breaking the same
# rule with the line that gave the refused value
HEAD = "type = trias\nfield = Q\ndim = 1\n"
RULES = [
    (("frob", QQ, 1), "type", "type = frob\nfield = Q\ndim = 1\n", 1),
    (("trias", QQ, 0), "dim", "type = trias\nfield = Q\ndim = 0\n", 3),
    (("trias", QQ, 1, ("a", "b")), "basis", HEAD + "basis = a b\n", 4),
    (("trias", QQ, 2, ("e", "e")), "basis",
     "type = trias\nfield = Q\ndim = 2\nbasis = e e\n", 4),
    # the outer quotes are the value's, the inner ones the names'
    (("trias", QQ, 2, ('a"', '"b')), "basis",
     'type = trias\nfield = Q\ndim = 2\nbasis = "a" "b"\n', 4),
    (("dias", QQ, 1, None, {"middle": {}}), ("middle",),
     "type = dias\nfield = Q\ndim = 1\nop left\n1 1 1 1\nop middle\n", 6),
    (("trias", QQ, 1, None, {"left": {(1, 0): {0: 1}}}), ("left", 1, 0),
     HEAD + "op left\n1 1 1 1\n2 1 1 1\n", 6),
    (("trias", QQ, 1, None, {"right": {(0, 1): {0: 1}}}), ("right", 0, 1),
     HEAD + "op right\n1 2 1 1\n", 5),
    (("trias", QQ, 1, None, {"left": {(0, 0): {5: 0}}}), ("left", 0, 0, 5),
     HEAD + "op left\n1 1 6 0\n", 5),
]


@pytest.mark.parametrize("args, where, text, line_no", RULES, ids=[
    "type", "dim", "basis-count", "basis-repeat", "basis-quote",
    "foreign-block", "i-range", "j-range", "k-range-zero"])
def test_library_and_file_refuse_by_one_rule(args, where, text, line_no,
                                             capsys):
    with pytest.raises(SpecError) as spec_err:
        AlgebraSpec(*args)
    assert spec_err.value.where == where
    with pytest.raises(AlgebraFileError) as file_err:
        parse_algebra(text)
    assert file_err.value.line_no == line_no
    assert str(file_err.value) == "line %d: %s" % (line_no, spec_err.value)
    # the missing-block warnings come after a valid algebra is built
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("cell, row, where, bad", [
    ((0.5, 0), {1: 1}, ("left", 0.5, 0), 0.5),
    ((0, True), {1: 1}, ("left", 0, True), True),
    ((0, 0), {1.0: 1}, ("left", 0, 0, 1.0), 1.0)])
def test_index_that_is_not_an_int_is_refused(cell, row, where, bad):
    # an index no algebra file can spell: (0.5, 0) used to be stored, so
    # that parse_algebra(serialize_algebra(a)) != a
    with pytest.raises(SpecError, match=r"0-based basis index must be an int "
                                        r"in 0\.\.1, got %r$" % bad) as err:
        AlgebraSpec("dias", QQ, 2, None, {"left": {cell: row}})
    assert err.value.where == where


def test_op_header_takes_any_whitespace():
    # entry lines split on any whitespace, and so does the block header;
    # the second block shows a tab-spaced header is not read as an entry
    head = "type = didend\nfield = Q\ndim = 1\n"
    body = "%s\n1 1 1 1\n%s\n1 1 1 -1/2\n"
    expected = parse_algebra(head + body % ("op left", "op right"))
    assert expected.tables["right"] == {(0, 0): {0: Fraction(-1, 2)}}
    for sep in ("\t", "   ", " \t "):
        text = head + body % ("op%sleft" % sep, "op%sright" % sep)
        assert parse_algebra(text) == expected, repr(sep)
    for bare in ("op", "op\t", "op  "):
        _expect_error(head + bare + "\n", "operation block without a name")


def test_error_carries_line_number():
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra("type = didend\nfield = Q\ndim = 1\nop left\nbroken\n")
    assert err.value.line_no == 5


def test_repeated_basis_name_names_its_line():
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra("type = trias\nfield = Q\ndim = 2\n\nbasis = e e\n")
    assert str(err.value) == "line 5: basis repeats a name"


def test_modulus_past_2_64_names_its_line():
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra("type = trias\nfield = Fp:%d\ndim = 1\n"
                      % (2 ** 64 + 13))
    assert err.value.line_no == 2
    assert "not below 2^64" in str(err.value)


def test_foreign_operation_block_names_its_line():
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra("type = dias\nfield = Q\ndim = 1\nop left\n1 1 1 1\n"
                      "\nop middle\n")
    assert err.value.line_no == 7
    assert str(err.value) == \
        "line 7: operation 'middle' does not belong to type dias"


def test_file_not_utf8_names_its_line(tmp_path):
    # a Latin-1 comment on the first line; the CLI test puts the bad bytes
    # on a later line
    path = tmp_path / "latin1.alg"
    path.write_bytes("# caf\u00e9\ntype = didend\nfield = Q\ndim = 1\n"
                     .encode("latin-1"))
    with pytest.raises(AlgebraFileError) as err:
        load_algebra(path)
    assert err.value.line_no == 1
    assert "not valid UTF-8" in str(err.value)


def test_leading_bom_is_dropped(tmp_path, fixture_dir):
    original = fixture_dir / "trias_dim1.alg"
    path = tmp_path / "bom.alg"
    path.write_bytes(codecs.BOM_UTF8 + original.read_bytes())
    assert load_algebra(path) == load_algebra(original)


def test_bom_file_not_utf8_names_its_line(tmp_path):
    # the byte order mark is not counted into the bad byte's line
    path = tmp_path / "bom_latin1.alg"
    path.write_bytes(codecs.BOM_UTF8 + "type = didend\nfield = Q\n# caf\u00e9\n"
                     "dim = 1\n".encode("latin-1"))
    with pytest.raises(AlgebraFileError) as err:
        load_algebra(path)
    assert err.value.line_no == 3
    assert str(err.value) == "line 3: not valid UTF-8"


def test_prime_field_file():
    alg = parse_algebra(
        "type = didend\nfield = Fp:101\ndim = 1\nop left\n1 1 1 1/2\n")
    assert alg.tables["left"][(0, 0)][0] == 51   # 1/2 mod 101


def test_readme_example_is_the_trias_dim2_fixture(fixture_dir):
    # the first fenced block under "## Algebra files" is a complete file
    text = (fixture_dir.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Algebra files\n", 1)[1]
    example = re.search(r"^```[^\n]*\n(.*?)^```", section,
                        re.DOTALL | re.MULTILINE).group(1)
    assert parse_algebra(example) == \
        load_algebra(fixture_dir / "trias_dim2.alg")


@pytest.mark.parametrize("entry, message", [
    # an Arabic-Indic one
    ("١ 1 1 1", "malformed basis index: '١' is not an ASCII number"),
    ("1 1 1 1_0", "malformed coefficient: '1_0'"),
    ("1 1 1 1/٢", "malformed coefficient: '1/٢'"),
    ("1 1 1 １", "malformed coefficient: '１'"),          # a fullwidth one
    ("1 1_1 1 1", "malformed basis index: '1_1' is not an ASCII number"),
], ids=["arabic-index", "underscore-coeff", "arabic-denominator",
        "fullwidth-coeff", "underscore-index"])
def test_entry_tokens_must_be_ascii_without_underscores(entry, message):
    # each token kind has one message, whatever int() would read
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra("type = didend\nfield = Q\ndim = 1\nop left\n%s\n"
                      % entry)
    assert err.value.line_no == 5
    assert str(err.value) == "line 5: " + message


@pytest.mark.parametrize("coeff, value", [
    ("1", 1), ("-3", -3), ("1/2", Fraction(1, 2)), ("-1/2", Fraction(-1, 2))])
def test_ascii_coefficients_still_parse(coeff, value):
    alg = parse_algebra("type = didend\nfield = Q\ndim = 1\nop left\n"
                        "1 1 1 %s\n" % coeff)
    assert alg.tables["left"] == {(0, 0): {0: value}}

