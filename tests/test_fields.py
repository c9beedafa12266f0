import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lodayops.algebra import multiply
from lodayops.fields import (QQ, PrimeField, field_from_name, is_prime,
                             parse_scalar)
from lodayops.linalg import column_echelon, independent_mod_image, rank_bareiss

from corpus import product_fixture


def test_rationals_basics():
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.inv(3) == 5
    for zero in (0, 7):
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            f.inv(zero)
    assert f.from_fraction(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError):
        f.from_fraction(Fraction(1, 7))


def test_collect_reduces_over_fp_and_drops_zeros():
    # the operators leave a sum over F_p out of range(p); collecting is
    # the one place where it is reduced
    sums = {0: 7, 1: 8, 2: -1, 3: 0, 4: 14 * 5 - 3 * 2}
    assert PrimeField(7).collect(sums) == {1: 1, 2: 6, 4: 1}
    values = {0: 0, 1: Fraction(1, 2) + Fraction(1, 2), 2: -3, 3: 2 - 2}
    collected = QQ.collect(values)
    assert collected == {1: 1, 2: -3} and collected is not values


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    # characteristics 2 and 3 degrade the graded signs and are refused
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(3)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59]


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division_below_10_5():
    assert all(is_prime(n) == _trial_division(n) for n in range(10 ** 5))


def test_is_prime_rejects_strong_pseudoprimes():
    # a Carmichael number, and strong pseudoprimes to the bases 2; 2..7;
    # and 2..23
    for n in (561, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(n), n


def test_large_prime_moduli():
    started = time.monotonic()
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert is_prime(2 ** 64 - 59)       # the largest prime below 2^64
    assert time.monotonic() - started < 1
    with pytest.raises(ValueError, match="not below 2\\^64"):
        field_from_name("Fp:%d" % (2 ** 64 + 13))


SRC = Path(__file__).resolve().parent.parent / "src"

# each entry that takes a degree, arity, bound, sample count, modulus or
# index: its call on one integer argument n, the judge's name for n, its
# least and greatest valid values (None: no greatest), and a float equal to
# a valid value
JUDGED = {
    "enumerate_params": ("enumerate_params('planar', n)", "n", 1, None, 2.0),
    "family_size": ("family_size('planar', n)", "n", 1, None, 2.0),
    "planar_trees": ("planar_trees(n)", "n", 1, None, 2.0),
    "binary_trees": ("binary_trees(n)", "n", 1, None, 2.0),
    "cochain_dim": ("cochain_dim(product_fixture('trias', 2), n)", "n", 1,
                    None, 2.0),
    "Cochain": ("Cochain(product_fixture('trias', 2), n, {0: 1})", "degree",
                1, None, 1.0),
    "random_cochain": ("random_cochain(product_fixture('trias', 1), n, "
                       "random.Random(0))", "n", 1, None, 2.0),
    "matrix_of_d": ("matrix_of_d(ctx(), n)", "n", 1, None, 1.0),
    "cohomology_dims": ("cohomology_dims(ctx(), n)", "max_degree", 1, None,
                        1.0),
    "check_g_algebra": ("check_g_algebra(ctx(), n)", "max_degree", 2, None,
                        3.0),
    "verify_system": ("verify_system('linear', n)", "max_total", 1, None,
                      2.0),
    "run_identity_suite": ("run_identity_suite(ctx(), random.Random(0), n)",
                           "samples", 0, None, 1.0),
    "PrimeField": ("PrimeField(n)", "p", 5, None, 7.0),
    # the indices: of an axiom, a leaf, a part and a profile's parts
    "axiom_label": ("axiom_label('dias', n)", "index", 1, 5, 5.0),
    "mutation_bump": ("mutation_bump('dias', n)", "index", 1, 5, 5.0),
    "axiom_mutation": ("axiom_mutation('dias', n)", "index", 1, 5, 1.0),
    "face": ("face(planar_trees(2)[0], n)", "i", 0, 2, 1.0),
    "r_part j": ("r_part('planar', (1, 1), n, U2)", "j", 1, 2, 1.0),
    "r_part parts": ("r_part('planar', (n, 1), 1, U2)", "part", 1, None,
                     1.0),
    "r_zero parts": ("r_zero('planar', (n, 1), U2)", "part", 1, None, 1.0),
    "r_index_tables": ("r_index_tables('planar', (n, 1))", "part", 1, None,
                       2.0),
}

# the entries that are an lru_cache themselves: once a call has filled the
# cache, a key equal to the int (2.0, True) finds its result there.
# enumerate_params is a typed cache, which keeps 2.0 and True apart from 2
# and 1; r_index_tables's key is a parts tuple, which typed does not look
# inside
CACHES = ("r_index_tables",)

# run in a fresh interpreter: the bad argument on cold caches, the same
# call with a valid int, then the bad argument on the caches it warmed;
# prints the two outcomes of the bad argument, and whether the second
# returned the very result of the valid call
JUDGE_SCRIPT = """
import functools, json, os, random, sys
sys.path[:0] = [sys.argv[1], os.path.join(sys.argv[1], os.pardir, "tests")]
from corpus import axiom_mutation, mutation_bump, product_fixture
from lodayops.algebra import axiom_label
from lodayops.cochains import Cochain, MultContext, cochain_dim, random_cochain
from lodayops.cohomology import check_g_algebra, cohomology_dims, matrix_of_d
from lodayops.fields import PrimeField
from lodayops.identities import run_identity_suite
from lodayops.params import enumerate_params, family_size
from lodayops.preoperadic import r_index_tables, r_part, r_zero, verify_system
from lodayops.trees import binary_trees, face, planar_trees

# built on first use: a context's pi already reads some families
ctx = functools.cache(lambda: MultContext(product_fixture("trias", 1)))
U2 = planar_trees(2)[0]
call, bad, good = sys.argv[2], json.loads(sys.argv[3]), int(sys.argv[4])

def outcome(n):
    try:
        result = eval(call)
    except ValueError as exc:
        return ["ValueError", str(exc)], None
    return ["returned", repr(result)[:80]], result

cold, _ = outcome(bad)
valid = eval(call, {**globals(), "n": good})
warm, result = outcome(bad)
print(json.dumps([cold, warm, result is valid]))
"""


def _judged_cases():
    for entry in sorted(JUDGED):
        high = JUDGED[entry][3]
        ends = ["low - 1"] if high is None else ["low - 1", "high + 1"]
        for bad in ["True", "float"] + ends:
            yield pytest.param(entry, bad, id="%s-%s" % (entry, bad))


@pytest.mark.parametrize("entry, bad", _judged_cases())
def test_integer_judge_refuses_on_cold_and_warm_caches(entry, bad):
    # a bool, a float equal to a valid value and an int below the least
    # valid one or above the greatest are refused before any cache is
    # read: a refusal on a cold cache does not turn into an answer on a
    # warm one
    call, name, low, high, equal_float = JUDGED[entry]
    bad = {"True": True, "float": equal_float, "low - 1": low - 1,
           "high + 1": (high or 0) + 1}[bad]
    good = max(int(bad), low) if high is None else min(max(int(bad), low),
                                                       high)
    done = subprocess.run(
        [sys.executable, "-c", JUDGE_SCRIPT, str(SRC), call,
         json.dumps(bad), str(good)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    cold, warm, same = json.loads(done.stdout)
    bound = ">= %d" % low if high is None else "in %d..%d" % (low, high)
    refusal = ["ValueError",
               "%s must be an int %s, got %r" % (name, bound, bad)]
    assert cold == refusal
    if entry in CACHES and bad == good:
        # the entry is the lru_cache itself: an equal key finds the result
        assert warm[0] == "returned" and same
    else:
        assert warm == refusal


def test_field_from_name():
    assert field_from_name("Q") is QQ
    assert field_from_name("Fp:101") == PrimeField(101)
    with pytest.raises(ValueError):
        field_from_name("Fp:abc")
    with pytest.raises(ValueError):
        field_from_name("R")


def test_parse_scalar():
    assert parse_scalar(QQ, "-3/4") == Fraction(-3, 4)
    assert parse_scalar(QQ, "5") == Fraction(5)
    f = PrimeField(11)
    assert parse_scalar(f, "1/2") == 6
    with pytest.raises(ValueError):
        parse_scalar(QQ, "1/2/3")
    with pytest.raises(ValueError):
        parse_scalar(QQ, "x")
    with pytest.raises(ValueError):
        parse_scalar(QQ, "1/0")


@pytest.mark.parametrize("text", ["1_0", "\u0662", "1/\u0662", "\uff11",
                                  "1/2_0"])
def test_parse_scalar_reads_ascii_digits_only(text):
    # int() reads "1_0" as 10 and the Arabic-Indic digit two as 2; every
    # malformed literal gets the one message
    with pytest.raises(ValueError, match="^malformed coefficient: %r$" % text):
        parse_scalar(QQ, text)


def test_field_equality_and_names():
    assert PrimeField(101) == PrimeField(101)
    assert PrimeField(101) != PrimeField(103)
    assert QQ.name == "Q"
    assert PrimeField(101).name == "Fp:101"
    assert QQ.to_text(Fraction(-1, 2)) == "-1/2"


def test_rational_scalars_are_int_when_integral():
    # an integral value is an int; only a non-integer is a Fraction
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_fraction(Fraction(6, 3))) is int
    assert QQ.from_fraction(Fraction(6, 3)) == 2
    assert type(QQ.from_fraction(-4)) is int
    assert type(parse_scalar(QQ, "5")) is int
    assert type(parse_scalar(QQ, "4/2")) is int
    assert type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(Fraction(1, 3)) == 3
    assert type(QQ.inv(-1)) is int
    assert type(parse_scalar(QQ, "-3/4")) is Fraction
    assert type(QQ.inv(2)) is Fraction


def test_rational_text_is_unchanged_by_the_scalar_type():
    for value, text in ((0, "0"), (5, "5"), (-7, "-7"),
                        (Fraction(-3, 4), "-3/4"), (Fraction(4, 2), "2")):
        assert QQ.to_text(value) == text
        assert QQ.to_text(QQ.from_fraction(value)) == text
        assert QQ.to_text(parse_scalar(QQ, text)) == text


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
def test_from_fraction_takes_an_int_without_a_fraction(field, monkeypatch):
    # a plain int gives the value and type of the Fraction route ...
    values = (-10 ** 30, -205, -101, -3, -1, 0, 1, 7, 100, 101, 10 ** 30)
    expected = [field.from_fraction(Fraction(q)) for q in values]
    assert [field.from_fraction(q) for q in values] == expected
    assert [type(field.from_fraction(q)) for q in values] == \
        [type(v) for v in expected] == [int] * len(values)
    # ... and builds no Fraction on the way
    from lodayops import fields

    def no_fraction(*args):
        raise AssertionError("a Fraction was built for an int")

    monkeypatch.setattr(fields, "Fraction", no_fraction)
    assert [field.from_fraction(q) for q in values] == expected


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("value", [0.1, 0.5, 1.0, "1/2", "3", None, True,
                                   False])
def test_from_fraction_refuses_what_is_not_an_int_or_a_fraction(field, value):
    # Fraction() would read a float or a string; there is no floating point;
    # a bool is not an int here, as for fields._at_least (True used to be 1)
    with pytest.raises(ValueError, match="^%s is not an int or a Fraction$"
                       % re.escape(repr(value))):
        field.from_fraction(value)


F5 = PrimeField(5)


def _doors():
    """Each public door that reads a caller's sparse vector, as a call on
    the vector ``vec`` over ``field`` (its value at key 0 is the value
    tested), and the name its refusal gives that key."""
    def alg(field):
        return product_fixture("trias", 2, field=field)

    def echelon(field):
        return column_echelon([{1: 1}], field)

    return {
        "multiply-x": (lambda f, vec: multiply(alg(f), "left", vec, {0: 1}),
                       "x key 0"),
        "multiply-y": (lambda f, vec: multiply(alg(f), "left", {0: 1}, vec),
                       "y key 0"),
        "column_echelon": (lambda f, vec: column_echelon([{1: 1}, vec], f)[1:],
                           "column 1 key 0"),
        "preimage": (lambda f, vec: echelon(f).preimage(vec), "vec key 0"),
        "independent_mod_image": (
            lambda f, vec: independent_mod_image(echelon(f), [{2: 1}, vec]),
            "vector 1 key 0"),
    }


DOORS = _doors()


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("door", DOORS)
def test_every_door_refuses_a_value_the_field_does_not_read(door, value,
                                                            field):
    # multiply returned {0: 0.5}; the echelon failed deep inside, naming
    # a value the caller never gave ("1.0 is not ...", "0.0 is not ...")
    call, key = DOORS[door]
    with pytest.raises(ValueError, match="^%s: %s is not an int or a "
                       "Fraction$" % (key, value)):
        call(field, {0: value, 1: 1})


# preimage read a half right before, as its row updates normalise each
# entry; only the 5/2 it kept as a nonzero residual was wrong
@pytest.mark.parametrize("door, value, read", [
    pytest.param(door, value, read, id="%s-%s" % (door, name))
    for door in DOORS
    for value, read, name in ((Fraction(1, 2), 3, "half-is-3"),
                              (Fraction(5, 2), 0, "five-halves-is-0"))
    if (door, read) != ("preimage", 3)])
def test_every_door_reads_a_fraction_as_its_residue_over_fp(door, value,
                                                            read):
    # over F_5 a half is 3 and 5/2 is 0; multiply kept the Fraction (a
    # nonzero dict for a zero element), and the echelon raised TypeError
    # or missed that 0 is an image
    call, _ = DOORS[door]
    assert call(F5, {0: value, 1: 1}) == call(F5, {0: read, 1: 1})
    assert call(F5, {0: value}) == call(F5, {0: read} if read else {})


def _zero_over_f5(door):
    """The acceptance examples: a door given Fraction(5, 2), which is 0 in
    F_5, where the echelon has one column {0: 1}."""
    five_halves = Fraction(5, 2)
    if door == "multiply":
        return multiply(product_fixture("trias", 2, field=F5), "left",
                        {0: five_halves}, {0: 1})
    if door == "preimage":
        return column_echelon([{0: 1}], F5).preimage({1: five_halves})
    return column_echelon([{0: five_halves}], F5).rank


@pytest.mark.parametrize("door, expected", [("multiply", {}),
                                            ("preimage", {}),
                                            ("column_echelon", 0)])
def test_a_vector_zero_over_fp_is_the_zero_vector(door, expected):
    # multiply gave {0: Fraction(5, 2)}, a nonzero dict for a zero element;
    # preimage gave None although 0 is an image; the echelon raised
    # TypeError from pow
    assert _zero_over_f5(door) == expected


@pytest.mark.parametrize("p, value, message", [
    (5, Fraction(5, 2), "Fraction(5, 2) is not an int"),
    (5, Fraction(1, 2), "Fraction(1, 2) is not an int"),
    (5, 0.5, "0.5 is not an int"),
    (5, True, "True is not an int"),
    (0, 0.5, "0.5 is not an int or a Fraction"),
    (0, True, "True is not an int or a Fraction"),
], ids=["F5-zero-fraction", "F5-fraction", "F5-float", "F5-bool", "Q-float",
        "Q-bool"])
def test_rank_bareiss_judges_every_value_by_type(p, value, message):
    # over F_5 a row {0: 5/2} was rank 1 although it is zero, a half beside
    # an int raised TypeError from gcd, a float over Q AttributeError, and
    # True was read as 1
    rows = [{0: 1, 1: 2}, {2: 1}, {1: 3, 2: value}]
    with pytest.raises(ValueError, match="^column 2: %s$" % re.escape(message)):
        rank_bareiss(rows, 3, p)
    with pytest.raises(ValueError, match="^column 0: %s$" % re.escape(message)):
        rank_bareiss([{0: value}], 1, p)
    assert rank_bareiss([{0: 1, 1: 2}, {2: 1}, {1: 3, 2: 5}], 3, p) == 3


@pytest.mark.parametrize("call, name", [
    (lambda: column_echelon([[1]], QQ), "column 0"),
    (lambda: column_echelon([{0: 1}], QQ).preimage([1]), "vec"),
    (lambda: independent_mod_image(column_echelon([{0: 1}], QQ), [[1]]),
     "vector 0"),
    (lambda: rank_bareiss([[1]], 1), "row"),
    (lambda: rank_bareiss([[0]], 1), "row"),
], ids=["column_echelon", "preimage", "independent_mod_image",
        "rank_bareiss-key-1", "rank_bareiss-key-0"])
def test_linalg_doors_refuse_a_vector_that_is_not_a_mapping(call, name):
    # each raised AttributeError, except rank_bareiss([[1]], 1), which read
    # the list's 1 as a column out of range
    with pytest.raises(ValueError,
                       match="^%s must be a mapping, not list$" % name):
        call()
