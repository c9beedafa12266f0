"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python values and Python's operators are the arithmetic.
A field object supplies the rest: the collect step that finishes each result
built with the operators (``collect``: over F_p reduce each value mod p, and
drop the zeros), the inverse, and the parsing and printing of scalars.  So
the library stays field-generic, and only this module decides when values
over F_p are reduced.

* Over Q a scalar is an exact Python rational: an ``int`` when its value is
  an integer and a ``fractions.Fraction`` only when it is not.  Every scalar
  that enters the library (``from_fraction``, ``inv``, hence the parser,
  ``AlgebraSpec`` and ``Cochain``) is normalised this way, and the
  arithmetic is the plain numeric tower: ``int`` op ``int`` stays ``int``,
  a mixed operation gives a ``Fraction``, and ``==``, ``hash``, truth value
  and ``str`` agree across the two types.  So integral structure constants
  and cochains are computed on ``int`` throughout, with no per-operation
  normalisation; a ``Fraction`` whose value is integral is a valid scalar.
* Over F_p a scalar is an ``int`` in ``range(p)``; a sum built with the
  operators may leave that range until it is collected.

In both fields zero is the only scalar that tests false, which lets sparse
containers drop zeros with a plain truth test: ``_scalars``, the one reader
of a caller's sparse vector, drops them after ``from_fraction``.
"""

from collections.abc import Mapping
from fractions import Fraction


# The first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every n < 2^64, the moduli accepted here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin; ValueError for n >= 2^64."""
    if n >= 1 << 64:
        raise ValueError("modulus %d is not below 2^64" % n)
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    r, s = n - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q; scalars are ``int`` or, when not integral, ``Fraction``."""

    name = "Q"
    characteristic = 0
    zero = 0
    one = 1

    def collect(self, values):
        """The entries of the mapping ``values`` that are not zero, as a
        new dict."""
        return {k: v for k, v in values.items() if v}

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.from_fraction(1 / Fraction(a))

    def from_fraction(self, q):
        if type(q) is int:
            return q
        if type(q) is not Fraction:
            raise ValueError("%r is not an int or a Fraction" % (q,))
        return q.numerator if q.denominator == 1 else q

    def to_text(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The field F_p with int scalars normalised to range(p)."""

    def __init__(self, p):
        # signs +-1 collapse in characteristic 2 (and 3 is excluded with
        # it): the graded identities are only guaranteed away from both
        if not is_prime(_at_least(p, 5, "p")):
            raise ValueError("modulus not prime: %d" % p)
        self.p = p
        self.name = "Fp:%d" % p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def collect(self, values):
        """The entries of the mapping ``values`` reduced mod p, without the
        ones that vanish, as a new dict."""
        p = self.p
        return {k: r for k, v in values.items() if (r := v % p)}

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_fraction(self, q):
        if type(q) is int:
            return q % self.p
        if type(q) is not Fraction:
            raise ValueError("%r is not an int or a Fraction" % (q,))
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError("denominator divisible by %d" % self.p)
        return (q.numerator % self.p) * self.inv(den) % self.p

    def to_text(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


QQ = Rationals()


def _at_least(value, low, name, high=None):
    """``value`` if it is an int, not a bool, at least ``low`` and at most
    ``high`` when given; anything else raises ValueError naming the
    parameter ``name``.  The one judge of the integers that size and index
    the library's objects, called where each enters, before any cache."""
    if type(value) is not int or value < low \
            or high is not None and value > high:
        bound = ">= %d" % low if high is None else "in %d..%d" % (low, high)
        raise ValueError("%s must be an int %s, got %r" % (name, bound, value))
    return value


def _all_at_least(values, low, name, high=None):
    """``values``, a collection such as the keys of a sparse vector, if
    ``_at_least`` accepts each of them; else it raises for the first it
    refuses.  The values that all pass cost one type, min and max scan."""
    if values and (set(map(type, values)) != {int} or min(values) < low
                   or high is not None and max(values) > high):
        for value in values:
            _at_least(value, low, name, high)
    return values


def _mapping(value, name):
    """``value`` if it is a mapping; else ValueError naming ``name``."""
    if not isinstance(value, Mapping):
        raise ValueError("%s must be a mapping, not %s"
                         % (name, type(value).__name__))
    return value


def _scalars(values, field, name):
    """``values``, a sparse mapping, as a new dict of field scalars without
    zeros; ValueError names ``name`` if it is not a mapping, and ``name``
    and the key of a value it refuses."""
    read, out = field.from_fraction, {}
    items = _mapping(values, name).items()
    try:
        for key, value in items:
            if value := read(value):
                out[key] = value
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("%s key %r: %s" % (name, key, exc)) from None
    return out


def _ascii_int(text):
    """The int that ``text`` spells as an optional sign and ASCII digits,
    the one integer grammar of outside input: algebra files, field names
    and command-line options.  int() also reads '_' separators, white space
    around the number and the digits of other scripts ('1_0', ' 2', '٢');
    anything that is not such an integer raises ValueError."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    raise ValueError("%r is not an ASCII number" % text)


def field_from_name(name):
    """Parse a field descriptor: ``Q`` or ``Fp:<prime>``."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        try:
            p = _ascii_int(name[3:])
        except ValueError:
            raise ValueError("malformed field descriptor: %r" % name) from None
        return PrimeField(p)
    raise ValueError("unknown field descriptor: %r" % name)


def parse_scalar(field, text):
    """Parse an integer or ``p/q`` fraction literal in ASCII digits into a
    field scalar; any other text raises ValueError."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        q = Fraction(_ascii_int(num), _ascii_int(den)) if slash \
            else _ascii_int(num)
    except (ValueError, ZeroDivisionError):
        raise ValueError("malformed coefficient: %r" % text) from None
    return field.from_fraction(q)
