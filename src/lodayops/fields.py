"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python values and a field object supplies the arithmetic,
so the rest of the library stays field-generic.

* Over Q a scalar is an exact Python rational: an ``int`` when its value is
  an integer and a ``fractions.Fraction`` only when it is not.  Every scalar
  that enters the library (``from_fraction``, ``inv``, hence the parser and
  the random cochains) is normalised this way, and the arithmetic is the
  plain numeric tower: ``int`` op ``int`` stays ``int``, a mixed operation
  gives a ``Fraction``, and ``==``, ``hash``, truth value and ``str`` agree
  across the two types.  So integral structure constants and cochains are
  computed on ``int`` throughout, with no per-operation normalisation; a
  ``Fraction`` whose value happens to be integral is a valid scalar too.
* Over F_p a scalar is an ``int`` in ``range(p)``.

In both fields zero is the only scalar that tests false, which lets sparse
containers drop zeros with a plain truth test.
"""

from fractions import Fraction


def is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The field Q; scalars are ``int`` or, when not integral, ``Fraction``."""

    name = "Q"
    characteristic = 0
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.from_fraction(1 / Fraction(a))

    def from_fraction(self, q):
        q = Fraction(q)
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
        if not is_prime(p):
            raise ValueError("modulus not prime: %d" % p)
        if p <= 3:
            # signs +-1 collapse in characteristic 2 (and 3 is excluded with
            # it): the graded identities are only guaranteed away from both
            raise ValueError("characteristic %d not supported; use p > 3" % p)
        self.p = p
        self.name = "Fp:%d" % p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_fraction(self, q):
        q = Fraction(q)
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


def field_from_name(name):
    """Parse a field descriptor: ``Q`` or ``Fp:<prime>``."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        body = name[3:]
        if not body.isdigit():
            raise ValueError("malformed field descriptor: %r" % name)
        return PrimeField(int(body))
    raise ValueError("unknown field descriptor: %r" % name)


def parse_scalar(field, text):
    """Parse an integer or ``p/q`` fraction literal into a field scalar."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            q = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("malformed fraction: %r" % text) from exc
    else:
        try:
            q = Fraction(int(text))
        except ValueError as exc:
            raise ValueError("malformed coefficient: %r" % text) from exc
    return field.from_fraction(q)
