"""Exact sparse linear algebra over Q and F_p.

Two elimination engines are implemented independently on purpose: agreement
of their ranks is part of the verification protocol, so they share no
elimination code:

* ``rank_bareiss``: fraction-free elimination on sparse integer rows, for
  the rank over Q or over F_p, in an order it picks itself: rows shortest
  first, columns by ascending count.  A row is combined with the stored
  row of its leading column by integer multiples that cancel that entry.
  Over Q rational rows are scaled to integers first and each combined row
  is divided by the gcd of its entries (the primitive-row variant of
  Bareiss's method); over F_p each entry of a combined row is reduced mod
  p as it is formed instead.  No field object, fraction or inverse enters.
* ``column_echelon``: a triangular column echelon over a field object,
  and the one routine that makes a pivot, all by one rule.  Each column in
  turn is reduced against the earlier pivots in the order they were made,
  and what remains becomes a pivot on its row with the fewest nonzeros in
  the matrix (a Markowitz-style choice); no pivot is changed once made.  Each
  image carries its sparse preimage, so the one reduction answers the
  rank, the kernel and membership in the image with a witness; the
  echelon of the residuals gives independence modulo the image.

A sparse vector is a mapping ``index -> value``.  An echelon reads each
vector given to it once, through the one reader ``fields._scalars``, stores
its vectors as dicts without zeros, like the cochains and the matrix
columns, and never changes them after construction.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm

from .fields import _all_at_least, _mapping, _scalars


def _integer_row(row, order):
    """The rational row renumbered by ``order`` as a primitive integer row."""
    den = lcm(*(v.denominator for v in row.values()))
    return _primitive({order[c]: v.numerator * (den // v.denominator)
                       for c, v in row.items() if v})


def _primitive(row):
    content = gcd(*row.values())
    if content > 1:
        return {c: v // content for c, v in row.items()}
    return row


def _mod_row(row, p, order):
    """The integer row renumbered by ``order``, mod p, without zeros."""
    return {order[c]: r for c, v in row.items() if (r := v % p)}


def rank_bareiss(rows, ncols, p=0):
    """Rank of a matrix given by its sparse rows, over Q (``p == 0``) or
    over F_p (``p`` prime).

    Each row is a mapping from columns in ``range(ncols)`` to values, int
    or Fraction over Q and int over F_p (another value, a bool too, or a
    row that is not a mapping raises ValueError).
    Rows are inserted one at a time, shortest first, with the columns
    numbered by ascending count: while the row's leading column, its
    rarest, has a stored row, the two are combined to cancel that entry;
    otherwise the row is stored under it.  Neither order changes the rank.
    """
    rows = sorted(rows, key=len)
    # every key of every row is judged: a Counter would merge True into 1
    counts = Counter(_all_at_least(list(chain.from_iterable(
        _mapping(row, "row") for row in rows)), 0, "column", ncols - 1))
    kinds = {int} if p else {int, Fraction}     # the values, by type alone
    if not kinds.issuperset(map(type, chain(*(r.values() for r in rows)))):
        c, v = next((c, v) for r in rows for c, v in r.items()
                    if type(v) not in kinds)
        raise ValueError("column %r: %r is not an int%s"
                         % (c, v, "" if p else " or a Fraction"))
    order = {c: i for i, c in enumerate(sorted(counts, key=counts.get))}
    pivots = {}
    for row in rows:
        row = _mod_row(row, p, order) if p else _integer_row(row, order)
        while row:
            lead = min(row)
            stored = pivots.get(lead)
            if stored is None:
                pivots[lead] = row
                break
            g = gcd(row[lead], stored[lead])
            a, b = stored[lead] // g, row[lead] // g
            rget, sget = row.get, stored.get
            columns = row.keys() | stored.keys()
            if p:
                row = {c: r for c in columns
                       if (r := (a * rget(c, 0) - b * sget(c, 0)) % p)}
            else:
                row = _primitive({c: v for c in columns
                                  if (v := a * rget(c, 0) - b * sget(c, 0))})
    return len(pivots)


class Pivot(namedtuple("Pivot", "column row image preimage")):
    """One pivot of a column echelon: M preimage = image, where image is 1
    at ``row`` and 0 at the row of every earlier pivot."""

    __slots__ = ()


def _add_multiple(target, coeff, vec, field):
    """target += coeff * vec, in place, dropping entries that cancel.  Each
    updated entry is normalised by ``field.from_fraction``: over Q an
    integral sum is stored as an int, over F_p as its residue mod p."""
    norm = field.from_fraction
    get = target.get
    for i, v in vec.items():
        new = norm(get(i, 0) + coeff * v)
        if new:
            target[i] = new
        else:
            target.pop(i, None)


def _reduce(field, pivots, by_row, vec, pre=None):
    """vec, a dict that ``_scalars`` made, less the multiple of each pivot's
    image that clears its row, in place.  The pivots come in creation order
    from a heap of those whose rows are present; as each is zero on the
    rows of the earlier ones, it can only bring in rows of later ones.  The
    same multiples of the preimages come off ``pre``, in place, if given."""
    heap = [by_row[r] for r in vec if r in by_row]
    heapify(heap)
    while heap:
        pivot = pivots[heappop(heap)]
        coeff = vec.get(pivot.row)
        if coeff is None:       # queued twice, already cleared
            continue
        for r in pivot.image:
            if r not in vec and r in by_row:
                heappush(heap, by_row[r])
        neg = -coeff
        _add_multiple(vec, neg, pivot.image, field)
        if pre is not None:
            _add_multiple(pre, neg, pivot.preimage, field)
    return vec


class ColumnEchelon(namedtuple("ColumnEchelon", "field basis kernel by_row")):
    """Triangular column echelon of a matrix M over ``field``.

    ``basis`` holds one ``Pivot`` per pivot column, in column order: the
    greedy set of columns independent of the columns before them.  A
    pivot's image is zero on the rows of the earlier pivots only.
    ``kernel`` holds one vector per free column f, in column order: the
    unique kernel vector that is 1 at f and otherwise supported on pivot
    columns before f.  ``by_row`` maps each pivot row to its index in basis.
    """

    __slots__ = ()

    @property
    def rank(self):
        return len(self.basis)

    def preimage(self, vec):
        """Some x (a dict) with M x = vec, or None if vec is not an image:
        the negated sum of the preimages that reducing vec subtracts."""
        x = {}
        residual = _reduce(self.field, self.basis, self.by_row,
                           _scalars(vec, self.field, "vec"), x)
        return None if residual else self.field.collect(
            {c: -v for c, v in x.items()})


def column_echelon(columns, field):
    """Column echelon of the matrix given by a sequence of sparse columns.

    Column j is read and reduced against the pivots before it.  If nothing
    remains, its preimage is the kernel vector of j; otherwise the rest
    becomes a pivot on its row with the fewest nonzeros in the matrix, the
    lowest such row on ties.  Earlier pivots are never changed.
    """
    columns = [_scalars(column, field, "column %d" % j)
               for j, column in enumerate(columns)]
    counts = Counter(chain.from_iterable(columns))
    basis, kernel, by_row = [], [], {}
    for j, column in enumerate(columns):
        pre = {j: field.one}
        image = _reduce(field, basis, by_row, column, pre)
        if image:
            row = min(image, key=lambda r: (counts[r], r))
            inv = field.inv(image[row])
            scaled = [{}, {}]
            for out, vec in zip(scaled, (image, pre)):
                _add_multiple(out, inv, vec, field)
            by_row[row] = len(basis)
            basis.append(Pivot(j, row, *scaled))
        else:
            kernel.append(pre)
    return ColumnEchelon(field, tuple(basis), tuple(kernel), by_row)


def independent_mod_image(echelon, vectors):
    """Indices of the vectors outside the span of the echelon's image and
    of the vectors before them (the greedy choice, in order): the pivot
    columns of the echelon of their residuals.  A residual is zero on
    every pivot row and a nonzero image vector is not, so the residuals'
    span meets the image only in 0."""
    field = echelon.field
    residuals = [_reduce(field, echelon.basis, echelon.by_row,
                         _scalars(vec, field, "vector %d" % i))
                 for i, vec in enumerate(vectors)]
    return [pivot.column for pivot in column_echelon(residuals, field).basis]
