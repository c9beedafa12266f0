"""Exact sparse linear algebra over Q and F_p.

Two elimination engines are implemented independently on purpose: agreement
of their ranks is part of the verification protocol, so they share no
elimination code:

* ``rank_bareiss``: fraction-free elimination on sparse integer rows, for
  the rank over Q only.  Rational rows are scaled to integers first; a row
  is combined with the stored row of its leading column, and each combined
  row is divided by the gcd of its entries (the primitive-row variant of
  Bareiss's method), so neither a field object nor a fraction enters.
* ``column_echelon``: Gauss-Jordan elimination of the columns of a matrix
  over a field object, taken in increasing column order.  Each reduced image
  vector carries its sparse preimage, so one echelon answers the rank, the
  kernel, membership in the image with a witness, and independence modulo
  the image (``independent_mod_image``).

Sparse vectors are mappings ``index -> value`` or sequences of
``(index, value)`` pairs.  An echelon stores its vectors as tuples of pairs
sorted by index and is never changed after construction.
"""

from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple


def _integer_row(pairs):
    """A sparse rational row scaled to a primitive integer row (a dict)."""
    den = lcm(*(v.denominator for _, v in pairs))
    row = {c: v.numerator * (den // v.denominator) for c, v in pairs if v}
    return _primitive(row)


def _primitive(row):
    content = gcd(*row.values())
    if content > 1:
        return {c: v // content for c, v in row.items()}
    return row


def rank_bareiss(rows, ncols):
    """Rank over Q of a matrix given by its sparse rows.

    Each row is a sequence of ``(column, value)`` pairs with int or Fraction
    values and columns in ``range(ncols)``.  Rows are inserted one at a time:
    while the row's leading column already has a stored row, the two are
    combined to cancel that entry; otherwise the row is stored under it.
    """
    pivots = {}
    for pairs in rows:
        if any(not 0 <= c < ncols for c, _ in pairs):
            raise ValueError("column index outside range(%d)" % ncols)
        row = _integer_row(pairs)
        while row:
            lead = min(row)
            stored = pivots.get(lead)
            if stored is None:
                pivots[lead] = row
                break
            g = gcd(row[lead], stored[lead])
            a, b = stored[lead] // g, row[lead] // g
            combined = {}
            for c in row.keys() | stored.keys():
                v = a * row.get(c, 0) - b * stored.get(c, 0)
                if v:
                    combined[c] = v
            row = _primitive(combined)
    return len(pivots)


class Pivot(NamedTuple):
    """One pivot column of a column echelon: M preimage = image, where
    image is 1 at ``row`` and 0 at the pivot row of every other pivot."""

    column: int
    row: int
    image: tuple
    preimage: tuple


def _add_multiple(target, coeff, pairs, field):
    """target += coeff * pairs, in place, dropping entries that cancel."""
    zero = field.zero
    for i, v in pairs:
        new = field.add(target.get(i, zero), field.mul(coeff, v))
        if new == zero:
            target.pop(i, None)
        else:
            target[i] = new


def _pairs(vec):
    return tuple(sorted(vec.items()))


@dataclass(frozen=True)
class ColumnEchelon:
    """Gauss-Jordan column echelon of a matrix M over ``field``.

    ``basis`` holds one ``Pivot`` per pivot column, in column order; the
    pivot columns are the greedy set (a column is a pivot exactly when it is
    independent of the columns before it).  ``kernel`` holds one vector per
    free column f, in column order: the unique kernel vector that is 1 at f
    and otherwise supported on pivot columns before f.
    """

    field: object
    basis: tuple
    kernel: tuple

    @property
    def rank(self):
        return len(self.basis)

    def _reduce(self, vec, with_preimage):
        field = self.field
        residual = {i: v for i, v in dict(vec).items() if v != field.zero}
        x = {}
        # the images are zero on each other's pivot rows, so the coefficient
        # of each can be read off the residual in any order
        for pivot in self.basis:
            coeff = residual.get(pivot.row)
            if coeff is not None:
                _add_multiple(residual, field.neg(coeff), pivot.image, field)
                if with_preimage:
                    _add_multiple(x, coeff, pivot.preimage, field)
        return residual, x

    def residual(self, vec):
        """vec minus its part in the image: zero on every pivot row, and
        empty exactly when vec lies in the image."""
        return self._reduce(vec, False)[0]

    def preimage(self, vec):
        """Some x (a dict) with M x = vec, or None if vec is not an image."""
        residual, x = self._reduce(vec, True)
        return None if residual else x


def column_echelon(columns, field):
    """Column echelon of the matrix with the given sparse columns.

    Column j is reduced against the images of the pivots before it; if
    nothing remains, its preimage is the kernel vector of j, otherwise the
    remainder becomes a new pivot and is cleared from the earlier images.
    """
    basis = []
    kernel = []
    by_row = {}
    for j, column in enumerate(columns):
        image = {r: v for r, v in dict(column).items() if v != field.zero}
        pre = {j: field.one}
        for r, coeff in list(image.items()):
            k = by_row.get(r)
            if k is not None:
                neg = field.neg(coeff)
                _add_multiple(image, neg, basis[k].image.items(), field)
                _add_multiple(pre, neg, basis[k].preimage.items(), field)
        if not image:
            kernel.append(_pairs(pre))
            continue
        row = min(image)
        inv = field.inv(image[row])
        image = {r: field.mul(inv, v) for r, v in image.items()}
        pre = {c: field.mul(inv, v) for c, v in pre.items()}
        for other in basis:
            coeff = other.image.get(row)
            if coeff is not None:
                neg = field.neg(coeff)
                _add_multiple(other.image, neg, image.items(), field)
                _add_multiple(other.preimage, neg, pre.items(), field)
        by_row[row] = len(basis)
        basis.append(Pivot(j, row, image, pre))
    return ColumnEchelon(
        field,
        tuple(p._replace(image=_pairs(p.image), preimage=_pairs(p.preimage))
              for p in basis),
        tuple(kernel))


def independent_mod_image(echelon, vectors):
    """Indices of the vectors outside the span of the echelon's image and
    of the vectors before them (the greedy choice, in order).

    The extension is kept in a local list; the echelon is not changed.
    """
    field = echelon.field
    added = []
    keep = []
    for idx, vec in enumerate(vectors):
        residual = echelon.residual(vec)
        # each added vector is zero on the pivots before it, so reducing in
        # order never brings back an entry already cleared
        for row, other in added:
            coeff = residual.get(row)
            if coeff is not None:
                _add_multiple(residual, field.neg(coeff), other, field)
        if residual:
            row = min(residual)
            inv = field.inv(residual[row])
            added.append((row, [(r, field.mul(inv, v))
                                for r, v in residual.items()]))
            keep.append(idx)
    return keep
