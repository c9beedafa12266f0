"""Finite-dimensional Loday algebras given by structure constants.

Supported types and their binary operations:

    dias     ⊣ ⊢          (two associative products, three mixed laws)
    didend   ≺ ≻          (3 axioms; ≺+≻ is associative)
    trias    ⊣ ⊢ ⊥        (11 axioms)
    tridend  ≺ · ≻        (7 axioms; ≺+·+≻ is associative)
    tricub   ⊣ ⊢ ⊥        (9 axioms: all mixed associativity)

An element of the algebra is a sparse dict {basis index: coefficient} that
stores no zero; the structure constants are rows of the same form,
tables[op][(i, j)] = {k: c} meaning e_i op e_j = sum_k c e_k.  ``multiply``
is the one product on such elements.  Axioms are evaluated on basis triples
only, which suffices by multilinearity, and only on the triples that some
structure constant reaches.

``PI_OPS`` is the one table that says which operations the canonical
multiplication pi sums at each element of U_2, the weight-2 parameters of
the type's cochains.
"""

from collections import namedtuple

from .fields import (PrimeField, Rationals, _all_at_least, _at_least, _mapping,
                     _scalars)

# each type's operations in canonical order, with glyphs; TYPES and OPS too
GLYPHS = {
    "dias": {"left": "⊣", "right": "⊢"},
    "didend": {"left": "≺", "right": "≻"},
    "trias": {"left": "⊣", "right": "⊢", "middle": "⊥"},
    "tridend": {"left": "≺", "middle": "·", "right": "≻"},
    "tricub": {"left": "⊣", "right": "⊢", "middle": "⊥"},
}

TYPES = tuple(GLYPHS)
OPS = {t: tuple(glyphs) for t, glyphs in GLYPHS.items()}

# The parameter family indexing each type's cochains.
PARAM_KIND = {
    "dias": "binary",
    "didend": "linear",
    "trias": "planar",
    "tridend": "subsets",
    "tricub": "signs",
}

# The operations pi sums at each element of U_2, in canonical order.  dias:
# the binary trees (|,(|,|)) and ((|,|),|) read left and right; trias: the
# corolla reads middle, then left and right as for dias.  The other types
# sum every operation at every element.
PI_OPS = {
    "dias": (("left",), ("right",)),
    "didend": (OPS["didend"],) * 2,
    "trias": (("middle",), ("left",), ("right",)),
    "tridend": (OPS["tridend"],) * 3,
    "tricub": (OPS["tricub"],) * 9,
}


def _axioms():
    l, r, m = "left", "right", "middle"
    dias = [
        ([(l, l)], [(l, l)]),
        ([(l, l)], [(l, r)]),
        ([(r, l)], [(r, l)]),
        ([(l, r)], [(r, r)]),
        ([(r, r)], [(r, r)]),
    ]
    didend = [
        ([(l, l)], [(l, l), (l, r)]),
        ([(r, l)], [(r, l)]),
        ([(l, r), (r, r)], [(r, r)]),
    ]
    trias = dias + [
        ([(l, l)], [(l, m)]),
        ([(m, l)], [(m, l)]),
        ([(l, m)], [(m, r)]),
        ([(r, m)], [(r, m)]),
        ([(m, r)], [(r, r)]),
        ([(m, m)], [(m, m)]),
    ]
    tridend = [
        ([(l, l)], [(l, l), (l, m), (l, r)]),
        ([(r, l)], [(r, l)]),
        ([(l, r), (m, r), (r, r)], [(r, r)]),
        ([(r, m)], [(r, m)]),
        ([(l, m)], [(m, r)]),
        ([(m, l)], [(m, l)]),
        ([(m, m)], [(m, m)]),
    ]
    tricub = [([(o1, o2)], [(o1, o2)])
              for o1 in (l, r, m) for o2 in (l, r, m)]
    return {"dias": dias, "didend": didend, "trias": trias,
            "tridend": tridend, "tricub": tricub}


AXIOMS = _axioms()


def axiom_label(type_tag, index):
    """Human form of axiom <index> (1-based), e.g. '(x ⊣ y) ⊣ z = x ⊣ (y ⊢ z)'."""
    g = GLYPHS[type_tag]
    _at_least(index, 1, "index", len(AXIOMS[type_tag]))
    lhs_terms, rhs_terms = AXIOMS[type_tag][index - 1]
    outer_l = {b for _, b in lhs_terms}
    outer_r = {c for c, _ in rhs_terms}
    assert len(outer_l) == 1 and len(outer_r) == 1
    inner_l = " + ".join("x %s y" % g[a] for a, _ in lhs_terms)
    inner_r = " + ".join("y %s z" % g[d] for _, d in rhs_terms)
    lhs = "(%s) %s z" % (inner_l, g[outer_l.pop()])
    rhs = "x %s (%s)" % (g[outer_r.pop()], inner_r)
    return "%s = %s" % (lhs, rhs)


class SpecError(ValueError):
    """An argument of ``AlgebraSpec`` that breaks a rule of a valid algebra,
    named by ``where``: "type", "field", "dim", "basis", "tables", ``(op,)``
    for an operation, its table or a cell key, ``(op, i, j)`` for a table
    cell, ``(op, i, j, k)`` for one constant."""

    def __init__(self, where, message):
        super().__init__(message)
        self.where = where


class AlgebraSpec:
    """A Loday algebra of one of the five types over an exact field, judged
    by this constructor alone: a broken rule raises SpecError.  A structure
    constant must be an int or a Fraction, over F_p with a denominator
    prime to p; it is stored as ``field.from_fraction`` gives it."""

    def __init__(self, type_tag, field, dim, basis=None, tables=None):
        if type_tag not in TYPES:
            raise SpecError("type", "unknown algebra type %r" % (type_tag,))
        if not isinstance(field, (Rationals, PrimeField)):
            raise SpecError("field", "field %r is not a Rationals or a "
                            "PrimeField" % (field,))
        where = "dim"
        try:
            _at_least(dim, 1, "dim")
            where = "tables"
            tables = {} if tables is None else _mapping(tables, "tables")
        except ValueError as exc:
            raise SpecError(where, str(exc)) from None
        self.type_tag = type_tag
        self.field = field
        self.dim = dim
        if not isinstance(basis, (list, tuple, type(None))):
            raise SpecError("basis", "basis must be a list or a tuple, not %s"
                            % type(basis).__name__)
        self.basis = tuple(basis) if basis is not None else tuple(
            "e%d" % (i + 1) for i in range(dim))
        if len(self.basis) != dim:
            raise SpecError("basis", "basis lists %d names for dim %d"
                            % (len(self.basis), dim))
        for name in self.basis:
            # a name an algebra file reads back as itself
            if not isinstance(name, str) or name.split() != [name] \
                    or "'" in name or '"' in name:
                raise SpecError("basis", "basis name %r is empty or holds "
                                "white space or a quote" % (name,))
        if len(set(self.basis)) != dim:
            raise SpecError("basis", "basis repeats a name")
        self.ops = OPS[type_tag]
        for op in tables:
            if op not in self.ops:
                raise SpecError((op,), "operation %r does not belong to "
                                "type %s" % (op, type_tag))
        self.tables = {op: {} for op in self.ops}
        for op, cells in tables.items():
            where = (op,)
            try:
                for ij, row in _mapping(cells, "the table").items():
                    if not (isinstance(ij, tuple) and len(ij) == 2):
                        raise ValueError("cell key must be a pair (i, j), "
                                         "got %r" % (ij,))
                    # an index is judged before its constant, so before a zero
                    i, j = ij
                    where, out = (op, i, j), {}
                    _all_at_least(ij, 0, "0-based basis index", dim - 1)
                    for k, c in _mapping(row, "row").items():
                        where = (op, i, j, k)
                        _at_least(k, 0, "0-based basis index", dim - 1)
                        out[k] = field.from_fraction(c)
                    out = field.collect(out)
                    if out:
                        self.tables[op][(i, j)] = out
            except (ValueError, ZeroDivisionError) as exc:
                cell = ", cell (%r, %r)" % where[1:3] if where[1:] else ""
                raise SpecError(where, "%s table%s%s: %s" % (
                    op, cell, "".join(" -> %r" % k for k in where[3:]),
                    exc)) from None

    @property
    def kind(self):
        return PARAM_KIND[self.type_tag]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, AlgebraSpec)
            and self.type_tag == other.type_tag
            and self.field == other.field
            and self.dim == other.dim
            and self.basis == other.basis
            and self.tables == other.tables)

    def __repr__(self):
        return "AlgebraSpec(%s, %s, dim=%d)" % (
            self.type_tag, self.field.name, self.dim)


def multiply(alg, op, x, y):
    """Bilinear extension of the structure constants of one operation to
    sparse elements; the product stores no zero coefficient."""
    if op not in alg.ops:
        raise ValueError("operation %r does not belong to type %s"
                         % (op, alg.type_tag))
    for name, v in (("x", x), ("y", y)):
        _all_at_least(_mapping(v, name), 0, "basis index", alg.dim - 1)
    x, y = _scalars(x, alg.field, "x"), _scalars(y, alg.field, "y")
    table, out = alg.tables[op], {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + xi * yj * c
    return alg.field.collect(out)


def _sparse_sum(field, rows):
    out = {}
    for row in rows:
        for t, c in row.items():
            out[t] = out.get(t, 0) + c
    return field.collect(out)


class AxiomViolation(namedtuple("AxiomViolation",
                                 "index label triple left right")):
    __slots__ = ()


def verify_axioms(alg):
    """Evaluate every defining axiom on every basis triple; [] means valid.

    A triple (i, j, k) where no operation pairs (i, j) or (j, k) has zero on
    both sides of every axiom, so only the others are evaluated, in
    increasing order.
    """
    f = alg.field
    violations = []
    basis = [{i: f.one} for i in range(alg.dim)]
    pairs = {ij for table in alg.tables.values() for ij in table}
    span = range(alg.dim)
    triples = sorted({(i, j, k) for i, j in pairs for k in span}
                     | {(i, j, k) for j, k in pairs for i in span})
    for a_idx, (lhs_terms, rhs_terms) in enumerate(AXIOMS[alg.type_tag], start=1):
        label = axiom_label(alg.type_tag, a_idx)
        for i, j, k in triples:
            x, y, z = basis[i], basis[j], basis[k]
            lhs = _sparse_sum(f, [multiply(alg, b, multiply(alg, a, x, y), z)
                                  for a, b in lhs_terms])
            rhs = _sparse_sum(f, [multiply(alg, c, x, multiply(alg, d, y, z))
                                  for c, d in rhs_terms])
            if lhs != rhs:
                violations.append(AxiomViolation(
                    a_idx, label, (i, j, k),
                    tuple(lhs.get(t, f.zero) for t in range(alg.dim)),
                    tuple(rhs.get(t, f.zero) for t in range(alg.dim))))
    return violations
