"""The fixture corpus as generators: the algebras the tests build, and the
source of every algebra file under ``fixtures/``.

* ``product_fixture(t, dim)``: the field product (dim 1) or K[t]/(t^2)
  (dim 2) on the active operations of type t.  ``fixtures/<t>_dim1.alg``
  and ``fixtures/trias_dim2.alg`` hold some of them, ``fixtures/corpus/``
  the dim-2 ones of the other types (``<t>_prod2.alg``).
* ``zero_fixture(t, dim)``: the algebra with every product zero.
* ``suspension_fixture(t)``: a valid algebra on which each axiom acts
  through its own product cell (``fixtures/corpus/<t>_susp.alg``).
* ``axiom_mutation(t, index)``: the suspension algebra broken at exactly
  one axiom.  Broken on purpose, they stay generators; one shows failure
  reporting as ``fixtures/broken_trias_axiom7.alg``.

``FILES`` names the generator of every file under ``fixtures/``, and
``PYTHONPATH=src python tests/corpus.py`` writes them all again.
"""

from functools import partial
from pathlib import Path

from lodayops.algebra import AXIOMS, OPS, TYPES, AlgebraSpec
from lodayops.algfile import serialize_algebra
from lodayops.fields import QQ, _at_least

# Operations carrying the associative product in the shipped valid fixtures,
# all of a type not listed; the others are zero.  These are the minimal
# assignments whose validity reduces to plain associativity.
_ACTIVE_OPS = {"didend": ("left",), "tridend": ("middle",)}


def _assoc_table(dim):
    """dim 1: the field product.  dim 2: K[t]/(t^2) with basis (e, t)."""
    if dim == 1:
        return {(0, 0): {0: 1}}
    if dim == 2:
        return {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    raise ValueError("product fixtures exist for dimensions 1 and 2 only")


def product_fixture(type_tag, dim=1, field=QQ):
    table = _assoc_table(dim)
    tables = {op: table for op in _ACTIVE_OPS.get(type_tag, OPS[type_tag])}
    basis = ("e",) if dim == 1 else ("e", "t")
    return AlgebraSpec(type_tag, field, dim, basis, tables)


def zero_fixture(type_tag, dim=1, field=QQ):
    return AlgebraSpec(type_tag, field, dim, None, {})


def _suspension_layout(type_tag):
    ops = OPS[type_tag]
    names = ["x", "y", "z"]
    names += ["q_%s" % op for op in ops]
    names += ["p_%s" % op for op in ops]
    names += ["w", "u"]
    return ops, names


def _base_weights(type_tag):
    """Integer weights for the nested-product cells of the suspension fixture.

    Cells p[(c, d)] (value of x C (y D z)) all get weight 1; the weights of
    the q-cells (value of (x A y) B z) are then forced by the axioms.  A
    contradiction here would mean the axiom list itself is inconsistent.
    """
    ops = OPS[type_tag]
    p_w = {(c, d): 1 for c in ops for d in ops}
    q_w = {}
    for lhs_terms, rhs_terms in AXIOMS[type_tag]:
        target = sum(p_w[t] for t in rhs_terms)
        unassigned = [t for t in lhs_terms if t not in q_w]
        have = sum(q_w[t] for t in lhs_terms if t in q_w)
        if not unassigned:
            assert have == target, "axiom table inconsistent"
            continue
        for t in unassigned[:-1]:
            q_w[t] = 0
        q_w[unassigned[-1]] = target - have
    for a in ops:
        for b in ops:
            q_w.setdefault((a, b), 1)
    return q_w, p_w


def suspension_fixture(type_tag, field=QQ, bump=None):
    """A valid algebra on which each axiom acts through its own product cell.

    Basis: x, y, z; one q per operation holding x op y; one p per operation
    holding y op z; and w, u spanning the nested products.  With bump=None
    every axiom holds.  bump = ("q"|"p", (op_a, op_b)) adds u to that single
    nested-product cell, so exactly the axioms reading that cell fail.
    """
    ops, names = _suspension_layout(type_tag)
    dim = len(names)
    ix, iy, iz = 0, 1, 2
    iq = {op: 3 + t for t, op in enumerate(ops)}
    ip = {op: 3 + len(ops) + t for t, op in enumerate(ops)}
    iw, iu = dim - 2, dim - 1
    q_w, p_w = _base_weights(type_tag)
    tables = {op: {} for op in ops}
    for op in ops:
        tables[op][(ix, iy)] = {iq[op]: 1}
        tables[op][(iy, iz)] = {ip[op]: 1}
    for a in ops:
        for b in ops:
            q_cell = {iw: q_w[(a, b)]}
            p_cell = {iw: p_w[(a, b)]}
            if bump == ("q", (a, b)):
                q_cell[iu] = 1
            if bump == ("p", (a, b)):
                p_cell[iu] = 1
            tables[b][(iq[a], iz)] = q_cell
            tables[a][(ix, ip[b])] = p_cell
    return AlgebraSpec(type_tag, field, dim, names, tables)


def mutation_bump(type_tag, index):
    """The nested-product cell read by axiom <index> and by no other axiom."""
    axioms = AXIOMS[type_tag]
    _at_least(index, 1, "index", len(axioms))
    lhs_terms, rhs_terms = axioms[index - 1]
    for c, d in rhs_terms:
        uses = sum((c, d) in rhs for _, rhs in axioms)
        if uses == 1:
            return ("p", (c, d))
    for a, b in lhs_terms:
        uses = sum((a, b) in lhs for lhs, _ in axioms)
        if uses == 1:
            return ("q", (a, b))
    raise ValueError("axiom %d has no private product cell" % index)


def axiom_mutation(type_tag, index, field=QQ):
    """An algebra violating exactly axiom <index> (1-based)."""
    return suspension_fixture(type_tag, field, bump=mutation_bump(type_tag, index))


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# each algebra file under FIXTURE_DIR, by path, and the generator call that
# writes it: the product, zero and broken fixtures at the top; prod2 of the
# other types and the suspension algebra of every type under corpus/
FILES = {"%s_dim1.alg" % t: partial(product_fixture, t, 1) for t in TYPES}
FILES.update({
    "trias_dim2.alg": partial(product_fixture, "trias", 2),
    "zero_didend_dim1.alg": partial(zero_fixture, "didend", 1),
    "broken_trias_axiom7.alg": partial(axiom_mutation, "trias", 7),
})
FILES.update(("corpus/%s_prod2.alg" % t, partial(product_fixture, t, 2))
             for t in TYPES if t != "trias")
FILES.update(("corpus/%s_susp.alg" % t, partial(suspension_fixture, t))
             for t in TYPES)


if __name__ == "__main__":
    for name, build in FILES.items():
        (FIXTURE_DIR / name).write_text(serialize_algebra(build()),
                                        encoding="utf-8")
