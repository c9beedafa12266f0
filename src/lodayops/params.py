"""The five parameter families tagging cochain inputs.

kind        set            element
----        ---            -------
linear      C_n            int in 1..n
binary      Y_n            binary PlanarTree of weight n
planar      T_n            PlanarTree of weight n
subsets     P_n            non-empty frozenset of 1..n
signs       Q_n            length-n tuple over {-1, 0, +1}

An element is this value itself, its payload; it carries neither its
kind nor n.  Every family is finite, non-empty and carries a canonical
total order, and the tables and cochains index an element by its
position in that order, its canonical index.  ``enumerate_params``
grafts each tree family from the smaller ones in its own cache.
"""

from functools import lru_cache
from itertools import product

from .fields import _at_least
from .trees import LEAF, PlanarTree, _compositions, tree_text

KINDS = ("linear", "binary", "planar", "subsets", "signs")
TREE_KINDS = ("binary", "planar")      # the kinds whose elements are trees


def param_text(kind, p):
    if kind not in KINDS:
        raise ValueError("unknown parameter kind %r" % kind)
    if kind in TREE_KINDS:
        return tree_text(p)
    if kind == "subsets":
        return "{" + ",".join(str(i) for i in sorted(p)) + "}"
    if kind == "signs":
        return "(" + ",".join("%+d" % s if s else "0" for s in p) + ")"
    return str(p)


# typed: 2.0 and True reach the judge below, not the entries of 2 and 1
@lru_cache(maxsize=None, typed=True)
def enumerate_params(kind, n):
    """All of U_n for the given family, in canonical order."""
    if kind not in KINDS:
        raise ValueError("unknown parameter kind %r" % kind)
    _at_least(n, 1, "n")
    if kind == "linear":
        return tuple(range(1, n + 1))
    if kind in TREE_KINDS:
        # pools[c - 1]: the subtrees with c leaves, the leaf or U_(c-1)
        pools = [(LEAF,)] + [enumerate_params(kind, c) for c in range(1, n)]
        arities = (2,) if kind == "binary" else range(2, n + 2)
        return tuple(sorted(
            PlanarTree(children) for k in arities
            for parts in _compositions(n + 1, k)
            for children in product(*[pools[c - 1] for c in parts])))
    if kind == "subsets":
        # element i is the subset whose bitmask is i + 1
        universe = range(1, n + 1)
        return tuple(frozenset(i for i in universe if mask >> (i - 1) & 1)
                     for mask in range(1, 1 << n))
    return tuple(product((-1, 0, 1), repeat=n))


@lru_cache(maxsize=None)
def _family(kind, n):
    """U_n in canonical order, and the index of each element within it."""
    elems = enumerate_params(kind, n)
    return elems, {p: i for i, p in enumerate(elems)}


def family_size(kind, n):
    return len(enumerate_params(kind, n))

