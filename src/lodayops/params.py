"""The five parameter families tagging cochain inputs.

kind        set            element
----        ---            -------
linear      C_n            int in 1..n
binary      Y_n            binary tree of weight n
planar      T_n            planar tree of weight n
subsets     P_n            non-empty frozenset of 1..n
signs       Q_n            length-n tuple over {-1, 0, +1}

An element is this value itself, its payload; it carries neither its
kind nor n; a tree is the plain tuple of its children (``trees``).
Every family is finite, non-empty and carries a canonical total order,
and the tables and cochains index an element by its position in that
order, its canonical index.  ``enumerate_params`` grafts each tree
family from the smaller ones in its own cache.
"""

from functools import lru_cache
from itertools import product

from .fields import _at_least
from .trees import LEAF, _compositions, _weight, tree_text

KINDS = ("linear", "binary", "planar", "subsets", "signs")
TREE_KINDS = ("binary", "planar")      # the kinds whose elements are trees


def param_text(kind, p):
    """The text of p, an element of the ``kind`` family.  Anything that is
    not an element of U_n, n read from p, raises ValueError naming the
    kind.  The test builds U_n, as every map that reads an element of U_n
    does."""
    if kind not in KINDS:
        raise ValueError("unknown parameter kind %r" % kind)
    try:
        member = p in _family(kind, _at_least(_n_of(kind, p), 1, "n"))[1]
    except (TypeError, ValueError):     # p has no n, or its n is no size
        member = False
    if not member:
        raise ValueError("%r is not an element of the %s family" % (p, kind))
    if kind in TREE_KINDS:
        return tree_text(p)
    if kind == "subsets":
        return "{" + ",".join(str(i) for i in sorted(p)) + "}"
    if kind == "signs":
        return "(" + ",".join("%+d" % s if s else "0" for s in p) + ")"
    return str(p)


def _n_of(kind, p):
    """The n of the one family U_n that can hold p, read from p."""
    if kind in TREE_KINDS:
        return _weight(p)
    if kind == "subsets":
        return max(p)
    if kind == "signs":
        return len(p)
    return p


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
            children for k in arities
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

