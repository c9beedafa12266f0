"""The five parameter families tagging cochain inputs.

kind        set            payload
----        ---            -------
linear      C_n            int in 1..n
binary      Y_n            binary PlanarTree of weight n
planar      T_n            PlanarTree of weight n
subsets     P_n            non-empty frozenset of 1..n
signs       Q_n            length-n tuple over {-1, 0, +1}

Every family is finite, non-empty and carries a canonical total order so
that elements can serve as deterministic tensor indices.
"""

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .trees import PlanarTree, binary_trees, is_binary, planar_trees, tree_text

KINDS = ("linear", "binary", "planar", "subsets", "signs")


class ParamElement(NamedTuple):
    kind: str
    n: int
    payload: object


def param_text(e):
    if e.kind in ("binary", "planar"):
        return tree_text(e.payload)
    if e.kind == "subsets":
        return "{" + ",".join(str(i) for i in sorted(e.payload)) + "}"
    if e.kind == "signs":
        return "(" + ",".join("%+d" % s if s else "0" for s in e.payload) + ")"
    return str(e.payload)


def validate_element(e):
    """Raise ValueError unless the payload is a valid member of its family."""
    if e.kind not in KINDS:
        raise ValueError("unknown parameter kind %r" % e.kind)
    if e.n < 1:
        raise ValueError("invalid arity %d" % e.n)
    p = e.payload
    if e.kind == "linear":
        if not (isinstance(p, int) and 1 <= p <= e.n):
            raise ValueError("linear payload %r not in 1..%d" % (p, e.n))
    elif e.kind in ("binary", "planar"):
        if not isinstance(p, PlanarTree) or p.weight != e.n:
            raise ValueError("tree payload has wrong weight for arity %d" % e.n)
        if e.kind == "binary" and not is_binary(p):
            raise ValueError("tree payload is not binary")
    elif e.kind == "subsets":
        if not isinstance(p, frozenset) or not p or not p <= set(range(1, e.n + 1)):
            raise ValueError("subset payload %r invalid for arity %d" % (p, e.n))
    else:
        if not (isinstance(p, tuple) and len(p) == e.n
                and all(s in (-1, 0, 1) for s in p)):
            raise ValueError("sign payload %r invalid for arity %d" % (p, e.n))
    return e


@lru_cache(maxsize=None)
def enumerate_params(kind, n):
    """All of U_n for the given family, in canonical order."""
    if kind not in KINDS:
        raise ValueError("unknown parameter kind %r" % kind)
    if n < 1:
        raise ValueError("invalid arity %d" % n)
    if kind == "linear":
        payloads = range(1, n + 1)
    elif kind == "binary":
        payloads = binary_trees(n)
    elif kind == "planar":
        payloads = planar_trees(n)
    elif kind == "subsets":
        # element i is the subset whose bitmask is i + 1
        universe = range(1, n + 1)
        payloads = (frozenset(i for i in universe if mask >> (i - 1) & 1)
                    for mask in range(1, 1 << n))
    else:
        payloads = product((-1, 0, 1), repeat=n)
    return tuple(ParamElement(kind, n, p) for p in payloads)


@lru_cache(maxsize=None)
def _family(kind, n):
    """U_n in canonical order, and the index of each payload within it."""
    elems = enumerate_params(kind, n)
    return elems, {e.payload: i for i, e in enumerate(elems)}


def family_size(kind, n):
    return len(enumerate_params(kind, n))


def encode(kind, e):
    """Position of e within enumerate_params(kind, e.n); inverse of indexing."""
    if e.kind != kind:
        raise ValueError("element of kind %r passed as %r" % (e.kind, kind))
    validate_element(e)
    return _family(kind, e.n)[1][e.payload]
