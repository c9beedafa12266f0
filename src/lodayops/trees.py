"""Planar rooted trees whose internal vertices all have valence >= 2.

A tree of weight n has n+1 leaves, labelled 0..n from left to right.  The
bare leaf (weight 0) is representable (leaf deletion on the two-leaf tree
produces it) but is not a member of any parameter family.

A tree is the plain tuple of its children, the leaf ``LEAF = ()`` being
the empty one, so equality, hashing and the canonical order of the tree
families are tuple's: the leaf comes first, and two trees compare child
by child.  Grafting is building the tuple of the children, and ``not t``
tells the leaf; ``params.enumerate_params`` grafts the tree families.
``_weight`` is the one judge of a tree: every map that reads a tree takes
its weight there, and anything else raises ValueError.

Two leaf-removal maps are kept apart on purpose.  ``face`` removes one
leaf and reads the operation symbol there in the same descent; it gives
the faces of ``delta_trias``, the explicit differential of dialgebras (on
binary trees) and trialgebras (on all planar trees).  The deletion
tables of ``preoperadic``, which the structure maps R_0, R_j compose to
restrict a tree to any set of its leaves, delete one leaf from a whole
family at once, on canonical indices.  The two share no code but the
weight, so the two sides of the comparison d = +/- delta remove leaves
independently.
"""

from functools import lru_cache
from itertools import combinations
from operator import sub

from .fields import _at_least

LEFT = "left"
RIGHT = "right"
MIDDLE = "middle"

LEAF = ()

_weights = {LEAF: 0}        # the weight of every tree judged so far


def _weight(t):
    """The weight of the tree t, its number of leaves less one.  ValueError
    unless t is a tree: the leaf, or a tuple of two or more trees.  Each
    tree is judged once; its weight is kept, so later calls look it up."""
    try:
        return _weights[t]
    except KeyError:
        if isinstance(t, tuple) and len(t) != 1:
            w = _weights[t] = len(t) - 1 + sum(map(_weight, t))
            return w
    except TypeError:           # unhashable: a list somewhere inside t
        pass
    raise ValueError("%r is not a tree" % (t,))


def tree_text(t):
    """Nested-parentheses form: the 3-corolla is ``(|,|,|)``.  ValueError
    unless t is a tree."""
    if not _weight(t):
        return "|"
    return "(" + ",".join(map(tree_text, t)) + ")"


def face(t, i):
    """The face d_i t and the operation symbol o_i, for 0 <= i <= weight.

    d_i t removes leaf i and splices out a vertex left with one child.  At
    an interior position o_i is the orientation of leaf i at its vertex:
    LEFT for the first child, RIGHT for the last, else MIDDLE.  The two
    boundary positions take o_i from the grafting decomposition
    t = t_0 v ... v t_k instead.
    """
    n = _weight(t)
    if not n:
        raise ValueError("cannot delete from a bare leaf")
    removed, symbol = _face(t, _at_least(i, 0, "i", n))
    if i == 0:
        symbol = RIGHT if t[0] else LEFT if len(t) == 2 else MIDDLE
    elif i == n:
        symbol = LEFT if t[-1] else RIGHT if len(t) == 2 else MIDDLE
    return removed, symbol


def _face(node, i):
    """(node without leaf i, the orientation of leaf i at its vertex)."""
    for pos, c in enumerate(node):
        w = _weight(c)
        if i > w:
            i -= w + 1
        elif c:
            removed, side = _face(c, i)
            return node[:pos] + (removed,) + node[pos + 1:], side
        else:
            rest = node[:pos] + node[pos + 1:]
            side = (LEFT if pos == 0 else RIGHT if pos == len(node) - 1
                    else MIDDLE)
            return (rest[0] if len(rest) == 1 else rest), side


@lru_cache(maxsize=None)
def _compositions(total, nparts):
    """The compositions of total into nparts parts, lexicographically."""
    return tuple(tuple(map(sub, cuts + (total,), (0,) + cuts))
                 for cuts in combinations(range(1, total), nparts - 1))
