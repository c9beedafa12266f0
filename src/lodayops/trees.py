"""Planar rooted trees whose internal vertices all have valence >= 2.

A tree of weight n has n+1 leaves, labelled 0..n from left to right.  The
bare leaf (weight 0) is representable (leaf deletion on the two-leaf tree
produces it) but is not a member of any parameter family.

A tree is the tuple of its children, the leaf being the empty one, so a
tree equals the plain tuple of its children, and equality, hashing and
the canonical order of the tree families are tuple's: the leaf comes
first, and two trees compare child by child.

Two leaf-removal maps are kept apart on purpose.  ``face`` removes one
leaf and reads the operation symbol there in the same descent; it gives
the faces of ``delta_trias``, the explicit differential of dialgebras (on
binary trees) and trialgebras (on all planar trees).  The
restriction tables behind the structure maps R_0, R_j in ``preoperadic``
restrict a tree to any set of its leaves without building a tree.  The
two share no code, so the two sides of the comparison d = +/- delta
remove leaves independently.
"""

from functools import lru_cache
from itertools import product

from .fields import _at_least

LEFT = "left"
RIGHT = "right"
MIDDLE = "middle"


class PlanarTree(tuple):
    """Immutable planar tree: the tuple of its children, so ``()`` is the
    leaf.  Equality, hashing and order are tuple's; a tree equals the
    plain tuple of its children."""

    def __new__(cls, children=()):
        self = super().__new__(cls, children)
        if len(self) == 1:
            raise ValueError("internal vertex with a single child")
        for c in self:
            if not isinstance(c, PlanarTree):
                raise TypeError("children must be PlanarTree instances")
        w = len(self) - 1 + sum(c.weight for c in self) if self else 0
        object.__setattr__(self, "weight", w)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("PlanarTree is immutable")

    @property
    def children(self):
        return tuple(self)

    @property
    def is_leaf(self):
        return not self

    def __repr__(self):
        return "PlanarTree(%s)" % tree_text(self)


LEAF = PlanarTree()


def tree_text(t):
    """Nested-parentheses form: the 3-corolla is ``(|,|,|)``."""
    if not t:
        return "|"
    return "(" + ",".join(tree_text(c) for c in t) + ")"


def face(t, i):
    """The face d_i t and the operation symbol o_i, for 0 <= i <= weight.

    d_i t removes leaf i and splices out a vertex left with one child.  At
    an interior position o_i is the orientation of leaf i at its vertex:
    LEFT for the first child, RIGHT for the last, else MIDDLE.  The two
    boundary positions take o_i from the grafting decomposition
    t = t_0 v ... v t_k instead.
    """
    if not isinstance(t, PlanarTree):
        raise ValueError("t must be a PlanarTree, not %s" % type(t).__name__)
    if t.is_leaf:
        raise ValueError("cannot delete from a bare leaf")
    n = t.weight
    removed, symbol = _face(t, _at_least(i, 0, "i", n))
    if i == 0:
        symbol = RIGHT if t[0].weight else LEFT if len(t) == 2 else MIDDLE
    elif i == n:
        symbol = LEFT if t[-1].weight else RIGHT if len(t) == 2 else MIDDLE
    return removed, symbol


def _face(node, i):
    """(node without leaf i, the orientation of leaf i at its vertex)."""
    for pos, c in enumerate(node):
        if i > c.weight:
            i -= c.weight + 1
        elif c:
            removed, side = _face(c, i)
            return PlanarTree(node[:pos] + (removed,) + node[pos + 1:]), side
        else:
            rest = node[:pos] + node[pos + 1:]
            side = (LEFT if pos == 0 else RIGHT if pos == len(node) - 1
                    else MIDDLE)
            return (rest[0] if len(rest) == 1 else PlanarTree(rest)), side


@lru_cache(maxsize=None)
def _trees_with_leaves(leaves, binary):
    if leaves == 1:
        return (LEAF,)
    out = []
    max_parts = 2 if binary else leaves
    for nparts in range(2, max_parts + 1):
        for comp in _compositions(leaves, nparts):
            pools = [_trees_with_leaves(c, binary) for c in comp]
            for combo in product(*pools):
                out.append(PlanarTree(combo))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def _compositions(total, nparts):
    if nparts == 1:
        return ((total,),)
    out = []
    for first in range(1, total - nparts + 2):
        for rest in _compositions(total - first, nparts - 1):
            out.append((first,) + rest)
    return tuple(out)


def planar_trees(n):
    """All trees of weight n >= 1 in canonical order."""
    return _trees_with_leaves(_at_least(n, 1, "n") + 1, False)


def binary_trees(n):
    return _trees_with_leaves(_at_least(n, 1, "n") + 1, True)
