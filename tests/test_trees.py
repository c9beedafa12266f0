import hashlib
from itertools import combinations

import pytest

from lodayops.params import param_text
from lodayops.preoperadic import r_zero
from lodayops.trees import (LEAF, LEFT, MIDDLE, RIGHT, PlanarTree,
                            binary_trees, face, planar_trees, tree_text)

CORolla3 = PlanarTree([LEAF, LEAF, LEAF])
T1 = PlanarTree([LEAF, LEAF])


def is_binary(t):
    return t.is_leaf or (len(t) == 2 and all(is_binary(c) for c in t))


def delete_leaf(t, i):
    """d_i t, the tree half of ``face``."""
    return face(t, i)[0]


def symbol(t, i):
    """o_i, the operation-symbol half of ``face``."""
    return face(t, i)[1]


def test_counts_small():
    assert [len(planar_trees(n)) for n in range(1, 6)] == [1, 3, 11, 45, 197]
    # independent count oracle: the grafting recurrence s_L = sum over
    # compositions of L into >= 2 parts of products of smaller counts
    counts = {1: 1}
    for leaves in range(2, 7):
        total = 0
        for nparts in range(2, leaves + 1):
            for cut in combinations(range(1, leaves), nparts - 1):
                sizes = [b - a for a, b in zip((0,) + cut, cut + (leaves,))]
                prod = 1
                for s in sizes:
                    prod *= counts[s]
                total += prod
        counts[leaves] = total
    assert [counts[n + 1] for n in range(1, 6)] == [1, 3, 11, 45, 197]


def test_binary_counts_are_catalan():
    import math
    def catalan(n):
        return math.comb(2 * n, n) // (n + 1)
    for n in range(1, 6):
        assert len(binary_trees(n)) == catalan(n)
        assert all(is_binary(t) for t in binary_trees(n))


def _leaves(t):
    return 1 if t.is_leaf else sum(_leaves(c) for c in t.children)


def test_weights_and_leaf_labels():
    # a tree of weight n has n + 1 leaves, counted here by recursion
    for n in range(1, 5):
        for t in planar_trees(n):
            assert t.weight == n
            assert _leaves(t) == t.weight + 1


def test_graft_decompose_inverse():
    # grafting is the constructor and decomposition its children
    assert PlanarTree([LEAF, LEAF]) == T1
    assert CORolla3.children == (LEAF, LEAF, LEAF)
    assert T1.children == (LEAF, LEAF)
    for n in range(1, 6):
        for t in planar_trees(n):
            assert PlanarTree(t.children) == t
    with pytest.raises(ValueError):
        PlanarTree([LEAF])
    assert LEAF.children == ()


def test_graft_weight_formula():
    a = PlanarTree([T1, LEAF])
    assert a.weight == 2
    parts = [T1, CORolla3, LEAF]
    assert PlanarTree(parts).weight == \
        sum(p.weight for p in parts) + len(parts) - 1


def test_delete_leaf_examples():
    assert delete_leaf(CORolla3, 1) == T1
    assert delete_leaf(PlanarTree([T1, LEAF]), 0) == T1
    assert type(delete_leaf(PlanarTree([T1, LEAF]), 2)) is PlanarTree
    # deleting from the two-leaf tree leaves the degenerate bare leaf
    assert delete_leaf(T1, 0) == LEAF
    with pytest.raises(ValueError, match="bare leaf"):
        face(LEAF, 0)
    for i in (3, -1):
        with pytest.raises(ValueError,
                           match=r"^i must be an int in 0\.\.2, got %d$" % i):
            face(CORolla3, i)


def test_simplicial_identity():
    # both composites land in weight n-2, so trees of weight >= 2
    for n in range(2, 6):
        for t in planar_trees(n):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    assert (delete_leaf(delete_leaf(t, j), i)
                            == delete_leaf(delete_leaf(t, i), j - 1))


def test_binary_closed_under_deletion():
    for n in range(2, 6):
        for t in binary_trees(n):
            for i in range(n + 1):
                assert is_binary(delete_leaf(t, i))


def test_orientations_on_reference_tree():
    # an interior position reads the orientation of its leaf; the two
    # boundary positions follow the grafting rule, tested below
    psi = PlanarTree([LEAF, LEAF, T1])
    assert symbol(psi, 1) == MIDDLE
    assert symbol(psi, 2) == LEFT
    nested = PlanarTree([LEAF, T1, LEAF])
    assert symbol(nested, 1) == LEFT
    assert symbol(nested, 2) == RIGHT


def test_boundary_symbols_on_reference_tree():
    psi = PlanarTree([LEAF, LEAF, T1])  # psi_0 = psi_1 = leaf, psi_2 = T1, k = 2
    assert symbol(psi, 0) == MIDDLE       # |psi_0| = 0, k > 1
    assert symbol(psi, 1) == MIDDLE       # orientation of leaf 1
    assert symbol(psi, 2) == LEFT         # orientation of leaf 2
    assert symbol(psi, 3) == LEFT         # terminal: |psi_k| = 1 > 0
    comb = PlanarTree([T1, LEAF])
    assert symbol(comb, 0) == RIGHT       # |psi_0| = 1 > 0
    assert symbol(comb, 2) == RIGHT       # terminal: k = 1, |psi_1| = 0
    assert symbol(T1, 0) == LEFT          # |psi_0| = 0, k = 1
    assert symbol(CORolla3, 2) == MIDDLE  # terminal: |psi_k| = 0, k > 1


def test_boundary_symbol_total():
    # exactly one case fires for every tree and every position
    for n in range(1, 5):
        for t in planar_trees(n):
            for i in range(n + 1):
                assert symbol(t, i) in (LEFT, RIGHT, MIDDLE)
            with pytest.raises(ValueError):
                face(t, n + 1)


def test_tree_text_is_injective():
    assert tree_text(CORolla3) == "(|,|,|)"
    assert tree_text(PlanarTree([LEAF, T1])) == "(|,(|,|))"
    for n in range(1, 8):
        for trees in (planar_trees(n), binary_trees(n)):
            assert len({tree_text(t) for t in trees}) == len(trees)


def test_unary_vertex_rejected():
    with pytest.raises(ValueError):
        PlanarTree((LEAF,))


def test_non_tree_child_and_weight_zero_rejected():
    # a plain tuple equals a tree but is not one
    with pytest.raises(TypeError, match="children must be PlanarTree"):
        PlanarTree((LEAF, ()))
    for trees in (planar_trees, binary_trees):
        with pytest.raises(ValueError,
                           match="^n must be an int >= 1, got 0$"):
            trees(0)


def test_tree_is_its_tuple_of_children():
    # equality, hashing and order are tuple's, implemented in C
    assert PlanarTree.__hash__ is tuple.__hash__
    assert PlanarTree((LEAF, LEAF)) == (LEAF, LEAF)
    assert hash(T1) == hash((LEAF, LEAF)) and LEAF == ()
    with pytest.raises(AttributeError):
        T1.weight = 5
    assert T1.weight == 1


@pytest.mark.parametrize("plain", [((), ()), ((), ((), ())),
                                   (((), ()), (), ())],
                         ids=["corolla2", "right-comb", "left-corolla"])
def test_plain_tuple_tree_is_read_or_refused_by_name(plain):
    # a plain tuple equals its tree, so r_zero takes it (R_0 on the parts
    # (1, ..., 1) keeps every leaf); tree_text and param_text used to raise
    # AttributeError on it, and so did face
    tree = next(t for n in (1, 2, 3) for t in planar_trees(n) if t == plain)
    assert type(plain) is tuple and tree == plain
    assert tree_text(plain) == param_text("planar", plain) == tree_text(tree)
    assert r_zero("planar", (1,) * tree.weight, plain) == tree
    with pytest.raises(ValueError, match="^t must be a PlanarTree, not "
                                         "tuple$"):
        face(plain, 0)


def test_canonical_tree_order_is_pinned():
    # the order of the tree families, which fixes every canonical index
    text = "".join(tree_text(t) + "\n" for n in range(1, 8)
                   for t in planar_trees(n) + binary_trees(n))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fc6bfa9b3eb8dc48cc7d7c40082d4643f07337723d7a846be5b55857405f4b6c")
