import hashlib
from itertools import combinations

import pytest

from lodayops.params import TREE_KINDS, enumerate_params, param_text
from lodayops.preoperadic import r_zero
from lodayops.trees import (LEAF, LEFT, MIDDLE, RIGHT, _weight, face,
                            tree_text)

CORolla3 = (LEAF, LEAF, LEAF)
T1 = (LEAF, LEAF)


def is_binary(t):
    return not t or (len(t) == 2 and all(is_binary(c) for c in t))


def delete_leaf(t, i):
    """d_i t, the tree half of ``face``."""
    return face(t, i)[0]


def symbol(t, i):
    """o_i, the operation-symbol half of ``face``."""
    return face(t, i)[1]


def test_counts_small():
    assert [len(enumerate_params("planar", n))
            for n in range(1, 6)] == [1, 3, 11, 45, 197]
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
        assert len(enumerate_params("binary", n)) == catalan(n)
        assert all(is_binary(t) for t in enumerate_params("binary", n))


def _bracketings(letters):
    """Every Schroeder bracketing of a word of ``letters`` letters, each
    bracket around two or more consecutive pieces, as plain nested tuples:
    a letter is (), a bracket the tuple of its pieces."""
    if letters == 1:
        return [()]
    out = []

    def complete(prefix, left):
        # extend ``prefix`` by pieces covering ``left`` more letters
        if not left:
            if len(prefix) >= 2:
                out.append(prefix)
            return
        for size in range(1, min(left, letters - 1) + 1):
            for piece in _bracketings(size):
                complete(prefix + (piece,), left - size)

    complete((), letters)
    return out


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_families_are_the_bracketings_in_tuple_order(kind):
    # an independent generator: the bracketings of n + 1 letters, the
    # binary ones alone for the binary family, sorted as plain tuples,
    # equal the family element for element and in order
    for n in range(1, 7):
        want = sorted(t for t in _bracketings(n + 1)
                      if kind == "planar" or is_binary(t))
        got = enumerate_params(kind, n)
        assert list(got) == want
        assert all(type(t) is tuple for t in got)
    assert len(want) == {"binary": 132, "planar": 903}[kind]


def _leaves(t):
    return 1 if not t else sum(_leaves(c) for c in t)


def test_weights_and_leaf_labels():
    # a tree of weight n has n + 1 leaves, counted here by recursion
    for n in range(1, 5):
        for t in enumerate_params("planar", n):
            assert _weight(t) == n
            assert _leaves(t) == n + 1


def test_graft_decompose_inverse():
    # grafting is building the tuple of the children, and decomposition
    # reads them back
    assert tuple([LEAF, LEAF]) == T1
    for n in range(1, 6):
        for t in enumerate_params("planar", n):
            assert tuple(list(t)) == t
            assert _weight(tuple(list(t))) == n
    with pytest.raises(ValueError):
        _weight((LEAF,))
    assert LEAF == () and not LEAF and _weight(LEAF) == 0


def test_graft_weight_formula():
    assert _weight((T1, LEAF)) == 2
    parts = (T1, CORolla3, LEAF)
    assert _weight(parts) == sum(map(_weight, parts)) + len(parts) - 1


def test_delete_leaf_examples():
    assert delete_leaf(CORolla3, 1) == T1
    assert delete_leaf((T1, LEAF), 0) == T1
    assert type(delete_leaf((T1, LEAF), 2)) is tuple
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
        for t in enumerate_params("planar", n):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    assert (delete_leaf(delete_leaf(t, j), i)
                            == delete_leaf(delete_leaf(t, i), j - 1))


def test_binary_closed_under_deletion():
    for n in range(2, 6):
        for t in enumerate_params("binary", n):
            for i in range(n + 1):
                assert is_binary(delete_leaf(t, i))


def test_orientations_on_reference_tree():
    # an interior position reads the orientation of its leaf; the two
    # boundary positions follow the grafting rule, tested below
    psi = (LEAF, LEAF, T1)
    assert symbol(psi, 1) == MIDDLE
    assert symbol(psi, 2) == LEFT
    nested = (LEAF, T1, LEAF)
    assert symbol(nested, 1) == LEFT
    assert symbol(nested, 2) == RIGHT


def test_boundary_symbols_on_reference_tree():
    psi = (LEAF, LEAF, T1)  # psi_0 = psi_1 = leaf, psi_2 = T1, k = 2
    assert symbol(psi, 0) == MIDDLE       # |psi_0| = 0, k > 1
    assert symbol(psi, 1) == MIDDLE       # orientation of leaf 1
    assert symbol(psi, 2) == LEFT         # orientation of leaf 2
    assert symbol(psi, 3) == LEFT         # terminal: |psi_k| = 1 > 0
    comb = (T1, LEAF)
    assert symbol(comb, 0) == RIGHT       # |psi_0| = 1 > 0
    assert symbol(comb, 2) == RIGHT       # terminal: k = 1, |psi_1| = 0
    assert symbol(T1, 0) == LEFT          # |psi_0| = 0, k = 1
    assert symbol(CORolla3, 2) == MIDDLE  # terminal: |psi_k| = 0, k > 1


def test_boundary_symbol_total():
    # exactly one case fires for every tree and every position
    for n in range(1, 5):
        for t in enumerate_params("planar", n):
            for i in range(n + 1):
                assert symbol(t, i) in (LEFT, RIGHT, MIDDLE)
            with pytest.raises(ValueError):
                face(t, n + 1)


def test_tree_text_is_injective():
    assert tree_text(CORolla3) == "(|,|,|)"
    assert tree_text((LEAF, T1)) == "(|,(|,|))"
    for n in range(1, 8):
        for trees in (enumerate_params(kind, n) for kind in TREE_KINDS):
            assert len({tree_text(t) for t in trees}) == len(trees)


def test_unary_vertex_rejected():
    for t in ((LEAF,), (T1, (LEAF,)), ((LEAF, T1),)):
        with pytest.raises(ValueError, match="is not a tree$"):
            _weight(t)


def test_non_tree_child_and_weight_zero_rejected():
    for t in ((LEAF, 5), (T1, (LEAF, "ab")), (LEAF, [LEAF, LEAF])):
        with pytest.raises(ValueError, match="is not a tree$"):
            _weight(t)
    for kind in ("planar", "binary"):
        with pytest.raises(ValueError,
                           match="^n must be an int >= 1, got 0$"):
            enumerate_params(kind, 0)


def test_tree_is_its_tuple_of_children():
    # every vertex of every tree of the families is a plain tuple, so
    # equality, hashing and order are tuple's, implemented in C
    def plain(t):
        return type(t) is tuple and all(map(plain, t))

    for n in range(1, 6):
        for kind in TREE_KINDS:
            assert all(map(plain, enumerate_params(kind, n)))
    assert hash(T1) == hash(((), ())) and LEAF == ()


@pytest.mark.parametrize("plain", [((), ()), ((), ((), ())),
                                   (((), ()), (), ())],
                         ids=["corolla2", "right-comb", "left-corolla"])
def test_plain_tuple_tree_is_read_or_refused_by_name(plain):
    # a tuple built here equals the enumerated tree, and every reader
    # takes it as that tree: r_zero (R_0 on the parts (1, ..., 1) keeps
    # every leaf), tree_text, param_text and face at each leaf
    n = _leaves(plain) - 1
    tree = next(t for t in enumerate_params("planar", n) if t == plain)
    assert tree is not plain
    assert tree_text(plain) == param_text("planar", plain) == tree_text(tree)
    assert r_zero("planar", (1,) * n, plain) == tree
    for i in range(n + 1):
        assert face(plain, i) == face(tree, i)


@pytest.mark.parametrize("t", [[(), ()], ((), [(), ()]), ((),), ((), ((),)),
                               5, ((), 5)],
                         ids=["list", "nested-list", "one-child",
                              "nested-one-child", "int", "int-child"])
def test_non_tree_is_refused_by_every_reader(t):
    # the one judge, _weight, refuses what is not a tree, and face and
    # tree_text read a tree through it, so neither returns on a list
    for read in (_weight, tree_text, lambda t: face(t, 0)):
        with pytest.raises(ValueError, match="is not a tree$"):
            read(t)
    with pytest.raises(ValueError, match="is not an element of the planar "
                                         "family$"):
        param_text("planar", t)


def test_canonical_tree_order_is_pinned():
    # the order of the tree families, which fixes every canonical index
    text = "".join(tree_text(t) + "\n" for n in range(1, 8)
                   for kind in ("planar", "binary")
                   for t in enumerate_params(kind, n))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fc6bfa9b3eb8dc48cc7d7c40082d4643f07337723d7a846be5b55857405f4b6c")
