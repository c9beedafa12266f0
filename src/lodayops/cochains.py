"""Cochains and the operad structure on them.

A degree-n cochain over an algebra A of dimension d is a total map

    (element of U_n, n-tuple of basis indices)  ->  A,

stored sparsely as its nonzero coefficients, keyed by the flat index

    (u_idx * d^n + input tuple read in base d) * d + output index,

which is also the row and column coordinate of the matrix of d.  A cochain
is never changed after construction, and no zero coefficient is stored.
The degree of a cochain is n >= 1; its shifted degree is |x| = n - 1.
Composition gamma is driven by the pre-operadic index tables; braces, the
comp/bracket/dot operations and the differential follow the graded sign
conventions

    x{x_1,...,x_n} = sum over order-preserving substitutions, sign
                     (-1)^(sum |x_p| * i_p) with i_p the number of inputs
                     in front of x_p,
    x o y   = x{y},
    [x, y]  = x o y - (-1)^(|x||y|) y o x,
    x . y   = (-1)^(deg x) m{x, y},
    d x     = [m, x],

for a multiplication m (a degree-2 cochain with m o m = 0).

Each result of gamma, brace, bracket and dot (so also of circ), and each
sum of cochains, builds up in one dict keyed by the result's flat cell
index, the form of ``Cochain.cells``: its keys are the cells some term
touched, so the dict is a sparse accumulator and nothing walks the cells no
term reaches.  Terms are added and multiplied with the plain operators, and
one collect step per result, the field's ``collect``, reduces each touched
cell mod p over F_p and drops the zeros.  Each operand is grouped once per
operation: the left factor into rows by (parameter, inputs), each right
factor into options by (parameter, output), which every slot choice of a
brace then reads.  So a
result costs O(terms + touched cells), however large cochain_dim is.

d x is the matrix of d (``cohomology.matrix_of_d``, cached on the context)
applied to the cells of x; ``bracket(ctx.pi, x)`` is the independent route
to the same d through the brace kernel.
"""

from functools import lru_cache
from itertools import combinations, product

from .algebra import PI_OPS
from .fields import _all_at_least, _at_least, _mapping, _scalars
from .params import TREE_KINDS, _family, enumerate_params, family_size
from .preoperadic import r_index_tables
from .trees import face


class Cochain:
    """A degree-n cochain: ``cells`` maps each flat index to its nonzero
    coefficient.  The constructor keeps its own copy of the cells given,
    each value read through ``field.from_fraction`` and the zeros dropped.
    A degree that is not an int >= 1, cells that are not a mapping, a key
    that is not an int in ``range(cochain_dim(alg, degree))``, or a value
    that is not a scalar of the field, raises ValueError."""

    __slots__ = ("alg", "degree", "cells")

    def __init__(self, alg, degree, cells):
        _at_least(degree, 1, "degree")
        # cochain_dim through the private cache of U_n, which is not traced
        size = len(_family(alg.kind, degree)[0]) * alg.dim ** (degree + 1)
        _all_at_least(_mapping(cells, "cells"), 0, "cochain key", size - 1)
        self.alg = alg
        self.degree = degree
        self.cells = _scalars(cells, alg.field, "cochain")

    @property
    def shifted(self):
        return self.degree - 1

    @property
    def table(self):
        """Dense view [u_idx][input tuple flattened][output], built anew on
        each access; writing to it does not change the cochain."""
        d = self.alg.dim
        width = d ** self.degree
        z = self.alg.field.zero
        get = self.cells.get
        return [[[get((u_idx * width + flat) * d + out, z)
                  for out in range(d)]
                 for flat in range(width)]
                for u_idx in range(family_size(self.alg.kind, self.degree))]

    def is_zero(self):
        return not self.cells

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.alg == other.alg
                and self.degree == other.degree and self.cells == other.cells)

    def __add__(self, other):
        return _signed_sum(self.alg, self.degree,
                           ((False, self), (False, other)))

    def __sub__(self, other):
        return _signed_sum(self.alg, self.degree,
                           ((False, self), (True, other)))

    def scaled(self, c):
        """c times this cochain; c is read through ``field.from_fraction``,
        as a cell is."""
        c = self.alg.field.from_fraction(c)
        return _collected(self.alg, self.degree,
                          {i: c * a for i, a in self.cells.items()})

    def __neg__(self):
        return self.scaled(-1)

    def entries(self):
        """Yield (u_idx, input_tuple, out_idx, coeff) over nonzero cells,
        in increasing flat index."""
        d = self.alg.dim
        n = self.degree
        inputs = _input_tuples(d, n)
        for i in sorted(self.cells):
            rest, out = divmod(i, d)
            u_idx, flat = divmod(rest, d ** n)
            yield u_idx, inputs[flat], out, self.cells[i]

    def __repr__(self):
        return "Cochain(%s, degree=%d)" % (self.alg, self.degree)


def _over(alg, x, name):
    """The operand ``x`` if it is a Cochain over ``alg``, or over any
    algebra when ``alg`` is None: the one judge of every operand of the
    operations on cochains.  Anything else raises ValueError, naming the
    operand ``name`` and the type it got, or a cochain of another
    algebra."""
    if not isinstance(x, Cochain):
        raise ValueError("%s must be a Cochain, not %s"
                         % (name, type(x).__name__))
    if alg is not None and x.alg != alg:
        raise ValueError("cochain of another algebra")
    return x


def _all_over(alg, xs, name, item):
    """``_over`` of each operand in ``xs``, as ``item``; an ``xs`` that is
    no list or tuple raises ValueError, naming ``name`` and its type."""
    if not isinstance(xs, (list, tuple)):
        raise ValueError("%s must be a list or a tuple, not %s"
                         % (name, type(xs).__name__))
    return [_over(alg, x, item) for x in xs]


def _signed_sum(alg, n, terms):
    """The degree-n cochain summing ``terms``, pairs (negative, cochain),
    through one collect step at the end.  A term over another algebra or of
    another degree raises ValueError."""
    cells = {}
    get = cells.get
    for negative, x in terms:
        if _over(alg, x, "term").degree != n:
            raise ValueError("cochains of different degrees")
        for i, c in x.cells.items():
            cells[i] = get(i, 0) - c if negative else get(i, 0) + c
    return _collected(alg, n, cells)


def _collected(alg, n, cells):
    """The degree-n cochain of accumulated ``cells``, a dict from flat index
    to a sum built with the plain operators, through the field's collect
    step.  The keys of a result the library built are in range by
    construction, so they are not judged again."""
    x = Cochain.__new__(Cochain)
    x.alg = alg
    x.degree = n
    x.cells = alg.field.collect(cells)
    return x


def cochain_dim(alg, n):
    """Number of coefficients of a degree-n cochain: |U_n| * d^(n+1)."""
    return family_size(alg.kind, n) * alg.dim ** (n + 1)


def zero_cochain(alg, n):
    return Cochain(alg, n, {})


def random_cochain(alg, n, rng):
    """Seeded random cochain with integer coefficients in -3..3."""
    return Cochain(alg, n, {i: rng.randint(-3, 3)
                            for i in range(cochain_dim(alg, n))})


def identity_cochain(alg):
    """The operad unit: value x at (r; x) for every r in U_1."""
    d = alg.dim
    return Cochain(alg, 1, {(u_idx * d + i) * d + i: 1
                            for u_idx in range(family_size(alg.kind, 1))
                            for i in range(d)})


def canonical_multiplication(alg):
    """The type's multiplication cochain pi in degree 2: at the u-th element
    of U_2 its value on (e_i, e_j) is the sum of e_i op e_j over the
    operations ``PI_OPS[type][u]``, built from the nonzero structure
    constants only."""
    d = alg.dim
    cells = {}
    get = cells.get
    for u_idx, ops in enumerate(PI_OPS[alg.type_tag]):
        for op in ops:
            for (i, j), row in alg.tables[op].items():
                base = ((u_idx * d + i) * d + j) * d
                for k, c in row.items():
                    cells[base + k] = get(base + k, 0) + c
    return _collected(alg, 2, cells)


# -- composition -------------------------------------------------------------

@lru_cache(maxsize=None)
def _composition_data(kind, parts):
    """Index tables for gamma: the output parameters grouped by their R_0
    image, the group of u at index u, and the R_1..R_k tables."""
    r0, part_tables = r_index_tables(kind, parts)
    groups = tuple([] for _ in range(family_size(kind, len(parts))))
    for u_idx, i0 in enumerate(r0):
        groups[i0].append(u_idx)
    return groups, part_tables


def _rows(f):
    """The nonzero cells of f as rows (u_idx, input tuple, [(out, coeff)])."""
    d = f.alg.dim
    rows = {}
    for i, a in f.cells.items():
        rest, out = divmod(i, d)
        rows.setdefault(rest, []).append((out, a))
    width = d ** f.degree
    inputs = _input_tuples(d, f.degree)
    return [(rest // width, inputs[rest % width], vec)
            for rest, vec in rows.items()]


def _options(g):
    """The nonzero cells of g grouped by (parameter, output):
    {u_idx * d + out: [(flat input index, coeff)]}."""
    d = g.alg.dim
    width = d ** g.degree
    options = {}
    for i, coeff in g.cells.items():
        rest, out = divmod(i, d)
        u_idx, flat = divmod(rest, width)
        options.setdefault(u_idx * d + out, []).append((flat, coeff))
    return options


def _placed(options, place):
    """The options with their input block moved to ``place``: each flat
    input index becomes its offset in the composite's flat cell index."""
    return {key: [(flat * place, coeff) for flat, coeff in pairs]
            for key, pairs in options.items()}


def _places(d, parts):
    """The flat-index weight of each slot's input block in a composite
    whose slots have degrees ``parts``; the output index is the last digit."""
    place = d ** (sum(parts) + 1)
    places = []
    for n in parts:
        place //= d ** n
        places.append(place)
    return places


def gamma(f, gs):
    """Operadic composition gamma(f; g_1,...,g_k) of degree sum(deg g_i).

    The value at (r; x_1..x_N) is f at R_0(r) applied to the g_i evaluated
    at (R_i(r), i-th input block).  Assembly iterates the nonzero cells of f
    and of the g_i and touches only the cells their products reach, so
    sparse factors compose cheaply.
    """
    alg = _over(None, f, "f").alg
    gs = _all_over(alg, gs, "gs", "g")
    if len(gs) != f.degree:
        raise ValueError("gamma needs exactly deg f arguments")
    parts = tuple(g.degree for g in gs)
    places = _places(alg.dim, parts)
    cells = {}
    _gamma_into(cells, alg, _rows(f), parts,
                [_placed(_options(g), place) for g, place in zip(gs, places)],
                places, False)
    return _collected(alg, sum(parts), cells)


def _gamma_into(cells, alg, rows, parts, slots, places, negate):
    """Accumulate (+/-) gamma(f; g_1..g_k) into ``cells`` with the plain
    operators, for ``_collected`` to reduce.

    ``rows`` are f's rows (``_rows``); slot t has degree ``parts[t]``, its
    input block sits at ``places[t]``, and ``slots[t]`` holds g_t's options
    placed there (``_placed``), or ``None`` for the operad unit.  The unit
    has the value e_c at (u; c) for every u in U_1, so a unit slot moves f's
    input c in that slot to the same place of the output's inputs: a fixed
    offset ``c * place`` per row of f, with no lookup and no factor.  At
    least one slot must hold options.
    """
    d = alg.dim
    get = cells.get
    groups, part_tables = _composition_data(alg.kind, parts)
    stride = d ** (sum(parts) + 1)     # flat-index width of one parameter
    units = [(t, places[t]) for t, opts in enumerate(slots) if opts is None]
    factors = [(opts, part_tables[t], t) for t, opts in enumerate(slots)
               if opts is not None]
    by_key, table, t0 = factors[0]
    more = factors[1:]
    for u_idx, ctuple, vec in rows:
        if negate:
            vec = [(o, -a) for o, a in vec]
        shift = 0
        for t, place in units:
            shift += ctuple[t] * place
        c = ctuple[t0]
        for out_u in groups[u_idx]:
            combos = by_key.get(table[out_u] * d + c)
            if not combos:
                continue
            # multiply out the other cochain slots: [(offset, coeff)]
            for by_key2, table2, t2 in more:
                opts = by_key2.get(table2[out_u] * d + ctuple[t2])
                if not opts:
                    break
                combos = [(p + q, a * b) for p, a in combos for q, b in opts]
            else:
                base = out_u * stride + shift
                for o, a in vec:
                    pos = base + o
                    for contrib, coeff in combos:
                        i = pos + contrib
                        cells[i] = get(i, 0) + coeff * a


@lru_cache(maxsize=None)
def _input_tuples(d, n):
    """Every n-tuple of basis indices, indexed by its flat value in base d."""
    return tuple(product(range(d), repeat=n))


# -- braces and derived operations -------------------------------------------

def _brace_into(cells, x, xs, negate):
    """Accumulate (+/-) x{x_1,...,x_n} into ``cells``, for 1 <= n <= deg x.
    x is grouped into rows and each x_p into options once; each slot choice
    places the options at its input blocks and leaves the operad unit,
    ``None``, in the free slots."""
    k = x.degree
    rows = _rows(x)
    options = [_options(g) for g in xs]
    for chosen in combinations(range(k), len(xs)):
        parts = [1] * k
        for p, s in enumerate(chosen):
            parts[s] = xs[p].degree
        places = _places(x.alg.dim, parts)
        slots = [None] * k
        eps = 0
        consumed = 0
        for p, s in enumerate(chosen):
            slots[s] = _placed(options[p], places[s])
            inputs_before = (s - p) + consumed
            eps += xs[p].shifted * inputs_before
            consumed += xs[p].degree
        _gamma_into(cells, x.alg, rows, tuple(parts), slots, places,
                    negate != (eps % 2 == 1))


def brace(x, xs):
    """x{x_1,...,x_n}: signed sum over all order-preserving substitutions.

    With n > deg x there is no substitution and the result is the zero
    cochain of the formal degree (sum deg x_p) + deg x - n.
    """
    alg = _over(None, x, "x").alg
    xs = _all_over(alg, xs, "xs", "x_p")
    if not xs:
        return x
    n = sum(g.degree for g in xs) + x.degree - len(xs)
    if len(xs) > x.degree:
        return Cochain(alg, n, {})
    cells = {}
    _brace_into(cells, x, xs, False)
    return _collected(alg, n, cells)


def circ(x, y):
    """The comp operation x o y = x{y}."""
    return brace(x, [y])


def bracket(x, y):
    """[x, y] = x o y - (-1)^(|x||y|) y o x, of degree deg x + deg y - 1."""
    n = _over(None, x, "x").degree + _over(x.alg, y, "y").degree - 1
    cells = {}
    _brace_into(cells, x, [y], False)
    _brace_into(cells, y, [x], (x.shifted * y.shifted) % 2 == 0)
    return _collected(x.alg, n, cells)


class MultContext:
    """An algebra with its canonical multiplication pi.

    Construction verifies pi o pi = 0 and fails otherwise, so holding a
    context certifies that the differential below squares to zero.  The
    context memoises the matrices of d (``matrix_cache``, by degree).
    """

    def __init__(self, alg):
        self.alg = alg
        self.pi = canonical_multiplication(alg)
        self.matrix_cache = {}
        if not circ(self.pi, self.pi).is_zero():
            raise ValueError(
                "pi o pi != 0: the %s axioms fail for this algebra" % alg.type_tag)


def dot(ctx, x, y):
    """x . y = (-1)^(deg x) m{x, y}, of degree deg x + deg y; the sign is
    the sign of the brace's accumulation."""
    n = _over(ctx.alg, x, "x").degree + _over(ctx.alg, y, "y").degree
    cells = {}
    _brace_into(cells, ctx.pi, [x, y], x.degree % 2 == 1)
    return _collected(ctx.alg, n, cells)


def diff_d(ctx, x):
    """d x = [m, x] = m o x - (-1)^(|x|) x o m, raising degree by one: the
    matrix of d on deg x applied to the cells of x."""
    # a warm call reads the cache itself, so it calls no public function
    matrix = ctx.matrix_cache.get(_over(ctx.alg, x, "x").degree)
    if matrix is None:
        from .cohomology import matrix_of_d     # cohomology imports cochains
        matrix = matrix_of_d(ctx, x.degree)
    # x was judged when it was built, so its cells are not judged again
    return _collected(ctx.alg, x.degree + 1, matrix._product(x.cells))


# -- the explicit differential for dialgebras and trialgebras -----------------


@lru_cache(maxsize=None)
def _delta_data(kind, n):
    """The face table of the trees psi of weight n+1 of the tree family
    ``kind``: for each face i = 0..n+1, {index of d_i psi in U_n: [(psi,
    o_i)]}.  A face of a binary tree is binary, and its symbols are LEFT
    and RIGHT, so one face rule serves both families."""
    index = _family(kind, n)[1]
    table = tuple({} for _ in range(n + 2))
    for psi, t in enumerate(enumerate_params(kind, n + 1)):
        for i, pushes in enumerate(table):
            u, op = face(t, i)
            pushes.setdefault(index[u], []).append((psi, op))
    return table


def delta_trias(alg, f):
    """The deformation-style differential on dialgebra and trialgebra
    cochains:

        (delta f)(psi; a_1..a_{n+1}) =
              a_1 o_0 f(d_0 psi; a_2..a_{n+1})
            + sum_i (-1)^i f(d_i psi; a_1,..., a_i o_i a_{i+1}, ..., a_{n+1})
            + (-1)^(n+1) f(d_{n+1} psi; a_1..a_n) o_{n+1} a_{n+1}

    with the faces d_i psi and operation symbols o_i of ``trees.face``,
    whose names are the operations of the type: LEFT and RIGHT for dias,
    and MIDDLE too for trias.
    Face by face, each nonzero cell (u, b, o, c) of f, signed by (-1)^i,
    is pushed to every psi with d_i psi = u: face 0 multiplies e_x o_0 e_o
    for every x, face n+1 multiplies e_o o_{n+1} e_y for every y, and an
    interior face i puts every pair (x, y) whose product under o_i has a
    nonzero coefficient at b_i in place of b_i.  Face i without its sign
    is the coface delta^i of SIGN_NOTES.md.  Only the structure constants
    and the face table are read, never pi, so the comparison with
    d = [pi, -] is between independent computations.
    """
    if alg.kind not in TREE_KINDS:
        raise ValueError("the explicit differential is defined for dias and "
                         "trias only")
    n = _over(alg, f, "f").degree
    d = alg.dim
    width = d ** n
    # by op, {fixed index: [(row offset, coefficient)]}: e_x op e_o by o
    # for face 0, e_o op e_y by o for face n+1, e_x op e_y by its output k
    firsts, lasts, preimages = ({op: {} for op in alg.tables}
                                for _ in range(3))
    for op, table in alg.tables.items():
        for (x, y), row in table.items():
            for k, a in row.items():
                firsts[op].setdefault(y, []).append((x * width * d + k, a))
                lasts[op].setdefault(x, []).append((y * d + k, a))
                preimages[op].setdefault(k, []).append((x * d + y, a))
    # (u, b, o, c) per nonzero cell of f
    entries = [(*divmod(key // d, width), key % d, c)
               for key, c in f.cells.items()]
    negated = [(u, b, o, -c) for u, b, o, c in entries]
    stride = width * d * d      # rows per tree psi
    cells = {}
    get = cells.get
    for i, pushes in enumerate(_delta_data(alg.kind, n)):
        signed = negated if i % 2 else entries
        # per cell of f: its row offset, the key of its products, and c
        if i in (0, n + 1):
            options, scale = (firsts, d) if i == 0 else (lasts, d * d)
            placed = [(u, b * scale, o, c) for u, b, o, c in signed]
        else:
            place = d ** (n - i)        # weight of b_i in b
            block = place * d           # weight of b_(i-1)
            options = {op: {k: [(pair * block, a) for pair, a in pairs]
                            for k, pairs in inverse.items()}
                       for op, inverse in preimages.items()}
            placed = [(u, (b // block * block * d + b % place) * d + o,
                       b // place % d, c) for u, b, o, c in signed]
        for u, shift, k, c in placed:
            for psi, op in pushes.get(u, ()):
                base = psi * stride + shift
                for offset, a in options[op].get(k, ()):
                    cells[base + offset] = get(base + offset, 0) + c * a
    return _collected(alg, n + 1, cells)
