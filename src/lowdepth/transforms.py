"""Rewriting passes over the formula IR.

Every pass is equivalence-preserving (exact expansion equality, word-for-word
in non-commutative mode) and preserves homogeneity, syntactic monotonicity,
and the commutativity mode whenever it claims to.  Inputs are never mutated;
outputs may share subtrees with the input, and may hold one node object at
two positions: in depth_reduce_bb's a product sibling on the split path lands
in both the A and the C part, in depth_reduce_main's a reduced factor is used
by every term that multiplies it, and homogenize's components share the
component of a node with every product that convolves it.  Their bytes and
metrics are those of the tree.

The passes:

* binarize / collapse        shape normalization (fan-in 2 / strict +,* alternation)
* depth_reduce_bb            split-at-heavy-gate reduction with near-linear size:
                             depth O(log s) at size s^(1+eps)
* depth_reduce_main          potential-guided reduction: product depth bounded by
                             ceil(log2 d) + ceil(sum_depth/delta), size by s*d^delta;
                             one walk per level finds the frontier and rewrites
                             the skew region above it as a sum of products
* homogenize                 degree components of a formula
* product_fanin_2            rebalance products to fan-in 2 at unchanged leaf count
* depth_reduce_homogeneous, depth_reduce_nearlinear, pipeline_inhom
                             compositions reaching depth O(log d); pipeline_inhom
                             runs depth_reduce_homogeneous on a syntactically
                             homogeneous input and expands only a mixed-degree
                             input, to learn d

There is no representation for the zero polynomial (edge weights are
non-zero, there is no zero leaf), so passes that can observe cancellation
propagate "zero" internally and only fail if the entire input vanishes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalInvariantError, NotSemanticallyHomogeneous
from .fields import Field, Scalar
from .util import ceil_div, ceil_log2, run_recursive
from . import ir
from .ir import (
    Formula,
    Node,
    OneLeaf,
    ProdGate,
    SumGate,
    VarLeaf,
    is_gate,
    is_leaf,
)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def bb_branch_param(epsilon: Fraction | int | str) -> int:
    """Branch parameter k for the split recursion: max(4, 2^ceil(4/eps))."""
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    e = ceil_div(4 * eps.denominator, eps.numerator)
    return max(4, 2**e)


def bb_depth_bound(s: int, k: int) -> int:
    """Depth bound of depth_reduce_bb at size s and branch parameter k.

    s when s <= k, else bb_depth_bound(ceil((k-1)s/k) - 1, k) + 4:
    * a base case returns a fan-in-2 tree with at most s <= k leaves (with at
      most a fan-in-1 sum on top), so its depth is at most s;
    * alpha has k*size >= (k-1)*s and neither child of alpha does, so each
      child has at most ceil((k-1)s/k) - 1 leaves;
    * A, B and C lie outside alpha, so each has at most floor(s/k) leaves,
      no more than a child of alpha (the bound grows with s);
    * a level adds 4 gates above the reduced parts: the core alpha' = beta' op
      gamma', the products with A' and B', and the sum with C'.
    """
    levels = 0
    while s > k:
        s = ceil_div((k - 1) * s, k) - 1
        levels += 1
    return s + 4 * levels


def auto_delta(size: int, degree: int, sum_depth: int = 1) -> int:
    """delta = ceil(log2 size / log2 degree), exactly in integer arithmetic.

    Degree <= 1 leaves no product structure to split on; the sum depth itself
    is then the only useful block length.
    """
    if degree <= 1:
        return max(1, sum_depth)
    j = 1
    while degree**j < size:
        j += 1
    return j


def _phi(degree: int, sum_depth: int, delta: int) -> int:
    """The potential ceil(log2 degree) + ceil(sum_depth / delta): the first
    term tracks the degree, the second the sum depth per block of delta."""
    if degree < 1:
        raise ValueError("potential needs syntactic degree >= 1")
    return ceil_log2(degree) + ceil_div(sum_depth, delta)


# ---------------------------------------------------------------------------
# Node-level helpers
# ---------------------------------------------------------------------------

def scale_node(scalar: Scalar, node: Node, field: Field) -> Node:
    """Fold a scalar into a node.

    Sums rescale all edges, products rescale the first edge, leaves get a
    fan-in-1 sum wrapper (the only construction that may leave one behind).
    """
    if field.is_one(scalar):
        return node
    if isinstance(node, SumGate):
        return SumGate(tuple((field.mul(scalar, c), ch) for c, ch in node.children))
    if isinstance(node, ProdGate):
        (c0, ch0), rest = node.children[0], node.children[1:]
        return ProdGate(((field.mul(scalar, c0), ch0),) + rest)
    return SumGate(((scalar, node),))


def _as_constant(node: Node, field: Field) -> Scalar | None:
    """The scalar a constant-only node computes, or None for anything else."""
    if isinstance(node, OneLeaf):
        return field.one()
    if isinstance(node, SumGate) and all(isinstance(ch, OneLeaf) for _, ch in node.children):
        acc = field.zero()
        for c, _ in node.children:
            acc = field.add(acc, c)
        return acc
    return None


def _merge_constant_edges(edges: list, field: Field) -> list:
    """Merge parallel constant leaves of one sum into a single edge.

    Needed so no rewrite output has a subtree computing only constants; sums
    commute, so the reordering is sound in both modes.
    """
    const_positions = [i for i, (_, ch) in enumerate(edges) if isinstance(ch, OneLeaf)]
    if len(const_positions) <= 1:
        return edges
    total = field.zero()
    for i in const_positions:
        total = field.add(total, edges[i][0])
    keep = [e for i, e in enumerate(edges) if i not in const_positions]
    if not field.is_zero(total):
        keep.insert(const_positions[0], (total, OneLeaf()))
    return keep


# ---------------------------------------------------------------------------
# binarize
# ---------------------------------------------------------------------------

def _balance_edges(kind, edges: list, one: Scalar):
    """Balanced binary combination of a list of edges into a single edge."""
    if len(edges) == 1:
        return edges[0]
    mid = len(edges) // 2
    left = _balance_edges(kind, edges[:mid], one)
    right = _balance_edges(kind, edges[mid:], one)
    return (one, kind((left, right)))


def _binary(root: Node, constant_sums: bool) -> bool:
    """Whether every gate of root has fan-in exactly 2 and, when constant_sums
    is set, no sum has two constant leaves as its children.

    One scan with a stack and an id seen-set: it visits each node object once,
    however many positions share it, builds no postorder list, and stops at
    the first gate that fails.
    """
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is not SumGate and kind is not ProdGate or id(node) in seen:
            continue
        seen.add(id(node))
        children = node.children
        if len(children) != 2:
            return False
        (_, a), (_, b) = children
        if constant_sums and kind is SumGate and type(a) is OneLeaf and type(b) is OneLeaf:
            return False
        stack.append(a)
        stack.append(b)
    return True


def binarize(formula: Formula) -> Formula:
    """Equivalent formula with every gate at fan-in 2.

    Fan-in-1 gates are absorbed into the parent edge; wider gates split into
    balanced binary trees, preserving child order, degrees and signs, so
    homogeneity, monotonicity and the mode survive.  Leaf count never grows
    (it only shrinks when parallel constant leaves of one sum merge).  Two
    degenerate shapes keep a fan-in-1 sum at the root: a scaled bare leaf and
    a constant output.

    A fan-in-2 input with no sum of two constant leaves (which merge) is
    returned itself after one early-exit scan (_binary), with no walk.
    """
    if _binary(formula.root, constant_sums=True):
        return formula
    field = formula.field
    one = field.one()

    def fn(node: Node, vals: list) -> tuple[Scalar, Node]:
        if is_leaf(node):
            return (one, node)
        changed = False
        edges = []
        for (c, old), (cm, sub) in zip(node.children, vals):
            if sub is not old or not field.is_one(cm):
                changed = True
            edges.append((field.mul(c, cm), sub))
        if isinstance(node, SumGate):
            merged = _merge_constant_edges(edges, field)
            if merged is not edges:
                changed = True
                edges = merged
        if not edges:
            raise ValueError("formula computes the zero polynomial; cannot binarize")
        if len(edges) == 1:
            c, sub = edges[0]
            if not isinstance(sub, OneLeaf):
                return (c, sub)  # absorb the fan-in-1 gate into the parent edge
            return (one, SumGate(tuple(edges)))
        if len(edges) == 2 and not changed:
            return (one, node)
        return _balance_edges(type(node), edges, one)

    scalar, out = ir.node_attribute(formula.root, fn)[id(formula.root)]  # type: ignore[misc]
    return formula.with_root(scale_node(scalar, out, field))


def _fanin_2(formula: Formula) -> Formula:
    """formula itself when every gate has fan-in exactly 2, else
    binarize(formula).  The passes that need fan-in 2 call it.  Unlike
    binarize, it keeps a sum of two constant leaves as it is.  The test is
    binarize's scan, which stops at the first gate of another fan-in."""
    return formula if _binary(formula.root, constant_sums=False) else binarize(formula)


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------

class _Block:
    """A gate of collapse's output before it is built.  Its parts are (scalar,
    ref) edges; ref is a leaf, a block of the other kind or one of this kind,
    whose edges are inlined with the scalar multiplied into all of them (a
    sum) or the first (a product).  n counts the edges once constants merge,
    k those that are not constants; a sum's one constant left has value const
    and sits at the constant part place.  node is the gate once built."""

    __slots__ = ("kind", "parts", "n", "k", "const", "place", "node")

    def __init__(self, *fields):
        self.kind, self.parts, self.n, self.k, self.const, self.place, self.node = fields


def collapse(formula: Formula) -> Formula:
    """Flatten same-kind nesting: no sum feeds a sum, no product a product.

    Edge scalars multiply through per field axioms; fan-in-1 gates are
    absorbed.  Output alternates gate kinds, so depth is at most
    2 * product_depth + 1.  Leaf count never grows.  Each gate becomes a
    _Block bottom-up; only the blocks left in the output are built, top-down,
    each reading its edges from its top (_edges), so n nested sums cost O(n).
    """
    field = formula.field
    one, mul = field.one(), field.mul
    val: dict[int, tuple] = {}  # id(node) -> (scalar, leaf or _Block)
    for node in ir.postorder(formula.root):
        kind = type(node)
        if kind is not SumGate and kind is not ProdGate:
            val[id(node)] = (one, node)
            continue
        parts, consts = [], []  # consts: (value, place) of each constant edge, in order
        n = k = 0
        for c, child in node.children:
            m, ref = val[id(child)]
            part = (c if m is one else mul(c, m), ref)
            parts.append(part)
            if type(ref) is not _Block:
                n, k = n + 1, k + (type(ref) is not OneLeaf)
                if type(ref) is OneLeaf:
                    consts.append((part[0], part))
            elif ref.kind is kind:
                n, k = n + ref.n, k + ref.k
                if ref.const is not None:
                    consts.append((mul(part[0], ref.const), ref.place))
            else:
                n, k = n + 1, k + 1
        const = place = None
        if kind is SumGate and consts:
            const = consts[0][0]
            for c, _ in consts[1:]:
                const = field.add(const, c)
            if len(consts) > 1 and field.is_zero(const):
                const = None
            else:
                place = consts[0][1]
            n = k + (const is not None)
        if not n:
            raise ValueError("formula computes the zero polynomial; cannot collapse")
        b = _Block(kind, parts, n, k, const, place, None)
        val[id(node)] = _absorbed(b, one, mul) if n == 1 and k == 1 else (one, b)
    scalar, out = val[id(formula.root)]
    stack: list = [(out, None)] if type(out) is _Block else []
    while stack:  # build the blocks left, children first
        b, edges = stack.pop()
        if edges is not None:
            b.node = _gate(b.kind, edges)
        elif b.node is None:
            edges = _edges(b, one, mul)
            stack.append((b, edges))
            stack.extend([(r, None) for _, r in edges if type(r) is _Block])
    return formula.with_root(scale_node(scalar, out.node if type(out) is _Block else out, field))


def _gate(kind: type, edges: list) -> Node:
    return kind(tuple([(c, r.node if type(r) is _Block else r) for c, r in edges]))


def _absorbed(b: _Block, coef: Scalar, mul) -> tuple[Scalar, Node]:
    """The one edge, not a constant, that block b is left with, scaled by coef."""
    while True:
        for c, ref in b.parts:
            inlined = type(ref) is _Block and ref.kind is b.kind
            if (ref.k if inlined else type(ref) is not OneLeaf):
                break
        coef = mul(coef, c)
        if not inlined:
            return coef, ref
        b = ref


def _edges(b: _Block, one: Scalar, mul) -> list:
    """The edges of block b, its inlined blocks read from the top with an
    explicit stack: a sum scales every inlined edge, a product its first."""
    edges, work, place = [], [(one, part) for part in reversed(b.parts)], b.place
    while work:
        f, part = work.pop()
        c, ref = part
        if type(ref) is _Block and ref.kind is b.kind:
            c = mul(f, c)
            work.extend([(c, p) for p in reversed(ref.parts)] if b.kind is SumGate
                        else [(one, p) for p in reversed(ref.parts[1:])] + [(c, ref.parts[0])])
        elif type(ref) is not OneLeaf or b.kind is ProdGate:
            edges.append((mul(f, c), ref))
        elif part is place:  # the sum's one constant left
            edges.append((b.const, ref))
            place = None
    return edges


# ---------------------------------------------------------------------------
# Split-at-heavy-gate machinery
# ---------------------------------------------------------------------------

def _walk_split(root: Node, s: int, k: int) -> tuple[list[tuple[Node, int]], Node]:
    """The split gate and the path of (gate, child-index) pairs down to it.

    Exploits uniqueness: keep descending into the single child that still
    meets the threshold (two such children cannot both fit in s for k > 2,
    so seeing them means corrupt sizes).  The path is empty when the split
    gate is the root.
    """
    path: list[tuple[Node, int]] = []
    cur = root
    while True:
        # the threshold size >= s - s/k, exactly:  k*size >= (k-1)*s
        big = [i for i, (_, ch) in enumerate(cur.children) if k * ch.size >= (k - 1) * s]
        if len(big) > 1:
            raise InternalInvariantError("two children above the split threshold")
        if not big:
            return path, cur
        path.append((cur, big[0]))
        cur = cur.children[big[0]][1]


def _decompose_along(path: list[tuple[Node, int]], field: Field):
    """Split F = A * alpha * B + C along a root-to-alpha path.

    Returns (A, B, C) as pending values: None is the zero polynomial,
    (c, None) the constant c, and (c, node) the subformula node scaled by c.
    A is the product of the factors multiplying alpha on the left, top-down,
    times the edge weights on the path; B the right factors, bottom-up.  Both
    are balanced fan-in-2 products over the factors (the constant one when
    there are none).  C is F with alpha set to zero (None when it vanishes);
    its new gates have the fan-in of the path gates they replace.
    """
    one = field.one()
    ps = one
    a_edges: list = []
    b_groups: list[list] = []
    for g, i in path:
        ps = field.mul(ps, g.children[i][0])
        if isinstance(g, ProdGate):
            a_edges.extend(g.children[:i])
            b_groups.append(list(g.children[i + 1:]))
    b_edges = [e for group in reversed(b_groups) for e in group]

    def product(scalar: Scalar, edges: list):
        if not edges:
            return (scalar, None)
        c, node = _balance_edges(ProdGate, edges, one)
        return (field.mul(scalar, c), node)

    c_val = None  # zero at alpha itself
    for g, i in reversed(path):
        cp = g.children[i][0]
        if isinstance(g, ProdGate):
            if c_val is None:
                continue  # zero factor kills the product
            cv, cn = c_val
            sc = field.mul(cp, cv)
            others = g.children[:i] + g.children[i + 1:]
            if cn is None:
                if len(others) == 1:
                    c_val = (field.mul(sc, others[0][0]), others[0][1])
                else:
                    c_val = (sc, ProdGate(others))
            else:
                edges = g.children[:i] + ((one, cn),) + g.children[i + 1:]
                c_val = (sc, ProdGate(edges))
        else:
            const = field.zero()
            node_parts: list = []
            for j, (cj, chj) in enumerate(g.children):
                if j == i:
                    if c_val is None:
                        continue
                    cv, cn = c_val
                    sc = field.mul(cj, cv)
                    if cn is None:
                        const = field.add(const, sc)
                    else:
                        node_parts.append((sc, cn))
                elif isinstance(chj, OneLeaf):
                    const = field.add(const, cj)
                else:
                    node_parts.append((cj, chj))
            if not node_parts:
                c_val = None if field.is_zero(const) else (const, None)
            else:
                if not field.is_zero(const):
                    node_parts.append((const, OneLeaf()))
                if len(node_parts) == 1 and not isinstance(node_parts[0][1], OneLeaf):
                    c_val = node_parts[0]
                else:
                    c_val = (one, SumGate(tuple(node_parts)))
    return product(ps, a_edges), product(one, b_edges), c_val


def depth_reduce_bb(formula: Formula, epsilon: Fraction | int | str = Fraction(1, 2)) -> Formula:
    """Depth O(log s) at size about s^(1+eps), fan-in 2 throughout.

    Recursively splits at the unique heavy gate alpha: with F = A*alpha*B + C
    and alpha = beta op gamma, the output combines the recursively reduced
    pieces as ((A' x (beta' op gamma')) x B') + C'.  Formulas of size at most
    the branch parameter k = max(4, 2^ceil(4/eps)) are returned unchanged.
    Homogeneity, monotonicity, mode, and the syntactic degree bound are
    preserved.  The output is checked against its contract: depth within
    bb_depth_bound, syntactic degree unchanged (InternalInvariantError).

    The input goes through binarize once, which returns a fan-in-2 input
    after one scan.  The parts A, B and C are then fan-in 2 by construction
    (their subtrees come from the binarized input or from earlier parts), so
    the recursion runs on them as built.  The split reads the leaf count
    every node carries, so no level counts leaves.
    """
    eps = Fraction(epsilon)
    k = bb_branch_param(eps)
    field = formula.field
    one = field.one()

    def reduce_node(node: Node):
        s = node.size
        if s <= k:
            return node
        path, alpha = _walk_split(node, s, k)
        if not is_gate(alpha) or len(alpha.children) != 2:
            raise InternalInvariantError("split walk must end on a fan-in-2 gate")
        (sa, a), (sb, b), c_val = _decompose_along(path, field)

        (cb, beta), (cg, gamma) = alpha.children
        body: Node = type(alpha)(((cb, (yield beta)), (cg, (yield gamma))))
        if a is not None:
            body = ProdGate(((one, (yield a)), (one, body)))
        if b is not None:
            body = ProdGate(((one, body), (one, (yield b))))
        sc = field.mul(sa, sb)
        if c_val is None:
            return scale_node(sc, body, field)
        cv, cn = c_val
        if cn is None:
            return SumGate(((sc, body), (cv, OneLeaf())))
        return SumGate(((sc, body), (cv, (yield cn))))

    root = run_recursive(reduce_node, binarize(formula).root)
    if root.depth > bb_depth_bound(formula.root.size, k):
        raise InternalInvariantError(f"bb output depth {root.depth} above its bound")
    if root.syn_degree != formula.root.syn_degree:
        raise InternalInvariantError("bb changed the syntactic degree")
    return formula.with_root(root)


# ---------------------------------------------------------------------------
# Potential-guided reduction
# ---------------------------------------------------------------------------

def _potential(node: Node, delta: int) -> int:
    """_phi of a node from the degree and sum depth it carries; 0 on a
    constant (degree 0), which has no potential to reduce."""
    return _phi(node.syn_degree, node.sum_depth, delta) if node.syn_degree else 0


def _below(phi_root: int, delta: int):
    """The frontier test of the region below a node of potential phi_root >= 1:
    is a (non-constant) node's potential below phi_root?"""

    def is_factor(node: Node) -> bool:
        if not node.syn_degree:
            raise InternalInvariantError("potential undefined below the frontier")
        p = _potential(node, delta)
        if p > phi_root:
            raise InternalInvariantError("potential must not grow downward")
        return p < phi_root

    return is_factor


def _sigma_pi_terms(root: Node, is_factor, field: Field):
    """Distribute the skew region below the gate root into sum-of-products
    terms, in one walk from the root.

    Each child is classified once: a 1-leaf is a constant, a node is_factor
    marks is a factor (the region's boundary), and any other node is interior.
    A path carries its coefficient (every edge scalar met on the way) and the
    factors met to its left and to its right.  A sum forks the path into its
    children, in order; a product multiplies in its edge scalars, adds its
    factors to the left or right and goes on into its one interior child, or
    ends the path when it has none.  The region is skew, so a second interior
    child breaks an invariant.  Returns merged (coefficient, factor tuple)
    terms with zero coefficients dropped, factors in the order of the tree.

    Paths merge when they end with the factors of one step, the last step that
    added any (0 before the first): on a tree that is when their factor
    objects are the same, and a node object at two positions, which the walk
    reaches by two paths, gives the terms of the tree it unfolds to.
    """
    merged: dict[int, list] = {}
    # (coefficient, left factors, right factors, interior node or None once
    # the path has ended, the step that last added factors)
    stack: list = [(field.one(), (), (), root, 0)]
    steps = 0
    while stack:
        coef, left, right, node, step = stack.pop()
        if node is None:
            if step in merged:
                merged[step][0] = field.add(merged[step][0], coef)
            else:
                merged[step] = [coef, left + right]
        elif type(node) is SumGate:
            for c, ch in reversed(node.children):  # popped in tree order
                if type(ch) is OneLeaf:
                    stack.append((field.mul(coef, c), left, right, None, step))
                elif is_factor(ch):
                    steps += 1
                    stack.append((field.mul(coef, c), left + (ch,), right, None, steps))
                else:
                    stack.append((field.mul(coef, c), left, right, ch, step))
        else:
            before, after, inner = [], [], None
            for c, ch in node.children:
                coef = field.mul(coef, c)
                if type(ch) is OneLeaf:
                    continue
                if is_factor(ch):
                    (before if inner is None else after).append(ch)
                elif inner is None:
                    inner = ch
                else:
                    raise InternalInvariantError("a product with two interior children")
            if before or after:
                steps += 1
                step = steps
            stack.append((coef, left + tuple(before), tuple(after) + right, inner, step))
    return [(c, fs) for c, fs in merged.values() if not field.is_zero(c)]


def depth_reduce_main(formula: Formula, delta: int | str) -> Formula:
    """Potential-guided parallelization of a formula, binarized first unless
    every gate has fan-in 2 (the bounds need products of fan-in exactly 2).

    Output product depth is at most ceil(log2 d) + ceil(sum_depth/delta) and
    leaf count at most size * d^delta; both are asserted per run, as is that
    the syntactic degree never grows.  delta "auto" is auto_delta of the
    input's size, degree and sum depth.  Homogeneity, monotonicity and the
    mode are preserved.  Output gates have arbitrary fan-in; collapse
    afterwards for the alternating form of depth <= 2 * product_depth + 1.
    """
    return _reduce_main(formula, delta)[0]


def _reduce_main(formula: Formula, delta: int | str,
                 fanin_2: bool = False) -> tuple[Formula, int, tuple[int, int]]:
    """depth_reduce_main, plus its delta and its (product depth, size) bounds;
    fanin_2 says that every gate of formula has fan-in 2 already."""
    if delta != "auto" and int(delta) < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if not fanin_2:
        formula = _fanin_2(formula)
    field = formula.field
    m_in = ir.metrics(formula)
    if delta == "auto":
        delta = auto_delta(m_in.size, m_in.syn_degree, m_in.sum_depth)
    delta = int(delta)
    d = max(m_in.syn_degree, 1)  # a constant input gets the bounds of d = 1
    bounds = (_phi(d, m_in.sum_depth, delta), m_in.size * d**delta)
    if m_in.syn_degree == 0:
        return formula, delta, bounds  # constant output gate, already depth <= 1

    def reduce_node(node: Node):
        phi = _potential(node, delta)
        if not phi:
            return node  # a leaf, a gate of potential 0, or a degree-0 output gate
        # the region down to the frontier is skew: two interior children of a
        # product would each need ceil_log2(d_i) >= ceil_log2(d_1 + d_2)
        terms = _sigma_pi_terms(node, _below(phi, delta), field)
        reduced: dict[int, Node | None] = {}
        summands: list = []
        const_acc = field.zero()
        have_const = False
        for coef, fs in terms:
            parts: list[Node] = []
            for f in fs:
                if id(f) not in reduced:
                    # a leaf factor (potential 0) reduces to itself: no generator
                    reduced[id(f)] = (yield f) if _potential(f, delta) else f
                r = reduced[id(f)]
                if r is None:
                    break  # a vanished factor kills the term
                rc = _as_constant(r, field)
                if rc is not None:
                    coef = field.mul(coef, rc)
                    continue
                parts.append(r)
            else:
                if not parts:
                    const_acc = field.add(const_acc, coef)
                    have_const = True
                elif len(parts) == 1:
                    summands.append((coef, parts[0]))
                else:
                    summands.append((coef, ProdGate(tuple((field.one(), p) for p in parts))))
        if have_const and not field.is_zero(const_acc):
            summands.append((const_acc, OneLeaf()))
        if not summands:
            return None
        if len(summands) == 1 and not isinstance(summands[0][1], OneLeaf):
            c, sub = summands[0]
            return scale_node(c, sub, field)
        return SumGate(tuple(summands))

    out_root = run_recursive(reduce_node, formula.root)
    if out_root is None:
        raise ValueError("formula computes the zero polynomial; no formula represents it")
    out = formula.with_root(out_root)

    m_out = ir.metrics(out)
    if m_out.product_depth > bounds[0]:
        raise InternalInvariantError(
            f"product depth {m_out.product_depth} above potential bound {bounds[0]}"
        )
    if m_out.size > bounds[1]:
        raise InternalInvariantError(
            f"size {m_out.size} above bound {m_in.size} * {m_in.syn_degree}^{delta}"
        )
    if m_out.syn_degree > m_in.syn_degree:
        raise InternalInvariantError("syntactic degree grew")
    return out, delta, bounds


# ---------------------------------------------------------------------------
# Degree components
# ---------------------------------------------------------------------------

def homogenize(formula: Formula, target_d: int) -> list[Formula | None]:
    """Degree components 0..target_d of a formula, binarized first unless every
    gate has fan-in 2.

    Component i is a homogeneous formula of syntactic degree exactly i, or
    None when no parse tree contributes that degree; the present components
    sum to the input polynomial whenever target_d covers its degree.  Sums
    split componentwise; products convolve the components of their children
    (left factors stay left, so non-commutative values survive).  Product
    depth never grows and the total leaf count obeys the hard bound
    size * C(product_depth + target_d + 1, target_d).
    """
    if target_d < 0:
        raise ValueError("target degree must be >= 0")
    return _components(_fanin_2(formula), target_d)


def _components(formula: Formula, target_d: int) -> list[Formula | None]:
    """homogenize of a formula whose gates all have fan-in 2."""
    field = formula.field
    one = field.one()
    m_in = ir.metrics(formula)

    # a node's attribute maps each degree it has, up to target_d and in
    # ascending order, to its component there: a scalar at degree 0, a node
    # above; a product convolves only the degrees its children have
    def comps(node: Node, vals: list) -> dict:
        kind = type(node)
        if kind is VarLeaf:
            return {1: node} if target_d else {}
        if kind is OneLeaf:
            return {0: one}
        parts: dict[int, list] = {}
        if kind is SumGate:
            for (c, _), sub in zip(node.children, vals):
                for i, comp in sub.items():
                    parts.setdefault(i, []).append((c, comp))
        else:
            (cl, _), (cr, _) = node.children
            coef = field.mul(cl, cr)
            left, right = vals
            for j, a in left.items():
                for k, b in right.items():
                    if j + k > target_d:
                        break
                    if not j and not k:
                        part = (coef, field.mul(a, b))
                    elif not j:
                        part = (field.mul(coef, a), b)
                    elif not k:
                        part = (field.mul(coef, b), a)
                    else:
                        part = (coef, ProdGate(((one, a), (one, b))))
                    parts.setdefault(j + k, []).append(part)
        out = {}
        for i in sorted(parts):
            ps = parts[i]
            if i == 0:
                acc = field.zero()
                for c, v in ps:
                    acc = field.add(acc, field.mul(c, v))
                if not field.is_zero(acc):
                    out[0] = acc
            elif len(ps) == 1:
                out[i] = scale_node(ps[0][0], ps[0][1], field)
            else:
                out[i] = SumGate(tuple(ps))
        return out

    root_comps = ir.node_attribute(formula.root, comps)[id(formula.root)]
    components: list[Formula | None] = [None] * (target_d + 1)
    for i, val in root_comps.items():  # type: ignore[union-attr]
        components[i] = formula.with_root(SumGate(((val, OneLeaf()),)) if i == 0 else val)

    total = 0
    for i, comp_f in enumerate(components):
        if comp_f is None:
            continue
        if not ir.is_homogeneous(comp_f):
            raise InternalInvariantError(f"component {i} is not homogeneous")
        m = ir.metrics(comp_f)
        total += m.size
        if i > 0 and m.syn_degree != i:
            raise InternalInvariantError(f"component {i} has degree {m.syn_degree}")
        if m.product_depth > m_in.product_depth:
            raise InternalInvariantError("component product depth grew")
    bound = m_in.size * math.comb(m_in.product_depth + target_d + 1, target_d)
    if total > bound:
        raise InternalInvariantError(f"total component size {total} above bound {bound}")
    return components


# ---------------------------------------------------------------------------
# Product fan-in 2
# ---------------------------------------------------------------------------

def _fanin_2_product(edges: list, field: Field, one: Scalar) -> tuple[Scalar, Node]:
    """(scalar, fan-in-2 product) of edges, ((scalar, input child), value of
    the child) pairs; a module function, so that its recursion makes no cycle."""
    if len(edges) == 1:
        (c, _), (cm, sub) = edges[0]
        return (field.mul(c, cm), sub)
    if len(edges) == 2:
        out = []
        for (c, _), (cm, sub) in edges:
            out.append((field.mul(c, cm), sub))
        return (one, ProdGate(tuple(out)))
    degs = [ch.syn_degree for (_, ch), _ in edges]
    d = sum(degs)
    prefix = 0
    m = len(edges)
    for j, dj in enumerate(degs, start=1):
        prefix += dj
        if 2 * prefix >= d:
            m = j
            break
    groups = [edges[: m - 1], [edges[m - 1]], edges[m:]]
    sc = one
    body: Node | None = None
    for grp in groups:
        if not grp:
            continue
        c, sub = _fanin_2_product(grp, field, one)
        sc = field.mul(sc, c)
        body = sub if body is None else ProdGate(((one, body), (one, sub)))
    return (sc, body)  # type: ignore[return-value]


def product_fanin_2(formula: Formula) -> Formula:
    """Equivalent formula whose product gates all have fan-in 2.

    A wide product splits into left group / middle child / right group at the
    first child prefix reaching half the degree, keeping factor order; sums
    keep their fan-in.  Leaf count never grows; depth grows by at most a
    factor of 2 plus O(log d).  Homogeneity and monotonicity survive.
    """
    field = formula.field
    one = field.one()

    def go(node: Node, vals: list) -> tuple[Scalar, Node]:
        if is_leaf(node):
            return (one, node)
        if isinstance(node, SumGate):
            edges = []
            for (c, _), (cm, sub) in zip(node.children, vals):
                edges.append((field.mul(c, cm), sub))
            if len(edges) == 1 and not isinstance(edges[0][1], OneLeaf):
                return edges[0]
            return (one, SumGate(tuple(edges)))
        return _fanin_2_product(list(zip(node.children, vals)), field, one)

    scalar, out_root = ir.node_attribute(formula.root, go)[id(formula.root)]  # type: ignore[misc]
    out = formula.with_root(scale_node(scalar, out_root, field))
    for node in ir.postorder(out.root):
        if isinstance(node, ProdGate) and len(node.children) != 2:
            raise InternalInvariantError("product gate with fan-in != 2 in output")
    if out.root.size > formula.root.size:
        raise InternalInvariantError("leaf count grew in product_fanin_2")
    return out


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------

def depth_reduce_homogeneous(formula: Formula) -> Formula:
    """Full reduction to depth O(log d): binarize, split-reduce at eps = 1/2,
    potential-reduce at delta = ceil(log2 size' / log2 d), then collapse.

    Size is hard-bounded by (post-split size)^2 * d.
    """
    d = ir.syn_degree(formula)
    f1 = depth_reduce_bb(formula, Fraction(1, 2))
    f2 = _reduce_main(f1, "auto", fanin_2=True)[0]
    m1 = ir.metrics(f1)
    out = collapse(f2)
    if d >= 1 and ir.metrics(out).size > m1.size * m1.size * max(d, 1):
        raise InternalInvariantError("size above the s'^2 * d bound")
    return out


def depth_reduce_nearlinear(formula: Formula, epsilon: Fraction | int | str = Fraction(1, 2)) -> Formula:
    """Depth O(log d) at near-linear size s^(1+eps).

    When d^(4/eps) >= s the split reduction alone already fits the budget and
    its output is returned as-is; otherwise split-reduce at eps/2 and then
    potential-reduce at delta = floor(eps * log2 s / (2 log2 d)), which the
    branch condition forces to be >= 2.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    s = ir.size(formula)
    d = ir.syn_degree(formula)
    if d <= 1:
        # no product structure: split-reduce, then flatten the sums
        f1 = depth_reduce_bb(formula, eps)
        return collapse(_reduce_main(f1, "auto", fanin_2=True)[0])
    # branch test d^(4/eps) >= s, exactly: with eps = p/q it is d^(4q) >= s^p
    if d ** (4 * eps.denominator) >= s**eps.numerator:
        return depth_reduce_bb(formula, eps)
    f1 = depth_reduce_bb(formula, eps / 2)
    delta = _floor_ratio_log(eps, s, d)
    if delta < 2:
        raise InternalInvariantError("branch condition must force delta >= 2")
    return collapse(_reduce_main(f1, delta, fanin_2=True)[0])


def _floor_ratio_log(eps: Fraction, s: int, d: int) -> int:
    """floor(eps * log2 s / (2 * log2 d)) in exact integer arithmetic.

    j <= eps*log2(s)/(2*log2(d))  iff  d^(2*j*q) <= s^p  for eps = p/q.
    """
    p, q = eps.numerator, eps.denominator
    rhs = s**p
    j = 0
    while d ** (2 * (j + 1) * q) <= rhs:
        j += 1
    return j


def pipeline_inhom(formula: Formula) -> Formula:
    """Depth O(log d) for a possibly inhomogeneous formula computing a
    homogeneous polynomial of degree d >= 1.

    A syntactically homogeneous input (every sum's children share one
    syntactic degree) computes a polynomial of degree d = its syntactic
    degree, or 0, so it runs depth_reduce_homogeneous, and one of degree 0 is
    refused as a constant.  A mixed-degree input is expanded, within
    poly.DEFAULT_EXPANSION_BUDGET, to learn d; it is split-reduced, and its
    degree-d component is potential-reduced and collapsed.
    """
    if ir.is_homogeneous(formula):
        if not formula.root.syn_degree:
            raise ValueError("pipeline needs degree >= 1; the input is a constant")
        out = depth_reduce_homogeneous(formula)
    else:
        from . import poly

        degrees = poly.expand(formula, budget=poly.DEFAULT_EXPANSION_BUDGET).degrees_present()
        if not degrees:
            raise ValueError("formula computes the zero polynomial")
        if len(degrees) > 1:
            raise NotSemanticallyHomogeneous(f"expansion mixes degrees {sorted(degrees)}")
        (d,) = degrees
        if d < 1:
            raise ValueError("pipeline needs degree >= 1; the input is a constant")
        comp_d = _components(depth_reduce_bb(formula, Fraction(1, 2)), d)[d]
        if comp_d is None:
            raise InternalInvariantError("degree component missing for the output degree")
        out = collapse(depth_reduce_main(comp_d, "auto"))
    if not ir.is_homogeneous(out):
        raise InternalInvariantError("pipeline output is not homogeneous")
    return out


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

#: Pass names run_pass dispatches, in the order the CLI lists them.
PASSES = ("bb", "main", "nearlinear", "homogeneous", "prodfanin2", "pipeline")


def run_pass(formula: Formula, name: str, params: dict) -> tuple[Formula, dict, tuple | None]:
    """Run a pass by name: the output, the resolved parameters and, for main,
    the (product depth, size) bounds its output was checked against.

    epsilon None or "auto" means 1/2, delta None or "auto" means auto_delta;
    the passes reject other values out of range."""
    if name in ("bb", "nearlinear"):
        eps = params.get("epsilon")
        eps = Fraction(1, 2) if eps in (None, "auto") else Fraction(eps)
        if name == "nearlinear":
            return depth_reduce_nearlinear(formula, eps), {"epsilon": eps}, None
        return depth_reduce_bb(formula, eps), {"epsilon": eps, "k_bb": bb_branch_param(eps)}, None
    if name == "main":
        delta = params.get("delta")
        out, delta, bounds = _reduce_main(formula, "auto" if delta is None else delta)
        return out, {"delta": delta}, bounds
    if name == "homogeneous":
        return depth_reduce_homogeneous(formula), {}, None
    if name == "prodfanin2":
        return product_fanin_2(formula), {}, None
    if name == "pipeline":
        return pipeline_inhom(formula), {}, None
    raise ValueError(f"unknown pass {name!r}")
