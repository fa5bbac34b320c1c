"""Formula IR: weighted-edge gate trees, structural metrics, and predicates.

A formula is a rooted tree.  Leaves are variables (naturals) or the constant
one; internal gates are sums or products; every edge carries a non-zero field
scalar.  Values are immutable after construction and every operation here is
a pure function, so concurrent use is safe.

Conventions fixed across the toolkit, for the metrics that every node carries
as attributes from the moment it is built (a gate computes them from its
children's in O(fan-in), so no walk recomputes them):

* size is the number of leaves;
* depth counts internal gates on the longest leaf-to-root path (a bare leaf
  has depth 0), and sum/product depth restrict the count to one gate kind;
* syntactic degree is 0 on constant leaves, 1 on variables, the sum of the
  children at a product and the max at a sum;
* in non-commutative mode product children are ordered and the order is
  semantically significant.

Traversals that can meet very deep trees (combs) are iterative; nothing in
this module recurses on tree structure, node ==, hash and repr included.
The walks share one kernel, postorder, which returns the distinct nodes as a
list (children before parents) from one loop that dispatches on the node's
exact type; node_attribute loops over that list.  compile_program flattens a
formula to the Program that both oracles read: expansion and identity testing;
sexpr.parse_program reads text straight into it, and builds no node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import WellFormednessError
from .fields import QQ, Field, Scalar


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------

#: repr renders a node as text up to this many leaves, and above it prints its
#: type and metrics: the text has one token per position, so a node that
#: shares its subtrees (size 2^60 in 61 objects) would never finish printing
REPR_MAX_SIZE = 10**5


class Node:
    """A formula node with its metrics as attributes: size, depth, sum_depth,
    product_depth and syn_degree.  Nodes refuse assignment, since a changed
    child would leave its ancestors' metrics stale.  hash reads the type,
    metrics and variable in O(1), so equal structures hash alike; repr is the
    node's text up to REPR_MAX_SIZE leaves."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            kind = type(a)
            if kind is not type(b) or a.size != b.size:
                return False
            if kind is VarLeaf:
                if a.var != b.var:
                    return False
            elif kind is not OneLeaf:
                if len(a.children) != len(b.children):
                    return False
                for (ca, xa), (cb, xb) in zip(a.children, b.children):
                    if ca != cb:
                        return False
                    stack.append((xa, xb))
        return True

    def __hash__(self):
        return hash((type(self), self.size, self.depth, self.syn_degree, getattr(self, "var", None)))

    def __repr__(self):
        if self.size > REPR_MAX_SIZE:
            return f"<{type(self).__name__} size={self.size} depth={self.depth} degree={self.syn_degree}>"
        from .sexpr import render  # local import; sexpr builds on this module

        return render(self)


class VarLeaf(Node):
    """Leaf labelled with variable x<var>."""

    __slots__ = ("var",)
    size, depth, sum_depth, product_depth, syn_degree = 1, 0, 0, 0, 1

    def __init__(self, var: int):
        _set_var(self, var)


class OneLeaf(Node):
    """Leaf labelled with the constant 1.

    Its parent, when it has one, must be a sum gate; a sum gate whose children
    are all constant leaves is only allowed as the output gate.
    """

    __slots__ = ()
    size, depth, sum_depth, product_depth, syn_degree = 1, 0, 0, 0, 0


class _Gate(Node):
    """A gate over (scalar, child) edges; its metrics are set once, here."""

    __slots__ = ("children", "size", "depth", "sum_depth", "product_depth", "syn_degree")

    def __init__(self, children: tuple[Edge, ...]):
        is_sum = type(self) is SumGate
        size = depth = sum_depth = product_depth = degree = 0
        for _, child in children:
            size += child.size
            if child.depth > depth:
                depth = child.depth
            if child.sum_depth > sum_depth:
                sum_depth = child.sum_depth
            if child.product_depth > product_depth:
                product_depth = child.product_depth
            if not is_sum:
                degree += child.syn_degree
            elif child.syn_degree > degree:
                degree = child.syn_degree
        # assignment is refused, so the slots are set through their descriptors
        _set_children(self, children)
        _set_size(self, size)
        _set_depth(self, depth + 1)
        _set_sum_depth(self, sum_depth + is_sum)
        _set_product_depth(self, product_depth + (not is_sum))
        _set_syn_degree(self, degree)


class SumGate(_Gate):
    """Weighted sum of children: sum of scalar * child.

    Edge scalars are kept as given, so a caller that builds gates in Python
    passes each in its field's one form, field.normalize(c) (over Q an int
    when integral), as parse and the passes do."""

    __slots__ = ()


class ProdGate(_Gate):
    """Product of scalar * child factors, taken in the given order.

    Edge scalars are kept as given, as in SumGate: the caller normalizes
    them with field.normalize."""

    __slots__ = ()


_set_var = VarLeaf.var.__set__
(_set_children, _set_size, _set_depth, _set_sum_depth, _set_product_depth,
 _set_syn_degree) = [getattr(_Gate, name).__set__ for name in _Gate.__slots__]
Edge = tuple[Scalar, Node]

@dataclass(frozen=True)
class Formula:
    """A rooted formula plus its evaluation context (mode and field)."""

    root: Node
    commutative: bool = True
    field: Field = QQ

    def with_root(self, root: Node) -> "Formula":
        return Formula(root=root, commutative=self.commutative, field=self.field)


def is_leaf(node: Node) -> bool:
    return isinstance(node, (VarLeaf, OneLeaf))


def is_gate(node: Node) -> bool:
    return isinstance(node, (SumGate, ProdGate))


# ---------------------------------------------------------------------------
# Iterative traversals
# ---------------------------------------------------------------------------

def postorder(root: Node) -> list[Node]:
    """Each distinct node object once, children before parents.

    Distinctness is by object identity, so shared subtrees (which may occur
    transiently inside passes) are visited a single time.  Among siblings the
    first child comes first.  Callers loop over the list and drop it, so it
    lives no longer than one walk.
    """
    out: list[Node] = []
    seen: set[int] = set()
    stack: list = [root]  # a node to enter, or a 1-tuple: a gate to emit
    emit, push, mark = out.append, stack.append, seen.add
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:
            emit(node[0])
        elif id(node) not in seen:
            mark(id(node))
            if kind is SumGate or kind is ProdGate:
                push((node,))
                for _, child in reversed(node.children):
                    push(child)
            else:
                emit(node)
    return out


def node_attribute(root: Node, fn: Callable[[Node, list], object]) -> dict[int, object]:
    """Compute fn(node, child_values) bottom-up; returns a map keyed by id(node).

    fn must depend only on the subtree, so the value is intrinsic and shared
    nodes are computed once.  The returned dict is valid while the tree is
    alive (keys are object ids).
    """
    memo: dict[int, object] = {}
    for node in postorder(root):
        kind = type(node)
        if kind is SumGate or kind is ProdGate:
            memo[id(node)] = fn(node, [memo[id(child)] for _, child in node.children])
        else:
            memo[id(node)] = fn(node, [])
    return memo


_VAR, _ONE, _SUM, _PROD = range(4)  # the node kinds of a Program


class Program(NamedTuple):
    """A formula's distinct nodes in postorder, as parallel lists: args[i] is a
    variable's id or a gate's child positions, slots[i] its edges' positions in
    the scalar list (None when all weights are the unit), uses[i] the edges that
    read node i.  degree and size are the root's."""

    kinds: list[int]
    args: list
    slots: list
    uses: list[int]
    degree: int
    size: int
    variables: set[int]


def interner(scalars: list) -> tuple[dict[int, int], Callable[[Scalar], int]]:
    """The function from an edge scalar to its slot in scalars, and the map
    from id(scalar) to the slot of each scalar met so far.  Each distinct
    scalar object is appended once, interned by identity, not by value; slot 0
    is the unit 1 (put there when scalars is empty) and takes every weight
    equal to 1."""
    slot_of: dict[int, int] = {}  # id(scalar) -> slot
    if not scalars:
        scalars.append(1)

    def slot(c: Scalar) -> int:
        s = slot_of.get(id(c))
        if s is None:
            s = slot_of[id(c)] = 0 if c == 1 else len(scalars)
            if s:
                scalars.append(c)
        return s

    return slot_of, slot


def compile_program(root: Node, scalars: list) -> Program:
    """Flatten root in one loop over its postorder, its edge scalars interned
    into scalars (see interner).  The checks on the shape and the reduction
    of the scalars are the caller's.
    """
    # one entry per node, and no object per node beyond a gate's child tuple,
    # which holds ints only and so leaves the garbage collector's lists
    kinds, args, weights, uses, vs = [], [], [], [], set()
    at: dict[int, int] = {}  # id(node) -> position
    slot_of, slot = interner(scalars)
    for i, node in enumerate(postorder(root)):
        at[id(node)] = i
        uses.append(0)
        kind = type(node)
        if kind is SumGate or kind is ProdGate:
            kids, slots = [], None
            for j, (c, child) in enumerate(node.children):
                k = at[id(child)]
                kids.append(k)
                uses[k] += 1
                s = slot_of.get(id(c))
                if s is None:
                    s = slot(c)
                if s:
                    slots = slots or [0] * len(node.children)
                    slots[j] = s
            kinds.append(_SUM if kind is SumGate else _PROD)
            args.append(tuple(kids))
            weights.append(slots)
        else:
            is_var = kind is VarLeaf
            kinds.append(_VAR if is_var else _ONE)
            args.append(node.var if is_var else None)
            weights.append(None)
            if is_var:
                vs.add(node.var)
    return Program(kinds, args, weights, uses, root.syn_degree, root.size, vs)


def gates_preorder(formula: Formula) -> list[Node]:
    """All nodes of the formula in preorder; index in this list is the gate id.

    Positions, not unique objects: a node object at two positions (as pass
    outputs may hold) is listed at each, so the ids are those of the tree.
    """
    out: list[Node] = []
    stack = [formula.root]
    while stack:
        node = stack.pop()
        out.append(node)
        if type(node) is SumGate or type(node) is ProdGate:
            stack.extend([child for _, child in reversed(node.children)])
    return out


def variables(formula: Formula) -> set[int]:
    """The set of variable ids appearing on the leaves."""
    return {node.var for node in postorder(formula.root) if isinstance(node, VarLeaf)}


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

def validate(formula: Formula) -> None:
    """Raise WellFormednessError unless the formula satisfies the IR rules.

    Checked: gates have fan-in >= 1, all edge scalars are non-zero, constant
    leaves hang off sum gates only, and a sum gate with only constant-leaf
    children appears only at the output.

    sexpr.parse and parse_program call this only when the text has a
    constant-leaf token 1 or a scalar that is zero in the field (fan-in 0 is a
    syntax error there), since every rule here involves one of the two.  A rule
    about anything else must extend that trigger, or parsed text will skip it.
    """
    is_zero, one = formula.field.is_zero, formula.field.one()
    stack: list[tuple[Node, Node | None]] = [(formula.root, None)]  # preorder over positions
    while stack:
        node, parent = stack.pop()
        kind = type(node)
        if kind is OneLeaf:
            if parent is not None and type(parent) is not SumGate:
                raise WellFormednessError("constant leaf 1 must be the child of a sum gate")
        elif kind is SumGate or kind is ProdGate:
            children = node.children
            if not children:
                raise WellFormednessError("gate with fan-in 0")
            for scalar, _ in children:
                if scalar is not one and is_zero(scalar):
                    raise WellFormednessError("edge weight 0 is not allowed")
            if kind is SumGate and parent is not None:
                if all(type(ch) is OneLeaf for _, ch in children):
                    raise WellFormednessError(
                        "sum gate over constant leaves only is allowed at the output gate only"
                    )
            stack.extend([(child, node) for _, child in reversed(children)])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class GateMetrics(NamedTuple):
    """A node's five metrics as one value, for reports and tables."""

    size: int
    depth: int
    sum_depth: int
    product_depth: int
    syn_degree: int


def metrics(formula: Formula) -> GateMetrics:
    """Metrics of the output gate."""
    r = formula.root
    return GateMetrics(r.size, r.depth, r.sum_depth, r.product_depth, r.syn_degree)


def size(formula: Formula) -> int:
    return metrics(formula).size


def syn_degree(formula: Formula) -> int:
    return metrics(formula).syn_degree


def max_fanin(formula: Formula) -> int:
    worst = 0
    for node in postorder(formula.root):
        if is_gate(node):
            worst = max(worst, len(node.children))
    return worst


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def is_homogeneous(formula: Formula) -> bool:
    """True iff the children of every sum gate share one syntactic degree."""
    for node in postorder(formula.root):
        if isinstance(node, SumGate):
            degrees = {ch.syn_degree for _, ch in node.children}
            if len(degrees) > 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Parse trees
# ---------------------------------------------------------------------------

def count_parse_trees(formula: Formula) -> int:
    """Number of parse trees: choices multiply at products, add at sums."""

    def fn(node: Node, vals: list) -> int:
        if is_leaf(node):
            return 1
        if isinstance(node, SumGate):
            return sum(vals)
        total = 1
        for v in vals:
            total *= v
        return total

    return node_attribute(formula.root, fn)[id(formula.root)]  # type: ignore[return-value]
