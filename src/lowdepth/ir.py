"""Formula IR: weighted-edge gate trees, structural metrics, and predicates.

A formula is a rooted tree.  Leaves are variables (naturals) or the constant
one; internal gates are sums or products; every edge carries a non-zero field
scalar.  Values are immutable after construction and every operation here is
a pure function, so concurrent use is safe.

Conventions fixed across the toolkit:

* size is the number of leaves;
* depth counts internal gates on the longest leaf-to-root path (a bare leaf
  has depth 0), and sum/product depth restrict the count to one gate kind;
* syntactic degree is 0 on constant leaves, 1 on variables, the sum of the
  children at a product and the max at a sum;
* in non-commutative mode product children are ordered and the order is
  semantically significant.

Traversals that can meet very deep trees (combs) are iterative; nothing in
this module recurses on tree structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union

from .errors import (
    BudgetExceeded,
    FieldUnordered,
    InternalInvariantError,
    WellFormednessError,
)
from .fields import QQ, Field, Scalar


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarLeaf:
    """Leaf labelled with variable x<var>."""

    var: int


@dataclass(frozen=True)
class OneLeaf:
    """Leaf labelled with the constant 1.

    Its parent, when it has one, must be a sum gate; a sum gate whose children
    are all constant leaves is only allowed as the output gate.
    """


@dataclass(frozen=True)
class SumGate:
    """Weighted sum of children: sum of scalar * child."""

    children: tuple[tuple[Scalar, "Node"], ...]


@dataclass(frozen=True)
class ProdGate:
    """Product of scalar * child factors, taken in the given order."""

    children: tuple[tuple[Scalar, "Node"], ...]


Node = Union[VarLeaf, OneLeaf, SumGate, ProdGate]
Edge = tuple[Scalar, Node]

#: Variable ids at or above this value are reserved for internal bookkeeping
#: (frontier placeholders, split variables) and never appear in user input.
FRESH_VAR_BASE = 1 << 40


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

def iter_postorder(root: Node) -> Iterator[Node]:
    """Yield each distinct node object once, children before parents.

    Distinctness is by object identity, so shared subtrees (which may occur
    transiently inside passes) are visited a single time.
    """
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if is_gate(node):
            for _, child in reversed(node.children):
                if id(child) not in seen:
                    stack.append((child, False))


def node_attribute(root: Node, fn: Callable[[Node, list], object]) -> dict[int, object]:
    """Compute fn(node, child_values) bottom-up; returns a map keyed by id(node).

    fn must depend only on the subtree, so the value is intrinsic and shared
    nodes are computed once.  The returned dict is valid while the tree is
    alive (keys are object ids).
    """
    memo: dict[int, object] = {}
    for node in iter_postorder(root):
        if is_gate(node):
            vals = [memo[id(child)] for _, child in node.children]
        else:
            vals = []
        memo[id(node)] = fn(node, vals)
    return memo


def iter_preorder_positions(root: Node) -> Iterator[tuple[Node, Node | None]]:
    """Yield (node, parent) in preorder.

    Positions, not unique objects: the caller is expected to hand in a true
    tree (the public Formula contract), where the two coincide.
    """
    stack: list[tuple[Node, Node | None]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        if is_gate(node):
            for _, child in reversed(node.children):
                stack.append((child, node))


def gates_preorder(formula: Formula) -> list[Node]:
    """All nodes of the formula in preorder; index in this list is the gate id."""
    return [node for node, _ in iter_preorder_positions(formula.root)]


def tree_materialize(root: Node) -> Node:
    """A fresh true tree equal to root: every position gets its own new node,
    so internal sharing is expanded.  Post-order over positions with an
    explicit value stack, so deep trees need no recursion.
    """
    out: list[Node] = []
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        cur, expanded = stack.pop()
        if not expanded:
            stack.append((cur, True))
            if is_gate(cur):
                for _, child in reversed(cur.children):
                    stack.append((child, False))
            continue
        if isinstance(cur, VarLeaf):
            out.append(VarLeaf(cur.var))
        elif isinstance(cur, OneLeaf):
            out.append(OneLeaf())
        else:
            n = len(cur.children)
            kids = out[len(out) - n:]
            del out[len(out) - n:]
            edges = tuple((c, kid) for (c, _), kid in zip(cur.children, kids))
            out.append(SumGate(edges) if isinstance(cur, SumGate) else ProdGate(edges))
    if len(out) != 1:
        raise InternalInvariantError("tree rebuild stack imbalance")
    return out[0]


def variables(formula: Formula) -> set[int]:
    """The set of variable ids appearing on the leaves."""
    out: set[int] = set()
    for node in iter_postorder(formula.root):
        if isinstance(node, VarLeaf):
            out.add(node.var)
    return out


class FreshVars:
    """Allocator for reserved internal variable ids, disjoint from user ids."""

    def __init__(self, start: int = FRESH_VAR_BASE):
        self._next = start

    def take(self) -> int:
        v = self._next
        self._next += 1
        return v


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

def validate(formula: Formula) -> None:
    """Raise WellFormednessError unless the formula satisfies the IR rules.

    Checked: gates have fan-in >= 1, all edge scalars are non-zero, constant
    leaves hang off sum gates only, and a sum gate with only constant-leaf
    children appears only at the output.
    """
    field = formula.field
    for node, parent in iter_preorder_positions(formula.root):
        if isinstance(node, OneLeaf):
            if parent is not None and not isinstance(parent, SumGate):
                raise WellFormednessError("constant leaf 1 must be the child of a sum gate")
        elif is_gate(node):
            if not node.children:
                raise WellFormednessError("gate with fan-in 0")
            for scalar, _ in node.children:
                if field.is_zero(scalar):
                    raise WellFormednessError("edge weight 0 is not allowed")
            if isinstance(node, SumGate) and parent is not None:
                if all(isinstance(ch, OneLeaf) for _, ch in node.children):
                    raise WellFormednessError(
                        "sum gate over constant leaves only is allowed at the output gate only"
                    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateMetrics:
    """Per-gate structural measurements."""

    size: int
    depth: int
    sum_depth: int
    product_depth: int
    syn_degree: int


def _metrics_of(node: Node, vals: list) -> GateMetrics:
    if isinstance(node, VarLeaf):
        return GateMetrics(1, 0, 0, 0, 1)
    if isinstance(node, OneLeaf):
        return GateMetrics(1, 0, 0, 0, 0)
    size = sum(v.size for v in vals)
    depth = 1 + max(v.depth for v in vals)
    is_sum = isinstance(node, SumGate)
    sum_depth = (1 if is_sum else 0) + max(v.sum_depth for v in vals)
    product_depth = (0 if is_sum else 1) + max(v.product_depth for v in vals)
    if is_sum:
        syn_degree = max(v.syn_degree for v in vals)
    else:
        syn_degree = sum(v.syn_degree for v in vals)
    return GateMetrics(size, depth, sum_depth, product_depth, syn_degree)


def metrics_map(root: Node) -> dict[int, GateMetrics]:
    """Intrinsic metrics for every node, keyed by id(node)."""
    return node_attribute(root, _metrics_of)  # type: ignore[return-value]


def metrics(formula: Formula) -> GateMetrics:
    """Metrics of the output gate, kept on the (immutable) formula once known."""
    m = formula.__dict__.get("_root_metrics")
    return keep_metrics(formula, metrics_map(formula.root)) if m is None else m


def keep_metrics(formula: Formula, memo: dict[int, GateMetrics]) -> GateMetrics:
    """Keep the root entry of formula's metrics_map on it for metrics; return it."""
    object.__setattr__(formula, "_root_metrics", memo[id(formula.root)])
    return memo[id(formula.root)]


def metrics_table(formula: Formula) -> dict[int, GateMetrics]:
    """Per-gate metrics keyed by preorder gate id (0 = output gate)."""
    memo = metrics_map(formula.root)
    return {i: memo[id(node)] for i, node in enumerate(gates_preorder(formula))}


def size(formula: Formula) -> int:
    return metrics(formula).size


def syn_degree(formula: Formula) -> int:
    return metrics(formula).syn_degree


def max_fanin(formula: Formula) -> int:
    worst = 0
    for node in iter_postorder(formula.root):
        if is_gate(node):
            worst = max(worst, len(node.children))
    return worst


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def is_homogeneous(formula: Formula) -> bool:
    """True iff the children of every sum gate share one syntactic degree."""
    memo = metrics_map(formula.root)
    keep_metrics(formula, memo)
    for node in iter_postorder(formula.root):
        if isinstance(node, SumGate):
            degrees = {memo[id(ch)].syn_degree for _, ch in node.children}
            if len(degrees) > 1:
                return False
    return True


def is_skew(formula: Formula) -> bool:
    """True iff every product gate has at most one non-leaf child."""
    for node in iter_postorder(formula.root):
        if isinstance(node, ProdGate):
            non_trivial = sum(1 for _, ch in node.children if not is_leaf(ch))
            if non_trivial > 1:
                return False
    return True


def is_monotone_syntactic(formula: Formula) -> bool:
    """Sufficient sign condition: every edge weight is positive.

    Requires an ordered field; raises FieldUnordered over a prime field.
    """
    if not formula.field.ordered:
        raise FieldUnordered("syntactic monotonicity needs an ordered field")
    for node in iter_postorder(formula.root):
        if is_gate(node):
            for scalar, _ in node.children:
                if not formula.field.is_positive(scalar):
                    return False
    return True


def is_monotone(formula: Formula, mode: str = "syntactic", budget: int | None = None) -> bool:
    """Monotonicity check.

    syntactic: all edge weights positive (sufficient, never exploits
    cancellation).  semantic: every monomial built by some parse tree keeps a
    non-zero coefficient in the expanded polynomial.
    """
    if mode == "syntactic":
        return is_monotone_syntactic(formula)
    if mode == "semantic":
        from . import poly  # local import; poly builds on this module

        return poly.is_monotone_semantic(formula, budget=budget)
    raise ValueError(f"unknown monotonicity mode {mode!r}")


def is_set_multilinear(formula: Formula, partition: list[set[int]], budget: int | None = None) -> bool:
    """True iff every expansion monomial takes exactly one variable per part.

    The partition must cover all variables of the formula.
    """
    covered = set()
    for part in partition:
        covered |= set(part)
    missing = variables(formula) - covered
    if missing:
        raise ValueError(f"partition does not cover variables {sorted(missing)[:5]}")
    from . import poly

    table = poly.expand(formula, budget=budget)
    parts = [frozenset(p) for p in partition]
    for key in table.terms:
        per_part = [0] * len(parts)
        for var, exp in poly.key_exponents(key, formula.commutative):
            hit = False
            for i, part in enumerate(parts):
                if var in part:
                    per_part[i] += exp
                    hit = True
                    break
            if not hit:
                return False
        if any(c != 1 for c in per_part):
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


def enumerate_parse_trees(formula: Formula, budget: int = 100_000) -> list[tuple[Scalar, tuple[int, ...]]]:
    """All (coefficient, monomial-word) pairs, one per parse tree.

    A parse tree keeps one child of every sum gate and all children of every
    product gate; its monomial is the left-to-right word of variable leaves
    and its coefficient the product of the edge scalars it uses.  Words are
    returned as tuples of variable ids in formula order; commutative callers
    canonicalize afterwards.  Entries are not merged, so summing them (after
    merging equal monomials) reproduces the expanded polynomial.
    """
    n = count_parse_trees(formula)
    if n > budget:
        raise BudgetExceeded(f"{n} parse trees exceed budget {budget}")
    field = formula.field
    one = field.one()

    def lists(node: Node, vals: list) -> list[tuple[Scalar, tuple[int, ...]]]:
        if isinstance(node, VarLeaf):
            return [(one, (node.var,))]
        if isinstance(node, OneLeaf):
            return [(one, ())]
        if isinstance(node, SumGate):
            out: list[tuple[Scalar, tuple[int, ...]]] = []
            for (scalar, _), sub in zip(node.children, vals):
                out.extend((field.mul(scalar, c), w) for c, w in sub)
            return out
        acc: list[tuple[Scalar, tuple[int, ...]]] = [(one, ())]
        for (scalar, _), sub in zip(node.children, vals):
            nxt: list[tuple[Scalar, tuple[int, ...]]] = []
            for c0, w0 in acc:
                for c1, w1 in sub:
                    nxt.append((field.mul(c0, field.mul(scalar, c1)), w0 + w1))
            acc = nxt
        return acc

    return node_attribute(formula.root, lists)[id(formula.root)]  # type: ignore[return-value]
