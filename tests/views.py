"""The decisions of the bb and main passes, read back for tests.

Each view calls the functions the pass itself runs: bb's split walk and part
builder, and main's potential, frontier test and sum-of-products walk.
Gates are named by preorder id (the index in ir.gates_preorder), so the
formula must be a true tree, as parsing or reference.tree_materialize gives:
a node object at two positions has two ids.
"""

import itertools

import reference

from lowdepth import ir
from lowdepth import transforms as tr
from lowdepth.ir import Formula, OneLeaf, ProdGate, SumGate, VarLeaf
from lowdepth.util import run_recursive

#: First variable id of the placeholders residual puts in.
FRESH = 1 << 40


def split(f: Formula, k: int):
    """bb's split at branch parameter k: (preorder id of alpha, alpha, s,
    size of alpha, root-to-alpha path), or None when s <= k (the base case).

    The walk raises InternalInvariantError on a gate with two heavy children.
    """
    s = f.root.size
    if s <= k:
        return None
    path, alpha = tr._walk_split(f.root, s, k)
    gate_id = next(i for i, node in enumerate(ir.gates_preorder(f)) if node is alpha)
    return gate_id, alpha, s, alpha.size, path


def parts(f: Formula, path):
    """(A, B, C) as formulas, with F = A * alpha * B + C for the gate alpha
    at the end of path, the factors in that order in non-commutative mode.

    Empty products are the constant-one formula; C is None when setting alpha
    to zero leaves nothing.
    """
    out = []
    for value in tr._decompose_along(path, f.field):
        if value is None:
            out.append(None)
            continue
        scalar, node = value
        if node is None:
            node = SumGate(((scalar, OneLeaf()),))
        else:
            node = tr.scale_node(scalar, node, f.field)
        out.append(f.with_root(node))
    return tuple(out)


def frontier(f: Formula, delta: int):
    """main's frontier below the root at delta: (preorder ids of its members,
    phi of the root).  The ids are empty when phi of the root is 0.

    Asserts what makes the frontier useful: replacing the members by fresh
    leaves leaves a skew formula of sum depth at most delta.
    """
    phi_root = tr._potential(f.root, delta)
    if not phi_root:
        return frozenset(), phi_root
    is_factor, members, stack = tr._below(phi_root, delta), set(), [f.root]
    while stack:
        for _, ch in stack.pop().children:
            if isinstance(ch, OneLeaf):
                continue  # a 1-leaf stays a constant of the residual comb
            if is_factor(ch):
                members.add(id(ch))
            else:
                stack.append(ch)
    ids = frozenset(i for i, node in enumerate(ir.gates_preorder(f)) if id(node) in members)
    rest = residual(f, ids)
    assert reference.is_skew(rest), "frontier residual is not skew"
    assert ir.metrics(rest).sum_depth <= delta, "frontier residual exceeds sum depth delta"
    return ids, phi_root


def sigma_pi(g: Formula):
    """main's walk over the skew formula g, with the variable leaves as its
    factors: (the merged (coefficient, factors) terms of tr._sigma_pi_terms,
    the sum of products they make as a formula).  A leaf root is walked as
    a fan-in-1 sum, since main walks gates only."""
    one = g.field.one()
    root = g.root if ir.is_gate(g.root) else SumGate(((one, g.root),))
    terms = tr._sigma_pi_terms(root, lambda node: type(node) is VarLeaf, g.field)
    summands = []
    for c, fs in terms:
        if len(fs) > 1:
            summands.append((c, ProdGate(tuple((one, f) for f in fs))))
        else:
            summands.append((c, fs[0] if fs else OneLeaf()))
    return terms, g.with_root(SumGate(tuple(summands)))


def residual(f: Formula, ids) -> Formula:
    """f with the gates of the given preorder ids replaced by fresh leaves,
    numbered from FRESH in preorder of the replaced positions."""
    fresh = itertools.count(FRESH)
    nodes = ir.gates_preorder(f)
    replaced = {id(nodes[g]) for g in ids}

    def build(node):
        if id(node) in replaced:
            return VarLeaf(next(fresh))
        if not ir.is_gate(node):
            return node
        edges = []
        for c, ch in node.children:
            edges.append((c, (yield ch)))
        return type(node)(tuple(edges))

    return f.with_root(run_recursive(build, f.root))
