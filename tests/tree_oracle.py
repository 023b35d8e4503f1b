"""Independent references for the tree condenser solvers.

The full path union is built by walking every target up to the source
one parent at a time, and the grounded Laplacian on it is solved densely
with unit conductances.  Nothing is compressed, so these share no code
with the virtual tree that the library folds and solves on.  The tree
steps that only tests take, parent, child_minus and ancestor_at, are
here too, with the structural box of a node and the comb lower bound
check of the acceptance suite.
"""

import math
from fractions import Fraction

import numpy as np

from disclab.errors import DomainError
from disclab.geometry import Arc, CarlesonBox
from disclab.tree import TreeCondenser, TreeNode, comb_capacity_recursive


def parent(node: TreeNode) -> TreeNode:
    if node.n == 0:
        raise DomainError("the root has no parent")
    return TreeNode(node.n - 1, (node.k + 1) // 2)


def ancestor_at(node: TreeNode, level: int) -> TreeNode:
    """The ancestor at level, one parent at a time."""
    if not 0 <= level <= node.n:
        raise DomainError(f"no ancestor at level {level} for level-{node.n} node")
    while node.n > level:
        node = parent(node)
    return node


def child_minus(node: TreeNode) -> TreeNode:
    """The child over the first half of the node's dyadic arc."""
    return TreeNode(node.n + 1, 2 * node.k - 1)


def box(node: TreeNode) -> CarlesonBox:
    """The structural box over the dyadic arc [(k-1)/2^n, k/2^n]."""
    center = 2.0 * math.pi * float(Fraction(2 * node.k - 1, 2 ** (node.n + 1)))
    return CarlesonBox(Arc(center, math.ldexp(1.0, -node.n)), 1.0 - math.ldexp(1.0, -node.n))


def comb_lower_bound_check(n_values) -> dict:
    """c0 >= 1/(10 sqrt(N)) for every perfect square N >= 16 in the range."""
    worst = math.inf
    records = []
    for big_n in n_values:
        if big_n < 16:
            raise DomainError(f"N must be a perfect square >= 16, got {big_n}")
        val = comb_capacity_recursive(big_n) * math.isqrt(big_n)
        records.append({"N": big_n, "c0_sqrtN": val})
        worst = min(worst, val)
    return {"condition": "c0 >= 1/(10 sqrt(N))", "minimum": worst, "pass": worst >= 0.1, "records": records}


def path_union(cond: TreeCondenser):
    """Parent map of the full source-to-target path union."""
    parent_of = {}
    seen = {cond.source}
    for t in cond.targets:
        node = t
        while node not in seen:
            seen.add(node)
            parent_of[node] = parent(node)
            node = parent_of[node]
    return parent_of


def path_union_size_walk(cond: TreeCondenser) -> int:
    return 1 + len(path_union(cond))


def dense_capacity(cond: TreeCondenser) -> float:
    """Dirichlet energy of the harmonic extension on the full path union."""
    parent_of = path_union(cond)
    nodes = [cond.source, *parent_of]
    idx = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    lap = np.zeros((n, n))
    for node, par in parent_of.items():
        i, j = idx[node], idx[par]
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    fixed = np.zeros(n, dtype=bool)
    vals = np.zeros(n)
    fixed[0] = True
    vals[0] = 1.0
    for t in cond.targets:
        fixed[idx[t]] = True
    free = ~fixed
    if free.any():
        vals[free] = np.linalg.solve(lap[np.ix_(free, free)], -lap[np.ix_(free, fixed)] @ vals[fixed])
    return sum((vals[idx[node]] - vals[idx[par]]) ** 2 for node, par in parent_of.items())
