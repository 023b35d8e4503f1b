"""Discrete potential theory on the dyadic Bergman tree.

Nodes z(k, n) = (1 - 2^-n) e^{2 pi i k / 2^n} ordered by box containment.
Tree condenser capacity is computed two ways: an exact linear solve on
the (chain-compressed) union of source-to-target paths, and the
series-parallel conductance fold; they agree to solver tolerance.  The
comb construction and its closed form drive the union counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, sequences
from .errors import DomainError, InputError, NumericalError
from .geometry import DiscPoint

LOG2 = math.log(2.0)

# float depths underflow past this level; the embedding refuses beyond it
MAX_EMBED_LEVEL = 1000


@dataclass(frozen=True, order=True)
class TreeNode:
    """Vertex (level n, index k) with 1 <= k <= 2^n; the root is (0, 1)."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 0 or self.k < 1 or (self.k - 1) >> self.n:
            raise DomainError(f"invalid tree node (n={self.n}, k={self.k})")

    def child_plus(self) -> "TreeNode":
        return TreeNode(self.n + 1, 2 * self.k)

    def is_below(self, other: "TreeNode") -> bool:
        """True iff the box of self is contained in the box of other."""
        # other's dyadic index is a prefix of self's
        return self.n >= other.n and (self.k - 1) >> (self.n - other.n) == other.k - 1

    def embed(self) -> DiscPoint:
        """The disc point (1 - 2^-n) e^{2 pi i k / 2^n}."""
        if self.n > MAX_EMBED_LEVEL:
            raise DomainError(f"level {self.n} too deep to embed in float coordinates")
        if self.n == 0:
            return geometry.ORIGIN
        # k mod 2^n rounds once to a float; scaling by 2^-n is exact at these levels
        turn = math.ldexp(self.k % 2**self.n, -self.n)
        return DiscPoint(2.0 * math.pi * turn, math.ldexp(1.0, -self.n))


ROOT = TreeNode(0, 1)


@dataclass(frozen=True)
class TreeCondenser:
    source: TreeNode
    targets: tuple

    def __post_init__(self):
        if not self.targets:
            raise DomainError("condenser needs at least one target")
        object.__setattr__(self, "targets", tuple(self.targets))
        for t in self.targets:
            if t == self.source or not t.is_below(self.source):
                raise DomainError(f"target {t} is not strictly below the source")


def _lca(a: TreeNode, b: TreeNode) -> TreeNode:
    # at the shallower level the shared dyadic prefix ends at the highest differing bit
    m = min(a.n, b.n)
    x, y = (a.k - 1) >> (a.n - m), (b.k - 1) >> (b.n - m)
    s = (x ^ y).bit_length()
    return TreeNode(m - s, (x >> s) + 1)


def _virtual_tree(cond: TreeCondenser):
    """Chain-compressed union of source-to-target paths, in dyadic DFS order.

    Returns (parent, length, is_target) as lists over the kept nodes:
    the source (index 0, parent -1), the distinct targets and the LCAs of
    DFS-adjacent targets.  Every other node has parent[i] < i and hangs
    length[i] unit edges below it; the folded degree-2 chain nodes are
    exact for unit resistors.
    """
    depth = max(t.n for t in cond.targets)

    def dfs_key(t: TreeNode):
        # left end of the dyadic arc at the deepest level, ancestors first
        return ((t.k - 1) << (depth - t.n), t.n)

    targets = sorted(set(cond.targets), key=dfs_key)
    lcas = (_lca(a, b) for a, b in zip(targets, targets[1:]))
    # the source is an ancestor of every kept node, so it sorts first
    nodes = sorted({cond.source, *targets, *lcas}, key=dfs_key)
    parent, length, stack = [-1], [0], [0]
    for i, node in enumerate(nodes[1:], start=1):
        # pop the stack down to the deepest kept ancestor of node; the kept
        # nodes are distinct, so an ancestor is a strict one
        while not node.is_below(nodes[stack[-1]]):
            stack.pop()
        parent.append(stack[-1])
        length.append(node.n - nodes[stack[-1]].n)
        stack.append(i)
    target_set = set(targets)
    return parent, length, [node in target_set for node in nodes]


def tree_capacity_recursive(cond: TreeCondenser) -> float:
    """Series-parallel fold of the condenser's conductance.

    A subtree of conductance c seen across a chain of d unit edges
    contributes c/(1 + d c); sibling conductances add.
    """
    parent, length, is_target = _virtual_tree(cond)
    sub = [0.0] * len(parent)
    for i in range(len(parent) - 1, 0, -1):
        d = length[i]
        sub[parent[i]] += 1.0 / d if is_target[i] else sub[i] / (1.0 + d * sub[i])
    return sub[0]


def tree_capacity_exact(cond: TreeCondenser) -> float:
    """Capacity via the grounded-Laplacian linear system.

    Solves the harmonic extension on the chain-compressed virtual tree
    (edge conductance 1/length) by sparse LU and returns its Dirichlet
    energy.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    parent, length, is_target = _virtual_tree(cond)
    n = len(parent)
    child = np.arange(1, n)
    par = np.array(parent[1:])
    gcond = 1.0 / np.array(length[1:], dtype=float)
    lap = scipy.sparse.coo_matrix(
        (
            np.concatenate([gcond, gcond, -gcond, -gcond]),
            (np.concatenate([child, par, child, par]), np.concatenate([child, par, par, child])),
        ),
        shape=(n, n),
    ).tocsr()
    fixed = np.array(is_target)
    fixed[0] = True
    vals = np.zeros(n)
    vals[0] = 1.0
    free = ~fixed
    if free.any():
        rows = lap[free]
        a = rows[:, free].tocsc()
        b = -(rows[:, fixed] @ vals[fixed])
        try:
            vals[free] = scipy.sparse.linalg.splu(a).solve(b)
        except RuntimeError as exc:
            raise NumericalError(f"tree system singular: {exc}") from exc
    diff = vals[child] - vals[par]
    return float(np.sum(diff * diff * gcond))


def path_union_size(cond: TreeCondenser) -> int:
    """Number of nodes on the source-to-target paths, source included."""
    _, length, _ = _virtual_tree(cond)
    return 1 + sum(length)


# ---------------------------------------------------------------------------
# comb construction


def _comb_size(big_n: int, name: str = "N") -> int:
    """m = sqrt(N), for N a perfect square >= 4."""
    if big_n < 4 or math.isqrt(big_n) ** 2 != big_n:
        raise DomainError(f"{name} must be a perfect square >= 4, got {big_n}")
    return math.isqrt(big_n)


@dataclass(frozen=True)
class CombSpec:
    """Spine of sqrt(N) sigma_+ iterates with teeth hanging N levels below."""

    anchor: TreeNode

    def __post_init__(self):
        _comb_size(self.anchor.n, name="anchor level")

    @property
    def big_n(self) -> int:
        return self.anchor.n

    @property
    def m(self) -> int:
        return math.isqrt(self.anchor.n)

    def spine(self) -> list[TreeNode]:
        out = [self.anchor]
        for _ in range(self.m):
            out.append(out[-1].child_plus())
        return out

    def teeth(self) -> list[TreeNode]:
        # N steps (n, k) -> (n + 1, 2k - 1) below w = (n, k) reach (n + N, 2^N (k - 1) + 1)
        return [TreeNode(w.n + self.big_n, ((w.k - 1) << self.big_n) + 1) for w in self.spine()[1:]]

    def condenser(self) -> TreeCondenser:
        return TreeCondenser(self.anchor, tuple(self.teeth()))


def default_anchor(big_n: int) -> TreeNode:
    """Anchor z(2^N, N), the last node of level N, at angle 0."""
    return TreeNode(big_n, 2**big_n)


def comb_capacity_recursive(big_n: int) -> float:
    """The scalar fold c_{i-1} = (1/N + c_i)/(1 + 1/N + c_i) down the spine."""
    m = _comb_size(big_n)
    c = 0.0
    for _ in range(m):
        c = (1.0 / big_n + c) / (1.0 + 1.0 / big_n + c)
    return c


def comb_capacity_closed_form(big_n: int) -> float:
    """Closed form from diagonalizing the 2x2 transfer matrix of the fold."""
    m = _comb_size(big_n)
    x = 1.0 / big_n
    root = math.sqrt(x * x + 4.0 * x)
    d1 = 0.5 * (-x + root)
    d2 = 0.5 * (-x - root)
    q = ((1.0 - d1) / (1.0 - d2)) ** m
    return d1 * (1.0 - q) / (1.0 - (d1 / d2) * q)


@dataclass
class SweepRow:
    big_n: int
    c0: float
    c0_sqrt_n: float
    closed_form: float
    exact_solver: float | None  # None when the exact route was not run
    limit_gap: float


COMB_LIMIT = (math.e**2 - 1.0) / (math.e**2 + 1.0)


def comb_sweep(m_values, with_exact: bool = False) -> list[SweepRow]:
    rows = []
    for m in m_values:
        if m < 2:
            raise DomainError(f"comb size m must be at least 2, got {m}")
        big_n = m * m
        c0 = comb_capacity_recursive(big_n)
        closed = comb_capacity_closed_form(big_n)
        exact = (
            tree_capacity_exact(CombSpec(default_anchor(big_n)).condenser())
            if with_exact
            else None
        )
        rows.append(SweepRow(big_n, c0, c0 * m, closed, exact, COMB_LIMIT - c0 * m))
    return rows


def tree_disc_distance_check(n_max: int = 60) -> dict:
    """(log2/2) n <= d(0, z(n,k)) <= 2n for all levels up to n_max."""
    if not 1 <= n_max <= 60:
        raise DomainError(f"n_max out of [1, 60]: {n_max}")
    levels = range(1, n_max + 1)
    nodes = geometry.PointSet.from_points([TreeNode(n, 1).embed() for n in levels])
    dists = geometry.PointSet.from_points([geometry.ORIGIN]).hyperbolic_distance(nodes).tolist()
    records = []
    ok = True
    for n, d in zip(levels, dists):
        lo, hi = 0.5 * LOG2 * n, 2.0 * n
        ok &= lo <= d <= hi
        records.append({"n": n, "d": d, "lower": lo, "upper": hi})
    return {"condition": "(log2/2) n <= d(0, z(n,k)) <= 2n", "pass": ok, "records": records}


# ---------------------------------------------------------------------------
# disc-side scenario

# points drawn for the scenario's disjoint-box lattice, and the bound on
# each comb's mass times sqrt(d(anchor))
LATTICE_COUNT = 8
MASS_BUDGET = 64.0


def comb_disc_sequence(spec: CombSpec, include_anchor: bool = True):
    """The comb embedded in the disc: anchor (optional) plus teeth."""
    nodes = ([spec.anchor] if include_anchor else []) + spec.teeth()
    return sequences.Sequence(tuple(node.embed() for node in nodes))


@dataclass
class ScenarioReport:
    weak_separation: object
    mass_records: list
    tree_records: list
    teeth_cc: object
    passed: bool | None
    params: dict

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "params": self.params,
            "weak_separation": self.weak_separation.to_json(),
            "mass_records": self.mass_records,
            "tree_records": self.tree_records,
            "teeth_capacitary": self.teeth_cc.to_json(),
        }


def counterexample_scenario(
    m_list=(4, 5, 6),
    gamma: float = 0.75,
    eta: float = 0.9,
    seed: int = 0,
) -> ScenarioReport:
    """Union of a disjoint-box lattice with combs at separated anchors.

    Demonstrates the failure mechanism at desk scale: the union stays
    weakly separated and each comb carries little mass, yet the tree
    condenser capacity at every anchor violates the 1/level decay by a
    factor growing like the square root of the level.
    """
    # the anchors sit one per quadrant of their level (k below)
    if len(m_list) > 4:
        raise InputError(f"at most four combs fit, one anchor per quadrant; got {len(m_list)}")
    combs = []
    for i, m in enumerate(m_list):
        big_n = m * m
        if m < 4:
            raise InputError(f"comb size must be an integer >= 4, got {m}")
        # deeper teeth would need angle increments below float resolution
        # relative to a nonzero anchor angle
        if big_n + m > 48:
            raise InputError(
                f"comb size {m} places teeth below angular float resolution; use m <= 6"
            )
        k = i * 2 ** (big_n - 2) + 1  # quadrant-separated dyadic anchors
        combs.append(CombSpec(TreeNode(big_n, k)))

    # both boxes reach the circle, so they meet where their base arcs do
    arcs = [geometry.expanded_box(c.anchor.embed(), eta).base_arc for c in combs]
    first, _ = geometry.intersecting_arc_pairs(
        np.array([a.center_angle for a in arcs]), np.array([a.half_width for a in arcs])
    )
    if len(first):
        raise InputError("anchor placement infeasible: expanded boxes overlap")

    lattice = sequences.disjoint_boxes(LATTICE_COUNT, seed, eta)
    union = sequences.union([lattice] + [comb_disc_sequence(c) for c in combs])

    ws = sequences.check_weak_separation(union, delta=0.0)

    mass_records = []
    tree_records = []
    ok = ws.params["metric_min"] > 0.0
    for c in combs:
        teeth_seq = comb_disc_sequence(c, include_anchor=False)
        d_anchor = geometry.kernel_norm_sq(c.anchor.embed())
        mass = sequences.check_finite_measure(teeth_seq)
        mass_ratio = mass * math.sqrt(d_anchor)
        mass_records.append(
            {"N": c.big_n, "mass": mass, "d_anchor": d_anchor, "ratio": mass_ratio}
        )
        ok &= mass_ratio <= MASS_BUDGET
        c0 = comb_capacity_recursive(c.big_n)
        tree_ratio = c0 * c.m  # cap * level / sqrt(level)
        tree_records.append(
            {"N": c.big_n, "cap_tau": c0, "lhs": c0 * c.big_n, "rhs": 0.1 * c.m, "ratio": tree_ratio}
        )
        ok &= tree_ratio >= 0.1

    all_teeth = sequences.union([comb_disc_sequence(c, include_anchor=False) for c in combs])
    teeth_cc = sequences.check_capacitary_condition(all_teeth, gamma)

    params = {
        "m_list": list(m_list),
        "gamma": gamma,
        "eta": eta,
        "lattice_count": LATTICE_COUNT,
        "mass_budget": MASS_BUDGET,
        "seed": seed,
    }
    # a teeth check whose solve failed leaves the verdict undetermined
    passed = None if teeth_cc.passed is None else bool(ok)
    return ScenarioReport(ws, mass_records, tree_records, teeth_cc, passed, params)
