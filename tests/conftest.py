"""Shared fixtures: canonical small trees and seeded random generators."""

import math

import pytest

from treerisk import (
    AdaptedProcess,
    BiMeasure,
    RawBiMeasure,
    RawProcess,
    RiskMeasureSpec,
    ScenarioTree,
    StaticRV,
    TreeNode,
    normalize_scenario,
    uniform_binomial,
)
# signed sparse bi-measure, increments uniform in [-1, 1] at about 70 % of the
# slots, drawn exactly as diagnose-identities draws its samples
from treerisk.cli import _random_signed_bimeasure as random_bimeasure


@pytest.fixture
def t1():
    """Binary one-period tree: root, leaves d and u with probability 0.5 each."""
    return uniform_binomial(1)


@pytest.fixture
def t2():
    """Uniform two-period binary tree with four leaves of probability 0.25."""
    return uniform_binomial(2)


@pytest.fixture
def atom_tree():
    """One-period tree with outcome probabilities (0.1, 0.6, 0.3)."""
    nodes = [
        TreeNode("root", None, 0, 0.0, 1.0),
        TreeNode("lo", "root", 1, 1.0, 0.1),
        TreeNode("mid", "root", 1, 1.0, 0.6),
        TreeNode("hi", "root", 1, 1.0, 0.3),
    ]
    return ScenarioTree(nodes)


@pytest.fixture
def atom_y(atom_tree):
    """The quantile fixture payoff: -2 with prob 0.1, 0 with 0.6, 1 with 0.3."""
    return StaticRV(atom_tree, {"lo": -2.0, "mid": 0.0, "hi": 1.0})


@pytest.fixture
def chain_tree():
    """Deterministic two-period chain: a single path with branch probability one."""
    nodes = [
        TreeNode("root", None, 0, 0.0, 1.0),
        TreeNode("a", "root", 1, 0.5, 1.0),
        TreeNode("b", "a", 2, 1.0, 1.0),
    ]
    return ScenarioTree(nodes)


def random_tree(rng, max_depth=3, max_branch=3, min_depth=1):
    """Random tree with rng-driven branching and positive normalized probabilities."""
    depth = int(rng.integers(min_depth, max_depth + 1))
    rows = [("root", None, 1.0)]
    frontier = ["root"]
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            width = int(rng.integers(2, max_branch + 1))
            raw = rng.uniform(0.1, 1.0, size=width)
            probs = raw / raw.sum()
            for j in range(width):
                nid = f"{parent}.{j}"
                rows.append((nid, parent, float(probs[j])))
                next_frontier.append(nid)
        frontier = next_frontier
    nodes = []
    for nid, parent, p in rows:
        k = 0 if parent is None else nid.count(".")
        nodes.append(TreeNode(nid, parent, k, k / depth, p))
    return ScenarioTree(nodes)


def interleaved_tree(rng, max_depth=3, max_branch=3, min_depth=1):
    """A random_tree shape with ids shuffled within each depth.

    random_tree names children after their parent, so canonical (depth, id)
    order groups every subtree; here canonical order interleaves subtrees and
    differs from the depth-first leaf order.
    """
    base = random_tree(rng, max_depth=max_depth, max_branch=max_branch, min_depth=min_depth)
    name = {base.root: "root"}
    for k in range(1, base.K + 1):
        ids = base.depth_nodes[k]
        for nid, j in zip(ids, rng.permutation(len(ids))):
            name[nid] = f"n{k}.{j:03d}"
    nodes = []
    for nid in base.order:
        n = base.nodes[nid]
        parent = None if n.parent is None else name[n.parent]
        nodes.append(TreeNode(name[nid], parent, n.depth, n.time, n.branch_prob))
    return ScenarioTree(nodes)


def brute_under(tree):
    """Each node's leaves in depth-first order, gathered along the leaves' paths in one walk."""
    under = {nid: [] for nid in tree.order}
    for leaf in sorted(tree.leaves, key=tree.path):
        for nid in tree.path(leaf):
            under[nid].append(leaf)
    return under


def brute_mean(tree, leaf_values, nid, under=None):
    """E[V | nid] over the leaves whose paths pass nid; a constant subtree gives its first DFS value.
    ``under``, the node's leaves in depth-first order (``brute_under``), is found when not given."""
    if under is None:
        # sorting on paths, children in id order, puts the leaves in depth-first order
        under = sorted((leaf for leaf in tree.leaves if nid in tree.path(leaf)), key=tree.path)
    values = [leaf_values[leaf] for leaf in under]
    if all(v == values[0] for v in values):
        return values[0]
    return math.fsum(tree.prob[leaf] * leaf_values[leaf] for leaf in under) / tree.prob[nid]


def value_sampler(rng, coarse):
    """Draws values; coarse draws repeat often, so whole subtrees come out constant.

    Coarse draws take 0.0 and -0.0 (equal, with different bits) and values on
    a 1e12 and a 1e-12 scale among them; fine draws are scaled by 1e-12, 1 or
    1e12.
    """
    if coarse:
        return lambda: float(rng.choice([-1.0, 0.5, 2.0, 0.0, -0.0, 3e12, -2e-12]))
    return lambda: float(rng.uniform(-1.0, 1.0)) * float(rng.choice([1e-12, 1.0, 1e12]))


def hexed(values):
    """A dict's items in key order, each value as float.hex: tells -0.0 from 0.0 and shows every bit."""
    return [(key, float.hex(v)) for key, v in values.items()]


def random_static(tree, rng, scale=1.0):
    return StaticRV(tree, {leaf: float(rng.uniform(-scale, scale)) for leaf in tree.leaves})


def random_process(tree, rng, scale=1.0):
    return AdaptedProcess(
        tree, {nid: float(rng.uniform(-scale, scale)) for nid in tree.order}
    )


def random_dyadic_bimeasure(tree, rng, density=0.7):
    """Signed bi-measure with increments on the 1/1024 grid, so sums stay exact."""
    def draw():
        k = int(rng.integers(-1024, 1025))
        if k == 0:
            k = 1
        return k / 1024.0

    pr = {}
    op = {}
    for nid in tree.order:
        if tree.nodes[nid].depth < tree.K and rng.uniform() < density:
            pr[nid] = draw()
        if rng.uniform() < density:
            op[nid] = draw()
    return BiMeasure(tree, pr, op)


def random_scenario(tree, rng):
    """Positive unit-variation bi-measure (a generalized scenario)."""
    a = random_bimeasure(tree, rng)
    plus = BiMeasure(
        tree,
        {n: abs(v) for n, v in a.pr_inc.items()},
        {n: abs(v) for n, v in a.op_inc.items()},
    )
    if not plus.pr_inc and not plus.op_inc:
        plus = BiMeasure(tree, {}, {tree.leaves[0]: 1.0})
    return normalize_scenario(plus)


def random_spec(tree, rng, n_elements=3, coherent=False):
    elements = []
    for _ in range(n_elements):
        a = random_scenario(tree, rng)
        g = 0.0 if coherent else float(rng.uniform(0.0, 0.5))
        elements.append((a, g))
    return RiskMeasureSpec(tree, elements)


def random_raw_process(tree, rng, scale=1.0):
    vals = {}
    for leaf in tree.leaves:
        for k in range(tree.K + 1):
            vals[(leaf, k)] = float(rng.uniform(-scale, scale))
    return RawProcess(tree, vals)


def random_raw_bimeasure(tree, rng, scale=1.0):
    left = {}
    right = {}
    for leaf in tree.leaves:
        for k in range(tree.K + 1):
            right[(leaf, k)] = float(rng.uniform(-scale, scale))
            if k >= 1:
                left[(leaf, k)] = float(rng.uniform(-scale, scale))
    return RawBiMeasure(tree, left, right)
