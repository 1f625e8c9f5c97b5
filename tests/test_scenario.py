"""Tree construction, validation, and probability bookkeeping."""

import math
import sys
from unittest import mock

import numpy as np
import pytest

from treerisk import (
    AdaptedProcess,
    BiMeasure,
    RawBiMeasure,
    RawProcess,
    ScenarioTree,
    StaticRV,
    TreeNode,
    ValidationError,
    as_raw,
    build_tree,
    dual_projection,
    optional_projection_raw,
    optional_projection_static,
    predictable_projection_raw,
    uniform_binomial,
)
from treerisk import scenario
from treerisk.fileio import dump_tree, load_tree
from treerisk.scenario import _FSUMS_CUTOFF, SUM_TOL

from conftest import brute_mean, brute_under, hexed, interleaved_tree, random_tree, value_sampler

TOL = 1e-12


def test_minimal_binary_tree(t1):
    assert t1.K == 1
    assert t1.leaves == ("d", "u")
    assert t1.order == ("root", "d", "u")
    assert t1.prob["root"] == 1.0
    assert t1.prob["u"] == 0.5
    assert t1.prob["d"] == 0.5


def test_uniform_binomial_depth_two(t2):
    assert t2.K == 2
    assert len(t2.leaves) == 4
    for leaf in t2.leaves:
        assert t2.prob[leaf] == 0.25
    assert [t2.nodes[n].time for n in ("root", "d", "dd")] == [0.0, 0.5, 1.0]


def test_uniform_binomial_depth_ten_mass():
    tree = uniform_binomial(10)
    assert len(tree.leaves) == 1024
    for leaf in tree.leaves:
        assert tree.prob[leaf] == 2.0 ** -10
    assert abs(math.fsum(tree.prob[leaf] for leaf in tree.leaves) - 1.0) <= TOL


def test_uniform_binomial_rejects_nonpositive_depth():
    with pytest.raises(ValidationError):
        uniform_binomial(0)


def test_chain_tree_single_leaf(chain_tree):
    assert chain_tree.leaves == ("b",)
    assert chain_tree.prob["b"] == 1.0


def test_children_probabilities_must_sum_to_one():
    nodes = [
        TreeNode("root", None, 0, 0.0, 1.0),
        TreeNode("a", "root", 1, 1.0, 0.6),
        TreeNode("b", "root", 1, 1.0, 0.6),
    ]
    with pytest.raises(ValidationError, match="root"):
        ScenarioTree(nodes)


def test_duplicate_node_id_rejected():
    nodes = [
        TreeNode("root", None, 0, 0.0, 1.0),
        TreeNode("a", "root", 1, 1.0, 0.5),
        TreeNode("a", "root", 1, 1.0, 0.5),
    ]
    with pytest.raises(ValidationError):
        ScenarioTree(nodes)


def test_missing_root_rejected():
    nodes = [TreeNode("a", "ghost", 1, 1.0, 1.0)]
    with pytest.raises(ValidationError):
        ScenarioTree(nodes)


def test_two_roots_rejected():
    nodes = [
        TreeNode("r1", None, 0, 0.0, 1.0),
        TreeNode("r2", None, 0, 0.0, 1.0),
    ]
    with pytest.raises(ValidationError):
        ScenarioTree(nodes)


def test_branch_probability_must_be_positive():
    nodes = [
        TreeNode("root", None, 0, 0.0, 1.0),
        TreeNode("a", "root", 1, 1.0, 0.0),
        TreeNode("b", "root", 1, 1.0, 1.0),
    ]
    with pytest.raises(ValidationError):
        ScenarioTree(nodes)


def test_depth_must_follow_parent():
    nodes = [
        TreeNode("root", None, 0, 0.0, 1.0),
        TreeNode("a", "root", 2, 1.0, 1.0),
    ]
    with pytest.raises(ValidationError):
        ScenarioTree(nodes)


def test_times_must_increase():
    nodes = [
        TreeNode("root", None, 0, 0.0, 1.0),
        TreeNode("a", "root", 1, 0.0, 1.0),
    ]
    with pytest.raises(ValidationError):
        ScenarioTree(nodes)


def test_leaves_must_share_depth():
    nodes = [
        TreeNode("root", None, 0, 0.0, 1.0),
        TreeNode("a", "root", 1, 0.5, 0.5),
        TreeNode("b", "root", 1, 0.5, 0.5),
        TreeNode("aa", "a", 2, 1.0, 1.0),
    ]
    with pytest.raises(ValidationError):
        ScenarioTree(nodes)


def test_unknown_node_lookup():
    tree = uniform_binomial(1)
    with pytest.raises(ValidationError) as exc:
        tree.require_node("ghost")
    assert str(exc.value) == "unknown node id 'ghost'"


def test_canonical_order_is_depth_then_id(t2):
    depths = [t2.nodes[n].depth for n in t2.order]
    assert depths == sorted(depths)
    for k in range(t2.K + 1):
        ids = [n for n in t2.order if t2.nodes[n].depth == k]
        assert ids == sorted(ids)


def test_path_and_subtree_consistency():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        tree = random_tree(rng)
        for leaf in tree.leaves:
            path = tree.path(leaf)
            assert path[0] == "root"
            assert path[-1] == leaf
            assert [tree.nodes[n].depth for n in path] == list(range(tree.K + 1))
            for nid in path:
                assert leaf in tree.leaves_under(nid)
        for nid in tree.order:
            mass = math.fsum(tree.prob[leaf] for leaf in tree.leaves_under(nid))
            assert abs(mass - tree.prob[nid]) <= 1e-9


def test_children_partition_subtree():
    rng = np.random.default_rng(99)
    tree = random_tree(rng, max_depth=3)
    for nid in tree.order:
        kids = tree.children(nid)
        if not kids:
            assert tree.nodes[nid].depth == tree.K
            continue
        pooled = []
        for c in kids:
            pooled.extend(tree.leaves_under(c))
        assert sorted(pooled) == sorted(tree.leaves_under(nid))


def brute_path(tree, leaf):
    """Root-to-leaf ids found by following parent links one by one."""
    chain = [leaf]
    while tree.nodes[chain[-1]].parent is not None:
        chain.append(tree.nodes[chain[-1]].parent)
    return tuple(reversed(chain))


def brute_leaves_under(tree, nid):
    return {leaf for leaf in tree.leaves if nid in brute_path(tree, leaf)}


def test_index_is_canonical_position():
    tree = interleaved_tree(np.random.default_rng(5))
    assert [tree.index[nid] for nid in tree.order] == list(range(len(tree.order)))
    assert len(tree.index) == len(tree.nodes)


def test_interleaved_ids_separate_dfs_from_canonical_order():
    rng = np.random.default_rng(31)
    trees = [interleaved_tree(rng) for _ in range(10)]
    # otherwise the span tests below could not tell a DFS range from a canonical one
    assert any(t.leaves_under(t.root) != t.leaves for t in trees)


def test_spans_are_contiguous_and_match_path_walks():
    rng = np.random.default_rng(8)
    for _ in range(20):
        tree = interleaved_tree(rng)
        dfs = tree.leaves_under(tree.root)
        assert sorted(dfs) == sorted(tree.leaves)
        for leaf in tree.leaves:
            assert tree.path(leaf) == brute_path(tree, leaf)
        for nid in tree.order:
            under = tree.leaves_under(nid)
            assert set(under) == brute_leaves_under(tree, nid)
            lo = dfs.index(under[0])
            assert dfs[lo : lo + len(under)] == under
            kids = tree.children(nid)
            if kids:
                assert sum((tree.leaves_under(c) for c in kids), ()) == under


def test_conditional_mean_matches_brute_force():
    rng = np.random.default_rng(17)
    for i in range(20):
        tree = interleaved_tree(rng)
        dfs = sorted(tree.leaves, key=tree.path)
        draw = value_sampler(rng, coarse=i % 2 == 0)
        # rows for depths 0..depth - 1 only: deeper nodes get no mean
        depth = int(rng.integers(1, tree.K + 2))
        rows = [[draw() for _ in dfs] for _ in range(depth)]
        expected = [
            brute_mean(tree, dict(zip(dfs, rows[tree.nodes[nid].depth])), nid)
            for nid in tree.order
            if tree.nodes[nid].depth < depth
        ]
        assert list(map(float.hex, tree.node_means(np.array(rows)).tolist())) == list(map(float.hex, expected))


def large_interleaved(rng):
    """An interleaved depth-8 tree with at least _FSUMS_CUTOFF leaves: even one row of values
    takes node_means' segmented route."""
    while True:
        tree = interleaved_tree(rng, max_depth=8, max_branch=3, min_depth=8)
        if len(tree.leaves) >= _FSUMS_CUTOFF:
            return tree


def hexes(values):
    return list(map(float.hex, values))


def test_conditional_mean_above_the_cutoff_matches_brute_force():
    rng = np.random.default_rng(19)
    for i in range(4):
        tree = large_interleaved(rng)
        under = brute_under(tree)
        dfs = under[tree.root]
        draw = value_sampler(rng, coarse=i % 2 == 0)
        rows = [[draw() for _ in dfs] for _ in range(tree.K + 1)]
        slices = [dict(zip(dfs, row)) for row in rows]
        expected = [brute_mean(tree, slices[k], nid, under[nid]) for k, ids in enumerate(tree.depth_nodes) for nid in ids]
        for m in (1, tree.K, tree.K + 1):  # the means at the nodes above depth m, a canonical prefix
            got = tree.node_means(np.array(rows[:m])).tolist()
            assert hexes(got) == hexes(expected[: len(got)]) and len(got) == sum(map(len, tree.depth_nodes[:m]))


def _regular_tree(depth, probs):
    """Every node above ``depth`` has the children nid + 'a', nid + 'b', ... with the branch
    probabilities ``probs(nid)`` (the root's nid is '')."""
    rows, level = [TreeNode("root", None, 0, 0.0, 1.0)], [""]
    for k in range(1, depth + 1):
        level = [nid + "abc"[j] for nid in level for j in range(len(probs(nid)))]
        rows += [TreeNode(nid, nid[:-1] or "root", k, float(k), probs(nid[:-1])["abc".index(nid[-1])]) for nid in level]
    return ScenarioTree(rows)


def test_segmented_route_matches_the_loop(monkeypatch):
    """The same large rows through both routes of node_means, the loop's taken by raising the cutoff."""
    rng = np.random.default_rng(29)
    ternary = _regular_tree(7, lambda nid: (0.3, 0.3, 0.4 + 1e-13))  # its leaf mass exceeds 1
    cases = [(ternary, np.full((1, len(ternary.leaves)), sys.float_info.max))]  # the root's fsum overflows
    # value_sampler's coarse draws; values beyond the sum kernel's range, subnormal or cancelling
    pools = [-1.0, 0.5, 2.0, 0.0, -0.0, 3e12, -2e-12], [1e300, -1e300, 1e-310, -1e-310, 0.5, -0.5]
    for tree in uniform_binomial(11), large_interleaved(rng), ternary:
        shape = (tree.K + 1, len(tree.leaves))
        fine = rng.uniform(-1.0, 1.0, shape) * rng.choice([1e-12, 1.0, 1e12], shape)
        for rows in (*(rng.choice(pool, shape) for pool in pools), fine):
            cases += [(tree, rows[:m]) for m in (1, tree.K, tree.K + 1)]
    assert all(rows.size >= _FSUMS_CUTOFF for _, rows in cases)
    fast = [hexes(tree.node_means(rows).tolist()) for tree, rows in cases]
    assert fast[0] == [sys.float_info.max.hex()]  # a constant range gives its value, with no sum
    monkeypatch.setattr(scenario, "_FSUMS_CUTOFF", 2**62)
    assert fast == [hexes(tree.node_means(rows).tolist()) for tree, rows in cases]


def test_overflowing_means_name_their_node():
    """Leaf values at the float maximum under a node whose leaves outweigh it: the mean overflows
    at the divide, each projection names the first such node, and numpy gives no warning."""
    # under 'a' the sibling probabilities sum to 1 + 8e-13, within the tree's tolerance
    tree = _regular_tree(10, lambda nid: (0.5 + 4e-13,) * 2 if nid.startswith("a") else (0.5, 0.5))
    top = sys.float_info.max
    y = {leaf: 0.0 if leaf[0] == "b" else top for leaf in tree.leaves}
    y[tree.leaves_under("a")[0]] = np.nextafter(top, 0.0)  # so the range under 'a' is not constant
    cells = {(leaf, k): v for leaf, v in y.items() for k in range(tree.K + 1)}
    Z = RawProcess(tree, cells)
    assert (tree.K + 1) * len(tree.leaves) >= _FSUMS_CUTOFF
    faults = [
        (lambda: optional_projection_static(StaticRV(tree, y)), "non-finite value inf at node 'a'"),
        (lambda: optional_projection_raw(Z), "non-finite value inf at node 'a'"),
        (lambda: predictable_projection_raw(Z), "non-finite value inf at node 'aa'"),
        (
            lambda: dual_projection(RawBiMeasure(tree, {c: v for c, v in cells.items() if c[1] >= 1}, cells)),
            "non-finite predictable increment at node 'a'",
        ),
    ]
    for project, message in faults:
        with pytest.raises(ValidationError) as caught:
            project()
        assert str(caught.value) == message


def test_path_sums_match_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(20):
        tree = interleaved_tree(rng)
        dfs = tree.leaves_under(tree.root)
        segments = [[nid for nid in tree.order if rng.uniform() < 0.7] for _ in range(3)] + [[]]
        node, rows, bounds = [], [], []
        for seg in segments:
            rng.shuffle(seg)
            bounds.append((len(node), len(node) + len(seg)))
            for nid in seg:
                # a term in the first column, in the second, or one in each
                kind = int(rng.integers(3))
                pr, op = rng.uniform(-1.0, 1.0, size=2).tolist()
                node.append(tree.index[nid])
                rows.append((0.0 if kind == 1 else pr, 0.0 if kind == 0 else op))
        assert any(pr and op for pr, op in rows)
        node = np.array(node, np.intp)
        terms = np.array(rows, float).reshape(-1, 2)
        out = tree.path_sums(node, terms, bounds)
        assert len(out) == len(segments)
        for (lo, hi), (leaves, sums) in zip(bounds, out):
            seg = [tree.order[i] for i in node[lo:hi]]
            expected = {}
            for d, leaf in enumerate(dfs):
                path = brute_path(tree, leaf)
                on_path = [t for nid, row in zip(seg, terms[lo:hi].tolist()) if nid in path for t in row if t]
                if any(nid in path for nid in seg):
                    expected[d] = math.fsum(on_path)
            assert leaves.tolist() == list(expected)
            assert [float.hex(v) for v in sums.tolist()] == [float.hex(v) for v in expected.values()]


def test_path_gathers_match_path_walks():
    rng = np.random.default_rng(41)
    for _ in range(20):
        tree = interleaved_tree(rng)
        values = {nid: float(rng.uniform(-1.0, 1.0)) for nid in tree.order if rng.uniform() < 0.7}
        expected = {
            (leaf, k): values.get(nid, 0.0)
            for leaf in tree.leaves
            for k, nid in enumerate(tree.path(leaf))
        }
        # items in order: canonical leaves outermost, depth innermost; the grids
        # hold the same values, row i for tree.leaves[i]
        Z = RawProcess.from_adapted(AdaptedProcess(tree, {nid: values.get(nid, 0.0) for nid in tree.order}))
        raw = as_raw(BiMeasure(tree, {}, values))
        for got, grid in ((Z.values, Z.grid), (raw.right_inc, raw.right_grid)):
            assert hexed(got) == hexed(expected)
            assert [v.hex() for v in grid.ravel().tolist()] == [v.hex() for v in expected.values()]


@pytest.mark.parametrize("shift", [0, 1])
def test_raw_slice_means_match_path_walks(shift):
    rng = np.random.default_rng(47 + shift)
    for i in range(20):
        tree = interleaved_tree(rng)
        draw = value_sampler(rng, coarse=i % 2 == 0)
        Z = RawProcess(tree, {(leaf, k): draw() for leaf in tree.leaves for k in range(tree.K + 1)})
        expected = {}
        for nid in tree.order:
            j = tree.nodes[nid].depth + shift
            if j <= tree.K:
                expected[nid] = brute_mean(tree, {leaf: Z.values[(leaf, j)] for leaf in tree.leaves}, nid)
        if shift == 0:
            got = optional_projection_raw(Z).values
        else:  # the predictable projection reads the next slice's mean at the parent
            pred = predictable_projection_raw(Z).values
            got = {nid: pred[tree.children(nid)[0]] for nid in tree.order[: tree.first_leaf]}
        assert hexed(got) == hexed(expected)


def test_leaf_paths_and_node_spans_match_path_walks():
    rng = np.random.default_rng(53)
    for tree in [interleaved_tree(rng) for _ in range(10)] + [uniform_binomial(5)]:
        dfs = tree.leaves_under(tree.root)
        paths = tree.leaf_paths()
        assert paths.shape == (len(tree.leaves), tree.K + 1)
        for d, leaf in enumerate(dfs):
            assert tuple(tree.order[i] for i in paths[d]) == brute_path(tree, leaf)
        lo, hi = tree.node_spans()
        for nid, i in tree.index.items():
            assert dfs[lo[i] : hi[i]] == tree.leaves_under(nid)
        assert tree.leaf_paths() is paths  # built once


def _root(**kw):
    return TreeNode(**{"id": "r", "parent": None, "depth": 0, "time": 0.0, "branch_prob": 1.0, **kw})


def _binary(p=0.5):
    """A depth-2 binary tree under root 'r', every branch at ``p``, rows in canonical order."""
    ids = ("a", "b", "aa", "ab", "ba", "bb")
    return [_root()] + [TreeNode(nid, nid[:-1] or "r", len(nid), float(len(nid)), p) for nid in ids]


# each faulty tree with the message naming its first fault
TREE_FAULTS = [
    ([], "tree has no nodes"),
    ([_root(id="")], "node id must be a non-empty string, got ''"),
    ([_root(depth=1)], "root node 'r' must have depth 0, got 1"),
    ([_root(branch_prob=0.5)], "root node 'r' must carry branch probability 1"),
    ([_root(), TreeNode("a", "ghost", 1, 1.0, 1.0)], "node 'a' references unknown parent 'ghost'"),
    ([_root(), TreeNode("a", "r", 1, math.nan, 1.0)], "node 'a' has non-finite time nan"),
    (
        [_root(), TreeNode("a", "r", 1, 1.0, 0.5), TreeNode("b", "r", 1, 2.0, 0.5)],
        "node 'b' has time 2.0, but depth 1 was already placed at time 1.0",
    ),
    ([_root(time=0.5), TreeNode("a", "r", 1, 1.0, 1.0)], "the time grid must start at 0, got t_0 = 0.5"),
    (
        [_root(), TreeNode("a", "r", 1, 1.0, 0.5), TreeNode("a", "r", 1, 1.0, 0.5)],
        "duplicate node id 'a'",
    ),
    ([TreeNode("a", "ghost", 1, 1.0, 1.0)], "expected exactly one root node, found 0"),
    ([_root(id="r1"), _root(id="r2")], "expected exactly one root node, found 2"),
    (
        [_root(), TreeNode("a", "r", 2, 1.0, 1.0)],
        "node 'a' at depth 2 must sit one level below parent 'r' at depth 0",
    ),
    (
        [_root(), TreeNode("a", "r", 1, 1.0, 0.0), TreeNode("b", "r", 1, 1.0, 1.0)],
        "branch probability of node 'a' must lie in (0, 1], got 0.0",
    ),
    (
        [_root(), TreeNode("a", "r", 1, 1.0, 1.5)],
        "branch probability of node 'a' must lie in (0, 1], got 1.5",
    ),
    (
        [_root(), TreeNode("a", "r", 1, 0.0, 1.0)],
        "times must be strictly increasing, got t_0 = 0.0 and t_1 = 0.0",
    ),
    (
        _binary()[:5],
        "node 'b' has no children but sits at depth 1 < 2; all leaves must share the terminal depth",
    ),
    (
        [_root(), TreeNode("a", "r", 1, 1.0, 0.6), TreeNode("b", "r", 1, 1.0, 0.6)],
        "children probabilities sum != 1 under node 'r' (got 1.2)",
    ),
    # field types: integral floats and bools pass the depth arithmetic but are no depths
    ([_root(), TreeNode("a", "r", 1.0, 1.0, 1.0)], "node 'a' has depth 1.0; depths must be integers"),
    ([_root(), TreeNode("a", "r", True, 1.0, 1.0)], "node 'a' has depth True; depths must be integers"),
    ([_root(depth=0.0), TreeNode("a", "r", 1, 1.0, 1.0)], "node 'r' has depth 0.0; depths must be integers"),
    ([_root(), TreeNode("a", "r", 1, "1.0", 1.0)], "node 'a' has non-numeric time '1.0'"),
    (
        [_root(), TreeNode("a", "r", 1, 1.0, "1.0")],
        "branch probability of node 'a' must lie in (0, 1], got '1.0'",
    ),
    # one check, two faulty nodes: the first in input order is named, whatever its id
    (
        [_root(), TreeNode("b", "r", 1, 1.0, 0.5), TreeNode("a", "r", 1, 1.0, 0.5),
         TreeNode("a", "r", 1, 1.0, 0.5), TreeNode("b", "r", 1, 1.0, 0.5)],
        "duplicate node id 'a'",
    ),
    (
        [_root(), TreeNode("y", "ghost2", 1, 1.0, 1.0), TreeNode("x", "ghost1", 1, 1.0, 1.0)],
        "node 'y' references unknown parent 'ghost2'",
    ),
    (
        [_root(), TreeNode("b", "r", 1, 1.0, 0.0), TreeNode("a", "r", 1, 1.0, 1.5)],
        "branch probability of node 'b' must lie in (0, 1], got 0.0",
    ),
    (
        [_root(), TreeNode("c", "r", 1, 1.0, 0.5), TreeNode("b", "r", 1, 1.0, 0.25),
         TreeNode("a", "r", 1, 1.0, 0.25), TreeNode("cc", "c", 2, 2.0, 1.0)],
        "node 'b' has no children but sits at depth 1 < 2; all leaves must share the terminal depth",
    ),
    (
        [_binary()[0], _binary()[2], _binary()[1], *_binary(0.2)[3:5], *_binary(0.7)[5:]],
        "children probabilities sum != 1 under node 'b' (got 1.4)",
    ),
    (
        [*_binary()[:3], *_binary(0.2)[3:5], *_binary(0.7)[5:]],
        "children probabilities sum != 1 under node 'a' (got 0.4)",
    ),
    # one pass, two checks: node by node in input order
    (
        [_root(), TreeNode("a", "r", 1, 1.0, 0.0), TreeNode("b", "r", 2, 1.0, 1.0)],
        "branch probability of node 'a' must lie in (0, 1], got 0.0",
    ),
    # two passes: every node meets the earlier check before any meets the later one
    (
        [_root(id="r1"), _root(id="r2"), TreeNode("a", "r1", 1, 1.0, 0.5), TreeNode("a", "r1", 1, 1.0, 0.5)],
        "duplicate node id 'a'",
    ),
    (
        [_root(), TreeNode("a", "r", 1, math.nan, 0.5), TreeNode("b", "ghost", 1, 1.0, 0.5)],
        "node 'b' references unknown parent 'ghost'",
    ),
    (
        [_root(), TreeNode("a", "r", 1, 1.0, 0.5), TreeNode("b", "r", 1, 2.0, 0.5),
         TreeNode("c", "r", 1, 1.0, 1.5)],
        "branch probability of node 'c' must lie in (0, 1], got 1.5",
    ),
    (
        [*_binary()[:3], TreeNode("aa", "a", 2, 1.0, 1.0)],
        "times must be strictly increasing, got t_1 = 1.0 and t_2 = 1.0",
    ),
    (
        [_root(), TreeNode("a", "r", 1, 1.0, 0.6), TreeNode("b", "r", 1, 1.0, 0.6),
         TreeNode("aa", "a", 2, 2.0, 1.0)],
        "node 'b' has no children but sits at depth 1 < 2; all leaves must share the terminal depth",
    ),
    (
        [*_binary()[:3], *_binary(0.6)[3:5], *_binary(0.5 + 4.5e-13)[5:]],
        "children probabilities sum != 1 under node 'a' (got 1.2)",
    ),
    # two path probabilities underflow: the first in input order is named
    (
        [_root(), TreeNode("a", "r", 1, 1.0, 1e-200), TreeNode("b", "r", 1, 1.0, 1.0),
         TreeNode("ac", "a", 2, 2.0, 1.0), TreeNode("ab", "a", 2, 2.0, 1e-200),
         TreeNode("aa", "a", 2, 2.0, 1e-200), TreeNode("ba", "b", 2, 2.0, 1.0)],
        "path probability of node 'ab' underflows to 0.0",
    ),
]
TREE_FAULT_IDS = [
    "empty", "empty-id", "root-depth", "root-prob", "unknown-parent", "nan-time", "two-times", "t0",
    "duplicate", "no-root", "two-roots", "depth-below-parent", "prob-zero", "prob-above-one",
    "times-not-increasing", "short-leaf", "sibling-sum",
    "float-depth", "bool-depth", "float-root-depth", "string-time", "string-branch-prob",
    "first-duplicate", "first-unknown-parent", "first-branch-prob", "first-short-leaf",
    "first-sibling-sum-b", "first-sibling-sum-a", "prob-before-depth", "duplicate-before-roots",
    "parent-before-time", "prob-before-time", "times-before-short-leaf", "short-leaf-before-sibling-sum",
    "sibling-sum-before-leaf-mass", "first-path-prob-underflow",
]


@pytest.mark.parametrize("nodes, message", TREE_FAULTS, ids=TREE_FAULT_IDS)
def test_tree_validation_messages(nodes, message):
    with pytest.raises(ValidationError) as exc:
        ScenarioTree(nodes)
    assert str(exc.value) == message


@pytest.mark.parametrize("nodes, message", TREE_FAULTS, ids=TREE_FAULT_IDS)
def test_tree_validation_messages_on_the_column_route(nodes, message):
    """Above the cutoff the column checks find the fault, and the walk names the same first one."""
    with mock.patch.object(scenario, "_TREE_CUTOFF", 0), pytest.raises(ValidationError) as exc:
        ScenarioTree(nodes)
    assert str(exc.value) == message


def _layout(tree):
    """What a tree lays out, floats as float.hex."""
    hexes = lambda values: [float.hex(v) for v in values]
    return (
        tree.order, tree.index, tree.parent.tolist(), tree.depth_nodes, hexes(tree.times), hexes(tree.branch_prob),
        hexes(tree.node_prob.tolist()), [tree.leaves_under(nid) for nid in tree.order],
        [bound.tolist() for bound in tree.node_spans()], tree.leaf_paths().tolist(),
    )


def _loop_layout(rows):
    """What the rows lay out, by Python loops and a recursive depth-first walk: the reference for
    the constructor's numpy passes, in the terms of _layout."""
    grid = {}
    for r in rows:
        grid.setdefault(r.depth, r.time)  # each depth's first row's time
    rows = sorted(rows, key=lambda r: (r.depth, r.id))
    order = tuple(r.id for r in rows)
    index = dict(zip(order, range(len(rows))))
    parent = [index.get(r.parent, 0) for r in rows]
    prob, kids = [1.0] * len(rows), [[] for _ in rows]
    for c in range(1, len(rows)):
        prob[c] = prob[parent[c]] * rows[c].branch_prob
        kids[parent[c]].append(c)  # in id order
    dfs, lo, hi = [], [0] * len(rows), [0] * len(rows)

    def visit(c):
        lo[c] = len(dfs)
        for k in kids[c]:
            visit(k)
        dfs.extend([] if kids[c] else [c])
        hi[c] = len(dfs)

    visit(0)
    paths = [[c] for c in dfs]
    for path in paths:
        while path[0]:
            path.insert(0, parent[path[0]])
    hexes = lambda values: [float.hex(float(v)) for v in values]
    return (
        order, index, parent, tuple(tuple(r.id for r in rows if r.depth == k) for k in sorted(grid)),
        hexes(grid[k] for k in sorted(grid)), hexes(r.branch_prob for r in rows), hexes(prob),
        [tuple(order[d] for d in dfs[lo[c] : hi[c]]) for c in range(len(rows))], [lo, hi], paths,
    )


def _skewed_tree(rng, depth):
    """Three children a node, branch probabilities spread over ten orders of magnitude."""
    rows, level = [TreeNode("root", None, 0, 0.0, 1.0)], ["root"]
    for k in range(1, depth + 1):
        kids = []
        for parent in level:
            p = rng.uniform(size=3) ** 10
            kids += [(f"{parent}.{j}", parent, float(q)) for j, q in enumerate(p / p.sum())]
        rows += [TreeNode(nid, parent, k, float(k), q) for nid, parent, q in kids]
        level = [nid for nid, _, _ in kids]
    return ScenarioTree(rows)


def test_both_routes_lay_out_the_same_tree(tmp_path):
    """The column route (the walk never called) and the row route, on rows in a shuffled order, give
    the tree that load_tree reads back from dump_tree and the loops' layout, bit for bit."""
    rng = np.random.default_rng(67)
    trees = [uniform_binomial(d) for d in range(1, 13)] + [_skewed_tree(rng, d) for d in (2, 4, 6)]
    trees += [interleaved_tree(rng, max_depth=6, max_branch=4, min_depth=3) for _ in range(4)]
    trees += [random_tree(rng, max_depth=5, max_branch=5, min_depth=2) for _ in range(4)]
    for tree in trees:
        rows = [tree.nodes[nid] for nid in rng.permutation(tree.order).tolist()]
        columns = [list(column) for column in zip(*rows)]
        with mock.patch.object(scenario, "_TREE_CUTOFF", 0), mock.patch.object(scenario, "_walk", None):
            by_columns = ScenarioTree(_columns=columns)
        with mock.patch.object(scenario, "_TREE_CUTOFF", 2**62):
            by_rows = ScenarioTree(rows)
        dump_tree(tree, tmp_path / "tree.json")
        assert _layout(by_columns) == _layout(by_rows) == _layout(load_tree(tmp_path / "tree.json")) == _layout(tree)
        assert _layout(by_columns) == _loop_layout(rows)


def test_time_grid_reads_each_depth_s_first_row():
    """Times equal within a depth may differ in sign (0.0 and -0.0): the grid keeps the first row's."""
    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        rows = [_root(time=-1e-13), TreeNode("b", "r", 1, first, 0.5), TreeNode("a", "r", 1, second, 0.5)]
        for cutoff in (0, 2**62):
            with mock.patch.object(scenario, "_TREE_CUTOFF", cutoff):
                assert float.hex(ScenarioTree(rows).times[1]) == float.hex(first)


def test_time_grid_is_checked_as_floats():
    """Integer times the float grid cannot tell apart are refused, on both routes, as the grid the tree keeps."""
    rows = [_root(time=0), TreeNode("a", "r", 1, 2**53, 1.0), TreeNode("b", "a", 2, 2**53 + 1, 1.0)]
    for cutoff in (0, 2**62):
        with mock.patch.object(scenario, "_TREE_CUTOFF", cutoff), pytest.raises(ValidationError) as exc:
            ScenarioTree(rows)
        assert str(exc.value) == "times must be strictly increasing, got t_1 = 9007199254740992.0 and t_2 = 9007199254740992.0"


def test_uniform_binomial_columns_are_unchanged():
    """The ids, parents, depths, times and probabilities uniform_binomial hands the constructor are the
    rows it built one by one, in that order, and the tree is the one those rows build."""
    init, seen = ScenarioTree.__init__, []
    for depth in range(1, 9):
        rows, level = [("root", None, 0, 0.0, 1.0)], [""]
        for k in range(1, depth + 1):
            level = [prefix + letter for prefix in level for letter in "du"]
            rows += [(nid, nid[:-1] or "root", k, k / depth, 0.5) for nid in level]
        with mock.patch.object(ScenarioTree, "__init__", lambda tree, **kw: seen.append(kw["_columns"]) or init(tree, **kw)):
            tree = uniform_binomial(depth)
        assert [list(column) for column in seen.pop()] == [list(column) for column in zip(*rows)]
        assert _layout(tree) == _layout(ScenarioTree(rows))


def test_leaf_mass_within_the_compounded_sibling_bound():
    # each sibling sum reads 1.0000000000009, within SUM_TOL; the leaf mass
    # compounds the two levels' error past SUM_TOL but within the derived bound
    nodes = _binary(0.5 + 4.5e-13)
    tree = ScenarioTree(nodes)
    mass = math.fsum(tree.prob[leaf] for leaf in tree.leaves)
    assert mass == 1.0000000000018 and abs(mass - 1.0) > SUM_TOL
    assert tree.leaves == ("aa", "ab", "ba", "bb")



def test_numpy_integer_depths_pass():
    tree = ScenarioTree([_root(depth=np.int64(0)), TreeNode("a", "r", np.int64(1), 1.0, 1.0)])
    assert tree.K == 1 and tree.leaves == ("a",)


def test_build_is_bitwise_and_round_trips(tmp_path):
    rng = np.random.default_rng(61)
    for tree in [interleaved_tree(rng) for _ in range(10)] + [uniform_binomial(5)]:
        records = list(tree.nodes.values())
        rng.shuffle(records)
        built = ScenarioTree(records)
        assert built.order == tuple(r.id for r in sorted(records, key=lambda r: (r.depth, r.id)))
        assert hexed(built.prob) == hexed(tree.prob)  # input order changes nothing
        for r in records:
            if r.parent is not None:
                assert float.hex(built.prob[r.id]) == float.hex(built.prob[r.parent] * r.branch_prob)
        assert built.nodes == {r.id: r for r in records}
        for r in records:
            node = built.nodes[r.id]
            assert (float.hex(node.time), float.hex(node.branch_prob)) == (float.hex(r.time), float.hex(r.branch_prob))
        dump_tree(built, tmp_path / "tree.json")
        back = load_tree(tmp_path / "tree.json")
        assert back.order == built.order and hexed(back.prob) == hexed(built.prob)
        for a, b in [*zip(back.node_spans(), built.node_spans()), (back.leaf_paths(), built.leaf_paths())]:
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_build_tree_requires_branch_probabilities():
    with pytest.raises(ValidationError) as exc:
        build_tree([("r", None, 0, 0.0), ("a", "r", 1, 1.0)], {})
    assert str(exc.value) == "missing branch probability for node 'a'"


def test_build_tree_matches_the_constructor():
    # rows in a shuffled order, with and without a root entry in branch_prob
    rng = np.random.default_rng(61)
    for tree in [interleaved_tree(rng) for _ in range(8)] + [random_tree(rng), uniform_binomial(3)]:
        rows = [tree.nodes[nid] for nid in rng.permutation(tree.order).tolist()]
        ref = ScenarioTree(tuple(row) for row in rows)
        branch = {row.id: row.branch_prob for row in rows if row.parent is not None}
        for branch_prob in (branch, {**branch, ref.root: 1.0}):
            built = build_tree([(row.id, row.parent, row.depth, row.time) for row in rows], branch_prob)
            assert built.order == ref.order and built.parent.tolist() == ref.parent.tolist()
            assert [p.hex() for p in built.node_prob.tolist()] == [p.hex() for p in ref.node_prob.tolist()]
            assert [b.tolist() for b in built.node_spans()] == [b.tolist() for b in ref.node_spans()]


def test_uniform_binomial_depth_must_be_an_integer():
    for bad in (2.5, True, 2.0):
        with pytest.raises(ValidationError) as exc:
            uniform_binomial(bad)
        assert str(exc.value) == f"depth must be a positive integer, got {bad}"
    tree = uniform_binomial(np.int64(3))
    assert tree.order == uniform_binomial(3).order and tree.times == uniform_binomial(3).times


def test_parent_column_matches_path_walks():
    rng = np.random.default_rng(59)
    for tree in [interleaved_tree(rng) for _ in range(10)] + [uniform_binomial(5)]:
        assert tree.parent.dtype == np.intp and tree.parent[0] == 0
        for nid, i in tree.index.items():
            parent = tree.nodes[nid].parent
            assert tree.order[tree.parent[i]] == (nid if parent is None else parent)
        for leaf in tree.leaves:
            path = brute_path(tree, leaf)
            assert [tree.parent[tree.index[n]] for n in path[1:]] == [tree.index[n] for n in path[:-1]]
