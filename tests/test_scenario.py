"""Tree construction, validation, and probability bookkeeping."""

import math

import numpy as np
import pytest

from treerisk import ScenarioTree, TreeNode, ValidationError, build_tree, uniform_binomial
from treerisk.fileio import dump_tree, load_tree

from conftest import brute_mean, hexed, interleaved_tree, random_tree, value_sampler

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
        assert list(map(float.hex, tree.node_means(rows))) == list(map(float.hex, expected))


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


def test_along_paths_matches_path_walks():
    rng = np.random.default_rng(41)
    for _ in range(20):
        tree = interleaved_tree(rng)
        values = {nid: float(rng.uniform(-1.0, 1.0)) for nid in tree.order if rng.uniform() < 0.7}
        expected = {
            (leaf, k): values.get(nid, 0.0)
            for leaf in tree.leaves
            for k, nid in enumerate(tree.path(leaf))
        }
        # items in order: canonical leaves outermost, depth innermost
        assert hexed(tree.along_paths(values)) == hexed(expected)


@pytest.mark.parametrize("shift", [0, 1])
def test_slice_means_match_path_walks(shift):
    rng = np.random.default_rng(47 + shift)
    for i in range(20):
        tree = interleaved_tree(rng)
        draw = value_sampler(rng, coarse=i % 2 == 0)
        grid = {(leaf, k): draw() for leaf in tree.leaves for k in range(tree.K + 1)}
        expected = {}
        for nid in tree.order:
            j = tree.nodes[nid].depth + shift
            if j <= tree.K:
                expected[nid] = brute_mean(tree, {leaf: grid[(leaf, j)] for leaf in tree.leaves}, nid)
        assert hexed(tree.slice_means(grid, shift)) == hexed(expected)


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


@pytest.mark.parametrize(
    "nodes, message",
    [
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
        # each sibling sum reads 1.0000000000009, within the tolerance; the leaf mass
        # compounds the two levels' error past it
        (_binary(0.5 + 4.5e-13), "leaf probabilities sum != 1 (got 1.0000000000018)"),
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
    ],
    ids=[
        "empty", "empty-id", "root-depth", "root-prob", "unknown-parent", "nan-time", "two-times", "t0",
        "duplicate", "no-root", "two-roots", "depth-below-parent", "prob-zero", "prob-above-one",
        "times-not-increasing", "short-leaf", "sibling-sum", "leaf-mass",
        "float-depth", "bool-depth", "float-root-depth", "string-time", "string-branch-prob",
        "first-duplicate", "first-unknown-parent", "first-branch-prob", "first-short-leaf",
        "first-sibling-sum-b", "first-sibling-sum-a", "prob-before-depth", "duplicate-before-roots",
        "parent-before-time", "prob-before-time", "times-before-short-leaf", "short-leaf-before-sibling-sum",
        "sibling-sum-before-leaf-mass",
    ],
)
def test_tree_validation_messages(nodes, message):
    with pytest.raises(ValidationError) as exc:
        ScenarioTree(nodes)
    assert str(exc.value) == message


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
