"""The benchmark's reference computations against hand-worked values.

Run with: python3 -m pytest bench/test_reference.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as R  # noqa: E402
from inputs import Element, TreeArrays, ancestors, binomial_tree, conditional_sum, path_sum, shaped_tree  # noqa: E402


@pytest.fixture
def atom():
    """One period, outcomes -2, 0, 1 with probabilities 0.1, 0.6, 0.3."""
    tree = TreeArrays(
        ids=("root", "a", "b", "c"),
        parent=np.array([-1, 0, 0, 0]),
        depth=np.array([0, 1, 1, 1]),
        branch=np.array([1.0, 0.1, 0.6, 0.3]),
    )
    return tree, np.array([-2.0, 0.0, 1.0])


@pytest.fixture
def t2():
    return binomial_tree(2)


def test_atom_quantiles(atom):
    tree, y = atom
    p = tree.prob[tree.leaves]
    ref = R.instances(p, y, 0.2, 1.0)
    assert [q.var for q in ref.quantiles] == [0.0]
    assert ref.quantiles[0].tce == -2.0
    # mass 0.1 at -2 plus 0.1 at 0, averaged over 0.2
    assert ref.avar == pytest.approx(1.0, rel=1e-15)
    assert ref.entropic == pytest.approx(math.log(0.1 * math.e**2 + 0.6 + 0.3 / math.e), rel=1e-15)
    assert ref.worst == 2.0


def test_atom_tail_below_minimum_is_undefined(atom):
    tree, y = atom
    ref = R.instances(tree.prob[tree.leaves], y, 0.05, 1.0)
    assert [q.var for q in ref.quantiles] == [2.0]
    assert ref.quantiles[0].tce is None
    assert ref.avar == 2.0


def test_atom_avar_half(atom):
    tree, y = atom
    ref = R.instances(tree.prob[tree.leaves], y, 0.5, 1.0)
    assert ref.avar == pytest.approx(0.4, rel=1e-15)


def test_level_on_a_cumulative_mass_admits_both_quantiles():
    p = np.array([0.25, 0.25, 0.5])
    ref = R.instances(p, np.array([-3.0, -1.0, 2.0]), 0.5, 1.0)
    assert sorted(q.var for q in ref.quantiles) == [-2.0, 1.0]


def test_atom_modulus(atom):
    tree, _ = atom
    etas, _ = R.ui_modulus(tree.prob[tree.leaves], np.array([[5.0, 0.5, 0.5]]), (0.0, 1.0, 5.0))
    assert etas == pytest.approx([0.95, 0.5, 0.0], rel=1e-15)


def test_binomial_layout(t2):
    assert t2.ids == ("root", "d", "u", "dd", "du", "ud", "uu")
    assert t2.parent.tolist() == [-1, 0, 0, 1, 1, 2, 2]
    assert t2.prob.tolist() == [1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25]
    assert t2.leaves.tolist() == [3, 4, 5, 6]
    assert ancestors(t2).tolist() == [[0, 1, 3], [0, 1, 4], [0, 2, 5], [0, 2, 6]]


def test_tree_sums(t2):
    assert conditional_sum(t2, np.array([1.0, 2.0, 3.0, 4.0])).tolist() == [10, 3, 7, 1, 2, 3, 4]
    assert path_sum(t2, np.arange(7.0)).tolist() == [0, 1, 2, 4, 5, 7, 8]


def test_closure(t2):
    M, _ = R.closure(t2, np.array([4.0, 0.0, -2.0, 2.0]))
    assert M.tolist() == [1.0, 2.0, 0.0, 4.0, 0.0, -2.0, 2.0]


def test_raw_projections(t2):
    Z = np.array([[1.0, 1.0, 8.0], [2.0, 3.0, 0.0], [3.0, 5.0, 0.0], [4.0, 7.0, 4.0]])
    opt, pred, _, _ = R.raw_projections(t2, Z)
    assert opt.tolist() == [2.5, 2.0, 6.0, 8.0, 0.0, 0.0, 4.0]
    assert pred.tolist() == [2.5, 4.0, 4.0, 4.0, 4.0, 2.0, 2.0]


def test_losses_and_variation(t2):
    zero = np.zeros(7)
    a = Element(pr=np.array([0, 2.0, 0, 0, 0, 0, 0]), op=np.array([1.0, 0, 0, 0, 0, 0, 0]), gamma=0.5, label="a")
    b = Element(pr=zero, op=np.array([0, 0, 0, 4.0, 0, 0, 0]), gamma=0.25, label="b")
    x = np.array([3.0, -1.0, 0, 2.0, 0, 0, 0])
    vals, scale = R.penalized_losses(t2, [a, b], x)
    # a: -(1 * 3 + 0.5 * 2 * -1) - 0.25;  b: -(0.25 * 4 * 2) - 0
    assert vals.tolist() == [-2.25, -2.0]
    assert scale.tolist() == [4.25, 2.0]
    assert R.variations(t2, [a, b]).tolist() == [[3, 3, 1, 1], [4, 0, 0, 0]]


def test_stopping_value(t2):
    x = np.array([0.0, -1.0, 1.0, -4.0, 0.0, 2.0, 2.0])
    # V(d) = max(1, (4 + 0) / 2) = 2, V(u) = max(-1, -2) = -1, V(root) = max(0, 0.5)
    assert R.stopping_value(t2, x) == 0.5
    value, _ = R.stopped_loss(t2, x, np.array([2, 2, 1, 1]))
    assert value == 0.25 * (4.0 + 0.0 - 1.0 - 1.0)


def test_lp_optimum():
    A = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    assert R.lp_optimum(A, np.array([0.5, 0.5]), np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0, abs=R.bound(1.0, 3))
    assert R.lp_optimum(A, np.array([0.5, 0.5]), np.array([1.0, 1.0, 0.0])) == pytest.approx(0.0, abs=R.bound(1.0, 3))
    assert R.lp_optimum(A, np.array([2.0, 0.0]), np.zeros(3)) is None


def test_bound_scales_with_terms():
    assert R.bound(0.0, 100) == 0.0
    assert R.bound(2.0, 10) == 2 * R.bound(1.0, 10)
    with pytest.raises(R.CheckFailed):
        R.require_close(1.0 + 1e-9, 1.0, 1.0, 10, "off by 1e-9")
    R.require_close(1.0 + R.EPS, 1.0, 1.0, 10, "off by one ulp")


def test_shaped_tree_sizes_do_not_depend_on_the_seed():
    cycles = [[3], [2, 4], [2, 3]]
    sizes = {shaped_tree(np.random.default_rng(s), cycles, 0.5).n_nodes for s in range(5)}
    assert sizes == {1 + 3 + 8 + 20}
    tree = shaped_tree(np.random.default_rng(0), cycles, 0.5)
    assert list(tree.ids) == sorted(tree.ids)
    sums = np.zeros(tree.n_nodes)
    np.add.at(sums, tree.parent[1:], tree.branch[1:])
    assert np.allclose(sums[tree.interior], 1.0, rtol=0, atol=R.bound(1.0, 4))
