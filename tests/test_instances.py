"""Canonical risk measure instances and their cross-checking oracles."""

import itertools
import math

import numpy as np
import pytest

from treerisk import (
    AdaptedProcess,
    QuantileLevel,
    ScenarioTree,
    StaticRV,
    TreeNode,
    UndefinedQuantityError,
    ValidationError,
    avar,
    avar_max_density,
    avar_spec,
    entropic,
    es_tce,
    optional_projection_static,
    pairing,
    static_rho,
    stopped_worst_case,
    stopping_time_measure,
    uniform_binomial,
    var_alpha,
    worst_case_spec,
)

from conftest import interleaved_tree, random_static, random_tree

TOL = 1e-12
TRIPLE_TOL = 1e-10


class TestQuantileLevel:
    def test_interior_accepted(self):
        assert QuantileLevel(0.25).alpha == 0.25

    def test_boundary_rejected(self):
        for bad in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValidationError):
                QuantileLevel(bad)


class TestVar:
    def test_fixture_small_level(self, atom_y):
        assert var_alpha(atom_y, 0.05) == 2.0

    def test_fixture_mid_level(self, atom_y):
        assert var_alpha(atom_y, 0.2) == 0.0

    def test_constant(self, t1):
        for c in (-3.0, 0.0, 2.5):
            Y = StaticRV.constant(t1, c)
            assert var_alpha(Y, 0.3) == -c

    def test_no_negative_zero(self, t1):
        Y = StaticRV.constant(t1, 0.0)
        assert math.copysign(1.0, var_alpha(Y, 0.5)) == 1.0


class TestTce:
    def test_fixture(self, atom_y):
        assert es_tce(atom_y, 0.2) == -2.0

    def test_constant_undefined(self, t1):
        with pytest.raises(UndefinedQuantityError):
            es_tce(StaticRV.constant(t1, 1.0), 0.2)

    def test_two_atom_tail_average(self):
        nodes = [
            TreeNode("root", None, 0, 0.0, 1.0),
            TreeNode("w1", "root", 1, 1.0, 0.05),
            TreeNode("w2", "root", 1, 1.0, 0.05),
            TreeNode("w3", "root", 1, 1.0, 0.9),
        ]
        tree = ScenarioTree(nodes)
        Y = StaticRV(tree, {"w1": -3.0, "w2": -1.0, "w3": 1.0})
        assert abs(es_tce(Y, 0.15) - (-2.0)) <= TOL

    def test_sum_can_beat_parts_while_avar_stays_subadditive(self):
        nodes = [
            TreeNode("root", None, 0, 0.0, 1.0),
            TreeNode("w1", "root", 1, 1.0, 0.1),
            TreeNode("w2", "root", 1, 1.0, 0.1),
            TreeNode("w3", "root", 1, 1.0, 0.1),
            TreeNode("w4", "root", 1, 1.0, 0.7),
        ]
        tree = ScenarioTree(nodes)
        Y1 = StaticRV(tree, {"w1": -4.0, "w2": 0.0, "w3": 0.0, "w4": 1.0})
        Y2 = StaticRV(tree, {"w1": 0.0, "w2": -5.0, "w3": 0.0, "w4": 1.0})
        alpha = 0.15
        assert es_tce(Y1, alpha) == -4.0
        assert es_tce(Y2, alpha) == -5.0
        assert es_tce((Y1 + Y2), alpha) == -5.0
        assert es_tce((Y1 + Y2), alpha) > es_tce(Y1, alpha) + es_tce(Y2, alpha)
        assert abs(avar(Y1, alpha) - 8.0 / 3.0) <= TOL
        assert abs(avar(Y2, alpha) - 10.0 / 3.0) <= TOL
        assert abs(avar((Y1 + Y2), alpha) - 14.0 / 3.0) <= TOL
        assert avar((Y1 + Y2), alpha) <= avar(Y1, alpha) + avar(Y2, alpha) + TOL


class TestAvar:
    def test_fixture(self, atom_y):
        assert abs(avar(atom_y, 0.2) - 1.0) <= TOL

    def test_binary(self, t1):
        Y = StaticRV(t1, {"u": 1.0, "d": -1.0})
        assert abs(avar(Y, 0.5) - 1.0) <= TOL

    def test_constant(self, t2):
        assert abs(avar(StaticRV.constant(t2, -1.5), 0.3) - 1.5) <= TOL

    def test_dominates_var_and_below_worst_case(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            tree = random_tree(rng)
            Y = random_static(tree, rng)
            alpha = float(rng.uniform(0.05, 0.95))
            v = var_alpha(Y, alpha)
            a = avar(Y, alpha)
            worst = max(-Y.values[leaf] for leaf in tree.leaves)
            assert a >= v - TOL
            assert a <= worst + TOL

    def test_maximizing_density_is_admissible(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            tree = random_tree(rng)
            Y = random_static(tree, rng)
            alpha = float(rng.uniform(0.05, 0.95))
            f = avar_max_density(Y, alpha)
            cap = 1.0 / alpha
            for leaf in tree.leaves:
                assert -TOL <= f.values[leaf] <= cap + 1e-9
            assert abs(f.expectation() - 1.0) <= 1e-9

    def test_triple_agreement(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            tree = random_tree(rng, max_depth=2, max_branch=4)
            Y = random_static(tree, rng)
            alpha = float(rng.uniform(0.1, 0.9))
            scan = avar(Y, alpha)
            spec = avar_spec(tree, alpha)
            via_spec = static_rho(spec, Y)
            f = avar_max_density(Y, alpha)
            prob = tree.prob
            via_density = -math.fsum(
                prob[leaf] * f.values[leaf] * Y.values[leaf] for leaf in tree.leaves
            )
            assert abs(scan - via_spec) <= TRIPLE_TOL
            assert abs(scan - via_density) <= TRIPLE_TOL


class TestAvarSpec:
    def test_binary_vertices(self, t1):
        spec = avar_spec(t1, 0.5)
        assert len(spec) == 2
        assert spec.is_coherent
        densities = sorted(
            tuple(sorted(a.op_inc.items())) for a, _ in spec.elements
        )
        assert densities == [(("d", 2.0),), (("u", 2.0),)]

    def test_four_leaf_pair_count(self, t2):
        assert len(avar_spec(t2, 0.5)) == 6

    def test_chain_single_unit_density(self, chain_tree):
        spec = avar_spec(chain_tree, 0.35)
        assert len(spec) == 1
        (a, g) = spec.elements[0]
        assert g == 0.0
        assert a.op_inc == {"b": 1.0}
        rngY = StaticRV(chain_tree, {"b": -0.75})
        assert abs(static_rho(spec, rngY) - 0.75) <= TOL

    def test_leaf_cap(self):
        with pytest.raises(ValidationError):
            avar_spec(uniform_binomial(5), 0.5)


class TestWorstCaseSpec:
    def test_one_element_per_leaf(self, t2):
        spec = worst_case_spec(t2)
        assert len(spec) == len(t2.leaves)
        assert spec.is_coherent
        assert spec.labels == tuple(f"leaf:{leaf}" for leaf in t2.leaves)

    def test_static_rho_is_worst_loss(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            tree = random_tree(rng)
            spec = worst_case_spec(tree)
            Y = random_static(tree, rng)
            worst = max(-Y.values[leaf] for leaf in tree.leaves)
            assert abs(static_rho(spec, Y) - worst) <= TOL


class TestEntropic:
    def test_binary_fixture(self, t1):
        Y = StaticRV(t1, {"u": 1.0, "d": -1.0})
        v = entropic(Y, 1.0)
        assert abs(v - math.log(math.cosh(1.0))) <= TOL
        assert abs(v - 0.433780830484) <= TOL

    def test_constant(self, t2):
        for beta in (0.5, 1.0, 2.0):
            assert abs(entropic(StaticRV.constant(t2, 0.8), beta) + 0.8) <= TOL

    def test_dominates_expected_loss_and_grows_in_beta(self):
        rng = np.random.default_rng(89)
        for _ in range(25):
            tree = random_tree(rng)
            Y = random_static(tree, rng)
            lo = entropic(Y, 0.5)
            hi = entropic(Y, 2.0)
            assert lo >= -Y.expectation() - TOL
            assert hi >= lo - TOL

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(97)
        for _ in range(25):
            tree = random_tree(rng)
            Y1, Y2 = random_static(tree, rng), random_static(tree, rng)
            mid = StaticRV(
                tree,
                {
                    leaf: 0.5 * (Y1.values[leaf] + Y2.values[leaf])
                    for leaf in tree.leaves
                },
            )
            assert entropic(mid, 1.0) <= 0.5 * entropic(Y1, 1.0) + 0.5 * entropic(
                Y2, 1.0
            ) + TOL

    def test_beta_must_be_positive(self, t1):
        with pytest.raises(ValidationError):
            entropic(StaticRV.constant(t1, 0.0), 0.0)

    def test_large_losses_do_not_overflow(self, t1):
        Y = StaticRV(t1, {"u": -500.0, "d": -800.0})
        v = entropic(Y, 2.0)
        assert math.isfinite(v)
        assert 500.0 <= v <= 800.0


def all_stopping_times(tree):
    """Every adapted stopping rule, as a leaf -> stopping depth map."""

    def expand(nid):
        k = tree.nodes[nid].depth
        options = [{leaf: k for leaf in tree.leaves_under(nid)}]
        kids = tree.children(nid)
        if kids:
            child_maps = [expand(c) for c in kids]
            for combo in itertools.product(*child_maps):
                merged = {}
                for m in combo:
                    merged.update(m)
                options.append(merged)
        return options

    return expand(tree.root)


def stopping_value(tree, X, tau):
    node_at = {}
    for leaf in tree.leaves:
        path = tree.path(leaf)
        node_at[leaf] = path[tau[leaf]]
    return math.fsum(
        -tree.prob[leaf] * X.values[node_at[leaf]] for leaf in tree.leaves
    )


def dyadic_process(tree, rng):
    return AdaptedProcess(
        tree, {nid: int(rng.integers(-1024, 1025)) / 1024.0 for nid in tree.order}
    )


class TestStoppedWorstCase:
    def test_enumeration_count(self, t2):
        assert len(all_stopping_times(t2)) == 5

    def test_martingale_ties_stop_at_root(self, t1):
        X = optional_projection_static(StaticRV(t1, {"u": 1.0, "d": -1.0}))
        result = stopped_worst_case(t1, X)
        assert result.value == 0.0
        assert result.tau == {"u": 0, "d": 0}

    def test_pathwise_decreasing_stops_at_horizon(self, t2):
        X = AdaptedProcess(
            t2,
            {
                "root": 3.0,
                "d": 2.0,
                "u": 2.5,
                "dd": 1.0,
                "du": 1.5,
                "ud": 0.0,
                "uu": 2.0,
            },
        )
        result = stopped_worst_case(t2, X)
        assert result.tau == {leaf: 2 for leaf in t2.leaves}
        assert result.value == 3.0 / 4.0 * -0.0 + -(1.0 + 1.5 + 0.0 + 2.0) / 4.0

    def test_matches_exhaustive_enumeration_exactly(self):
        rng = np.random.default_rng(101)
        for depth in (1, 2, 3):
            tree = uniform_binomial(depth)
            taus = all_stopping_times(tree)
            for _ in range(10):
                X = dyadic_process(tree, rng)
                best = max(stopping_value(tree, X, tau) for tau in taus)
                result = stopped_worst_case(tree, X)
                assert result.value == best

    def test_value_realized_by_reported_rule(self):
        rng = np.random.default_rng(103)
        tree = uniform_binomial(3)
        for _ in range(10):
            X = dyadic_process(tree, rng)
            result = stopped_worst_case(tree, X)
            m = stopping_time_measure(tree, result.tau)
            assert abs(-pairing(X, m) - result.value) <= TOL

    def test_rule_matches_path_walks_on_interleaved_ids(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            tree = interleaved_tree(rng)
            X = dyadic_process(tree, rng)
            V = {}
            stops = set()
            for k in range(tree.K, -1, -1):
                for nid in tree.depth_nodes[k]:
                    kids = tree.children(nid)
                    here = -X.values[nid]
                    cont = math.fsum(tree.nodes[c].branch_prob * V[c] for c in kids) if kids else -math.inf
                    V[nid] = max(here, cont)
                    if here >= cont:
                        stops.add(nid)
            tau = {
                leaf: next(k for k, nid in enumerate(tree.path(leaf)) if nid in stops)
                for leaf in tree.leaves
            }
            result = stopped_worst_case(tree, X)
            assert list(result.tau.items()) == list(tau.items())
            assert result.value == V[tree.root]
