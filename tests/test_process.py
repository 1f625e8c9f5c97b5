"""Adapted and raw processes, projections, path suprema."""

import math

import numpy as np
import pytest

from treerisk import (
    AdaptedProcess,
    RawProcess,
    StaticRV,
    ValidationError,
    optional_projection_raw,
    optional_projection_static,
    predictable_projection_raw,
    prob_sup_exceedance,
    running_sup,
    sup_norm,
    terminal_values,
    uniform_binomial,
)

from conftest import (
    brute_mean,
    hexed,
    interleaved_tree,
    random_process,
    random_raw_process,
    random_static,
    random_tree,
    value_sampler,
)

TOL = 1e-12


def mart_x(t1):
    return AdaptedProcess(t1, {"root": 0.0, "u": 1.0, "d": -1.0})


class TestArithmetic:
    def test_add_sub_round_trip(self, t2):
        rng = np.random.default_rng(5)
        X = random_process(t2, rng)
        Y = random_process(t2, rng)
        Z = (X + Y) - Y
        for nid in t2.order:
            assert abs(Z.values[nid] - X.values[nid]) <= TOL

    def test_neg_scale_shift(self, t1):
        X = mart_x(t1)
        assert (-X).values["u"] == -1.0
        assert X.scale(2.0).values["d"] == -2.0
        assert X.shift(3.0).values["root"] == 3.0

    def test_missing_node_rejected(self, t1):
        with pytest.raises(ValidationError):
            AdaptedProcess(t1, {"root": 0.0, "u": 1.0})

    def test_foreign_node_rejected(self, t1):
        with pytest.raises(ValidationError):
            AdaptedProcess(t1, {"root": 0.0, "u": 1.0, "d": -1.0, "ghost": 2.0})

    def test_distinct_tree_objects_rejected(self):
        ta, tb = uniform_binomial(1), uniform_binomial(1)
        X = AdaptedProcess(ta, {"root": 0.0, "u": 1.0, "d": -1.0})
        Y = AdaptedProcess(tb, {"root": 0.0, "u": 1.0, "d": -1.0})
        with pytest.raises(ValidationError):
            X + Y

    def test_nonfinite_value_rejected(self, t1):
        with pytest.raises(ValidationError):
            AdaptedProcess(t1, {"root": 0.0, "u": math.inf, "d": -1.0})


class TestStatic:
    def test_expectation(self, atom_y):
        assert abs(atom_y.expectation() - 0.1) <= TOL

    def test_leaf_coverage_enforced(self, t1):
        with pytest.raises(ValidationError):
            StaticRV(t1, {"u": 1.0})

    def test_terminal_values_restrict(self, t2):
        rng = np.random.default_rng(8)
        X = random_process(t2, rng)
        Y = terminal_values(X)
        for leaf in t2.leaves:
            assert Y.values[leaf] == X.values[leaf]


class TestRunningSup:
    def test_binary_example(self, t1):
        X = mart_x(t1)
        star = running_sup(X)
        assert star.values["u"] == 1.0
        assert star.values["d"] == 1.0

    def test_constant(self, t2):
        X = AdaptedProcess.constant(t2, -3.0)
        star = running_sup(X)
        assert all(v == 3.0 for v in star.values.values())

    def test_path_maximum_of_absolutes(self, t2):
        X = AdaptedProcess(
            t2,
            {
                "root": 0.0,
                "d": 2.0,
                "u": 0.0,
                "dd": -5.0,
                "du": 1.0,
                "ud": 0.0,
                "uu": 0.0,
            },
        )
        assert running_sup(X).values["dd"] == 5.0
        assert running_sup(X).values["du"] == 2.0

    def test_sup_norm(self, t1):
        assert sup_norm(mart_x(t1)) == 1.0
        assert sup_norm(AdaptedProcess.zero(t1)) == 0.0

    def test_shift_moves_norm_at_most_by_shift(self, t2):
        rng = np.random.default_rng(13)
        for _ in range(25):
            X = random_process(t2, rng)
            m = float(rng.uniform(-2.0, 2.0))
            assert sup_norm(X.shift(m)) <= sup_norm(X) + abs(m) + TOL


class TestOptionalProjectionStatic:
    def test_depth_two_uniform_oracle(self, t2):
        Y = StaticRV(t2, {"uu": 4.0, "ud": 2.0, "du": 0.0, "dd": -2.0})
        M = optional_projection_static(Y)
        assert M.values["u"] == 3.0
        assert M.values["d"] == -1.0
        assert M.values["root"] == 1.0

    def test_binary_martingale(self, t1):
        Y = StaticRV(t1, {"u": 1.0, "d": -1.0})
        M = optional_projection_static(Y)
        assert M.values["root"] == 0.0
        assert M.values["u"] == 1.0
        assert M.values["d"] == -1.0

    def test_constant_is_exact(self, t2):
        Y = StaticRV.constant(t2, 0.7)
        M = optional_projection_static(Y)
        assert all(v == 0.7 for v in M.values.values())

    def test_leaves_copied_bit_exactly(self):
        rng = np.random.default_rng(21)
        tree = random_tree(rng)
        Y = random_static(tree, rng)
        M = optional_projection_static(Y)
        for leaf in tree.leaves:
            assert M.values[leaf] == Y.values[leaf]

    def test_martingale_property_random(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            tree = random_tree(rng)
            Y = random_static(tree, rng)
            M = optional_projection_static(Y)
            for nid in tree.order:
                kids = tree.children(nid)
                if not kids:
                    continue
                cond = math.fsum(
                    tree.nodes[c].branch_prob * M.values[c] for c in kids
                )
                assert abs(cond - M.values[nid]) <= TOL


class TestRawProjections:
    def test_adapted_input_unchanged(self, t2):
        rng = np.random.default_rng(55)
        X = random_process(t2, rng)
        Z = RawProcess.from_adapted(X)
        M = optional_projection_raw(Z)
        for nid in t2.order:
            assert M.values[nid] == X.values[nid]

    def test_binary_averaging(self, t1):
        Z = RawProcess(
            t1,
            {("u", 0): 1.0, ("u", 1): 1.0, ("d", 0): -1.0, ("d", 1): -1.0},
        )
        M = optional_projection_raw(Z)
        assert M.values["root"] == 0.0
        assert M.values["u"] == 1.0
        assert M.values["d"] == -1.0

    def test_constant_raw(self, t2):
        Z = RawProcess(
            t2, {(leaf, k): 2.5 for leaf in t2.leaves for k in range(t2.K + 1)}
        )
        assert all(v == 2.5 for v in optional_projection_raw(Z).values.values())
        assert all(v == 2.5 for v in predictable_projection_raw(Z).values.values())

    def test_predictable_averages_one_step_ahead(self, t1):
        Z = RawProcess(
            t1,
            {("u", 0): 0.0, ("d", 0): 0.0, ("u", 1): 1.0, ("d", 1): -1.0},
        )
        P = predictable_projection_raw(Z)
        assert P.values["root"] == 0.0
        assert P.values["u"] == 0.0
        assert P.values["d"] == 0.0

    def test_predictable_constant_on_siblings(self):
        rng = np.random.default_rng(77)
        tree = random_tree(rng, max_depth=3)
        Z = random_raw_process(tree, rng)
        P = predictable_projection_raw(Z)
        for nid in tree.order:
            for c in tree.children(nid):
                first = tree.children(nid)[0]
                assert P.values[c] == P.values[first]

    def test_chain_predictable_equals_optional(self, chain_tree):
        rng = np.random.default_rng(78)
        Z = random_raw_process(chain_tree, rng)
        opt = optional_projection_raw(Z)
        pred = predictable_projection_raw(Z)
        for nid in chain_tree.order:
            assert abs(opt.values[nid] - pred.values[nid]) <= TOL

    def test_raw_requires_dense_grid(self, t1):
        with pytest.raises(ValidationError):
            RawProcess(t1, {("u", 0): 1.0, ("u", 1): 1.0, ("d", 1): -1.0})


class TestInterleavedIds:
    """Canonical order differs from DFS order: results match path walks, keys come in canonical order."""

    def test_projections_match_path_walks(self):
        rng = np.random.default_rng(61)
        for i in range(20):
            tree = interleaved_tree(rng)
            draw = value_sampler(rng, coarse=i % 2 == 0)
            Y = StaticRV(tree, {leaf: draw() for leaf in tree.leaves})
            Z = RawProcess(tree, {(leaf, k): draw() for leaf in tree.leaves for k in range(tree.K + 1)})
            slices = [{leaf: Z.values[(leaf, k)] for leaf in tree.leaves} for k in range(tree.K + 1)]
            opt_static, opt, pred = {}, {}, {}
            for nid in tree.order:
                node = tree.nodes[nid]
                opt_static[nid] = brute_mean(tree, Y.values, nid)
                opt[nid] = brute_mean(tree, slices[node.depth], nid)
                # one step ahead: condition on the parent; the root on itself
                pred[nid] = brute_mean(tree, slices[node.depth], node.parent or nid)
            assert hexed(optional_projection_static(Y).values) == hexed(opt_static)
            assert hexed(optional_projection_raw(Z).values) == hexed(opt)
            assert hexed(predictable_projection_raw(Z).values) == hexed(pred)

    def test_from_adapted_matches_path_walks(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            tree = interleaved_tree(rng)
            X = random_process(tree, rng)
            expected = {
                (leaf, k): X.values[nid]
                for leaf in tree.leaves
                for k, nid in enumerate(tree.path(leaf))
            }
            assert hexed(RawProcess.from_adapted(X).values) == hexed(expected)

    def test_running_sup_and_exceedance_match_path_walks(self):
        rng = np.random.default_rng(63)
        trees = [interleaved_tree(rng) for _ in range(16)] + [uniform_binomial(6)] * 4
        for i, tree in enumerate(trees):
            draw = value_sampler(rng, coarse=i % 2 == 0)
            X = AdaptedProcess(tree, {nid: draw() for nid in tree.order})
            Y = AdaptedProcess(tree, {nid: draw() for nid in tree.order})
            sup = {leaf: max(abs(X.values[n]) for n in tree.path(leaf)) for leaf in tree.leaves}
            assert hexed(running_sup(X).values) == hexed(sup)
            assert sup_norm(X).hex() == max(sup.values()).hex()
            gap = {leaf: max(abs(X.values[n] - Y.values[n]) for n in tree.path(leaf)) for leaf in tree.leaves}
            drawn = sorted({g for g in gap.values() if g > 0.0})
            # on each drawn gap, just above it, and halfway below it
            for eps in {e for g in drawn for e in (g, math.nextafter(g, math.inf), g / 2)}:
                expected = math.fsum(tree.prob[leaf] for leaf in tree.leaves if gap[leaf] > eps)
                assert prob_sup_exceedance(X, Y, eps).hex() == expected.hex()


class TestExceedance:
    def test_identical_processes(self, t2):
        rng = np.random.default_rng(90)
        X = random_process(t2, rng)
        assert prob_sup_exceedance(X, X, 0.5) == 0.0

    def test_single_branch_indicator(self, t1):
        X = AdaptedProcess(t1, {"root": 0.0, "u": 0.0, "d": 1.0})
        assert prob_sup_exceedance(X, AdaptedProcess.zero(t1), 0.5) == 0.5

    def test_single_leaf_support(self):
        for n in (2, 4, 6):
            tree = uniform_binomial(n)
            vals = {nid: 0.0 for nid in tree.order}
            vals[tree.leaves[0]] = -1.0
            X = AdaptedProcess(tree, vals)
            assert prob_sup_exceedance(X, AdaptedProcess.zero(tree), 0.25) == 2.0 ** -n

    def test_epsilon_must_be_positive(self, t1):
        with pytest.raises(ValidationError):
            prob_sup_exceedance(mart_x(t1), AdaptedProcess.zero(t1), 0.0)
