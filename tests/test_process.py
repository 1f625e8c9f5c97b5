"""Adapted and raw processes, projections, path suprema."""

import math

import numpy as np
import pytest

from treerisk import (
    AdaptedProcess,
    RawBiMeasure,
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


def _grid(tree, lo=0, edits=()):
    """A full (leaf, k) grid of ones for k = lo..K, then ``edits`` (key, value or None to drop) in order."""
    grid = {(leaf, k): 1.0 for leaf in tree.leaves for k in range(lo, tree.K + 1)}
    for key, v in edits:
        if v is None:
            del grid[key]
        else:
            grid[key] = v
    return grid


def _raw_bimeasure(tree, left=(), right=()):
    return RawBiMeasure(tree, _grid(tree, lo=1, edits=left), _grid(tree, edits=right))


INF, NAN = math.inf, math.nan
# (a call on the depth-1 binomial tree: canonical order root, d, u; leaves d, u; K = 1, message)
VALUE_TYPE_FAULTS = {
    "adapted-unknown-node": (
        lambda t: AdaptedProcess(t, {"root": 0.0, "d": 1.0, "u": 2.0, "ghost": 3.0}),
        "process value given for unknown node 'ghost'",
    ),
    "adapted-non-finite": (
        lambda t: AdaptedProcess(t, {"root": 0.0, "u": INF, "d": -1.0}),
        "non-finite value inf at node 'u'",
    ),
    "adapted-nan": (lambda t: AdaptedProcess(t, {"root": 0.0, "d": NAN, "u": 1.0}), "non-finite value nan at node 'd'"),
    # the value as given is shown, not its float
    "adapted-numpy-inf": (
        lambda t: AdaptedProcess(t, {"root": 0.0, "d": np.float64(-INF), "u": 1.0}),
        f"non-finite value {np.float64(-INF)!r} at node 'd'",
    ),
    "adapted-string-inf": (
        lambda t: AdaptedProcess(t, {"root": 0.0, "d": "inf", "u": 1.0}),
        "non-finite value 'inf' at node 'd'",
    ),
    "adapted-missing": (lambda t: AdaptedProcess(t, {"root": 0.0}), "process is missing a value at node 'd'"),
    "adapted-missing-canonical-first": (
        lambda t: AdaptedProcess(t, {"u": 0.0}),
        "process is missing a value at node 'root'",
    ),
    # two faults: the first in input order is reported, and coverage comes last
    "adapted-value-before-key": (
        lambda t: AdaptedProcess(t, {"u": NAN, "ghost": 1.0, "root": 0.0, "d": 0.0}),
        "non-finite value nan at node 'u'",
    ),
    "adapted-key-before-value": (
        lambda t: AdaptedProcess(t, {"ghost": 1.0, "u": NAN, "root": 0.0, "d": 0.0}),
        "process value given for unknown node 'ghost'",
    ),
    "adapted-value-before-missing": (lambda t: AdaptedProcess(t, {"u": INF}), "non-finite value inf at node 'u'"),
    "adapted-key-before-missing": (
        lambda t: AdaptedProcess(t, {"root": 0.0, "ghost": 1.0}),
        "process value given for unknown node 'ghost'",
    ),
    "static-unknown-leaf": (
        lambda t: StaticRV(t, {"d": 1.0, "u": 2.0, "ghost": 0.0}),
        "value given for unknown leaf 'ghost'",
    ),
    "static-not-a-leaf": (
        lambda t: StaticRV(t, {"d": 1.0, "root": 0.0, "u": 2.0}),
        "'root' is not a leaf; static values live on leaves only",
    ),
    "static-non-finite": (lambda t: StaticRV(t, {"d": -INF, "u": 1.0}), "non-finite value -inf at leaf 'd'"),
    "static-missing": (lambda t: StaticRV(t, {"u": 1.0}), "missing value at leaf 'd'"),
    "static-value-before-node": (
        lambda t: StaticRV(t, {"u": NAN, "root": 1.0, "d": 0.0}),
        "non-finite value nan at leaf 'u'",
    ),
    "static-node-before-value": (
        lambda t: StaticRV(t, {"root": 1.0, "u": NAN, "d": 0.0}),
        "'root' is not a leaf; static values live on leaves only",
    ),
    "raw-unknown-leaf": (
        lambda t: RawProcess(t, _grid(t, edits=[(("ghost", 0), 1.0)])),
        "raw process keyed on unknown leaf 'ghost'",
    ),
    "raw-interior-node": (
        lambda t: RawProcess(t, _grid(t, edits=[(("root", 0), 1.0)])),
        "raw process keyed on unknown leaf 'root'",
    ),
    "raw-depth-above": (
        lambda t: RawProcess(t, _grid(t, edits=[(("u", 2), 1.0)])),
        "raw process at (u, 2) out of range 0..1",
    ),
    "raw-depth-below": (
        lambda t: RawProcess(t, _grid(t, edits=[(("u", -1), 1.0)])),
        "raw process at (u, -1) out of range 0..1",
    ),
    "raw-non-finite": (
        lambda t: RawProcess(t, _grid(t, edits=[(("u", 1), INF)])),
        "non-finite value inf at raw process (u, 1)",
    ),
    "raw-missing": (
        lambda t: RawProcess(t, _grid(t, edits=[(("d", 0), None)])),
        "raw process is missing at (d, 0)",
    ),
    "raw-value-before-key": (
        lambda t: RawProcess(t, {("u", 1): NAN, ("ghost", 0): 1.0}),
        "non-finite value nan at raw process (u, 1)",
    ),
    "raw-key-before-value": (
        lambda t: RawProcess(t, {("d", 5): 1.0, ("u", 1): NAN}),
        "raw process at (d, 5) out of range 0..1",
    ),
    "raw-value-before-missing": (
        lambda t: RawProcess(t, {("u", 0): -INF}),
        "non-finite value -inf at raw process (u, 0)",
    ),
    "left-unknown-leaf": (
        lambda t: _raw_bimeasure(t, left=[(("ghost", 1), 1.0)]),
        "left increment keyed on unknown leaf 'ghost'",
    ),
    "left-depth-zero": (
        lambda t: _raw_bimeasure(t, left=[(("u", 0), 1.0)]),
        "left increment at (u, 0) out of range 1..1",
    ),
    "left-non-finite": (
        lambda t: _raw_bimeasure(t, left=[(("d", 1), NAN)]),
        "non-finite value nan at left increment (d, 1)",
    ),
    "left-missing": (
        lambda t: _raw_bimeasure(t, left=[(("d", 1), None)]),
        "left increment is missing at (d, 1)",
    ),
    "right-unknown-leaf": (
        lambda t: _raw_bimeasure(t, right=[(("ghost", 0), 1.0)]),
        "right increment keyed on unknown leaf 'ghost'",
    ),
    "right-depth-above": (
        lambda t: _raw_bimeasure(t, right=[(("d", 2), 1.0)]),
        "right increment at (d, 2) out of range 0..1",
    ),
    "right-non-finite": (
        lambda t: _raw_bimeasure(t, right=[(("u", 0), INF)]),
        "non-finite value inf at right increment (u, 0)",
    ),
    "right-missing": (
        lambda t: _raw_bimeasure(t, right=[(("u", 1), None)]),
        "right increment is missing at (u, 1)",
    ),
    # the left grid is checked in full, its coverage included, before the right one
    "left-before-right": (
        lambda t: _raw_bimeasure(t, left=[(("u", 1), None)], right=[(("ghost", 0), NAN)]),
        "left increment is missing at (u, 1)",
    ),
    # values float() refuses, and grid keys that are no (leaf, depth) pair
    "adapted-none": (
        lambda t: AdaptedProcess(t, {"root": None, "d": 0.0, "u": 1.0}),
        "non-numeric value None at node 'root'",
    ),
    "adapted-list": (
        lambda t: AdaptedProcess(t, {"root": 0.0, "d": [1.0], "u": 1.0}),
        "non-numeric value [1.0] at node 'd'",
    ),
    "adapted-string": (lambda t: AdaptedProcess(t, {"root": 0.0, "d": 0.0, "u": "x"}), "non-numeric value 'x' at node 'u'"),
    "adapted-non-numeric-before-key": (
        lambda t: AdaptedProcess(t, {"u": None, "ghost": 1.0, "root": 0.0, "d": 0.0}),
        "non-numeric value None at node 'u'",
    ),
    "adapted-key-before-non-numeric": (
        lambda t: AdaptedProcess(t, {"ghost": 1.0, "u": None, "root": 0.0, "d": 0.0}),
        "process value given for unknown node 'ghost'",
    ),
    "static-none": (lambda t: StaticRV(t, {"d": None, "u": 1.0}), "non-numeric value None at leaf 'd'"),
    "static-list": (lambda t: StaticRV(t, {"d": 1.0, "u": []}), "non-numeric value [] at leaf 'u'"),
    "static-string": (lambda t: StaticRV(t, {"d": "x", "u": 1.0}), "non-numeric value 'x' at leaf 'd'"),
    "raw-short-key": (
        lambda t: RawProcess(t, _grid(t, edits=[(("u",), 1.0)])),
        "raw process keyed on ('u',), not on a (leaf, depth) pair",
    ),
    "raw-long-key": (
        lambda t: RawProcess(t, {("u", 0, 1): 1.0}),
        "raw process keyed on ('u', 0, 1), not on a (leaf, depth) pair",
    ),
    "raw-string-key": (lambda t: RawProcess(t, {"u0": 1.0}), "raw process keyed on 'u0', not on a (leaf, depth) pair"),
    "raw-string-depth": (
        lambda t: RawProcess(t, _grid(t, edits=[(("u", "1"), 1.0)])),
        "raw process at (u, '1') is not at an integer depth",
    ),
    "raw-none-depth": (
        lambda t: RawProcess(t, _grid(t, edits=[(("d", None), 1.0)])),
        "raw process at (d, None) is not at an integer depth",
    ),
    "raw-unknown-leaf-before-depth": (
        lambda t: RawProcess(t, _grid(t, edits=[(("uu", "1"), 1.0)])),
        "raw process keyed on unknown leaf 'uu'",
    ),
    "raw-string-value": (
        lambda t: RawProcess(t, _grid(t, edits=[(("u", 1), "x")])),
        "non-numeric value 'x' at raw process (u, 1)",
    ),
    "raw-list-value": (
        lambda t: RawProcess(t, _grid(t, edits=[(("d", 0), [0.0])])),
        "non-numeric value [0.0] at raw process (d, 0)",
    ),
    "left-string-value": (
        lambda t: _raw_bimeasure(t, left=[(("u", 1), "x")]),
        "non-numeric value 'x' at left increment (u, 1)",
    ),
    "right-none-value": (
        lambda t: _raw_bimeasure(t, right=[(("d", 0), {})]),
        "non-numeric value {} at right increment (d, 0)",
    ),
    # ints beyond the float range, named as the file readers name them
    "adapted-huge-int": (
        lambda t: AdaptedProcess(t, {"root": 10**400, "d": 0.0, "u": 0.0}),
        "value at node 'root' is an integer beyond the float range",
    ),
    "static-huge-int": (
        lambda t: StaticRV(t, {"d": 0.0, "u": -(10**400)}),
        "value at leaf 'u' is an integer beyond the float range",
    ),
    "raw-huge-int": (
        lambda t: RawProcess(t, _grid(t, edits=[(("u", 1), 10**400)])),
        "value at raw process (u, 1) is an integer beyond the float range",
    ),
    "right-huge-int": (
        lambda t: _raw_bimeasure(t, right=[(("d", 0), 10**400)]),
        "value at right increment (d, 0) is an integer beyond the float range",
    ),
    "huge-int-before-key": (
        lambda t: AdaptedProcess(t, {"u": 10**400, "ghost": 1.0, "root": 0.0, "d": 0.0}),
        "value at node 'u' is an integer beyond the float range",
    ),
    # computed values: the first non-finite one in canonical order is named
    "adapted-constant": (lambda t: AdaptedProcess.constant(t, INF), "non-finite value inf at node 'root'"),
    "adapted-sum-overflow": (
        lambda t: (lambda X: X + X)(AdaptedProcess(t, {"u": 1e308, "root": 0.0, "d": -1e308})),
        "non-finite value -inf at node 'd'",
    ),
    "adapted-shift-overflow": (
        lambda t: AdaptedProcess(t, {"root": 1.0, "d": 0.0, "u": 1.7e308}).shift(1.7e308),
        "non-finite value inf at node 'u'",
    ),
    "static-constant": (lambda t: StaticRV.constant(t, NAN), "non-finite value nan at leaf 'd'"),
    "static-scale-overflow": (
        lambda t: StaticRV(t, {"u": -1e300, "d": 1.0}).scale(1e300),
        "non-finite value -inf at leaf 'u'",
    ),
}


@pytest.mark.parametrize("case", VALUE_TYPE_FAULTS, ids=str)
def test_value_type_messages(case):
    build, message = VALUE_TYPE_FAULTS[case]
    with pytest.raises(ValidationError) as caught:
        build(uniform_binomial(1))
    assert str(caught.value) == message


class TestValueLayout:
    """One read-only float64 array per value, in the tree's order; the dicts follow it."""

    def test_arrays_in_canonical_order_whatever_the_input_order(self):
        import dataclasses

        rng = np.random.default_rng(71)
        for _ in range(10):
            tree = interleaved_tree(rng)
            draw = value_sampler(rng, coarse=True)
            nodes, leaves = list(tree.order), list(tree.leaves)
            rng.shuffle(nodes)
            rng.shuffle(leaves)
            cells = [(leaf, k) for leaf in leaves for k in range(tree.K + 1)]
            X = AdaptedProcess(tree, {nid: draw() for nid in nodes})
            Y = StaticRV(tree, {leaf: draw() for leaf in leaves})
            Z = RawProcess(tree, {cell: draw() for cell in cells})
            ra = RawBiMeasure(tree, {c: draw() for c in cells if c[1] >= 1}, {c: draw() for c in cells})
            assert list(X.values) == list(tree.order) and list(Y.values) == list(tree.leaves)
            grid_keys = [(leaf, k) for leaf in tree.leaves for k in range(tree.K + 1)]
            assert list(Z.values) == list(ra.right_inc) == grid_keys
            assert list(ra.left_inc) == [(leaf, k) for leaf, k in grid_keys if k >= 1]
            assert [v.hex() for v in X.vector.tolist()] == [v.hex() for v in X.values.values()]
            assert [v.hex() for v in Y.vector.tolist()] == [v.hex() for v in Y.values.values()]
            assert [v.hex() for v in Z.grid.ravel().tolist()] == [v.hex() for v in Z.values.values()]
            assert [v.hex() for v in ra.right_grid.ravel().tolist()] == [v.hex() for v in ra.right_inc.values()]
            assert ra.left_grid[:, 0].tolist() == [0.0] * len(tree.leaves)
            assert [v.hex() for v in ra.left_grid[:, 1:].ravel().tolist()] == [v.hex() for v in ra.left_inc.values()]
            for array in (X.vector, Y.vector, Z.grid, ra.left_grid, ra.right_grid):
                assert array.dtype == np.float64 and not array.flags.writeable
            # the arrays are attributes, not fields: the fields stay (tree, values)
            assert [f.name for f in dataclasses.fields(X)] == ["tree", "values"]
            assert [f.name for f in dataclasses.fields(ra)] == ["tree", "left_inc", "right_inc"]

    def test_integral_depth_keys_accepted_others_refused(self, t1):
        Z = RawProcess(t1, {("d", 0.0): 1.0, ("d", np.int64(1)): 2.0, ("u", 0): 3.0, ("u", 1): 4.0})
        assert Z.values == {("d", 0): 1.0, ("d", 1): 2.0, ("u", 0): 3.0, ("u", 1): 4.0}
        assert all(type(k) is int for _, k in Z.values)
        # a fractional depth once collided with its integer part; it is refused now
        with pytest.raises(ValidationError) as caught:
            RawProcess(t1, {("d", 0): 1.0, ("d", 1): 2.0, ("u", 0): 3.0, ("u", 1): 4.0, ("u", 0.5): 5.0})
        assert str(caught.value) == "raw process at (u, 0.5) is not at an integer depth"

    def test_mapping_input_is_not_written(self, t1):
        from collections import defaultdict

        values = defaultdict(float, {"root": 0.0, "u": 1.0})
        with pytest.raises(ValidationError, match="process is missing a value at node 'd'"):
            AdaptedProcess(t1, values)
        assert dict(values) == {"root": 0.0, "u": 1.0}


def _hex_items(values):
    """A dict's keys with their types and its values as float.hex, in order: tells -0.0 from 0.0,
    an int depth from a float one, and shows every bit."""
    return [
        (key, tuple(map(type, key)) if isinstance(key, tuple) else type(key), float.hex(v))
        for key, v in values.items()
    ]


def _sample_values(tree, rng):
    """(value, the dict the eager constructors kept) for values read from mappings, holding ±0.0
    and ints, and for values computed from arrays."""
    draw = value_sampler(rng, coarse=True)
    cells = [(leaf, k) for leaf in tree.leaves for k in range(tree.K + 1)]
    nodes = {nid: draw() for nid in reversed(tree.order)}
    nodes[tree.order[0]] = -0.0
    leaves = {leaf: int(rng.integers(-3, 4)) for leaf in tree.leaves}
    grid = {cell: draw() for cell in cells}
    X, Y, Z = AdaptedProcess(tree, nodes), StaticRV(tree, leaves), RawProcess(tree, grid)
    M, S = optional_projection_static(Y), X.scale(-1.0)
    return [
        (X, {nid: float(nodes[nid]) for nid in tree.order}),
        (Y, {leaf: float(leaves[leaf]) for leaf in tree.leaves}),
        (Z, {cell: float(grid[cell]) for cell in cells}),
        (S, dict(zip(tree.order, S.vector.tolist()))),
        (M, dict(zip(tree.order, M.vector.tolist()))),
        (terminal_values(X), {leaf: float(nodes[leaf]) for leaf in tree.leaves}),
        (RawProcess.from_adapted(X), {(leaf, k): float(nodes[tree.path(leaf)[k]]) for leaf, k in cells}),
    ]


def _arrays_hex(value):
    array = value.vector if isinstance(value, (AdaptedProcess, StaticRV)) else value.grid
    return [v.hex() for v in array.ravel().tolist()]


class TestDictsBuiltOnFirstRead:
    """A value's arrays are its only data: ``values`` is built from them when first read, then kept."""

    def test_no_dict_until_read_then_the_same_one(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            tree = interleaved_tree(rng)
            for value, eager in _sample_values(tree, rng):
                assert "values" not in vars(value)
                values = value.values
                assert "values" in vars(value) and value.values is values
                assert _hex_items(values) == _hex_items(eager)

    def test_zeros_and_integral_depth_keys_as_the_eager_dicts(self, t1):
        Z = RawProcess(t1, {("d", 0.0): 1.0, ("d", np.int64(1)): 2.0, ("u", 0): -0.0, ("u", 1): 4})
        assert _hex_items(Z.values) == _hex_items({("d", 0): 1.0, ("d", 1): 2.0, ("u", 0): -0.0, ("u", 1): 4.0})
        X = AdaptedProcess(t1, {"u": 0, "d": -0.0, "root": np.float64(-0.0)})
        assert _hex_items(X.values) == _hex_items({"root": -0.0, "d": -0.0, "u": 0.0})

    def test_the_callers_mapping_is_dropped(self, t1):
        nodes, cells = {"root": 0.0, "u": 1.0, "d": -1.0}, {("d", 0): 1.0, ("d", 1): 2.0, ("u", 0): 3.0, ("u", 1): 4.0}
        X, Z = AdaptedProcess(t1, nodes), RawProcess(t1, cells)
        assert set(vars(X)) == {"tree", "vector"} and set(vars(Z)) == {"tree", "grid"}
        nodes["u"], cells[("u", 1)] = 9.0, 9.0
        del nodes["d"], cells[("d", 0)]
        assert X.values == {"root": 0.0, "d": -1.0, "u": 1.0}
        assert Z.values == {("d", 0): 1.0, ("d", 1): 2.0, ("u", 0): 3.0, ("u", 1): 4.0}

    def test_eq_repr_and_hash_as_before(self, t1):
        X = AdaptedProcess(t1, {"root": 0.0, "u": 1.0, "d": -1.0})
        same = AdaptedProcess.zero(t1) + X
        assert X == same and X != X.shift(1.0) and X != StaticRV(t1, {"u": 1.0, "d": -1.0})
        assert repr(X) == f"AdaptedProcess(tree={t1!r}, values={{'root': 0.0, 'd': -1.0, 'u': 1.0}})"
        Z = RawProcess(t1, {("d", 0): 1.0, ("d", 1): 2.0, ("u", 0): 3.0, ("u", 1): 4.0})
        assert repr(Z) == f"RawProcess(tree={t1!r}, values={Z.values!r})"
        for value in (AdaptedProcess.zero(t1), StaticRV.constant(t1, 1.0), Z):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)

    def test_copy_pickle_and_replace_round_trip(self):
        import copy
        import dataclasses
        import pickle

        rng = np.random.default_rng(223)
        tree = interleaved_tree(rng)
        duplicates = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)), dataclasses.replace)
        for read in (False, True):
            for value, eager in _sample_values(tree, rng):
                if read:  # the duplicate then carries the dict
                    getattr(value, "values")
                for duplicate in duplicates:
                    twin = duplicate(value)
                    assert type(twin) is type(value) and _arrays_hex(twin) == _arrays_hex(value)
                    assert _hex_items(twin.values) == _hex_items(eager)
                    if twin.tree is tree:
                        assert twin == value

    def test_other_names_raise_and_an_empty_instance_never_recurses(self, t1):
        X = AdaptedProcess.zero(t1)
        with pytest.raises(AttributeError, match="'AdaptedProcess' object has no attribute 'nope'"):
            X.nope
        for cls in (AdaptedProcess, StaticRV, RawProcess, RawBiMeasure):
            empty = object.__new__(cls)
            for name in ("values", "vector", "grid", "tree", "__setstate__"):
                assert not hasattr(empty, name)

    def test_values_hold_no_second_copy(self):
        """A dict beside each vector once held about 100 KB per 2 047-node process."""
        import gc
        import tracemalloc

        tree = uniform_binomial(10)
        rng = np.random.default_rng(227)
        mappings = [dict(zip(tree.order, rng.normal(size=len(tree.order)).tolist())) for _ in range(64)]
        payoffs = [StaticRV(tree, dict(zip(tree.leaves, rng.normal(size=len(tree.leaves)).tolist()))) for _ in range(64)]
        optional_projection_static(payoffs[0])  # the tree's cached layouts are built before the count
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [AdaptedProcess(tree, m) for m in mappings] + [optional_projection_static(Y) for Y in payoffs]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2 * sum(X.vector.nbytes for X in kept)
