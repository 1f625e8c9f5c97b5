"""Bi-measures: pairing, variation, Jordan parts, dual projection, canonical elements."""

import math

import numpy as np
import pytest

from treerisk import (
    AdaptedProcess,
    BiMeasure,
    RawBiMeasure,
    RawProcess,
    StaticRV,
    ValidationError,
    as_raw,
    dual_projection,
    increment_vector,
    jordan,
    normalize_scenario,
    optional_projection_raw,
    pairing,
    raw_pairing,
    stopped_worst_case,
    stopping_time_measure,
    terminal_density_measure,
    terminal_increment,
    uniform_binomial,
    variation,
    variation_norm,
)

from conftest import (
    brute_mean,
    hexed,
    interleaved_tree,
    random_bimeasure,
    random_process,
    random_raw_bimeasure,
    random_raw_process,
    random_scenario,
    random_tree,
    value_sampler,
)

TOL = 1e-12


def mart_x(t1):
    return AdaptedProcess(t1, {"root": 0.0, "u": 1.0, "d": -1.0})


def dirac_d(t1):
    return BiMeasure(t1, {}, {"d": 2.0})


class TestConstruction:
    def test_zero_increments_dropped(self, t1):
        a = BiMeasure(t1, {"root": 0.0}, {"d": 1.0, "u": 0.0})
        assert a.pr_inc == {}
        assert a.op_inc == {"d": 1.0}

    def test_predictable_increment_not_stored_on_leaves(self, t1):
        with pytest.raises(ValidationError):
            BiMeasure(t1, {"d": 1.0}, {})

    def test_unknown_node_rejected(self, t1):
        with pytest.raises(ValidationError):
            BiMeasure(t1, {}, {"ghost": 1.0})

    def test_arithmetic(self, t1):
        a = dirac_d(t1)
        b = BiMeasure(t1, {"root": 1.0}, {})
        s = a + b
        assert s.pr_inc == {"root": 1.0}
        assert s.op_inc == {"d": 2.0}
        assert (s - b).pr_inc == {}
        assert (-a).op_inc == {"d": -2.0}
        assert a.scale(0.5).op_inc == {"d": 1.0}

    def test_is_positive(self, t1):
        assert dirac_d(t1).is_positive
        assert not BiMeasure(t1, {}, {"d": -1.0}).is_positive


class TestPairing:
    def test_optional_leaf_mass(self, t1):
        assert pairing(mart_x(t1), dirac_d(t1)) == -1.0

    def test_predictable_root_mass_reads_left_value(self, t1):
        b = BiMeasure(t1, {"root": 1.0}, {})
        assert pairing(mart_x(t1), b) == 0.0

    def test_constant_one_pairs_to_expected_variation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            tree = random_tree(rng)
            a = random_scenario(tree, rng)
            one = AdaptedProcess.constant(tree, 1.0)
            assert abs(pairing(one, a) - variation_norm(a, 1.0)) <= TOL

    def test_matches_raw_pairing(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            tree = random_tree(rng)
            X = random_process(tree, rng)
            a = random_bimeasure(tree, rng)
            lhs = pairing(X, a)
            rhs = raw_pairing(RawProcess.from_adapted(X), as_raw(a))
            assert abs(lhs - rhs) <= TOL

    def test_tree_mismatch_rejected(self, t1, t2):
        with pytest.raises(ValidationError):
            pairing(mart_x(t1), BiMeasure(t2, {}, {"dd": 1.0}))


class TestVariation:
    def test_dirac_variation(self, t1):
        var = variation(dirac_d(t1))
        assert var.values["u"] == 0.0
        assert var.values["d"] == 2.0

    def test_zero_measure(self, t1):
        var = variation(BiMeasure(t1, {}, {}))
        assert all(v == 0.0 for v in var.values.values())

    def test_norms(self, t1):
        a = dirac_d(t1)
        assert variation_norm(a, 1.0) == 1.0
        assert variation_norm(a, math.inf) == 2.0
        assert variation_norm(BiMeasure(t1, {}, {}), 1.0) == 0.0

    def test_norm_order_below_one_rejected(self, t1):
        with pytest.raises(ValidationError):
            variation_norm(dirac_d(t1), 0.5)

    def test_matches_path_walk(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            tree = random_tree(rng)
            a = random_bimeasure(tree, rng)
            var = variation(a)
            for leaf in tree.leaves:
                walked = math.fsum(
                    abs(inc)
                    for nid in tree.path(leaf)
                    for inc in (a.pr_inc.get(nid, 0.0), a.op_inc.get(nid, 0.0))
                    if inc != 0.0
                )
                assert abs(var.values[leaf] - walked) <= TOL

    def test_path_sums_on_interleaved_ids(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            tree = interleaved_tree(rng)
            a = random_bimeasure(tree, rng)
            var, ti = variation(a), terminal_increment(a)
            assert tuple(var.values) == tuple(ti.values) == tree.leaves
            for leaf in tree.leaves:
                incs = []
                node = tree.nodes[leaf]
                while node is not None:
                    incs += [a.pr_inc.get(node.id, 0.0), a.op_inc.get(node.id, 0.0)]
                    node = tree.nodes.get(node.parent)
                assert var.values[leaf] == math.fsum(abs(v) for v in incs)
                assert ti.values[leaf] == math.fsum(incs)

    def test_jordan_additivity(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            tree = random_tree(rng)
            a = random_bimeasure(tree, rng)
            plus, minus = jordan(a)
            va, vp, vm = variation(a), variation(plus), variation(minus)
            for leaf in tree.leaves:
                assert abs(va.values[leaf] - vp.values[leaf] - vm.values[leaf]) <= TOL


class TestJordan:
    def test_positive_measure_splits_trivially(self, t1):
        a = dirac_d(t1)
        plus, minus = jordan(a)
        assert plus.op_inc == a.op_inc
        assert minus.op_inc == {}

    def test_sign_split(self, t1):
        a = BiMeasure(t1, {}, {"u": 2.0, "d": -2.0})
        plus, minus = jordan(a)
        assert plus.op_inc == {"u": 2.0}
        assert minus.op_inc == {"d": 2.0}

    def test_difference_recovers_measure(self):
        rng = np.random.default_rng(31)
        tree = random_tree(rng)
        a = random_bimeasure(tree, rng)
        plus, minus = jordan(a)
        back = plus - minus
        assert back.pr_inc == a.pr_inc
        assert back.op_inc == a.op_inc


class TestTerminalIncrement:
    def test_positive_equals_variation(self, t1):
        a = dirac_d(t1)
        ti, var = terminal_increment(a), variation(a)
        for leaf in t1.leaves:
            assert ti.values[leaf] == var.values[leaf]

    def test_cancellation(self, t2):
        a = BiMeasure(t2, {}, {"d": 1.0, "dd": -1.0})
        ti, var = terminal_increment(a), variation(a)
        assert ti.values["dd"] == 0.0
        assert var.values["dd"] == 2.0

    def test_bounded_by_variation(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            tree = random_tree(rng)
            a = random_bimeasure(tree, rng)
            ti, var = terminal_increment(a), variation(a)
            for leaf in tree.leaves:
                assert abs(ti.values[leaf]) <= var.values[leaf]


class TestDualProjection:
    def test_node_measurable_right_part_unchanged(self, t1):
        a = dirac_d(t1)
        proj = dual_projection(as_raw(a))
        assert proj.op_inc == a.op_inc
        assert proj.pr_inc == a.pr_inc

    def test_left_increment_conditional_mean(self, t1):
        raw = RawBiMeasure(
            t1,
            {("u", 1): 2.0, ("d", 1): 0.0},
            {("u", 0): 0.0, ("u", 1): 0.0, ("d", 0): 0.0, ("d", 1): 0.0},
        )
        proj = dual_projection(raw)
        assert proj.pr_inc == {"root": 1.0}
        assert proj.op_inc == {}

    def test_adjointness_chain(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            tree = random_tree(rng)
            Z = random_raw_process(tree, rng)
            raw = random_raw_bimeasure(tree, rng)
            M = optional_projection_raw(Z)
            proj = dual_projection(raw)
            lhs = raw_pairing(RawProcess.from_adapted(M), raw)
            mid = pairing(M, proj)
            rhs = raw_pairing(Z, as_raw(proj))
            assert abs(lhs - mid) <= TOL
            assert abs(mid - rhs) <= TOL

    def test_idempotent_bit_exactly(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            tree = random_tree(rng)
            proj = dual_projection(random_raw_bimeasure(tree, rng))
            again = dual_projection(as_raw(proj))
            assert again.pr_inc == proj.pr_inc
            assert again.op_inc == proj.op_inc


class TestInterleavedIds:
    """Canonical order differs from DFS order: results match path walks, keys come in canonical order."""

    def test_dual_projection_matches_path_walks(self):
        rng = np.random.default_rng(63)
        for i in range(20):
            tree = interleaved_tree(rng)
            draw = value_sampler(rng, coarse=i % 2 == 0)
            K = tree.K
            left = {(leaf, k): draw() for leaf in tree.leaves for k in range(1, K + 1)}
            right = {(leaf, k): draw() for leaf in tree.leaves for k in range(K + 1)}
            pr, op = {}, {}
            for nid in tree.order:
                k = tree.nodes[nid].depth
                if k < K:
                    pr[nid] = brute_mean(tree, {leaf: left[(leaf, k + 1)] for leaf in tree.leaves}, nid)
                op[nid] = brute_mean(tree, {leaf: right[(leaf, k)] for leaf in tree.leaves}, nid)
            proj = dual_projection(RawBiMeasure(tree, left, right))
            expected = BiMeasure(tree, pr, op)
            assert hexed(proj.pr_inc) == hexed(expected.pr_inc)
            assert hexed(proj.op_inc) == hexed(expected.op_inc)

    def test_as_raw_matches_path_walks(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            tree = interleaved_tree(rng)
            a = random_bimeasure(tree, rng)
            left, right = {}, {}
            for leaf in tree.leaves:
                for k, nid in enumerate(tree.path(leaf)):
                    if k < tree.K:
                        left[(leaf, k + 1)] = a.pr_inc.get(nid, 0.0)
                    right[(leaf, k)] = a.op_inc.get(nid, 0.0)
            raw = as_raw(a)
            assert hexed(raw.left_inc) == hexed(left)
            assert hexed(raw.right_inc) == hexed(right)


    def test_as_raw_and_from_adapted_skip_the_grid_check(self, monkeypatch):
        import treerisk.process

        rng = np.random.default_rng(66)
        tree = interleaved_tree(rng)
        a = random_bimeasure(tree, rng)
        X = random_process(tree, rng)
        checks = []
        read = treerisk.process._read
        counted = lambda *args: checks.append(1) or read(*args)
        monkeypatch.setattr(treerisk.process, "_read", counted)
        raw = as_raw(a)
        Z = RawProcess.from_adapted(X)
        assert checks == []
        checked = RawBiMeasure(tree, raw.left_inc, raw.right_inc)
        assert list(checked.left_inc.items()) == list(raw.left_inc.items())
        assert list(checked.right_inc.items()) == list(raw.right_inc.items())
        assert list(RawProcess(tree, Z.values).values.items()) == list(Z.values.items())
        assert len(checks) == 3  # the public constructors still check


class TestNormalize:
    def test_unit_norm_fixed_point(self, t1):
        a = dirac_d(t1)
        b = normalize_scenario(a)
        assert b.op_inc == {"d": 2.0}

    def test_doubling_then_normalizing(self, t1):
        a = dirac_d(t1)
        b = normalize_scenario(a.scale(2.0))
        assert b.op_inc == a.op_inc

    def test_signed_rejected(self, t1):
        with pytest.raises(ValidationError, match="d"):
            normalize_scenario(BiMeasure(t1, {}, {"d": -1.0}))

    def test_zero_rejected(self, t1):
        with pytest.raises(ValidationError):
            normalize_scenario(BiMeasure(t1, {}, {}))

    def test_random_normalization(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            tree = random_tree(rng)
            a = random_scenario(tree, rng)
            assert abs(variation_norm(a, 1.0) - 1.0) <= 1e-9


class TestStoppingTimeMeasure:
    def test_stop_at_horizon(self, t2):
        rng = np.random.default_rng(53)
        X = random_process(t2, rng)
        tau = {leaf: t2.K for leaf in t2.leaves}
        m = stopping_time_measure(t2, tau)
        expected = math.fsum(t2.prob[leaf] * X.values[leaf] for leaf in t2.leaves)
        assert abs(pairing(X, m) - expected) <= TOL

    def test_stop_at_root(self, t2):
        rng = np.random.default_rng(59)
        X = random_process(t2, rng)
        tau = {leaf: 0 for leaf in t2.leaves}
        m = stopping_time_measure(t2, tau)
        assert abs(pairing(X, m) - X.values["root"]) <= TOL

    def test_binary_time_one(self, t1):
        m = stopping_time_measure(t1, {"u": 1, "d": 1})
        assert pairing(mart_x(t1), m) == 0.0

    def test_non_adapted_rule_rejected(self, t2):
        tau = {"dd": 1, "du": 2, "ud": 2, "uu": 2}
        with pytest.raises(ValidationError):
            stopping_time_measure(t2, tau)

    def test_out_of_range_rejected(self, t1):
        with pytest.raises(ValidationError):
            stopping_time_measure(t1, {"u": 5, "d": 5})

    def test_depths_must_be_integers(self, t1):
        for bad in (True, 1.0):
            with pytest.raises(ValidationError) as exc:
                stopping_time_measure(t1, {"d": 1, "u": bad})
            assert str(exc.value) == f"stopping depth {bad!r} at leaf 'u' out of range 0..1"
        m = stopping_time_measure(t1, {"d": np.int64(1), "u": np.int32(1)})
        assert m.op_inc == {"d": 1.0, "u": 1.0}

    def test_worst_case_rule_matches_path_walks(self):
        rng = np.random.default_rng(71)
        trees = [interleaved_tree(rng) for _ in range(16)] + [uniform_binomial(6)] * 4
        for i, tree in enumerate(trees):
            draw = value_sampler(rng, coarse=i % 2 == 0)
            X = AdaptedProcess(tree, {nid: draw() for nid in tree.order})
            tau = stopped_worst_case(tree, X).tau
            # each leaf's path stops at its depth-tau node; keys in canonical order
            stops = {tree.path(leaf)[k] for leaf, k in tau.items()}
            expected = {nid: 1.0 for nid in tree.order if nid in stops}
            m = stopping_time_measure(tree, tau)
            assert (m.pr_inc, hexed(m.op_inc)) == ({}, hexed(expected))

    def test_non_measurable_rule_names_the_first_node(self, t2):
        with pytest.raises(ValidationError) as exc:
            stopping_time_measure(t2, {"dd": 1, "du": 2, "ud": 2, "uu": 2})
        assert str(exc.value) == "stopping decision at depth 1 is not measurable at node 'd'"
        rng = np.random.default_rng(73)
        for _ in range(60):
            tree = interleaved_tree(rng, max_depth=4)
            # a genuine stopping time, then up to four leaves moved off it; decisions from
            # depth 2 on, where canonical order interleaves subtrees and DFS order does not
            lo = min(2, tree.K)
            stop = {n for n in tree.order if tree.nodes[n].depth >= lo and rng.uniform() < 0.3}
            stop |= set(tree.leaves)
            tau = {leaf: next(k for k, n in enumerate(tree.path(leaf)) if n in stop) for leaf in tree.leaves}
            for j in rng.choice(len(tree.leaves), size=int(rng.integers(0, 5))):
                tau[tree.leaves[j]] = int(rng.integers(lo, tree.K + 1))
            first = None  # in (depth, canonical) order, the first node whose leaves disagree
            for nid in tree.order:
                k = tree.nodes[nid].depth
                flags = {tau[leaf] == k for leaf in tree.leaves if tree.path(leaf)[k] == nid}
                if len(flags) > 1:
                    first = (k, nid)
                    break
            if first is None:
                assert stopping_time_measure(tree, tau).pr_inc == {}
                continue
            with pytest.raises(ValidationError) as exc:
                stopping_time_measure(tree, tau)
            assert str(exc.value) == "stopping decision at depth {} is not measurable at node '{}'".format(*first)


class TestTerminalDensityMeasure:
    def test_unit_density(self, t2):
        rng = np.random.default_rng(61)
        X = random_process(t2, rng)
        m = terminal_density_measure(StaticRV.constant(t2, 1.0))
        expected = math.fsum(t2.prob[leaf] * X.values[leaf] for leaf in t2.leaves)
        assert abs(pairing(X, m) - expected) <= TOL

    def test_half_support_density(self, t1):
        f = StaticRV(t1, {"u": 2.0, "d": 0.0})
        m = terminal_density_measure(f)
        assert pairing(mart_x(t1), m) == 1.0
        assert variation_norm(m, 1.0) == 1.0

    def test_negative_density_rejected(self, t1):
        with pytest.raises(ValidationError):
            terminal_density_measure(StaticRV(t1, {"u": 2.0, "d": -0.5}))

    def test_unnormalized_density_rejected(self, t1):
        with pytest.raises(ValidationError):
            terminal_density_measure(StaticRV(t1, {"u": 2.0, "d": 0.5}))


class TestIncrementVector:
    def test_dimension(self, t2):
        a = random_bimeasure(t2, np.random.default_rng(67))
        vec = increment_vector(a)
        interior = sum(1 for n in t2.order if t2.nodes[n].depth < t2.K)
        assert len(vec) == interior + len(t2.order)

    def test_equal_measures_equal_vectors(self, t2):
        a = BiMeasure(t2, {"root": 0.5}, {"dd": 1.0})
        b = BiMeasure(t2, {"root": 0.5}, {"dd": 1.0, "uu": 0.0})
        assert increment_vector(a) == increment_vector(b)
