"""Bi-measures: pairing, variation, Jordan parts, dual projection, canonical elements."""

import math

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
from test_riskcore import count_sweeps
from treerisk.diagnostics import decomposition_battery

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


NAN, INF = math.nan, math.inf

# BiMeasure faults on uniform_binomial(1) (root; leaves d and u), each with its
# exact message. The predictable field is read before the optional one; within
# a field the first faulty entry in input order is named, and for one entry an
# unknown node comes before a leaf, a leaf before its value.
BIMEASURE_FAULTS = {
    "unknown-pr-node": (lambda t: BiMeasure(t, {"zz": 1.0}, {}), "unknown node id 'zz'"),
    "unknown-op-node": (lambda t: BiMeasure(t, {}, {"root": 1.0, "zz": 1.0}), "unknown node id 'zz'"),
    "pr-at-leaf": (
        lambda t: BiMeasure(t, {"u": 1.0}, {}),
        "predictable increment stored at node 'u' (depth 1); entries are only allowed up to depth 0",
    ),
    "zero-pr-at-leaf": (
        lambda t: BiMeasure(t, {"d": 0.0}, {}),
        "predictable increment stored at node 'd' (depth 1); entries are only allowed up to depth 0",
    ),
    "leaf-before-value": (
        lambda t: BiMeasure(t, {"u": NAN}, {}),
        "predictable increment stored at node 'u' (depth 1); entries are only allowed up to depth 0",
    ),
    "pr-inf": (lambda t: BiMeasure(t, {"root": INF}, {}), "non-finite predictable increment at node 'root'"),
    "pr-nan-string": (lambda t: BiMeasure(t, {"root": "nan"}, {}), "non-finite predictable increment at node 'root'"),
    "op-nan": (lambda t: BiMeasure(t, {}, {"d": 1.0, "u": NAN}), "non-finite optional increment at node 'u'"),
    "op-numpy-inf": (lambda t: BiMeasure(t, {}, {"root": np.float64(-INF)}), "non-finite optional increment at node 'root'"),
    # values float() refuses
    "pr-string": (lambda t: BiMeasure(t, {"root": "x"}, {}), "non-numeric predictable increment 'x' at node 'root'"),
    "pr-none": (lambda t: BiMeasure(t, {"root": None}, {}), "non-numeric predictable increment None at node 'root'"),
    "op-list": (lambda t: BiMeasure(t, {}, {"d": 1.0, "u": [1.0]}), "non-numeric optional increment [1.0] at node 'u'"),
    # ints beyond the float range, named as the file readers name them
    "pr-huge-int": (
        lambda t: BiMeasure(t, {"root": 10**400}, {}),
        "predictable increment at node 'root' is an integer beyond the float range",
    ),
    "op-huge-int": (
        lambda t: BiMeasure(t, {}, {"d": 1.0, "u": -(10**400)}),
        "optional increment at node 'u' is an integer beyond the float range",
    ),
    "leaf-before-non-numeric": (
        lambda t: BiMeasure(t, {"d": None}, {}),
        "predictable increment stored at node 'd' (depth 1); entries are only allowed up to depth 0",
    ),
    # two faults in one field: input order decides
    "leaf-before-unknown": (
        lambda t: BiMeasure(t, {"u": 1.0, "zz": 1.0}, {}),
        "predictable increment stored at node 'u' (depth 1); entries are only allowed up to depth 0",
    ),
    "unknown-before-leaf": (lambda t: BiMeasure(t, {"zz": 1.0, "u": 1.0}, {}), "unknown node id 'zz'"),
    "value-before-unknown": (
        lambda t: BiMeasure(t, {}, {"u": INF, "zz": 1.0}),
        "non-finite optional increment at node 'u'",
    ),
    "unknown-before-value": (lambda t: BiMeasure(t, {}, {"zz": 1.0, "d": NAN}), "unknown node id 'zz'"),
    "late-value-before-early-node": (
        lambda t: BiMeasure(t, {}, {"u": NAN, "d": INF}),
        "non-finite optional increment at node 'u'",
    ),
    # the predictable field is read in full first
    "pr-before-op": (
        lambda t: BiMeasure(t, {"root": 1.0, "d": 1.0}, {"zz": 1.0}),
        "predictable increment stored at node 'd' (depth 1); entries are only allowed up to depth 0",
    ),
    "pr-value-before-op-node": (
        lambda t: BiMeasure(t, {"root": NAN}, {"zz": 1.0}),
        "non-finite predictable increment at node 'root'",
    ),
}


@pytest.mark.parametrize("case", BIMEASURE_FAULTS, ids=str)
def test_bimeasure_messages(case):
    build, message = BIMEASURE_FAULTS[case]
    with pytest.raises(ValidationError) as caught:
        build(uniform_binomial(1))
    assert str(caught.value) == message


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

    def test_norms_match_a_path_walk_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            tree = interleaved_tree(rng)
            a = random_bimeasure(tree, rng)
            walked = {}
            for leaf in tree.leaves:
                incs = [abs(f.get(nid, 0.0)) for nid in tree.path(leaf) for f in (a.pr_inc, a.op_inc)]
                walked[leaf] = math.fsum(incs)
            assert variation_norm(a, math.inf) == max(walked.values())
            for p in (1.0, 2.0):
                total = math.fsum(tree.prob[leaf] * v**p for leaf, v in walked.items())
                assert float.hex(variation_norm(a, p)) == float.hex(total ** (1.0 / p))

    def test_each_call_makes_one_path_sum_pass(self, monkeypatch):
        rng = np.random.default_rng(47)
        tree = interleaved_tree(rng)
        measures = [random_bimeasure(tree, rng) for _ in range(3)]
        sweeps = count_sweeps(monkeypatch)
        calls = [variation, terminal_increment, *(lambda a, p=p: variation_norm(a, p) for p in (1.0, 2.0, math.inf))]
        for call in calls:
            call(measures[0])
            assert len(sweeps) == 1
            sweeps.clear()
        decomposition_battery(measures)
        assert len(sweeps) == len(measures)

    @pytest.mark.parametrize(
        "call",
        [
            variation,
            terminal_increment,
            lambda a: variation_norm(a, 1.0),
            lambda a: variation_norm(a, math.inf),
            normalize_scenario,
            lambda a: decomposition_battery([a]),
        ],
        ids=["variation", "terminal-increment", "norm-1", "norm-inf", "normalize", "battery"],
    )
    def test_overflowing_path_sum_names_its_leaf(self, call):
        # root and d each at 1.5e308: every path through d sums past the float range
        a = BiMeasure(uniform_binomial(3), {"root": 1.5e308}, {"d": 1.5e308})
        with pytest.raises(ValidationError, match=r"^non-finite path sum at leaf 'ddd'$"):
            call(a)

    def test_overflowing_path_sum_names_the_first_canonical_leaf(self):
        # the depth-first order visits z1 and z2 (under a) before a1 and a2 (under b)
        rows = [("root", None, 0, 0.0, 1.0), ("a", "root", 1, 1.0, 0.5), ("b", "root", 1, 1.0, 0.5)]
        rows += [(leaf, parent, 2, 2.0, 0.5) for leaf, parent in (("z1", "a"), ("z2", "a"), ("a1", "b"), ("a2", "b"))]
        tree = ScenarioTree([TreeNode(*row) for row in rows])
        assert tree.leaves_under("root")[0] == "z1" and tree.leaves[0] == "a1"
        a = BiMeasure(tree, {"root": 1e308}, {"a": 1e308, "b": 1e308})
        with pytest.raises(ValidationError, match=r"^non-finite path sum at leaf 'a1'$"):
            variation(a)
        a = BiMeasure(tree, {"root": 1e308}, {"a": 1e308})
        with pytest.raises(ValidationError, match=r"^non-finite path sum at leaf 'z1'$"):
            terminal_increment(a)

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

    @pytest.mark.parametrize(
        "pr, op, node",
        [
            ({}, {"d": -1.0, "u": -1.0}, "d"),
            ({"root": 1.0}, {"d": 1.0, "u": -2.0}, "u"),
            ({"u": -1.0}, {"d": -1.0, "uu": 1.0}, "u"),  # the predictable field first
            ({"root": 1.0, "d": -0.5}, {"root": -1.0}, "d"),
        ],
    )
    def test_signed_message(self, t2, pr, op, node):
        with pytest.raises(ValidationError) as caught:
            normalize_scenario(BiMeasure(t2, pr, op))
        assert str(caught.value) == (
            f"negative increment at node '{node}'; normalization requires a nonnegative bi-measure"
        )

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


def _arrays(a):
    """A bi-measure's layout as plain lists, float.hex for the values."""
    return a.node.tolist(), [v.hex() for v in a.pr.tolist()], [v.hex() for v in a.op.tolist()]


def _reference(tree, pr, op):
    """The layout of two node -> value dicts, by hand: the canonical indices where either
    field is nonzero, and each field there (+0.0 where it holds nothing or a zero)."""
    nodes = sorted(tree.index[n] for n in {**pr, **op} if pr.get(n, 0.0) != 0.0 or op.get(n, 0.0) != 0.0)
    ids = [tree.order[i] for i in nodes]
    return nodes, [(pr.get(n, 0.0) or 0.0).hex() for n in ids], [(op.get(n, 0.0) or 0.0).hex() for n in ids]


def _shuffled(rng, entries):
    keys = list(entries)
    rng.shuffle(keys)
    return {k: entries[k] for k in keys}


def _coarse_fields(tree, rng):
    """Sparse node -> value dicts in shuffled order, with ±0.0 and values near 1e12 and 1e-12."""
    draw = value_sampler(rng, coarse=True)
    pr = {n: draw() for n in tree.order[: tree.first_leaf] if rng.uniform() < 0.6}
    op = {n: draw() for n in tree.order if rng.uniform() < 0.6}
    return _shuffled(rng, pr), _shuffled(rng, op)


class TestOneLayout:
    """BiMeasure keeps (node, pr, op) arrays in canonical order; every route gives the same bits."""

    def test_layout_matches_the_reference(self):
        rng = np.random.default_rng(181)
        for _ in range(20):
            tree = interleaved_tree(rng)
            pr, op = _coarse_fields(tree, rng)
            a = BiMeasure(tree, pr, op)
            assert _arrays(a) == _reference(tree, pr, op)
            nonzero = [n for n in tree.order if pr.get(n, 0.0) != 0.0]
            assert list(a.pr_inc.items()) == [(n, pr[n]) for n in nonzero]
            nonzero = [n for n in tree.order if op.get(n, 0.0) != 0.0]
            assert list(a.op_inc.items()) == [(n, op[n]) for n in nonzero]
            for array in (a.node, a.pr, a.op):
                assert not array.flags.writeable
            assert a.node.dtype == np.intp and a.pr.dtype == a.op.dtype == np.float64
            # the arrays are attributes, not fields: the fields stay (tree, pr_inc, op_inc)
            import dataclasses

            assert [f.name for f in dataclasses.fields(a)] == ["tree", "pr_inc", "op_inc"]

    def test_dicts_files_and_spec_views_agree(self, tmp_path):
        from treerisk import RiskMeasureSpec
        from treerisk.fileio import dump_bimeasure, dump_spec, load_bimeasure, load_spec

        rng = np.random.default_rng(191)
        for trial in range(12):
            tree = interleaved_tree(rng, max_depth=4)
            scenarios = [random_scenario(tree, rng) for _ in range(3)]
            spec = RiskMeasureSpec(tree, [(a, 0.0) for a in scenarios])
            dump_spec(spec, tmp_path / "spec.json")
            loaded = load_spec(tmp_path / "spec.json", tree)
            for i, a in enumerate(scenarios):
                reordered = BiMeasure(tree, _shuffled(rng, a.pr_inc), _shuffled(rng, a.op_inc))
                dump_bimeasure(reordered, tmp_path / "a.json")
                reloaded = load_bimeasure(tmp_path / "a.json", tree)
                view = loaded.measures()[i]
                assert _arrays(reordered) == _arrays(reloaded) == _arrays(view) == _arrays(a)
                assert view == a
                for mine, spec_array in zip((view.node, view.pr, view.op), (loaded._node, loaded._pr, loaded._op)):
                    assert np.shares_memory(mine, spec_array)  # views, no copy

    def test_arithmetic_matches_dict_reference(self):
        rng = np.random.default_rng(193)
        for _ in range(20):
            tree = interleaved_tree(rng)
            (pa, oa), (pb, ob) = _coarse_fields(tree, rng), _coarse_fields(tree, rng)
            a, b = BiMeasure(tree, pa, oa), BiMeasure(tree, pb, ob)

            def add(f, g):
                return {n: f.get(n, 0.0) + g.get(n, 0.0) for n in {**f, **g}}

            def neg(f):
                return {n: -v for n, v in f.items()}

            c = float(rng.choice([-2.5, 0.5, 3e-12, -1e12]))
            assert _arrays(a + b) == _reference(tree, add(pa, pb), add(oa, ob))
            assert _arrays(a - b) == _reference(tree, add(pa, neg(pb)), add(oa, neg(ob)))
            assert _arrays(a.scale(c)) == _reference(tree, {n: c * v for n, v in pa.items()}, {n: c * v for n, v in oa.items()})
            assert _arrays(-a) == _reference(tree, neg(pa), neg(oa))
            plus, minus = jordan(a)
            assert _arrays(plus) == _reference(
                tree, {n: v for n, v in pa.items() if v > 0.0}, {n: v for n, v in oa.items() if v > 0.0}
            )
            assert _arrays(minus) == _reference(
                tree, {n: -v for n, v in pa.items() if v < 0.0}, {n: -v for n, v in oa.items() if v < 0.0}
            )

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda t: BiMeasure(t, {"root": 1e300, "u": 1.0}, {"dd": -1e300}).scale(1e10),
                "non-finite predictable increment at node 'root'",
            ),
            (
                lambda t: (lambda a: a + a)(BiMeasure(t, {"u": 1.0}, {"d": 1.0, "uu": 1.7e308, "dd": 1e308})),
                "non-finite optional increment at node 'dd'",
            ),
            # nothing stored in a field stays nothing when scaled by inf
            (lambda t: BiMeasure(t, {"u": 1.0}, {"root": 1.0}).scale(math.inf), "non-finite predictable increment at node 'u'"),
            (lambda t: BiMeasure(t, {}, {"ud": 1.0, "d": 2.0}).scale(math.nan), "non-finite optional increment at node 'd'"),
        ],
    )
    def test_arithmetic_overflow_names_the_first_node(self, t2, build, message):
        with pytest.raises(ValidationError) as caught:
            build(t2)
        assert str(caught.value) == message


def _nonzero(tree, field):
    """The dict the eager constructor kept: the field's nonzero entries as floats, in canonical order."""
    return {n: float(field[n]) for n in tree.order if n in field and field[n] != 0.0}


class TestDictsBuiltOnFirstRead:
    """A bi-measure's arrays are its only data: its dicts are built from them when first read, then kept."""

    def test_no_dicts_until_read_then_the_same_ones(self):
        rng = np.random.default_rng(229)
        for _ in range(10):
            tree = interleaved_tree(rng)
            pr, op = _coarse_fields(tree, rng)
            a = BiMeasure(tree, pr, op)
            b = random_bimeasure(tree, rng)
            plus, minus = jordan(b)
            measures = [
                (a, _nonzero(tree, pr), _nonzero(tree, op)),
                (a + b, _nonzero(tree, {n: pr.get(n, 0.0) + b.pr_inc.get(n, 0.0) for n in tree.order}),
                 _nonzero(tree, {n: op.get(n, 0.0) + b.op_inc.get(n, 0.0) for n in tree.order})),
                (plus, _nonzero(tree, {n: max(v, 0.0) for n, v in b.pr_inc.items()}),
                 _nonzero(tree, {n: max(v, 0.0) for n, v in b.op_inc.items()})),
                (minus, _nonzero(tree, {n: max(-v, 0.0) for n, v in b.pr_inc.items()}),
                 _nonzero(tree, {n: max(-v, 0.0) for n, v in b.op_inc.items()})),
            ]
            for m, pr_inc, op_inc in measures:
                assert "pr_inc" not in vars(m) and "op_inc" not in vars(m)
                first = m.op_inc
                assert "pr_inc" not in vars(m) and m.op_inc is first
                assert hexed(m.pr_inc) == hexed(pr_inc) and hexed(first) == hexed(op_inc)
                assert m.pr_inc is m.pr_inc
            raw = random_raw_bimeasure(tree, rng)
            for r in (raw, as_raw(a)):
                assert "left_inc" not in vars(r) and "right_inc" not in vars(r)
                left = r.left_inc
                assert "right_inc" not in vars(r) and r.left_inc is left
                assert r.right_inc is r.right_inc
                assert [v.hex() for v in r.left_grid[:, 1:].ravel().tolist()] == [v.hex() for v in left.values()]

    def test_dropped_zeros_and_negative_zeros_as_the_eager_dicts(self, t2):
        a = BiMeasure(t2, {"root": 1, "u": 0.0, "d": -0.0}, {"uu": -2.5, "dd": 0.0, "ud": -0.0, "root": np.float64(3)})
        assert hexed(a.pr_inc) == [("root", (1.0).hex())]
        assert hexed(a.op_inc) == [("root", (3.0).hex()), ("uu", (-2.5).hex())]
        assert a.node.tolist() == [0, 6] and [v.hex() for v in a.pr.tolist()] == [(1.0).hex(), (0.0).hex()]
        assert BiMeasure(t2, {"u": -0.0}, {}).pr_inc == {} == BiMeasure(t2, {}, {}).op_inc
        left = {(leaf, k): -0.0 if k == 1 else 1.0 for leaf in t2.leaves for k in (1, 2)}
        right = {(leaf, k): -0.0 for leaf in t2.leaves for k in (np.int64(0), 1.0, 2)}
        r = RawBiMeasure(t2, left, right)
        assert hexed(r.left_inc) == hexed(left)
        assert hexed(r.right_inc) == [((leaf, k), (-0.0).hex()) for leaf in t2.leaves for k in range(3)]
        assert all(type(k) is int for _, k in r.right_inc)

    def test_the_callers_mappings_are_dropped(self, t1):
        pr, op = {"root": 1.0}, {"u": 2.0, "d": 0.0}
        left = {("d", 1): 1.0, ("u", 1): 2.0}
        right = {(leaf, k): 3.0 for leaf in ("d", "u") for k in (0, 1)}
        a, r = BiMeasure(t1, pr, op), RawBiMeasure(t1, left, right)
        assert set(vars(a)) == {"tree", "node", "pr", "op"} and set(vars(r)) == {"tree", "left_grid", "right_grid"}
        pr["root"], op["d"], left[("d", 1)] = 5.0, 5.0, 5.0
        del right[("u", 0)]
        assert a.pr_inc == {"root": 1.0} and a.op_inc == {"u": 2.0}
        assert r.left_inc == {("d", 1): 1.0, ("u", 1): 2.0}
        assert r.right_inc == {(leaf, k): 3.0 for leaf in ("d", "u") for k in (0, 1)}

    def test_eq_repr_hash_copy_pickle_and_replace_as_before(self, t2):
        import copy
        import dataclasses
        import pickle

        a = BiMeasure(t2, {"root": 0.5, "u": -1.0}, {"dd": 1.0, "uu": 0.0})
        assert a == BiMeasure(t2, {"u": -1.0, "root": 0.5}, {"dd": 1.0}) and a != a.scale(2.0)
        assert repr(a) == f"BiMeasure(tree={t2!r}, pr_inc={{'root': 0.5, 'u': -1.0}}, op_inc={{'dd': 1.0}})"
        r = as_raw(a)
        assert repr(r) == f"RawBiMeasure(tree={t2!r}, left_inc={r.left_inc!r}, right_inc={r.right_inc!r})"
        for value in (a, as_raw(a)):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)
        duplicates = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)), dataclasses.replace)
        for read in (False, True):
            for value, model in zip((a.scale(3.0), as_raw(a)), (a.scale(3.0), as_raw(a))):
                fields = [f.name for f in dataclasses.fields(value)][1:]
                eager = [getattr(model, f) for f in fields]
                if read:  # the duplicate then carries the dicts
                    for f in fields:
                        getattr(value, f)
                for duplicate in duplicates:
                    twin = duplicate(value)
                    assert [hexed(getattr(twin, f)) for f in fields] == [hexed(d) for d in eager]
                    if twin.tree is t2:
                        assert twin == value
