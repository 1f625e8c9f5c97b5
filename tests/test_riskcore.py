"""Risk evaluation, axioms, conjugates, subgradients for generated measure specs."""

import math
import sys

import numpy as np
import pytest

from treerisk import (
    AdaptedProcess,
    BiMeasure,
    RiskMeasureSpec,
    ScenarioTree,
    StaticRV,
    TreeNode,
    ValidationError,
    axiom_report,
    conjugate_combination,
    conjugate_value,
    normalize_scenario,
    optional_projection_static,
    pairing,
    rho_eval,
    static_rho,
    static_rho_coherent_direct,
    subgradient,
    uniform_binomial,
    variation,
    variation_norm,
    worst_case_spec,
)
from treerisk.riskcore import TIE_TOL
from treerisk.scenario import _FSUMS_CUTOFF

from conftest import (
    interleaved_tree,
    random_process,
    random_scenario,
    random_spec,
    random_static,
    random_tree,
)

TOL = 1e-12


def walk_rho(spec, X):
    """rho_eval by a walk over each element's increment dicts: -sum_n P(n) (pr + op)(n) X(n) - gamma."""
    prob = spec.tree.prob
    values = tuple(
        -math.fsum(
            prob[n] * (a.pr_inc.get(n, 0.0) + a.op_inc.get(n, 0.0)) * X.values[n]
            for n in set(a.pr_inc) | set(a.op_inc)
        )
        - g
        for a, g in spec.elements
    )
    best = max(values)
    return best, tuple(i for i, v in enumerate(values) if v >= best - TIE_TOL), values


def hexed(values):
    return tuple(float.hex(v) for v in values)


def count_sweeps(monkeypatch):
    """Record one entry per pass of the tree's path-sum kernel."""
    sweeps = []
    path_sums = ScenarioTree.path_sums
    monkeypatch.setattr(
        ScenarioTree, "path_sums", lambda self, *args: sweeps.append(1) or path_sums(self, *args)
    )
    return sweeps


def hexed_variation(a):
    """variation(a) as float.hex strings in canonical leaf order."""
    var = variation(a).values
    return [float.hex(var[leaf]) for leaf in a.tree.leaves]


def dense_variations(spec):
    """The spec's gathered variations, 0.0 off the covered leaves, as hexed_variation gives them."""
    out = []
    for leaves, var in spec._variations:
        dense = [0.0] * len(spec.tree.leaves)
        for i, v in zip(leaves.tolist(), var.tolist()):
            dense[i] = v
        out.append([float.hex(v) for v in dense])
    return out


def walk_direct(spec, Y):
    """static_rho_coherent_direct by a walk over every leaf of every element's variation."""
    prob = spec.tree.prob
    best = -math.inf
    for a in spec.measures():
        var = variation(a).values
        best = max(best, -math.fsum(prob[l] * var[l] * Y.values[l] for l in spec.tree.leaves))
    return best


def skewed_tree(rng, depth=4):
    """A binary tree whose branch probabilities span many orders of magnitude."""
    nodes = [TreeNode("root", None, 0, 0.0, 1.0)]
    frontier = ["root"]
    for k in range(1, depth + 1):
        nxt = []
        for parent in frontier:
            p = float(10.0 ** -rng.uniform(1, 6))
            for suffix, q in (("a", p), ("b", 1.0 - p)):
                nid = f"{parent}.{suffix}" if parent != "root" else suffix
                nodes.append(TreeNode(nid, parent, k, float(k), q))
                nxt.append(nid)
        frontier = nxt
    return ScenarioTree(nodes)


def wide_scale_scenario(tree, rng):
    """A positive unit-variation element whose increments span 1e-6 to 1e6."""
    draw = lambda: float(rng.uniform(0.5, 1.0) * 10.0 ** rng.uniform(-6, 6))
    pr = {n: draw() for n in tree.order if tree.nodes[n].depth < tree.K and rng.uniform() < 0.7}
    op = {n: draw() for n in tree.order if rng.uniform() < 0.7}
    op.setdefault(tree.leaves[0], 1.0)
    return normalize_scenario(BiMeasure(tree, pr, op))


def mart_x(t1):
    return AdaptedProcess(t1, {"root": 0.0, "u": 1.0, "d": -1.0})


class TestRhoEval:
    def test_binary_worst_case(self, t1):
        spec = worst_case_spec(t1)
        res = rho_eval(spec, mart_x(t1))
        assert res.value == 1.0
        assert res.argmax == (0,)
        assert spec.labels[0] == "leaf:d"
        assert res.values == (1.0, -1.0)

    def test_constant_process(self, t2):
        rng = np.random.default_rng(3)
        spec = random_spec(t2, rng)
        for m in (-2.0, 0.0, 1.5):
            res = rho_eval(spec, AdaptedProcess.constant(t2, m))
            assert abs(res.value + m) <= TOL

    def test_zero_process_is_riskless(self, t2):
        rng = np.random.default_rng(5)
        spec = random_spec(t2, rng)
        assert rho_eval(spec, AdaptedProcess.zero(t2)).value == 0.0

    def test_tied_elements_all_reported(self, t1):
        a = BiMeasure(t1, {}, {"d": 1.0, "u": 1.0})
        spec = RiskMeasureSpec(t1, [(a, 0.0), (a, 0.0)])
        res = rho_eval(spec, mart_x(t1))
        assert res.argmax == (0, 1)

    def test_tree_mismatch(self, t1, t2):
        spec = worst_case_spec(t1)
        rng = np.random.default_rng(7)
        with pytest.raises(ValidationError):
            rho_eval(spec, random_process(t2, rng))


class TestRhoEvalMatchesDictWalk:
    def check(self, spec, X):
        res = rho_eval(spec, X)
        best, argmax, values = walk_rho(spec, X)
        assert float.hex(res.value) == float.hex(best)
        assert res.argmax == argmax
        assert hexed(res.values) == hexed(values)

    def test_random_and_interleaved_trees(self):
        rng = np.random.default_rng(101)
        for trial in range(30):
            tree = (random_tree if trial % 2 else interleaved_tree)(rng, max_depth=4)
            spec = random_spec(tree, rng, n_elements=int(rng.integers(1, 6)), coherent=trial % 3 == 0)
            for _ in range(3):
                self.check(spec, random_process(tree, rng))

    def test_worst_case_spec(self):
        rng = np.random.default_rng(103)
        for tree in (interleaved_tree(rng, max_depth=3), uniform_binomial(7)):
            spec = worst_case_spec(tree)
            for _ in range(3):
                self.check(spec, random_process(tree, rng))

    def test_million_scale(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            tree = interleaved_tree(rng, max_depth=4)
            spec = random_spec(tree, rng, n_elements=4)
            self.check(spec, random_process(tree, rng, scale=1e6))


class TestAboveTheSumCutoff:
    """On a depth-11 tree every element sum takes segment_fsums' numpy route; the values
    must still be the dict walk's plain fsums, bit for bit."""

    def test_rho_eval_and_static_rho(self):
        rng = np.random.default_rng(109)
        tree = uniform_binomial(11)
        spec = random_spec(tree, rng, n_elements=3)
        assert len(spec._node) >= _FSUMS_CUTOFF
        for scale in (1.0, 1e6):
            X = random_process(tree, rng, scale=scale)
            res = rho_eval(spec, X)
            best, argmax, values = walk_rho(spec, X)
            assert (float.hex(res.value), res.argmax, hexed(res.values)) == (float.hex(best), argmax, hexed(values))
            Y = random_static(tree, rng, scale=scale)
            closure = optional_projection_static(Y)
            assert float.hex(static_rho(spec, Y)) == float.hex(walk_rho(spec, closure)[0])


class TestUnitNormCheck:
    def verdict(self, tree, a, norm_tol):
        try:
            RiskMeasureSpec(tree, [(a, 0.0)], norm_tol=norm_tol)
        except ValidationError as exc:
            return str(exc)
        return "accepted"

    def exact_verdict(self, a, norm_tol):
        norm = variation_norm(a, 1.0)
        if abs(norm - 1.0) > norm_tol:
            return f"generating element 0 must have unit expected variation, got {norm!r}"
        return "accepted"

    def test_norms_within_ulps_of_the_tolerance(self):
        rng = np.random.default_rng(109)
        for trial in range(12):
            tree = (random_tree if trial % 2 else interleaved_tree)(rng, max_depth=4)
            a = random_scenario(tree, rng)
            base = variation_norm(a, 1.0)
            for norm_tol in (1e-9, 1e-12, 3e-16):
                for edge in (1.0 + norm_tol, 1.0 - norm_tol):
                    factor = edge / base
                    for _ in range(6):  # walk down through the edge
                        factor = math.nextafter(factor, -math.inf)
                    for _ in range(12):
                        b = a.scale(factor)
                        assert self.verdict(tree, b, norm_tol) == self.exact_verdict(b, norm_tol)
                        factor = math.nextafter(factor, math.inf)

    def test_zero_tolerance_takes_the_exact_route(self, t2, monkeypatch):
        exact = BiMeasure(t2, {"root": 0.25}, {"d": 1.0, "ud": 1.0})  # E[Var] = 1/4 + 1/2 + 1/4
        rng = np.random.default_rng(113)
        a = random_scenario(t2, rng)
        sweeps = count_sweeps(monkeypatch)
        RiskMeasureSpec(t2, [(exact, 0.0)], norm_tol=0.0)
        assert len(sweeps) == 1
        if variation_norm(a, 1.0) != 1.0:
            with pytest.raises(ValidationError) as err:
                RiskMeasureSpec(t2, [(a, 0.0)], norm_tol=0.0)
            assert str(err.value) == (
                "generating element 0 must have unit expected variation, "
                f"got {variation_norm(a, 1.0)!r}"
            )

    def test_build_makes_no_variation_sweep(self, monkeypatch):
        rng = np.random.default_rng(127)
        tree = interleaved_tree(rng, max_depth=4)
        elements = [(random_scenario(tree, rng), 0.0) for _ in range(6)]
        sweeps = count_sweeps(monkeypatch)
        RiskMeasureSpec(tree, elements)
        worst_case_spec(tree)
        assert sweeps == []

    def test_out_of_range_estimates_take_the_exact_route(self, t1, monkeypatch):
        # an estimate of 2 or more, or a weight times the smallest leaf
        # probability below 2**-1000, falls outside the rounding analysis
        sweeps = count_sweeps(monkeypatch)
        RiskMeasureSpec(t1, [(BiMeasure(t1, {}, {"d": 6.0}), 0.0)], norm_tol=10.0)
        assert len(sweeps) == 1
        tiny = ScenarioTree(
            [
                TreeNode("root", None, 0, 0.0, 1.0),
                TreeNode("a", "root", 1, 1.0, 1.0),
                TreeNode("b", "root", 1, 1.0, 1e-310),
            ]
        )
        RiskMeasureSpec(tiny, [(BiMeasure(tiny, {}, {"a": 1.0}), 0.0)])
        assert len(sweeps) == 2
        RiskMeasureSpec(t1, [(BiMeasure(t1, {}, {"d": 1.0, "u": 1.0}), 0.0)])
        assert len(sweeps) == 2

    def test_rejection_reports_the_exact_norm(self, t2):
        a = BiMeasure(t2, {}, {"d": 1.0, "u": 1.0, "ud": 0.1})
        with pytest.raises(ValidationError, match=repr(variation_norm(a, 1.0))):
            RiskMeasureSpec(t2, [(a, 0.0)])

    def test_faults_reported_in_element_order(self, t1, t2):
        good = BiMeasure(t1, {}, {"d": 2.0})
        heavy = BiMeasure(t1, {}, {"d": 4.0})
        signed = BiMeasure(t1, {}, {"d": 2.0, "u": -0.5})
        foreign = BiMeasure(t2, {}, {"dd": 4.0})
        cases = [
            ([(heavy, 0.0), (signed, 0.0)], "element 0 must have unit expected variation, got 2.0"),
            ([(good, math.inf), (signed, 0.0)], "penalty of element 0 must be finite"),
            ([(good, 0.0), (signed, 0.0), (heavy, 0.0)], "element 1 has negative increments"),
            ([(good, 0.0), (foreign, 0.0), (heavy, 0.0)], "tree mismatch"),
            ([(good, 0.0), (heavy, 0.0), (foreign, 0.0)], "element 1 must have unit expected"),
        ]
        for elements, message in cases:
            with pytest.raises(ValidationError, match=message):
                RiskMeasureSpec(t1, elements)


    @pytest.mark.parametrize(
        "names, message",
        [
            (["heavy", "signed"], "generating element 0 must have unit expected variation, got 2.0"),
            (["signed", "heavy"], "generating element 0 has negative increments"),
            (["good", "heavy", "signed"], "generating element 1 must have unit expected variation, got 2.0"),
            (["good", "signed", "heavy"], "generating element 1 has negative increments"),
            (["good", "signed", "foreign"], "generating element 1 has negative increments"),
            (["good", "foreign", "signed"], "tree mismatch: operands were built on different scenario trees"),
            (["zero", "signed"], "generating element 0 must have unit expected variation, got 0.0"),
        ],
    )
    def test_fault_messages_exact(self, t1, t2, names, message):
        measures = {
            "good": BiMeasure(t1, {}, {"d": 2.0}),
            "heavy": BiMeasure(t1, {}, {"d": 4.0}),
            "signed": BiMeasure(t1, {"root": 0.5}, {"u": -0.5, "d": 1.0}),
            "zero": BiMeasure(t1, {}, {}),
            "foreign": BiMeasure(t2, {}, {"dd": 4.0}),
        }
        with pytest.raises(ValidationError) as caught:
            RiskMeasureSpec(t1, [(measures[n], 0.0) for n in names])
        assert str(caught.value) == message


class TestSpecValidation:
    def test_empty_rejected(self, t1):
        with pytest.raises(ValidationError):
            RiskMeasureSpec(t1, [])

    def test_signed_element_rejected(self, t1):
        a = BiMeasure(t1, {}, {"d": 2.0, "u": -0.5})
        with pytest.raises(ValidationError):
            RiskMeasureSpec(t1, [(a, 0.0)])

    def test_non_unit_norm_rejected(self, t1):
        a = BiMeasure(t1, {}, {"d": 1.0})
        with pytest.raises(ValidationError):
            RiskMeasureSpec(t1, [(a, 0.0)])

    def test_infinite_penalty_rejected(self, t1):
        a = BiMeasure(t1, {}, {"d": 2.0})
        with pytest.raises(ValidationError):
            RiskMeasureSpec(t1, [(a, math.inf)])

    def test_label_count_enforced(self, t1):
        a = BiMeasure(t1, {}, {"d": 2.0})
        with pytest.raises(ValidationError):
            RiskMeasureSpec(t1, [(a, 0.0)], labels=("one", "two"))

    def test_penalties_shifted_to_zero_minimum(self, t1):
        a = BiMeasure(t1, {}, {"d": 2.0})
        b = BiMeasure(t1, {}, {"u": 2.0})
        spec = RiskMeasureSpec(t1, [(a, 1.0), (b, 2.0)])
        assert spec.gammas == (0.0, 1.0)
        assert spec.gamma_shift == 1.0
        assert not spec.is_coherent

    def test_coherent_flag(self, t1):
        assert worst_case_spec(t1).is_coherent

    def test_replace_gammas_length(self, t1):
        spec = worst_case_spec(t1)
        with pytest.raises(ValidationError):
            spec.replace_gammas([0.0])


class TestStaticRho:
    def test_binary_worst_case(self, t1):
        spec = worst_case_spec(t1)
        Y = StaticRV(t1, {"u": 1.0, "d": -1.0})
        assert static_rho(spec, Y) == 1.0
        assert static_rho_coherent_direct(spec, Y) == 1.0

    def test_zero_payoff(self, t1):
        spec = worst_case_spec(t1)
        assert static_rho_coherent_direct(spec, StaticRV.constant(t1, 0.0)) == 0.0

    def test_agreement_on_random_coherent_specs(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            tree = random_tree(rng)
            spec = random_spec(tree, rng, coherent=True)
            Y = random_static(tree, rng)
            assert abs(static_rho(spec, Y) - static_rho_coherent_direct(spec, Y)) <= TOL

    def test_direct_route_makes_one_kernel_pass(self, monkeypatch):
        rng = np.random.default_rng(29)
        tree = random_tree(rng)
        elements = [(random_scenario(tree, rng), 0.0) for _ in range(5)]
        sweeps = count_sweeps(monkeypatch)
        spec = RiskMeasureSpec(tree, elements)
        assert sweeps == []
        static_rho_coherent_direct(spec, random_static(tree, rng))
        assert len(sweeps) == 1
        static_rho_coherent_direct(spec, random_static(tree, rng))
        assert len(sweeps) == 1
        monkeypatch.undo()
        assert dense_variations(spec) == [hexed_variation(a) for a, _ in elements]

    def test_direct_route_matches_the_leaf_walk(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            tree = (random_tree if trial % 2 else interleaved_tree)(rng, max_depth=4)
            spec = random_spec(tree, rng, n_elements=4, coherent=True)
            Y = random_static(tree, rng, scale=1e6 if trial % 3 == 0 else 1.0)
            assert float.hex(static_rho_coherent_direct(spec, Y)) == float.hex(walk_direct(spec, Y))

    def test_direct_requires_coherent(self, t1):
        a = BiMeasure(t1, {}, {"d": 2.0})
        b = BiMeasure(t1, {}, {"u": 2.0})
        spec = RiskMeasureSpec(t1, [(a, 0.0), (b, 1.0)])
        with pytest.raises(ValidationError):
            static_rho_coherent_direct(spec, StaticRV.constant(t1, 0.0))


class TestLossesPastTheFloatRange:
    def test_the_first_overflowing_element_is_named(self, t1):
        # expected variation 1 + 4e-10 passes the unit norm check; at -max on every node its
        # loss, 0.5 w max + 0.5 w max, passes the float range, and the unit element's does not
        top = sys.float_info.max
        elements = [(BiMeasure(t1, {}, {"d": w, "u": w}), 0.0) for w in (1.0, 1.0000000004, 1.0000000004)]
        spec = RiskMeasureSpec(t1, elements, labels=["unit", "big", "bigger"])
        X = AdaptedProcess(t1, {nid: -top for nid in t1.order})
        Y = StaticRV(t1, {leaf: -top for leaf in t1.leaves})
        for evaluate, arg in ((rho_eval, X), (static_rho, Y), (static_rho_coherent_direct, Y)):
            with pytest.raises(ValidationError) as exc:
                evaluate(spec, arg)
            assert str(exc.value) == "non-finite loss at element 'big'"
        one = RiskMeasureSpec(t1, elements[:1])
        assert rho_eval(one, X).value == static_rho_coherent_direct(one, Y) == top


class TestPathVariations:
    """The spec's gathered per-leaf variations equal variation(a) bit for bit."""

    def check(self, spec):
        assert dense_variations(spec) == [hexed_variation(a) for a in spec.measures()]

    def test_random_and_interleaved_trees(self):
        rng = np.random.default_rng(131)
        for trial in range(30):
            tree = (random_tree if trial % 2 else interleaved_tree)(rng, max_depth=4)
            self.check(random_spec(tree, rng, n_elements=int(rng.integers(1, 6))))

    def test_skewed_probabilities(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            tree = skewed_tree(rng)
            self.check(random_spec(tree, rng, n_elements=4))
            self.check(worst_case_spec(tree))

    def test_wide_scale_increments(self):
        rng = np.random.default_rng(139)
        for trial in range(10):
            tree = (random_tree if trial % 2 else interleaved_tree)(rng, max_depth=4)
            elements = [(wide_scale_scenario(tree, rng), 0.0) for _ in range(4)]
            self.check(RiskMeasureSpec(tree, elements))

    def test_worst_case_spec_covers_one_leaf_each(self):
        spec = worst_case_spec(uniform_binomial(8))
        assert [len(leaves) for leaves, _ in spec._variations] == [1] * 256
        self.check(spec)


class TestReplaceGammas:
    def test_keeps_the_norm_tolerance(self, t1):
        a = BiMeasure(t1, {}, {"d": 2.000002})  # E[Var(a)] = 1.000001
        spec = RiskMeasureSpec(t1, [(a, 0.0)], norm_tol=1e-3)
        closed = spec.replace_gammas([0.5])
        assert closed.norm_tol == 1e-3
        assert closed.gammas == (0.0,)
        assert closed.gamma_shift == 0.5

    def test_shares_the_arrays_and_checks_penalties(self, t1):
        spec = worst_case_spec(t1)
        closed = spec.replace_gammas([0.0, 2.0])
        assert closed._weight is spec._weight
        assert closed.gammas == (0.0, 2.0) and not closed.is_coherent
        assert spec.gammas == (0.0, 0.0) and spec.is_coherent
        assert closed.labels == spec.labels
        with pytest.raises(ValidationError, match="penalty of element 1 must be finite, got nan"):
            spec.replace_gammas([0.0, math.nan])


class TestAxioms:
    def test_report_on_random_specs(self, t2):
        rng = np.random.default_rng(31)
        spec = random_spec(t2, rng, n_elements=4)
        report = axiom_report(spec, sample_count=300, seed=17)
        assert report.max_convexity_violation <= TOL
        assert report.max_translation_violation <= TOL
        assert report.max_monotonicity_violation <= TOL

    def test_homogeneity_for_coherent(self, t2):
        rng = np.random.default_rng(37)
        spec = random_spec(t2, rng, coherent=True)
        report = axiom_report(spec, sample_count=300, seed=19)
        assert report.max_homogeneity_violation <= TOL

    def test_translation_identity_directly(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            tree = random_tree(rng)
            spec = random_spec(tree, rng)
            X = random_process(tree, rng)
            m = float(rng.uniform(-3.0, 3.0))
            lhs = rho_eval(spec, X.shift(m)).value
            assert abs(lhs - (rho_eval(spec, X).value - m)) <= TOL

    def test_scaling_for_coherent(self, t2):
        rng = np.random.default_rng(43)
        spec = random_spec(t2, rng, coherent=True)
        X = random_process(t2, rng)
        assert abs(rho_eval(spec, X.scale(2.0)).value - 2.0 * rho_eval(spec, X).value) <= TOL


class TestConjugate:
    def test_generating_element_costs_nothing_when_coherent(self, t1):
        spec = worst_case_spec(t1)
        for a, _ in spec.elements:
            assert conjugate_value(spec, a) == 0.0

    def test_midpoint_coherent(self, t1):
        spec = worst_case_spec(t1)
        mid = BiMeasure(t1, {}, {"d": 1.0, "u": 1.0})
        assert abs(conjugate_value(spec, mid)) <= 1e-12

    def test_midpoint_with_penalties(self, t1):
        a_d = BiMeasure(t1, {}, {"d": 2.0})
        a_u = BiMeasure(t1, {}, {"u": 2.0})
        spec = RiskMeasureSpec(t1, [(a_d, 0.0), (a_u, 1.0)])
        mid = BiMeasure(t1, {}, {"d": 1.0, "u": 1.0})
        assert abs(conjugate_value(spec, mid) - 0.5) <= 1e-12

    def test_predictable_root_mass_infeasible(self, t1):
        spec = worst_case_spec(t1)
        b = BiMeasure(t1, {"root": 1.0}, {})
        assert conjugate_value(spec, b) == math.inf
        assert conjugate_combination(spec, b) is None

    def test_bounded_by_own_penalty(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            tree = random_tree(rng, max_depth=2)
            spec = random_spec(tree, rng, n_elements=3)
            for i, (a, g) in enumerate(spec.elements):
                v = conjugate_value(spec, a)
                assert v <= g + 1e-9

    def test_biconjugate_closure(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            tree = random_tree(rng, max_depth=2)
            spec = random_spec(tree, rng, n_elements=3)
            closed = spec.replace_gammas(
                [conjugate_value(spec, a) for a, _ in spec.elements]
            )
            for _ in range(10):
                X = random_process(tree, rng)
                assert abs(rho_eval(spec, X).value - rho_eval(closed, X).value) <= 1e-9

    def test_candidate_must_be_scenario(self, t1):
        spec = worst_case_spec(t1)
        with pytest.raises(ValidationError):
            conjugate_value(spec, BiMeasure(t1, {}, {"d": -2.0}))


class TestSubgradient:
    def test_binary_selects_worst_branch(self, t1):
        spec = worst_case_spec(t1)
        grads = subgradient(spec, mart_x(t1))
        assert len(grads) == 1
        assert grads[0].op_inc == {"d": -2.0}

    def test_zero_process_ties_all(self, t1):
        spec = worst_case_spec(t1)
        assert len(subgradient(spec, AdaptedProcess.zero(t1))) == 2

    def test_chain_singleton(self, chain_tree):
        spec = worst_case_spec(chain_tree)
        X = AdaptedProcess(chain_tree, {"root": 0.3, "a": -1.0, "b": 2.0})
        assert len(subgradient(spec, X)) == 1

    def test_gradient_attains_value(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            tree = random_tree(rng)
            spec = random_spec(tree, rng, coherent=True)
            X = random_process(tree, rng)
            rho = rho_eval(spec, X).value
            for g in subgradient(spec, X):
                assert abs(pairing(X, g) - rho) <= TOL

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            tree = random_tree(rng)
            spec = random_spec(tree, rng, coherent=True)
            X = random_process(tree, rng)
            rho = rho_eval(spec, X).value
            g = subgradient(spec, X)[0]
            for _ in range(10):
                H = random_process(tree, rng)
                lhs = rho_eval(spec, X + H).value
                assert lhs >= rho + pairing(H, g) - TOL

    def test_requires_coherent(self, t1):
        a = BiMeasure(t1, {}, {"d": 2.0})
        b = BiMeasure(t1, {}, {"u": 2.0})
        spec = RiskMeasureSpec(t1, [(a, 0.0), (b, 1.0)])
        with pytest.raises(ValidationError):
            subgradient(spec, AdaptedProcess.zero(t1))
