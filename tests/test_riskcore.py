"""Risk evaluation, axioms, conjugates, subgradients for generated measure specs."""

import math

import numpy as np
import pytest

from treerisk import (
    AdaptedProcess,
    BiMeasure,
    RiskMeasureSpec,
    ScenarioTree,
    StaticRV,
    ValidationError,
    axiom_report,
    conjugate_combination,
    conjugate_value,
    pairing,
    rho_eval,
    static_rho,
    static_rho_coherent_direct,
    subgradient,
    variation,
    worst_case_spec,
)

from conftest import random_process, random_scenario, random_spec, random_static, random_tree

TOL = 1e-12


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

    def test_direct_route_reuses_the_norm_sweep(self, monkeypatch):
        rng = np.random.default_rng(29)
        tree = random_tree(rng)
        elements = [(random_scenario(tree, rng), 0.0) for _ in range(5)]
        sweeps = []
        path_sums = ScenarioTree.path_sums
        monkeypatch.setattr(
            ScenarioTree, "path_sums", lambda self, terms: sweeps.append(1) or path_sums(self, terms)
        )
        spec = RiskMeasureSpec(tree, elements)
        static_rho_coherent_direct(spec, random_static(tree, rng))
        assert len(sweeps) == 5
        monkeypatch.undo()
        for (a, _), var in zip(elements, spec._variations):
            assert list(var.values.items()) == list(variation(a).values.items())

    def test_direct_requires_coherent(self, t1):
        a = BiMeasure(t1, {}, {"d": 2.0})
        b = BiMeasure(t1, {}, {"u": 2.0})
        spec = RiskMeasureSpec(t1, [(a, 0.0), (b, 1.0)])
        with pytest.raises(ValidationError):
            static_rho_coherent_direct(spec, StaticRV.constant(t1, 0.0))


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
