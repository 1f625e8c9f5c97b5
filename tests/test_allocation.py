"""Capital allocation against a maximizing scenario and its fairness audit."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from treerisk import (
    AdaptedProcess,
    AllocationResult,
    BiMeasure,
    FairnessCertificate,
    RiskMeasureSpec,
    ValidationError,
    allocate,
    fairness_check,
    pairing,
    rho_eval,
    uniform_binomial,
    worst_case_spec,
)
from treerisk.allocation import _sum_tol
from treerisk.riskcore import TIE_TOL
from treerisk.scenario import _FSUMS_CUTOFF

from conftest import interleaved_tree, random_process, random_spec, random_tree

TOL = 1e-12


def walk_value(spec, values, i):
    """-<X, a_i> - gamma_i by a walk over the element's increment dicts."""
    a, g = spec.elements[i]
    prob = spec.tree.prob
    nodes = set(a.pr_inc) | set(a.op_inc)
    terms = (prob[n] * (a.pr_inc.get(n, 0.0) + a.op_inc.get(n, 0.0)) * values[n] for n in nodes)
    return -math.fsum(terms) - g


def walk_pairing(spec, values, i):
    a = spec.elements[i][0]
    prob = spec.tree.prob
    nodes = set(a.pr_inc) | set(a.op_inc)
    return math.fsum(
        prob[n] * values[n] * (a.pr_inc.get(n, 0.0) + a.op_inc.get(n, 0.0)) for n in nodes
    )


def walk_allocate(spec, positions):
    """Allocation by dict walks: the portfolio as a left fold, charges by pairing terms."""
    total = dict(positions[0].values)
    for X in positions[1:]:
        total = {n: total[n] + X.values[n] for n in total}
    values = [walk_value(spec, total, i) for i in range(len(spec))]
    best = max(values)
    idx = next(i for i, v in enumerate(values) if v >= best - TIE_TOL)
    k = tuple(-walk_pairing(spec, X.values, idx) for X in positions)
    return AllocationResult(k, idx, spec.labels[idx], best, math.fsum(k))


def walk_fairness(result, spec, positions, samples, seed):
    n = len(positions)
    rng = np.random.default_rng(seed)
    alphas = [tuple(1.0 if i == j else 0.0 for i in range(n)) for j in range(n)]
    alphas.append((1.0,) * n)
    alphas += [tuple(float(x) for x in rng.uniform(0.0, 1.0, size=n)) for _ in range(samples)]
    worst, worst_alpha, dev = math.inf, alphas[0], 0.0
    for alpha in alphas:
        blend = {
            nid: math.fsum(alpha[j] * positions[j].values[nid] for j in range(n))
            for nid in spec.tree.order
        }
        charged = math.fsum(alpha[j] * result.k[j] for j in range(n))
        slack = max(walk_value(spec, blend, i) for i in range(len(spec))) - charged
        if slack < worst:
            worst, worst_alpha = slack, alpha
        dev = max(dev, abs(charged + walk_pairing(spec, blend, result.maximizer)))
    return FairnessCertificate(samples, seed, len(alphas), worst, worst_alpha, dev, worst >= -1e-12)


def hexed(obj):
    """Floats as float.hex, recursively through tuples and dataclasses."""
    if dataclasses.is_dataclass(obj):
        return tuple(hexed(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, tuple):
        return tuple(hexed(v) for v in obj)
    return float.hex(obj) if isinstance(obj, float) else obj


def overflows(terms):
    try:
        math.fsum(terms)
    except OverflowError:
        return True
    return False


def two_position_fixture(t1):
    spec = worst_case_spec(t1)
    X1 = AdaptedProcess(t1, {"root": 0.0, "u": 1.0, "d": -1.0})
    X2 = AdaptedProcess(t1, {"root": 0.0, "u": -1.0, "d": 0.5})
    return spec, [X1, X2]


class TestAllocate:
    def test_two_position_fixture(self, t1):
        spec, positions = two_position_fixture(t1)
        result = allocate(spec, positions)
        assert result.k == (1.0, -0.5)
        assert result.maximizer_label == "leaf:d"
        assert result.rho_total == 0.5
        assert result.sum_k == 0.5

    def test_single_position_gets_full_charge(self, t2):
        rng = np.random.default_rng(11)
        spec = worst_case_spec(t2)
        X = random_process(t2, rng)
        result = allocate(spec, [X])
        assert abs(result.k[0] - rho_eval(spec, X).value) <= TOL

    def test_zero_portfolio(self, t1):
        spec = worst_case_spec(t1)
        Z = AdaptedProcess.zero(t1)
        result = allocate(spec, [Z, Z, Z])
        assert result.k == (0.0, 0.0, 0.0)
        assert result.rho_total == 0.0

    def test_charges_sum_to_portfolio_risk(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            tree = random_tree(rng)
            spec = random_spec(tree, rng, n_elements=4, coherent=True)
            n = int(rng.integers(1, 6))
            positions = [random_process(tree, rng) for _ in range(n)]
            result = allocate(spec, positions)
            total = positions[0]
            for X in positions[1:]:
                total = total + X
            assert abs(result.sum_k - rho_eval(spec, total).value) <= TOL

    def test_requires_coherent_spec(self, t1):
        rng = np.random.default_rng(17)
        spec = random_spec(t1, rng, coherent=False)
        X = random_process(t1, rng)
        with pytest.raises(ValidationError):
            allocate(spec, [X])

    def test_requires_positions(self, t1):
        with pytest.raises(ValidationError):
            allocate(worst_case_spec(t1), [])

    def test_million_scale_positions_add_up(self):
        # at this scale one rounding of the charges or of rho is worth ~1e-10,
        # far above any fixed absolute tolerance near 1e-12
        rng = np.random.default_rng(41)
        tree = uniform_binomial(6)
        spec = random_spec(tree, rng, n_elements=5, coherent=True)
        for _ in range(20):
            positions = [random_process(tree, rng, scale=1e6) for _ in range(7)]
            result = allocate(spec, positions)
            assert result.sum_k == math.fsum(result.k)
            # the node weights of a unit-variation scenario sum to one
            magnitude = sum(max(abs(v) for v in X.values.values()) for X in positions)
            assert abs(result.sum_k - result.rho_total) <= 64 * 2.0**-53 * magnitude

    def test_result_consistency_enforced(self):
        with pytest.raises(ValidationError):
            AllocationResult(
                k=(1.0, 1.0), maximizer=0, maximizer_label="x", rho_total=0.5, sum_k=2.0
            )


    def test_overflowing_charge_names_its_position(self, t1):
        # the portfolio, -max / 2, is finite; the charge of the position at -max is not
        top = sys.float_info.max
        spec = RiskMeasureSpec(t1, [(BiMeasure(t1, {}, {"d": 1.0000000004, "u": 1.0000000004}), 0.0)])
        low = AdaptedProcess(t1, {nid: -top for nid in t1.order})
        half = AdaptedProcess(t1, {nid: top / 2 for nid in t1.order})
        for positions, i in (([low, half], 0), ([half, half, low], 2)):
            with pytest.raises(ValidationError) as exc:
                allocate(spec, positions)
            assert str(exc.value) == f"non-finite charge at position {i}"

    def test_cancelling_charges_add_up(self, t1):
        # |k_1| + |k_2| passes the float range: the add-up bound is infinite and the charges stand
        spec = RiskMeasureSpec(t1, [(BiMeasure(t1, {}, {"d": 1.0, "u": 1.0}), 0.0)])
        positions = [AdaptedProcess(t1, {nid: s * 1e308 for nid in t1.order}) for s in (1.0, -1.0)]
        result = allocate(spec, positions)
        assert (result.k, result.sum_k, result.rho_total) == ((-1e308, 1e308), 0.0, 0.0)
        assert fairness_check(result, spec, positions, samples=20, seed=3).passed

    def test_finite_add_up_bounds_keep_their_bits(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 5, 40):
            for scale in (1e-300, 1.0, 1e300):
                k = tuple((rng.normal(size=n) * scale).tolist())
                rho = float(rng.normal()) * scale
                expected = 2 * (n + 8) * 2.0**-53 * (math.fsum(abs(x) for x in k) + abs(rho))
                assert float.hex(_sum_tol(k, rho)) == float.hex(expected)


class TestMatchesDictWalk:
    def check(self, spec, positions, samples, seed):
        result = allocate(spec, positions)
        assert hexed(result) == hexed(walk_allocate(spec, positions))
        cert = fairness_check(result, spec, positions, samples=samples, seed=seed)
        assert hexed(cert) == hexed(walk_fairness(result, spec, positions, samples, seed))

    def test_random_and_interleaved_trees(self):
        rng = np.random.default_rng(131)
        for trial in range(16):
            tree = (random_tree if trial % 2 else interleaved_tree)(rng, max_depth=4)
            spec = random_spec(tree, rng, n_elements=int(rng.integers(1, 6)), coherent=True)
            positions = [random_process(tree, rng) for _ in range(int(rng.integers(1, 5)))]
            self.check(spec, positions, samples=20, seed=trial)

    def test_worst_case_spec(self):
        rng = np.random.default_rng(137)
        for tree in (interleaved_tree(rng, max_depth=3), uniform_binomial(6)):
            positions = [random_process(tree, rng) for _ in range(3)]
            self.check(worst_case_spec(tree), positions, samples=10, seed=5)

    def test_million_scale(self):
        rng = np.random.default_rng(139)
        for trial in range(6):
            tree = interleaved_tree(rng, max_depth=4)
            spec = random_spec(tree, rng, n_elements=4, coherent=True)
            positions = [random_process(tree, rng, scale=1e6) for _ in range(5)]
            self.check(spec, positions, samples=10, seed=trial)

    def test_charges_are_pairings(self):
        rng = np.random.default_rng(149)
        tree = interleaved_tree(rng, max_depth=4)
        spec = random_spec(tree, rng, n_elements=3, coherent=True)
        positions = [random_process(tree, rng) for _ in range(4)]
        result = allocate(spec, positions)
        a_star = spec.elements[result.maximizer][0]
        assert hexed(result.k) == hexed(tuple(-pairing(X, a_star) for X in positions))


class TestAboveTheSumCutoff:
    def test_charges_and_audit_match_dict_walk(self):
        """A depth-11 tree: charges, blends, slack and witness all take segment_fsums' numpy
        route, and must still be the dict walk's plain fsums, bit for bit."""
        rng = np.random.default_rng(151)
        tree = uniform_binomial(11)
        spec = random_spec(tree, rng, n_elements=3, coherent=True)
        positions = [random_process(tree, rng) for _ in range(3)]
        assert len(spec._node) >= _FSUMS_CUTOFF
        result = allocate(spec, positions)
        assert hexed(result) == hexed(walk_allocate(spec, positions))
        cert = fairness_check(result, spec, positions, samples=3, seed=7)
        assert hexed(cert) == hexed(walk_fairness(result, spec, positions, 3, 7))


class TestFairness:
    def test_fixture_certificate(self, t1):
        spec, positions = two_position_fixture(t1)
        result = allocate(spec, positions)
        cert = fairness_check(result, spec, positions, samples=1000, seed=5)
        assert cert.passed
        assert cert.checked == 1003
        assert cert.worst_slack >= -TOL
        assert abs(cert.worst_slack) <= TOL
        assert cert.max_witness_deviation <= TOL

    def test_basis_vector_slack(self, t1):
        spec, positions = two_position_fixture(t1)
        result = allocate(spec, positions)
        cert = fairness_check(result, spec, positions, samples=0, seed=1)
        assert cert.checked == 3
        solo_risk = rho_eval(spec, positions[1]).value
        assert abs(solo_risk - 1.0) <= TOL
        assert abs((solo_risk - result.k[1]) - 1.5) <= TOL

    def test_random_instances_pass(self):
        rng = np.random.default_rng(19)
        for trial in range(10):
            tree = random_tree(rng)
            spec = random_spec(tree, rng, n_elements=3, coherent=True)
            n = int(rng.integers(1, 6))
            positions = [random_process(tree, rng) for _ in range(n)]
            result = allocate(spec, positions)
            cert = fairness_check(
                result, spec, positions, samples=50, seed=1000 + trial
            )
            assert cert.passed
            assert cert.worst_slack >= -TOL
            assert cert.max_witness_deviation <= TOL
            assert cert.checked == 50 + n + 1

    def test_seed_required(self, t1):
        spec, positions = two_position_fixture(t1)
        result = allocate(spec, positions)
        with pytest.raises(ValidationError):
            fairness_check(result, spec, positions, samples=10)

    def test_overflowing_blend_rejected(self, t1):
        spec, positions = two_position_fixture(t1)
        result = allocate(spec, positions)
        huge = AdaptedProcess(t1, {"root": 1e308, "u": 1e308, "d": -1e308})
        with pytest.raises(ValidationError, match="non-finite value"):
            fairness_check(result, spec, [huge, huge], samples=0, seed=1)
        # above the sum kernel's cut-off, with the first overflow past the first node: the
        # message names the first node whose plain fsum of blend terms overflows
        tree = uniform_binomial(11)
        rng = np.random.default_rng(157)
        spec = random_spec(tree, rng, n_elements=2, coherent=True)
        result = allocate(spec, [random_process(tree, rng) for _ in range(2)])
        values = dict(zip(tree.order, rng.normal(size=len(tree.order)).tolist()))
        values[tree.order[3000]] = values[tree.order[1800]] = 1e308
        big = AdaptedProcess(tree, values)
        assert 2 * len(tree.order) >= _FSUMS_CUTOFF
        first = next(nid for nid in tree.order if overflows([values[nid], values[nid]]))
        assert first == tree.order[1800]
        with pytest.raises(ValidationError, match=re.escape(f"at node '{first}'")):
            fairness_check(result, spec, [big, big], samples=0, seed=1)

    def test_overflowing_portfolio_rejected(self, t1):
        spec = worst_case_spec(t1)
        huge = AdaptedProcess(t1, {"root": 1e308, "u": 1e308, "d": -1e308})
        with pytest.raises(ValidationError) as caught:
            allocate(spec, [huge, huge])
        assert str(caught.value) == "non-finite value inf in the portfolio sum at node 'root'"

    def test_position_count_must_match(self, t1):
        spec, positions = two_position_fixture(t1)
        result = allocate(spec, positions)
        with pytest.raises(ValidationError):
            fairness_check(result, spec, positions[:1], samples=10, seed=3)
