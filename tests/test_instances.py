"""Canonical risk measure instances and their cross-checking oracles."""

import decimal
import itertools
import math
from fractions import Fraction
from math import fsum

import numpy as np
import pytest

from treerisk import (
    AdaptedProcess,
    BiMeasure,
    QuantileLevel,
    RiskMeasureSpec,
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
    rho_eval,
    static_rho,
    stopped_worst_case,
    stopping_time_measure,
    uniform_binomial,
    var_alpha,
    worst_case_spec,
)

from treerisk.bimeasure import terminal_density_measure
from treerisk import instances
from treerisk.instances import _density_vertices

from conftest import interleaved_tree, random_process, random_static, random_tree

TOL = 1e-12
TRIPLE_TOL = 1e-10
U = 2.0**-53  # unit roundoff


def rounding_bound(n, magnitude):
    """2 (n + 4) u sum|terms| for a sum of n rounded products of total magnitude ``magnitude``."""
    return 2 * (n + 4) * U * magnitude


def scan_avar(Y, alpha):
    """The full O(L^2) scan: the objective at every realized loss, each a fresh sum over the leaves."""
    inv = 1.0 / alpha
    tree = Y.tree
    prob = tree.prob
    losses = {leaf: -Y.values[leaf] for leaf in tree.leaves}
    best = math.inf
    for t in sorted(set(losses.values())):
        tail = math.fsum(
            prob[leaf] * (losses[leaf] - t) for leaf in tree.leaves if losses[leaf] > t
        )
        g = t + inv * tail
        if g < best:
            best = g
    return best


def atom_masses(Y):
    """Distinct outcomes in increasing order with the fsum of their leaf probabilities."""
    grouped = {}
    for leaf in Y.tree.leaves:
        grouped.setdefault(Y.values[leaf], []).append(Y.tree.prob[leaf])
    return [(v, math.fsum(ps)) for v, ps in sorted(grouped.items())]


def flat_tree(probs):
    """One-period tree whose leaves w00000, w00001, ... carry the given probabilities."""
    nodes = [TreeNode("root", None, 0, 0.0, 1.0)]
    nodes += [TreeNode(f"w{i:05d}", "root", 1, 1.0, float(p)) for i, p in enumerate(probs)]
    return ScenarioTree(nodes)


def skewed_probs(rng, n):
    """Dirichlet(0.5) probabilities floored at 1e-3 and renormalized."""
    p = np.maximum(rng.dirichlet(np.full(n, 0.5)), 1e-3)
    return p / p.sum()


def static_of(tree, values):
    return StaticRV(tree, {leaf: float(v) for leaf, v in zip(tree.leaves, values)})


def assert_same_spec(spec, expected, rng):
    """Same labels, measures and, under float.hex, static_rho and rho_eval values."""
    assert spec.labels == expected.labels
    assert spec.measures() == expected.measures()
    for _ in range(3):
        Y = random_static(spec.tree, rng, scale=float(10.0 ** rng.uniform(-6, 6)))
        X = random_process(spec.tree, rng)
        assert float.hex(static_rho(spec, Y)) == float.hex(static_rho(expected, Y))
        got, want = rho_eval(spec, X), rho_eval(expected, X)
        assert got.argmax == want.argmax
        assert [float.hex(v) for v in got.values] == [float.hex(v) for v in want.values]


class TestQuantileBoundary:
    """Levels exactly on a cumulative mass: the strict ``>`` picks the next atom."""

    def test_atom_tree_on_cumulative_masses(self, atom_y):
        # cumulative masses 0.1, fsum(0.1, 0.6) == 0.7 and 1.0
        assert math.fsum([0.1, 0.6]) == 0.7
        assert var_alpha(atom_y, 0.1) == 0.0
        assert es_tce(atom_y, 0.1) == -2.0
        assert var_alpha(atom_y, 0.7) == -1.0
        assert es_tce(atom_y, 0.7) == math.fsum([0.1 * -2.0, 0.6 * 0.0]) / math.fsum([0.1, 0.6])

    def test_many_atoms_match_prefix_scan(self):
        rng = np.random.default_rng(211)
        values = rng.permutation(np.repeat(np.arange(-250, 250) * 0.37, rng.integers(1, 4, size=500)))
        tree = flat_tree(skewed_probs(rng, len(values)))
        Y = static_of(tree, values)
        atoms = atom_masses(Y)
        assert len(atoms) == 500
        cumulative = [math.fsum(m for _, m in atoms[: k + 1]) for k in range(len(atoms))]
        levels = [float(a) for a in rng.uniform(0.01, 0.99, size=20)]
        levels += [c for c in cumulative[::25] if c < 1.0]
        for alpha in levels:
            k = next(k for k in range(len(atoms)) if math.fsum(m for _, m in atoms[: k + 1]) > alpha)
            cutoff = atoms[k][0]
            assert var_alpha(Y, alpha) == 0.0 - cutoff
            event = [leaf for leaf in tree.leaves if Y.values[leaf] < cutoff]
            if not event:
                with pytest.raises(UndefinedQuantityError):
                    es_tce(Y, alpha)
                continue
            mass = math.fsum(tree.prob[leaf] for leaf in event)
            tail = math.fsum(tree.prob[leaf] * Y.values[leaf] for leaf in event)
            assert es_tce(Y, alpha) == tail / mass


class TestAvarMatchesScan:
    """avar evaluates its objective at a few losses only; it must return the full scan's bits."""

    def assert_scan(self, Y, alpha):
        assert avar(Y, alpha).hex() == scan_avar(Y, alpha).hex()

    def test_random_and_interleaved_trees(self):
        rng = np.random.default_rng(223)
        for i in range(60):
            draw = random_tree if i % 2 else interleaved_tree
            tree = draw(rng, max_depth=4, max_branch=4)
            self.assert_scan(random_static(tree, rng), float(rng.uniform(0.01, 0.9)))

    def test_integer_payoffs_with_ties(self):
        rng = np.random.default_rng(227)
        for _ in range(40):
            tree = random_tree(rng, max_depth=4, max_branch=4)
            Y = static_of(tree, rng.integers(-3, 4, size=len(tree.leaves)))
            self.assert_scan(Y, float(rng.uniform(0.01, 0.9)))

    def test_magnitudes(self):
        rng = np.random.default_rng(229)
        for scale in (1e-3, 1e-1, 1e2, 1e4, 1e6):
            for _ in range(8):
                tree = random_tree(rng, max_depth=3, max_branch=4)
                self.assert_scan(random_static(tree, rng, scale=scale), float(rng.uniform(0.01, 0.9)))

    def test_skewed_probabilities(self):
        rng = np.random.default_rng(233)
        for _ in range(10):
            n = int(rng.integers(20, 300))
            tree = flat_tree(skewed_probs(rng, n))
            Y = static_of(tree, rng.normal(size=n) * 10.0 ** rng.uniform(-3, 6))
            self.assert_scan(Y, float(rng.uniform(0.01, 0.9)))

    def test_level_on_a_cumulative_atom_mass(self, atom_y):
        self.assert_scan(atom_y, 0.1)
        self.assert_scan(atom_y, 0.7)
        rng = np.random.default_rng(239)
        for _ in range(20):
            tree = random_tree(rng, max_depth=3, max_branch=4)
            Y = static_of(tree, rng.integers(-4, 5, size=len(tree.leaves)) * 0.3)
            atoms = atom_masses(Y)
            k = int(rng.integers(1, len(atoms) + 1))
            alpha = math.fsum(m for _, m in atoms[:k])
            if 0.0 < alpha < 1.0:
                self.assert_scan(Y, alpha)

    def test_nearly_flat_objective(self):
        """Losses an ulp or so apart next to a far tail: the objective's values near
        its minimum differ only by rounding, and a loss beyond the neighbours of the
        value at risk can round lowest."""
        rng = np.random.default_rng(241)
        for _ in range(80):
            n = int(rng.integers(20, 120))
            c = float(rng.uniform(-1.0, 1.0))
            step = int(rng.integers(1, 50)) * math.ulp(c)
            far = [-(10.0 ** rng.uniform(2, 7)) for _ in range(3)]
            q = float(rng.uniform(0.01, 0.3))
            probs = np.concatenate(
                [rng.dirichlet(np.full(3, 5.0)) * q, rng.dirichlet(np.full(n, 5.0)) * (1 - q)]
            )
            Y = static_of(flat_tree(probs), far + [c + k * step for k in range(n)])
            self.assert_scan(Y, q + float(rng.uniform(0.05, 0.6)) * (1 - q))

    def test_agrees_with_vertex_spec(self):
        rng = np.random.default_rng(251)
        for _ in range(8):
            tree = random_tree(rng, max_depth=2, max_branch=4)
            assert len(tree.leaves) <= 16
            Y = random_static(tree, rng, scale=10.0 ** rng.uniform(-3, 6))
            alpha = float(rng.uniform(0.1, 0.9))
            a = avar(Y, alpha)
            # every term of either route is at most (1/alpha) p |y| or |a| in size
            tail = math.fsum(tree.prob[leaf] * abs(Y.values[leaf]) for leaf in tree.leaves)
            bound = rounding_bound(len(tree.order), abs(a) + tail / alpha)
            assert abs(a - static_rho(avar_spec(tree, alpha), Y)) <= bound


@pytest.fixture(scope="module")
def deep_normal():
    tree = uniform_binomial(14)
    rng = np.random.default_rng(14)
    return static_of(tree, rng.normal(size=len(tree.leaves)))


class TestDepth14:
    """16 384 leaves, checked against a numpy sort and cumulative sum (Acerbi-Tasche)."""

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_quantiles_match_sorted_reference(self, deep_normal, alpha):
        tree = deep_normal.tree
        y = np.array([deep_normal.values[leaf] for leaf in tree.leaves])
        p = np.array([tree.prob[leaf] for leaf in tree.leaves])
        order = np.argsort(y, kind="stable")
        y, p = y[order], p[order]
        cum = np.cumsum(p)  # exact: every leaf has probability 2**-14
        i = int(np.searchsorted(cum, alpha, side="right"))
        var = -y[i]
        assert var_alpha(deep_normal, alpha) == var
        n = len(y)
        mass = float(p[:i].sum())
        tce = float(p[:i] @ y[:i]) / mass
        assert abs(es_tce(deep_normal, alpha) - tce) <= rounding_bound(n, float(p[:i] @ abs(y[:i])) / mass)
        inv = 1.0 / alpha
        ref = inv * (float(p[:i] @ -y[:i]) + (alpha - float(cum[i - 1])) * var)
        magnitude = abs(var) + inv * float(p[:i] @ (abs(y[:i]) + abs(var)))
        assert abs(avar(deep_normal, alpha) - ref) <= rounding_bound(n, magnitude)


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

    def test_level_above_the_leaf_mass_is_undefined(self):
        # the leaves add up to 1 - 4e-13, which the tree's 1e-12 mass check accepts
        tree = flat_tree([0.5, 0.4999999999996])
        Y = static_of(tree, [1.0, 2.0])
        message = (
            "quantile undefined: the leaf probabilities add up to 0.9999999999996, "
            "not above alpha = 0.9999999999999"
        )
        for f in (var_alpha, es_tce):
            with pytest.raises(UndefinedQuantityError) as err:
                f(Y, 0.9999999999999)
            assert str(err.value) == message
        assert var_alpha(Y, 0.9999999999995) == -2.0


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


class TestAvarAtTheFloatEdges:
    def test_spread_past_the_float_range(self):
        # loss - t overflowed for t = -1.5e308 and read 4.166666666667e+307
        Y = static_of(uniform_binomial(2), [-1.5e308, 1.5e308, 1.0, 2.0])
        want = (Fraction(1.5e308) / 10 - Fraction(3, 4)) / Fraction(0.9)  # 1.666666666667e+307
        assert abs(avar(Y, 0.9) - float(want)) <= 16 * U * 1.5e308 * (1.0 + 1.0 / 0.9)
        rng = np.random.default_rng(257)
        for _ in range(20):
            tree = random_tree(rng, max_depth=3, max_branch=4)
            values = rng.uniform(-1.0, 1.0, size=len(tree.leaves)) * 1.7e308
            values[:2] = -1.7e308, 1.7e308
            Y, alpha = static_of(tree, rng.permutation(values)), float(rng.uniform(0.01, 0.9))
            got = avar(Y, alpha)
            assert got == 2.0 * scan_avar(static_of(tree, Y.vector / 2.0), alpha)
            want = exact_avar(Y, alpha)
            assert abs(got - float(want)) <= 16 * U * 1.7e308 * (1.0 + 1.0 / alpha)

    def test_level_whose_reciprocal_overflows(self):
        # 1 / alpha is inf, and inv * 0.0 at the worst atom read nan
        rng = np.random.default_rng(263)
        for alpha in (1e-310, 5e-324):
            for _ in range(10):
                Y = random_static(random_tree(rng), rng)
                assert avar(Y, alpha) == -Y.vector.min()

    def test_infinite_rounding_bound_stops_at_the_neighbours(self, monkeypatch):
        evaluations = []  # the objective makes one repeat() per evaluation past the worst atom
        monkeypatch.setattr(instances, "repeat", lambda w, s: evaluations.append(w) or itertools.repeat(w, s))
        Y = static_of(flat_tree([1 / 200] * 200), np.linspace(-1e300, 1e300, 200))
        assert avar(Y, 1e-300) == 1e300  # every atom outweighs alpha: the worst loss
        assert len(evaluations) == 1  # its one neighbour, not the 199 atoms past it


def exact_avar(Y, alpha):
    """min_t { t + E[(L - t)^+] / alpha } over the realized losses, in rational arithmetic."""
    prob = [Fraction(p) for p in Y.tree.leaf_prob.tolist()]
    losses = [-Fraction(v) for v in Y.vector.tolist()]
    return min(t + sum(p * (x - t) for p, x in zip(prob, losses) if x > t) / Fraction(alpha) for t in losses)


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

    def test_tiny_level_gives_point_masses(self, t1):
        # alpha below an absolute 1e-12 would count the empty set as a full tail
        spec = avar_spec(t1, 1e-13)
        densities = sorted(tuple(sorted(a.op_inc.items())) for a, _ in spec.elements)
        assert densities == [(("d", 2.0),), (("u", 2.0),)]
        Y = StaticRV(t1, {"d": -2.0, "u": 3.0})
        assert static_rho(spec, Y) == avar(Y, 1e-13) == 2.0

    def test_chain_single_unit_density(self, chain_tree):
        spec = avar_spec(chain_tree, 0.35)
        assert len(spec) == 1
        (a, g) = spec.elements[0]
        assert g == 0.0
        assert a.op_inc == {"b": 1.0}
        rngY = StaticRV(chain_tree, {"b": -0.75})
        assert abs(static_rho(spec, rngY) - 0.75) <= TOL

    def test_arrays_match_the_measure_built_spec(self):
        rng = np.random.default_rng(89)
        for trial in range(12):
            tree = (random_tree if trial % 2 else interleaved_tree)(rng, max_depth=2)
            alpha = float(rng.uniform(0.05, 0.95))
            vertices = _density_vertices([tree.prob[leaf] for leaf in tree.leaves], alpha)
            elements = [
                (terminal_density_measure(StaticRV(tree, dict(zip(tree.leaves, f)))), 0.0)
                for f in vertices
            ]
            labels = [f"v{i}" for i in range(len(vertices))]
            assert_same_spec(avar_spec(tree, alpha), RiskMeasureSpec(tree, elements, labels), rng)

    def test_leaf_cap(self):
        with pytest.raises(ValidationError):
            avar_spec(uniform_binomial(5), 0.5)


class TestWorstCaseSpec:
    def test_one_element_per_leaf(self, t2):
        spec = worst_case_spec(t2)
        assert len(spec) == len(t2.leaves)
        assert spec.is_coherent
        assert spec.labels == tuple(f"leaf:{leaf}" for leaf in t2.leaves)

    def test_arrays_match_the_measure_built_spec(self):
        rng = np.random.default_rng(97)
        for trial in range(12):
            tree = (random_tree if trial % 2 else interleaved_tree)(rng)
            elements = [(BiMeasure(tree, {}, {leaf: 1.0 / tree.prob[leaf]}), 0.0) for leaf in tree.leaves]
            labels = [f"leaf:{leaf}" for leaf in tree.leaves]
            assert_same_spec(worst_case_spec(tree), RiskMeasureSpec(tree, elements, labels), rng)

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

    @pytest.mark.parametrize(
        "values, expected",
        [({"u": -1e308, "d": 0.0}, 1e308), ({"u": 1e308, "d": 1e308}, -1e308)],
        ids=["huge-loss", "huge-gain"],
    )
    def test_shift_beyond_the_float_range(self, t1, values, expected):
        # beta times the largest loss overflows to +inf or -inf
        assert entropic(StaticRV(t1, values), 10.0) == expected

    def test_finite_results_match_a_decimal_reference(self):
        rng = np.random.default_rng(113)
        for trial in range(300):
            tree = random_tree(rng)
            # beta and beta * scale as powers of 10; every other trial near the float range
            b, e = rng.uniform(-6, 6), rng.uniform(-300, 300) if trial % 2 else rng.uniform(300, 312)
            beta, scale = 10.0**b, 10.0 ** min(e - b, 307.0)
            Y = StaticRV(tree, {leaf: scale * float(rng.normal()) for leaf in tree.leaves})
            assert_entropic_close(Y, beta)

    def test_small_beta_keeps_every_digit(self):
        # the log of a sum of exp rounds each term near 1: 1.2e-8 off at beta 1e-9, 3.2e-2 at 1e-15
        tree = uniform_binomial(3)
        Y = static_of(tree, [i - 3 + 0.1 * i * i for i in range(8)])
        for k in range(-15, 4):
            assert_entropic_close(Y, 10.0**k)

    def test_constant_on_a_leaf_mass_off_one(self):
        # branch probabilities 0.5 + 4e-13, which the tree accepts: the leaf mass is 1 + 8e-13
        tree = flat_tree([0.5 + 4e-13, 0.5 + 4e-13])
        for beta in (1e-15, 1e-9, 1.0, 1e3):
            assert entropic(StaticRV.constant(tree, 2.0), beta) == -2.0
        rng = np.random.default_rng(131)
        for _ in range(20):
            tree = random_tree(rng)
            c = float(rng.normal() * 10.0 ** rng.uniform(-10, 10))
            assert entropic(StaticRV.constant(tree, c), float(10.0 ** rng.uniform(-15, 3))) == -c


def entropic_reference(Y, beta):
    """(1/beta) log(sum p exp(-beta y) / sum p) with 50 digits, shifted by the worst loss m: m + log1p(s) / beta
    for s = sum p expm1(beta (-y - m)) / sum p, by series where exp and ln would cancel the digits away."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tiny = decimal.Decimal("1e-12")
        p = [decimal.Decimal(q) for q in Y.tree.leaf_prob.tolist()]
        y = [decimal.Decimal(v) for v in Y.vector.tolist()]
        b = decimal.Decimal(beta)
        m = max(-v for v in y)
        x = [b * (-v - m) for v in y]
        s = sum(q * (xi.exp() - 1 if abs(xi) > tiny else xi + xi**2 / 2 + xi**3 / 6) for q, xi in zip(p, x)) / sum(p)
        return float(m + ((1 + s).ln() if abs(s) > tiny else s - s**2 / 2 + s**3 / 3) / b)


def assert_entropic_close(Y, beta):
    """Within 8 u (|reference| + max|Y|): the rounding of the shift, the exponents and the logarithm."""
    got, want = entropic(Y, beta), entropic_reference(Y, beta)
    assert abs(got - want) <= 8 * U * (abs(want) + float(np.abs(Y.vector).max())), (beta, got, want)


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
