"""Uniform integrability moduli, refinement probes and decomposition batteries."""

import math

import numpy as np
import pytest

from treerisk import (
    AdaptedProcess,
    AVaRFamily,
    BiMeasure,
    RefinementSchedule,
    ScenarioTree,
    SpecFamily,
    StaticRV,
    ValidationError,
    WorstCaseFamily,
    attainment_check,
    avar_crash_schedule,
    avar_spec,
    crash_sequence,
    decomposition_battery,
    jordan,
    lebesgue_probe,
    rho_eval,
    terminal_increment,
    ui_modulus,
    uniform_binomial,
    variation,
    worst_case_crash_schedule,
    worst_case_spec,
)
from treerisk.diagnostics import GeneratingFamily

from conftest import (
    random_bimeasure,
    random_dyadic_bimeasure,
    random_process,
    random_static,
    random_tree,
)

TOL = 1e-12


def escaping_family(tree, n):
    """Unit-mean densities concentrating mass 1 on ever-smaller events."""
    fams = []
    for k in range(n + 1):
        anchor = next(nid for nid in tree.order if tree.nodes[nid].depth == k)
        vals = {leaf: 0.0 for leaf in tree.leaves}
        for leaf in tree.leaves_under(anchor):
            vals[leaf] = float(2**k)
        fams.append(StaticRV(tree, vals))
    return fams


class TestUiModulus:
    def test_singleton_unit_density(self, t1):
        report = ui_modulus([StaticRV.constant(t1, 1.0)], [0.0, 1.0])
        assert report.modulus == (1.0, 0.0)
        assert report.verdict == "decaying"

    def test_escaping_family_has_flat_modulus(self):
        n = 4
        tree = uniform_binomial(n)
        fams = escaping_family(tree, n)
        report = ui_modulus(fams, [0.0, 1.0, 3.0, 15.0, 16.0, 50.0])
        assert report.modulus == (1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        below = ui_modulus(fams, [float(2**n) - 1.0])
        assert below.modulus == (1.0,)
        assert below.verdict == "non-decaying"

    def test_modulus_nonincreasing(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            tree = random_tree(rng)
            fams = [random_static(tree, rng) for _ in range(3)]
            report = ui_modulus(fams, [0.0, 0.5, 1.0, 2.0, 4.0])
            for lo, hi in zip(report.modulus, report.modulus[1:]):
                assert hi <= lo + TOL

    def test_validation(self, t1, t2):
        f = StaticRV.constant(t1, 1.0)
        with pytest.raises(ValidationError):
            ui_modulus([], [1.0])
        with pytest.raises(ValidationError):
            ui_modulus([f], [])
        with pytest.raises(ValidationError):
            ui_modulus([f], [1.0, 1.0])
        with pytest.raises(ValidationError):
            ui_modulus([f], [-1.0, 2.0])
        # an infinite threshold would read E[|f|; |f| > inf] = 0 for every family
        for ks in ([math.nan], [0.0, math.nan], [math.nan, 1.0], [math.inf], [0.0, math.inf], [1e400]):
            with pytest.raises(ValidationError, match="nonnegative and strictly increasing"):
                ui_modulus([f], ks)
        with pytest.raises(ValidationError):
            ui_modulus([f, StaticRV.constant(t2, 1.0)], [1.0])


class TestFamilies:
    def test_worst_case_representatives_carry_full_modulus(self):
        tree = uniform_binomial(4)
        family = WorstCaseFamily(tree)
        grid = [0.0, 1.0, 5.0, 10.0, 20.0]
        compact = ui_modulus(family.variation_densities(), grid)
        full = ui_modulus(
            [variation(a) for a in worst_case_spec(tree).measures()], grid
        )
        assert compact.modulus == full.modulus

    def test_avar_family_matches_generating_spec(self):
        from treerisk import avar_spec

        rng = np.random.default_rng(29)
        for depth in (2, 3):
            tree = uniform_binomial(depth)
            for alpha in (0.5, 0.3):
                family = AVaRFamily(tree, alpha)
                spec = avar_spec(tree, alpha)
                for _ in range(5):
                    X = random_process(tree, rng)
                    assert abs(family.rho(X) - rho_eval(spec, X).value) <= 1e-10

    def test_spec_family_reads_its_spec(self):
        rng = np.random.default_rng(30)
        for depth, alpha in ((2, 0.3), (3, 0.5), (3, 0.2)):
            tree = uniform_binomial(depth)
            spec = avar_spec(tree, alpha)
            family = SpecFamily(spec)
            assert family.label == "spec" and SpecFamily(spec, "mine").label == "mine"
            for _ in range(5):
                X = random_process(tree, rng)
                assert float.hex(family.rho(X)) == float.hex(rho_eval(spec, X).value)
            densities = [d.vector.tolist() for d in family.variation_densities()]
            assert densities == [variation(a).vector.tolist() for a in spec.measures()]

    def test_spec_family_schedule_matches_the_worst_case_one(self):
        # every leaf point mass against one representative per leaf probability: the same
        # risks and, by the representatives' construction, the same tail modulus
        depths = range(1, 7)
        spec_family = RefinementSchedule(
            depths=tuple(depths),
            family_builder=lambda tree: SpecFamily(worst_case_spec(tree)),
            sequence_builder=crash_sequence,
        )
        ours, theirs = lebesgue_probe(spec_family), lebesgue_probe(worst_case_crash_schedule(depths))
        assert (ours.family_label, theirs.family_label) == ("spec", "worst-case")
        for a, b in zip(ours.rows, theirs.rows, strict=True):
            assert [a.rho_moving.hex(), a.rho_limit.hex()] == [b.rho_moving.hex(), b.rho_limit.hex()]
            assert a.modulus == b.modulus
        assert ours.verdict == theirs.verdict

    def test_builders_give_the_pinned_records(self):
        # leaf masses 0.2, 0.2, 0.15, 0.45: the worst-case family keeps one point mass per
        # distinct mass, the spec family one per leaf
        rows = [("root", None, 0, 0.0, 1.0), ("a", "root", 1, 0.5, 0.4), ("b", "root", 1, 0.5, 0.6)]
        rows += [("aa", "a", 2, 1.0, 0.5), ("ab", "a", 2, 1.0, 0.5)]
        rows += [("ba", "b", 2, 1.0, 0.25), ("bb", "b", 2, 1.0, 0.75)]
        tree = ScenarioTree(rows)
        X = AdaptedProcess(tree, {nid: ((5 * i) % 7 - 3) / 7 for i, nid in enumerate(tree.order)})

        def point(i, v):
            return ["0x0.0p+0"] * i + [v] + ["0x0.0p+0"] * (3 - i)

        five, six, nine = "0x1.4000000000000p+2", "0x1.aaaaaaaaaaaabp+2", "0x1.1c71c71c71c72p+1"
        worst = "0x1.2492492492492p-2"
        expected = [
            ("worst-case", worst, [point(0, five), point(2, six), point(3, nine)]),
            ("avar[0.3]", "0x1.e79e79e79e79ep-3", [
                ["0x1.0000000000000p+0"] * 4,
                ["0x1.aaaaaaaaaaaabp+1", "0x1.aaaaaaaaaaaa9p+0", "0x0.0p+0", "0x0.0p+0"],
            ]),
            ("spec", worst, [point(0, five), point(1, five), point(2, six), point(3, nine)]),
        ]
        families = WorstCaseFamily(tree), AVaRFamily(tree, 0.3), SpecFamily(worst_case_spec(tree))
        for family, (label, rho, densities) in zip(families, expected):
            assert type(family) is GeneratingFamily
            assert family.label == label
            assert family.rho(X).hex() == rho
            assert [[v.hex() for v in d.vector.tolist()] for d in family.variation_densities()] == densities

    def test_builders_resolve_in_both_namespaces(self):
        import treerisk
        import treerisk.diagnostics

        assert GeneratingFamily._fields == ("label", "rho", "variation_densities")
        for name in ("SpecFamily", "WorstCaseFamily", "AVaRFamily"):
            assert getattr(treerisk, name) is getattr(treerisk.diagnostics, name)

    def test_crash_sequence_shape(self, t2):
        X_n, X_lim = crash_sequence(t2)
        assert X_n.values["dd"] == -1.0
        assert all(v == 0.0 for nid, v in X_n.values.items() if nid != "dd")
        assert X_lim.values == {nid: 0.0 for nid in t2.order}


class TestLebesgueProbe:
    def test_worst_case_refinement_violates(self):
        report = lebesgue_probe(worst_case_crash_schedule(range(1, 7)))
        assert report.verdict == "violating"
        assert report.exceedance_vanishing
        for row in report.rows:
            assert row.gap == 1.0
            assert row.rho_moving == 1.0
            assert row.rho_limit == 0.0
        assert report.rows[-1].exceedance[0] == (0.5, 2.0**-6)

    def test_avar_refinement_consistent(self):
        report = lebesgue_probe(avar_crash_schedule(range(1, 7), 0.1))
        assert report.verdict == "consistent"
        by_depth = {row.depth: row.gap for row in report.rows}
        assert by_depth[4] == 0.625
        assert by_depth[5] == 0.3125
        assert by_depth[6] == 0.15625
        for row in report.rows:
            assert row.modulus.verdict == "decaying"

    def test_constant_sequence_consistent_for_avar(self):
        schedule = RefinementSchedule(
            depths=(1, 2, 3),
            family_builder=lambda tree: AVaRFamily(tree, 0.25),
            sequence_builder=lambda tree: (
                AdaptedProcess.zero(tree),
                AdaptedProcess.zero(tree),
            ),
        )
        report = lebesgue_probe(schedule)
        assert report.verdict == "consistent"
        assert all(row.gap == 0.0 for row in report.rows)

    def test_zero_gap_with_escaping_mass_stays_inconclusive(self):
        schedule = RefinementSchedule(
            depths=(5, 6),
            family_builder=WorstCaseFamily,
            sequence_builder=lambda tree: (
                AdaptedProcess.zero(tree),
                AdaptedProcess.zero(tree),
            ),
        )
        report = lebesgue_probe(schedule)
        assert report.verdict == "inconclusive"
        assert report.rows[-1].modulus.verdict == "non-decaying"

    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            worst_case_crash_schedule([])
        with pytest.raises(ValidationError):
            worst_case_crash_schedule([2, 2])
        with pytest.raises(ValidationError):
            worst_case_crash_schedule([0, 1])

    def test_schedule_depths_must_be_integers(self):
        for bad in (2.7, True, 2.0):
            with pytest.raises(ValidationError) as exc:
                worst_case_crash_schedule([1, bad])
            assert str(exc.value) == f"depths must be integers, got (1, {bad})"
        depths = worst_case_crash_schedule([np.int64(1), np.int32(2), 3]).depths
        assert depths == (1, 2, 3) and {type(d) for d in depths} == {int}


class TestDecompositionBattery:
    def test_identities_exact_on_grid_valued_measures(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            tree = random_tree(rng)
            measures = [random_dyadic_bimeasure(tree, rng) for _ in range(4)]
            report = decomposition_battery(measures)
            for row in report.rows:
                assert row.additivity_deviation == 0.0
                assert row.jordan_deviation == 0.0
                assert row.terminal_bound_slack <= 0.0

    def test_terminal_bound_holds_for_arbitrary_measures(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            tree = random_tree(rng)
            measures = [random_bimeasure(tree, rng) for _ in range(3)]
            report = decomposition_battery(measures)
            for row in report.rows:
                assert row.terminal_bound_slack <= 0.0
                assert row.terminal_within_2_var_envelope

    def test_cancellation_element(self, t2):
        a = BiMeasure(t2, pr_inc={}, op_inc={"d": 1.0, "dd": -1.0})
        report = decomposition_battery([a])
        row = report.rows[0]
        assert row.additivity_deviation == 0.0
        assert row.jordan_deviation == 0.0
        assert report.sup_variation == 2.0
        assert report.sup_terminal == 1.0
        assert not row.var_within_2_terminal_envelope
        assert row.terminal_within_2_var_envelope
        assert variation(a).values["dd"] == 2.0
        assert terminal_increment(a).values["dd"] == 0.0

    def test_positive_measure_envelopes_tight(self, t1):
        a = BiMeasure(t1, pr_inc={"root": 0.5}, op_inc={"u": 1.0})
        row = decomposition_battery([a]).rows[0]
        assert row.var_within_2_terminal_envelope
        assert row.terminal_within_2_var_envelope
        assert row.terminal_bound_slack == 0.0

    def test_matches_per_measure_passes(self):
        """The one-call battery equals, to the bit, four separate kernel passes per measure."""
        rng = np.random.default_rng(41)
        for _ in range(15):
            tree = random_tree(rng)
            leaves = tree.leaves
            measures = [
                random_bimeasure(tree, rng).scale(10.0 ** rng.uniform(-6, 6)) for _ in range(3)
            ] + [BiMeasure(tree, {}, {})]
            var = [variation(a).values for a in measures]
            term = [terminal_increment(a).values for a in measures]
            parts = [[variation(p).values for p in jordan(a)] for a in measures]
            term_env = {leaf: max(abs(t[leaf]) for t in term) for leaf in leaves}
            var_env = {leaf: max(v[leaf] for v in var) for leaf in leaves}
            report = decomposition_battery(measures)
            for row, v, t, (vp, vm) in zip(report.rows, var, term, parts):
                assert row.terminal_bound_slack == max(abs(t[x]) - v[x] for x in leaves)
                assert row.additivity_deviation == max(abs(v[x] - (vp[x] + vm[x])) for x in leaves)
                assert row.jordan_deviation == max(abs(t[x] - (vp[x] - vm[x])) for x in leaves)
                assert row.var_within_2_terminal_envelope == all(
                    v[x] <= 2.0 * term_env[x] for x in leaves
                )
                assert row.terminal_within_2_var_envelope == all(
                    abs(t[x]) <= 2.0 * var_env[x] for x in leaves
                )
            assert report.sup_variation == max(var_env.values())
            assert report.sup_terminal == max(term_env.values())

    def test_validation(self, t1, t2):
        with pytest.raises(ValidationError):
            decomposition_battery([])
        with pytest.raises(ValidationError):
            decomposition_battery(
                [
                    BiMeasure(t1, pr_inc={}, op_inc={"u": 1.0}),
                    BiMeasure(t2, pr_inc={}, op_inc={"uu": 1.0}),
                ]
            )


class TestAttainment:
    def test_strict_margin(self, t1):
        spec = worst_case_spec(t1)
        X = AdaptedProcess(t1, {"root": 0.0, "u": 1.0, "d": -1.0})
        report = attainment_check(spec, [X])
        row = report.rows[0]
        assert row.value == 1.0
        assert row.maximizers == ("leaf:d",)
        assert row.margin == 2.0

    def test_tie_reports_zero_margin(self, t1):
        spec = worst_case_spec(t1)
        report = attainment_check(spec, [AdaptedProcess.zero(t1)])
        row = report.rows[0]
        assert row.margin == 0.0
        assert row.maximizers == ("leaf:d", "leaf:u")

    def test_singleton_spec_has_infinite_margin(self, chain_tree):
        from treerisk import avar_spec

        spec = avar_spec(chain_tree, 0.5)
        report = attainment_check(spec, [AdaptedProcess.constant(chain_tree, 2.0)])
        assert report.rows[0].margin == math.inf
