"""Stress diagnostics: uniform integrability, refinement limits, decomposition identities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bimeasure import BiMeasure, _leaf_sums, variation
from .errors import ValidationError
from .instances import avar, avar_max_density, worst_case_spec
from .process import AdaptedProcess, StaticRV, _new, prob_sup_exceedance, terminal_values
from .riskcore import RiskMeasureSpec, rho_eval
from .scenario import ScenarioTree, _is_int, _named_fsums, uniform_binomial

DEFAULT_K_GRID = (0.0, 1.0, 5.0, 10.0, 20.0, 50.0)
EPS_GRID = (0.5, 0.25, 0.125)  # separation levels lebesgue_probe records
DECAY_THRESHOLD = 1e-6  # a tail modulus below this counts as vanished
GAP_FLOOR = 0.5  # lebesgue_probe's verdict thresholds, see its docstring
CONSISTENT_COEFF = 10.0


@dataclass(frozen=True)
class UIReport:
    thresholds: tuple[float, ...]
    modulus: tuple[float, ...]
    decay_threshold: float
    verdict: str  # "decaying" or "non-decaying"


def ui_modulus(family: Sequence[StaticRV], thresholds: Sequence[float]) -> UIReport:
    """Tail-mass modulus eta(K) = sup_f E[|f| ; |f| > K] over a finite family.

    Computed exactly atom by atom: per threshold, one mask over the family's
    |f| and one fsum per member of P(l) |f(l)| where it is set. ``decaying``
    means the modulus at the largest threshold has dropped below
    ``DECAY_THRESHOLD``; on a finite tree that is the meaningful stand-in for
    the vanishing-tail limit.
    """
    family = list(family)
    if not family:
        raise ValidationError("uniform integrability needs a nonempty family")
    ks = [float(k) for k in thresholds]
    if not ks:
        raise ValidationError("need at least one threshold")
    # written so that a NaN or infinite threshold fails
    if any(not 0 <= k < math.inf for k in ks) or any(not b > a for a, b in zip(ks, ks[1:])):
        raise ValidationError("thresholds must be nonnegative and strictly increasing")
    tree = family[0].tree
    for f in family:
        if f.tree is not tree:
            raise ValidationError("tree mismatch inside the family")
    size = np.abs(np.array([f.vector for f in family]).T)  # one column per member
    weighted = tree.leaf_prob[:, None] * size
    names, fault = range(len(family)), "non-finite tail mass of family member {}"  # an fsum that overflows
    etas = [max([0.0, *_named_fsums(np.where(size > k, weighted, 0.0), None, fault, names)]) for k in ks]
    verdict = "decaying" if etas[-1] < DECAY_THRESHOLD else "non-decaying"
    return UIReport(
        thresholds=tuple(ks),
        modulus=tuple(etas),
        decay_threshold=DECAY_THRESHOLD,
        verdict=verdict,
    )


class GeneratingFamily(NamedTuple):
    """What a refinement probe reads from a scenario family at one depth: its label, its risk
    ``rho(X)`` and ``variation_densities()``, the densities its tail modulus is taken over."""

    label: str
    rho: Callable[[AdaptedProcess], float]
    variation_densities: Callable[[], list[StaticRV]]


def SpecFamily(spec: RiskMeasureSpec, label: str = "spec") -> GeneratingFamily:
    """An explicit generating spec as a family."""
    return GeneratingFamily(
        label, lambda X: rho_eval(spec, X).value, lambda: [variation(a) for a in spec.measures()]
    )


def WorstCaseFamily(tree: ScenarioTree) -> GeneratingFamily:
    """Renormalized leaf point masses; exact at any depth."""
    spec = worst_case_spec(tree)

    def variation_densities() -> list[StaticRV]:
        # one representative point mass per distinct leaf probability carries
        # the whole family's tail modulus
        out, seen = [], set()
        for i, p in enumerate(tree.leaf_prob.tolist()):
            if p not in seen:
                seen.add(p)
                vector = np.zeros(len(tree.leaves))
                vector[i] = 1.0 / p
                out.append(_new(StaticRV, tree, vector))
        return out

    return GeneratingFamily("worst-case", lambda X: rho_eval(spec, X).value, variation_densities)


def AVaRFamily(tree: ScenarioTree, alpha: float) -> GeneratingFamily:
    """The full dual density polytope of avar, evaluated without enumeration.

    The generating elements are terminal densities, so the supremum over the
    polytope only reads the terminal slice and equals the scan form of avar.
    Tail moduli are reported on representative extreme densities: every member
    is capped at 1/alpha, so the modulus vanishes exactly beyond that cap.
    """
    level, label = float(alpha), f"avar[{alpha:g}]"

    def variation_densities() -> list[StaticRV]:
        ranking = _new(StaticRV, tree, np.arange(len(tree.leaves), dtype=float))
        return [StaticRV.constant(tree, 1.0), avar_max_density(ranking, level)]

    return GeneratingFamily(label, lambda X: avar(terminal_values(X), level), variation_densities)


@dataclass(frozen=True)
class RefinementSchedule:
    """A ladder of uniform binomial tree depths with builders for the family and the probe pair."""

    depths: tuple[int, ...]
    family_builder: Callable[[ScenarioTree], GeneratingFamily]
    sequence_builder: Callable[[ScenarioTree], tuple[AdaptedProcess, AdaptedProcess]]

    def __post_init__(self):
        depths = tuple(self.depths)
        if not all(map(_is_int, depths)):
            raise ValidationError(f"depths must be integers, got {depths!r}")
        if not depths:
            raise ValidationError("schedule needs at least one depth")
        if any(d < 1 for d in depths) or any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValidationError("depths must be positive and strictly increasing")
        object.__setattr__(self, "depths", tuple(map(int, depths)))


@dataclass(frozen=True)
class DepthProbe:
    depth: int
    rho_moving: float
    rho_limit: float
    gap: float
    exceedance: tuple[tuple[float, float], ...]
    modulus: UIReport


@dataclass(frozen=True)
class LebesgueReport:
    family_label: str
    rows: tuple[DepthProbe, ...]
    exceedance_vanishing: bool
    verdict: str  # "consistent" | "violating" | "inconclusive"


def lebesgue_probe(schedule: RefinementSchedule, k_grid: Sequence[float] = DEFAULT_K_GRID) -> LebesgueReport:
    """Chase the dominated-convergence behaviour of a family along refinements.

    At each depth the probe evaluates the family on the moving process and on
    its pointwise limit, records the gap, the separation probabilities of the
    pair, and the tail modulus of the family's variation densities.

    Verdicts on the final depths (up to three): ``violating`` when the gap
    stays above ``GAP_FLOOR`` while the separation probability vanishes;
    ``consistent`` when the gap falls at least geometrically, within
    ``CONSISTENT_COEFF`` times 2^-depth; otherwise ``inconclusive``.
    """
    rows: list[DepthProbe] = []
    label = None
    for depth in schedule.depths:
        tree = uniform_binomial(depth)
        family = schedule.family_builder(tree)
        if label is None:
            label = family.label
        X_n, X_lim = schedule.sequence_builder(tree)
        rho_n = family.rho(X_n)
        rho_lim = family.rho(X_lim)
        exceedance = tuple(
            (eps, prob_sup_exceedance(X_n, X_lim, eps)) for eps in EPS_GRID
        )
        mod = ui_modulus(family.variation_densities(), k_grid)
        rows.append(
            DepthProbe(
                depth=depth,
                rho_moving=rho_n,
                rho_limit=rho_lim,
                gap=abs(rho_n - rho_lim),
                exceedance=exceedance,
                modulus=mod,
            )
        )

    window = rows[-min(3, len(rows)):]
    last = rows[-1]
    vanish_tol = max(CONSISTENT_COEFF * 2.0 ** -last.depth, 1e-12)
    exceedance_vanishing = all(value <= vanish_tol for _, value in last.exceedance)
    # boundary counts as tracking: canonical families land exactly on it
    tracking = all(r.gap <= CONSISTENT_COEFF * 2.0 ** -r.depth + 1e-15 for r in window)
    if tracking and last.gap <= GAP_FLOOR and last.modulus.verdict == "decaying":
        verdict = "consistent"
    elif not tracking and last.gap > GAP_FLOOR and exceedance_vanishing:
        verdict = "violating"
    else:
        verdict = "inconclusive"
    return LebesgueReport(
        family_label=label or "",
        rows=tuple(rows),
        exceedance_vanishing=exceedance_vanishing,
        verdict=verdict,
    )


def crash_sequence(tree: ScenarioTree) -> tuple[AdaptedProcess, AdaptedProcess]:
    """Terminal unit loss on the first canonical leaf, against the zero limit."""
    vector = np.zeros(len(tree.order))
    vector[tree.first_leaf] = -1.0
    return _new(AdaptedProcess, tree, vector), AdaptedProcess.zero(tree)


def worst_case_crash_schedule(depths: Sequence[int]) -> RefinementSchedule:
    return RefinementSchedule(
        depths=tuple(depths),
        family_builder=WorstCaseFamily,
        sequence_builder=crash_sequence,
    )


def avar_crash_schedule(depths: Sequence[int], alpha: float) -> RefinementSchedule:
    return RefinementSchedule(
        depths=tuple(depths),
        family_builder=lambda tree: AVaRFamily(tree, alpha),
        sequence_builder=crash_sequence,
    )


@dataclass(frozen=True)
class DecompositionRow:
    terminal_bound_slack: float
    additivity_deviation: float
    jordan_deviation: float
    var_within_2_terminal_envelope: bool
    terminal_within_2_var_envelope: bool


@dataclass(frozen=True)
class DecompositionReport:
    rows: tuple[DecompositionRow, ...]
    sup_variation: float
    sup_terminal: float


def decomposition_battery(measures: Sequence[BiMeasure]) -> DecompositionReport:
    """Pointwise decomposition identities for each signed bi-measure.

    Per element and leaf: |a_T - a_0| <= Var(a); Var(a) = Var(a+) + Var(a-);
    a_T - a_0 = Var(a+) - Var(a-). The report carries worst deviations (zero
    up to summation rounding) plus the factor-two envelope comparisons between
    the variation family and the terminal-mass family, which are recorded but
    hold only as inequalities, not as set identities.
    """
    measures = list(measures)
    if not measures:
        raise ValidationError("battery needs at least one bi-measure")
    tree = measures[0].tree
    for a in measures:
        if a.tree is not tree:
            raise ValidationError("tree mismatch inside the battery input")

    parts = np.abs, lambda x: np.where(x > 0.0, x, 0.0), lambda x: np.where(x < 0.0, -x, 0.0), np.asarray
    sums = np.array([_leaf_sums(a, *parts) for a in measures])  # Var(a), Var(a+), Var(a-), a_T - a_0
    var, var_p, var_m, term = sums.transpose(1, 0, 2)  # each (element, leaf)
    bound_slack = np.max(np.abs(term) - var, axis=1)
    addv = np.max(np.abs(var - (var_p + var_m)), axis=1)
    jord = np.max(np.abs(term - (var_p - var_m)), axis=1)
    term_envelope = np.max(np.abs(term), axis=0)
    var_envelope = np.max(var, axis=0)
    with np.errstate(over="ignore"):  # a doubled envelope past the float maximum compares as inf
        rows = tuple(
            DecompositionRow(
                terminal_bound_slack=float(bound_slack[e]),
                additivity_deviation=float(addv[e]),
                jordan_deviation=float(jord[e]),
                var_within_2_terminal_envelope=bool(np.all(var[e] <= 2.0 * term_envelope)),
                terminal_within_2_var_envelope=bool(np.all(np.abs(term[e]) <= 2.0 * var_envelope)),
            )
            for e in range(len(measures))
        )
    return DecompositionReport(
        rows=rows,
        sup_variation=float(var_envelope.max()),
        sup_terminal=float(term_envelope.max()),
    )


@dataclass(frozen=True)
class AttainmentRow:
    value: float
    maximizers: tuple[str, ...]
    margin: float


@dataclass(frozen=True)
class AttainmentReport:
    rows: tuple[AttainmentRow, ...]


def attainment_check(spec: RiskMeasureSpec, processes: Sequence[AdaptedProcess]) -> AttainmentReport:
    """Confirm each supremum is attained and measure its margin over the runner-up.

    Ties report margin zero; a spec with no competitor outside the maximizing
    set reports an infinite margin.
    """
    rows = []
    for X in processes:
        res = rho_eval(spec, X)
        labels = tuple(spec.labels[i] for i in res.argmax)
        if len(res.argmax) > 1:
            margin = 0.0
        else:
            others = [v for i, v in enumerate(res.values) if i not in res.argmax]
            margin = res.value - max(others) if others else math.inf
        rows.append(AttainmentRow(value=res.value, maximizers=labels, margin=margin))
    return AttainmentReport(rows=tuple(rows))
