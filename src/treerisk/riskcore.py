"""Risk measures given by finite generating families of scenarios and penalties.

A measure spec holds generating elements (a_i, gamma_i) with each a_i a
nonnegative bi-measure of unit expected variation. The risk of a process is
the largest penalized loss functional

    rho(X) = max_i ( -<X, a_i> - gamma_i ),

coherent exactly when every penalty vanishes. Specs are normalized so the
smallest penalty is zero, which pins rho(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Iterable, Sequence

import numpy as np

from .bimeasure import BiMeasure, _path_sums, increment_vector, variation_norm
from .convexgeom import SimplexProgram, min_cost_combination
from .errors import ValidationError
from .process import AdaptedProcess, StaticRV, optional_projection_static, _require_same_tree
from .scenario import ScenarioTree

TIE_TOL = 1e-12


class RiskMeasureSpec:
    """Validated generating family for one convex (possibly coherent) risk measure."""

    def __init__(
        self,
        tree: ScenarioTree,
        elements: Iterable[tuple[BiMeasure, float]],
        labels: Sequence[str] | None = None,
        norm_tol: float = 1e-9,
    ):
        elems = [(a, float(g)) for a, g in elements]
        if not elems:
            raise ValidationError("spec needs at least one generating element")
        prob = tree.prob
        variations = []
        for i, (a, g) in enumerate(elems):
            _require_same_tree(tree, a.tree)
            if not a.is_positive:
                raise ValidationError(f"generating element {i} has negative increments")
            variations.append(_path_sums(a, abs))
            # variation_norm(a, 1.0) bit for bit: fsum rounds once, the zero leaves add nothing
            norm = fsum(prob[leaf] * v for leaf, v in variations[-1].items())
            if abs(norm - 1.0) > norm_tol:
                raise ValidationError(
                    f"generating element {i} must have unit expected variation, got {norm!r}"
                )
            if not math.isfinite(g):
                raise ValidationError(f"penalty of element {i} must be finite, got {g!r}")

        shift = min(g for _, g in elems)
        if labels is None:
            labels = tuple(f"e{i}" for i in range(len(elems)))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(elems):
                raise ValidationError(f"got {len(labels)} labels for {len(elems)} elements")

        self.tree = tree
        self.elements = tuple((a, g - shift) for a, g in elems)
        self.labels = labels
        self.gamma_shift = shift
        self.gammas = tuple(g for _, g in self.elements)
        self.is_coherent = all(g == 0.0 for g in self.gammas)
        # cache per element: node-weight pairs for fast pairings
        self._weights = tuple(
            tuple(
                (n, prob[n] * (a.pr_inc.get(n, 0.0) + a.op_inc.get(n, 0.0)))
                for n in a._stored_nodes()
            )
            for a, _ in self.elements
        )
        # the norm check's sparse path sums, made into variation densities on first use
        self._leaf_variations = variations
        self._variation_cache: tuple[StaticRV, ...] | None = None

    @property
    def _variations(self) -> tuple[StaticRV, ...]:
        if self._variation_cache is None:
            zeros = dict.fromkeys(self.tree.leaves, 0.0)
            self._variation_cache = tuple(
                StaticRV(self.tree, {**zeros, **v}) for v in self._leaf_variations
            )
            self._leaf_variations = ()  # the densities hold the same values
        return self._variation_cache

    def __len__(self) -> int:
        return len(self.elements)

    def measures(self) -> tuple[BiMeasure, ...]:
        return tuple(a for a, _ in self.elements)

    def replace_gammas(self, gammas: Sequence[float]) -> "RiskMeasureSpec":
        if len(gammas) != len(self.elements):
            raise ValidationError(f"got {len(gammas)} penalties for {len(self.elements)} elements")
        return RiskMeasureSpec(
            self.tree,
            [(a, g) for (a, _), g in zip(self.elements, gammas)],
            labels=self.labels,
        )

    def _element_pairing(self, i: int, X: AdaptedProcess) -> float:
        vals = X.values
        return fsum(w * vals[n] for n, w in self._weights[i])


@dataclass(frozen=True)
class RhoResult:
    value: float
    argmax: tuple[int, ...]
    values: tuple[float, ...]


def rho_eval(spec: RiskMeasureSpec, X: AdaptedProcess) -> RhoResult:
    """Penalized worst scenario loss, with all maximizers within an absolute 1e-12 tie band."""
    _require_same_tree(spec.tree, X.tree)
    vals = tuple(
        -spec._element_pairing(i, X) - spec.gammas[i] for i in range(len(spec.elements))
    )
    best = max(vals)
    argmax = tuple(i for i, v in enumerate(vals) if v >= best - TIE_TOL)
    return RhoResult(value=best, argmax=argmax, values=vals)


def static_rho(spec: RiskMeasureSpec, Y: StaticRV) -> float:
    """Risk of a terminal payoff: evaluate the spec on its martingale closure."""
    _require_same_tree(spec.tree, Y.tree)
    return rho_eval(spec, optional_projection_static(Y)).value


def static_rho_coherent_direct(spec: RiskMeasureSpec, Y: StaticRV) -> float:
    """Coherent shortcut: max_i E[-Var(a_i) Y], skipping the projection step."""
    _require_same_tree(spec.tree, Y.tree)
    if not spec.is_coherent:
        raise ValidationError("direct static evaluation requires a coherent spec")
    prob = spec.tree.prob
    best = -math.inf
    for var in spec._variations:
        v = -fsum(prob[leaf] * var.values[leaf] * Y.values[leaf] for leaf in spec.tree.leaves)
        if v > best:
            best = v
    return best


def conjugate_combination(spec: RiskMeasureSpec, a: BiMeasure, tol: float = 1e-9):
    """Cheapest convex combination of generating elements reproducing ``a``
    increment by increment, or None when no combination exists."""
    _require_same_tree(spec.tree, a.tree)
    if not a.is_positive:
        raise ValidationError("conjugate candidates must have nonnegative increments")
    norm = variation_norm(a, 1.0)
    if abs(norm - 1.0) > tol:
        raise ValidationError(f"conjugate candidates must have unit expected variation, got {norm!r}")
    prog = SimplexProgram(
        columns=tuple(tuple(increment_vector(m)) for m in spec.measures()),
        target=tuple(increment_vector(a)),
        costs=spec.gammas,
    )
    return min_cost_combination(prog, tol=tol)


def conjugate_value(spec: RiskMeasureSpec, a: BiMeasure, tol: float = 1e-9) -> float:
    """Minimal penalty consistent with the spec at the scenario ``a``.

    +inf marks scenarios outside the convex hull of the generating family.
    Always bounded by the stored penalty whenever ``a`` is itself a generating
    element.
    """
    sol = conjugate_combination(spec, a, tol=tol)
    if sol is None:
        return math.inf
    return sol.cost


def subgradient(spec: RiskMeasureSpec, X: AdaptedProcess) -> list[BiMeasure]:
    """Supporting linear functionals of a coherent measure at X: the negated maximizers."""
    if not spec.is_coherent:
        raise ValidationError("subgradients via maximizers are only exposed for coherent specs")
    res = rho_eval(spec, X)
    return [-spec.elements[i][0] for i in res.argmax]


@dataclass(frozen=True)
class AxiomReport:
    samples: int
    seed: int
    coherent: bool
    max_convexity_violation: float
    max_translation_violation: float
    max_monotonicity_violation: float
    max_homogeneity_violation: float | None


def axiom_report(spec: RiskMeasureSpec, sample_count: int, seed: int) -> AxiomReport:
    """Randomized check of convexity, cash translation, monotonicity and, for
    coherent specs, positive homogeneity. Reports worst observed violations."""
    if sample_count < 1:
        raise ValidationError(f"sample_count must be positive, got {sample_count}")
    rng = np.random.default_rng(seed)
    tree = spec.tree
    order = tree.order

    def draw() -> AdaptedProcess:
        vals = rng.uniform(-1.0, 1.0, size=len(order))
        return AdaptedProcess(tree, {n: float(v) for n, v in zip(order, vals)})

    conv = 0.0
    trans = 0.0
    mono = 0.0
    homog = 0.0 if spec.is_coherent else None
    for _ in range(sample_count):
        X = draw()
        Y = draw()
        lam = float(rng.uniform(0.0, 1.0))
        m = float(rng.uniform(-1.0, 1.0))
        c = float(rng.uniform(0.0, 2.0))

        rx = rho_eval(spec, X).value
        ry = rho_eval(spec, Y).value
        blend = AdaptedProcess(
            tree, {n: lam * X.values[n] + (1.0 - lam) * Y.values[n] for n in order}
        )
        conv = max(conv, rho_eval(spec, blend).value - (lam * rx + (1.0 - lam) * ry))

        trans = max(trans, abs(rho_eval(spec, X.shift(m)).value - (rx - m)))

        bump = rng.uniform(0.0, 1.0, size=len(order))
        higher = AdaptedProcess(
            tree, {n: X.values[n] + float(b) for n, b in zip(order, bump)}
        )
        mono = max(mono, rho_eval(spec, higher).value - rx)

        if homog is not None:
            homog = max(homog, abs(rho_eval(spec, X.scale(c)).value - c * rx))

    return AxiomReport(
        samples=sample_count,
        seed=seed,
        coherent=spec.is_coherent,
        max_convexity_violation=conv,
        max_translation_violation=trans,
        max_monotonicity_violation=mono,
        max_homogeneity_violation=homog,
    )
