"""Risk measures given by finite generating families of scenarios and penalties.

A measure spec holds generating elements (a_i, gamma_i) with each a_i a
nonnegative bi-measure of unit expected variation. The risk of a process is
the largest penalized loss functional

    rho(X) = max_i ( -<X, a_i> - gamma_i ),

coherent exactly when every penalty vanishes. Specs are normalized so the
smallest penalty is zero, which pins rho(0) = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import fsum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bimeasure import BiMeasure, increment_vector, variation, variation_norm
from .convexgeom import SimplexProgram, min_cost_combination
from .errors import ValidationError
from .process import AdaptedProcess, StaticRV, optional_projection_static, _require_same_tree
from .scenario import SUM_TOL, ScenarioTree

TIE_TOL = 1e-12

# Certified unit-variation check. For a nonnegative element with c = pr + op,
# exactly E[Var(a)] = sum_l P(l) sum_{n on path(l)} c(n) = sum_n c(n) M(n),
# M(n) the mass of the leaves under n, and the estimate est = fsum_n
# fl(P(n) fl(c(n))) takes M(n) = P(n). variation_norm(a, 1.0) computes
# V = fsum_l fl(P(l) fsum(path terms)). With u = 2**-53, every product normal:
#  - est and V each carry three roundings (the sum c or the path fsum, the
#    product, the outer fsum): each lies within (1 + u)**3 - 1 of its exact
#    form, sum_n P(n) c(n) and sum_n c(n) M(n) respectively;
#  - P(child) = fl(P(n) b(child)), and the children's branch probabilities sum
#    to 1 within SUM_TOL + u (the tree checks their correctly rounded fsum),
#    so each of the at most K levels below n scales M(n) / P(n) by a factor
#    within x = SUM_TOL + 3u of 1, and |M(n) - P(n)| <= ((1 + x)**K - 1) P(n)
#    <= 1.72 K x P(n) while K x <= 1 (any K below 1e11).
# Summed, |V - est| <= 1.75 (K SUM_TOL + (3K + 6) u) est. The bound below
# doubles the first-order factor, which leaves room for the roundings of the
# acceptance test itself once 4 u norm_tol is added, so |est - 1| <= norm_tol
# - B implies |V - 1| <= norm_tol, and the exact check would accept too.
# Products stay normal when the family's smallest weight (capped at 1) times
# the smallest leaf probability is at least 2**-1000: every P(n), weight, c(n)
# and leaf term P(l) S(l) is then at least 2**-1001. est < 2 keeps each c(n)
# below 2**1002 and the path sums finite (K < 2**20).
_UNIT_ROUNDOFF = 2.0**-53
_NORMAL_FLOOR = 2.0**-1000


def _unit_norm_certified(weights: Iterable[float], K: int, norm_tol: float) -> bool:
    """True when fsum(weights) shows |E[Var(a)] - 1| <= norm_tol, products all normal."""
    try:
        est = fsum(weights)
    except OverflowError:
        return False
    u = _UNIT_ROUNDOFF
    bound = 2 * (K * (SUM_TOL + u) + (2 * K + 6) * u) * est + 4 * u * norm_tol
    return est < 2.0 and abs(est - 1.0) <= norm_tol - bound


def _node_vector(tree: ScenarioTree, values: Mapping[str, float]) -> np.ndarray:
    """Node values as an array in the tree's canonical order."""
    return np.fromiter(map(values.__getitem__, tree.order), float, len(tree.order))


def _gather(fields: list[Mapping[str, float]], nodes: list[Iterable[str]], size: int) -> np.ndarray:
    """Element after element, each field's value at each of its nodes (0.0 where absent)."""
    gets = (map(f.get, ns, repeat(0.0)) for f, ns in zip(fields, nodes))
    return np.fromiter(chain.from_iterable(gets), float, size)


class RiskMeasureSpec:
    """Validated generating family for one convex (possibly coherent) risk measure.

    The family is stored as one sparse node-weight array set, element after
    element: ``_node`` holds canonical node indices, ``_inc`` the combined
    increment pr(n) + op(n) and ``_weight`` P(n) (pr(n) + op(n)) at each
    stored node of each element, and element i owns the entries in
    ``_bounds[i]`` = (lo, hi). Each element's nodes come in dict order, not
    sorted; every reduction over them is an fsum, whose value does not
    depend on the order of its terms. Building the arrays is O(nnz).

    Each element must have unit expected variation within ``norm_tol``. For
    a nonnegative element that variation is the sum of its weights in exact
    arithmetic, so the build decides from the fsum of the weights whenever a
    rounding bound (derived above ``_unit_norm_certified``) puts the verdict
    beyond doubt. Otherwise it computes ``variation_norm(a, 1.0)`` exactly
    and applies the test to that value, so the verdict and a rejection's
    message are those of the exact check. The per-leaf variation densities
    behind :func:`static_rho_coherent_direct` are built on first use.
    """

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
        # A sequential check meets an element's tree or sign fault only after
        # the norm and penalty checks of the elements before it.
        bad = next(
            (i for i, (a, _) in enumerate(elems) if a.tree is not tree or not a.is_positive),
            len(elems),
        )
        good = [a for a, _ in elems[:bad]]
        stored = [{**a.pr_inc, **a.op_inc} for a in good]  # each element's nodes, once each
        offsets = [0, *accumulate(map(len, stored))]
        size = offsets[-1]
        prob = _node_vector(tree, tree.prob)
        node = np.fromiter(map(tree.index.__getitem__, chain.from_iterable(stored)), np.intp, size)
        inc = _gather([a.pr_inc for a in good], stored, size)
        with np.errstate(over="ignore"):  # overflow gives inf, as Python floats do
            inc += _gather([a.op_inc for a in good], stored, size)
            del stored
            weight = prob[node]
            weight *= inc
        bounds = tuple(zip(offsets, offsets[1:]))
        terms = memoryview(weight)
        min_leaf_prob = min(map(tree.prob.__getitem__, tree.leaves))
        normal = weight.min(initial=1.0) * min_leaf_prob >= _NORMAL_FLOOR
        for i, ((a, g), (lo, hi)) in enumerate(zip(elems, bounds)):
            if not (normal and _unit_norm_certified(terms[lo:hi], tree.K, norm_tol)):
                norm = variation_norm(a, 1.0)
                if abs(norm - 1.0) > norm_tol:
                    raise ValidationError(
                        f"generating element {i} must have unit expected variation, got {norm!r}"
                    )
            if not math.isfinite(g):
                raise ValidationError(f"penalty of element {i} must be finite, got {g!r}")
        if bad < len(elems):
            _require_same_tree(tree, elems[bad][0].tree)
            raise ValidationError(f"generating element {bad} has negative increments")

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
        self._bounds = bounds
        self._prob = prob
        self._node = node
        self._inc = inc
        self._weight = weight

    @functools.cached_property
    def _variations(self) -> tuple[StaticRV, ...]:
        return tuple(variation(a) for a in self.measures())

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

    def _penalized_losses(self, x: np.ndarray) -> tuple[float, ...]:
        """-<X, a_i> - gamma_i for every element, X given as a canonical node vector."""
        with np.errstate(all="ignore"):
            terms = memoryview(self._weight * x[self._node])  # yields Python floats
        return tuple(-fsum(terms[lo:hi]) - g for (lo, hi), g in zip(self._bounds, self.gammas))

    def _pairings(self, i: int, xs: np.ndarray) -> list[float]:
        """<X, a_i> for each row X of ``xs``, term for term as :func:`pairing` forms it."""
        lo, hi = self._bounds[i]
        node = self._node[lo:hi]
        with np.errstate(all="ignore"):
            terms = self._prob[node] * xs[:, node] * self._inc[lo:hi]
        return [fsum(row) for row in terms.tolist()]


@dataclass(frozen=True)
class RhoResult:
    value: float
    argmax: tuple[int, ...]
    values: tuple[float, ...]


def _rho_result(spec: RiskMeasureSpec, x: np.ndarray) -> RhoResult:
    vals = spec._penalized_losses(x)
    best = max(vals)
    argmax = tuple(i for i, v in enumerate(vals) if v >= best - TIE_TOL)
    return RhoResult(value=best, argmax=argmax, values=vals)


def rho_eval(spec: RiskMeasureSpec, X: AdaptedProcess) -> RhoResult:
    """Penalized worst scenario loss, with all maximizers within an absolute 1e-12 tie band.

    One gather of X's node values against the spec's weight array and one
    fsum per element: O(nnz).
    """
    _require_same_tree(spec.tree, X.tree)
    return _rho_result(spec, _node_vector(spec.tree, X.values))


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
