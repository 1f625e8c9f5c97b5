"""Risk measures given by finite generating families of scenarios and penalties.

A measure spec holds generating elements (a_i, gamma_i) with each a_i a
nonnegative bi-measure of unit expected variation. The risk of a process is
the largest penalized loss functional

    rho(X) = max_i ( -<X, a_i> - gamma_i ),

coherent exactly when every penalty vanishes. Specs are normalized so the
smallest penalty is zero, which pins rho(0) = 0.
"""

from __future__ import annotations

import copy
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import fsum
from typing import Iterable, Sequence

import numpy as np

from .bimeasure import BiMeasure, increment_vector, variation_norm
from .convexgeom import SimplexProgram, min_cost_combination
from .errors import ValidationError
from .process import AdaptedProcess, StaticRV, _new, _require_same_tree, optional_projection_static
from .scenario import _UNIT_ROUNDOFF, SUM_TOL, ScenarioTree, _named_fsums

TIE_TOL = 1e-12
_LOSS_FAULT = "non-finite loss at element '{}'"  # an element's fsum that overflows

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


class RiskMeasureSpec:
    """Validated generating family for one convex (possibly coherent) risk measure.

    The family is stored as one sparse node array set, element after element:
    ``_node`` holds canonical node indices, ``_pr`` and ``_op`` the
    predictable and optional increments there (either may be 0.0 where the
    other is not) and ``_weight`` P(n) (pr(n) + op(n)); element i owns the
    entries in ``_bounds[i]`` = (lo, hi). ``_pr`` and ``_op`` stay apart
    because a path variation adds them as separate terms, and fsum([p, o])
    can differ from fsum([p + o]).
    Each element's entries are its :class:`BiMeasure`'s ``node``, ``pr`` and
    ``op`` arrays: ascending canonical nodes, none with both fields zero.
    Building the arrays is O(nnz). A spec built from arrays (as
    ``fileio.load_spec``, ``worst_case_spec`` and ``avar_spec`` do) makes the
    elements' :class:`BiMeasure` objects, over views of its arrays, only when
    ``measures()`` or ``elements`` is first read.

    Each element must have unit expected variation within ``norm_tol``. For
    a nonnegative element that variation is the sum of its weights in exact
    arithmetic, so the build decides from the fsum of the weights whenever a
    rounding bound (derived above ``_unit_norm_certified``) puts the verdict
    beyond doubt. Otherwise it computes ``variation_norm(a, 1.0)`` exactly
    and applies the test to that value, so the verdict and a rejection's
    message are those of the exact check. The per-leaf variations behind
    :func:`static_rho_coherent_direct` come from one pass of the tree's
    ``path_sums`` kernel over the arrays, on first use.
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
        measures = tuple(a for a, _ in elems)
        gammas = [g for _, g in elems]
        # an element's tree fault comes after the checks of the elements before it
        bad = next((i for i, a in enumerate(measures) if a.tree is not tree), len(elems))
        offsets = [0, *accumulate(len(a.node) for a in measures[:bad])]
        empty = (np.empty(0, np.intp), np.empty(0), np.empty(0))
        node, pr, op = map(np.concatenate, zip(empty, *((a.node, a.pr, a.op) for a in measures[:bad])))
        self._load(tree, node, pr, op, tuple(zip(offsets, offsets[1:])), gammas[:bad], norm_tol)
        if bad < len(elems):
            _require_same_tree(tree, measures[bad].tree)
        self._measures = measures
        self._set_penalties(gammas, labels)

    @classmethod
    def _from_arrays(
        cls,
        tree: ScenarioTree,
        node: np.ndarray,
        pr: np.ndarray,
        op: np.ndarray,
        bounds: tuple[tuple[int, int], ...],
        gammas: Sequence[float],
        labels: Sequence[str],
        norm_tol: float = 1e-9,
    ) -> "RiskMeasureSpec":
        """A spec over arrays laid out as the class docstring says, with finite increments
        and ``pr`` zero at depth K. Signs, norms and penalties are checked here."""
        spec = cls.__new__(cls)
        spec._load(tree, node, pr, op, bounds, gammas, norm_tol)
        spec._set_penalties(gammas, labels)
        return spec

    def _load(self, tree, node, pr, op, bounds, gammas, norm_tol) -> None:
        """Take the arrays as the family; check each element's signs, its unit variation,
        then its penalty, element after element."""
        with np.errstate(over="ignore"):  # overflow gives inf, as Python floats do
            weight = tree.node_prob[node]
            weight *= pr + op
        self.tree = tree
        self.norm_tol = norm_tol
        self._bounds = bounds
        self._starts = np.array([lo for lo, _ in bounds], np.intp)  # the bounds tile the arrays
        self._node = node
        self._pr = pr
        self._op = op
        self._weight = weight
        terms = memoryview(weight)
        normal = weight.min(initial=1.0) * tree.leaf_prob.min() >= _NORMAL_FLOOR
        negative = np.flatnonzero(np.minimum(pr, op) < 0.0)
        signed = bisect_right(self._starts, negative[0]) - 1 if len(negative) else len(bounds)
        for i, ((lo, hi), g) in enumerate(zip(bounds, gammas)):
            if i == signed:
                raise ValidationError(f"generating element {i} has negative increments")
            if not (normal and _unit_norm_certified(terms[lo:hi], tree.K, norm_tol)):
                norm = variation_norm(self._measure(i), 1.0)
                if abs(norm - 1.0) > norm_tol:
                    raise ValidationError(
                        f"generating element {i} must have unit expected variation, got {norm!r}"
                    )
            if not math.isfinite(g):
                raise ValidationError(f"penalty of element {i} must be finite, got {g!r}")

    def _set_penalties(self, gammas: Sequence[float], labels: Sequence[str] | None) -> None:
        shift = min(gammas)
        if labels is None:
            labels = tuple(f"e{i}" for i in range(len(gammas)))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(gammas):
                raise ValidationError(f"got {len(labels)} labels for {len(gammas)} elements")
        self.labels = labels
        self.gamma_shift = shift
        self.gammas = tuple(g - shift for g in gammas)
        self.is_coherent = all(g == 0.0 for g in self.gammas)

    def _measure(self, i: int) -> BiMeasure:
        lo, hi = self._bounds[i]
        return _new(BiMeasure, self.tree, self._node[lo:hi], self._pr[lo:hi], self._op[lo:hi])

    @functools.cached_property
    def _measures(self) -> tuple[BiMeasure, ...]:
        return tuple(map(self._measure, range(len(self._bounds))))

    @functools.cached_property
    def _variations(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per element, (positions in ``tree.leaves`` of the covered leaves, variation at each)."""
        terms = np.column_stack((self._pr, self._op))  # pr(n) and op(n) as separate terms
        return tuple(self.tree.path_sums(self._node, terms, self._bounds))

    @property
    def elements(self) -> tuple[tuple[BiMeasure, float], ...]:
        return tuple(zip(self._measures, self.gammas))

    def __len__(self) -> int:
        return len(self._bounds)

    def measures(self) -> tuple[BiMeasure, ...]:
        return self._measures

    def replace_gammas(self, gammas: Sequence[float]) -> "RiskMeasureSpec":
        """The same family with new penalties; the validated arrays are shared."""
        if len(gammas) != len(self):
            raise ValidationError(f"got {len(gammas)} penalties for {len(self)} elements")
        gammas = [float(g) for g in gammas]
        for i, g in enumerate(gammas):
            if not math.isfinite(g):
                raise ValidationError(f"penalty of element {i} must be finite, got {g!r}")
        spec = copy.copy(self)
        spec._set_penalties(gammas, self.labels)
        return spec

    def _penalized_losses(self, x: np.ndarray) -> tuple[float, ...]:
        """-<X, a_i> - gamma_i for every element, X given as a canonical node vector."""
        with np.errstate(all="ignore"):
            terms = self._weight * x[self._node]
        sums = _named_fsums(terms, self._starts, _LOSS_FAULT, self.labels)
        return tuple(-s - g for s, g in zip(sums, self.gammas))

    def _pairings(self, i: int, xs: np.ndarray) -> list[float]:
        """<X, a_i> for each row X of ``xs``, term for term as :func:`pairing` forms it."""
        lo, hi = self._bounds[i]
        node = self._node[lo:hi]
        with np.errstate(all="ignore"):
            terms = self.tree.node_prob[node] * xs[:, node] * (self._pr[lo:hi] + self._op[lo:hi])
        return _named_fsums(terms.T, None, "non-finite charge at position {}", range(len(xs)))


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

    One gather of X's node vector against the spec's weight array and one
    ``segment_fsums`` call for the elements' fsums: O(nnz).
    """
    _require_same_tree(spec.tree, X.tree)
    return _rho_result(spec, X.vector)


def static_rho(spec: RiskMeasureSpec, Y: StaticRV) -> float:
    """Risk of a terminal payoff: evaluate the spec on its martingale closure."""
    _require_same_tree(spec.tree, Y.tree)
    return rho_eval(spec, optional_projection_static(Y)).value


def static_rho_coherent_direct(spec: RiskMeasureSpec, Y: StaticRV) -> float:
    """Coherent shortcut: max_i E[-Var(a_i) Y], skipping the projection step.

    One fsum per element of P(l) Var(a_i)(l) Y(l) over the leaves its nodes
    cover. The first call per spec costs O(nnz), plus per element the DFS
    leaf range from its first to its last covered leaf and O(K) per covered
    leaf; later calls cost O(sum of covered leaves).
    """
    _require_same_tree(spec.tree, Y.tree)
    if not spec.is_coherent:
        raise ValidationError("direct static evaluation requires a coherent spec")
    best = -math.inf
    for label, (leaves, var) in zip(spec.labels, spec._variations):
        with np.errstate(all="ignore"):
            terms = spec.tree.leaf_prob[leaves] * var * Y.vector[leaves]
        v = -_named_fsums(terms, (0,), _LOSS_FAULT, (label,))[0]
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
    return [-spec.measures()[i] for i in res.argmax]


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
    n = len(tree.order)

    def draw() -> AdaptedProcess:
        return _new(AdaptedProcess, tree, rng.uniform(-1.0, 1.0, size=n))

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
        blend = _new(AdaptedProcess, tree, lam * X.vector + (1.0 - lam) * Y.vector)
        conv = max(conv, rho_eval(spec, blend).value - (lam * rx + (1.0 - lam) * ry))

        trans = max(trans, abs(rho_eval(spec, X.shift(m)).value - (rx - m)))

        higher = _new(AdaptedProcess, tree, X.vector + rng.uniform(0.0, 1.0, size=n))
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
