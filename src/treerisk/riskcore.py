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
from dataclasses import dataclass
from itertools import accumulate
from math import fsum
from typing import Iterable, Sequence

import numpy as np

from .bimeasure import BiMeasure, _stored, increment_vector, variation_norm
from .convexgeom import SimplexProgram, min_cost_combination
from .errors import ValidationError
from .process import AdaptedProcess, StaticRV, _new, _require_same_tree, optional_projection_static
from .scenario import _UNIT_ROUNDOFF, SUM_TOL, ScenarioTree, segment_fsums

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
    Each element's nodes come in input order (its predictable nodes, then the
    optional-only ones), not sorted; every reduction over them is an fsum or a
    ``segment_fsums`` (fsum's value bit for bit), neither of which depends on
    the order of its terms. Building the arrays is O(nnz). A spec built from
    arrays (as ``fileio.load_spec``, ``worst_case_spec`` and ``avar_spec`` do)
    makes the elements' :class:`BiMeasure` objects only when ``measures()`` or
    ``elements`` is first read.

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
        # A sequential check meets an element's tree or sign fault only after
        # the norm and penalty checks of the elements before it.
        bad = next(
            (i for i, (a, _) in enumerate(elems) if a.tree is not tree or not a.is_positive),
            len(elems),
        )
        stored = [_stored(a) for a, _ in elems[:bad]]
        offsets = [0, *accumulate(len(index) for index, _ in stored)]
        node = np.concatenate([index for index, _ in stored] + [np.empty(0, np.intp)])
        pr, op = np.concatenate([incs for _, incs in stored] + [np.empty((0, 2))]).T
        del stored
        measures = tuple(a for a, _ in elems)
        bounds = tuple(zip(offsets, offsets[1:]))
        gammas = [g for _, g in elems]
        self._load(tree, node, pr, op, bounds, gammas[:bad], norm_tol, measures.__getitem__)
        if bad < len(elems):
            _require_same_tree(tree, elems[bad][0].tree)
            raise ValidationError(f"generating element {bad} has negative increments")
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
        """A spec over arrays laid out as the class docstring says, already checked:
        canonical indices distinct within each element, finite nonnegative
        increments, ``pr`` zero at depth K. Norms and penalties are checked here."""
        spec = cls.__new__(cls)
        spec._load(tree, node, pr, op, bounds, gammas, norm_tol, spec._build_measure)
        spec._set_penalties(gammas, labels)
        return spec

    def _load(self, tree, node, pr, op, bounds, gammas, norm_tol, measure) -> None:
        """Take the arrays as the family; check each element's unit variation, then its
        penalty, element after element. ``measure(i)`` gives element i for the exact check."""
        prob = tree.node_prob
        with np.errstate(over="ignore"):  # overflow gives inf, as Python floats do
            weight = prob[node]
            weight *= pr + op
        self.tree = tree
        self.norm_tol = norm_tol
        self._bounds = bounds
        self._starts = tuple(lo for lo, _ in bounds)  # the bounds tile the arrays
        self._prob = prob
        self._node = node
        self._pr = pr
        self._op = op
        self._weight = weight
        terms = memoryview(weight)
        normal = weight.min(initial=1.0) * tree.leaf_prob.min() >= _NORMAL_FLOOR
        for i, ((lo, hi), g) in enumerate(zip(bounds, gammas)):
            if not (normal and _unit_norm_certified(terms[lo:hi], tree.K, norm_tol)):
                norm = variation_norm(measure(i), 1.0)
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

    def _build_measure(self, i: int) -> BiMeasure:
        lo, hi = self._bounds[i]
        ids = [self.tree.order[n] for n in self._node[lo:hi].tolist()]
        pr = {n: v for n, v in zip(ids, self._pr[lo:hi].tolist()) if v}
        op = {n: v for n, v in zip(ids, self._op[lo:hi].tolist()) if v}
        return BiMeasure(self.tree, pr, op)

    @functools.cached_property
    def _measures(self) -> tuple[BiMeasure, ...]:
        return tuple(map(self._build_measure, range(len(self._bounds))))

    @functools.cached_property
    def _variations(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per element, (DFS positions of the covered leaves, variation at each)."""
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
        return tuple(-s - g for s, g in zip(segment_fsums(terms, self._starts), self.gammas))

    def _pairings(self, i: int, xs: np.ndarray) -> list[float]:
        """<X, a_i> for each row X of ``xs``, term for term as :func:`pairing` forms it."""
        lo, hi = self._bounds[i]
        node = self._node[lo:hi]
        with np.errstate(all="ignore"):
            terms = self._prob[node] * xs[:, node] * (self._pr[lo:hi] + self._op[lo:hi])
        return segment_fsums(terms.T)


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
    tree = spec.tree
    dfs = tree.leaf_paths()[:, -1]
    leaf_prob = spec._prob[dfs]
    y = Y.vector[dfs - tree.first_leaf]
    best = -math.inf
    for leaves, var in spec._variations:
        with np.errstate(all="ignore"):
            terms = memoryview(leaf_prob[leaves] * var * y[leaves])  # yields Python floats
        v = -fsum(terms)
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
