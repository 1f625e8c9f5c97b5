"""Concrete risk measures: quantile based, tail expectations, entropic, worst case.

Sign convention throughout: payoffs are gains, risks are capital requirements,
so var_alpha(Y) = 2 means two units must be added to make Y acceptable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

from .bimeasure import BiMeasure, terminal_density_measure
from .errors import UndefinedQuantityError, ValidationError
from .process import AdaptedProcess, StaticRV
from .riskcore import RiskMeasureSpec
from .scenario import ScenarioTree


@dataclass(frozen=True)
class QuantileLevel:
    """A tail level strictly inside (0, 1)."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (0.0 < a < 1.0) or not math.isfinite(a):
            raise ValidationError(f"quantile level must lie strictly in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


def _atoms(Y: StaticRV) -> list[tuple[float, float]]:
    """Realized values with aggregated probabilities, ordered by value."""
    grouped: dict[float, list[float]] = {}
    prob = Y.tree.prob
    for leaf in Y.tree.leaves:
        grouped.setdefault(Y.values[leaf], []).append(prob[leaf])
    return [(v, fsum(ps)) for v, ps in sorted(grouped.items())]


def var_alpha(Y: StaticRV, alpha: float) -> float:
    """Value at risk: minus the smallest realized outcome whose lower tail exceeds alpha."""
    level = QuantileLevel(alpha)
    cum = 0.0
    atoms = _atoms(Y)
    probs_so_far: list[float] = []
    for v, p in atoms:
        probs_so_far.append(p)
        cum = fsum(probs_so_far)
        if cum > level.alpha:
            return 0.0 - v
    # unreachable: the full mass is 1 > alpha
    raise RuntimeError("tail scan failed to cross the level")


def es_tce(Y: StaticRV, alpha: float) -> float:
    """Conditional mean of the outcome strictly below minus the value at risk.

    Undefined when nothing lies strictly below the quantile outcome, e.g. at
    the minimum of the support.
    """
    v = var_alpha(Y, alpha)
    cutoff = -v
    tree = Y.tree
    event = [leaf for leaf in tree.leaves if Y.values[leaf] < cutoff]
    if not event:
        raise UndefinedQuantityError(
            f"tail expectation undefined: no outcome lies strictly below {cutoff!r}"
        )
    prob = tree.prob
    mass = fsum(prob[leaf] for leaf in event)
    return fsum(prob[leaf] * Y.values[leaf] for leaf in event) / mass


def avar(Y: StaticRV, alpha: float) -> float:
    """Average value at risk by the scan form min_t { t + E[(-Y - t)^+] / alpha }.

    The objective is piecewise linear in t with kinks at realized losses, so
    scanning those suffices.
    """
    level = QuantileLevel(alpha)
    inv = 1.0 / level.alpha
    tree = Y.tree
    prob = tree.prob
    losses = {leaf: -Y.values[leaf] for leaf in tree.leaves}
    candidates = sorted(set(losses.values()))
    best = math.inf
    for t in candidates:
        tail = fsum(
            prob[leaf] * (losses[leaf] - t) for leaf in tree.leaves if losses[leaf] > t
        )
        g = t + inv * tail
        if g < best:
            best = g
    return best


def avar_max_density(Y: StaticRV, alpha: float) -> StaticRV:
    """The density attaining avar in its dual form max { E[-fY] : 0 <= f <= 1/alpha, E[f] = 1 }.

    Saturates the worst outcomes first; ties resolve in canonical leaf order.
    """
    level = QuantileLevel(alpha)
    inv = 1.0 / level.alpha
    tree = Y.tree
    prob = tree.prob
    ranked = sorted(tree.leaves, key=lambda leaf: (Y.values[leaf], leaf))
    f = {leaf: 0.0 for leaf in tree.leaves}
    used = 0.0
    for leaf in ranked:
        p = prob[leaf]
        if used + p * inv <= 1.0:
            f[leaf] = inv
            used += p * inv
        else:
            f[leaf] = (1.0 - used) / p
            used = 1.0
            break
    return StaticRV(tree, f)


def _density_vertices(probs: list[float], alpha: float) -> list[list[float]]:
    """Vertices of { 0 <= f <= 1/alpha, sum p_i f_i = 1 } on an atomic space.

    At a vertex at most one coordinate sits strictly between its bounds, so
    vertices are saturated index sets plus at most one fractional atom.
    """
    n = len(probs)
    inv = 1.0 / alpha
    tol = 1e-12
    out: list[list[float]] = []

    def rec(start: int, chosen: list[int], mass: float) -> None:
        if abs(mass - alpha) <= tol:
            f = [0.0] * n
            for i in chosen:
                f[i] = inv
            out.append(f)
            return
        in_chosen = set(chosen)
        for j in range(n):
            if j in in_chosen:
                continue
            if mass + probs[j] > alpha + tol:
                f = [0.0] * n
                for i in chosen:
                    f[i] = inv
                f[j] = (1.0 - mass * inv) / probs[j]
                out.append(f)
        for nxt in range(start, n):
            if mass + probs[nxt] <= alpha + tol:
                rec(nxt + 1, chosen + [nxt], mass + probs[nxt])

    rec(0, [], 0.0)
    return out


def avar_spec(tree: ScenarioTree, alpha: float, max_leaves: int = 20) -> RiskMeasureSpec:
    """Coherent generating family for avar: all extreme densities of the dual set.

    Vertex enumeration is exponential in the leaf count and refuses trees
    beyond ``max_leaves``; past the cap use :func:`avar` or
    :func:`avar_max_density` directly.
    """
    level = QuantileLevel(alpha)
    if len(tree.leaves) > max_leaves:
        raise ValidationError(
            f"vertex enumeration capped at {max_leaves} leaves, tree has {len(tree.leaves)}"
        )
    probs = [tree.prob[leaf] for leaf in tree.leaves]
    vertices = _density_vertices(probs, level.alpha)
    elements = []
    labels = []
    for i, f in enumerate(vertices):
        rv = StaticRV(tree, {leaf: f[j] for j, leaf in enumerate(tree.leaves)})
        elements.append((terminal_density_measure(rv), 0.0))
        labels.append(f"v{i}")
    return RiskMeasureSpec(tree, elements, labels=labels)


def worst_case_spec(tree: ScenarioTree) -> RiskMeasureSpec:
    """One renormalized point mass per leaf; the risk is the worst terminal loss."""
    elements = []
    labels = []
    for leaf in tree.leaves:
        a = BiMeasure(tree, {}, {leaf: 1.0 / tree.prob[leaf]})
        elements.append((a, 0.0))
        labels.append(f"leaf:{leaf}")
    return RiskMeasureSpec(tree, elements, labels=labels)


def entropic(Y: StaticRV, beta: float) -> float:
    """Exponential risk (1/beta) log E[exp(-beta Y)], evaluated with a max shift."""
    beta = float(beta)
    if not beta > 0.0 or not math.isfinite(beta):
        raise ValidationError(f"entropic parameter must be positive, got {beta!r}")
    tree = Y.tree
    prob = tree.prob
    shift = max(-beta * Y.values[leaf] for leaf in tree.leaves)
    total = fsum(
        prob[leaf] * math.exp(-beta * Y.values[leaf] - shift) for leaf in tree.leaves
    )
    return (shift + math.log(total)) / beta


@dataclass(frozen=True)
class StoppedWorstCase:
    value: float
    tau: dict[str, int]


def stopped_worst_case(tree: ScenarioTree, X: AdaptedProcess) -> StoppedWorstCase:
    """Best adversarial stopping of -X by backward induction.

    Value recursion: V_K = -X_K and V_k = max(-X_k, E[V_{k+1} | depth-k node]).
    Ties stop, so the reported rule is the earliest optimal stopping time.
    """
    if X.tree is not tree:
        raise ValidationError("tree mismatch: process was built on a different scenario tree")
    V: dict[str, float] = {}
    stop: dict[str, bool] = {}
    for nid in reversed(tree.order):  # children before their parents
        kids = tree.children(nid)
        here = -X.values[nid]
        cont = fsum(tree.nodes[c].branch_prob * V[c] for c in kids)
        stop[nid] = not kids or here >= cont
        V[nid] = here if stop[nid] else cont
    first: dict[str, int | None] = {}  # the depth of the first stop on the way down
    for nid in tree.order:
        node = tree.nodes[nid]
        above = None if node.parent is None else first[node.parent]
        first[nid] = above if above is not None else (node.depth if stop[nid] else None)
    tau = {leaf: first[leaf] for leaf in tree.leaves}
    return StoppedWorstCase(value=V[tree.root], tau=tau)
