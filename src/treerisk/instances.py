"""Concrete risk measures: quantile based, tail expectations, entropic, worst case.

Sign convention throughout: payoffs are gains, risks are capital requirements,
so var_alpha(Y) = 2 means two units must be added to make Y acceptable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from math import fsum
from operator import mul, ne, sub
from typing import NamedTuple

import numpy as np

from .errors import UndefinedQuantityError, ValidationError
from .process import AdaptedProcess, StaticRV, _new, _paths
from .riskcore import _UNIT_ROUNDOFF, RiskMeasureSpec
from .scenario import ScenarioTree

AVAR_SPEC_MAX_LEAVES = 20  # avar_spec's vertex enumeration is exponential in the leaves


@dataclass(frozen=True)
class QuantileLevel:
    """A tail level strictly inside (0, 1)."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (0.0 < a < 1.0) or not math.isfinite(a):
            raise ValidationError(f"quantile level must lie strictly in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


class _Ladder(NamedTuple):
    """A payoff's leaves sorted by outcome, grouped into atoms of equal outcome.

    Atom i holds the leaf slots starts[i]:starts[i + 1] of the flat
    outcomes/probs lists; its mass is the fsum of their probabilities.
    """

    values: list[float]
    masses: list[float]
    starts: list[int]
    outcomes: tuple[float, ...]
    probs: tuple[float, ...]


def _ladder(Y: StaticRV) -> _Ladder:
    rank = np.argsort(Y.vector, kind="stable")
    outcomes, probs = tuple(Y.vector[rank].tolist()), tuple(Y.tree.leaf_prob[rank].tolist())
    starts = [0, *compress(range(1, len(outcomes)), map(ne, outcomes[1:], outcomes))]
    ends = [*starts[1:], len(outcomes)]
    return _Ladder(
        values=[outcomes[s] for s in starts],
        masses=[fsum(probs[s:e]) for s, e in zip(starts, ends)],
        starts=starts,
        outcomes=outcomes,
        probs=probs,
    )


def _crossing(ladder: _Ladder, alpha: float) -> int:
    """The first atom i with fsum(masses[: i + 1]) > alpha (len(masses) if none), by bisection.

    The exactly rounded prefix sums never decrease, so the predicate is
    monotone in the prefix length; a float running sum could round across
    the level.
    """
    masses = ladder.masses
    return bisect_right(range(len(masses)), alpha, key=lambda i: fsum(masses[: i + 1]))


def _quantile_atom(Y: StaticRV, alpha: float) -> tuple[_Ladder, int]:
    """The ladder of Y and its value-at-risk atom at level alpha."""
    level = QuantileLevel(alpha)
    ladder = _ladder(Y)
    i = _crossing(ladder, level.alpha)
    if i == len(ladder.values):  # the mass check lets the leaves add up to alpha or less
        raise UndefinedQuantityError(
            f"quantile undefined: the leaf probabilities add up to {fsum(ladder.masses)!r}, "
            f"not above alpha = {level.alpha!r}"
        )
    return ladder, i


def var_alpha(Y: StaticRV, alpha: float) -> float:
    """Value at risk: minus the smallest realized outcome whose lower tail exceeds alpha."""
    ladder, i = _quantile_atom(Y, alpha)
    return 0.0 - ladder.values[i]


def es_tce(Y: StaticRV, alpha: float) -> float:
    """Conditional mean of the outcome strictly below minus the value at risk.

    Undefined when nothing lies strictly below the quantile outcome, e.g. at
    the minimum of the support.
    """
    ladder, i = _quantile_atom(Y, alpha)
    s = ladder.starts[i]
    if not s:
        cutoff = -(0.0 - ladder.values[i])  # minus the value at risk
        raise UndefinedQuantityError(
            f"tail expectation undefined: no outcome lies strictly below {cutoff!r}"
        )
    probs = ladder.probs[:s]
    return fsum(map(mul, probs, ladder.outcomes[:s])) / fsum(probs)


def avar(Y: StaticRV, alpha: float) -> float:
    """Average value at risk by the scan form min_t { t + E[(-Y - t)^+] / alpha }.

    The objective g is convex and piecewise linear in t with kinks at the
    realized losses. Its slope right of a loss t is 1 - P(-Y > t) / alpha, so
    it changes sign at the loss of the value at risk, the first loss whose
    upper tail mass is at most alpha. g is evaluated there, then at
    successive losses on each side until one exceeds the smallest value
    found by twice the rounding bound of g; by convexity every loss further
    out gives a larger value still. Each evaluation is one fsum over the
    leaves strictly beyond t. The search usually stops at the two
    neighbours; it goes further only where g is flat to within rounding.
    The result is the smallest computed g over all realized losses, bit for
    bit, at O(L log L) for the sort and the bisection plus O(L) per
    evaluated loss, against O(L^2) for evaluating every loss.
    """
    level = QuantileLevel(alpha)
    inv = 1.0 / level.alpha
    values, _, starts, outcomes, probs = ladder = _ladder(Y)

    def g(i: int) -> float:
        # loss - t for a leaf strictly beyond t = -values[i] rounds as values[i] - outcome
        w, s = values[i], starts[i]
        return -w + inv * fsum(map(mul, probs[:s], map(sub, repeat(w, s), outcomes[:s])))

    # With M = max |outcome| >= |t| and u = 2**-53, a computed g is within about
    # 13 u M (1 + inv sum p) of its exact value, plus inv u_min per underflowed
    # product; err adds room for the rounding of the stopping test.
    err = 16 * 2.0**-53 * max(-values[0], values[-1]) * (1.0 + inv * fsum(probs))
    err += inv * len(probs) * math.ulp(0.0)
    c = min(_crossing(ladder, level.alpha), len(values) - 1)  # the last atom if none crosses
    best = at_c = g(c)
    for step in (-1, 1):
        i, edge = c, at_c
        while 0 <= i + step < len(values) and not edge > best + 2 * err:
            i += step
            edge = g(i)
            best = min(best, edge)
    return best


def avar_max_density(Y: StaticRV, alpha: float) -> StaticRV:
    """The density attaining avar in its dual form max { E[-fY] : 0 <= f <= 1/alpha, E[f] = 1 }.

    Saturates the worst outcomes first; ties resolve in canonical leaf order.
    """
    level = QuantileLevel(alpha)
    inv = 1.0 / level.alpha
    tree = Y.tree
    prob = tree.leaf_prob.tolist()
    f = np.zeros(len(prob))
    used = 0.0
    for i in np.argsort(Y.vector, kind="stable").tolist():  # ties in canonical leaf order
        p = prob[i]
        if used + p * inv <= 1.0:
            f[i] = inv
            used += p * inv
        else:
            f[i] = (1.0 - used) / p
            used = 1.0
            break
    return _new(StaticRV, tree, f)


def _mass_tol(count: int, mass: float, alpha: float) -> float:
    """Rounding bound for a float sum of ``count`` probabilities compared with alpha.

    The running sum is off the exact one by at most (count - 1) u mass to
    first order; allocation._sum_tol's form 2 (count + 8) u (sum|terms| + |result|)
    covers it with room, and shrinks with alpha where an absolute bound would not.
    """
    return 2 * (count + 8) * _UNIT_ROUNDOFF * (mass + alpha)


def _density_vertices(probs: list[float], alpha: float) -> list[list[float]]:
    """Vertices of { 0 <= f <= 1/alpha, sum p_i f_i = 1 } on an atomic space.

    At a vertex at most one coordinate sits strictly between its bounds, so
    vertices are saturated index sets plus at most one fractional atom.
    """
    n = len(probs)
    inv = 1.0 / alpha
    out: list[list[float]] = []

    def rec(start: int, chosen: list[int], mass: float) -> None:
        if abs(mass - alpha) <= _mass_tol(len(chosen), mass, alpha):
            f = [0.0] * n
            for i in chosen:
                f[i] = inv
            out.append(f)
            return
        in_chosen = set(chosen)
        for j in range(n):
            if j in in_chosen:
                continue
            grown = mass + probs[j]
            if grown > alpha + _mass_tol(len(chosen) + 1, grown, alpha):
                f = [0.0] * n
                for i in chosen:
                    f[i] = inv
                f[j] = (1.0 - mass * inv) / probs[j]
                out.append(f)
        for nxt in range(start, n):
            grown = mass + probs[nxt]
            if grown <= alpha + _mass_tol(len(chosen) + 1, grown, alpha):
                rec(nxt + 1, chosen + [nxt], grown)

    rec(0, [], 0.0)
    return out


def avar_spec(tree: ScenarioTree, alpha: float) -> RiskMeasureSpec:
    """Coherent generating family for avar: all extreme densities of the dual set.

    Vertex enumeration is exponential in the leaf count and refuses trees
    beyond ``AVAR_SPEC_MAX_LEAVES``; past the cap use :func:`avar` or
    :func:`avar_max_density` directly. The vertex densities go straight into
    the spec's node arrays as terminal optional mass.
    """
    level = QuantileLevel(alpha)
    if len(tree.leaves) > AVAR_SPEC_MAX_LEAVES:
        raise ValidationError(
            f"vertex enumeration capped at {AVAR_SPEC_MAX_LEAVES} leaves, tree has {len(tree.leaves)}"
        )
    probs = tree.leaf_prob.tolist()
    density = np.array(_density_vertices(probs, level.alpha)).reshape(-1, len(probs))
    negative = np.flatnonzero(density < 0.0) % len(probs)
    if len(negative):
        raise ValidationError(f"density is negative at leaf '{tree.leaves[negative[0]]}'")
    # the nonzero densities, vertex after vertex, each in canonical leaf order
    vertex, leaf = np.nonzero(density)
    ends = np.cumsum(np.count_nonzero(density, axis=1)).tolist()
    bounds, labels = tuple(zip([0, *ends], ends)), [f"v{i}" for i in range(len(ends))]
    node, op = leaf + tree.first_leaf, density[vertex, leaf]
    return RiskMeasureSpec._from_arrays(tree, node, np.zeros_like(op), op, bounds, [0.0] * len(ends), labels)


def worst_case_spec(tree: ScenarioTree) -> RiskMeasureSpec:
    """One renormalized point mass per leaf; the risk is the worst terminal loss."""
    L = len(tree.leaves)
    op = 1.0 / tree.leaf_prob
    bounds, labels = tuple((i, i + 1) for i in range(L)), [f"leaf:{leaf}" for leaf in tree.leaves]
    node = np.arange(tree.first_leaf, len(tree.order))
    return RiskMeasureSpec._from_arrays(tree, node, np.zeros_like(op), op, bounds, [0.0] * L, labels)


def entropic(Y: StaticRV, beta: float) -> float:
    """Exponential risk (1/beta) log E[exp(-beta Y)], evaluated with a max shift."""
    beta = float(beta)
    if not beta > 0.0 or not math.isfinite(beta):
        raise ValidationError(f"entropic parameter must be positive, got {beta!r}")
    tree = Y.tree
    prob, y = tree.leaf_prob.tolist(), Y.vector.tolist()
    m = max(-v for v in y)
    shift = beta * m  # equals max(-beta Y): rounding is monotone
    if not math.isfinite(shift):
        # beta * m overflows: shift by m alone, every exponent stays <= 0
        total = fsum(p * math.exp(beta * (-v - m)) for p, v in zip(prob, y))
        return m + math.log(total) / beta
    total = fsum(p * math.exp(-beta * v - shift) for p, v in zip(prob, y))
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
    parent, branch = tree.parent.tolist(), tree.branch_prob
    V = (-X.vector).tolist()
    cont: list[list[float]] = [[] for _ in V]  # branch_prob * V of each child; none at a leaf
    stop = [True] * len(V)
    for i in range(len(V) - 1, -1, -1):  # canonical order backwards: children before their parents
        if cont[i] and not V[i] >= (c := fsum(cont[i])):  # ties stop
            stop[i], V[i] = False, c
        cont[parent[i]].append(branch[i] * V[i])
    tau = dict(zip(tree.leaves, np.array(stop)[_paths(tree)].argmax(axis=1).tolist()))  # each path's first stop
    return StoppedWorstCase(value=V[0], tau=tau)
