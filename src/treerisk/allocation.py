"""Capital allocation by the maximizing scenario, with randomized fairness audits."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import fsum
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .process import AdaptedProcess, _require_same_tree
from .riskcore import _UNIT_ROUNDOFF, RiskMeasureSpec, _node_vector, _rho_result
from .scenario import segment_fsums

FAIRNESS_SLACK_TOL = 1e-12  # the audit passes when no blend undercuts by more


# Tolerance of the add-up check, from rounding analysis with u = 2**-53.
# Exactly, the charges K_i sum to the portfolio risk R (rho is linear in the
# position at a fixed scenario). A charge is an fsum of node terms
# P(n) X_i(n) (pr(n) + op(n)), each rounded three times, so
# |k_i - K_i| <= u |k_i| + 3u S_i with S_i the sum of |terms|. rho reads the
# same terms after n - 1 roundings adding the n positions and two forming the
# weight, so |rho - R| <= u |rho| + (n + 2)u S with S = sum_i S_i, and fsum(k)
# adds u |sum_k|. With S estimated by sum_i |k_i| + |rho| (an upper bound
# unless a charge's own terms cancel), |sum_k - rho| <= (n + 8)u (sum_i |k_i|
# + |rho|) to first order; the factor 2 covers the second-order terms.
def _sum_tol(k: tuple[float, ...], rho: float) -> float:
    return 2 * (len(k) + 8) * _UNIT_ROUNDOFF * (fsum(abs(x) for x in k) + abs(rho))


@dataclass(frozen=True)
class AllocationResult:
    """Per-position capital charges k_i = -<X_i, a*> against the maximizing scenario a*."""

    k: tuple[float, ...]
    maximizer: int
    maximizer_label: str
    rho_total: float
    sum_k: float

    def __post_init__(self):
        if abs(self.sum_k - self.rho_total) > _sum_tol(self.k, self.rho_total):
            raise ValidationError(
                f"allocation does not add up: sum k = {self.sum_k!r} "
                f"vs rho = {self.rho_total!r}"
            )


def allocate(spec: RiskMeasureSpec, positions: Sequence[AdaptedProcess]) -> AllocationResult:
    """Split the portfolio risk across positions using one maximizing scenario.

    Requires a coherent spec; with penalties the per-position charges would no
    longer sum to the portfolio risk. Among tied maximizers the lowest index
    wins, so results are deterministic.
    """
    if not spec.is_coherent:
        raise ValidationError("allocation by maximizing scenario requires a coherent spec")
    positions = list(positions)
    if not positions:
        raise ValidationError("allocation needs at least one position")
    P = _position_matrix(spec, positions)
    with np.errstate(all="ignore"):
        total = functools.reduce(np.add, P)  # the left fold X_1 + X_2 + ... of the processes
    if not np.isfinite(total).all():
        functools.reduce(operator.add, positions)  # raises AdaptedProcess's error for the sum
    res = _rho_result(spec, total)
    idx = res.argmax[0]
    k = tuple(-v for v in spec._pairings(idx, P))
    return AllocationResult(
        k=k,
        maximizer=idx,
        maximizer_label=spec.labels[idx],
        rho_total=res.value,
        sum_k=fsum(k),
    )


def _position_matrix(spec: RiskMeasureSpec, positions: list[AdaptedProcess]) -> np.ndarray:
    """One row per position: its node values in canonical order."""
    for X in positions:
        _require_same_tree(spec.tree, X.tree)
    return np.array([_node_vector(spec.tree, X.values) for X in positions])


def _blend(terms: np.ndarray, order: Sequence[str]) -> np.ndarray:
    """Per node, the correctly rounded sum of its blend terms, one column per node."""
    try:
        return np.array(segment_fsums(terms))
    except OverflowError:
        for nid, col in zip(order, terms.T.tolist()):
            try:
                fsum(col)
            except OverflowError:
                raise ValidationError(
                    f"non-finite value in the blended position at node '{nid}'"
                ) from None
        raise


@dataclass(frozen=True)
class FairnessCertificate:
    samples: int
    seed: int
    checked: int
    worst_slack: float
    worst_alpha: tuple[float, ...]
    max_witness_deviation: float
    passed: bool


def fairness_check(
    result: AllocationResult,
    spec: RiskMeasureSpec,
    positions: Sequence[AdaptedProcess],
    samples: int = 1000,
    seed: int | None = None,
) -> FairnessCertificate:
    """Audit no-undercut fairness: sum_j alpha_j k_j <= rho(sum_j alpha_j X_j).

    Draws fractional participations alpha in [0,1]^N and always includes the
    standard basis vectors and the all-ones vector. Records the worst slack
    and the largest deviation of the linear witness
    sum_j alpha_j k_j = -<sum_j alpha_j X_j, a*>, which is what makes the
    inequality automatic under the maximizing scenario.
    """
    positions = list(positions)
    if len(result.k) != len(positions):
        raise ValidationError(f"{len(result.k)} charges vs {len(positions)} positions")
    if samples < 0:
        raise ValidationError(f"samples must be nonnegative, got {samples}")
    if seed is None:
        raise ValidationError("fairness sampling needs an explicit seed")
    P = _position_matrix(spec, positions)

    n = len(positions)
    rng = np.random.default_rng(seed)
    alphas = [tuple(float(i == j) for i in range(n)) for j in range(n)]
    alphas.append((1.0,) * n)
    alphas += [tuple(rng.uniform(0.0, 1.0, size=n).tolist()) for _ in range(samples)]

    worst_slack, worst_alpha, witness_dev = float("inf"), alphas[0], 0.0
    for alpha in alphas:
        # per node, fsum of alpha_j X_j(n); alpha <= 1 keeps every product finite
        blended = _blend(np.array(alpha)[:, None] * P, spec.tree.order)
        charged = fsum(alpha[j] * result.k[j] for j in range(n))
        slack = max(spec._penalized_losses(blended)) - charged
        if slack < worst_slack:
            worst_slack = slack
            worst_alpha = alpha
        witness = -spec._pairings(result.maximizer, blended[None, :])[0]
        witness_dev = max(witness_dev, abs(charged - witness))

    return FairnessCertificate(
        samples=samples,
        seed=seed,
        checked=len(alphas),
        worst_slack=worst_slack,
        worst_alpha=worst_alpha,
        max_witness_deviation=witness_dev,
        passed=worst_slack >= -FAIRNESS_SLACK_TOL,
    )
