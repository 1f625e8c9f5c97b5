"""Checks of program outputs against the references and the properties the method must have.

Each check takes the numbers the program produced, already pulled out of a
CLI report or a library result, and raises ``CheckFailed`` on a mismatch.
"""

from __future__ import annotations

import numpy as np

import reference as R
from inputs import Element, TreeArrays

# rho_eval marks every element within this absolute band of the best value as
# a maximizer (documented in riskcore). Used only to accept the ties the
# program reports, never as a tolerance on a computed value.
PROGRAM_TIE_BAND = 1e-12
# min_cost_combination accepts a target reachable within this L1 residual (its default --tol).
PROGRAM_LP_TOL = 1e-9
# HiGHS solves to a relative feasibility tolerance of 1e-7; compare optima at ten times that.
REFERENCE_LP_RTOL = 1e-6


def losses(tree: TreeArrays, els: list[Element], x: np.ndarray, values, value, argmax, what: str) -> None:
    """eval / rho_eval: per-element penalized losses, the maximum and the maximizers."""
    ref, scale = R.penalized_losses(tree, els, x)
    n, K = tree.n_nodes, tree.K
    R.require(len(values) == len(els), f"{what}: {len(values)} values for {len(els)} elements")
    for i, v in enumerate(values):
        R.require_close(v, ref[i], scale[i], n, f"{what}: element {i}", K)
    best = int(np.argmax(ref))
    R.require_close(value, ref[best], scale[best], n, f"{what}: value", K)
    R.require(len(argmax) > 0, f"{what}: no maximizer reported")
    for i in argmax:
        slack = PROGRAM_TIE_BAND + R.bound(scale[i] + scale[best], n, K)
        R.require(ref[i] >= ref[best] - slack, f"{what}: element {i} is no maximizer")
    runner_up = np.max(np.delete(ref, best)) if len(ref) > 1 else -np.inf
    if ref[best] - runner_up > PROGRAM_TIE_BAND + R.bound(2 * scale.max(), n, K):
        R.require(best in argmax, f"{what}: maximizer {best} missing from {argmax}")


def static_value(tree: TreeArrays, els: list[Element], y: np.ndarray, value: float, what: str) -> None:
    """static-eval / static_rho: rho of the martingale closure."""
    M, mscale = R.closure(tree, y)
    W = R.node_weights(tree, els)
    g = R.normalized_gammas(els)
    ref = -(W @ M) - g
    scale = np.abs(W) @ mscale + np.abs(g)
    best = int(np.argmax(ref))
    R.require_close(value, ref[best], scale.max(), tree.n_nodes + len(tree.leaves), what, tree.K)


def static_direct(tree: TreeArrays, els: list[Element], y: np.ndarray, direct: float, value, what: str) -> None:
    """Coherent shortcut max_i E[-Var(a_i) Y], and its agreement with the closure route when given."""
    ref, scale = R.static_direct(tree, els, y)
    n = tree.n_nodes + len(tree.leaves)
    R.require_close(direct, ref, scale, n, f"{what}: coherent direct", tree.K)
    if value is not None:
        R.require_close(value, direct, 2 * scale, n, f"{what}: closure vs direct route", tree.K)


def closure_values(tree: TreeArrays, y: np.ndarray, M: np.ndarray, what: str) -> None:
    """project (static): conditional means, and the one-step martingale identity."""
    ref, scale = R.closure(tree, y)
    L, K = len(tree.leaves), tree.K
    tol = R.bound(scale, L, K)
    bad = np.flatnonzero(np.abs(M - ref) > tol)
    R.require(bad.size == 0, f"{what}: closure off at nodes {bad[:5].tolist()}")
    R.require(np.array_equal(M[tree.leaves], y), f"{what}: terminal slice is not the payoff")
    child = np.arange(1, tree.n_nodes)
    mean = np.zeros(tree.n_nodes)
    np.add.at(mean, tree.parent[child], tree.branch[child] * M[child])
    inner = tree.interior
    bad = np.flatnonzero(np.abs(M[inner] - mean[inner]) > 2 * tol[inner])
    R.require(bad.size == 0, f"{what}: martingale identity fails at nodes {bad[:5].tolist()}")


def raw_values(tree: TreeArrays, Z: np.ndarray, opt: np.ndarray, pred: np.ndarray, what: str) -> None:
    """project (raw): optional and predictable projections."""
    r_opt, r_pred, s_opt, s_pred = R.raw_projections(tree, Z)
    L, K = len(tree.leaves), tree.K
    for name, got, ref, scale in (("optional", opt, r_opt, s_opt), ("predictable", pred, r_pred, s_pred)):
        bad = np.flatnonzero(np.abs(got - ref) > R.bound(scale, L, K))
        R.require(bad.size == 0, f"{what}: {name} projection off at nodes {bad[:5].tolist()}")


def allocation(tree, els, xs, maximizer, charges, rho_total, sum_k, what) -> None:
    """allocate: charges against the reported maximizer, which must maximize, adding up to rho."""
    W = R.node_weights(tree, els)
    total = xs[0].copy()
    for x in xs[1:]:
        total = total + x
    ref = -(W @ total)
    scale = np.abs(W) @ np.abs(total)
    n, K = tree.n_nodes, tree.K
    best = int(np.argmax(ref))
    R.require(
        ref[maximizer] >= ref[best] - PROGRAM_TIE_BAND - R.bound(scale[best] + scale[maximizer], n, K),
        f"{what}: reported maximizer {maximizer} does not maximize",
    )
    R.require_close(rho_total, ref[maximizer], scale[maximizer], n, f"{what}: rho_total", K)
    for j, x in enumerate(xs):
        k_ref = -(W[maximizer] @ x)
        R.require_close(charges[j], k_ref, np.abs(W[maximizer]) @ np.abs(x), n, f"{what}: charge {j}", K)
    k_scale = sum(np.abs(W[maximizer]) @ np.abs(x) for x in xs)
    R.require_close(sum_k, rho_total, 2 * k_scale, n * len(xs), f"{what}: sum of charges vs rho", K)


def allocation_is_valid(tree, els, xs, what) -> None:
    """For a rejected allocation: the charges against the reference maximizer do add up to rho."""
    W = R.node_weights(tree, els)
    total = xs[0].copy()
    for x in xs[1:]:
        total = total + x
    ref = -(W @ total)
    m = int(np.argmax(ref))
    k = [-(W[m] @ x) for x in xs]
    k_scale = sum(np.abs(W[m]) @ np.abs(x) for x in xs)
    R.require_close(sum(k), ref[m], 2 * k_scale, tree.n_nodes * len(xs), f"{what}: reference charges", tree.K)


def fairness(tree, els, xs, checked, samples, passed, worst_slack, witness_dev, what) -> None:
    W = R.node_weights(tree, els)
    R.require(checked == samples + len(xs) + 1, f"{what}: audited {checked} participations, expected {samples + len(xs) + 1}")
    scale = np.abs(W).max(axis=0) @ sum(np.abs(x) for x in xs)
    tol = R.bound(scale, tree.n_nodes * len(xs), tree.K)
    R.require(passed, f"{what}: fairness certificate failed")
    R.require(worst_slack >= -tol, f"{what}: worst slack {worst_slack!r} below -{tol:.3e}")
    R.require(0.0 <= witness_dev <= tol, f"{what}: witness deviation {witness_dev!r} above {tol:.3e}")


def quantile_values(p, y, alpha, beta, var, tce, avar_v, entropic_v, worst, what) -> None:
    """instances: var, tce (None when undefined), avar, entropic and worst case."""
    ref = R.instances(p, y, alpha, beta)
    n = len(y)
    match = [q for q in ref.quantiles if q.var == var]
    R.require(bool(match), f"{what}: var {var!r} not among {[q.var for q in ref.quantiles]}")
    q = match[0]
    if q.tce is None:
        R.require(tce is None, f"{what}: tce {tce!r} where the tail event is empty")
    else:
        R.require(tce is not None, f"{what}: tce reported undefined")
        R.require_close(tce, q.tce, q.tce_scale, n, f"{what}: tce")
    R.require_close(avar_v, ref.avar, ref.avar_scale, n, f"{what}: avar")
    R.require_close(entropic_v, ref.entropic, ref.entropic_scale, n, f"{what}: entropic")
    if worst is not None:
        R.require(worst == ref.worst, f"{what}: worst case {worst!r} vs {ref.worst!r}")


def undefined_tce_possible(p, y, alpha) -> set[bool]:
    """Whether tce may be undefined (True) and/or defined (False) given rounding at the level."""
    return {q.tce is None for q in R.instances(p, y, alpha, 1.0).quantiles}


def modulus(p, family, thresholds, etas, verdict, what, decay_threshold=1e-6) -> None:
    """diagnose-ui / ui_modulus: eta(K) per threshold and the decay verdict."""
    ref, scale = R.ui_modulus(p, family, thresholds)
    n = family.shape[1]
    for k, got, r, s in zip(thresholds, etas, ref, scale):
        R.require_close(got, r, s, n, f"{what}: eta({k:g})")
    if abs(ref[-1] - decay_threshold) > R.bound(scale[-1], n):
        want = "decaying" if ref[-1] < decay_threshold else "non-decaying"
        R.require(verdict == want, f"{what}: verdict {verdict!r}, expected {want!r}")


def lebesgue(family: str, alpha: float, rows, verdict: str, what: str) -> None:
    """diagnose-lebesgue on the crash sequence: worst case violates, avar is consistent.

    rows: (depth, rho_moving, rho_limit, gap, exceedances). The crash puts a
    unit loss on one leaf of mass 2^-depth, so the worst-case risk stays 1
    while avar falls as min(1, 2^-depth / alpha).
    """
    for depth, moving, limit, gap, exceed in rows:
        p = 2.0**-depth
        want = 1.0 if family == "worst-case" else min(1.0, p / alpha)
        R.require_close(moving, want, 1.0 + want, 2**depth, f"{what}: depth {depth} rho_moving")
        R.require(limit == 0.0, f"{what}: depth {depth} rho_limit {limit!r}")
        R.require_close(gap, want, 1.0 + want, 2**depth, f"{what}: depth {depth} gap")
        for e in exceed:
            R.require_close(e, p, p, 2**depth, f"{what}: depth {depth} exceedance")
    want = "violating" if family == "worst-case" else "consistent"
    R.require(verdict == want, f"{what}: verdict {verdict!r}, expected {want!r}")


def identities(tree: TreeArrays, deviations: dict[str, float], what: str) -> None:
    """diagnose-identities with increments and values in [-1, 1].

    Every path sum has at most 2K + 1 terms of magnitude at most one, so each
    identity holds to within the rounding bound of such sums; the terminal
    bound |a_T - a_0| <= Var(a) holds exactly under monotone rounding.
    """
    K, L = tree.K, len(tree.leaves)
    scale = 2 * K + 1
    tol = R.bound(scale, L * scale + tree.n_nodes, K)
    for name, dev in deviations.items():
        if name == "terminal_bound_slack":
            R.require(dev <= 0.0, f"{what}: terminal bound slack {dev!r} > 0")
        else:
            R.require(0.0 <= dev <= tol, f"{what}: {name} deviation {dev!r} above {tol:.3e}")


def conjugate(A, target, gammas, weights, cost, builder_cost, what) -> None:
    """conjugate: weights form a cheapest convex combination reproducing the target.

    ``weights`` / ``cost`` are None when the program reports infeasibility,
    ``builder_cost`` is None when the target was built to be infeasible.
    """
    lp = R.lp_optimum(A, target, gammas)
    if builder_cost is None:
        R.require(weights is None, f"{what}: infeasible target reported feasible")
        R.require(lp is None, f"{what}: reference LP finds the infeasible target feasible")
        return
    R.require(weights is not None, f"{what}: feasible target reported infeasible")
    R.require(lp is not None, f"{what}: reference LP finds the target infeasible")
    w = np.asarray(weights)
    n = len(w)
    R.require(bool(np.all(w >= 0.0)), f"{what}: negative weight")
    R.require_close(float(w.sum()), 1.0, 1.0, n, f"{what}: weights sum")
    resid = np.abs(A @ w - target)
    tol = PROGRAM_LP_TOL + R.bound(float((np.abs(A) @ w).sum() + np.abs(target).sum()), n)
    R.require(float(resid.sum()) <= tol, f"{what}: weights miss the target by {resid.sum():.3e} > {tol:.3e}")
    scale = float(np.abs(gammas) @ w)
    R.require_close(cost, float(gammas @ w), scale, n, f"{what}: cost of the weights")
    R.require(cost <= builder_cost + R.bound(scale + builder_cost, n), f"{what}: cost {cost!r} above builder {builder_cost!r}")
    lp_tol = REFERENCE_LP_RTOL * float(np.abs(gammas).sum())
    R.require(abs(cost - lp) <= lp_tol, f"{what}: cost {cost!r} vs LP optimum {lp!r}")
