"""Reference computations made apart from the program, with numpy and scipy.

Every comparison uses a tolerance from rounding analysis: a sum of n
floating-point products, formed along paths of at most K multiplications,
is off by at most about (n + K) * eps * sum(|terms|). ``bound`` doubles
that; a real defect shows up many orders of magnitude above it. No
tolerance here is a bare absolute constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from inputs import Element, TreeArrays, ancestors, conditional_sum, path_sum

EPS = float(np.finfo(np.float64).eps)
DEFAULT_K_GRID = (0.0, 1.0, 5.0, 10.0, 20.0, 50.0)


class CheckFailed(AssertionError):
    """A program output disagrees with its reference or breaks a required property."""


def bound(sum_abs: float, n_terms: int, depth: int = 0) -> float:
    """Rounding bound for a sum of ``n_terms`` products whose magnitudes add to ``sum_abs``."""
    return 2.0 * (n_terms + depth + 4) * EPS * sum_abs


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def require_close(value: float, ref: float, sum_abs: float, n_terms: int, what: str, depth: int = 0) -> None:
    tol = bound(sum_abs, n_terms, depth)
    if not abs(value - ref) <= tol:
        raise CheckFailed(f"{what}: {value!r} vs reference {ref!r} (|diff| {abs(value - ref):.3e} > {tol:.3e})")


# ------------------------------------------------------------ tree calculus


def node_weights(tree: TreeArrays, elements: list[Element]) -> np.ndarray:
    """Dense element x node matrix of P(n) * (pr + op)(n)."""
    return np.array([tree.prob * e.total for e in elements])


def normalized_gammas(elements: list[Element]) -> np.ndarray:
    g = np.array([e.gamma for e in elements])
    return g - g.min()


def penalized_losses(tree: TreeArrays, elements: list[Element], x: np.ndarray):
    """-<X, a_i> - gamma_i per element, and the sum of |terms| of each."""
    W = node_weights(tree, elements)
    g = normalized_gammas(elements)
    return -(W @ x) - g, np.abs(W) @ np.abs(x) + np.abs(g)


def closure(tree: TreeArrays, y: np.ndarray):
    """Martingale closure E[Y | n] per node, and the per-node sum of |terms| / P(n)."""
    p = tree.prob
    pl = p[tree.leaves]
    M = conditional_sum(tree, pl * y) / p
    scale = conditional_sum(tree, pl * np.abs(y)) / p
    M[tree.leaves] = y
    return M, scale


def raw_projections(tree: TreeArrays, Z: np.ndarray):
    """Optional and predictable projections of a raw process (leaves x depths).

    Optional at a depth-k node: E[Z_k | node]. Predictable at a depth-k node
    (k >= 1): E[Z_k | parent]; at the root: E[Z_0]. Returns both plus the
    per-node |terms| scales.
    """
    p = tree.prob
    pl = p[tree.leaves]
    s = tree.starts
    opt = np.empty(tree.n_nodes)
    pred = np.empty(tree.n_nodes)
    opt_scale = np.empty(tree.n_nodes)
    pred_scale = np.empty(tree.n_nodes)
    for k in range(tree.K + 1):
        sums = conditional_sum(tree, pl * Z[:, k]) / p
        abss = conditional_sum(tree, pl * np.abs(Z[:, k])) / p
        idx = np.arange(s[k], s[k + 1])
        opt[idx] = sums[idx]
        opt_scale[idx] = abss[idx]
        if k == 0:
            pred[0] = sums[0]
            pred_scale[0] = abss[0]
        else:
            pred[idx] = sums[tree.parent[idx]]
            pred_scale[idx] = abss[tree.parent[idx]]
    opt[tree.leaves] = Z[:, tree.K]
    return opt, pred, opt_scale, pred_scale


def variations(tree: TreeArrays, elements: list[Element]) -> np.ndarray:
    """Element x leaf matrix of pathwise variation: sums of increments along each path."""
    return np.array([path_sum(tree, e.total)[tree.leaves] for e in elements])


def static_direct(tree: TreeArrays, elements: list[Element], y: np.ndarray):
    """max_i E[-Var(a_i) Y] for a coherent family, with the |terms| sum of the winner."""
    pl = tree.prob[tree.leaves]
    V = variations(tree, elements)
    vals = -(V * pl) @ y
    i = int(np.argmax(vals))
    return float(vals[i]), float((V[i] * pl) @ np.abs(y))


def stopping_value(tree: TreeArrays, x: np.ndarray) -> float:
    """Backward induction V_K = -X_K, V_k = max(-X_k, E[V_{k+1} | node])."""
    V = -np.array(x, dtype=np.float64)
    s = tree.starts
    for k in range(tree.K - 1, -1, -1):
        cont = np.zeros(tree.n_nodes)
        idx = np.arange(s[k + 1], s[k + 2])
        np.add.at(cont, tree.parent[idx], tree.branch[idx] * V[idx])
        here = np.arange(s[k], s[k + 1])
        V[here] = np.maximum(V[here], cont[here])
    return float(V[0])


def stopped_loss(tree: TreeArrays, x: np.ndarray, tau_by_leaf: np.ndarray) -> tuple[float, float]:
    """E[-X_tau] for a per-leaf stopping depth, with its |terms| sum."""
    anc = ancestors(tree)
    rows = np.arange(len(tree.leaves))
    vals = -x[anc[rows, tau_by_leaf]]
    pl = tree.prob[tree.leaves]
    return float(pl @ vals), float(pl @ np.abs(vals))


# ------------------------------------------------------------- instances


@dataclass(frozen=True)
class Quantile:
    var: float
    tce: float | None  # None when nothing lies strictly below the quantile outcome
    tce_scale: float


@dataclass(frozen=True)
class InstanceRef:
    quantiles: tuple[Quantile, ...]  # every outcome the quantile may take given rounding at the level
    avar: float
    avar_scale: float
    entropic: float
    entropic_scale: float
    worst: float


def instances(p: np.ndarray, y: np.ndarray, alpha: float, beta: float) -> InstanceRef:
    """Sorted-array formulas for VaR, TCE, AVaR (Acerbi-Tasche), entropic and worst case."""
    vals, inv = np.unique(y, return_inverse=True)
    mass = np.bincount(inv, weights=p)
    cum = np.cumsum(mass)
    i = int(np.searchsorted(cum, alpha, side="right"))
    tol = bound(1.0, len(vals))
    # a cumulative mass within rounding of alpha may fall on either side of it
    candidates = {i}
    if i > 0 and abs(cum[i - 1] - alpha) <= tol:
        candidates.add(i - 1)
    if abs(cum[i] - alpha) <= tol and i + 1 < len(vals):
        candidates.add(i + 1)
    quantiles = []
    for j in sorted(candidates):
        below = y < vals[j]
        tce, tce_scale = None, 0.0
        if below.any():
            m = p[below].sum()
            tce = float((p[below] @ y[below]) / m)
            tce_scale = float((p[below] @ np.abs(y[below])) / m)
        quantiles.append(Quantile(var=0.0 - float(vals[j]), tce=tce, tce_scale=tce_scale))

    order = np.argsort(y, kind="stable")
    ps, ys = p[order], y[order]
    before = np.cumsum(ps) - ps
    take = np.clip(alpha - before, 0.0, ps)
    avar = float(-(take @ ys) / alpha)
    avar_scale = float((p @ np.abs(y)) / alpha + 2.0 * np.abs(y).max())

    shift = float(np.max(-beta * y))
    total = float(p @ np.exp(-beta * y - shift))
    entropic = (shift + np.log(total)) / beta
    entropic_scale = float(np.abs(y).max() + 1.0 / beta)
    return InstanceRef(
        quantiles=tuple(quantiles),
        avar=avar,
        avar_scale=avar_scale,
        entropic=float(entropic),
        entropic_scale=entropic_scale,
        worst=float(np.max(-y)),
    )


def ui_modulus(p: np.ndarray, family: np.ndarray, ks=DEFAULT_K_GRID):
    """eta(K) = max_f E[|f| ; |f| > K] for a family given as rows, with |terms| sums."""
    a = np.abs(family)
    etas = []
    scales = []
    for k in ks:
        masses = (a * (a > k)) @ p
        j = int(np.argmax(masses))
        etas.append(float(masses[j]))
        scales.append(float(masses[j]))
    return etas, scales


# ------------------------------------------------------------ conjugates


def increment_matrix(tree: TreeArrays, elements: list[Element]) -> np.ndarray:
    """Coordinates x elements: predictable entries on interior nodes, then optional on all."""
    return np.array([np.concatenate([e.pr[tree.interior], e.op]) for e in elements]).T


def increment_coords(tree: TreeArrays, pr: np.ndarray, op: np.ndarray) -> np.ndarray:
    return np.concatenate([pr[tree.interior], op])


def lp_optimum(A: np.ndarray, target: np.ndarray, costs: np.ndarray) -> float | None:
    """min costs . lam s.t. A lam = target, sum lam = 1, lam >= 0; None if infeasible."""
    from scipy.optimize import linprog

    A_eq = np.vstack([A, np.ones(A.shape[1])])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(costs, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise CheckFailed(f"reference LP did not finish: {res.message}")
    return float(res.fun)
