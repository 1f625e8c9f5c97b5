"""Minimum-cost convex combinations via an exact two-phase simplex.

The solver answers one question: can a target vector be written as a convex
combination of given columns, and if so, what is the cheapest combination
under per-column costs. Arithmetic is exact rational internally (floats
convert to fractions without rounding), pivoting follows Bland's smallest
index rule, so runs are deterministic and cycling is impossible.

The tableau is dense, the arithmetic is not. A pivot divides the pivot row
once, then updates only that row's nonzero columns, and only in the rows with
a nonzero entry in the entering column. Every skipped update would subtract
an exact zero. The reduced costs are summed once per phase over the basic
rows with a nonzero cost, and from then on each pivot updates them as one
more row. A reduced cost depends only on the basis, and the arithmetic is
exact, so every reduced cost, ratio and tie is the same rational number that
re-summing all m rows on each iteration would give. Bland's rule therefore
makes the same pivots, and the weights, cost and residual are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from typing import Sequence

from .errors import ValidationError


@dataclass(frozen=True)
class SimplexProgram:
    """Columns, target and costs of one combination problem."""

    columns: tuple[tuple[float, ...], ...]
    target: tuple[float, ...]
    costs: tuple[float, ...]

    def __post_init__(self):
        cols = tuple(tuple(float(x) for x in c) for c in self.columns)
        if not cols:
            raise ValidationError("program needs at least one column")
        dim = len(cols[0])
        for j, c in enumerate(cols):
            if len(c) != dim:
                raise ValidationError(f"column {j} has length {len(c)}, expected {dim}")
            for x in c:
                if not isfinite(x):
                    raise ValidationError(f"non-finite entry in column {j}")
        tgt = tuple(float(x) for x in self.target)
        if len(tgt) != dim:
            raise ValidationError(f"target has length {len(tgt)}, expected {dim}")
        if any(not isfinite(x) for x in tgt):
            raise ValidationError("non-finite entry in target")
        cst = tuple(float(x) for x in self.costs)
        if len(cst) != len(cols):
            raise ValidationError(f"got {len(cst)} costs for {len(cols)} columns")
        if any(not isfinite(x) for x in cst):
            raise ValidationError("non-finite cost")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "target", tgt)
        object.__setattr__(self, "costs", cst)


@dataclass(frozen=True)
class SimplexSolution:
    weights: tuple[float, ...]
    cost: float
    residual: float


def _pivot(rows, rhs, basis, i, j, red=None):
    """Make column j basic in row i, and update the reduced costs ``red`` when given.

    Only row i's nonzero columns change, and only in rows with a nonzero in column j.
    """
    row = rows[i]
    piv = row[j]
    terms = [(c, x / piv) for c, x in enumerate(row) if x]
    for c, x in terms:
        row[c] = x
    rhs[i] /= piv
    for k, other in enumerate(rows):
        f = other[j]
        if f and k != i:
            for c, x in terms:
                other[c] -= f * x
            rhs[k] -= f * rhs[i]
    if red is not None and red[j]:
        f = red[j]
        for c, x in terms:
            red[c] -= f * x
    basis[i] = j


def _run_simplex(rows, rhs, basis, costs):
    """Minimize over the canonical tableau; Bland's rule on both choices.

    ``costs`` has one entry per tableau column. The reduced costs
    c_j - sum_i c_basis(i) rows[i][j] are summed once, then kept by the pivots.
    """
    red = list(costs)
    for row, bi in zip(rows, basis):
        cb = costs[bi]
        if cb:
            for j, x in enumerate(row):
                if x:
                    red[j] -= cb * x
    while True:
        enter = next((j for j, r in enumerate(red) if r < 0), -1)
        if enter < 0:
            return
        leave = -1
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = rhs[i] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # Not reachable from min_cost_combination: the phase-1 objective is a
            # sum of nonnegative artificials, so bounded below by 0, and in phase 2
            # the convexity row (sum of weights = 1, weights >= 0) bounds every
            # feasible point. Only a hand-made tableau gets here.
            raise RuntimeError("simplex step found an unbounded ray; the model excludes this")
        _pivot(rows, rhs, basis, leave, enter, red)


def _solve_exact(A, b, costs, ftol, depth=0):
    """A: (m rows) x (n cols) Fractions, b: m Fractions. Returns (lam, cost) or None."""
    m = len(A)
    n = len(costs)

    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-x for x in A[i]] + [Fraction(0)] * m)
            rhs.append(-b[i])
        else:
            rows.append(list(A[i]) + [Fraction(0)] * m)
            rhs.append(b[i])
        rows[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]
    phase1_costs = [Fraction(0)] * n + [Fraction(1)] * m
    _run_simplex(rows, rhs, basis, phase1_costs)
    infeas = sum(phase1_costs[basis[i]] * rhs[i] for i in range(m))
    if infeas > ftol:
        return None

    if infeas != 0:
        # The target misses the reachable set by no more than the tolerance.
        # Optimize over the nearest exactly reachable target instead.
        if depth > 0:
            return None
        lam0 = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                lam0[bi] = rhs[i]
        support = [(j, w) for j, w in enumerate(lam0) if w]
        b2 = [sum((row[j] * w for j, w in support), Fraction(0)) for row in A]
        return _solve_exact(A, b2, costs, ftol, depth=1)

    # drive leftover artificials out of the basis, dropping redundant rows
    i = 0
    while i < len(rows):
        if basis[i] >= n:
            piv_col = next((j for j in range(n) if rows[i][j] != 0), None)
            if piv_col is None:
                del rows[i], rhs[i], basis[i]
                continue
            _pivot(rows, rhs, basis, i, piv_col)
        i += 1

    rows = [r[:n] for r in rows]
    _run_simplex(rows, rhs, basis, costs)
    lam = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            lam[bi] = rhs[i]
    cost = sum(costs[j] * w for j, w in enumerate(lam) if w)
    return lam, cost


def min_cost_combination(prog: SimplexProgram, tol: float = 1e-9) -> SimplexSolution | None:
    """Cheapest convex combination of the columns reproducing the target.

    Returns None when no point of the weight simplex reaches the target within
    ``tol`` (measured as the phase-one L1 residual, which dominates the
    coordinate-wise deviation). On feasible inputs the returned weights
    reproduce the target exactly in rational arithmetic, so the reported
    residual is zero unless the target itself was only reachable within
    tolerance.
    """
    if not tol >= 0.0:
        raise ValidationError(f"tolerance must be nonnegative, got {tol!r}")
    if not isfinite(tol):
        raise ValidationError(f"tolerance must be finite, got {tol!r}")
    n = len(prog.columns)
    dim = len(prog.target)
    A = [[Fraction(prog.columns[j][i]) for j in range(n)] for i in range(dim)]
    A.append([Fraction(1)] * n)
    b = [Fraction(x) for x in prog.target] + [Fraction(1)]
    costs = [Fraction(c) for c in prog.costs]

    res = _solve_exact(A, b, costs, Fraction(tol))
    if res is None:
        return None
    lam, cost = res
    support = [(j, w) for j, w in enumerate(lam) if w]
    residual = max(
        (abs(sum(A[i][j] * w for j, w in support) - b[i]) for i in range(dim)),
        default=Fraction(0),
    )
    return SimplexSolution(
        weights=tuple(float(x) for x in lam),
        cost=float(cost),
        residual=float(residual),
    )
