"""Minimum-cost convex combinations via an exact two-phase simplex.

The solver answers one question: can a target vector be written as a convex
combination of given columns, and if so, what is the cheapest combination
under per-column costs. Arithmetic is exact rational internally (floats
convert to fractions without rounding), pivoting follows Bland's smallest
index rule, so runs are deterministic and cycling is impossible.
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


def _pivot(rows, rhs, basis, i, j):
    piv = rows[i][j]
    rows[i] = [x / piv for x in rows[i]]
    rhs[i] = rhs[i] / piv
    for k in range(len(rows)):
        if k != i and rows[k][j] != 0:
            f = rows[k][j]
            rows[k] = [a - f * b for a, b in zip(rows[k], rows[i])]
            rhs[k] = rhs[k] - f * rhs[i]
    basis[i] = j


def _run_simplex(rows, rhs, basis, costs, nvars):
    """Minimize over the canonical tableau; Bland's rule on both choices."""
    m = len(rows)
    while True:
        enter = -1
        for j in range(nvars):
            red = costs[j] - sum(costs[basis[i]] * rows[i][j] for i in range(m))
            if red < 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rhs[i] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("simplex step found an unbounded ray; the model excludes this")
        _pivot(rows, rhs, basis, leave, enter)


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
    _run_simplex(rows, rhs, basis, phase1_costs, n + m)
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
        b2 = [sum(A[i][j] * lam0[j] for j in range(n)) for i in range(m)]
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
    _run_simplex(rows, rhs, basis, costs, n)
    lam = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            lam[bi] = rhs[i]
    cost = sum(costs[j] * lam[j] for j in range(n))
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
    residual = max(
        (abs(sum(A[i][j] * lam[j] for j in range(n)) - b[i]) for i in range(dim)),
        default=Fraction(0),
    )
    return SimplexSolution(
        weights=tuple(float(x) for x in lam),
        cost=float(cost),
        residual=float(residual),
    )
