"""Minimum-cost convex combinations via an exact two-phase simplex.

The solver answers one question: can a target vector be written as a convex
combination of given columns, and if so, what is the cheapest combination
under per-column costs. Arithmetic is exact, pivoting follows Bland's
smallest index rule, so runs are deterministic and cycling is impossible.

The tableau holds fraction-free integer rows: each program row, target entry
included, is scaled by the lcm of its denominators (powers of two for float
inputs). A row's denominator is its own basic entry, kept positive. A pivot
on entry p of row i flips row i's sign if p < 0, and each other row with an f
!= 0 in the entering column becomes ``other * p - f * row`` over its gcd with
its rhs; rows with a zero there stay untouched. The reduced costs are one
more such row, their common denominator stored last, summed once per phase.
The ratio test and Bland's tie-break cross-multiply rhs[i] / a_i, in which a
row's denominator cancels. So every reduced cost, ratio and tie is the same
rational a tableau of fractions holds, and Bland's rule makes the same
pivots. ``Fraction`` appears only at the edges: the inputs, the phase-1
infeasibility, the re-target, the weights, the cost and the residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, lcm
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


def _put(rows, rhs, k, row, r):
    """Store ``row`` and its rhs ``r`` as row k, divided by their gcd."""
    g = gcd(*row, r)
    rows[k] = [x // g for x in row] if g > 1 else row
    rhs[k] = r // g


def _pivot(rows, rhs, basis, i, j, red=None):
    """Make column j basic in row i; update the reduced costs ``red`` when given.
    Only rows (and ``red``) with a nonzero in column j change."""
    row, b = rows[i], rhs[i]
    if row[j] < 0:  # only when an artificial is driven out
        row, b = rows[i], rhs[i] = [-x for x in row], -b
    p = row[j]
    terms = [(c, x) for c, x in enumerate(row) if x]
    for k, other in enumerate(rows):
        f = other[j]
        if f and k != i:
            other = [x * p for x in other]
            for c, x in terms:
                other[c] -= f * x
            _put(rows, rhs, k, other, rhs[k] * p - f * b)
    if red is not None and red[j]:
        f = red[j]
        red[:] = [x * p for x in red]
        for c, x in terms:
            red[c] -= f * x
        g = gcd(*red)
        red[:] = [x // g for x in red]
    basis[i] = j


def _run_simplex(rows, rhs, basis, costs):
    """Minimize over the canonical tableau; Bland's rule on both choices.

    ``costs`` has one entry per tableau column. The reduced costs c_j - sum_i
    c_basis(i) rows[i][j] / rows[i][basis(i)] are summed once over a common
    denominator, stored last, then kept by the pivots.
    """
    den = lcm(*(row[bi] for row, bi in zip(rows, basis) if costs[bi]))
    red = [c * den for c in costs] + [den]
    for row, bi in zip(rows, basis):
        if costs[bi]:
            f = costs[bi] * den // row[bi]
            for j, x in enumerate(row):
                if x:
                    red[j] -= f * x
    while True:
        enter = next((j for j, r in enumerate(red) if r < 0), -1)
        if enter < 0:
            return
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0 and (leave < 0 or (d := rhs[i] * a_b - r_b * a) < 0 or (d == 0 and basis[i] < basis[leave])):
                leave, r_b, a_b = i, rhs[i], a
        if leave < 0:
            # Not reachable from min_cost_combination: the phase-1 objective is a
            # sum of nonnegative artificials, so bounded below by 0, and in phase 2
            # the convexity row (sum of weights = 1, weights >= 0) bounds every
            # feasible point. Only a hand-made tableau gets here.
            raise RuntimeError("simplex step found an unbounded ray; the model excludes this")
        _pivot(rows, rhs, basis, leave, enter, red)


def _solve_exact(A, b, costs, ftol, depth=0):
    """A: (m rows) x (n cols) Fractions, b: m Fractions. Returns (lam, cost) or None."""
    m, n = len(A), len(costs)
    rows, rhs = [None] * m, [None] * m
    for i, (a, t) in enumerate(zip(A, b)):
        s = lcm(t.denominator, *(x.denominator for x in a)) * (-1 if t < 0 else 1)
        row = [x.numerator * (s // x.denominator) for x in a] + [0] * m
        row[n + i] = abs(s)
        _put(rows, rhs, i, row, t.numerator * (s // t.denominator))
    basis = [n + i for i in range(m)]
    _run_simplex(rows, rhs, basis, [0] * n + [1] * m)
    infeas = sum(Fraction(rhs[i], rows[i][bi]) for i, bi in enumerate(basis) if bi >= n)
    if infeas > ftol:
        return None

    if infeas != 0:
        # The target misses the reachable set by no more than the tolerance.
        # Optimize over the nearest exactly reachable target instead.
        if depth > 0:
            return None
        support = [(bi, Fraction(rhs[i], rows[i][bi])) for i, bi in enumerate(basis) if bi < n and rhs[i]]
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

    for k, row in enumerate(rows):
        _put(rows, rhs, k, row[:n], rhs[k])
    scale = lcm(*(c.denominator for c in costs))
    _run_simplex(rows, rhs, basis, [c.numerator * (scale // c.denominator) for c in costs])
    lam = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            lam[bi] = Fraction(rhs[i], rows[i][bi])
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
