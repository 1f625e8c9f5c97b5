"""Exact-rational simplex for minimum-cost convex combinations."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from treerisk import SimplexProgram, ValidationError, convexgeom, min_cost_combination

GRID_TOL = 1e-2


def solve(columns, target, costs, tol=1e-9):
    return min_cost_combination(
        SimplexProgram(columns=columns, target=target, costs=costs), tol=tol
    )


def test_vertex_target():
    sol = solve([(1.0, 0.0), (0.0, 1.0)], (1.0, 0.0), (0.25, 1.0))
    assert sol is not None
    assert sol.weights == (1.0, 0.0)
    assert sol.cost == 0.25


def test_midpoint_costs_half():
    sol = solve([(1.0, 0.0), (0.0, 1.0)], (0.5, 0.5), (0.0, 1.0))
    assert sol is not None
    assert abs(sol.weights[0] - 0.5) <= 1e-12
    assert abs(sol.weights[1] - 0.5) <= 1e-12
    assert abs(sol.cost - 0.5) <= 1e-12


def test_target_outside_affine_hull():
    sol = solve([(1.0, 0.0), (0.0, 1.0)], (0.75, 0.75), (0.0, 1.0))
    assert sol is None


def test_single_column():
    assert solve([(2.0, 3.0)], (2.0, 3.0), (1.5,)).cost == 1.5
    assert solve([(2.0, 3.0)], (2.0, 2.9), (1.5,)) is None


def test_feasible_residual_is_exact_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        cols = [tuple(float(v) for v in rng.uniform(-1, 1, size=3)) for _ in range(4)]
        lam = rng.dirichlet(np.ones(4))
        target = tuple(
            float(sum(lam[j] * cols[j][i] for j in range(4))) for i in range(3)
        )
        sol = solve(cols, target, tuple(float(c) for c in rng.uniform(0, 1, size=4)))
        assert sol is not None
        assert sol.residual <= 1e-9


def simplex_grid(steps):
    """All nonnegative integer 4-tuples summing to steps, scaled to the simplex."""
    i, j, k = np.meshgrid(
        np.arange(steps + 1), np.arange(steps + 1), np.arange(steps + 1), indexing="ij"
    )
    keep = (i + j + k) <= steps
    lam = (
        np.stack([i[keep], j[keep], k[keep], steps - i[keep] - j[keep] - k[keep]], axis=1)
        / steps
    )
    return lam


def test_grid_search_oracle():
    """Sanity oracle: exhaustive 1e-2 simplex grid agrees with the solver to 1e-2.

    Instances are built with a certificate of optimality: costs are an affine
    pull-back of the columns plus a nonnegative slack vanishing on the support
    of a planted grid point, so the optimal value is y . target analytically
    and the grid comparison has a provable margin below 1e-2.
    """
    rng = np.random.default_rng(11)
    steps = 100
    lam_grid = simplex_grid(steps)
    for _ in range(10):
        cols = rng.uniform(-1.0, 1.0, size=(4, 2))
        y = rng.uniform(-0.4, 0.4, size=2)
        cuts = np.sort(rng.integers(0, steps + 1, size=2))
        lam_star = np.array(
            [cuts[0], cuts[1] - cuts[0], steps - cuts[1], 0], dtype=float
        ) / steps
        target = lam_star @ cols
        slack = float(rng.uniform(0.1, 1.0))
        costs = cols @ y + np.array([0.0, 0.0, 0.0, slack])
        sol = solve(
            [tuple(float(v) for v in c) for c in cols],
            tuple(float(v) for v in target),
            tuple(float(c) for c in costs),
            tol=1e-6,
        )
        assert sol is not None
        assert abs(sol.cost - float(y @ target)) <= 1e-9
        mix = lam_grid @ cols
        mask = np.max(np.abs(mix - target), axis=1) <= GRID_TOL
        assert mask.any()
        grid_best = float((lam_grid[mask] @ costs).min())
        assert abs(sol.cost - grid_best) <= GRID_TOL


def test_linear_program_oracle():
    """Independent solver cross-check on fully random feasible instances."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(13)
    for _ in range(25):
        n, d = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        cols = rng.uniform(-1.0, 1.0, size=(n, d))
        lam = rng.dirichlet(np.ones(n))
        target = lam @ cols
        costs = rng.uniform(0.0, 1.0, size=n)
        sol = solve(
            [tuple(float(v) for v in c) for c in cols],
            tuple(float(v) for v in target),
            tuple(float(c) for c in costs),
        )
        assert sol is not None
        a_eq = np.vstack([cols.T, np.ones(n)])
        b_eq = np.append(target, 1.0)
        ref = linprog(costs, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n)
        assert ref.success
        assert abs(sol.cost - ref.fun) <= 1e-7


def test_column_permutation_stability():
    rng = np.random.default_rng(19)
    cols = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.25, 0.25)]
    costs = (0.3, 0.6, 0.9, 0.1)
    target = (0.4, 0.35, 0.25)
    base = solve(cols, target, costs)
    assert base is not None
    for perm in itertools.permutations(range(4)):
        sol = solve(
            [cols[p] for p in perm], target, tuple(costs[p] for p in perm)
        )
        assert sol is not None
        assert abs(sol.cost - base.cost) <= 1e-12


def test_weights_lie_on_probability_simplex():
    rng = np.random.default_rng(23)
    for _ in range(10):
        cols = [tuple(float(v) for v in rng.uniform(-1, 1, size=3)) for _ in range(5)]
        lam = rng.dirichlet(np.ones(5))
        target = tuple(
            float(sum(lam[j] * cols[j][i] for j in range(5))) for i in range(3)
        )
        sol = solve(cols, target, tuple(float(c) for c in rng.uniform(0, 1, size=5)))
        assert sol is not None
        assert all(w >= -1e-15 for w in sol.weights)
        assert abs(sum(sol.weights) - 1.0) <= 1e-12


def test_near_feasible_target_accepted_within_tol():
    sol = solve([(1.0, 0.0), (0.0, 1.0)], (0.5 + 4e-10, 0.5), (0.0, 1.0), tol=1e-9)
    assert sol is not None
    assert sol.residual <= 1e-9


def test_clearly_infeasible_target_rejected():
    sol = solve([(1.0, 0.0), (0.0, 1.0)], (0.5 + 1e-5, 0.5), (0.0, 1.0), tol=1e-9)
    assert sol is None


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        SimplexProgram(columns=[(1.0, 0.0), (0.0,)], target=(1.0, 0.0), costs=(0.0, 0.0))
    with pytest.raises(ValidationError):
        SimplexProgram(columns=[(1.0, 0.0)], target=(1.0,), costs=(0.0,))
    with pytest.raises(ValidationError):
        SimplexProgram(columns=[(1.0, 0.0)], target=(1.0, 0.0), costs=(0.0, 1.0))


def test_nonfinite_entries_rejected():
    with pytest.raises(ValidationError):
        SimplexProgram(
            columns=[(float("nan"), 0.0)], target=(1.0, 0.0), costs=(0.0,)
        )


def test_unbounded_ray_raises():
    # min -x1 subject to x0 - x1 = 1: x1 grows without bound along the ray
    rows, rhs, basis = [[Fraction(1), Fraction(-1)]], [Fraction(1)], [0]
    with pytest.raises(RuntimeError, match="unbounded ray"):
        convexgeom._run_simplex(rows, rhs, basis, [Fraction(0), Fraction(-1)])


# The dense solver the sparse one replaced, kept verbatim as a twin: every
# entry of every row is updated on each pivot, and every reduced cost is summed
# over all rows on each iteration. Exact arithmetic makes both solvers see the
# same rationals, so their pivots and results must agree to the bit.


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


def dense_min_cost_combination(prog, tol):
    """min_cost_combination's body around the dense twin."""
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
    return convexgeom.SimplexSolution(
        weights=tuple(float(x) for x in lam),
        cost=float(cost),
        residual=float(residual),
    )


def twin_corpus(count=240, seed=2027):
    """Seeded programs over every path of the solver.

    Columns come from a coarse grid (degenerate pivots and ratio ties) or are
    uniform in [-1, 1] (negative targets flip rows). Duplicate and zero
    columns, repeated and all-zero coordinates (redundant rows), tied costs and
    both n > m and m > n occur. Targets are vertices, exact grid mixtures,
    float mixtures (reachable only within tol, so re-targeted), perturbed
    mixtures and infeasible points; every fifth program runs at tol 0.
    """
    rng = np.random.default_rng(seed)
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    corpus = []
    for case in range(count):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        cols = rng.choice(grid, size=(n, d)) if case % 2 else rng.uniform(-1.0, 1.0, size=(n, d))
        if n > 1 and rng.random() < 0.5:
            cols[rng.integers(n)] = cols[rng.integers(n)]
        if rng.random() < 0.3:
            cols[rng.integers(n)] = 0.0
        if d > 1 and rng.random() < 0.3:
            cols[:, rng.integers(d)] = cols[:, rng.integers(d)]
        if rng.random() < 0.3:
            cols[:, rng.integers(d)] = 0.0
        costs = rng.choice([0.0, 0.5, 1.0], size=n) if rng.random() < 0.5 else rng.uniform(0.0, 1.0, size=n)
        kind = case % 6
        if kind == 0:
            target = cols[rng.integers(n)].copy()
        elif kind == 1:
            quarters = rng.multinomial(4, np.ones(n) / n) / 4.0
            target = quarters @ cols
        elif kind in (2, 3):
            target = rng.dirichlet(np.ones(n)) @ cols
            if kind == 3:
                target = target + rng.uniform(-1e-11, 1e-11, size=d)
        elif kind == 4:
            target = rng.dirichlet(np.ones(n)) @ cols
            target[rng.integers(d)] += rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0)
        else:
            target = rng.uniform(-1.5, 1.5, size=d)
        tol = 0.0 if case % 5 == 0 else 1e-9
        corpus.append(
            (SimplexProgram(columns=[tuple(c) for c in cols], target=tuple(target), costs=tuple(costs)), tol)
        )
    return corpus


def _hexed(sol):
    if sol is None:
        return None
    return [w.hex() for w in sol.weights], sol.cost.hex(), sol.residual.hex()


def test_sparse_pivots_match_dense_twin(monkeypatch):
    """Same pivots, same weights, cost and residual to the bit, on every path."""
    dense_seq, sparse_seq = [], []

    def dense_spy(rows, rhs, basis, i, j):
        dense_seq.append((i, basis[i], j))
        _dense_pivot(rows, rhs, basis, i, j)

    def sparse_spy(rows, rhs, basis, i, j, red=None):
        sparse_seq.append((i, basis[i], j))
        # a pivot the twin never made fails here, before a wrong tableau can cycle
        assert sparse_seq == dense_seq[: len(sparse_seq)]
        sparse_pivot(rows, rhs, basis, i, j, red)

    _dense_pivot, sparse_pivot = _pivot, convexgeom._pivot
    monkeypatch.setattr(sys.modules[__name__], "_pivot", dense_spy)
    monkeypatch.setattr(convexgeom, "_pivot", sparse_spy)
    outcomes = {"none": 0, "exact": 0, "retarget": 0, "tol0": 0}
    for prog, tol in twin_corpus():
        dense_seq.clear()
        sparse_seq.clear()
        dense = dense_min_cost_combination(prog, tol)
        try:
            sparse = min_cost_combination(prog, tol=tol)
        except RuntimeError as exc:  # the unbounded-ray raise
            pytest.fail(f"public call reached {exc!r}")
        assert sparse_seq == dense_seq
        assert _hexed(sparse) == _hexed(dense)
        if sparse is None:
            outcomes["none"] += 1
        else:
            outcomes["retarget" if sparse.residual > 0.0 else "exact"] += 1
            outcomes["tol0"] += tol == 0.0
    assert min(outcomes.values()) >= 10, outcomes


def extreme_corpus(count=96, seed=2029):
    """Seeded programs whose entries span the float range: 1e+-300, the smallest
    subnormal 5e-324, and 1e-200 beside 1e200 in the first coordinate, so the
    lcm scaling makes integer rows of thousands of bits. Targets are vertices,
    float mixtures of the columns other than the one holding 1e200 (their
    entries drawn from the pool's values of magnitude at most 1, so some are
    reachable only within tol and are re-targeted), midpoints and random
    points; half the vertices and half the mixtures run at tol 0."""
    rng = np.random.default_rng(seed)
    pool = np.array([1e300, -1e300, 1e200, -1e200, 1e-300, 5e-324, -5e-324, 1e-200, 0.0, 0.5, 1.0])
    corpus = []
    for case in range(count):
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        kind = case % 4
        cols = rng.choice(pool[4:] if kind == 1 else pool, size=(n, d))
        cols[0, 0], cols[1, 0] = 1e-200, 1e200
        costs = rng.choice(pool, size=n)
        if kind == 0:
            target = cols[rng.integers(n)].copy()
        elif kind == 1:
            lam = rng.dirichlet(np.ones(n))
            lam[1] = 0.0
            target = lam / lam.sum() @ cols
        elif kind == 2:
            target = 0.5 * cols[rng.integers(n)] + 0.5 * cols[rng.integers(n)]
        else:
            target = rng.choice(pool, size=d)
        tol = 0.0 if case % 8 in (1, 4) else 1e-9
        corpus.append(
            (SimplexProgram(columns=[tuple(c) for c in cols], target=tuple(target), costs=tuple(costs)), tol)
        )
    return corpus


def test_integer_rows_match_dense_twin_at_extreme_magnitudes(monkeypatch):
    """The dense twin's pivots and bits across the float range, and after every
    pivot each row holds ints, a positive basic entry and gcd 1 with its rhs."""
    dense_seq, int_seq, widest = [], [], [0]

    def dense_spy(rows, rhs, basis, i, j):
        dense_seq.append((i, basis[i], j))
        _dense_pivot(rows, rhs, basis, i, j)

    def int_spy(rows, rhs, basis, i, j, red=None):
        int_seq.append((i, basis[i], j))
        assert int_seq == dense_seq[: len(int_seq)]
        int_pivot(rows, rhs, basis, i, j, red)
        for row, r, bi in zip(rows, rhs, basis):
            assert all(type(x) is int for x in row) and type(r) is int
            assert row[bi] > 0
            assert math.gcd(*row, r) == 1
            widest[0] = max(widest[0], *(abs(x).bit_length() for x in row))

    _dense_pivot, int_pivot = _pivot, convexgeom._pivot
    monkeypatch.setattr(sys.modules[__name__], "_pivot", dense_spy)
    monkeypatch.setattr(convexgeom, "_pivot", int_spy)
    outcomes = {"none": 0, "exact": 0, "retarget": 0}
    for prog, tol in extreme_corpus():
        dense_seq.clear()
        int_seq.clear()
        dense = dense_min_cost_combination(prog, tol)
        got = min_cost_combination(prog, tol=tol)
        assert int_seq == dense_seq
        assert _hexed(got) == _hexed(dense)
        outcomes["none" if got is None else "retarget" if got.residual > 0.0 else "exact"] += 1
    assert min(outcomes.values()) >= 5, outcomes
    assert widest[0] >= 2000
