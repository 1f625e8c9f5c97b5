"""Bi-measures: paired predictable/optional increment fields on a scenario tree.

A bi-measure plays the role of a dual variable against adapted processes. It
stores two increment fields: a predictable one, whose increment is decided one
step ahead (stored on the depth-k node, acting at time k+1, reading the left
limit of the process, which on the tree is the value at the storage node), and
an optional one acting at the storage node itself, with mass at time zero
allowed. Increments are stored sparsely; a missing entry means zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import fsum, isfinite

import numpy as np

from .errors import ValidationError
from .process import AdaptedProcess, RawProcess, StaticRV, _require_same_tree
from .process import _dfs_rows, _grid_dict, _hold, _new, _paths, _read_grid
from .scenario import ScenarioTree, _is_int, segment_fsums

DENSITY_NORM_TOL = 1e-9  # how far from 1 a terminal density's mean may be


def _clean_increments(
    tree: ScenarioTree, entries: dict[str, float], *, field: str, leaves: bool
) -> dict[str, float]:
    """The nonzero entries as floats; entries must name known nodes, and leaves only where ``leaves``."""
    end = len(tree.order) if leaves else tree.first_leaf
    out: dict[str, float] = {}
    for nid, v in entries.items():
        if tree.position(nid) >= end:
            raise ValidationError(
                f"{field} increment stored at node '{nid}' (depth {tree.K}); "
                f"entries are only allowed up to depth {tree.K - 1}"
            )
        v = float(v)
        if not isfinite(v):
            raise ValidationError(f"non-finite {field} increment at node '{nid}'")
        if v != 0.0:
            out[nid] = v
    return out


@dataclass(frozen=True)
class BiMeasure:
    """Sparse predictable/optional increment pair over one tree.

    ``pr_inc`` lives on depths 0..K-1 (an increment stored at a depth-k node
    acts at time k+1); ``op_inc`` lives on all depths, the root included.
    Exact zeros are dropped at construction so equal objects compare equal.
    """

    tree: ScenarioTree
    pr_inc: dict[str, float]
    op_inc: dict[str, float]

    def __post_init__(self):
        object.__setattr__(
            self,
            "pr_inc",
            _clean_increments(self.tree, self.pr_inc, field="predictable", leaves=False),
        )
        object.__setattr__(
            self,
            "op_inc",
            _clean_increments(self.tree, self.op_inc, field="optional", leaves=True),
        )

    @property
    def is_positive(self) -> bool:
        return (
            min(self.pr_inc.values(), default=0.0) >= 0.0
            and min(self.op_inc.values(), default=0.0) >= 0.0
        )

    def scale(self, c: float) -> "BiMeasure":
        c = float(c)
        return BiMeasure(
            self.tree,
            {n: c * v for n, v in self.pr_inc.items()},
            {n: c * v for n, v in self.op_inc.items()},
        )

    def __neg__(self) -> "BiMeasure":
        return self.scale(-1.0)

    def __add__(self, other: "BiMeasure") -> "BiMeasure":
        _require_same_tree(self.tree, other.tree)
        pr = dict(self.pr_inc)
        for n, v in other.pr_inc.items():
            pr[n] = pr.get(n, 0.0) + v
        op = dict(self.op_inc)
        for n, v in other.op_inc.items():
            op[n] = op.get(n, 0.0) + v
        return BiMeasure(self.tree, pr, op)

    def __sub__(self, other: "BiMeasure") -> "BiMeasure":
        return self + (-other)


@dataclass(frozen=True)
class RawBiMeasure:
    """Increment pair resolved per leaf, over the constant filtration.

    ``left_inc`` is keyed on (leaf, k) for k = 1..K and pairs against the
    previous process value; ``right_inc`` is keyed on k = 0..K and pairs
    against the current one. Coverage must be complete. ``left_grid`` and
    ``right_grid`` hold them as (L, K + 1) grids, one row per leaf in
    canonical leaf order; the left grid's column 0 holds 0.0.
    """

    tree: ScenarioTree
    left_inc: dict[tuple[str, int], float]
    right_inc: dict[tuple[str, int], float]

    def __post_init__(self):
        left, left_inc = _read_grid(self.tree, self.left_inc, 1, "left increment")
        right, right_inc = _read_grid(self.tree, self.right_inc, 0, "right increment")
        _hold(self, left_grid=left, right_grid=right, left_inc=left_inc, right_inc=right_inc)

    def _keep(self, left: np.ndarray, right: np.ndarray) -> None:
        tree = self.tree
        _hold(self, left_grid=left, right_grid=right, left_inc=_grid_dict(tree, left, 1),
              right_inc=_grid_dict(tree, right, 0))


def as_raw(a: BiMeasure) -> RawBiMeasure:
    """Resolve a bi-measure along each path into its raw counterpart."""
    tree = a.tree
    index, incs = _stored(a)
    nodes = np.zeros((len(tree.order), 2))  # pr and op per canonical node
    nodes[index] = incs
    paths = _paths(tree)
    left = np.zeros(paths.shape)
    left[:, 1:] = nodes[paths[:, :-1], 0]  # a predictable increment acts one step after its node
    return _new(RawBiMeasure, tree, left, nodes[paths, 1])


def pairing(X: AdaptedProcess, a: BiMeasure) -> float:
    """Expected pathwise increment sum of X against a.

    The predictable field reads the left limit, which is the value at its
    storage node; the optional field reads the value where it sits. The
    per-path double sum therefore collapses to one term per stored increment,
    P(n) * X(n) * (pr(n) + op(n)).
    """
    _require_same_tree(X.tree, a.tree)
    index, incs = _stored(a)
    with np.errstate(all="ignore"):
        return fsum((X.tree.node_prob[index] * X.vector[index] * (incs[:, 0] + incs[:, 1])).tolist())


def raw_pairing(Z: RawProcess, a: RawBiMeasure) -> float:
    """Pairing over the constant filtration: per-leaf increment sums, then expectation."""
    _require_same_tree(Z.tree, a.tree)
    with np.errstate(all="ignore"):
        weighted = Z.tree.leaf_prob[:, None] * Z.grid  # P(leaf) Z(leaf, k)
        left = weighted[:, :-1] * a.left_grid[:, 1:]  # the left increment at k reads Z at k - 1
        terms = np.concatenate((left.ravel(), (weighted * a.right_grid).ravel()))
    return segment_fsums(terms[:, None])[0]


def _stored(a: BiMeasure) -> tuple[np.ndarray, np.ndarray]:
    """a's stored nodes, each once (the predictable ones, then the optional-only ones):
    their canonical indices and an (n, 2) array of the pr and op increments (0.0 where absent)."""
    nodes = {**a.pr_inc, **a.op_inc}
    index = np.fromiter(map(a.tree.index.__getitem__, nodes), np.intp, len(nodes))
    pairs = chain.from_iterable(zip(*(map(f.get, nodes, repeat(0.0)) for f in (a.pr_inc, a.op_inc))))
    return index, np.fromiter(pairs, float, 2 * len(nodes)).reshape(-1, 2)


def _path_sums(a: BiMeasure, term=None) -> tuple[np.ndarray, np.ndarray]:
    """The canonical leaf positions whose paths hold an increment and, at each, the fsum
    of term(increment) over both fields along the path: one segment of the tree's
    kernel, pr and op in two columns."""
    tree = a.tree
    index, incs = _stored(a)
    [(leaves, sums)] = tree.path_sums(index, incs if term is None else term(incs), [(0, len(index))])
    return tree.leaf_paths()[leaves, -1] - tree.first_leaf, sums


def _leaf_sums(a: BiMeasure, term=None) -> StaticRV:
    """The path sums of ``_path_sums`` as a payoff, 0.0 on the leaves no increment covers."""
    at, sums = _path_sums(a, term)
    vector = np.zeros(len(a.tree.leaves))
    vector[at] = sums
    return _new(StaticRV, a.tree, vector)


def variation(a: BiMeasure) -> StaticRV:
    """Pathwise total variation: the sum of absolute increments seen along each leaf's path."""
    return _leaf_sums(a, np.abs)


def variation_norm(a: BiMeasure, p: float = 1.0) -> float:
    """L^p norm of the pathwise variation under the leaf measure (p = inf gives the max)."""
    at, var = _path_sums(a, np.abs)
    if p == math.inf:
        return max(var.tolist(), default=0.0)
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"norm order must satisfy p >= 1, got {p!r}")
    prob = a.tree.leaf_prob[at]
    total = fsum(q * v**p for q, v in zip(prob.tolist(), var.tolist()))
    return total ** (1.0 / p)


def jordan(a: BiMeasure) -> tuple[BiMeasure, BiMeasure]:
    """Increment-wise positive and negative parts; a == plus - minus exactly."""
    plus = BiMeasure(
        a.tree,
        {n: v for n, v in a.pr_inc.items() if v > 0.0},
        {n: v for n, v in a.op_inc.items() if v > 0.0},
    )
    minus = BiMeasure(
        a.tree,
        {n: -v for n, v in a.pr_inc.items() if v < 0.0},
        {n: -v for n, v in a.op_inc.items() if v < 0.0},
    )
    return plus, minus


def terminal_increment(a: BiMeasure) -> StaticRV:
    """Signed sum of all increments along each path: the net terminal mass a_T - a_0."""
    return _leaf_sums(a)


def dual_projection(a: RawBiMeasure) -> BiMeasure:
    """Project a raw increment pair onto the tree filtration.

    The predictable part stored at a depth-k node is the conditional mean of
    the raw left increment acting at k+1; the optional part at a node is the
    conditional mean of the raw right increment at the same depth. In discrete
    time no mass is left over for a continuous part.
    """
    tree = a.tree
    pr = tree.node_means(_dfs_rows(tree, a.left_grid)[1:])  # the depth-(k + 1) slice at depth k
    op = tree.node_means(_dfs_rows(tree, a.right_grid))
    return BiMeasure(tree, dict(zip(tree.order, pr)), dict(zip(tree.order, op)))


def normalize_scenario(a: BiMeasure) -> BiMeasure:
    """Scale a nonnegative bi-measure to unit expected variation.

    The result is a generalized scenario: the density-like dual objects the
    risk representations draw from.
    """
    for n, v in list(a.pr_inc.items()) + list(a.op_inc.items()):
        if v < 0.0:
            raise ValidationError(
                f"negative increment at node '{n}'; normalization requires a nonnegative bi-measure"
            )
    norm = variation_norm(a, 1.0)
    if norm <= 0.0:
        raise ValidationError("cannot normalize the zero bi-measure")
    return a.scale(1.0 / norm)


def stopping_time_measure(tree: ScenarioTree, tau: dict[str, int]) -> BiMeasure:
    """Optional unit mass placed where the stopping rule tau fires.

    ``tau`` maps each leaf to the depth at which its path stops. The rule must
    be a genuine stopping time: whether a path stops at depth k may only
    depend on its depth-k node.
    """
    K = tree.K
    for leaf in tree.leaves:
        if leaf not in tau:
            raise ValidationError(f"stopping rule missing at leaf '{leaf}'")
        k = tau[leaf]
        if not _is_int(k) or not 0 <= k <= K:
            raise ValidationError(f"stopping depth {k!r} at leaf '{leaf}' out of range 0..{K}")
    dfs = [tau[leaf] for leaf in tree.leaves_under(tree.root)]
    spans = zip(*(bound.tolist() for bound in tree.node_spans()))
    op: dict[str, float] = {}
    for k, ids in enumerate(tree.depth_nodes):
        stops = list(accumulate((t == k for t in dfs), initial=0))  # stops among the first d DFS leaves
        for nid, (lo, hi) in zip(ids, spans):  # ids first: no span is drawn past the level
            if 0 < stops[hi] - stops[lo] < hi - lo:
                raise ValidationError(f"stopping decision at depth {k} is not measurable at node '{nid}'")
            if stops[hi] > stops[lo]:
                op[nid] = 1.0
    return BiMeasure(tree, {}, op)


def terminal_density_measure(f: StaticRV) -> BiMeasure:
    """Terminal optional mass weighted by a probability density on the leaves."""
    tree = f.tree
    for leaf in tree.leaves:
        if f.values[leaf] < 0.0:
            raise ValidationError(f"density is negative at leaf '{leaf}'")
    mean = f.expectation()
    if abs(mean - 1.0) > DENSITY_NORM_TOL:
        raise ValidationError(f"density must integrate to 1, got {mean!r}")
    return BiMeasure(tree, {}, f.values)  # the zero densities are dropped


def increment_vector(a: BiMeasure) -> list[float]:
    """Flatten to the canonical coordinate layout: predictable entries (depths 0..K-1), then optional (all depths)."""
    tree = a.tree
    interior = tree.order[: tree.first_leaf]
    return [a.pr_inc.get(n, 0.0) for n in interior] + [a.op_inc.get(n, 0.0) for n in tree.order]
