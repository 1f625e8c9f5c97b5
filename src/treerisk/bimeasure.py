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
from .process import (
    AdaptedProcess,
    RawProcess,
    StaticRV,
    _check_grid,
    _require_same_tree,
    _unchecked,
)
from .scenario import ScenarioTree, _is_int

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
    against the current one. Coverage must be complete.
    """

    tree: ScenarioTree
    left_inc: dict[tuple[str, int], float]
    right_inc: dict[tuple[str, int], float]

    def __post_init__(self):
        tree = self.tree
        object.__setattr__(self, "left_inc", _check_grid(tree, self.left_inc, 1, "left increment"))
        object.__setattr__(self, "right_inc", _check_grid(tree, self.right_inc, 0, "right increment"))


def as_raw(a: BiMeasure) -> RawBiMeasure:
    """Resolve a bi-measure along each path into its raw counterpart."""
    tree = a.tree
    left = {(leaf, k + 1): v for (leaf, k), v in tree.along_paths(a.pr_inc).items() if k < tree.K}
    return _unchecked(RawBiMeasure, tree=tree, left_inc=left, right_inc=tree.along_paths(a.op_inc))


def pairing(X: AdaptedProcess, a: BiMeasure) -> float:
    """Expected pathwise increment sum of X against a.

    The predictable field reads the left limit, which is the value at its
    storage node; the optional field reads the value where it sits. The
    per-path double sum therefore collapses to one term per stored increment,
    P(n) * X(n) * (pr(n) + op(n)).
    """
    _require_same_tree(X.tree, a.tree)
    prob = X.tree.prob
    pr, op = a.pr_inc, a.op_inc
    return fsum(
        prob[n] * X.values[n] * (pr.get(n, 0.0) + op.get(n, 0.0)) for n in pr.keys() | op.keys()
    )


def raw_pairing(Z: RawProcess, a: RawBiMeasure) -> float:
    """Pairing over the constant filtration: per-leaf increment sums, then expectation."""
    _require_same_tree(Z.tree, a.tree)
    tree = Z.tree
    K = tree.K
    terms = []
    for leaf in tree.leaves:
        p = tree.prob[leaf]
        for k in range(1, K + 1):
            terms.append(p * Z.values[(leaf, k - 1)] * a.left_inc[(leaf, k)])
        for k in range(K + 1):
            terms.append(p * Z.values[(leaf, k)] * a.right_inc[(leaf, k)])
    return fsum(terms)


def _stored(a: BiMeasure) -> tuple[np.ndarray, np.ndarray]:
    """a's stored nodes, each once (the predictable ones, then the optional-only ones):
    their canonical indices and an (n, 2) array of the pr and op increments (0.0 where absent)."""
    nodes = {**a.pr_inc, **a.op_inc}
    index = np.fromiter(map(a.tree.index.__getitem__, nodes), np.intp, len(nodes))
    pairs = chain.from_iterable(zip(*(map(f.get, nodes, repeat(0.0)) for f in (a.pr_inc, a.op_inc))))
    return index, np.fromiter(pairs, float, 2 * len(nodes)).reshape(-1, 2)


def _path_sums(a: BiMeasure, term=None) -> dict[str, float]:
    """Per leaf whose path holds an increment, the fsum of term(increment) over both
    fields along it: one segment of the tree's kernel, pr and op in two columns."""
    tree = a.tree
    index, incs = _stored(a)
    [(leaves, sums)] = tree.path_sums(index, incs if term is None else term(incs), [(0, len(index))])
    return dict(zip(map(tree.leaves_under(tree.root).__getitem__, leaves.tolist()), sums.tolist()))


def variation(a: BiMeasure) -> StaticRV:
    """Pathwise total variation: the sum of absolute increments seen along each leaf's path."""
    return StaticRV(a.tree, {**dict.fromkeys(a.tree.leaves, 0.0), **_path_sums(a, np.abs)})


def variation_norm(a: BiMeasure, p: float = 1.0) -> float:
    """L^p norm of the pathwise variation under the leaf measure (p = inf gives the max)."""
    var = _path_sums(a, np.abs)
    if p == math.inf:
        return max(var.values(), default=0.0)
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"norm order must satisfy p >= 1, got {p!r}")
    prob = a.tree.prob
    total = fsum(prob[leaf] * v**p for leaf, v in var.items())
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
    return StaticRV(a.tree, {**dict.fromkeys(a.tree.leaves, 0.0), **_path_sums(a)})


def dual_projection(a: RawBiMeasure) -> BiMeasure:
    """Project a raw increment pair onto the tree filtration.

    The predictable part stored at a depth-k node is the conditional mean of
    the raw left increment acting at k+1; the optional part at a node is the
    conditional mean of the raw right increment at the same depth. In discrete
    time no mass is left over for a continuous part.
    """
    tree = a.tree
    return BiMeasure(tree, tree.slice_means(a.left_inc, 1), tree.slice_means(a.right_inc))


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
    op = {leaf: f.values[leaf] for leaf in tree.leaves if f.values[leaf] != 0.0}
    return BiMeasure(tree, {}, op)


def increment_vector(a: BiMeasure) -> list[float]:
    """Flatten to the canonical coordinate layout: predictable entries (depths 0..K-1), then optional (all depths)."""
    tree = a.tree
    interior = tree.order[: tree.first_leaf]
    return [a.pr_inc.get(n, 0.0) for n in interior] + [a.op_inc.get(n, 0.0) for n in tree.order]
