"""Bi-measures: paired predictable/optional increment fields on a scenario tree.

A bi-measure plays the role of a dual variable against adapted processes. It
stores two increment fields: a predictable one, whose increment is decided one
step ahead (stored on the depth-k node, acting at time k+1, reading the left
limit of the process, which on the tree is the value at the storage node), and
an optional one acting at the storage node itself, with mass at time zero
allowed. Increments are stored sparsely; a missing entry means zero.

This module owns the sparse layout: ``node``, the ascending canonical indices
of the nodes where either field is nonzero, and ``pr`` and ``op``, the two
fields there (+0.0 where a field stores nothing). ``_layout`` builds it from
(index, value) pairs per field, for every producer and the file reader.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from math import fsum, isfinite
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .process import AdaptedProcess, RawProcess, StaticRV, _require_same_tree
from .process import _Arrays, _dfs_rows, _grid_dict, _hold, _new, _read_grid
from .scenario import ScenarioTree, _is_int, segment_fsums

DENSITY_NORM_TOL = 1e-9  # how far from 1 a terminal density's mean may be
_NO_ENTRIES = (np.empty(0, np.intp), np.empty(0))  # an empty field's (index, value) pairs


def _read_fields(tree: ScenarioTree, nodes: Sequence, values: Sequence, m: int):
    """(node, value) entries, the predictable field's ``m`` first and then the optional field's, as
    canonical indices and floats per field, read in one pass. When that fails, the entries are
    walked in input order and the first fault raises: an unknown node, a predictable increment
    at a leaf, a value ``float`` refuses, a non-finite value."""
    try:
        at = np.fromiter(map(tree.index.__getitem__, nodes), np.intp, len(nodes))
        val = np.fromiter(values, float, len(values))  # None reads nan, which the walk refuses
        # no predictable increment at a leaf, every value finite (count_nonzero outruns a reduction)
        if not np.count_nonzero(at[:m] >= tree.first_leaf) and np.count_nonzero(np.isfinite(val)) == len(val):
            return at[:m], val[:m], at[m:], val[m:]
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    for i, (nid, v) in enumerate(zip(nodes, values)):
        field, end = ("predictable", tree.first_leaf) if i < m else ("optional", len(tree.order))
        if tree.position(nid) >= end:
            raise ValidationError(
                f"{field} increment stored at node '{nid}' (depth {tree.K}); "
                f"entries are only allowed up to depth {tree.K - 1}"
            )
        try:
            v = float(v)
        except (TypeError, ValueError):
            raise ValidationError(f"non-numeric {field} increment {v!r} at node '{nid}'") from None
        except OverflowError:
            raise ValidationError(f"{field} increment at node '{nid}' is an integer beyond the float range") from None
        if not isfinite(v):
            raise ValidationError(f"non-finite {field} increment at node '{nid}'")


def _layout(tree: ScenarioTree, pr_at, pr_val, op_at, op_val) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (node, pr, op) layout of (canonical index, value) pairs per field; a field's
    values at one node add up, and nodes where both fields are ±0.0 are dropped."""
    n = len(tree.order)
    # each field summed per node from +0.0, so -0.0 becomes +0.0; bincount gives int64 for no entries
    pr = np.bincount(pr_at, pr_val, n).astype(float, copy=False)
    op = np.bincount(op_at, op_val, n).astype(float, copy=False)
    node = np.flatnonzero(pr.astype(bool) | op.astype(bool))
    return node, pr[node], op[node]


def _build(tree: ScenarioTree, pr_at, pr_val, op_at, op_val) -> "BiMeasure":
    return _new(BiMeasure, tree, *_layout(tree, pr_at, pr_val, op_at, op_val))


@dataclass(frozen=True)
class BiMeasure(_Arrays):
    """Sparse predictable/optional increment pair over one tree.

    ``pr_inc`` lives on depths 0..K-1 (an increment stored at a depth-k node
    acts at time k+1); ``op_inc`` lives on all depths, the root included.
    Exact zeros are dropped at construction so equal objects compare equal.
    The read-only arrays ``node``, ``pr`` and ``op`` hold the layout the
    module docstring describes; the two dicts hold the nonzero entries in
    canonical order, built from the arrays on first read, then kept.
    """

    tree: ScenarioTree
    pr_inc: dict[str, float]
    op_inc: dict[str, float]
    _DICTS = {"pr_inc": lambda a: a._nonzero(a.pr), "op_inc": lambda a: a._nonzero(a.op)}

    def __post_init__(self):
        tree, (pr, op) = self.tree, map(vars(self).pop, ("pr_inc", "op_inc"))
        self._keep(*_layout(tree, *_read_fields(tree, [*pr, *op], [*pr.values(), *op.values()], len(pr))))

    def _keep(self, node: np.ndarray, pr: np.ndarray, op: np.ndarray) -> None:
        for field, values in (("predictable", pr), ("optional", op)):
            finite = np.isfinite(values)
            if not finite.all():  # an overflow in arithmetic
                raise ValidationError(f"non-finite {field} increment at node '{self.tree.order[node[finite.argmin()]]}'")
        _hold(self, node=node, pr=pr, op=op)

    def _nonzero(self, field: np.ndarray) -> dict[str, float]:
        return {self.tree.order[i]: v for i, v in zip(self.node.tolist(), field.tolist()) if v}

    @property
    def is_positive(self) -> bool:
        return bool(min(self.pr.min(initial=0.0), self.op.min(initial=0.0)) >= 0.0)

    def scale(self, c: float) -> "BiMeasure":
        c = float(c)
        with np.errstate(all="ignore"):  # an overflow raises in _keep; 0.0 * inf is nan, so skip the zeros
            pr, op = (np.where(f, f * c, 0.0) for f in (self.pr, self.op))
        return _build(self.tree, self.node, pr, self.node, op)

    def __neg__(self) -> "BiMeasure":
        return self.scale(-1.0)

    def __add__(self, other: "BiMeasure") -> "BiMeasure":
        _require_same_tree(self.tree, other.tree)
        node = np.concatenate((self.node, other.node))
        pr, op = np.concatenate((self.pr, other.pr)), np.concatenate((self.op, other.op))
        return _build(self.tree, node, pr, node, op)  # the fields add up where both store

    def __sub__(self, other: "BiMeasure") -> "BiMeasure":
        return self + (-other)


@dataclass(frozen=True)
class RawBiMeasure(_Arrays):
    """Increment pair resolved per leaf, over the constant filtration.

    ``left_inc`` is keyed on (leaf, k) for k = 1..K and pairs against the
    previous process value; ``right_inc`` is keyed on k = 0..K and pairs
    against the current one. Coverage must be complete. ``left_grid`` and
    ``right_grid`` hold them as (L, K + 1) grids, one row per leaf in
    canonical leaf order; the left grid's column 0 holds 0.0. The two dicts
    are built from the grids on first read, then kept.
    """

    tree: ScenarioTree
    left_inc: dict[tuple[str, int], float]
    right_inc: dict[tuple[str, int], float]
    _DICTS = {"left_inc": _grid_dict("left_grid", 1), "right_inc": _grid_dict("right_grid", 0)}

    def __post_init__(self):
        tree, fields = self.tree, vars(self)
        left = _read_grid(tree, fields.pop("left_inc"), 1, "left increment")
        self._keep(left, _read_grid(tree, fields.pop("right_inc"), 0, "right increment"))

    def _keep(self, left: np.ndarray, right: np.ndarray) -> None:
        _hold(self, left_grid=left, right_grid=right)


def as_raw(a: BiMeasure) -> RawBiMeasure:
    """Resolve a bi-measure along each path into its raw counterpart."""
    tree = a.tree
    nodes = np.zeros((len(tree.order), 2))  # pr and op per canonical node
    nodes[a.node] = np.column_stack((a.pr, a.op))
    paths = tree._paths
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
    node = a.node
    with np.errstate(all="ignore"):
        terms = (X.tree.node_prob[node] * X.vector[node] * (a.pr + a.op)).tolist()
    with suppress(OverflowError, ValueError):  # a partial sum past the float range; inf - inf
        if isfinite(total := fsum(terms)):
            return total
    raise ValidationError("non-finite pairing: a term or the sum passes the float range")


def raw_pairing(Z: RawProcess, a: RawBiMeasure) -> float:
    """Pairing over the constant filtration: per-leaf increment sums, then expectation."""
    _require_same_tree(Z.tree, a.tree)
    with np.errstate(all="ignore"):
        weighted = Z.tree.leaf_prob[:, None] * Z.grid  # P(leaf) Z(leaf, k)
        left = weighted[:, :-1] * a.left_grid[:, 1:]  # the left increment at k reads Z at k - 1
        terms = np.concatenate((left.ravel(), (weighted * a.right_grid).ravel()))
    return segment_fsums(terms[:, None])[0]


def _leaf_sums(a: BiMeasure, *maps) -> np.ndarray:
    """Shape (len(maps), L) over the canonical leaves: row s holds, per leaf, the fsum of maps[s] of
    the increments (pr and op in two columns) along its path, 0.0 where no increment lies on it. One
    ``path_sums`` call, one segment of a's nodes per map; a single map's terms go in uncopied."""
    tree, k, m = a.tree, len(a.node), len(maps)
    incs = np.array((a.pr, a.op)).T
    node, terms = (a.node, maps[0](incs)) if m == 1 else (np.tile(a.node, m), np.concatenate([f(incs) for f in maps]))
    sums = tree.path_sums(node, terms, [(s * k, s * k + k) for s in range(m)])
    out, at = np.zeros((m, len(tree.leaves))), tree.leaf_paths()[:, -1][sums[0][0]] - tree.first_leaf
    for row, (_, s) in zip(out, sums):
        row[at] = s
    return out


def variation(a: BiMeasure) -> StaticRV:
    """Pathwise total variation: the sum of absolute increments seen along each leaf's path."""
    return _new(StaticRV, a.tree, _leaf_sums(a, np.abs)[0])


def variation_norm(a: BiMeasure, p: float = 1.0) -> float:
    """L^p norm of the pathwise variation under the leaf measure (p = inf gives the max)."""
    var = _leaf_sums(a, np.abs)[0]
    if p == math.inf:
        return max(var.tolist())
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"norm order must satisfy p >= 1, got {p!r}")
    at = var.nonzero()[0]  # the covered leaves; the others would add 0.0 to the fsum
    prob, var = a.tree.leaf_prob[at].tolist(), var[at].tolist()
    try:
        return fsum(q * v**p for q, v in zip(prob, var)) ** (1.0 / p)
    except OverflowError:  # a power or the sum passed the float range: ||v||_p = M ||v / M||_p
        top = max(var)
        return top * fsum(q * (v / top) ** p for q, v in zip(prob, var)) ** (1.0 / p)


def jordan(a: BiMeasure) -> tuple[BiMeasure, BiMeasure]:
    """Increment-wise positive and negative parts; a == plus - minus exactly."""
    tree, node = a.tree, a.node
    plus = _build(tree, node, np.maximum(a.pr, 0.0), node, np.maximum(a.op, 0.0))
    minus = _build(tree, node, np.maximum(-a.pr, 0.0), node, np.maximum(-a.op, 0.0))
    return plus, minus


def terminal_increment(a: BiMeasure) -> StaticRV:
    """Signed sum of all increments along each path: the net terminal mass a_T - a_0."""
    return _new(StaticRV, a.tree, _leaf_sums(a, np.asarray)[0])


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
    return _build(tree, np.arange(len(pr)), pr, np.arange(len(op)), op)


def normalize_scenario(a: BiMeasure) -> BiMeasure:
    """Scale a nonnegative bi-measure to unit expected variation.

    The result is a generalized scenario: the density-like dual objects the
    risk representations draw from.
    """
    if not a.is_positive:  # name the first negative predictable, then optional, increment
        first = np.flatnonzero(np.concatenate((a.pr, a.op)) < 0.0)[0] % len(a.node)
        raise ValidationError(
            f"negative increment at node '{a.tree.order[a.node[first]]}'; "
            "normalization requires a nonnegative bi-measure"
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
    taus = np.fromiter(map(tau.__getitem__, tree.leaves), np.intp, len(tree.leaves))
    at = tree._paths[np.arange(len(taus)), taus]  # the node where each leaf's path stops
    stops = np.bincount(at, minlength=len(tree.order))  # per node, the leaves below it stopping there
    lo, hi = tree.node_spans()
    mixed = np.flatnonzero((stops > 0) & (stops < hi - lo))  # in canonical order, so depth by depth
    if len(mixed):
        i = mixed[0]
        k = taus[(at == i).argmax()]
        raise ValidationError(f"stopping decision at depth {k} is not measurable at node '{tree.order[i]}'")
    op = np.flatnonzero(stops)
    return _build(tree, *_NO_ENTRIES, op, np.ones(len(op)))


def terminal_density_measure(f: StaticRV) -> BiMeasure:
    """Terminal optional mass weighted by a probability density on the leaves."""
    tree = f.tree
    if f.vector.min() < 0.0:
        raise ValidationError(f"density is negative at leaf '{tree.leaves[(f.vector < 0.0).argmax()]}'")
    mean = f.expectation()
    if abs(mean - 1.0) > DENSITY_NORM_TOL:
        raise ValidationError(f"density must integrate to 1, got {mean!r}")
    return _build(tree, *_NO_ENTRIES, np.arange(tree.first_leaf, len(tree.order)), f.vector)


def increment_vector(a: BiMeasure) -> list[float]:
    """Flatten to the canonical coordinate layout: predictable entries (depths 0..K-1), then optional (all depths)."""
    tree = a.tree
    fields = np.zeros((2, len(tree.order)))
    fields[:, a.node] = a.pr, a.op
    return fields[0, : tree.first_leaf].tolist() + fields[1].tolist()
