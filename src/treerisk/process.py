"""Adapted and scenario-resolved processes, running suprema, projections."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum, isfinite
from typing import Mapping

from .errors import ValidationError
from .scenario import ScenarioTree


def _require_same_tree(a: ScenarioTree, b: ScenarioTree) -> None:
    if a is not b:
        raise ValidationError("tree mismatch: operands were built on different scenario trees")


def _check_finite(value: float, label: str, *args: object) -> float:
    """``value`` as a finite float; the place, ``label.format(*args)``, is built on failure only."""
    v = float(value)
    if not isfinite(v):
        raise ValidationError(f"non-finite value {value!r} at {label.format(*args)}")
    return v


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given, without its checks.

    For values the caller built from already validated ones.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _check_grid(
    tree: ScenarioTree, entries: Mapping[tuple[str, int], float], lo: int, label: str
) -> dict[tuple[str, int], float]:
    """Check values keyed on (leaf, k), k = lo..K: known leaves, finite floats, full coverage."""
    K = tree.K
    vals = {}
    for (leaf, k), v in entries.items():
        if tree.index.get(leaf, -1) < tree.first_leaf:
            raise ValidationError(f"{label} keyed on unknown leaf '{leaf}'")
        if not lo <= k <= K:
            raise ValidationError(f"{label} at ({leaf}, {k}) out of range {lo}..{K}")
        vals[(leaf, int(k))] = _check_finite(v, "{} ({}, {})", label, leaf, k)
    for leaf in tree.leaves:
        for k in range(lo, K + 1):
            if (leaf, k) not in vals:
                raise ValidationError(f"{label} is missing at ({leaf}, {k})")
    return vals


@dataclass(frozen=True)
class AdaptedProcess:
    """A process carrying one value per tree node.

    Measurability is structural: the depth-k slice only sees the depth-k node,
    so any node-keyed value assignment is adapted by construction.
    """

    tree: ScenarioTree
    values: dict[str, float]

    def __post_init__(self):
        vals = {}
        for nid, v in self.values.items():
            if nid not in self.tree.index:
                raise ValidationError(f"process value given for unknown node '{nid}'")
            vals[nid] = _check_finite(v, "node '{}'", nid)
        for nid in self.tree.order:
            if nid not in vals:
                raise ValidationError(f"process is missing a value at node '{nid}'")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, tree: ScenarioTree, c: float) -> "AdaptedProcess":
        c = float(c)
        return cls(tree, {nid: c for nid in tree.order})

    @classmethod
    def zero(cls, tree: ScenarioTree) -> "AdaptedProcess":
        return cls.constant(tree, 0.0)

    def __add__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        _require_same_tree(self.tree, other.tree)
        return AdaptedProcess(
            self.tree, {n: self.values[n] + other.values[n] for n in self.tree.order}
        )

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        _require_same_tree(self.tree, other.tree)
        return AdaptedProcess(
            self.tree, {n: self.values[n] - other.values[n] for n in self.tree.order}
        )

    def __neg__(self) -> "AdaptedProcess":
        return self.scale(-1.0)

    def scale(self, c: float) -> "AdaptedProcess":
        c = float(c)
        return AdaptedProcess(self.tree, {n: c * v for n, v in self.values.items()})

    def shift(self, m: float) -> "AdaptedProcess":
        m = float(m)
        return AdaptedProcess(self.tree, {n: v + m for n, v in self.values.items()})


@dataclass(frozen=True)
class StaticRV:
    """A terminal-time random variable, one value per leaf."""

    tree: ScenarioTree
    values: dict[str, float]

    def __post_init__(self):
        vals, index = {}, self.tree.index
        for leaf, v in self.values.items():
            if leaf not in index:
                raise ValidationError(f"value given for unknown leaf '{leaf}'")
            if index[leaf] < self.tree.first_leaf:
                raise ValidationError(f"'{leaf}' is not a leaf; static values live on leaves only")
            vals[leaf] = _check_finite(v, "leaf '{}'", leaf)
        for leaf in self.tree.leaves:
            if leaf not in vals:
                raise ValidationError(f"missing value at leaf '{leaf}'")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, tree: ScenarioTree, c: float) -> "StaticRV":
        c = float(c)
        return cls(tree, {leaf: c for leaf in tree.leaves})

    def expectation(self) -> float:
        p = self.tree.prob
        return fsum(p[leaf] * self.values[leaf] for leaf in self.tree.leaves)

    def scale(self, c: float) -> "StaticRV":
        c = float(c)
        return StaticRV(self.tree, {leaf: c * v for leaf, v in self.values.items()})

    def __add__(self, other: "StaticRV") -> "StaticRV":
        _require_same_tree(self.tree, other.tree)
        return StaticRV(
            self.tree, {leaf: self.values[leaf] + other.values[leaf] for leaf in self.tree.leaves}
        )

    def __sub__(self, other: "StaticRV") -> "StaticRV":
        _require_same_tree(self.tree, other.tree)
        return StaticRV(
            self.tree, {leaf: self.values[leaf] - other.values[leaf] for leaf in self.tree.leaves}
        )

    def __neg__(self) -> "StaticRV":
        return self.scale(-1.0)


@dataclass(frozen=True)
class RawProcess:
    """A time-indexed value per leaf, with no measurability tied to the tree.

    Raw processes live over the constant filtration in which every leaf is
    already visible at time zero; they are the natural inputs of the optional
    and predictable projections. Values must cover every (leaf, depth) pair.
    """

    tree: ScenarioTree
    values: dict[tuple[str, int], float]

    def __post_init__(self):
        object.__setattr__(self, "values", _check_grid(self.tree, self.values, 0, "raw process"))

    @classmethod
    def from_adapted(cls, X: AdaptedProcess) -> "RawProcess":
        """Resolve an adapted process along each path: value at (leaf, k) is X at the depth-k ancestor."""
        return _unchecked(cls, tree=X.tree, values=X.tree.along_paths(X.values))


def terminal_values(X: AdaptedProcess) -> StaticRV:
    """The terminal slice of an adapted process as a leaf-keyed random variable."""
    return StaticRV(X.tree, {leaf: X.values[leaf] for leaf in X.tree.leaves})


def running_sup(X: AdaptedProcess) -> StaticRV:
    """Pathwise supremum of |X| from the root through each leaf."""
    tree = X.tree
    sup = list(map(abs, map(X.values.__getitem__, tree.order)))
    for i, parent in enumerate(tree.parent.tolist()):  # canonical order puts parents first
        sup[i] = max(sup[parent], sup[i])
    return StaticRV(tree, dict(zip(tree.leaves, sup[tree.first_leaf :])))


def sup_norm(X: AdaptedProcess) -> float:
    """Essential supremum of the running supremum (plain maximum: every leaf has mass)."""
    return max(running_sup(X).values.values())


def optional_projection_static(Y: StaticRV) -> AdaptedProcess:
    """Martingale closure of Y: at each node the probability-weighted mean of its leaves.

    The terminal slice reproduces Y exactly and successive slices satisfy the
    one-step martingale identity up to rounding.
    """
    tree = Y.tree
    y = list(map(Y.values.__getitem__, tree.leaves_under(tree.root)))
    return AdaptedProcess(tree, dict(zip(tree.order, tree.node_means([y] * (tree.K + 1)))))


def optional_projection_raw(Z: RawProcess) -> AdaptedProcess:
    """Optional projection: at a depth-k node, the conditional mean of the depth-k raw slice."""
    return AdaptedProcess(Z.tree, Z.tree.slice_means(Z.values))


def predictable_projection_raw(Z: RawProcess) -> AdaptedProcess:
    """Predictable projection: condition each depth-k slice on the parent node.

    At the root the conditioning information is trivial, so the depth-0 slice
    is replaced by its unconditional mean. Siblings share their parent's
    value.
    """
    tree = Z.tree
    [root_mean] = tree.node_means([[Z.values[(leaf, 0)] for leaf in tree.leaves_under(tree.root)]])
    ahead = list(tree.slice_means(Z.values, 1).values())  # by canonical index
    values = [root_mean, *map(ahead.__getitem__, tree.parent[1:].tolist())]
    return AdaptedProcess(tree, dict(zip(tree.order, values)))


def prob_sup_exceedance(X: AdaptedProcess, Y: AdaptedProcess, eps: float) -> float:
    """P[ sup_k |X_k - Y_k| > eps ], the mass of leaves whose paths ever separate by more than eps."""
    _require_same_tree(X.tree, Y.tree)
    eps = float(eps)
    if not eps > 0.0:
        raise ValidationError(f"eps must be positive, got {eps!r}")
    return fsum(X.tree.prob[leaf] for leaf, s in running_sup(X - Y).values.items() if s > eps)
