"""Adapted and scenario-resolved processes, running suprema, projections.

Every value type keeps its values in read-only float64 arrays in the tree's
order, and in plain dicts with the same keys in the same order, built once
from the arrays. An ``AdaptedProcess.vector`` is in canonical node order and a
``StaticRV.vector`` in canonical leaf order (``tree.leaves``). A
``RawProcess.grid`` and ``RawBiMeasure``'s ``left_grid`` and ``right_grid``
have shape (L, K + 1), row i for ``tree.leaves[i]`` and column k for depth k;
left increments act from depth 1 on, so column 0 of a left grid holds 0.0.
``node_means`` reads the depth-first leaf order, taken by one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import fsum, isfinite
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .scenario import ScenarioTree


def _require_same_tree(a: ScenarioTree, b: ScenarioTree) -> None:
    if a is not b:
        raise ValidationError("tree mismatch: operands were built on different scenario trees")


def _read(tree: ScenarioTree, entries: Mapping, keys: Sequence, place: Callable, missing: Callable):
    """The values of ``entries`` at ``keys`` as a float64 vector and a dict in that order, read in
    one pass. When it fails, the entries are walked in input order and the first fault raises: a
    key that ``place(tree, key)`` refuses (else it names its place), a non-finite value, an absent key."""
    try:
        floats = list(map(float, map(entries.get, keys)))
        vector = np.array(floats)
        if len(entries) == len(keys) and np.isfinite(vector).all():
            return vector, dict(zip(keys, floats))
    except (TypeError, ValueError, OverflowError):
        pass
    for key, value in entries.items():
        where = place(tree, key)
        if not isfinite(float(value)):
            raise ValidationError(f"non-finite value {value!r} at {where}")
    raise ValidationError(missing(next(key for key in keys if key not in entries)))


def _require_finite(vector: np.ndarray, names: Sequence[str], where: str) -> None:
    """Raise for the first non-finite entry of ``vector``, named ``where.format(names[i])``."""
    finite = np.isfinite(vector)
    if not finite.all():
        i = int(finite.argmin())
        raise ValidationError(f"non-finite value {vector[i].item()!r} {where.format(names[i])}")


def _read_grid(tree: ScenarioTree, entries: Mapping, lo: int, label: str):
    """The (L, K + 1) grid of values keyed on (leaf, k), k = lo..K (columns below lo hold
    0.0), and their dict, as ``_read`` gives them."""
    K = tree.K

    def place(tree: ScenarioTree, key) -> str:
        leaf, k = key
        if tree.index.get(leaf, -1) < tree.first_leaf:
            raise ValidationError(f"{label} keyed on unknown leaf '{leaf}'")
        if not lo <= k <= K:
            raise ValidationError(f"{label} at ({leaf}, {k}) out of range {lo}..{K}")
        if k != int(k):
            raise ValidationError(f"{label} at ({leaf}, {k}) is not at an integer depth")
        return f"{label} ({leaf}, {k})"

    keys = list(product(tree.leaves, range(lo, K + 1)))
    flat, values = _read(tree, entries, keys, place, lambda key: f"{label} is missing at ({key[0]}, {key[1]})")
    grid = np.zeros((len(tree.leaves), K + 1))
    grid[:, lo:] = flat.reshape(len(tree.leaves), K + 1 - lo)
    return grid, values


def _grid_dict(tree: ScenarioTree, grid: np.ndarray, lo: int) -> dict[tuple[str, int], float]:
    return dict(zip(product(tree.leaves, range(lo, tree.K + 1)), grid[:, lo:].ravel().tolist()))


def _hold(obj, **fields) -> None:
    """Set the fields of a frozen value; its arrays become read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


def _new(cls, tree: ScenarioTree, *arrays: np.ndarray):
    """A value of type ``cls`` over arrays in its layout, computed from checked values; only a
    process or payoff checks them, for the non-finite values an overflow leaves."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "tree", tree)
    obj._keep(*arrays)
    return obj


def _paths(tree: ScenarioTree) -> np.ndarray:
    """Shape (L, K + 1): row i holds the path of ``tree.leaves[i]`` as canonical indices."""
    return tree.leaf_paths()[tree.node_spans()[0][tree.first_leaf :]]


def _dfs_rows(tree: ScenarioTree, grid: np.ndarray) -> list[list[float]]:
    """The columns of an (L, K + 1) grid as rows over the DFS leaves, as ``node_means`` reads them."""
    return grid[tree.leaf_paths()[:, -1] - tree.first_leaf].T.tolist()


@dataclass(frozen=True)
class _Vector:
    """One value per key of the tree's ``order`` or ``leaves`` (``_KEYS``), held in ``vector``;
    ``_place``, ``_MISSING`` and ``_AT`` word the faults of a given key, an absent key and a value."""

    tree: ScenarioTree
    values: dict[str, float]

    def __post_init__(self):
        keys = getattr(self.tree, self._KEYS)
        vector, values = _read(self.tree, self.values, keys, self._place, self._MISSING.format)
        _hold(self, vector=vector, values=values)

    def _keep(self, vector: np.ndarray) -> None:
        keys = getattr(self.tree, self._KEYS)
        _require_finite(vector, keys, self._AT)
        _hold(self, vector=vector, values=dict(zip(keys, vector.tolist())))

    @classmethod
    def constant(cls, tree: ScenarioTree, c: float):
        return _new(cls, tree, np.full(len(getattr(tree, cls._KEYS)), float(c)))

    def _apply(self, op, operand):
        with np.errstate(all="ignore"):  # an overflow raises in _keep
            return _new(type(self), self.tree, op(self.vector, operand))

    def __add__(self, other):
        _require_same_tree(self.tree, other.tree)
        return self._apply(np.add, other.vector)

    def __sub__(self, other):
        _require_same_tree(self.tree, other.tree)
        return self._apply(np.subtract, other.vector)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, c: float):
        return self._apply(np.multiply, float(c))


@dataclass(frozen=True)
class AdaptedProcess(_Vector):
    """A process carrying one value per tree node; ``vector`` holds them in canonical order.

    Measurability is structural: the depth-k slice only sees the depth-k node,
    so any node-keyed value assignment is adapted by construction.
    """

    _KEYS, _MISSING, _AT = "order", "process is missing a value at node '{}'", "at node '{}'"

    @staticmethod
    def _place(tree: ScenarioTree, nid: object) -> str:
        if nid not in tree.index:
            raise ValidationError(f"process value given for unknown node '{nid}'")
        return f"node '{nid}'"

    @classmethod
    def zero(cls, tree: ScenarioTree) -> "AdaptedProcess":
        return cls.constant(tree, 0.0)

    def shift(self, m: float) -> "AdaptedProcess":
        return self._apply(np.add, float(m))


@dataclass(frozen=True)
class StaticRV(_Vector):
    """A terminal-time random variable, one value per leaf; ``vector`` holds them in canonical leaf order."""

    _KEYS, _MISSING, _AT = "leaves", "missing value at leaf '{}'", "at leaf '{}'"

    @staticmethod
    def _place(tree: ScenarioTree, leaf: object) -> str:
        if leaf not in tree.index:
            raise ValidationError(f"value given for unknown leaf '{leaf}'")
        if tree.index[leaf] < tree.first_leaf:
            raise ValidationError(f"'{leaf}' is not a leaf; static values live on leaves only")
        return f"leaf '{leaf}'"

    def expectation(self) -> float:
        return fsum((self.tree.leaf_prob * self.vector).tolist())


@dataclass(frozen=True)
class RawProcess:
    """A time-indexed value per leaf, with no measurability tied to the tree.

    Raw processes live over the constant filtration in which every leaf is
    already visible at time zero; they are the natural inputs of the optional
    and predictable projections. Values must cover every (leaf, depth) pair;
    ``grid`` holds them, one row per leaf in canonical leaf order.
    """

    tree: ScenarioTree
    values: dict[tuple[str, int], float]

    def __post_init__(self):
        grid, values = _read_grid(self.tree, self.values, 0, "raw process")
        _hold(self, grid=grid, values=values)

    def _keep(self, grid: np.ndarray) -> None:
        _hold(self, grid=grid, values=_grid_dict(self.tree, grid, 0))

    @classmethod
    def from_adapted(cls, X: AdaptedProcess) -> "RawProcess":
        """Resolve an adapted process along each path: value at (leaf, k) is X at the depth-k ancestor."""
        return _new(cls, X.tree, X.vector[_paths(X.tree)])


def terminal_values(X: AdaptedProcess) -> StaticRV:
    """The terminal slice of an adapted process as a leaf-keyed random variable."""
    return _new(StaticRV, X.tree, X.vector[X.tree.first_leaf :])


def running_sup(X: AdaptedProcess) -> StaticRV:
    """Pathwise supremum of |X| from the root through each leaf."""
    return _new(StaticRV, X.tree, np.abs(X.vector)[_paths(X.tree)].max(axis=1))


def sup_norm(X: AdaptedProcess) -> float:
    """Essential supremum of the running supremum (plain maximum: every leaf has mass)."""
    return running_sup(X).vector.max().item()


def optional_projection_static(Y: StaticRV) -> AdaptedProcess:
    """Martingale closure of Y: at each node the probability-weighted mean of its leaves.

    The terminal slice reproduces Y exactly and successive slices satisfy the
    one-step martingale identity up to rounding.
    """
    tree = Y.tree
    [y] = _dfs_rows(tree, Y.vector[:, None])
    return _new(AdaptedProcess, tree, np.array(tree.node_means([y] * (tree.K + 1))))


def optional_projection_raw(Z: RawProcess) -> AdaptedProcess:
    """Optional projection: at a depth-k node, the conditional mean of the depth-k raw slice."""
    return _new(AdaptedProcess, Z.tree, np.array(Z.tree.node_means(_dfs_rows(Z.tree, Z.grid))))


def predictable_projection_raw(Z: RawProcess) -> AdaptedProcess:
    """Predictable projection: condition each depth-k slice on the parent node.

    At the root the conditioning information is trivial, so the depth-0 slice
    is replaced by its unconditional mean. Siblings share their parent's
    value.
    """
    tree = Z.tree
    rows = _dfs_rows(tree, Z.grid)
    [root_mean] = tree.node_means(rows[:1])
    ahead = np.array(tree.node_means(rows[1:]))  # at each node above depth K, the next slice's mean
    return _new(AdaptedProcess, tree, np.concatenate(([root_mean], ahead[tree.parent[1:]])))


def prob_sup_exceedance(X: AdaptedProcess, Y: AdaptedProcess, eps: float) -> float:
    """P[ sup_k |X_k - Y_k| > eps ], the mass of leaves whose paths ever separate by more than eps."""
    _require_same_tree(X.tree, Y.tree)
    eps = float(eps)
    if not eps > 0.0:
        raise ValidationError(f"eps must be positive, got {eps!r}")
    return fsum(X.tree.leaf_prob[running_sup(X - Y).vector > eps].tolist())
