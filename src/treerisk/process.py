"""Adapted and scenario-resolved processes, running suprema, projections.

Every value type keeps its values only in read-only float64 arrays in the
tree's order; its dict fields, the same values in the same order, are each
built from the arrays on first read, then kept. An ``AdaptedProcess.vector``
is in canonical node order and a ``StaticRV.vector`` in canonical leaf order
(``tree.leaves``). A ``RawProcess.grid`` and ``RawBiMeasure``'s ``left_grid``
and ``right_grid`` have shape (L, K + 1), row i for ``tree.leaves[i]`` and
column k for depth k; left increments act from depth 1 on, so column 0 of a
left grid holds 0.0.
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
    """The values of ``entries`` at ``keys`` as a float64 vector in that order, read in one pass.
    When it fails, the entries are walked in input order and the first fault raises: a key that
    ``place(tree, key)`` refuses (else it names its place), a value ``float`` refuses, a
    non-finite value, an absent key."""
    try:
        vector = np.fromiter(map(float, map(entries.get, keys)), float, len(keys))
        if len(entries) == len(keys) and np.isfinite(vector).all():
            return vector
    except (TypeError, ValueError, OverflowError):
        pass
    for key, value in entries.items():
        where = place(tree, key)
        try:
            v = float(value)
        except (TypeError, ValueError):
            raise ValidationError(f"non-numeric value {value!r} at {where}") from None
        except OverflowError:
            raise ValidationError(f"value at {where} is an integer beyond the float range") from None
        if not isfinite(v):
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
    0.0), read as ``_read`` reads them."""
    K = tree.K

    def place(tree: ScenarioTree, key) -> str:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise ValidationError(f"{label} keyed on {key!r}, not on a (leaf, depth) pair")
        leaf, k = key
        if tree.index.get(leaf, -1) < tree.first_leaf:
            raise ValidationError(f"{label} keyed on unknown leaf '{leaf}'")
        try:
            in_range = lo <= k <= K
        except TypeError:
            raise ValidationError(f"{label} at ({leaf}, {k!r}) is not at an integer depth") from None
        if not in_range:
            raise ValidationError(f"{label} at ({leaf}, {k}) out of range {lo}..{K}")
        if k != int(k):
            raise ValidationError(f"{label} at ({leaf}, {k}) is not at an integer depth")
        return f"{label} ({leaf}, {k})"

    keys = list(product(tree.leaves, range(lo, K + 1)))
    flat = _read(tree, entries, keys, place, lambda key: f"{label} is missing at ({key[0]}, {key[1]})")
    grid = np.zeros((len(tree.leaves), K + 1))
    grid[:, lo:] = flat.reshape(len(tree.leaves), K + 1 - lo)
    return grid


def _grid_dict(field: str, lo: int) -> Callable:
    """The ``_DICTS`` builder of a grid ``field``: its values keyed on (leaf, k), k = lo..K."""
    return lambda obj: dict(zip(product(obj.tree.leaves, range(lo, obj.tree.K + 1)),
                                getattr(obj, field)[:, lo:].ravel().tolist()))


def _hold(obj, **arrays: np.ndarray) -> None:
    """Set the arrays of a frozen value, read-only."""
    for name, value in arrays.items():
        value.flags.writeable = False
        object.__setattr__(obj, name, value)


class _Arrays:
    """A value whose data are its arrays: a dict field ``name`` is built by ``_DICTS[name]`` on first
    read, then kept. Other names, and any name while ``__dict__`` is empty (``copy``, ``pickle``), raise."""

    def __getattr__(self, name: str):
        build = type(self)._DICTS.get(name)
        if build is None or not vars(self):
            raise AttributeError(f"'{type(self).__name__}' object has no attribute '{name}'", name=name, obj=self)
        return vars(self).setdefault(name, build(self))


def _new(cls, tree: ScenarioTree, *arrays: np.ndarray):
    """A value of type ``cls`` over arrays in its layout, computed from checked values; only a
    process, payoff or bi-measure checks them, for the non-finite values an overflow leaves."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "tree", tree)
    obj._keep(*arrays)
    return obj


def _dfs_rows(tree: ScenarioTree, grid: np.ndarray) -> np.ndarray:
    """The columns of an (L, K + 1) grid as rows over the DFS leaves, as ``node_means`` reads them."""
    return grid[tree.leaf_paths()[:, -1] - tree.first_leaf].T


@dataclass(frozen=True)
class _Vector(_Arrays):
    """One value per key of the tree's ``order`` or ``leaves`` (``_KEYS``), held in ``vector``;
    ``_place``, ``_MISSING`` and ``_AT`` word the faults of a given key, an absent key and a value."""

    tree: ScenarioTree
    values: dict[str, float]
    _DICTS = {"values": lambda X: dict(zip(getattr(X.tree, X._KEYS), X.vector.tolist()))}

    def __post_init__(self):
        keys = getattr(self.tree, self._KEYS)
        _hold(self, vector=_read(self.tree, vars(self).pop("values"), keys, self._place, self._MISSING.format))

    def _keep(self, vector: np.ndarray) -> None:
        _require_finite(vector, getattr(self.tree, self._KEYS), self._AT)
        _hold(self, vector=vector)

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
class RawProcess(_Arrays):
    """A time-indexed value per leaf, with no measurability tied to the tree.

    Raw processes live over the constant filtration in which every leaf is
    already visible at time zero; they are the natural inputs of the optional
    and predictable projections. Values must cover every (leaf, depth) pair;
    ``grid`` holds them, one row per leaf in canonical leaf order.
    """

    tree: ScenarioTree
    values: dict[tuple[str, int], float]
    _DICTS = {"values": _grid_dict("grid", 0)}

    def __post_init__(self):
        _hold(self, grid=_read_grid(self.tree, vars(self).pop("values"), 0, "raw process"))

    def _keep(self, grid: np.ndarray) -> None:
        _hold(self, grid=grid)

    @classmethod
    def from_adapted(cls, X: AdaptedProcess) -> "RawProcess":
        """Resolve an adapted process along each path: value at (leaf, k) is X at the depth-k ancestor."""
        return _new(cls, X.tree, X.vector[X.tree._paths])


def terminal_values(X: AdaptedProcess) -> StaticRV:
    """The terminal slice of an adapted process as a leaf-keyed random variable."""
    return _new(StaticRV, X.tree, X.vector[X.tree.first_leaf :])


def running_sup(X: AdaptedProcess) -> StaticRV:
    """Pathwise supremum of |X| from the root through each leaf."""
    return _new(StaticRV, X.tree, np.abs(X.vector)[X.tree._paths].max(axis=1))


def sup_norm(X: AdaptedProcess) -> float:
    """Essential supremum of the running supremum (plain maximum: every leaf has mass)."""
    return running_sup(X).vector.max().item()


def optional_projection_static(Y: StaticRV) -> AdaptedProcess:
    """Martingale closure of Y: at each node the probability-weighted mean of its leaves.

    The terminal slice reproduces Y exactly and successive slices satisfy the
    one-step martingale identity up to rounding.
    """
    tree = Y.tree
    rows = np.broadcast_to(_dfs_rows(tree, Y.vector[:, None]), (tree.K + 1, len(tree.leaves)))
    return _new(AdaptedProcess, tree, tree.node_means(rows))


def optional_projection_raw(Z: RawProcess) -> AdaptedProcess:
    """Optional projection: at a depth-k node, the conditional mean of the depth-k raw slice."""
    return _new(AdaptedProcess, Z.tree, Z.tree.node_means(_dfs_rows(Z.tree, Z.grid)))


def predictable_projection_raw(Z: RawProcess) -> AdaptedProcess:
    """Predictable projection: condition each depth-k slice on the parent node.

    At the root the conditioning information is trivial, so the depth-0 slice
    is replaced by its unconditional mean. Siblings share their parent's
    value.
    """
    tree = Z.tree
    rows = _dfs_rows(tree, Z.grid)
    ahead = tree.node_means(rows[1:])  # at each node above depth K, the next slice's mean
    return _new(AdaptedProcess, tree, np.concatenate((tree.node_means(rows[:1]), ahead[tree.parent[1:]])))


def prob_sup_exceedance(X: AdaptedProcess, Y: AdaptedProcess, eps: float) -> float:
    """P[ sup_k |X_k - Y_k| > eps ], the mass of leaves whose paths ever separate by more than eps."""
    _require_same_tree(X.tree, Y.tree)
    eps = float(eps)
    if not eps > 0.0:
        raise ValidationError(f"eps must be positive, got {eps!r}")
    return fsum(X.tree.leaf_prob[running_sup(X - Y).vector > eps].tolist())
