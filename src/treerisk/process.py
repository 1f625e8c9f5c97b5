"""Adapted and scenario-resolved processes, running suprema, projections.

Every value type keeps its values only in read-only float64 arrays in the
tree's order; its dict fields, the same values in the same order, are each
built from the arrays on first read, then kept. An ``AdaptedProcess.vector``
is in canonical node order and a ``StaticRV.vector`` in canonical leaf order
(``tree.leaves``). A ``RawProcess.grid`` and ``RawBiMeasure``'s ``left_grid``
and ``right_grid`` have shape (L, K + 1), row i for ``tree.leaves[i]`` and
column k for depth k; left increments act from depth 1 on, so column 0 of a
left grid holds 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import fsum, isfinite
from operator import index
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .scenario import ScenarioTree


def _require_same_tree(a: ScenarioTree, b: ScenarioTree) -> None:
    if a is not b:
        raise ValidationError("tree mismatch: operands were built on different scenario trees")


def _walk(out: np.ndarray, entries: Iterable, place: Callable, missing: Callable) -> np.ndarray:
    """``out`` with the (key, value) ``entries`` put at their keys' flat positions, walked in input
    order; the first fault raises: a key ``place(key)`` refuses (else it gives the key's place and
    position), a value ``float`` refuses, a non-finite value, then the first position left nan,
    worded by ``missing(position)``. A position given twice keeps its last value."""
    for key, value in entries:
        where, at = place(key)
        try:
            out.flat[at] = v = float(value)
        except (TypeError, ValueError):
            raise ValidationError(f"non-numeric value {value!r} at {where}") from None
        except OverflowError:
            raise ValidationError(f"value at {where} is an integer beyond the float range") from None
        if not isfinite(v):
            raise ValidationError(f"non-finite value {value!r} at {where}")
    for at in np.flatnonzero(np.isnan(out))[:1].tolist():
        raise ValidationError(missing(at))
    return out


def _require_finite(vector: np.ndarray, names: Sequence[str], where: str) -> None:
    """Raise for the first non-finite entry of ``vector``, named ``where.format(names[i])``."""
    finite = np.isfinite(vector)
    if not finite.all():
        i = int(finite.argmin())
        raise ValidationError(f"non-finite value {vector[i].item()!r} {where.format(names[i])}")


def _read_grid(tree: ScenarioTree, keys: Iterable, values: Sequence, lo: int, label: str, columns: Callable):
    """The (L, K + 1) grid of ``values`` at their (leaf, k) ``keys``, k = lo..K (columns below lo hold
    0.0), read in one pass over ``columns()``, the keys' leaf and depth columns: one bincount checks
    that the values' flat positions cover the cells from column lo on once each, one scatter puts
    them. When that fails, ``_walk`` names the first fault of the (key, value) entries."""
    K, first, n = tree.K, tree.first_leaf, len(values)
    grid = np.full((len(tree.leaves), K + 1), np.nan)
    grid[:, :lo] = 0.0
    try:  # bincount refuses the negative position of an interior node or a depth out of range
        leaves, depths = columns()
        row = np.fromiter(map(tree.index.__getitem__, leaves), np.intp, n) - first
        k = np.fromiter(map(index, depths), np.intp, n)
        at = np.where((lo <= k) & (k <= K), row * (K + 1) + k, -1)
        flat = np.fromiter(map(float, values), float, n)
        if grid[:, lo:].size == n == np.count_nonzero(np.bincount(at, None, grid.size)) and np.isfinite(flat).all():
            grid.flat[at] = flat
            return grid
    except (KeyError, TypeError, ValueError, OverflowError):
        pass

    def place(key) -> tuple[str, int]:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise ValidationError(f"{label} keyed on {key!r}, not on a (leaf, depth) pair")
        leaf, k = key
        i = tree.index.get(leaf, -1) - first
        if i < 0:
            raise ValidationError(f"{label} keyed on unknown leaf '{leaf}'")
        try:
            in_range = lo <= k <= K
        except TypeError:
            raise ValidationError(f"{label} at ({leaf}, {k!r}) is not at an integer depth") from None
        if not in_range:
            raise ValidationError(f"{label} at ({leaf}, {k}) out of range {lo}..{K}")
        if k != int(k):
            raise ValidationError(f"{label} at ({leaf}, {k}) is not at an integer depth")
        return f"{label} ({leaf}, {k})", i * (K + 1) + int(k)

    missing = lambda at: f"{label} is missing at ({tree.leaves[at // (K + 1)]}, {at % (K + 1)})"
    return _walk(grid, zip(keys, values), place, missing)


def _dict_grid(tree: ScenarioTree, entries: Mapping, lo: int, label: str) -> np.ndarray:
    """``_read_grid`` of a dict keyed on (leaf, k); keys that are not all tuples go to the walk."""
    pairs = set(map(type, entries)) == {tuple}
    columns = lambda: zip(*entries, strict=True) if pairs else ((), ())
    return _read_grid(tree, entries, [*entries.values()], lo, label, columns)


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


@dataclass(frozen=True)
class _Vector(_Arrays):
    """One value per key of the tree's ``order`` or ``leaves`` (``_KEYS``), held in ``vector``;
    ``_place``, ``_MISSING`` and ``_AT`` word the faults of a given key (else ``_place`` gives its
    place and position), an absent key and a value."""

    tree: ScenarioTree
    values: dict[str, float]
    _DICTS = {"values": lambda X: dict(zip(getattr(X.tree, X._KEYS), X.vector.tolist()))}

    def __post_init__(self):
        tree, entries, keys = self.tree, vars(self).pop("values"), getattr(self.tree, self._KEYS)
        try:  # the values at the keys, read in one pass; when that fails, the walk names the first fault
            vector = np.fromiter(map(float, map(entries.get, keys)), float, len(keys))
            if len(entries) == len(keys) and np.isfinite(vector).all():
                return _hold(self, vector=vector)
        except (TypeError, ValueError, OverflowError):
            pass
        place, missing = lambda key: self._place(tree, key), lambda i: self._MISSING.format(keys[i])
        _hold(self, vector=_walk(np.full(len(keys), np.nan), entries.items(), place, missing))

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
    def _place(tree: ScenarioTree, nid: object) -> tuple[str, int]:
        if nid not in tree.index:
            raise ValidationError(f"process value given for unknown node '{nid}'")
        return f"node '{nid}'", tree.index[nid]

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
    def _place(tree: ScenarioTree, leaf: object) -> tuple[str, int]:
        if leaf not in tree.index:
            raise ValidationError(f"value given for unknown leaf '{leaf}'")
        if tree.index[leaf] < tree.first_leaf:
            raise ValidationError(f"'{leaf}' is not a leaf; static values live on leaves only")
        return f"leaf '{leaf}'", tree.index[leaf] - tree.first_leaf

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
        _hold(self, grid=_dict_grid(self.tree, vars(self).pop("values"), 0, "raw process"))

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
    return _new(AdaptedProcess, tree, tree.node_means(np.broadcast_to(Y.vector, (tree.K + 1, len(tree.leaves)))))


def optional_projection_raw(Z: RawProcess) -> AdaptedProcess:
    """Optional projection: at a depth-k node, the conditional mean of the depth-k raw slice."""
    return _new(AdaptedProcess, Z.tree, Z.tree.node_means(Z.grid.T))


def predictable_projection_raw(Z: RawProcess) -> AdaptedProcess:
    """Predictable projection: condition each depth-k slice on the parent node.

    At the root the conditioning information is trivial, so the depth-0 slice
    is replaced by its unconditional mean. Siblings share their parent's
    value.
    """
    tree = Z.tree
    ahead = tree.node_means(Z.grid.T[1:])  # at each node above depth K, the next slice's mean
    return _new(AdaptedProcess, tree, np.concatenate((tree.node_means(Z.grid.T[:1]), ahead[tree.parent[1:]])))


def prob_sup_exceedance(X: AdaptedProcess, Y: AdaptedProcess, eps: float) -> float:
    """P[ sup_k |X_k - Y_k| > eps ], the mass of leaves whose paths ever separate by more than eps."""
    _require_same_tree(X.tree, Y.tree)
    eps = float(eps)
    if not eps > 0.0:
        raise ValidationError(f"eps must be positive, got {eps!r}")
    return fsum(X.tree.leaf_prob[running_sup(X - Y).vector > eps].tolist())
