"""Seeded benchmark inputs: trees, processes and specs as numpy arrays, written as JSON.

Everything here is independent of the ``treerisk`` package. A tree is held as
arrays in the program's canonical node order (by depth, then id), which the
generators guarantee by construction: node ids sort within each depth in the
order the arrays list them. The writers follow the documented file formats
and print floats with ``repr``, so the program reads back exactly the values
the arrays hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class TreeArrays:
    """A scenario tree in canonical order.

    ``parent[i]`` is the index of node i's parent (-1 at the root), ``branch``
    the conditional branch probability and ``prob`` the unconditional one.
    Nodes of depth k occupy the contiguous range ``starts[k]:starts[k + 1]``.
    """

    ids: tuple[str, ...]
    parent: np.ndarray
    depth: np.ndarray
    branch: np.ndarray

    @property
    def K(self) -> int:
        return int(self.depth[-1])

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def starts(self) -> np.ndarray:
        return np.searchsorted(self.depth, np.arange(self.K + 2))

    @property
    def leaves(self) -> np.ndarray:
        return np.arange(self.starts[self.K], self.n_nodes)

    @property
    def interior(self) -> np.ndarray:
        return np.arange(0, self.starts[self.K])

    @property
    def prob(self) -> np.ndarray:
        p = np.ones(self.n_nodes)
        s = self.starts
        for k in range(1, self.K + 1):
            idx = np.arange(s[k], s[k + 1])
            p[idx] = p[self.parent[idx]] * self.branch[idx]
        return p


def _assemble(levels: list[list[tuple[str, int, float]]]) -> TreeArrays:
    """levels[k] lists (id, parent index, branch prob) of the depth-k nodes in order."""
    ids: list[str] = []
    parent: list[int] = []
    depth: list[int] = []
    branch: list[float] = []
    for k, level in enumerate(levels):
        for nid, par, p in level:
            ids.append(nid)
            parent.append(par)
            depth.append(k)
            branch.append(p)
    return TreeArrays(
        ids=tuple(ids),
        parent=np.array(parent, dtype=np.int64),
        depth=np.array(depth, dtype=np.int64),
        branch=np.array(branch, dtype=np.float64),
    )


def binomial_tree(depth: int) -> TreeArrays:
    """The layout of ``uniform_binomial``: ids are up/down path strings, probability one half."""
    levels = [[("root", -1, 1.0)]]
    prefixes = [""]
    offset = 0
    for _ in range(depth):
        level = []
        nxt = []
        for j, prefix in enumerate(prefixes):
            for letter in ("d", "u"):
                level.append((prefix + letter, offset + j, 0.5))
                nxt.append(prefix + letter)
        offset += len(prefixes)
        prefixes = nxt
        levels.append(level)
    return _assemble(levels)


def shaped_tree(
    rng: np.random.Generator,
    fanout_cycles: list[list[int]],
    concentration: float,
    floor: float = 1e-3,
) -> TreeArrays:
    """Random tree whose level sizes do not depend on the seed.

    At depth k the fan-outs of the depth-k nodes are the values of
    ``fanout_cycles[k]`` repeated to the level's length, dealt to the nodes
    in a seeded random order. Branch probabilities are Dirichlet draws with
    the given concentration (below one gives skewed splits), floored at
    ``floor`` and renormalized. Ids are zero-padded breadth-first indices, so
    the canonical order is the breadth-first order.
    """
    sizes = [1]
    for cycle in fanout_cycles:
        m = sizes[-1]
        sizes.append(sum(cycle[i % len(cycle)] for i in range(m)))
    width = len(str(sum(sizes)))
    counter = 0

    def name() -> str:
        nonlocal counter
        counter += 1
        return f"n{counter - 1:0{width}d}"

    levels = [[(name(), -1, 1.0)]]
    offset = 0
    for k, cycle in enumerate(fanout_cycles):
        m = sizes[k]
        fans = np.array([cycle[i % len(cycle)] for i in range(m)])
        fans = fans[rng.permutation(m)]
        level = []
        for j in range(m):
            raw = rng.dirichlet(np.full(fans[j], concentration))
            raw = np.maximum(raw, floor)
            probs = raw / raw.sum()
            for p in probs:
                level.append((name(), offset + j, float(p)))
        offset += m
        levels.append(level)
    return _assemble(levels)


def conditional_sum(tree: TreeArrays, leaf_values: np.ndarray) -> np.ndarray:
    """Per node, the sum of ``leaf_values`` over the leaves below it (bottom-up)."""
    acc = np.zeros(tree.n_nodes)
    acc[tree.leaves] = leaf_values
    s = tree.starts
    for k in range(tree.K, 0, -1):
        idx = np.arange(s[k], s[k + 1])
        np.add.at(acc, tree.parent[idx], acc[idx])
    return acc


def path_sum(tree: TreeArrays, node_values: np.ndarray) -> np.ndarray:
    """Per node, the sum of ``node_values`` along the path from the root (top-down)."""
    acc = np.array(node_values, dtype=np.float64)
    s = tree.starts
    for k in range(1, tree.K + 1):
        idx = np.arange(s[k], s[k + 1])
        acc[idx] += acc[tree.parent[idx]]
    return acc


def ancestors(tree: TreeArrays) -> np.ndarray:
    """Array (leaves x depths) of the depth-k ancestor index of each leaf."""
    out = np.empty((len(tree.leaves), tree.K + 1), dtype=np.int64)
    cur = tree.leaves.copy()
    for k in range(tree.K, -1, -1):
        out[:, k] = cur
        cur = tree.parent[cur]
    return out


@dataclass(frozen=True)
class Element:
    """One generating element: dense predictable and optional increments over all nodes."""

    pr: np.ndarray
    op: np.ndarray
    gamma: float
    label: str

    @property
    def total(self) -> np.ndarray:
        return self.pr + self.op


def random_element(
    rng: np.random.Generator,
    tree: TreeArrays,
    density: float,
    gamma: float,
    label: str,
    untouched: np.ndarray | None = None,
) -> Element:
    """Nonnegative bi-measure of unit expected variation.

    Each coordinate is present with probability ``density``; the nodes in
    ``untouched`` never carry mass. The expected variation equals
    sum_n P(n) (pr(n) + op(n)), which fixes the normalization.
    """
    n = tree.n_nodes
    pr = np.where(rng.uniform(size=n) < density, rng.uniform(0.05, 1.0, size=n), 0.0)
    pr[tree.leaves] = 0.0
    op = np.where(rng.uniform(size=n) < density, rng.uniform(0.05, 1.0, size=n), 0.0)
    if untouched is not None:
        pr[untouched] = 0.0
        op[untouched] = 0.0
    if not (pr.any() or op.any()):
        op[tree.leaves[0]] = 1.0
    scale = float(np.dot(tree.prob, pr + op))
    return Element(pr=pr / scale, op=op / scale, gamma=float(gamma), label=label)


def random_spec(
    rng: np.random.Generator,
    tree: TreeArrays,
    n_elements: int,
    density: float,
    coherent: bool,
    untouched: np.ndarray | None = None,
) -> list[Element]:
    out = []
    for i in range(n_elements):
        gamma = 0.0 if coherent else float(rng.uniform(0.0, 0.5))
        out.append(random_element(rng, tree, density, gamma, f"e{i}", untouched))
    return out


# ---------------------------------------------------------------- writers


def _floats(values: np.ndarray) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=np.float64).tolist()]


def write_tree(tree: TreeArrays, path: Path) -> None:
    K = tree.K
    rows = []
    for i, nid in enumerate(tree.ids):
        d = int(tree.depth[i])
        row = {"id": nid, "parent": None, "depth": d, "time": d / K}
        if tree.parent[i] >= 0:
            row["parent"] = tree.ids[tree.parent[i]]
            row["p"] = float(tree.branch[i])
        rows.append(row)
    Path(path).write_text(json.dumps({"format": "tree", "nodes": rows}))


def write_process(tree: TreeArrays, values: np.ndarray, path: Path) -> None:
    doc = {"format": "process", "values": dict(zip(tree.ids, _floats(values)))}
    Path(path).write_text(json.dumps(doc))


def write_static(tree: TreeArrays, leaf_values: np.ndarray, path: Path) -> None:
    leaf_ids = [tree.ids[i] for i in tree.leaves]
    doc = {"format": "static", "values": dict(zip(leaf_ids, _floats(leaf_values)))}
    Path(path).write_text(json.dumps(doc))


def write_raw_process(tree: TreeArrays, Z: np.ndarray, path: Path) -> None:
    """Z has one row per leaf and one column per depth."""
    entries = []
    for r, leaf in enumerate(tree.leaves):
        lid = tree.ids[leaf]
        for k, v in enumerate(_floats(Z[r])):
            entries.append({"leaf": lid, "depth": k, "value": v})
    Path(path).write_text(json.dumps({"format": "raw_process", "entries": entries}))


def _measure_obj(tree: TreeArrays, pr: np.ndarray, op: np.ndarray) -> dict:
    def rows(v):
        nz = np.flatnonzero(v)
        return [{"node": tree.ids[i], "inc": x} for i, x in zip(nz, _floats(v[nz]))]

    return {"pr": rows(pr), "op": rows(op)}


def write_bimeasure(tree: TreeArrays, pr: np.ndarray, op: np.ndarray, path: Path) -> None:
    Path(path).write_text(json.dumps({"format": "bimeasure", **_measure_obj(tree, pr, op)}))


def write_spec(tree: TreeArrays, elements: list[Element], path: Path) -> None:
    """Inline elements, streamed one at a time so large specs stay out of memory."""
    with open(path, "w") as fh:
        fh.write('{"format": "spec", "elements": [')
        for i, e in enumerate(elements):
            row = {"gamma": e.gamma, "label": e.label, "measure": _measure_obj(tree, e.pr, e.op)}
            fh.write((", " if i else "") + json.dumps(row))
        fh.write("]}\n")
