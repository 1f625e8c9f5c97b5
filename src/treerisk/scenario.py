"""Finite scenario trees: rooted node graphs with branch probabilities on a time grid."""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import groupby
from math import frexp, fsum, isfinite, ldexp
from operator import mul, sub
from numbers import Real
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

SUM_TOL = 1e-12
_UNIT_ROUNDOFF = 2.0**-53
_REAL = (float, Real)  # float first: an isinstance check against the ABC alone takes about 0.45 us


class TreeNode(NamedTuple):
    """One input row of a tree. ``branch_prob`` is conditional on the parent (1.0 at the root)."""

    id: str
    parent: str | None
    depth: int
    time: float
    branch_prob: float


class ScenarioTree:
    """Finite filtered probability space over a rooted tree.

    The partition into depth-k nodes carries the information available at time
    ``times[k]``. Branch probabilities are conditional on the parent and
    strictly positive, so every conditional expectation along the tree is well
    defined and every leaf has positive mass.

    The input rows, :class:`TreeNode` (id, parent, depth, time, branch_prob)
    or any such 5-tuples, are transposed once into five columns. The checks
    run in this order, each over the rows in input order, and the first to fail
    raises :class:`ValidationError` naming its node: ids are unique non-empty
    strings; one row, the root, has no parent, depth 0 and branch probability
    1; every other row names a known parent one level up and a branch
    probability in (0, 1]; each row has an integer depth (not a bool) and a
    finite time, one per depth; the time grid starts at 0 and increases;
    every node above depth K has children; each node's children (nodes taken
    in input order) have branch probabilities summing to 1 within ``SUM_TOL``;
    the leaves' probabilities sum to 1 within the bound that implies.

    ``index`` maps each node id to its position in the canonical (depth, id)
    ``order``, the order of the columns the tree keeps: ``parent`` (an
    ``np.intp`` array of positions, the root its own parent), read by the
    recursions over the tree, ``branch_prob``, ``prob`` (a dict, the product
    of the branch probabilities along the path) and ``node_prob`` (the same
    probabilities as a read-only float64 array; ``leaf_prob`` is its leaves'
    part). The leaves close the
    order from position ``first_leaf`` on. A depth-first pass, children in id
    order, lays the leaves out so that every subtree owns a contiguous range
    of that DFS leaf order; the ranges are held once, per canonical index, and
    read by ``leaves_under`` (the range as a slice, in DFS order, which differs
    from the canonical order of ``leaves`` when ids interleave subtrees),
    ``node_spans`` and ``node_means``. ``nodes``, each id's row rebuilt from
    the columns on first read, serves ``path``, ``children`` and
    ``require_node``, which walk the nodes themselves: an independent reference
    for these layouts.

    ``node_means`` is the one conditional-mean loop: given rows of values
    over the DFS leaves, it returns E[rows[k] | node] at each node of depth
    k < len(rows), in canonical order. A range whose values all compare
    equal gives its first DFS value, so a leaf gives its own value; any other
    range gives the fsum of P(l) v(l) over it, divided by P(node).

    Path reads have one layout, built from ``parent`` on first use: ``leaf_paths``
    holds each DFS leaf's path as canonical indices.

    ``path_sums`` is the one kernel for sums along paths (variation, terminal
    increments, a spec's per-leaf variations). It takes canonical node
    indices, a term matrix with one row per node (a node's C terms, one per
    column, enter the sum separately) and segment bounds (lo, hi); nodes must
    be distinct within a segment, as their rows are scattered into one buffer.
    Per segment it returns the ascending DFS positions of the leaves whose
    paths meet the segment's nodes and, at each, the fsum of the (K + 1) C
    terms read along the path: rounded once, in no particular order, and the
    0.0 read off the segment changes nothing. m nodes whose ranges span w
    leaves cost O(m + w), plus O((K + 1) C) per covered leaf.

    Instances are immutable after construction and meant to be shared by the
    processes and bi-measures built on them (those types compare trees by
    object identity). Construct via :func:`build_tree` or
    :func:`uniform_binomial`.
    """

    def __init__(self, node_list: Iterable[TreeNode]):
        columns = tuple(zip(*node_list))
        if not columns:
            raise ValidationError("tree has no nodes")
        ids, parents, depths, times, branch = columns
        n = len(ids)

        at: dict[str, int] = {}  # id -> input position
        for i, nid in enumerate(ids):
            if not isinstance(nid, str) or not nid:
                raise ValidationError(f"node id must be a non-empty string, got {nid!r}")
            if at.setdefault(nid, i) != i:
                raise ValidationError(f"duplicate node id '{nid}'")

        roots = parents.count(None)
        if roots != 1:
            raise ValidationError(f"expected exactly one root node, found {roots}")
        r = parents.index(None)
        if depths[r] != 0:
            raise ValidationError(f"root node '{ids[r]}' must have depth 0, got {depths[r]}")
        if branch[r] != 1.0:
            raise ValidationError(f"root node '{ids[r]}' must carry branch probability 1")

        for nid, p, d, b in zip(ids, parents, depths, branch):
            if p is None:
                continue
            j = at.get(p)
            if j is None:
                raise ValidationError(f"node '{nid}' references unknown parent '{p}'")
            if d != depths[j] + 1:
                raise ValidationError(
                    f"node '{nid}' at depth {d} must sit one level below "
                    f"parent '{p}' at depth {depths[j]}"
                )
            if not isinstance(b, _REAL) or not 0.0 < b <= 1.0:
                raise ValidationError(f"branch probability of node '{nid}' must lie in (0, 1], got {b!r}")

        K = max(depths)
        time_at: dict[int, float] = {}
        for nid, d, t in zip(ids, depths, times):
            if not _is_int(d):  # each depth is its parent's plus one: only its type can be wrong
                raise ValidationError(f"node '{nid}' has depth {d!r}; depths must be integers")
            if not isinstance(t, _REAL):
                raise ValidationError(f"node '{nid}' has non-numeric time {t!r}")
            if not isfinite(t):
                raise ValidationError(f"node '{nid}' has non-finite time {t!r}")
            if t != time_at.setdefault(d, t):
                raise ValidationError(
                    f"node '{nid}' has time {t!r}, but depth {d} was already placed at time {time_at[d]!r}"
                )
        grid = [time_at[k] for k in range(K + 1)]
        if abs(grid[0]) > SUM_TOL:
            raise ValidationError(f"the time grid must start at 0, got t_0 = {grid[0]!r}")
        for k in range(K):
            if not grid[k + 1] > grid[k]:
                raise ValidationError(
                    f"times must be strictly increasing, got t_{k} = {grid[k]!r} "
                    f"and t_{k + 1} = {grid[k + 1]!r}"
                )

        inner = set(parents)
        for nid, d in zip(ids, depths):
            if d != K and nid not in inner:
                raise ValidationError(
                    f"node '{nid}' has no children but sits at depth {d} < {K}; "
                    "all leaves must share the terminal depth"
                )

        # canonical order: (depth, id) lexicographic, by two stable sorts
        perm = sorted(range(n), key=ids.__getitem__)
        perm.sort(key=depths.__getitem__)
        order = list(map(ids.__getitem__, perm))
        index = dict(zip(order, range(n)))
        parent = list(map(index.get, map(parents.__getitem__, perm)))
        parent[0] = 0  # the root, index 0, stands in for its own parent
        self.parent = np.array(parent, np.intp)  # built before the temporaries: peak RSS
        branch = list(map(branch.__getitem__, perm))
        # level k is order[starts[k] : starts[k + 1]]
        starts = [bisect_left(perm, k, key=depths.__getitem__) for k in range(K + 2)]

        # each level in DFS order, children in id order: a stable sort of the
        # (id-sorted) level on the parents' DFS ranks; siblings come out adjacent
        rank = [0] * n  # each node's position in its level's DFS order
        faults = []  # (input position, canonical index, sum) of each family not summing to 1
        level = [0]
        for k in range(1, K + 1):
            level = sorted(range(starts[k], starts[k + 1]), key=lambda c: rank[parent[c]])
            for i, c in enumerate(level):
                rank[c] = i
            for p, kids in groupby(level, parent.__getitem__):
                s = fsum(map(branch.__getitem__, kids))
                if abs(s - 1.0) > SUM_TOL:
                    faults.append((perm[p], p, s))
        if faults:
            _, p, s = min(faults)
            raise ValidationError(f"children probabilities sum != 1 under node '{order[p]}' (got {s!r})")

        prob = [1.0] * n
        for c in range(1, n):
            prob[c] = prob[parent[c]] * branch[c]
        first = starts[K]
        mass = fsum(prob[first:])
        # Each P(child) = fl(P(n) b(child)) carries one rounding and each sibling
        # sum is within SUM_TOL + u of 1 (the check above reads its fsum), so each
        # of the K levels scales the mass below a node by a factor within x =
        # SUM_TOL + 3u of 1: the leaf mass is within (1 + x)**K - 1 <= 1.72 K x of 1
        # while K x <= 1, plus u for its fsum. The sibling checks imply this one; a
        # flat SUM_TOL would refuse trees whose every sibling sum passes.
        if abs(mass - 1.0) > 2 * K * (SUM_TOL + 3 * _UNIT_ROUNDOFF) + 2 * _UNIT_ROUNDOFF:
            raise ValidationError(f"leaf probabilities sum != 1 (got {mass!r})")

        # each node owns the half-open range [lo, hi) of the DFS leaf order: its
        # leaves' ranks, widened bottom-up from the children
        lo = [n - first] * first + rank[first:]
        hi = [0] * first + [i + 1 for i in rank[first:]]
        for c, p in zip(range(n - 1, 0, -1), parent[:0:-1]):
            lo[p], hi[p] = min(lo[p], lo[c]), max(hi[p], hi[c])

        self.order = tuple(order)
        self.index = index
        self.branch_prob = tuple(branch)
        self.depth_nodes = tuple(self.order[starts[k] : starts[k + 1]] for k in range(K + 1))
        self.leaves = self.order[first:]
        self.first_leaf = first
        self.K = K
        self.T = grid[K]
        self.times = tuple(grid)
        self.prob = dict(zip(order, prob))
        self.node_prob = np.array(prob)
        self.node_prob.flags.writeable = False
        self.leaf_prob = self.node_prob[first:]
        self._dfs_leaves = tuple(map(order.__getitem__, level))
        self._dfs_prob = tuple(map(prob.__getitem__, level))
        self._spans = (lo, hi)
        self._leaf_paths = None
        self._node_spans = None

    @cached_property
    def nodes(self) -> dict[str, TreeNode]:
        """Every node's row by id, in canonical order, rebuilt from the columns on first read."""
        depth = [k for k, ids in enumerate(self.depth_nodes) for _ in ids]
        parent = [None, *map(self.order.__getitem__, self.parent[1:].tolist())]
        time = map(self.times.__getitem__, depth)
        return dict(zip(self.order, map(TreeNode, self.order, parent, depth, time, self.branch_prob)))

    def position(self, node_id: str) -> int:
        """The canonical index of ``node_id``."""
        try:
            return self.index[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id '{node_id}'") from None

    def require_node(self, node_id: str) -> TreeNode:
        self.position(node_id)
        return self.nodes[node_id]

    def children(self, node_id: str) -> tuple[str, ...]:
        self.require_node(node_id)
        return tuple(nid for nid, node in self.nodes.items() if node.parent == node_id)

    def path(self, leaf_id: str) -> tuple[str, ...]:
        """Node ids from the root down to ``leaf_id``, inclusive."""
        node = self.nodes.get(leaf_id)
        if node is None or node.depth != self.K:
            raise ValidationError(f"'{leaf_id}' is not a leaf of this tree")
        chain = [leaf_id]
        while node.parent is not None:
            chain.append(node.parent)
            node = self.nodes[node.parent]
        return tuple(reversed(chain))

    def leaves_under(self, node_id: str) -> tuple[str, ...]:
        """The leaves of the subtree at ``node_id``, in DFS order."""
        i = self.position(node_id)
        return self._dfs_leaves[self._spans[0][i] : self._spans[1][i]]

    def leaf_paths(self) -> np.ndarray:
        """Shape (L, K + 1): row d holds the d-th DFS leaf's path as canonical indices, root first."""
        if self._leaf_paths is None:
            paths = np.empty((len(self._dfs_leaves), self.K + 1), np.intp)
            paths[:, self.K] = [self.index[leaf] for leaf in self._dfs_leaves]
            for k in range(self.K, 0, -1):
                paths[:, k - 1] = self.parent[paths[:, k]]
            self._leaf_paths = paths
        return self._leaf_paths

    def node_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Per canonical index, the node's half-open range [lo, hi) of the DFS leaf order."""
        if self._node_spans is None:
            self._node_spans = tuple(np.array(bound, np.intp) for bound in self._spans)
        return self._node_spans

    def node_means(self, rows: Sequence[Sequence[float]]) -> list[float]:
        """At each node of depth k < len(rows), in canonical order, E[rows[k] | node].

        Each row holds one value per DFS leaf; a constant range gives its first value exactly.
        """
        prob, dfs_prob, spans = self.prob, self._dfs_prob, zip(*self._spans)
        out = []
        for row, ids in zip(rows, self.depth_nodes):
            for p, (lo, hi) in zip(map(prob.__getitem__, ids), spans):  # ids first: no span is drawn past the level
                values = row[lo:hi]
                if values.count(values[0]) == len(values):
                    out.append(values[0])
                else:
                    out.append(fsum(map(mul, dfs_prob[lo:hi], values)) / p)
        return out

    def path_sums(
        self, node: np.ndarray, terms: np.ndarray, bounds: Iterable[tuple[int, int]]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per segment (lo, hi) of ``bounds``, the ascending DFS positions of the leaves
        whose paths meet node[lo:hi], and at each the fsum of the terms (row j of
        ``terms`` for node[j]) on its path; the class docstring gives the contract."""
        paths = self.leaf_paths()
        span_lo, span_hi = self.node_spans()
        width = paths.shape[1] * terms.shape[1]
        scatter = np.zeros((terms.shape[1], len(self.order)))  # one row per term column
        out = []
        for lo, hi in bounds:
            nodes = node[lo:hi]
            # from the first range start to the last range end, the running count
            # of ranges opened minus ranges closed is positive exactly on the
            # leaves some node of the segment covers
            starts, ends = span_lo[nodes], span_hi[nodes]
            first = starts.min(initial=len(self._dfs_leaves))
            closed = np.bincount(ends - first)
            opened = np.bincount(starts - first, minlength=len(closed))
            leaves = np.flatnonzero(np.cumsum(opened - closed)) + first
            scatter[:, nodes] = terms[lo:hi].T
            block = scatter[:, paths[leaves].T].reshape(width, len(leaves))  # one column per leaf
            scatter[:, nodes] = 0.0
            out.append((leaves, np.array(segment_fsums(block))))
        return out

    @property
    def root(self) -> str:
        return self.depth_nodes[0][0]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ScenarioTree(nodes={len(self.order)}, leaves={len(self.leaves)}, "
            f"K={self.K}, T={self.T})"
        )


# Certified segment sums (Rump, Ogita and Oishi, "Accurate floating-point
# summation, part I", 2008: ExtractVector). Take n < 2**M finite terms v, max|v|
# < 2**e, k = M + e, sigma = 2**k. fl(sigma + v) lies in [sigma / 2, 2 sigma],
# so q = fl(sigma + v) - sigma is exact, a multiple of 2**(k - 53), |q| <= 2**e:
# each partial sum of the q is such a multiple below n 2**e < 2**k, so the sum
# s1 is exact in any order. r = fl(v - q) is the rounding error of sigma + v, so
# exact, |r| <= 2**(k - 53). Splitting the r with sigma = 2**(M + k - 53) gives
# an exact s2 and |r'| <= 2**(M + k - 106), so |sum(r')| < B = 2**(3M + e - 106).
# TwoSum gives s1 + s2 = s + t, s = fl(s1 + s2), and fsum rounds s + t + sum(r')
# to nearest even: to s where every r' is 0, or where fl(|t| + B) is below half
# the gap from |s| towards zero, the smaller gap at powers of two (rounding is
# monotone, so the float test is safe). The rest goes to fsum on its own terms,
# keeping its errors, nan and signed zeros: uncertified segments, s = 0, and
# whole calls with an empty segment, under _FSUMS_CUTOFF terms (numpy's fixed
# cost, about 50 us, outweighs the loop) or with max|v| (M, e per call) not
# finite, >= 2**(999 - M) (sums stay below 2**999) or < 2**-900 (parts normal).
_FSUMS_CUTOFF = 1500


def segment_fsums(terms: np.ndarray, starts: Sequence[int] | None = None) -> list[float]:
    """Per segment, what math.fsum returns for its terms, bit for bit and error for error: the
    columns of a 2-D ``terms``, or the runs of a 1-D ``terms`` from each of ``starts`` to the next."""
    ends = None if starts is None else [*starts[1:], len(terms)]
    if terms.size >= _FSUMS_CUTOFF:  # smaller calls make no numpy call
        sizes = [len(terms)] if ends is None else list(map(sub, ends, starts))
        M = max(sizes).bit_length()
        big = max(terms.max(), -terms.min()) if min(sizes) > 0 else 0.0
    if terms.size < _FSUMS_CUTOFF or not ldexp(1.0, -900) <= big < ldexp(1.0, 999 - M):
        if ends is None:
            return list(map(fsum, terms.T.tolist()))
        flat = memoryview(terms)
        return [fsum(flat[lo:hi]) for lo, hi in zip(starts, ends)]
    fold = (lambda f, x: f.reduce(x)) if ends is None else (lambda f, x: f.reduceat(x, starts))
    e, r, sums = frexp(big)[1], terms, []
    for sigma in ldexp(1.0, M + e), ldexp(1.0, 2 * M + e - 53):
        q = r + sigma
        q -= sigma
        sums.append(fold(np.add, q))
        r = np.subtract(r, q, out=q)  # at most two term-sized buffers live at once
    s1, s2 = sums
    s = s1 + s2
    z = s - s1
    t = np.abs((s1 - (s - z)) + (s2 - z))
    a = np.abs(s)
    below = (a - np.nextafter(a, 0.0)) / 2  # half the gap from |s| towards zero
    ok = (a > 0.0) & (~fold(np.logical_or, r) | (t + ldexp(1.0, 3 * M + e - 106) < below))
    out = s.tolist()
    for i in np.flatnonzero(~ok).tolist():
        out[i] = fsum((terms[:, i] if ends is None else terms[starts[i] : ends[i]]).tolist())
    return out


def _is_int(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer; bools and floats are not, integral or not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def build_tree(
    node_rows: Iterable[tuple[str, str | None, int, float]],
    branch_prob: Mapping[str, float],
) -> ScenarioTree:
    """Assemble and validate a tree from ``(id, parent, depth, time)`` rows.

    ``branch_prob`` maps each non-root node to its conditional probability.
    An entry for the root is optional and must equal 1 when present.
    """
    rows = []
    for nid, parent, depth, time in node_rows:
        if parent is not None and nid not in branch_prob:
            raise ValidationError(f"missing branch probability for node '{nid}'")
        rows.append((nid, parent, depth, float(time), float(branch_prob.get(nid, 1.0))))
    return ScenarioTree(rows)


def uniform_binomial(depth: int) -> ScenarioTree:
    """Symmetric binary tree, branch probability one half, time grid k/depth.

    Node ids are the up/down path strings ('u', 'd', 'ud', ...); the root is
    named 'root'. The tree has 2**depth leaves of probability 2**-depth each.
    """
    if not _is_int(depth) or depth < 1:
        raise ValidationError(f"depth must be a positive integer, got {depth}")
    depth = int(depth)
    rows = [("root", None, 0, 0.0, 1.0)]
    level = [""]
    for k in range(1, depth + 1):
        level = [prefix + letter for prefix in level for letter in "du"]
        t = k / depth
        rows += ((nid, nid[:-1] or "root", k, t, 0.5) for nid in level)
    return ScenarioTree(rows)
