"""Finite scenario trees: rooted node graphs with branch probabilities on a time grid."""

from __future__ import annotations

from functools import cached_property
from math import frexp, fsum, isfinite, ldexp
from operator import mul
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

    Every tree is built from five columns (id, parent, depth, time,
    branch_prob), given as ``_columns`` (as ``fileio.load_tree``,
    :func:`build_tree` and :func:`uniform_binomial` do) or transposed from rows
    (:class:`TreeNode` or any such 5-tuples). The checks run in this order,
    each over the rows in input order, and the first to fail raises
    :class:`ValidationError` naming its node: ids are unique non-empty
    strings; one row, the root, has no parent, depth 0 and branch probability
    1; every other row names a known parent one level up and a branch
    probability in (0, 1]; each row has an integer depth (not a bool) and a
    finite time, one per depth; the time grid, as floats, starts at 0 and
    increases; every node above depth K has children; each node's children
    have branch probabilities summing to 1 within ``SUM_TOL``; no path
    probability (the product of the branch probabilities along the path)
    underflows to 0.0; the leaves' probabilities sum to 1 within the bound
    that implies. From ``_TREE_CUTOFF`` nodes on, whole-column reads run the
    row checks first, and the rows are walked, to name the fault, only when
    those find one; smaller trees are walked at once.

    ``index`` maps each node id to its position in the canonical (depth, id)
    ``order``, the order of the columns the tree keeps: ``parent`` (an
    ``np.intp`` array of positions, the root its own parent), ``branch_prob``
    and ``node_prob`` (each node's path probability, formed root first, one
    multiply per level, as a read-only float64 array; ``leaf_prob`` is its
    leaves' part, and ``prob`` the same as a dict, built on first read). The
    leaves close the order from ``first_leaf`` on. Sorting the leaves' paths
    depth by depth gives the DFS leaf order, children in id order, in which
    every subtree owns a contiguous range: ``leaf_paths`` holds the DFS
    leaves' paths (and ``_paths`` those of ``leaves``), and the ranges, per
    canonical index, are read by ``leaves_under`` (in DFS order, which differs
    from the canonical order of ``leaves`` when ids interleave subtrees),
    ``node_spans`` and ``node_means``. ``nodes``, each id's row rebuilt from
    the columns on first read, serves ``path``, ``children`` and
    ``require_node``, which walk the nodes themselves: an independent
    reference for these layouts.

    ``node_means`` is the one conditional-mean kernel: given (m, L) rows over
    the DFS leaves, it returns E[rows[k] | node] at each node of depth k < m,
    in canonical order: a range whose values all compare equal gives its first
    DFS value (a leaf its own), any other the fsum of P(l) v(l) over P(node);
    an fsum that overflows raises :class:`ValidationError` naming the first
    such node in canonical order.
    Rows of ``_FSUMS_CUTOFF`` terms or more take one segmented pass over every
    node's range (one ``segment_fsums``, one min == max); smaller ones a loop.

    ``path_sums`` is the one kernel for sums along paths (variation, terminal
    increments, a spec's per-leaf variations). It takes canonical node
    indices, a term matrix with one row per node (a node's C terms, one per
    column, enter the sum separately) and segment bounds (lo, hi); nodes must
    be distinct within a segment, as their rows are scattered into one buffer.
    Per segment it returns the ascending DFS positions of the leaves whose
    paths meet the segment's nodes and, at each, the fsum of the (K + 1) C
    terms read along the path: rounded once, in no particular order, and the
    0.0 read off the segment changes nothing (an fsum that overflows raises
    :class:`ValidationError` naming the first such leaf in canonical order).
    m nodes whose ranges span w leaves cost O(m + w), plus O((K + 1) C) a leaf.

    Instances are immutable after construction and meant to be shared by the
    processes and bi-measures built on them (those types compare trees by
    object identity).
    """

    def __init__(self, node_list: Iterable[TreeNode] = (), *, _columns: Sequence[Sequence] | None = None):
        ids, parents, depths, times, branch = _columns or tuple(zip(*node_list)) or ((),) * 5
        n = len(ids)
        try:  # a column that will not sort or convert holds a fault the walk names
            depth, time, b = np.array(depths, np.intp), np.array(times, float), np.array(branch, float)
            perm = np.array(sorted(range(n), key=ids.__getitem__), np.intp)
            perm = perm[np.argsort(depth[perm], kind="stable")]  # canonical order: (depth, id)
            order = list(map(ids.__getitem__, perm.tolist()))
            index = dict(zip(order, range(n)))
            up = list(map(index.get, parents))
            up[parents.index(None)] = 0  # the root, if it sorts first; any other None is an unknown parent
            parent, depth, b = np.array(up, np.intp)[perm], depth[perm], b[perm]
            starts = [0, *(np.flatnonzero(depth[1:] != depth[:-1]) + 1).tolist(), n]  # where each depth starts
            grid = time[np.minimum.reduceat(perm, starts[:-1])]  # each depth's first row's time
            sound = n >= _TREE_CUTOFF and bool(  # the row checks as whole-column reads
                set(map(type, ids)) <= {str} and set(map(type, depths)) <= {int} and set(map(type, times)) <= {float}
                and set(map(type, branch)) <= {int, float} and len(index) == n and "" not in index
                and parents[perm[0]] is None and depth[0] == 0 and (depth[parent[1:]] + 1 == depth[1:]).all()
                and b[0] == 1.0 and (b > 0.0).all() and (b <= 1.0).all() and np.isfinite(time).all()
                and (time[perm] == np.repeat(grid, np.diff(starts))).all() and abs(grid[0]) <= SUM_TOL
                and (grid[1:] > grid[:-1]).all() and np.bincount(parent, minlength=n)[: starts[-2]].all())
        except (TypeError, ValueError, OverflowError):
            sound = False
        if not sound:  # the walk over the rows names the first fault
            _walk(ids, parents, depths, times, branch)
        K, first, grid = len(starts) - 2, starts[-2], grid.tolist()  # the leaves close the order

        # each leaf's path, one row per depth, its canonical indices, the leaves sorted on them depth by
        # depth: the DFS leaf order, children in id order. A node's leaves are one run of its row, so the
        # runs give every node, level by level and each level in DFS order, and its range [lo, hi)
        paths = np.empty((K + 1, n - first), np.intp)
        paths[K] = np.arange(first, n)
        for k in range(K, 0, -1):
            paths[k - 1] = parent[paths[k]]
        flat = paths[:, np.lexsort(paths[::-1])].ravel()  # rows of different depths hold different nodes
        new = np.concatenate(([True], flat[1:] != flat[:-1]))
        start = np.flatnonzero(new)
        node, col, end = flat[start], start % (n - first), start + 1
        end[:-1] = start[1:]  # a run ends where the next starts; the last is a leaf's
        lo, hi = np.empty(n, np.intp), np.empty(n, np.intp)
        lo[node], hi[node] = col, col + end - start
        # siblings are adjacent in that order, and a family starts where its parent's run does: one
        # fsum per family, family j's parent inner[j]
        heads = np.flatnonzero(new[start[1:] - (n - first)])
        sums, inner = segment_fsums(b[node[1:]], heads), parent[node[1:][heads]]
        if sums and (max(sums) - 1.0 > SUM_TOL or 1.0 - min(sums) > SUM_TOL):
            j = min((j for j, s in enumerate(sums) if abs(s - 1.0) > SUM_TOL), key=lambda j: perm[inner[j]])
            raise ValidationError(f"children probabilities sum != 1 under node '{order[inner[j]]}' (got {sums[j]!r})")
        prob = b.copy()  # one multiply per level: each node's product in the order of a walk from the root
        for k in range(1, K + 1):
            prob[starts[k] : starts[k + 1]] *= prob[parent[starts[k] : starts[k + 1]]]
        if not prob.all():  # a product of branch probabilities underflowed
            c = min(np.flatnonzero(prob == 0.0).tolist(), key=perm.__getitem__)
            raise ValidationError(f"path probability of node '{order[c]}' underflows to 0.0")
        mass = fsum(prob[first:].tolist())
        # Each P(child) = fl(P(n) b(child)) carries one rounding and each sibling
        # sum is within SUM_TOL + u of 1 (the check above reads its fsum), so each
        # of the K levels scales the mass below a node by a factor within x =
        # SUM_TOL + 3u of 1: the leaf mass is within (1 + x)**K - 1 <= 1.72 K x of 1
        # while K x <= 1, plus u for its fsum. The sibling checks imply this one; a
        # flat SUM_TOL would refuse trees whose every sibling sum passes.
        if abs(mass - 1.0) > 2 * K * (SUM_TOL + 3 * _UNIT_ROUNDOFF) + 2 * _UNIT_ROUNDOFF:
            raise ValidationError(f"leaf probabilities sum != 1 (got {mass!r})")

        self.order = tuple(order)
        self.index = index
        self.parent = parent
        self.branch_prob = tuple(b.tolist())
        self.depth_nodes = tuple(self.order[s:e] for s, e in zip(starts, starts[1:]))
        self.first_leaf = first
        self.leaves = self.order[first:]
        self.K = K
        self.T = grid[K]
        self.times = tuple(grid)
        self.node_prob = prob
        self.node_prob.flags.writeable = False
        self.leaf_prob = prob[first:]
        self._leaf_paths = np.ascontiguousarray(flat.reshape(K + 1, n - first).T)
        self._paths = paths.T  # row i: the path of leaves[i]
        self._dfs_prob = prob[self._leaf_paths[:, -1]]
        self._spans = (lo, hi)
        self._mean_ranges = (node, start)

    @cached_property
    def prob(self) -> dict[str, float]:
        """Each node's path probability by id, in canonical order, built on first read."""
        return dict(zip(self.order, self.node_prob.tolist()))

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
        return tuple(map(self.order.__getitem__, self._leaf_paths[self._spans[0][i] : self._spans[1][i], -1].tolist()))

    def leaf_paths(self) -> np.ndarray:
        """Shape (L, K + 1): row d holds the d-th DFS leaf's path as canonical indices, root first."""
        return self._leaf_paths

    def node_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Per canonical index, the node's half-open range [lo, hi) of the DFS leaf order."""
        return self._spans

    def node_means(self, rows: np.ndarray) -> np.ndarray:
        """E[rows[k] | node] at each node of depth k < len(rows), in canonical order, from an (m, L)
        float64 array of rows over the DFS leaves; the class docstring gives the contract."""
        if rows.size >= _FSUMS_CUTOFF:
            node, start = self._mean_ranges
            n = start.searchsorted(rows.size)  # the nodes above depth len(rows)
            node, start, values = node[:n], start[:n], rows.ravel()
            try:
                sums = segment_fsums((self._dfs_prob * rows).ravel(), start)
            except OverflowError:  # the loop below skips the constant ranges and names the overflowing node
                pass
            else:
                constant = np.minimum.reduceat(values, start) == np.maximum.reduceat(values, start)
                out = np.empty(n)
                with np.errstate(over="ignore"):  # as Python's / does; the value's _keep names the node
                    out[node] = np.where(constant, values[start], sums / self.node_prob[node])
                return out
        dfs_prob, spans = self._dfs_prob.tolist(), zip(*(s.tolist() for s in self._spans), self.node_prob.tolist())
        out = []
        for row, ids in zip(rows.tolist(), self.depth_nodes):
            for nid, (lo, hi, prob) in zip(ids, spans):  # ids first: no span is drawn past the level
                values = row[lo:hi]
                if values.count(values[0]) == len(values):
                    out.append(values[0])
                    continue
                try:
                    out.append(fsum(map(mul, dfs_prob[lo:hi], values)) / prob)
                except OverflowError:  # a partial sum passed the float maximum
                    raise ValidationError(f"non-finite conditional mean at node '{nid}'") from None
        return np.array(out)

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
            first = starts.min(initial=len(self.leaves))
            closed = np.bincount(ends - first)
            opened = np.bincount(starts - first, minlength=len(closed))
            leaves = np.flatnonzero(np.cumsum(opened - closed)) + first
            scatter[:, nodes] = terms[lo:hi].T
            block = scatter[:, paths[leaves].T].reshape(width, len(leaves))  # one column per leaf
            scatter[:, nodes] = 0.0
            try:
                sums = segment_fsums(block)
            except OverflowError:  # fsum the leaves in canonical order to name the first that overflows
                c = np.argsort(at := paths[leaves, -1])
                _named_fsums(block[:, c], None, "non-finite path sum at leaf '{}'", [self.order[i] for i in at[c]])
            out.append((leaves, np.array(sums)))
        return out

    @property
    def root(self) -> str:
        return self.depth_nodes[0][0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"ScenarioTree(nodes={len(self.order)}, leaves={len(self.leaves)}, K={self.K}, T={self.T})"


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


def segment_fsums(terms: np.ndarray, starts: Sequence[int] | np.ndarray | None = None) -> list[float]:
    """Per segment, what math.fsum returns for its terms, bit for bit and error for error: the
    columns of a 2-D ``terms``, or the runs of a 1-D ``terms`` from each of ``starts`` to the next."""
    if terms.size >= _FSUMS_CUTOFF:  # smaller calls make no numpy call
        sizes = np.array([len(terms)]) if starts is None else np.append(starts[1:], len(terms)).astype(np.intp) - starts
        M = int(sizes.max()).bit_length()
        big = max(terms.max(), -terms.min()) if sizes.min() > 0 else 0.0
    if terms.size < _FSUMS_CUTOFF or not ldexp(1.0, -900) <= big < ldexp(1.0, 999 - M):
        if starts is None:
            return list(map(fsum, terms.T.tolist()))
        flat = memoryview(terms)
        return [fsum(flat[lo:hi]) for lo, hi in zip(starts, [*starts[1:], len(terms)])]
    fold = (lambda f, x: f.reduce(x)) if starts is None else (lambda f, x: f.reduceat(x, starts))
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
        out[i] = fsum((terms[:, i] if starts is None else terms[starts[i] : starts[i] + sizes[i]]).tolist())
    return out


def _named_fsums(terms: np.ndarray, starts, message: str, names: Iterable) -> list[float]:
    """``segment_fsums(terms, starts)``; when an fsum overflows, the segments are fsummed in order and
    the first that overflows raises :class:`ValidationError`, ``message`` formatted with its name."""
    try:
        return segment_fsums(terms, starts)
    except OverflowError:
        for name, segment in zip(names, terms.T.tolist() if starts is None else np.split(terms, starts[1:])):
            try:
                fsum(segment)
            except OverflowError:
                raise ValidationError(message.format(name)) from None
        raise


def _is_int(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer; bools and floats are not, integral or not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# Trees of this many nodes or more are checked as whole columns first, and walked only when those
# checks find a fault. The column reads cost about 25 us plus 0.1 us a node, the walk 0.55 us a node
# (binomial trees of 31 and 63 nodes: 23 against 19 us, 26 against 35 us; 8 191 nodes: 0.86 ms against 4.4 ms).
_TREE_CUTOFF = 48


def _walk(ids, parents, depths, times, branch) -> None:
    """Walk the rows in input order and raise :class:`ValidationError` at the first fault of the row
    checks the class docstring lists (all but the sibling sums and path probabilities)."""
    if not ids:
        raise ValidationError("tree has no nodes")
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
                f"node '{nid}' at depth {d} must sit one level below parent '{p}' at depth {depths[j]}")
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
    grid = [float(time_at[k]) for k in range(K + 1)]  # as the tree keeps it
    if abs(grid[0]) > SUM_TOL:
        raise ValidationError(f"the time grid must start at 0, got t_0 = {grid[0]!r}")
    for k in range(K):
        if not grid[k + 1] > grid[k]:
            raise ValidationError(
                f"times must be strictly increasing, got t_{k} = {grid[k]!r} and t_{k + 1} = {grid[k + 1]!r}")

    inner = set(parents)
    for nid, d in zip(ids, depths):
        if d != K and nid not in inner:
            raise ValidationError(
                f"node '{nid}' has no children but sits at depth {d} < {K}; all leaves must share the terminal depth")


def build_tree(
    node_rows: Iterable[tuple[str, str | None, int, float]],
    branch_prob: Mapping[str, float],
) -> ScenarioTree:
    """Assemble and validate a tree from ``(id, parent, depth, time)`` rows.

    ``branch_prob`` maps each non-root node to its conditional probability.
    An entry for the root is optional and must equal 1 when present.
    """
    ids, parents, depths, times = [*zip(*node_rows)] or [()] * 4
    for nid, parent in zip(ids, parents):
        if parent is not None and nid not in branch_prob:
            raise ValidationError(f"missing branch probability for node '{nid}'")
    branch = [float(branch_prob.get(nid, 1.0)) for nid in ids]
    return ScenarioTree(_columns=(ids, parents, depths, list(map(float, times)), branch))


def uniform_binomial(depth: int) -> ScenarioTree:
    """Symmetric binary tree, branch probability one half, time grid k/depth.

    Node ids are the up/down path strings ('u', 'd', 'ud', ...); the root is
    named 'root'. The tree has 2**depth leaves of probability 2**-depth each.
    """
    if not _is_int(depth) or depth < 1:
        raise ValidationError(f"depth must be a positive integer, got {depth}")
    depth = int(depth)
    ids, parents, depths, times, level = ["root"], [None], [0], [0.0], [""]
    for k in range(1, depth + 1):
        up = level * 2  # the parents of the next level
        up[::2] = up[1::2] = level if k > 1 else ["root"]
        parents += up
        level = [prefix + letter for prefix in level for letter in "du"]
        ids += level
        depths += [k] * len(level)
        times += [k / depth] * len(level)
    return ScenarioTree(_columns=(ids, parents, depths, times, [1.0] + [0.5] * (len(ids) - 1)))
