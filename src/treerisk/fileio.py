"""JSON file formats for trees, processes, bi-measures and measure specs.

Every format is a single JSON document with a ``format`` tag. Serialization
walks objects in canonical tree order and renders floats with Python's
shortest round-trip representation, so dump followed by load reproduces the
in-memory value bit for bit and equal inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from typing import Any

import numpy as np

from .bimeasure import BiMeasure
from .errors import ValidationError
from .process import AdaptedProcess, RawProcess, StaticRV
from .riskcore import RiskMeasureSpec
from .scenario import ScenarioTree


class FileFormatError(ValidationError):
    """A document failed structural validation; the message carries the path and field."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key '{key}'")
            seen.add(key)
    return obj


def _read_document(path: str | Path, expected: str | None) -> dict:
    """Parse the document at ``path``; check its format tag unless ``expected`` is None."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{p}: cannot read file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a duplicate key, an over-long integer, deep nesting
        raise FileFormatError(f"{p}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{p}: top level must be an object")
    fmt = doc.get("format")
    if expected is not None and fmt != expected:
        raise FileFormatError(f"{p}: expected format '{expected}', found {fmt!r}")
    return doc


def _number(path: Path | str, value: Any, field: str, *args: object) -> float:
    """``value`` as a finite float; the field name, ``field.format(*args)``, is built on failure only."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{path}: field '{field.format(*args)}' must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise FileFormatError(
            f"{path}: field '{field.format(*args)}' is an integer beyond the float range"
        ) from None
    if not math.isfinite(v):
        raise FileFormatError(f"{path}: field '{field.format(*args)}' must be finite, got {value!r}")
    return v


def _write(path: str | Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_tree(path: str | Path) -> ScenarioTree:
    doc = _read_document(path, "tree")
    rows = doc.get("nodes")
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{path}: 'nodes' must be a non-empty array")
    node_rows = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise FileFormatError(f"{path}: nodes[{i}] must be an object")
        for key in ("id", "depth", "time"):
            if key not in row:
                raise FileFormatError(f"{path}: nodes[{i}] missing field '{key}'")
        nid = row["id"]
        if not isinstance(nid, str):
            raise FileFormatError(f"{path}: nodes[{i}].id must be a string")
        parent = row.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise FileFormatError(f"{path}: nodes[{i}].parent must be a string or null")
        depth = row["depth"]
        if isinstance(depth, bool) or not isinstance(depth, int):
            raise FileFormatError(f"{path}: nodes[{i}].depth must be an integer")
        time = _number(path, row["time"], "nodes[{}].time", i)
        p = _number(path, row["p"], "nodes[{}].p", i) if "p" in row else 1.0
        if parent is not None and "p" not in row:
            raise FileFormatError(f"{path}: nodes[{i}] ('{nid}') missing branch probability 'p'")
        node_rows.append((nid, parent, depth, time, p))
    return ScenarioTree(node_rows)


def dump_tree(tree: ScenarioTree, path: str | Path) -> None:
    rows = [{"id": tree.root, "parent": None, "depth": 0, "time": tree.times[0]}]  # the root carries no 'p'
    parent = tree.parent.tolist()
    for k, ids in enumerate(tree.depth_nodes[1:], 1):
        for i, nid in enumerate(ids, len(rows)):
            up = tree.order[parent[i]]
            rows.append({"id": nid, "parent": up, "depth": k, "time": tree.times[k], "p": tree.branch_prob[i]})
    _write(path, {"format": "tree", "nodes": rows})


def _load_value_map(path: str | Path, doc: dict) -> dict[str, float]:
    values = doc.get("values")
    if not isinstance(values, dict):
        raise FileFormatError(f"{path}: 'values' must be an object")
    return {k: _number(path, v, "values['{}']", k) for k, v in values.items()}


def load_process(path: str | Path, tree: ScenarioTree) -> AdaptedProcess:
    doc = _read_document(path, "process")
    return AdaptedProcess(tree, _load_value_map(path, doc))


def dump_process(X: AdaptedProcess, path: str | Path) -> None:
    _write(path, {"format": "process", "values": {n: X.values[n] for n in X.tree.order}})


def load_static(path: str | Path, tree: ScenarioTree) -> StaticRV:
    doc = _read_document(path, "static")
    return StaticRV(tree, _load_value_map(path, doc))


def load_projectable(path: str | Path, tree: ScenarioTree) -> StaticRV | RawProcess:
    """A 'static' or a 'raw_process' document, parsed once and built by its format tag."""
    doc = _read_document(path, None)
    fmt = doc.get("format")
    if fmt == "static":
        return StaticRV(tree, _load_value_map(path, doc))
    if fmt == "raw_process":
        return _raw_process_from(path, doc, tree)
    raise FileFormatError(f"project expects a 'static' or 'raw_process' document, got {fmt!r}")


def dump_static(Y: StaticRV, path: str | Path) -> None:
    _write(path, {"format": "static", "values": {l: Y.values[l] for l in Y.tree.leaves}})


def load_raw_process(path: str | Path, tree: ScenarioTree) -> RawProcess:
    return _raw_process_from(path, _read_document(path, "raw_process"), tree)


def _raw_process_from(path: str | Path, doc: dict, tree: ScenarioTree) -> RawProcess:
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise FileFormatError(f"{path}: 'entries' must be an array")
    values: dict[tuple[str, int], float] = {}
    for i, row in enumerate(entries):
        if not isinstance(row, dict):
            raise FileFormatError(f"{path}: entries[{i}] must be an object")
        for key in ("leaf", "depth", "value"):
            if key not in row:
                raise FileFormatError(f"{path}: entries[{i}] missing field '{key}'")
        leaf = row["leaf"]
        depth = row["depth"]
        if not isinstance(leaf, str):
            raise FileFormatError(f"{path}: entries[{i}].leaf must be a string")
        if isinstance(depth, bool) or not isinstance(depth, int):
            raise FileFormatError(f"{path}: entries[{i}].depth must be an integer")
        key = (leaf, depth)
        if key in values:
            raise FileFormatError(f"{path}: duplicate entry for ({leaf}, {depth})")
        values[key] = _number(path, row["value"], "entries[{}].value", i)
    return RawProcess(tree, values)


def dump_raw_process(Z: RawProcess, path: str | Path) -> None:
    entries = []
    for leaf in Z.tree.leaves:
        for k in range(Z.tree.K + 1):
            entries.append({"leaf": leaf, "depth": k, "value": Z.values[(leaf, k)]})
    _write(path, {"format": "raw_process", "entries": entries})


def _measure_from_obj(path: str | Path, obj: Any, tree: ScenarioTree, where: str) -> BiMeasure:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: {where} must be an object")
    pr: dict[str, float] = {}
    op: dict[str, float] = {}
    for field, sink in (("pr", pr), ("op", op)):
        rows = obj.get(field, [])
        if not isinstance(rows, list):
            raise FileFormatError(f"{path}: {where}.{field} must be an array")
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or "node" not in row or "inc" not in row:
                raise FileFormatError(
                    f"{path}: {where}.{field}[{i}] must be an object with 'node' and 'inc'"
                )
            nid = row["node"]
            if not isinstance(nid, str):
                raise FileFormatError(f"{path}: {where}.{field}[{i}].node must be a string")
            if nid in sink:
                raise FileFormatError(f"{path}: duplicate {field} increment at node '{nid}'")
            sink[nid] = _number(path, row["inc"], "{}.{}[{}].inc", where, field, i)
    return BiMeasure(tree, pr, op)


def load_bimeasure(path: str | Path, tree: ScenarioTree) -> BiMeasure:
    doc = _read_document(path, "bimeasure")
    return _measure_from_obj(path, doc, tree, "document")


def _measure_to_obj(a: BiMeasure) -> dict:
    key = a.tree.index.__getitem__
    return {
        field: [{"node": n, "inc": inc[n]} for n in sorted(inc, key=key)]
        for field, inc in (("pr", a.pr_inc), ("op", a.op_inc))
    }


def dump_bimeasure(a: BiMeasure, path: str | Path) -> None:
    _write(path, {"format": "bimeasure", **_measure_to_obj(a)})


def load_spec(path: str | Path, tree: ScenarioTree) -> RiskMeasureSpec:
    """A spec document, read straight into the spec's node arrays.

    The rows are checked as a batch (see :func:`_spec_rows`) and merged once
    the parsed JSON is freed. If any check fails, the document goes through
    the per-row path, which builds :class:`BiMeasure` objects, so the
    message, and which fault is reported first, are those of a row-by-row
    read.
    """
    doc = _read_document(path, "spec")
    rows = doc.get("elements")
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{path}: 'elements' must be a non-empty array")
    del doc
    checked = _spec_rows(path, rows, tree)
    if checked is not None:
        del rows  # the merge allocates after the parsed JSON is gone
        idx, vals, counts, gammas, labels = checked
        merged = _merge_fields(idx, vals, counts, len(tree.order))
        if merged is not None:
            return RiskMeasureSpec._from_arrays(tree, *merged, gammas, labels)
        # a field names a node twice: read again for the per-row message
        rows = _read_document(path, "spec")["elements"]
    elements, labels = _spec_elements(path, rows, tree)
    del rows  # the parsed JSON goes before the spec's build allocates on top of it
    return RiskMeasureSpec(tree, elements, labels=labels)


def _spec_rows(path: str | Path, rows: list, tree: ScenarioTree):
    """A spec document's rows as flat node index and value arrays, the row count of
    each field (element after element, pr then op), the penalties and the
    labels; None when any element needs the per-row checks.

    The batch checks accept exactly the rows the per-row path accepts into
    nonnegative :class:`BiMeasure` objects, bar a node named twice within a
    field, which :func:`_merge_fields` finds: objects with a string ``node``
    the tree knows and an int or float ``inc`` that is finite and
    nonnegative, ``pr`` only above depth K.
    """
    ids, incs, counts, gammas, labels = [], [], [], [], []
    base = Path(path).parent
    for i, row in enumerate(rows):
        if type(row) is not dict:
            return None
        try:
            gammas.append(_number(path, row.get("gamma", 0.0), "elements[{}].gamma", i))
            if "measure" in row:
                obj = row["measure"]
            elif type(row.get("file")) is str:
                obj = _read_document(base / row["file"], "bimeasure")
            else:
                return None
        except FileFormatError:
            return None
        labels.append(row.get("label", f"e{i}"))
        if type(obj) is not dict or type(labels[-1]) is not str:
            return None
        for field in ("pr", "op"):
            field_rows = obj.get(field, [])
            if type(field_rows) is not list:
                return None
            try:
                ids += map(itemgetter("node"), field_rows)
                incs += map(itemgetter("inc"), field_rows)
            except (KeyError, TypeError):
                return None
            counts.append(len(field_rows))
    try:
        # a successful lookup means a string id the tree knows
        idx = np.fromiter(map(tree.index.__getitem__, ids), np.intp, len(ids))
        if not set(map(type, incs)) <= {int, float}:
            return None
        vals = np.fromiter(incs, float, len(incs))
    except (KeyError, TypeError, OverflowError):
        return None
    del ids, incs
    deepest = idx[np.repeat([True, False] * len(labels), counts)].max(initial=-1)
    if not (np.isfinite(vals).all() and (vals >= 0.0).all() and deepest < tree.first_leaf):
        return None
    return idx, vals, counts, gammas, labels


def _merge_fields(idx, vals, counts: list[int], n_nodes: int):
    """Each element's pr and op rows merged into the spec's (node, pr, op, bounds)
    arrays, or None when a field names a node twice.

    An element's nodes are its pr nodes, then its op-only ones, each in row
    order, matched through one node-sized buffer that holds 1 + a row's
    position (0 for none); nodes whose rows are all zero are dropped, as
    :class:`BiMeasure` drops them. The matching uses no integer comparison:
    numpy's kernel for one is not otherwise loaded, and loading it adds
    about 128 KB of resident memory to a small run.
    """
    slot = np.zeros(n_nodes, np.intp)
    zeros = not vals.all()
    ends = [0, *accumulate(counts)]
    nodes, prs, ops = [], [], []
    for lo, mid, hi in zip(ends[0::2], ends[1::2], ends[2::2]):
        pr_idx, op_idx, op_val = idx[lo:mid], idx[mid:hi], vals[mid:hi]
        tag = np.arange(1, hi - lo + 1, dtype=np.intp)
        m = mid - lo
        # a field's nodes are distinct when each reads back its own tag
        slot[pr_idx] = tag[:m]
        distinct = slot[pr_idx].tobytes() == tag[:m].tobytes()
        at = slot[op_idx]  # each op node's tag among the pr nodes, or 0
        slot[op_idx] = tag[m:]
        distinct = distinct and slot[op_idx].tobytes() == tag[m:].tobytes()
        slot[pr_idx] = 0
        slot[op_idx] = 0
        if not distinct:
            return None
        shared = at.astype(bool)
        node = np.concatenate((pr_idx, op_idx[~shared]))
        pr = np.zeros(len(node))
        pr[:m] = vals[lo:mid]
        op = np.zeros(len(node))
        op[at[shared] - 1] = op_val[shared]
        op[m:] = op_val[~shared]
        if zeros:
            keep = (pr != 0.0) | (op != 0.0)
            node, pr, op = node[keep], pr[keep], op[keep]
        nodes.append(node)
        prs.append(pr)
        ops.append(op)
    offsets = [0, *accumulate(map(len, nodes))]
    return (*map(np.concatenate, (nodes, prs, ops)), tuple(zip(offsets, offsets[1:])))


def _spec_elements(
    path: str | Path, rows: list, tree: ScenarioTree
) -> tuple[list[tuple[BiMeasure, float]], list[str]]:
    """A spec document's elements and labels, read and checked row by row."""
    elements = []
    labels = []
    base = Path(path).parent
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise FileFormatError(f"{path}: elements[{i}] must be an object")
        gamma = _number(path, row.get("gamma", 0.0), "elements[{}].gamma", i)
        if "measure" in row:
            a = _measure_from_obj(path, row["measure"], tree, f"elements[{i}].measure")
        elif "file" in row:
            ref = row["file"]
            if not isinstance(ref, str):
                raise FileFormatError(f"{path}: elements[{i}].file must be a string")
            a = load_bimeasure(base / ref, tree)
        else:
            raise FileFormatError(
                f"{path}: elements[{i}] needs either an inline 'measure' or a 'file' reference"
            )
        label = row.get("label", f"e{i}")
        if not isinstance(label, str):
            raise FileFormatError(f"{path}: elements[{i}].label must be a string")
        elements.append((a, gamma))
        labels.append(label)
    return elements, labels


def dump_spec(spec: RiskMeasureSpec, path: str | Path) -> None:
    rows = []
    for (a, gamma), label in zip(spec.elements, spec.labels):
        rows.append({"gamma": gamma, "label": label, "measure": _measure_to_obj(a)})
    _write(path, {"format": "spec", "elements": rows})
