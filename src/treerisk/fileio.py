"""JSON file formats for trees, processes, bi-measures and measure specs.

Every format is a single JSON document with a ``format`` tag. Serialization
walks objects in canonical tree order and renders floats with Python's
shortest round-trip representation, so dump followed by load reproduces the
in-memory value bit for bit and equal inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any

import numpy as np

from .bimeasure import BiMeasure, _layout, _read_field
from .errors import ValidationError
from .process import AdaptedProcess, RawProcess, StaticRV, _new
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


def _keys(items: Any) -> int:
    return sum(map(len, items)) if type(items) is list and set(map(type, items)) <= {dict} else 0


def _key_count(doc: dict) -> int:
    """The keys of ``doc`` and of the objects the formats hold, each object counted once.

    An array with an item that is no object adds nothing, which only lowers the count: the
    length of a list or a string in an object's place could make up for a merged key."""
    rows = doc.get("elements")
    rows = rows if type(rows) is list else []
    measures = [row["measure"] for row in rows if type(row) is dict and type(row.get("measure")) is dict]
    tables = [[doc.get("values")], *map(doc.get, ("nodes", "entries", "pr", "op")), rows, measures]
    tables += [m.get(field) for m in measures for field in ("pr", "op")]
    return len(doc) + sum(map(_keys, tables))


def _read_document(path: str | Path, expected: str | None) -> dict:
    """Parse the document at ``path``; check its format tag unless ``expected`` is None.

    Each key takes one ':', so no key repeats when the counted keys match the text's colons;
    otherwise (a ':' in a string, an uncounted object, a parse error) each object is checked."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{p}: cannot read file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        doc = None
    try:
        if type(doc) is not dict or _key_count(doc) != text.count(":"):
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


def _tree_columns(rows: list) -> list | None:
    """The (id, parent, depth, time, p) rows read as columns, or None for the walk to name the
    first faulty row: the root comes first without 'p', and every other row has all five."""
    try:
        ids, depths, times = (list(map(itemgetter(key), rows)) for key in ("id", "depth", "time"))
        parents, probs = list(map(dict.get, rows, repeat("parent"))), list(map(itemgetter("p"), rows[1:]))
        types = [set(map(type, column)) for column in (ids, parents[1:], depths, times + probs)]
        if (types[0] | types[1] <= {str} and types[2] <= {int} and types[3] <= {int, float}
                and parents[0] is None and "p" not in rows[0]):
            times, probs = list(map(float, times)), [1.0, *map(float, probs)]
            if math.isfinite(sum(times) + sum(probs)):  # a sum past the float range goes to the walk
                return list(zip(ids, parents, depths, times, probs))
    except (KeyError, TypeError, OverflowError):  # a missing field, a row that is no object, a huge int
        pass
    return None


def load_tree(path: str | Path) -> ScenarioTree:
    doc = _read_document(path, "tree")
    rows = doc.get("nodes")
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{path}: 'nodes' must be a non-empty array")
    node_rows = _tree_columns(rows)
    if node_rows is not None:
        return ScenarioTree(node_rows)
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


def _load_values(path: str | Path, doc: dict, build):
    """``build(values)`` over the document's 'values' object; only if that fails, or a value is
    no int or float, are the values checked as fields first, so their faults come first."""
    values = doc.get("values")
    if not isinstance(values, dict):
        raise FileFormatError(f"{path}: 'values' must be an object")
    if set(map(type, values.values())) <= {int, float}:
        try:
            return build(values)
        except ValidationError:
            pass
    return build({k: _number(path, v, "values['{}']", k) for k, v in values.items()})


def load_process(path: str | Path, tree: ScenarioTree) -> AdaptedProcess:
    doc = _read_document(path, "process")
    return _load_values(path, doc, lambda values: AdaptedProcess(tree, values))


def dump_process(X: AdaptedProcess, path: str | Path) -> None:
    _write(path, {"format": "process", "values": X.values})


def load_static(path: str | Path, tree: ScenarioTree) -> StaticRV:
    doc = _read_document(path, "static")
    return _load_values(path, doc, lambda values: StaticRV(tree, values))


def load_projectable(path: str | Path, tree: ScenarioTree) -> StaticRV | RawProcess:
    """A 'static' or a 'raw_process' document, parsed once and built by its format tag."""
    doc = _read_document(path, None)
    fmt = doc.get("format")
    if fmt == "static":
        return _load_values(path, doc, lambda values: StaticRV(tree, values))
    if fmt == "raw_process":
        return _raw_process_from(path, doc, tree)
    raise FileFormatError(f"project expects a 'static' or 'raw_process' document, got {fmt!r}")


def dump_static(Y: StaticRV, path: str | Path) -> None:
    _write(path, {"format": "static", "values": Y.values})


def load_raw_process(path: str | Path, tree: ScenarioTree) -> RawProcess:
    return _raw_process_from(path, _read_document(path, "raw_process"), tree)


def _raw_process_from(path: str | Path, doc: dict, tree: ScenarioTree) -> RawProcess:
    """The document's entries read as columns in one pass; only if that fails, or a field has
    the wrong type, are the entries walked one by one, so their faults come first."""
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise FileFormatError(f"{path}: 'entries' must be an array")
    try:
        leaf, depth, value = (list(map(itemgetter(key), entries)) for key in ("leaf", "depth", "value"))
        types = [set(map(type, column)) for column in (leaf, depth, value)]
        if types[0] <= {str} and types[1] <= {int} and types[2] <= {int, float}:
            values = dict(zip(zip(leaf, depth), value))
            if len(values) == len(entries):
                return RawProcess(tree, values)
    except (KeyError, TypeError, ValidationError):
        pass
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
    entries = [{"leaf": leaf, "depth": k, "value": v} for (leaf, k), v in Z.values.items()]
    _write(path, {"format": "raw_process", "entries": entries})


def _batch_rows(obj: dict, tree: ScenarioTree):
    """The pr and op rows as canonical indices and float increments, read in one pass, or None
    when a row needs the walk: the pass takes lists of objects with known string nodes, distinct
    within a field, pr nodes above depth K, and finite int or float increments."""
    pr, op = obj.get("pr", []), obj.get("op", [])
    if type(pr) is not list or type(op) is not list:
        return None
    rows, m, n = pr + op, len(pr), len(tree.order)
    try:
        incs = list(map(itemgetter("inc"), rows))
        # a successful lookup means a string id the tree knows
        at = np.fromiter(map(tree.index.__getitem__, map(itemgetter("node"), rows)), np.intp, len(rows))
        if not set(map(type, incs)) <= {int, float}:
            return None
        val = np.fromiter(incs, float, len(incs))
    except (KeyError, TypeError, OverflowError):
        return None
    repeats = max(np.bincount(field, None, n).max(initial=0) for field in (at[:m], at[m:]))
    if repeats <= 1 and at[:m].max(initial=-1) < tree.first_leaf and np.isfinite(val).all():
        return at[:m], val[:m], at[m:], val[m:]
    return None


def _read_measure(path: str | Path, obj: Any, tree: ScenarioTree, where: str):
    """The (node, pr, op) layout of a bi-measure object, its rows read in one pass; only
    when that fails are they walked row by row, so the first fault is named."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: {where} must be an object")
    fields = _batch_rows(obj, tree)
    if fields is None:
        walked = []
        for field in ("pr", "op"):
            rows = obj.get(field, [])
            if not isinstance(rows, list):
                raise FileFormatError(f"{path}: {where}.{field} must be an array")
            sink: dict[str, float] = {}
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
            walked.append(sink)
        # the rows' faults come before the nodes' faults
        fields = (*_read_field(tree, walked[0], "predictable", tree.first_leaf),
                  *_read_field(tree, walked[1], "optional", len(tree.order)))
    return _layout(tree, *fields)


def load_bimeasure(path: str | Path, tree: ScenarioTree) -> BiMeasure:
    doc = _read_document(path, "bimeasure")
    return _new(BiMeasure, tree, *_read_measure(path, doc, tree, "document"))


def _measure_to_obj(a: BiMeasure) -> dict:
    return {
        field: [{"node": n, "inc": v} for n, v in inc.items()]  # canonical order
        for field, inc in (("pr", a.pr_inc), ("op", a.op_inc))
    }


def dump_bimeasure(a: BiMeasure, path: str | Path) -> None:
    _write(path, {"format": "bimeasure", **_measure_to_obj(a)})


def load_spec(path: str | Path, tree: ScenarioTree) -> RiskMeasureSpec:
    """A spec document, read element after element into the spec's node arrays.

    Each element's gamma, measure (inline or by a 'file' reference, read as
    :func:`load_bimeasure` reads one) and label are checked in that order, and
    its parsed rows are freed once read; the spec then checks the signs, norms
    and penalties, element after element.
    """
    doc = _read_document(path, "spec")
    rows = doc.get("elements")
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{path}: 'elements' must be a non-empty array")
    del doc
    base = Path(path).parent
    layouts, gammas, labels = [], [], []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise FileFormatError(f"{path}: elements[{i}] must be an object")
        gammas.append(_number(path, row.get("gamma", 0.0), "elements[{}].gamma", i))
        if "measure" in row:
            layouts.append(_read_measure(path, row["measure"], tree, f"elements[{i}].measure"))
        elif "file" in row:
            ref = row["file"]
            if not isinstance(ref, str):
                raise FileFormatError(f"{path}: elements[{i}].file must be a string")
            layouts.append(_read_measure(base / ref, _read_document(base / ref, "bimeasure"), tree, "document"))
        else:
            raise FileFormatError(
                f"{path}: elements[{i}] needs either an inline 'measure' or a 'file' reference"
            )
        labels.append(row.get("label", f"e{i}"))
        if not isinstance(labels[-1], str):
            raise FileFormatError(f"{path}: elements[{i}].label must be a string")
        rows[i] = None  # free the element's parsed rows once read
    offsets = [0, *accumulate(len(node) for node, _, _ in layouts)]
    node, pr, op = map(np.concatenate, zip(*layouts))
    return RiskMeasureSpec._from_arrays(tree, node, pr, op, tuple(zip(offsets, offsets[1:])), gammas, labels)


def dump_spec(spec: RiskMeasureSpec, path: str | Path) -> None:
    rows = []
    for (a, gamma), label in zip(spec.elements, spec.labels):
        rows.append({"gamma": gamma, "label": label, "measure": _measure_to_obj(a)})
    _write(path, {"format": "spec", "elements": rows})
