"""JSON file formats for trees, processes, bi-measures and measure specs.

Every format is a single JSON document with a ``format`` tag. Serialization
walks objects in canonical tree order and renders floats with Python's
shortest round-trip representation, so dump followed by load reproduces the
in-memory value bit for bit and equal inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .bimeasure import BiMeasure
from .errors import ValidationError
from .process import AdaptedProcess, RawProcess, StaticRV
from .riskcore import RiskMeasureSpec
from .scenario import ScenarioTree, TreeNode, build_tree


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
    probs = {}
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
        if parent is not None or "p" in row:
            if "p" not in row:
                raise FileFormatError(f"{path}: nodes[{i}] ('{nid}') missing branch probability 'p'")
            probs[nid] = _number(path, row["p"], "nodes[{}].p", i)
        node_rows.append((nid, parent, depth, time))
    return build_tree(node_rows, probs)


def dump_tree(tree: ScenarioTree, path: str | Path) -> None:
    rows = []
    for nid in tree.order:
        n: TreeNode = tree.nodes[nid]
        row: dict[str, Any] = {"id": n.id, "parent": n.parent, "depth": n.depth, "time": n.time}
        if n.parent is not None:
            row["p"] = n.branch_prob
        rows.append(row)
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
    elements, labels = _spec_elements(path, tree)
    return RiskMeasureSpec(tree, elements, labels=labels)


def _spec_elements(
    path: str | Path, tree: ScenarioTree
) -> tuple[list[tuple[BiMeasure, float]], list[str]]:
    """A spec document's elements and labels; the parsed JSON is freed on return,
    before the spec's build allocates its caches on top of it."""
    doc = _read_document(path, "spec")
    rows = doc.get("elements")
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{path}: 'elements' must be a non-empty array")
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
