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

from .bimeasure import BiMeasure, _layout, _read_fields
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


def _key_count(doc: dict, text: str) -> int:
    """The keys of ``doc`` and of the objects the formats hold, each object counted once, and the
    colons of its elements' labels if ``text`` has no escape (then a string has its text's colons).

    An array with an item that is no object adds nothing, which only lowers the count: the
    length of a list or a string in an object's place could make up for a merged key."""
    rows = doc.get("elements")
    rows = rows if type(rows) is list else []
    measures = [row["measure"] for row in rows if type(row) is dict and type(row.get("measure")) is dict]
    tables = [[doc.get("values")], *map(doc.get, ("nodes", "entries", "pr", "op")), rows, measures]
    tables += [m.get(field) for m in measures for field in ("pr", "op")]
    labels = sum(row["label"].count(":") for row in rows if type(row) is dict and type(row.get("label")) is str)
    return len(doc) + sum(map(_keys, tables)) + (labels if labels and "\\" not in text else 0)


def _read_document(path: str | Path, expected: str | None) -> dict:
    """Parse the document at ``path``; check its format tag unless ``expected`` is None.

    Each key takes one ':', so no key repeats when the count matches the text's colons; otherwise
    (a ':' in a string but a label, an uncounted object, a parse error) each object is checked."""
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
        if type(doc) is not dict or _key_count(doc, text) != text.count(":"):
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


# Row tables: name -> (type, need), a type being the allowed types and their name (a _NUM is finite,
# kept as given; a _KEY is a string the caller looks up, and the one pass leaves it to that lookup),
# a need True (required), None (optional) or the message if needed under a parent.
_STR, _KEY, _OR_NULL = ({str}, "a string"), ({str}, "a string"), ({str, type(None)}, "a string or null")
_INT, _NUM = ({int}, "an integer"), ({int, float}, "")
_TREE = {"id": (_STR, True), "parent": (_OR_NULL, None), "depth": (_INT, True), "time": (_NUM, True),
         "p": (_NUM, "('{id}') missing branch probability 'p'")}
_ENTRY = {"leaf": (_STR, True), "depth": (_INT, True), "value": (_NUM, True)}
_INC = {"node": (_KEY, True), "inc": (_NUM, True)}


def _columns(path: str | Path, arrays: list, table: dict, walk: bool = False, shape: str = "") -> list[list]:
    """The rows of the (where, rows, repeated) ``arrays``, one array after another, as ``table``'s columns,
    read in one pass. When that fails, or ``walk`` is set, the rows are walked in input order and the first
    fault raises: no array, no object or a missing field (``shape`` names both), a typed field, a repeat
    in its array of the fields that are no number (``repeated`` formats it), a number, a missing needed
    field. Finding none, the walk returns the columns."""
    if not walk and all(type(rows) is list for _, rows, _ in arrays):
        try:  # one array is read in place, several are joined
            return _pass(sum((rows for _, rows, _ in arrays[1:]), arrays[0][1]), table)
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
    columns = [[] for _ in table]
    for where, rows, repeated in arrays:
        if type(rows) is not list:
            raise FileFormatError(f"{path}: {where} must be an array")
        seen = set()
        for i, row in enumerate(rows):
            if type(row) is not dict:
                raise FileFormatError(f"{path}: {where}[{i}] {shape or 'must be an object'}")
            for name in (name for name, (_, need) in table.items() if need is True and name not in row):
                raise FileFormatError(f"{path}: {where}[{i}] {shape or f'missing field {name!r}'}")
            for name, (kind, _) in table.items():
                if kind is not _NUM and type(row.get(name)) not in kind[0]:
                    raise FileFormatError(f"{path}: {where}[{i}].{name} must be {kind[1]}")
            key = tuple(row.get(name) for name, (kind, _) in table.items() if kind is not _NUM)
            if repeated and key in seen:
                raise FileFormatError(f"{path}: {repeated.format(*key)}")
            seen.add(key)
            for column, (name, (kind, need)) in zip(columns, table.items()):
                if kind is _NUM and name in row:
                    _number(path, row[name], "{}[{}].{}", where, i, name)
                elif type(need) is str and row.get("parent") is not None:
                    raise FileFormatError(f"{path}: {where}[{i}] {need.format(**row)}")
                column.append(row.get(name, 1.0 if type(need) is str else None))  # 1.0: the root's p
    return columns


def _pass(rows: list, table: dict) -> list[list]:
    """The columns of well-formed rows; a fault raises one of the errors ``_columns`` catches."""
    columns = {}
    for name, (kind, need) in table.items():
        column = list(map(itemgetter(name), rows) if need is True else map(dict.get, rows, repeat(name)))
        if type(need) is str:  # the root, the first row with a null parent, may leave it out
            root = columns["parent"].index(None)
            column[root] = rows[root].get(name, 1.0)
        types = kind[0] if kind is _KEY else set(map(type, column))  # a key is left to the lookup
        if not types <= kind[0] or kind is _NUM and not math.isfinite(
                sum(map(float, column) if int in types else column)):  # a float sum: ints may not cancel
            raise TypeError(name)
        columns[name] = column
    return list(columns.values())


def load_tree(path: str | Path) -> ScenarioTree:
    doc = _read_document(path, "tree")
    rows = doc.get("nodes")
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{path}: 'nodes' must be a non-empty array")
    ids, parents, depths, times, probs = _columns(path, [("nodes", rows, "")], _TREE)
    return ScenarioTree(_columns=(ids, parents, depths, [*map(float, times)], [*map(float, probs)]))


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
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise FileFormatError(f"{path}: 'entries' must be an array")
    arrays = [("entries", entries, "duplicate entry for ({}, {})")]
    leaf, depth, value = _columns(path, arrays, _ENTRY)
    values = dict(zip(zip(leaf, depth), value))
    if len(values) < len(entries):
        _columns(path, arrays, _ENTRY, walk=True)  # names the first repeated entry
    return RawProcess(tree, values)


def dump_raw_process(Z: RawProcess, path: str | Path) -> None:
    entries = [{"leaf": leaf, "depth": k, "value": v} for (leaf, k), v in Z.values.items()]
    _write(path, {"format": "raw_process", "entries": entries})


def _read_measure(path: str | Path, obj: Any, tree: ScenarioTree, where: str):
    """The (node, pr, op) layout of a bi-measure object: its pr rows, op rows, then their nodes."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: {where} must be an object")
    arrays = [(f"{where}.{f}", obj.get(f, []), f"duplicate {f} increment at node '{{}}'") for f in ("pr", "op")]
    rows = lambda walk: _columns(path, arrays, _INC, walk, "must be an object with 'node' and 'inc'")
    (nodes, incs), n = rows(False), len(tree.order)
    try:
        fields = _read_fields(tree, nodes, incs, len(arrays[0][1]))
    except (ValidationError, TypeError):  # TypeError: a node that is an array or an object
        rows(True)  # the rows' faults, a node that is no string among them, come before the nodes' faults
        raise
    if any(np.count_nonzero(np.bincount(at, None, n)) < len(at) for at in fields[::2]):
        rows(True)  # fewer distinct nodes than rows: names the first repeated node
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
