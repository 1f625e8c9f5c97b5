"""File formats and the command line driver."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerisk import (
    AdaptedProcess,
    BiMeasure,
    RawProcess,
    RiskMeasureSpec,
    ScenarioTree,
    StaticRV,
    TreeNode,
    ValidationError,
    allocate,
    rho_eval,
    static_rho,
    static_rho_coherent_direct,
    uniform_binomial,
    worst_case_spec,
)
from treerisk import cli, fileio
from treerisk.cli import fmt_real, main
from treerisk.fileio import (
    FileFormatError,
    dump_bimeasure,
    dump_process,
    dump_raw_process,
    dump_spec,
    dump_static,
    dump_tree,
    load_bimeasure,
    load_process,
    load_raw_process,
    load_spec,
    load_static,
    load_tree,
)

from conftest import interleaved_tree, random_process, random_spec, random_static, random_tree

SRC = str(Path(__file__).resolve().parents[1] / "src")  # subprocesses import this checkout


@pytest.fixture
def workdir(tmp_path, t1):
    """T1 fixture files: tree, worst-case spec, the canonical test book."""
    paths = {
        "tree": tmp_path / "tree.json",
        "spec": tmp_path / "spec.json",
        "x": tmp_path / "x.json",
        "y": tmp_path / "y.json",
    }
    dump_tree(t1, paths["tree"])
    dump_spec(worst_case_spec(t1), paths["spec"])
    dump_process(AdaptedProcess(t1, {"root": 0.0, "u": 1.0, "d": -1.0}), paths["x"])
    dump_static(StaticRV(t1, {"u": 1.0, "d": -1.0}), paths["y"])
    paths["ref"] = tmp_path / "ref.json"  # a spec whose one element reads the hostile-document tests' file
    paths["ref"].write_text(json.dumps({"format": "spec", "elements": [{"file": "hostile.json"}]}))
    return tmp_path, {k: str(p) for k, p in paths.items()}


class TestRoundTrips:
    def test_tree(self, tmp_path, t2):
        p = tmp_path / "t.json"
        dump_tree(t2, p)
        back = load_tree(p)
        assert back.order == t2.order
        for nid in t2.order:
            a, b = t2.nodes[nid], back.nodes[nid]
            assert (a.parent, a.depth, a.time, a.branch_prob) == (
                b.parent,
                b.depth,
                b.time,
                b.branch_prob,
            )

    def test_process(self, tmp_path, t2):
        X = AdaptedProcess(t2, {nid: float(i) - 3.0 for i, nid in enumerate(t2.order)})
        p = tmp_path / "x.json"
        dump_process(X, p)
        assert load_process(p, t2).values == X.values

    def test_static(self, tmp_path, t2):
        Y = StaticRV(t2, {leaf: float(i) for i, leaf in enumerate(t2.leaves)})
        p = tmp_path / "y.json"
        dump_static(Y, p)
        assert load_static(p, t2).values == Y.values

    def test_raw_process(self, tmp_path, t1):
        Z = RawProcess(
            t1,
            {
                ("d", 0): 1.0,
                ("d", 1): -2.0,
                ("u", 0): 1.0,
                ("u", 1): 0.25,
            },
        )
        p = tmp_path / "z.json"
        dump_raw_process(Z, p)
        assert load_raw_process(p, t1).values == Z.values

    def test_bimeasure(self, tmp_path, t2):
        a = BiMeasure(t2, pr_inc={"root": -0.5, "d": 0.25}, op_inc={"uu": 1.0})
        p = tmp_path / "a.json"
        dump_bimeasure(a, p)
        back = load_bimeasure(p, t2)
        assert back.pr_inc == a.pr_inc
        assert back.op_inc == a.op_inc

    def test_spec_inline(self, tmp_path, t1):
        spec = worst_case_spec(t1)
        p = tmp_path / "s.json"
        dump_spec(spec, p)
        back = load_spec(p, t1)
        assert back.labels == spec.labels
        assert back.gammas == spec.gammas
        for (a, _), (b, _) in zip(back.elements, spec.elements):
            assert a.pr_inc == b.pr_inc
            assert a.op_inc == b.op_inc

    def test_spec_with_file_reference(self, tmp_path, t1):
        dump_bimeasure(BiMeasure(t1, {}, {"d": 2.0}), tmp_path / "m.json")
        doc = {
            "format": "spec",
            "elements": [{"gamma": 0.0, "label": "ref", "file": "m.json"}],
        }
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        spec = load_spec(p, t1)
        assert spec.labels == ("ref",)
        assert spec.elements[0][0].op_inc == {"d": 2.0}


class TestMalformedFiles:
    def test_wrong_format_tag(self, tmp_path, t1):
        p = tmp_path / "y.json"
        dump_static(StaticRV.constant(t1, 1.0), p)
        with pytest.raises(FileFormatError):
            load_process(p, t1)

    def test_not_json(self, tmp_path, t1):
        p = tmp_path / "bad.json"
        p.write_text("not json at all {")
        with pytest.raises(FileFormatError):
            load_tree(p)

    def test_missing_format(self, tmp_path, t1):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"values": {}}))
        with pytest.raises(FileFormatError) as err:
            load_static(p, t1)
        assert str(err.value) == f"{p}: expected format 'static', found None"

    def test_non_numeric_value(self, tmp_path, t1):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": "static", "values": {"u": "x", "d": 0.0}}))
        with pytest.raises(FileFormatError) as err:
            load_static(p, t1)
        assert str(err.value) == f"{p}: field 'values['u']' must be a number, got 'x'"

    def test_duplicate_increment(self, tmp_path, t1):
        doc = {
            "format": "bimeasure",
            "pr": [],
            "op": [{"node": "u", "inc": 1.0}, {"node": "u", "inc": 2.0}],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as err:
            load_bimeasure(p, t1)
        assert str(err.value) == f"{p}: duplicate op increment at node 'u'"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"op": {"u": 1.0}}, "document.op must be an array"),
            ({"op": [["u", 1.0]]}, "document.op[0] must be an object with 'node' and 'inc'"),
            ({"op": [{"node": "u"}]}, "document.op[0] must be an object with 'node' and 'inc'"),
            ({"pr": [{"node": 1, "inc": 1.0}]}, "document.pr[0].node must be a string"),
            ({"pr": [{"node": "root", "inc": 1.0}, {"node": "root", "inc": 0.0}]},
             "duplicate pr increment at node 'root'"),
            ({"op": [{"node": "u", "inc": 1.0}, {"node": "d", "inc": "1.0"}]},
             "field 'document.op[1].inc' must be a number, got '1.0'"),
            ({"op": [{"node": "u", "inc": math.inf}]}, "field 'document.op[0].inc' must be finite, got inf"),
            # the pr rows come before the op rows, and every row before a node
            ({"pr": [{"node": "u", "inc": 1.0}], "op": {}}, "document.op must be an array"),
            ({"pr": [{"node": "d", "inc": 1.0}, {"node": "d", "inc": 1.0}], "op": [3]},
             "duplicate pr increment at node 'd'"),
            ({"pr": [{"node": "root", "inc": 1.0}, {"node": "root", "inc": 1.0}], "op": [{"node": "zz", "inc": 1.0}]},
             "duplicate pr increment at node 'root'"),
            ({"pr": [{"node": "zz", "inc": 1.0}], "op": [{"node": "u", "inc": 1.0}, {"node": "u", "inc": 1.0}]},
             "duplicate op increment at node 'u'"),
        ],
    )
    def test_standalone_bimeasure_messages(self, tmp_path, t1, fields, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": "bimeasure", **fields}))
        with pytest.raises(FileFormatError) as err:
            load_bimeasure(p, t1)
        assert str(err.value) == f"{p}: {message}"


def _entry(leaf, depth, value=0.0):
    return {"leaf": leaf, "depth": depth, "value": value}


_GRID = [_entry(leaf, k) for leaf in ("d", "u") for k in (0, 1)]

# Raw process documents on uniform_binomial(1) with two faults each: the file
# checks run entry after entry, then the process checks run in input order.
RAW_PROCESS_FILES = {
    "nan-then-leaf-type": (
        [_entry("d", 0, math.nan), _entry(1, 0)],
        "{path}: field 'entries[0].value' must be finite, got nan",
    ),
    "leaf-type-then-nan": ([_entry(1, 0), _entry("d", 0, math.nan)], "{path}: entries[0].leaf must be a string"),
    "unknown-leaf-then-string-value": (
        [_entry("zz", 0, 1.0), _entry("d", 0, "x")],
        "{path}: field 'entries[1].value' must be a number, got 'x'",
    ),
    "duplicate-then-depth-type": (
        [_entry("d", 0), _entry("d", 0), _entry("d", 1.5)],
        "{path}: duplicate entry for (d, 0)",
    ),
    "depth-type-then-duplicate": (
        [_entry("d", True), _entry("d", 0), _entry("d", 0)],
        "{path}: entries[0].depth must be an integer",
    ),
    "missing-field-then-bool": (
        [{"leaf": "d", "depth": 0}, _entry("d", 1, True)],
        "{path}: entries[0] missing field 'value'",
    ),
    "not-object-then-overflow": ([3, _entry("d", 0, 10**400)], "{path}: entries[0] must be an object"),
    "overflow-then-not-object": (
        [_entry("d", 0, 10**400), 3],
        "{path}: field 'entries[0].value' is an integer beyond the float range",
    ),
    "depth-range-then-unknown-leaf": (
        [*_GRID, _entry("u", 5), _entry("zz", 0)],
        "raw process at (u, 5) out of range 0..1",
    ),
    "unknown-leaf-then-depth-range": (
        [*_GRID, _entry("zz", 0), _entry("u", 5)],
        "raw process keyed on unknown leaf 'zz'",
    ),
    "interior-node-then-missing": ([_entry("root", 0), _entry("d", 0)], "raw process keyed on unknown leaf 'root'"),
    "missing-cell": (_GRID[:3], "raw process is missing at (u, 1)"),
}


@pytest.mark.parametrize("case", RAW_PROCESS_FILES, ids=str)
def test_raw_process_file_messages(tmp_path, t1, case):
    entries, message = RAW_PROCESS_FILES[case]
    p = tmp_path / "z.json"
    p.write_text(json.dumps({"format": "raw_process", "entries": entries}))
    with pytest.raises(ValidationError) as err:
        load_raw_process(p, t1)
    assert str(err.value) == message.format(path=p)


def _element(op='[{"node": "du", "inc": 4.0}]', pr="[]", extra=""):
    return '{"measure": {"pr": %s, "op": %s}%s}' % (pr, op, extra)


_GOOD = _element('[{"node": "dd", "inc": 4.0}]')
_BIG = "1" + "0" * 400

# Spec documents on uniform_binomial(2), each rejected with the message a
# row-by-row read gives ({path} is the document, {dir} its directory).
HOSTILE_SPECS = {
    "bool-inc": (
        [_GOOD, _element('[{"node": "du", "inc": true}]')],
        "{path}: field 'elements[1].measure.op[0].inc' must be a number, got True",
    ),
    "string-inc": (
        [_GOOD, _element('[{"node": "du", "inc": "4.0"}]')],
        "{path}: field 'elements[1].measure.op[0].inc' must be a number, got '4.0'",
    ),
    "nan-inc": (
        [_GOOD, _element('[{"node": "du", "inc": NaN}]')],
        "{path}: field 'elements[1].measure.op[0].inc' must be finite, got nan",
    ),
    "infinity-inc": (
        [_GOOD, _element('[{"node": "du", "inc": Infinity}]')],
        "{path}: field 'elements[1].measure.op[0].inc' must be finite, got inf",
    ),
    "float-overflow-inc": (
        [_GOOD, _element('[{"node": "du", "inc": 1e400}]')],
        "{path}: field 'elements[1].measure.op[0].inc' must be finite, got inf",
    ),
    "int-overflow-inc": (
        [_GOOD, _element('[{"node": "du", "inc": %s}]' % _BIG)],
        "{path}: field 'elements[1].measure.op[0].inc' is an integer beyond the float range",
    ),
    "unknown-node": (
        [_GOOD, _element('[{"node": "zz", "inc": 4.0}]')],
        "unknown node id 'zz'",
    ),
    "unknown-node-zero-inc": (
        [_GOOD, _element('[{"node": "du", "inc": 4.0}, {"node": "zz", "inc": 0.0}]')],
        "unknown node id 'zz'",
    ),
    "non-string-node": (
        [_GOOD, _element('[{"node": 5, "inc": 4.0}]')],
        "{path}: elements[1].measure.op[0].node must be a string",
    ),
    "list-node": (
        [_GOOD, _element('[{"node": ["du"], "inc": 4.0}]')],
        "{path}: elements[1].measure.op[0].node must be a string",
    ),
    "duplicate-pr": (
        [_GOOD, _element(pr='[{"node": "d", "inc": 1.0}, {"node": "d", "inc": 1.0}]', op="[]")],
        "{path}: duplicate pr increment at node 'd'",
    ),
    "duplicate-op-zero": (
        [_GOOD, _element('[{"node": "du", "inc": 4.0}, {"node": "du", "inc": 0.0}]')],
        "{path}: duplicate op increment at node 'du'",
    ),
    "pr-at-depth-K": (
        [_GOOD, _element(pr='[{"node": "dd", "inc": 4.0}]', op="[]")],
        "predictable increment stored at node 'dd' (depth 2); entries are only allowed up to depth 1",
    ),
    "pr-at-depth-K-zero": (
        [_GOOD, _element(pr='[{"node": "dd", "inc": 0.0}]')],
        "predictable increment stored at node 'dd' (depth 2); entries are only allowed up to depth 1",
    ),
    "negative-inc": (
        [_GOOD, _element('[{"node": "du", "inc": -4.0}]')],
        "generating element 1 has negative increments",
    ),
    "missing-node-key": (
        [_GOOD, _element('[{"inc": 4.0}]')],
        "{path}: elements[1].measure.op[0] must be an object with 'node' and 'inc'",
    ),
    "missing-inc-key": (
        [_GOOD, _element('[{"node": "du"}]')],
        "{path}: elements[1].measure.op[0] must be an object with 'node' and 'inc'",
    ),
    "non-object-row": (
        [_GOOD, _element('["du"]')],
        "{path}: elements[1].measure.op[0] must be an object with 'node' and 'inc'",
    ),
    "non-array-field": (
        [_GOOD, _element('{"du": 4.0}')],
        "{path}: elements[1].measure.op must be an array",
    ),
    "non-object-measure": (
        [_GOOD, '{"measure": [1]}'],
        "{path}: elements[1].measure must be an object",
    ),
    "all-zero-measure": (
        [_GOOD, _element('[{"node": "du", "inc": 0.0}]')],
        "generating element 1 must have unit expected variation, got 0.0",
    ),
    "non-unit-measure": (
        [_GOOD, _element('[{"node": "du", "inc": 2.0}]')],
        "generating element 1 must have unit expected variation, got 0.5",
    ),
    "non-string-label": (
        [_GOOD, _element(extra=', "label": 5')],
        "{path}: elements[1].label must be a string",
    ),
    "bool-gamma": (
        [_GOOD, _element(extra=', "gamma": true')],
        "{path}: field 'elements[1].gamma' must be a number, got True",
    ),
    "nan-gamma": (
        [_GOOD, _element(extra=', "gamma": NaN')],
        "{path}: field 'elements[1].gamma' must be finite, got nan",
    ),
    "int-overflow-gamma": (
        [_GOOD, _element(extra=', "gamma": %s' % _BIG)],
        "{path}: field 'elements[1].gamma' is an integer beyond the float range",
    ),
    "non-object-element": ([_GOOD, "3"], "{path}: elements[1] must be an object"),
    "no-measure-or-file": (
        [_GOOD, '{"gamma": 0.0}'],
        "{path}: elements[1] needs either an inline 'measure' or a 'file' reference",
    ),
    "non-string-file": ([_GOOD, '{"file": 3}'], "{path}: elements[1].file must be a string"),
    "missing-file": (
        [_GOOD, '{"file": "absent.json"}'],
        "{dir}/absent.json: cannot read file ([Errno 2] No such file or directory: '{dir}/absent.json')",
    ),
    # a document's parse faults come before any element's spec checks, and
    # those run element after element, each norm before the next sign
    "order-norm-then-parse": (
        [_element('[{"node": "du", "inc": 2.0}]'), _element('[{"node": "zz", "inc": 4.0}]')],
        "unknown node id 'zz'",
    ),
    "order-sign-then-label": (
        [_element('[{"node": "du", "inc": -4.0}]'), _element(extra=', "label": 5')],
        "{path}: elements[1].label must be a string",
    ),
    "order-norm-then-sign": (
        [_element('[{"node": "du", "inc": 2.0}]'), _element('[{"node": "du", "inc": -4.0}]')],
        "generating element 0 must have unit expected variation, got 0.5",
    ),
    "order-sign-then-norm": (
        [_element('[{"node": "du", "inc": -4.0}]'), _element('[{"node": "du", "inc": 2.0}]')],
        "generating element 0 has negative increments",
    ),
}


class TestSpecDocuments:
    @pytest.mark.parametrize("case", sorted(HOSTILE_SPECS))
    def test_hostile_spec_message(self, tmp_path, t2, case):
        elements, message = HOSTILE_SPECS[case]
        p = tmp_path / "spec.json"
        p.write_text('{"format": "spec", "elements": [%s]}' % ", ".join(elements))
        with pytest.raises(ValidationError) as err:
            load_spec(p, t2)
        assert str(err.value) == message.format(path=p, dir=tmp_path)

    def test_duplicate_node_in_a_referenced_measure(self, tmp_path, t2):
        (tmp_path / "m.json").write_text(
            '{"format": "bimeasure", "op": [{"node": "du", "inc": 4.0}, {"node": "du", "inc": 4.0}]}'
        )
        p = tmp_path / "spec.json"
        p.write_text('{"format": "spec", "elements": [%s, {"file": "m.json"}]}' % _GOOD)
        with pytest.raises(ValidationError) as err:
            load_spec(p, t2)
        assert str(err.value) == f"{tmp_path / 'm.json'}: duplicate op increment at node 'du'"

    @staticmethod
    def node_increments(spec):
        """Per element, node id -> (pr, op) as float.hex strings."""
        return [
            {
                n: (float.hex(a.pr_inc.get(n, 0.0)), float.hex(a.op_inc.get(n, 0.0)))
                for n in {**a.pr_inc, **a.op_inc}
            }
            for a in spec.measures()
        ]

    @staticmethod
    def array_increments(spec):
        """The same, read off the spec's arrays."""
        order = spec.tree.order
        return [
            {
                order[n]: (float.hex(p), float.hex(o))
                for n, p, o in zip(
                    spec._node[lo:hi].tolist(), spec._pr[lo:hi].tolist(), spec._op[lo:hi].tolist()
                )
            }
            for lo, hi in spec._bounds
        ]

    @staticmethod
    def results(spec, rng):
        tree = spec.tree
        X = random_process(tree, rng, scale=1e6)
        Y = random_static(tree, rng)
        res = rho_eval(spec, X)
        out = [res.value, *res.values, static_rho(spec, Y)]
        if spec.is_coherent:
            out.append(static_rho_coherent_direct(spec, Y))
            alloc = allocate(spec, [random_process(tree, rng) for _ in range(3)])
            out += [*alloc.k, alloc.rho_total, alloc.sum_k]
        return [float.hex(v) for v in out] + [res.argmax]

    def test_loaded_spec_matches_its_measures(self, tmp_path):
        rng = np.random.default_rng(211)
        for trial in range(12):
            tree = (random_tree if trial % 2 else interleaved_tree)(rng, max_depth=4)
            spec = random_spec(tree, rng, n_elements=4, coherent=trial % 3 != 0)
            p = tmp_path / "spec.json"
            dump_spec(spec, p)
            doc = json.loads(p.read_text())
            # element 1 by file reference
            m = doc["elements"][1].pop("measure")
            (tmp_path / "m.json").write_text(json.dumps({"format": "bimeasure", **m}))
            doc["elements"][1]["file"] = "m.json"
            p.write_text(json.dumps(doc))
            loaded = load_spec(p, tree)
            assert loaded.labels == spec.labels
            assert loaded.gammas == spec.gammas
            assert self.array_increments(loaded) == self.node_increments(spec)
            assert self.node_increments(loaded) == self.node_increments(spec)
            assert hexed(loaded._weight) == hexed(RiskMeasureSpec(tree, spec.elements)._weight)
            seed = int(rng.integers(1 << 30))
            expected = self.results(spec, np.random.default_rng(seed))
            assert self.results(loaded, np.random.default_rng(seed)) == expected

    def test_shuffled_and_zero_rows(self, tmp_path):
        rng = np.random.default_rng(217)
        for trial in range(8):
            tree = interleaved_tree(rng, max_depth=4)
            spec = random_spec(tree, rng, n_elements=4, coherent=True)
            p = tmp_path / "spec.json"
            dump_spec(spec, p)
            doc = json.loads(p.read_text())
            for row in doc["elements"]:
                m = row["measure"]
                # zero rows: an op row at a pr node, a pr row at an op-only node, a lone zero
                pr_nodes = {r["node"] for r in m["pr"]}
                interior = [n for n in tree.order if tree.nodes[n].depth < tree.K]
                if m["pr"] and not any(r["node"] == m["pr"][0]["node"] for r in m["op"]):
                    m["op"].append({"node": m["pr"][0]["node"], "inc": 0.0})
                only = [r["node"] for r in m["op"] if r["node"] not in pr_nodes]
                if only and tree.nodes[only[0]].depth < tree.K:
                    m["pr"].append({"node": only[0], "inc": 0})
                idle = [n for n in interior if n not in pr_nodes and n not in only]
                if idle:
                    m["pr"].append({"node": idle[0], "inc": -0.0})
                for field in ("pr", "op"):
                    m[field] = [m[field][j] for j in rng.permutation(len(m[field]))]
            p.write_text(json.dumps(doc))
            loaded = load_spec(p, tree)
            assert self.array_increments(loaded) == self.node_increments(spec)
            seed = int(rng.integers(1 << 30))
            expected = self.results(spec, np.random.default_rng(seed))
            assert self.results(loaded, np.random.default_rng(seed)) == expected

    def test_dump_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(223)
        tree = interleaved_tree(rng, max_depth=4)
        for spec in (random_spec(tree, rng, n_elements=5), worst_case_spec(tree)):
            first, second = tmp_path / "a.json", tmp_path / "b.json"
            dump_spec(spec, first)
            dump_spec(load_spec(first, tree), second)
            assert first.read_bytes() == second.read_bytes()

    def test_measures_are_built_on_demand(self, tmp_path, t2, monkeypatch):
        p = tmp_path / "spec.json"
        dump_spec(worst_case_spec(t2), p)
        built = []
        keep = BiMeasure._keep  # every BiMeasure, from dicts or from arrays, is laid out here
        monkeypatch.setattr(BiMeasure, "_keep", lambda a, *arrays: built.append(1) or keep(a, *arrays))
        spec = load_spec(p, t2)
        rho_eval(spec, AdaptedProcess.zero(t2))
        static_rho_coherent_direct(spec, StaticRV.constant(t2, 1.0))
        assert built == []
        assert spec.measures()[0].op_inc == {"dd": 4.0}
        assert len(built) == len(spec)


def hexed(values):
    return [float.hex(v) for v in values.tolist()]


def test_readme_tree_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    example = next(b for b in blocks if '"format": "tree"' in b)
    p = tmp_path / "tree.json"
    p.write_text(example)
    tree = load_tree(p)
    assert tree.leaves == ("d", "u")
    assert tree.prob == {"root": 1.0, "d": 0.5, "u": 0.5}


class TestFormatting:
    def test_fmt_real(self):
        assert fmt_real(1.0) == "1.000000000000"
        assert fmt_real(0.0) == "0.000000000000"
        assert fmt_real(-0.0) == "0.000000000000"
        assert fmt_real(math.inf) == "inf"
        assert fmt_real(-math.inf) == "-inf"
        assert fmt_real(12345.6) == "1.234560000000e+04"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def parses(monkeypatch):
    """The texts passed to ``json.loads`` while the test runs."""
    texts = []
    loads = json.loads

    def counting_loads(text, **kw):
        texts.append(text)
        return loads(text, **kw)

    monkeypatch.setattr(json, "loads", counting_loads)
    return texts


def _doc(fmt, **fields):
    return json.dumps({"format": fmt, **fields}).encode()


def _line(message):
    """The whole error line for a hostile document; ``{bad}`` stands for its path."""
    return f"error: {{bad}}: {message}\n"


# argv templates for a hostile document read as each kind of input
_STATIC = ("instances", "--tree", "{tree}", "--process", "{bad}", "--alpha", "0.5")
_TREE = ("instances", "--tree", "{bad}", "--process", "{y}", "--alpha", "0.5")
_PROJECT = ("project", "--tree", "{tree}", "--process", "{bad}")
_SPEC = ("eval", "--tree", "{tree}", "--spec", "{bad}", "--process", "{x}")
_PROCESS = ("eval", "--tree", "{tree}", "--spec", "{spec}", "--process", "{bad}")
_MEASURE = ("conjugate", "--tree", "{tree}", "--spec", "{spec}", "--measure", "{bad}")
_REF = ("eval", "--tree", "{tree}", "--spec", "{ref}", "--process", "{x}")  # a spec whose element reads {bad}


class TestEvalCommand:
    def test_table(self, workdir, capsys):
        _, p = workdir
        code, out, _ = run_cli(
            capsys, "eval", "--tree", p["tree"], "--spec", p["spec"], "--process", p["x"]
        )
        assert code == 0
        assert "value = 1.000000000000" in out
        assert "maximizers = leaf:d" in out

    def test_csv_marks_maximizer(self, workdir, capsys):
        _, p = workdir
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--tree",
            p["tree"],
            "--spec",
            p["spec"],
            "--process",
            p["x"],
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "element,penalized_loss,maximizer"
        assert "leaf:d,1.000000000000,*" in lines
        assert "# value = 1.000000000000" in lines

    def test_structured(self, workdir, capsys):
        _, p = workdir
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--tree",
            p["tree"],
            "--spec",
            p["spec"],
            "--process",
            p["x"],
            "--format",
            "structured",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "eval"
        assert payload["summary"]["value"] == 1.0
        assert payload["summary"]["maximizers"] == "leaf:d"

    def test_missing_spec_is_a_usage_error(self, workdir, capsys):
        _, p = workdir
        code, _, err = run_cli(capsys, "eval", "--tree", p["tree"], "--process", p["x"])
        assert code == 1
        assert err.startswith("error:")


class TestOtherCommands:
    def test_static_eval_shows_direct_route(self, workdir, capsys):
        _, p = workdir
        code, out, _ = run_cli(
            capsys,
            "static-eval",
            "--tree",
            p["tree"],
            "--spec",
            p["spec"],
            "--process",
            p["y"],
        )
        assert code == 0
        assert "value" in out
        assert "coherent_direct" in out
        assert out.count("1.000000000000") == 2

    def test_project_static(self, workdir, capsys, t1):
        _, p = workdir
        code, out, _ = run_cli(
            capsys, "project", "--tree", p["tree"], "--process", p["y"]
        )
        assert code == 0
        assert "root  0.000000000000" in out
        assert "input = static" in out

    def test_project_raw(self, workdir, capsys, t1, tmp_path):
        _, p = workdir
        Z = RawProcess(
            t1, {("d", 0): 2.0, ("d", 1): 0.0, ("u", 0): 0.0, ("u", 1): 0.0}
        )
        zp = tmp_path / "z.json"
        dump_raw_process(Z, zp)
        code, out, _ = run_cli(
            capsys,
            "project",
            "--tree",
            p["tree"],
            "--process",
            str(zp),
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "node,optional,predictable"
        assert "root,1.000000000000,1.000000000000" in lines

    def test_conjugate_feasible(self, workdir, capsys, t1, tmp_path):
        _, p = workdir
        mp = tmp_path / "m.json"
        dump_bimeasure(BiMeasure(t1, {}, {"d": 2.0}), mp)
        code, out, _ = run_cli(
            capsys,
            "conjugate",
            "--tree",
            p["tree"],
            "--spec",
            p["spec"],
            "--measure",
            str(mp),
        )
        assert code == 0
        assert "status = feasible" in out
        assert "value = 0.000000000000" in out

    def test_conjugate_infeasible_exits_2(self, workdir, capsys, t1, tmp_path):
        _, p = workdir
        mp = tmp_path / "m.json"
        dump_bimeasure(BiMeasure(t1, {"root": 1.0}, {}), mp)
        code, out, _ = run_cli(
            capsys,
            "conjugate",
            "--tree",
            p["tree"],
            "--spec",
            p["spec"],
            "--measure",
            str(mp),
        )
        assert code == 2
        assert "status = infeasible" in out
        assert "value = inf" in out

    def test_allocate_fixture(self, workdir, capsys, t1, tmp_path):
        _, p = workdir
        x2 = tmp_path / "x2.json"
        dump_process(AdaptedProcess(t1, {"root": 0.0, "u": -1.0, "d": 0.5}), x2)
        code, out, _ = run_cli(
            capsys,
            "allocate",
            "--tree",
            p["tree"],
            "--spec",
            p["spec"],
            "--process",
            p["x"],
            "--process",
            str(x2),
            "--seed",
            "11",
        )
        assert code == 0
        assert "1.000000000000" in out
        assert "-0.500000000000" in out
        assert "rho_total = 0.500000000000" in out
        assert "maximizer = leaf:d" in out
        assert "fairness_checked = 1003" in out
        assert "fairness_passed = True" in out

    def test_allocate_requires_seed(self, workdir, capsys):
        _, p = workdir
        code, _, err = run_cli(
            capsys,
            "allocate",
            "--tree",
            p["tree"],
            "--spec",
            p["spec"],
            "--process",
            p["x"],
        )
        assert code == 1
        assert "--seed" in err

    def test_instances_and_undefined_tce(self, workdir, capsys, t1, tmp_path):
        _, p = workdir
        code, out, _ = run_cli(
            capsys,
            "instances",
            "--tree",
            p["tree"],
            "--process",
            p["y"],
            "--alpha",
            "0.5",
        )
        assert code == 0
        assert "status = ok" in out

        cp = tmp_path / "const.json"
        dump_static(StaticRV.constant(t1, 1.0), cp)
        code, out, _ = run_cli(
            capsys,
            "instances",
            "--tree",
            p["tree"],
            "--process",
            str(cp),
            "--alpha",
            "0.5",
        )
        assert code == 2
        assert "undefined" in out
        assert "status = undefined-quantity" in out

    def test_entropic_past_the_float_range(self, workdir, capsys, t1, tmp_path):
        _, p = workdir
        yp = tmp_path / "huge.json"
        dump_static(StaticRV(t1, {"u": -1e308, "d": 0.0}), yp)
        code, out, _ = run_cli(
            capsys, "instances", "--tree", p["tree"], "--process", str(yp),
            "--alpha", "0.5", "--beta", "10",
        )
        assert code == 0
        assert "entropic[10]  1.000000000000e+308" in out.splitlines()

    @pytest.mark.parametrize(
        "values, alpha, code, row",
        [
            ((-1.5e308, 1.5e308, 1.0, 2.0), "0.9", 0, ["avar[0.9]", "1.666666666667e+307"]),
            ((1.0, 2.0, 3.0, -4.0), "1e-310", 2, ["avar[1e-310]", "4.000000000000"]),
        ],
        ids=["spread-past-the-float-range", "reciprocal-level-overflows"],
    )
    def test_avar_at_the_float_edges(self, capsys, tmp_path, values, alpha, code, row):
        tree = uniform_binomial(2)
        dump_tree(tree, tmp_path / "tree.json")
        dump_static(StaticRV(tree, dict(zip(tree.leaves, values))), tmp_path / "y.json")
        args = ["--tree", str(tmp_path / "tree.json"), "--process", str(tmp_path / "y.json"), "--alpha", alpha]
        got, out, _ = run_cli(capsys, "instances", *args)
        assert got == code  # 2: tce is undefined at the worst atom
        assert row in [line.split() for line in out.splitlines()]

    def test_entropic_of_a_constant_on_a_leaf_mass_off_one(self, capsys, tmp_path):
        # branch probabilities 0.5 + 4e-13 each, which the tree accepts; the constant 2.0 read -1.9999999999992
        rows = [TreeNode("root", None, 0, 0.0, 1.0)] + [TreeNode(nid, "root", 1, 1.0, 0.5 + 4e-13) for nid in "ab"]
        tree = ScenarioTree(rows)
        dump_tree(tree, tmp_path / "tree.json")
        dump_static(StaticRV.constant(tree, 2.0), tmp_path / "y.json")
        args = ["--tree", str(tmp_path / "tree.json"), "--process", str(tmp_path / "y.json"), "--alpha", "0.5"]
        code, out, _ = run_cli(capsys, "instances", *args)
        assert code == 2  # no outcome lies below the value at risk of a constant
        assert ["entropic[1]", "-2.000000000000"] in [line.split() for line in out.splitlines()]

    def test_diagnose_ui(self, workdir, capsys, t1, tmp_path):
        _, p = workdir
        fp = tmp_path / "f.json"
        dump_static(StaticRV.constant(t1, 1.0), fp)
        code, out, _ = run_cli(
            capsys,
            "diagnose-ui",
            "--tree",
            p["tree"],
            "--process",
            str(fp),
            "--kgrid",
            "0,1",
        )
        assert code == 0
        assert "verdict = decaying" in out

    @pytest.mark.parametrize("command", ["diagnose-ui", "diagnose-lebesgue"])
    def test_nan_threshold_exits_1(self, workdir, capsys, command):
        _, p = workdir
        if command == "diagnose-ui":
            args = ["--tree", p["tree"], "--process", p["y"]]
        else:
            args = ["--depths", "1,2"]
        code, out, err = run_cli(capsys, command, *args, "--kgrid", "0,nan")
        assert (code, out) == (1, "")
        assert err == "error: thresholds must be nonnegative and strictly increasing\n"

    @pytest.mark.parametrize("kgrid", ["0,inf", "1e400"])
    @pytest.mark.parametrize("command", ["diagnose-ui", "diagnose-lebesgue"])
    def test_infinite_threshold_exits_1(self, workdir, capsys, command, kgrid):
        _, p = workdir
        if command == "diagnose-ui":
            args = ["--tree", p["tree"], "--process", p["y"]]
        else:
            args = ["--depths", "5,6"]
        code, out, err = run_cli(capsys, command, *args, "--kgrid", kgrid)
        assert (code, out) == (1, "")
        assert err == "error: thresholds must be nonnegative and strictly increasing\n"

    def test_diagnose_lebesgue(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose-lebesgue", "--family", "worst-case", "--depths", "1,2,3,4,5,6"
        )
        assert code == 0
        assert "verdict = violating" in out

        code, out, _ = run_cli(
            capsys,
            "diagnose-lebesgue",
            "--family",
            "avar",
            "--alpha",
            "0.1",
            "--depths",
            "1,2,3,4,5,6",
        )
        assert code == 0
        assert "verdict = consistent" in out

    def test_diagnose_identities(self, workdir, capsys):
        _, p = workdir
        code, out, _ = run_cli(
            capsys,
            "diagnose-identities",
            "--tree",
            p["tree"],
            "--seed",
            "7",
            "--samples",
            "20",
            "--format",
            "structured",
        )
        assert code == 0
        payload = json.loads(out)
        checks = {row[0]: row[1] for row in payload["rows"]}
        assert set(checks) == {
            "martingale_duality",
            "projection_adjointness",
            "terminal_bound_slack",
            "variation_additivity",
            "jordan_difference",
        }
        assert checks["martingale_duality"] <= 1e-12
        assert checks["projection_adjointness"] <= 1e-12
        assert checks["terminal_bound_slack"] <= 0.0


class TestDeterminismAndErrors:
    def test_allocate_runs_are_byte_identical(self, workdir, capsys, t1, tmp_path):
        _, p = workdir
        x2 = tmp_path / "x2.json"
        dump_process(AdaptedProcess(t1, {"root": 0.0, "u": -1.0, "d": 0.5}), x2)
        outs = []
        for name in ("o1.txt", "o2.txt"):
            target = tmp_path / name
            code = main(
                [
                    "allocate",
                    "--tree",
                    p["tree"],
                    "--spec",
                    p["spec"],
                    "--process",
                    p["x"],
                    "--process",
                    str(x2),
                    "--seed",
                    "99",
                    "--format",
                    "structured",
                    "--out",
                    str(target),
                ]
            )
            assert code == 0
            outs.append(target.read_bytes())
        assert capsys.readouterr().out == ""
        assert outs[0] == outs[1]

    def test_identities_runs_are_byte_identical(self, workdir, capsys):
        _, p = workdir
        argv = [
            "diagnose-identities",
            "--tree",
            p["tree"],
            "--seed",
            "4",
            "--samples",
            "10",
        ]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_bad_choice_exits_1(self, capsys):
        for argv in (
            ["eval", "--format", "yaml"],
            ["diagnose-lebesgue", "--family", "bogus", "--depths", "1,2"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert "invalid choice" in err

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["eval", "--help"]):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert "--process" in out and "--format" in out

    def test_no_command_exits_1(self, capsys):
        code, out, err = run_cli(capsys)
        assert (code, out) == (1, "")
        assert "command" in err

    def test_missing_process_is_a_usage_error(self, workdir, capsys):
        _, p = workdir
        code, out, err = run_cli(capsys, "eval", "--tree", p["tree"], "--spec", p["spec"])
        assert (code, out) == (1, "")
        assert err == "error: command 'eval' requires --process\n"

    def test_flags_may_precede_the_command(self, workdir, capsys):
        _, p = workdir
        flags = ["--tree", p["tree"], "--spec", p["spec"], "--process", p["x"], "--format", "csv"]
        after = run_cli(capsys, "eval", *flags)
        assert after[0] == 0
        assert run_cli(capsys, *flags, "eval") == after
        assert run_cli(capsys, *flags[:4], "eval", *flags[4:]) == after

    def test_malformed_file_exits_1(self, workdir, capsys, tmp_path):
        _, p = workdir
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli(
            capsys, "eval", "--tree", str(bad), "--spec", p["spec"], "--process", p["x"]
        )
        assert code == 1
        assert err.startswith("error:")

    def test_out_into_missing_directory_exits_1(self, workdir, capsys, tmp_path):
        _, p = workdir
        out = tmp_path / "no" / "such" / "dir" / "report.txt"
        code, stdout, err = run_cli(
            capsys, "eval", "--tree", p["tree"], "--spec", p["spec"], "--process", p["x"],
            "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: cannot write report to")
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message, argv",
        [
            (b'{"format": "static", "values": {"d": 1' + b"0" * 400 + b', "u": 0.0}}', "float range", _STATIC),
            (b"\xff\xfe" + '{"format": "static"}'.encode("utf-16-le"), "not UTF-8", _STATIC),
            (b'{"format": "static", "values": {"d": 1.0, "u": 0.0, "d": 5.0}}', "duplicate key 'd'", _STATIC),
            (b'{"format": "static", "values": {"d": 1' + b"0" * 5000 + b', "u": 0.0}}', "invalid JSON", _STATIC),
            (b"[" * 100000 + b"]" * 100000, "invalid JSON", _STATIC),
            # the rest give the whole error line
            (_doc("tree", nodes=[]), _line("'nodes' must be a non-empty array"), _TREE),
            (_doc("tree", nodes=[1]), _line("nodes[0] must be an object"), _TREE),
            (_doc("tree", nodes=[{"depth": 0, "time": 0}]), _line("nodes[0] missing field 'id'"), _TREE),
            (_doc("tree", nodes=[{"id": "r", "time": 0}]), _line("nodes[0] missing field 'depth'"), _TREE),
            (_doc("tree", nodes=[{"id": "r", "depth": 0}]), _line("nodes[0] missing field 'time'"), _TREE),
            (_doc("tree", nodes=[{"id": 1, "depth": 0, "time": 0}]), _line("nodes[0].id must be a string"), _TREE),
            (
                _doc("tree", nodes=[{"id": "r", "parent": 3, "depth": 0, "time": 0}]),
                _line("nodes[0].parent must be a string or null"),
                _TREE,
            ),
            (_doc("tree", nodes=[{"id": "r", "depth": True, "time": 0}]), _line("nodes[0].depth must be an integer"), _TREE),
            (
                _doc("tree", nodes=[{"id": "r", "depth": 0, "time": 0}, {"id": "a", "parent": "r", "depth": 1, "time": 1}]),
                _line("nodes[1] ('a') missing branch probability 'p'"),
                _TREE,
            ),
            (_doc("raw_process", entries={}), _line("'entries' must be an array"), _PROJECT),
            (_doc("raw_process", entries=[1]), _line("entries[0] must be an object"), _PROJECT),
            (_doc("raw_process", entries=[{"leaf": "d", "depth": 0}]), _line("entries[0] missing field 'value'"), _PROJECT),
            (_doc("raw_process", entries=[{"leaf": 1, "depth": 0, "value": 0}]), _line("entries[0].leaf must be a string"), _PROJECT),
            (
                _doc("raw_process", entries=[{"leaf": "d", "depth": "0", "value": 0}]),
                _line("entries[0].depth must be an integer"),
                _PROJECT,
            ),
            (
                _doc("raw_process", entries=[{"leaf": "dd", "depth": 0, "value": 0}] * 2),
                _line("duplicate entry for (dd, 0)"),
                _PROJECT,
            ),
            (b"[]", _line("top level must be an object"), _STATIC),
            (_doc("static", values=[]), _line("'values' must be an object"), _STATIC),
            (_doc("spec", elements=[]), _line("'elements' must be a non-empty array"), _SPEC),
            # one repeated key at each nesting level of each format
            (b'{"format": "tree", "format": "tree", "nodes": []}', _line("invalid JSON: duplicate key 'format'"), _TREE),
            (
                b'{"format": "tree", "nodes": [{"id": "root", "parent": null, "depth": 0, "depth": 0, "time": 0.0}]}',
                _line("invalid JSON: duplicate key 'depth'"),
                _TREE,
            ),
            (
                b'{"format": "process", "values": {"root": 0.0, "u": 1.0, "d": -1.0, "root": 0.0}}',
                _line("invalid JSON: duplicate key 'root'"),
                _PROCESS,
            ),
            (
                b'{"format": "raw_process", "entries": [{"leaf": "d", "leaf": "u", "depth": 0, "value": 0.0}]}',
                _line("invalid JSON: duplicate key 'leaf'"),
                _PROJECT,
            ),
            (b'{"format": "bimeasure", "op": [], "op": []}', _line("invalid JSON: duplicate key 'op'"), _MEASURE),
            (
                b'{"format": "bimeasure", "pr": [{"node": "root", "inc": 1.0, "inc": 1.0}], "op": []}',
                _line("invalid JSON: duplicate key 'inc'"),
                _MEASURE,
            ),
            (
                b'{"format": "bimeasure", "pr": [], "op": [{"node": "d", "node": "u", "inc": 1.0}]}',
                _line("invalid JSON: duplicate key 'node'"),
                _MEASURE,
            ),
            (
                b'{"format": "spec", "elements": [{"gamma": 0.0, "measure": {"op": [{"node": "d", "inc": 1.0}]}, "gamma": 0.0}]}',
                _line("invalid JSON: duplicate key 'gamma'"),
                _SPEC,
            ),
            (
                b'{"format": "spec", "elements": [{"measure": {"pr": [], "op": [{"node": "d", "inc": 1.0}], "pr": []}}]}',
                _line("invalid JSON: duplicate key 'pr'"),
                _SPEC,
            ),
            (
                b'{"format": "spec", "elements": [{"measure": {"op": [{"node": "d", "inc": 1.0, "node": "u"}]}}]}',
                _line("invalid JSON: duplicate key 'node'"),
                _SPEC,
            ),
            (
                b'{"format": "bimeasure", "pr": [], "op": [{"node": "d", "inc": 1.0, "inc": 2.0}]}',
                _line("invalid JSON: duplicate key 'inc'"),
                _REF,
            ),
            # a repeated key in an object no format field holds
            (
                b'{"format": "tree", "nodes": [{"id": "root", "depth": 0, "time": 0.0, "note": {"a": 1, "a": 2}}]}',
                _line("invalid JSON: duplicate key 'a'"),
                _TREE,
            ),
            (
                b'{"format": "static", "values": {"d": 1.0, "u": 0.0}, "meta": {"by": "x", "by": "y"}}',
                _line("invalid JSON: duplicate key 'by'"),
                _STATIC,
            ),
            # a repeated key beside a list or a string as long as the keys it merged
            (
                b'{"format": "tree", "nodes": [{"id": "root", "id": "root", "depth": 0, "time": 0.0}, [1]]}',
                _line("invalid JSON: duplicate key 'id'"),
                _TREE,
            ),
            (
                b'{"format": "tree", "nodes": [{"id": "root", "id": "root", "depth": 0, "time": 0.0}, "x"]}',
                _line("invalid JSON: duplicate key 'id'"),
                _TREE,
            ),
            (
                b'{"format": "bimeasure", "pr": [{"node": "root", "inc": 1.0, "inc": 1.0}, [0]], "op": []}',
                _line("invalid JSON: duplicate key 'inc'"),
                _MEASURE,
            ),
            (
                b'{"format": "spec", "elements": [{"gamma": 0.0, "gamma": 0.0, "measure": {}}, "x"]}',
                _line("invalid JSON: duplicate key 'gamma'"),
                _SPEC,
            ),
            # a repeated key, then a syntax error
            (
                b'{"format": "static", "values": {"d": 1.0, "d": 2.0}, "x": }',
                _line("invalid JSON: duplicate key 'd'"),
                _STATIC,
            ),
            (
                b'{"format": "static", "format": "static", "values": {"d": 1.0, "u": ]}',
                _line("invalid JSON at line 1, column 68: Expecting value"),
                _STATIC,
            ),
        ],
        ids=[
            "huge-integer", "utf-16", "duplicate-key", "over-long-integer", "deep-nesting",
            "tree-nodes-empty", "tree-node-not-object", "tree-missing-id", "tree-missing-depth",
            "tree-missing-time", "tree-id-type", "tree-parent-type", "tree-depth-bool", "tree-missing-p",
            "raw-entries-type", "raw-entry-not-object", "raw-missing-field", "raw-leaf-type",
            "raw-depth-type", "raw-duplicate", "top-level-array", "static-values-type", "spec-elements-empty",
            "duplicate-format", "duplicate-in-tree-row", "duplicate-in-process-values",
            "duplicate-in-raw-entry", "duplicate-in-bimeasure", "duplicate-in-pr-row", "duplicate-in-op-row",
            "duplicate-in-spec-element", "duplicate-in-inline-measure", "duplicate-in-measure-row",
            "duplicate-in-referenced-measure", "duplicate-in-unknown-row-field",
            "duplicate-in-unknown-top-field", "duplicate-beside-list-node", "duplicate-beside-string-node",
            "duplicate-beside-list-pr-row", "duplicate-beside-string-element", "duplicate-then-syntax-error",
            "syntax-error-after-duplicate-format",
        ],
    )
    def test_hostile_document_exits_1(self, workdir, capsys, tmp_path, content, message, argv):
        _, p = workdir
        bad = tmp_path / "hostile.json"
        bad.write_bytes(content)
        code, out, err = run_cli(capsys, *(a.format(bad=bad, **p) for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert message.format(bad=bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["allocate", "--spec", "{spec}", "--process", "{x}", "--seed", "-1"], "--seed must be nonnegative, got -1"),
            (["diagnose-identities", "--seed", "-1"], "--seed must be nonnegative, got -1"),
            (["conjugate", "--spec", "{spec}", "--measure", "{m}", "--tol", "inf"], "tolerance must be finite, got inf"),
            (["conjugate", "--spec", "{spec}", "--measure", "{m}", "--tol", "nan"], "tolerance must be nonnegative, got nan"),
            (["diagnose-lebesgue", "--depths", "1,x"], "expected a comma separated integer list, got '1,x'"),
            (["diagnose-ui", "--process", "{y}", "--kgrid", "0,x"], "expected a comma separated number list, got '0,x'"),
            (["diagnose-identities", "--seed", "1", "--samples", "0"], "--samples must be positive, got 0"),
            (
                ["allocate", "--spec", "{spec}", "--process", "{x}", "--seed", "1", "--samples", "-1"],
                "samples must be nonnegative, got -1",
            ),
            (["eval", "--spec", "{spec}", "--process", "{x}", "--process", "{x}"], "command 'eval' takes exactly one --process"),
        ],
        ids=[
            "allocate-seed", "identities-seed", "tol-inf", "tol-nan", "depths-list", "kgrid-list",
            "identities-samples", "allocate-samples", "eval-two-processes",
        ],
    )
    def test_bad_flag_values_exit_1(self, workdir, capsys, t1, tmp_path, argv, message):
        _, p = workdir
        dump_bimeasure(BiMeasure(t1, {}, {"d": 2.0}), tmp_path / "m.json")
        paths = {**p, "m": str(tmp_path / "m.json")}
        args = [argv[0], "--tree", p["tree"], *(a.format(**paths) for a in argv[1:])]
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    def test_instances_level_above_the_leaf_mass_exits_2(self, capsys, tmp_path):
        # the leaves add up to 1 - 4e-13, which the tree's 1e-12 mass check accepts
        tree = ScenarioTree(
            [
                TreeNode("root", None, 0, 0.0, 1.0),
                TreeNode("a", "root", 1, 1.0, 0.5),
                TreeNode("b", "root", 1, 1.0, 0.4999999999996),
            ]
        )
        dump_tree(tree, tmp_path / "tree.json")
        dump_static(StaticRV(tree, {"a": 1.0, "b": 2.0}), tmp_path / "y.json")
        code, out, err = run_cli(
            capsys,
            "instances",
            "--tree",
            str(tmp_path / "tree.json"),
            "--process",
            str(tmp_path / "y.json"),
            "--alpha",
            "0.9999999999999",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: quantile undefined: the leaf probabilities add up to 0.9999999999996, "
            "not above alpha = 0.9999999999999\n"
        )
        assert "Traceback" not in err

    def test_lebesgue_depth_cap_refuses_before_building(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("a refused depth must not reach the schedule builders")

        monkeypatch.setattr(cli, "worst_case_crash_schedule", build)
        monkeypatch.setattr(cli, "avar_crash_schedule", build)
        for family in ("worst-case", "avar"):
            code, out, err = run_cli(
                capsys, "diagnose-lebesgue", "--family", family, "--depths", "1,2,40"
            )
            assert (code, out) == (1, "")
            assert err == f"error: --depths may not exceed {cli.MAX_LEBESGUE_DEPTH}, got 40\n"
            assert "Traceback" not in err
        assert cli.MAX_LEBESGUE_DEPTH == 14  # the bench and the tests probe depths up to 12

    def test_project_parses_its_input_once(self, workdir, capsys, parses):
        _, p = workdir
        code, _, _ = run_cli(capsys, "project", "--tree", p["tree"], "--process", p["y"])
        assert code == 0
        assert len(parses) == 2  # the tree and the input

    def test_project_rejects_other_documents(self, workdir, capsys):
        _, p = workdir
        code, out, err = run_cli(capsys, "project", "--tree", p["tree"], "--process", p["x"])
        assert code == 1
        assert out == ""
        assert err == "error: project expects a 'static' or 'raw_process' document, got 'process'\n"

    @staticmethod
    def _heavy_tree():
        """Three levels of branch probabilities 0.3, 0.3, 0.4 + 1e-13: the leaf mass exceeds 1, so a
        weighted sum of leaf values at the float maximum overflows."""
        rows, level = [TreeNode("root", None, 0, 0.0, 1.0)], [""]
        for k in range(1, 4):
            level = [nid + c for nid in level for c in "abc"]
            rows += [TreeNode(nid, nid[:-1] or "root", k, float(k), 0.4 + 1e-13 if nid[-1] == "c" else 0.3)
                     for nid in level]
        return ScenarioTree(rows)

    def test_overflowing_projection_exits_1(self, capsys, tmp_path):
        # the root's weighted sum of leaf values at the float maximum and its predecessor overflows
        tree = self._heavy_tree()
        top = sys.float_info.max
        y = {leaf: np.nextafter(top, 0.0) if i % 2 else top for i, leaf in enumerate(tree.leaves)}
        dump_tree(tree, tmp_path / "tree.json")
        dump_static(StaticRV(tree, y), tmp_path / "y.json")
        code, out, err = run_cli(
            capsys, "project", "--tree", str(tmp_path / "tree.json"), "--process", str(tmp_path / "y.json")
        )
        assert (code, out) == (1, "")
        assert err == "error: non-finite conditional mean at node 'root'\n"

    def test_overflowing_tail_modulus_exits_1(self, capsys, tmp_path):
        # the second member's tail mass at threshold 0, densities at the float maximum, overflows
        tree = self._heavy_tree()
        dump_tree(tree, tmp_path / "tree.json")
        for name, value in (("one", 1.0), ("top", sys.float_info.max)):
            dump_static(StaticRV(tree, dict.fromkeys(tree.leaves, value)), tmp_path / f"{name}.json")
        files = [a for name in ("one", "top") for a in ("--process", str(tmp_path / f"{name}.json"))]
        code, out, err = run_cli(capsys, "diagnose-ui", "--tree", str(tmp_path / "tree.json"), *files)
        assert (code, out) == (1, "")
        assert err == "error: non-finite tail mass of family member 1\n"

    @pytest.mark.parametrize("command", ["eval", "conjugate"])
    def test_overflowing_path_sum_exits_1(self, capsys, tmp_path, command):
        # root and d each at 1.5e308: fsum overflowed on the paths through d and ended in a traceback
        tree = uniform_binomial(3)
        dump_tree(tree, tmp_path / "tree.json")
        dump_bimeasure(BiMeasure(tree, {"root": 1.5e308}, {"d": 1.5e308}), tmp_path / "m.json")
        measure = json.loads((tmp_path / "m.json").read_text())
        (tmp_path / "spec.json").write_text(json.dumps({"format": "spec", "elements": [{"measure": measure}]}))
        dump_spec(worst_case_spec(tree), tmp_path / "worst.json")
        dump_process(AdaptedProcess.zero(tree), tmp_path / "x.json")
        args = {
            "eval": ["--spec", "spec.json", "--process", "x.json"],
            "conjugate": ["--spec", "worst.json", "--measure", "m.json"],
        }[command]
        argv = [command, "--tree", str(tmp_path / "tree.json"), *(str(tmp_path / a) if a.endswith(".json") else a for a in args)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: non-finite path sum at leaf 'ddd'\n"

    @pytest.mark.parametrize(
        "command, message",
        [
            ("eval", "non-finite loss at element 'big'"),
            ("static-eval", "non-finite loss at element 'big'"),
            ("allocate", "non-finite charge at position 0"),
        ],
    )
    def test_overflowing_loss_or_charge_exits_1(self, capsys, tmp_path, t1, command, message):
        # expected variation 1 + 4e-10, within the unit norm check: at the float maximum the
        # element's fsum of 0.5 w max and 0.5 w max overflowed and ended in a traceback
        top = sys.float_info.max
        w = 1.0000000004
        dump_tree(t1, tmp_path / "tree.json")
        spec = RiskMeasureSpec(t1, [(BiMeasure(t1, {}, {"d": w, "u": w}), 0.0)], labels=["big"])
        dump_spec(spec, tmp_path / "spec.json")
        dump_process(AdaptedProcess(t1, {nid: -top for nid in t1.order}), tmp_path / "low.json")
        dump_process(AdaptedProcess(t1, {nid: top / 2 for nid in t1.order}), tmp_path / "half.json")
        dump_static(StaticRV(t1, {leaf: -top for leaf in t1.leaves}), tmp_path / "y.json")
        args = {
            "eval": ["--process", "low.json"],
            "static-eval": ["--process", "y.json"],
            "allocate": ["--process", "low.json", "--process", "half.json", "--seed", "1"],
        }[command]
        argv = [command, "--tree", "tree.json", "--spec", "spec.json", *args]
        code, out, err = run_cli(capsys, *(str(tmp_path / a) if a.endswith(".json") else a for a in argv))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_allocate_with_cancelling_charges(self, capsys, tmp_path, t1):
        # |k_1| + |k_2| passes the float range; the charges add up to the portfolio's zero risk
        dump_tree(t1, tmp_path / "tree.json")
        spec = RiskMeasureSpec(t1, [(BiMeasure(t1, {}, {"d": 1.0, "u": 1.0}), 0.0)])
        dump_spec(spec, tmp_path / "spec.json")
        for name, v in (("xp", 1e308), ("xm", -1e308)):
            dump_process(AdaptedProcess(t1, {nid: v for nid in t1.order}), tmp_path / f"{name}.json")
        code, out, err = run_cli(
            capsys, "allocate", "--tree", str(tmp_path / "tree.json"), "--spec", str(tmp_path / "spec.json"),
            "--process", str(tmp_path / "xp.json"), "--process", str(tmp_path / "xm.json"),
            "--seed", "1", "--samples", "5", "--format", "structured",
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert [k for _, k in report["rows"]] == [-1e308, 1e308]
        assert (report["summary"]["sum_k"], report["summary"]["fairness_passed"]) == (0.0, True)

    def test_module_entry_point(self, workdir):
        _, p = workdir
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "treerisk",
                "eval",
                "--tree",
                p["tree"],
                "--spec",
                p["spec"],
                "--process",
                p["x"],
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert result.returncode == 0
        assert "value = 1.000000000000" in result.stdout


_ROOT = {"id": "root", "parent": None, "depth": 0, "time": 0.0}


def _node(nid, **fields):
    return {"id": nid, "parent": "root", "depth": 1, "time": 1.0, "p": 0.5, **fields}


def _without_p(row):
    return {k: v for k, v in row.items() if k != "p"}


# t1's rows with faults; the rows are read as columns, and only a fault sends them
# through the row walk, which names the first faulty row in input order
TREE_ROWS = {
    "missing-p-then-time-type": (
        [_ROOT, _without_p(_node("d")), _node("u"), _node("x", time="x")],
        "{bad}: nodes[1] ('d') missing branch probability 'p'",
    ),
    "time-type-then-missing-p": (
        [_ROOT, _node("d", time="x"), _node("u"), _without_p(_node("x"))],
        "{bad}: field 'nodes[1].time' must be a number, got 'x'",
    ),
    "nan-time": ([_ROOT, _node("d", time=math.nan), _node("u")], "{bad}: field 'nodes[1].time' must be finite, got nan"),
    "infinite-time": ([_ROOT, _node("d"), _node("u", time=math.inf)], "{bad}: field 'nodes[2].time' must be finite, got inf"),
    "nan-p": ([_ROOT, _node("d"), _node("u", p=math.nan)], "{bad}: field 'nodes[2].p' must be finite, got nan"),
    "infinite-p": ([_ROOT, _node("d", p=-math.inf), _node("u")], "{bad}: field 'nodes[1].p' must be finite, got -inf"),
    "huge-integer-time": (
        [_ROOT, _node("d", time=10**400), _node("u")],
        "{bad}: field 'nodes[1].time' is an integer beyond the float range",
    ),
    "true-depth-after-0": ([_ROOT, _node("d"), _node("u", depth=True)], "{bad}: nodes[2].depth must be an integer"),
    "bool-p": ([_ROOT, _node("d", p=True), _node("u")], "{bad}: field 'nodes[1].p' must be a number, got True"),
    "null-p": ([_ROOT, _node("d"), _node("u", p=None)], "{bad}: field 'nodes[2].p' must be a number, got None"),
    "root-null-p": ([{**_ROOT, "p": None}, _node("d"), _node("u")], "{bad}: field 'nodes[0].p' must be a number, got None"),
    "root-carries-half": ([{**_ROOT, "p": 0.5}, _node("d"), _node("u")], "root node 'root' must carry branch probability 1"),
    "two-roots": ([_ROOT, _node("d", parent=None), _node("u")], "expected exactly one root node, found 2"),
    "parent-type-then-missing-id": (
        [_ROOT, _node("d", parent=["root"]), _without_p(_node("u")), {"depth": 1}],
        "{bad}: nodes[1].parent must be a string or null",
    ),
    "string-depth": ([_ROOT, _node("d", depth="1"), _node("u")], "{bad}: nodes[1].depth must be an integer"),
    "integer-time-clash": (
        [_ROOT, _node("d", time=1), _node("u", time=2)],
        "node 'u' has time 2.0, but depth 1 was already placed at time 1.0",
    ),
    "integer-p-past-one": ([_ROOT, _node("d", p=2), _node("u")], "branch probability of node 'd' must lie in (0, 1], got 2.0"),
    "integer-grid-start": (
        [{**_ROOT, "time": 1}, _node("d", time=2), _node("u", time=2)],
        "the time grid must start at 0, got t_0 = 1.0",
    ),
}

# t1's rows in other forms that load, through the walk (a root with p = 1 or not first) or not
TREE_ROWS_THAT_LOAD = {
    "root-carries-one": [{**_ROOT, "p": 1.0}, _node("d"), _node("u")],
    "root-last": [_node("d"), _node("u"), _ROOT],
    "integer-times-and-p": [{**_ROOT, "time": 0}, _node("d", time=1, p=0.5), _node("u", time=1.0, p=0.5)],
    "extra-fields": [{**_ROOT, "note": {"a": 1}}, _node("d", note=[1, 2]), _node("u")],
}


class TestTreeRows:
    @pytest.mark.parametrize("case", sorted(TREE_ROWS))
    def test_first_faulty_row_is_named(self, workdir, capsys, tmp_path, case):
        _, p = workdir
        rows, message = TREE_ROWS[case]
        bad = tmp_path / "hostile.json"
        bad.write_bytes(_doc("tree", nodes=rows))
        code, out, err = run_cli(capsys, *(a.format(bad=bad, **p) for a in _TREE))
        assert (code, out) == (1, "")
        assert err == f"error: {message.format(bad=bad)}\n"

    @pytest.mark.parametrize("case", sorted(TREE_ROWS_THAT_LOAD))
    def test_other_row_forms_load(self, workdir, capsys, tmp_path, case):
        _, p = workdir
        good = tmp_path / "good.json"
        good.write_bytes(_doc("tree", nodes=TREE_ROWS_THAT_LOAD[case]))
        expected = run_cli(capsys, *(a.format(bad=p["tree"], **p) for a in _TREE))
        assert expected[0] == 0
        assert run_cli(capsys, *(a.format(bad=good, **p) for a in _TREE)) == expected
        tree, t1 = load_tree(good), load_tree(p["tree"])
        assert tree.order == t1.order
        for column in ("node_prob", "leaf_prob"):
            assert hexed(getattr(tree, column)) == hexed(getattr(t1, column))
        assert [float.hex(t) for t in tree.times] == [float.hex(t) for t in t1.times]


def _colon_files(directory, escape):
    """One document of each format on a tree whose ids hold ':', written with each ':' inside a
    string as is or escaped as \\u003a; returns the in-memory values and the paths."""
    tree = ScenarioTree([TreeNode("r:0", None, 0, 0.0, 1.0), TreeNode("a:1", "r:0", 1, 0.5, 0.3),
                         TreeNode("b:2", "r:0", 1, 0.5, 0.7)])
    a = BiMeasure(tree, {"r:0": 0.5}, {"a:1": 0.5, "b:2": 0.5})
    values = {
        "tree": tree,
        "process": AdaptedProcess(tree, {"r:0": 0.1, "a:1": -1.0 / 3.0, "b:2": 2.5}),
        "static": StaticRV(tree, {"a:1": 1e-300, "b:2": -7.0}),
        "raw_process": RawProcess(tree, {(leaf, k): k - 0.1 for leaf in ("a:1", "b:2") for k in (0, 1)}),
        "bimeasure": a,
        "spec": RiskMeasureSpec(tree, [(a, 0.0), (BiMeasure(tree, {}, {"a:1": 1.0, "b:2": 1.0}), 0.5)], labels=["x:y", "z"]),
    }
    dumps = {"tree": dump_tree, "process": dump_process, "static": dump_static, "raw_process": dump_raw_process,
             "bimeasure": dump_bimeasure, "spec": dump_spec}
    paths = {}
    for fmt, dump in dumps.items():
        paths[fmt] = directory / f"{fmt}-{escape}.json"
        dump(values[fmt], paths[fmt])
        if escape:
            text = paths[fmt].read_text()
            paths[fmt].write_text(re.sub(r'"[^"]*"', lambda m: m.group().replace(":", "\\u003a"), text))
    return values, paths


class TestKeyCountProof:
    """A document parses once when its key count proves its keys unique, twice otherwise."""

    def test_clean_documents_parse_once(self, tmp_path, t2, parses):
        X = AdaptedProcess(t2, {nid: float(i) for i, nid in enumerate(t2.order)})
        a = BiMeasure(t2, pr_inc={"root": -0.5, "d": 0.25}, op_inc={"uu": 1.0})
        spec = RiskMeasureSpec(t2, [(BiMeasure(t2, {}, {"uu": 4.0}), 0.0)])  # labelled e0, with no colon
        docs = [
            (dump_tree, t2, load_tree, ()),
            (dump_process, X, load_process, (t2,)),
            (dump_static, StaticRV.constant(t2, 1.0), load_static, (t2,)),
            (dump_raw_process, RawProcess.from_adapted(X), load_raw_process, (t2,)),
            (dump_bimeasure, a, load_bimeasure, (t2,)),
            (dump_spec, spec, load_spec, (t2,)),
            (dump_static, StaticRV.constant(t2, 2.0), fileio.load_projectable, (t2,)),
        ]
        for dump, value, load, args in docs:
            dump(value, tmp_path / "doc.json")
            parses.clear()
            load(tmp_path / "doc.json", *args)
            assert len(parses) == 1, load.__name__
        dump_bimeasure(BiMeasure(t2, {}, {"uu": 4.0}), tmp_path / "m.json")
        (tmp_path / "s.json").write_text(json.dumps({"format": "spec", "elements": [{"file": "m.json"}]}))
        parses.clear()
        load_spec(tmp_path / "s.json", t2)
        assert len(parses) == 2  # the spec and the measure it reads

    def test_worst_case_labels_parse_once(self, tmp_path, parses):
        """The colons of the elements' labels (worst_case_spec's leaf:<id>) count into the proof."""
        tree = uniform_binomial(3)
        spec = worst_case_spec(tree)
        dump_spec(spec, tmp_path / "s.json")
        parses.clear()
        back = load_spec(tmp_path / "s.json", tree)
        assert len(parses) == 1
        assert back.labels == spec.labels
        assert all(":" in label for label in back.labels)

    @pytest.mark.parametrize("escape", [False, True])
    def test_labelled_spec_with_a_repeated_key_is_refused(self, tmp_path, escape):
        """A repeat is refused beside labelled elements; with one label's ':' written as \\u003a, the
        parsed label holds a colon its text lacks, which would make up for the merged key."""
        tree = uniform_binomial(3)
        dump_spec(worst_case_spec(tree), tmp_path / "s.json")
        text = (tmp_path / "s.json").read_text()
        if escape:
            text = text.replace('"leaf:', '"leaf\\u003a', 1)
        p = tmp_path / "bad.json"
        p.write_text(text.replace('"gamma": ', '"gamma": 1.0, "gamma": ', 1))
        with pytest.raises(FileFormatError) as err:
            load_spec(p, tree)
        assert str(err.value) == f"{p}: invalid JSON: duplicate key 'gamma'"

    def test_colon_in_a_string_parses_twice(self, tmp_path, parses):
        values, paths = _colon_files(tmp_path, escape=False)
        parses.clear()
        tree = load_tree(paths["tree"])
        assert len(parses) == 2
        assert tree.order == values["tree"].order
        _, escaped = _colon_files(tmp_path, escape=True)
        parses.clear()
        load_tree(escaped["tree"])
        assert len(parses) == 1  # an escaped colon is no ':' in the text

    @pytest.mark.parametrize("escape", [False, True])
    def test_colons_in_strings_load_bit_for_bit(self, tmp_path, escape):
        values, paths = _colon_files(tmp_path, escape)
        tree = load_tree(paths["tree"])
        assert tree.order == values["tree"].order
        for column in ("node_prob", "leaf_prob"):
            assert hexed(getattr(tree, column)) == hexed(getattr(values["tree"], column))
        assert hexed(load_process(paths["process"], tree).vector) == hexed(values["process"].vector)
        assert hexed(load_static(paths["static"], tree).vector) == hexed(values["static"].vector)
        assert hexed(load_raw_process(paths["raw_process"], tree).grid.ravel()) == hexed(
            values["raw_process"].grid.ravel()
        )
        a = load_bimeasure(paths["bimeasure"], tree)
        assert (a.pr_inc, a.op_inc) == (values["bimeasure"].pr_inc, values["bimeasure"].op_inc)
        spec = load_spec(paths["spec"], tree)
        assert spec.labels == ("x:y", "z")
        assert spec.gammas == values["spec"].gammas
        for b, c in zip(spec.measures(), values["spec"].measures()):
            assert [float.hex(v) for v in (*b.pr_inc.values(), *b.op_inc.values())] == [
                float.hex(v) for v in (*c.pr_inc.values(), *c.op_inc.values())
            ]


class _Obj(list):
    """A JSON object as its (key, value) pairs in text order; a key may repeat."""


def _render(value, escape):
    if isinstance(value, _Obj):
        return "{" + ", ".join(f"{_render(k, escape)}: {_render(v, escape)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_render(v, escape) for v in value) + "]"
    text = json.dumps(value)
    return text.replace(":", "\\u003a") if escape and isinstance(value, str) else text


_KEYS = st.text("ab:", max_size=2)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2.0, 2.0), _KEYS)


@st.composite
def _documents(draw):
    """Tree, static and spec documents, with repeated keys, unknown fields, stray rows and
    colons in strings drawn at random."""

    def obj(*pairs):
        pairs = list(pairs)
        if pairs and draw(st.integers(0, 5)) == 5:
            key = draw(st.sampled_from([k for k, _ in pairs]))
            pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(_SCALARS)))
        if draw(st.integers(0, 7)) == 7:
            pairs.append((draw(_KEYS), obj((draw(_KEYS), 1), (draw(_KEYS), 2))))
        return _Obj(pairs)

    def rows(row):
        out = [row() for _ in range(draw(st.integers(0, 3)))]
        if draw(st.integers(0, 5)) == 5:
            out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from([[1], [], "x", "", 0, None])))
        return out

    def measure():
        return obj(*((field, rows(lambda: obj(("node", draw(_KEYS)), ("inc", draw(_SCALARS)))))
                     for field in ("pr", "op")))

    fmt = draw(st.sampled_from(["tree", "static", "spec"]))
    if fmt == "tree":
        body = ("nodes", rows(lambda: obj(("id", draw(_KEYS)), ("parent", draw(_SCALARS)), ("depth", draw(_SCALARS)),
                                          ("time", draw(_SCALARS)), ("p", draw(_SCALARS)))))
    elif fmt == "static":
        body = ("values", obj(*((draw(_KEYS), draw(_SCALARS)) for _ in range(draw(st.integers(0, 3))))))
    else:
        body = ("elements", rows(lambda: obj(("gamma", draw(_SCALARS)), ("label", draw(_KEYS)), ("measure", measure()))))
    return fmt, obj(("format", draw(st.sampled_from([fmt, fmt, "other"]))), body)


@given(document=_documents(), escape=st.booleans())
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
def test_key_count_proof_agrees_with_the_hook(tmp_path_factory, document, escape):
    fmt, doc = document
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(_render(doc, escape))

    def outcome():
        try:
            return repr(fileio._read_document(path, fmt))
        except FileFormatError as exc:
            return str(exc)

    with mock.patch.object(fileio, "_key_count", return_value=-1):  # no count matches: the hook reads all
        hooked = outcome()
    assert outcome() == hooked


def test_rows_whose_numbers_sum_past_the_float_range_load(tmp_path):
    """Finite numbers whose sum overflows fail the one-pass check; the row walk finds no fault,
    and the rows load as given."""
    rows = [
        {"id": "r", "parent": None, "depth": 0, "time": 0},
        {"id": "a", "parent": "r", "depth": 1, "time": 1e308, "p": 1.0},
        {"id": "b", "parent": "a", "depth": 2, "time": 1.7e308, "p": 1.0},
    ]
    (tmp_path / "tree.json").write_text(json.dumps({"format": "tree", "nodes": rows}))
    tree = load_tree(tmp_path / "tree.json")
    assert tree.order == ("r", "a", "b")
    assert [float.hex(t) for t in tree.times] == [float.hex(t) for t in (0.0, 1e308, 1.7e308)]
    entries = [{"leaf": "b", "depth": k, "value": 1e308} for k in range(3)]
    (tmp_path / "raw.json").write_text(json.dumps({"format": "raw_process", "entries": entries}))
    assert hexed(load_raw_process(tmp_path / "raw.json", tree).grid.ravel()) == [float.hex(1e308)] * 3
    doc = {
        "format": "bimeasure",
        "pr": [{"node": "r", "inc": 1e308}, {"node": "a", "inc": 1.7e308}],
        "op": [{"node": "a", "inc": 1e308}, {"node": "b", "inc": 1.7e308}],
    }
    (tmp_path / "m.json").write_text(json.dumps(doc))
    a = load_bimeasure(tmp_path / "m.json", tree)
    assert a.pr_inc == {"r": 1e308, "a": 1.7e308}
    assert a.op_inc == {"a": 1e308, "b": 1.7e308}


@pytest.mark.parametrize(
    "fmt, fields, message",
    [
        ("tree", {"nodes": [{"id": "root", "parent": None, "depth": 0, "time": 0}, _node("d", time=10**400),
                            _node("u", time=-(10**400))]}, "field 'nodes[1].time' is an integer beyond the float range"),
        ("raw_process", {"entries": [_entry("d", 0, 10**400), _entry("d", 1, -(10**400)), _entry("u", 0, 1),
                                     _entry("u", 1, 2)]}, "field 'entries[0].value' is an integer beyond the float range"),
        ("bimeasure", {"op": [{"node": "d", "inc": -(10**400)}, {"node": "u", "inc": 10**400}]},
         "field 'document.op[0].inc' is an integer beyond the float range"),
    ],
)
def test_integers_beyond_the_float_range_are_refused_when_they_cancel(tmp_path, t1, fmt, fields, message):
    """Integers that sum to a finite value exactly are still each beyond the float range."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"format": fmt, **fields}))
    load = {"tree": load_tree, "raw_process": lambda p: load_raw_process(p, t1), "bimeasure": lambda p: load_bimeasure(p, t1)}
    with pytest.raises(FileFormatError) as err:
        load[fmt](p)
    assert str(err.value) == f"{p}: {message}"


def test_clean_rows_are_read_in_one_pass(tmp_path, t2, monkeypatch):
    """Rows without a fault are read as columns: each read makes one pass that succeeds, and the
    row walk runs for none of the formats."""
    calls = []
    columns, one_pass = fileio._columns, fileio._pass
    monkeypatch.setattr(fileio, "_columns", lambda *args, **kw: calls.append("read") or columns(*args, **kw))
    monkeypatch.setattr(fileio, "_pass", lambda *args: [one_pass(*args), calls.append("pass")][0])
    X = AdaptedProcess(t2, {nid: float(i) for i, nid in enumerate(t2.order)})
    a = BiMeasure(t2, pr_inc={"root": -0.5, "d": 0.25}, op_inc={"uu": 1.0})
    root_last = tmp_path / "root-last.json"
    root_last.write_text(json.dumps({"format": "tree", "nodes": [_node("d"), _node("u"), _ROOT]}))
    dump_tree(t2, tmp_path / "tree.json")
    dump_raw_process(RawProcess.from_adapted(X), tmp_path / "raw.json")
    dump_bimeasure(a, tmp_path / "m.json")
    dump_spec(worst_case_spec(t2), tmp_path / "spec.json")
    load_tree(tmp_path / "tree.json")
    load_tree(root_last)
    load_raw_process(tmp_path / "raw.json", t2)
    load_bimeasure(tmp_path / "m.json", t2)
    load_spec(tmp_path / "spec.json", t2)
    assert calls == ["read", "pass"] * (1 + 1 + 1 + 1 + len(t2.leaves))


def _t2_rows():
    """Valid rows on uniform_binomial(2): per format, its (where, rows) arrays in reading order."""
    nodes = [{"id": "root", "parent": None, "depth": 0, "time": 0.0}]
    for nid in ("d", "u", "dd", "du", "ud", "uu"):
        nodes.append({"id": nid, "parent": nid[:-1] or "root", "depth": len(nid), "time": float(len(nid)), "p": 0.5})
    entries = [{"leaf": leaf, "depth": k, "value": k + 0.5} for leaf in ("dd", "du", "ud", "uu") for k in range(3)]
    pr = [{"node": nid, "inc": 0.25} for nid in ("root", "d", "u")]
    op = [{"node": row["id"], "inc": 0.5} for row in nodes]
    return {"tree": [("nodes", nodes)], "raw_process": [("entries", entries)],
            "bimeasure": [("document.pr", pr), ("document.op", op)]}


_FIELDS = {  # per format: the required fields, the typed (no number) ones, the numbers
    "tree": (("id", "depth", "time"), ("id", "parent", "depth"), ("time", "p")),
    "raw_process": (("leaf", "depth", "value"), ("leaf", "depth"), ("value",)),
    "bimeasure": (("node", "inc"), ("node",), ("inc",)),
}
_WRONG = {"id": 5, "parent": ["root"], "leaf": 1, "node": 1}  # a wrong type of each string field
_TYPE_NAMES = {"id": "a string", "leaf": "a string", "node": "a string", "parent": "a string or null"}


@st.composite
def _faulty_rows(draw):
    """A valid tree, raw process or bi-measure on uniform_binomial(2) with one fault from the
    pinned catalogue in each of one to three rows; returns the format, its arrays and the
    message of the earliest faulty row (a bi-measure's pr rows come before its op rows)."""
    fmt = draw(st.sampled_from(sorted(_FIELDS)))
    valid = _t2_rows()[fmt]
    arrays = [(where, [dict(row) for row in rows]) for where, rows in valid]
    flat = [(a, i) for a, (_, rows) in enumerate(arrays) for i in range(len(rows))]
    picks = sorted(draw(st.lists(st.sampled_from(flat), min_size=1, max_size=3, unique=True)))
    required, typed, numbers = _FIELDS[fmt]
    shaped = "must be an object with 'node' and 'inc'" if fmt == "bimeasure" else None
    messages = []
    for a, i in picks:
        where, rows = arrays[a]
        row, at = rows[i], f"{where}[{i}]"
        kinds = ["no-object", "missing", "type", "non-finite", "oversized"]
        kinds += ["repeat"] if fmt != "tree" and i > 0 else []
        kinds += ["missing-p"] if fmt == "tree" and i > 0 else []
        kind = draw(st.sampled_from(kinds))
        if kind == "no-object":
            rows[i] = draw(st.sampled_from([[row[required[0]]], 3, None, "row"]))
            messages.append(f"{at} {shaped or 'must be an object'}")
        elif kind == "missing":
            field = draw(st.sampled_from(required))
            del row[field]
            messages.append(f"{at} {shaped or f'missing field {field!r}'}")
        elif kind == "missing-p":
            del row["p"]
            messages.append(f"{at} ('{row['id']}') missing branch probability 'p'")
        elif kind == "type":
            field = draw(st.sampled_from(typed + numbers))
            if field in numbers:
                row[field] = draw(st.sampled_from([True, None, "x", [1.0]]))
                messages.append(f"field '{at}.{field}' must be a number, got {row[field]!r}")
            elif field == "depth":
                row[field] = draw(st.sampled_from([True, "1", 1.0, None]))
                messages.append(f"{at}.depth must be an integer")
            else:
                row[field] = _WRONG[field]
                messages.append(f"{at}.{field} must be {_TYPE_NAMES[field]}")
        elif kind == "non-finite":
            field, value = draw(st.sampled_from(numbers)), draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            row[field] = value
            messages.append(f"field '{at}.{field}' must be finite, got {value!r}")
        elif kind == "oversized":
            field = draw(st.sampled_from(numbers))
            row[field] = draw(st.sampled_from([10**400, -(10**400)]))
            messages.append(f"field '{at}.{field}' is an integer beyond the float range")
        else:  # a copy of an earlier row's key in the same array, as the valid rows hold it
            earlier = valid[a][1][draw(st.integers(0, i - 1))]
            row.update({field: earlier[field] for field in typed})
            key = ", ".join(str(earlier[field]) for field in typed)
            field = where.rsplit(".", 1)[-1]
            messages.append(f"duplicate entry for ({key})" if fmt == "raw_process" else
                            f"duplicate {field} increment at node '{key}'")
    return fmt, arrays, messages[0]


@given(document=_faulty_rows())
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
def test_first_faulty_row_is_named_in_every_row_format(tmp_path_factory, document):
    fmt, arrays, message = document
    fields = {where.rsplit(".", 1)[-1]: rows for where, rows in arrays}
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps({"format": fmt, **fields}))
    tree = uniform_binomial(2)
    load = {"tree": load_tree, "raw_process": lambda p: load_raw_process(p, tree),
            "bimeasure": lambda p: load_bimeasure(p, tree)}[fmt]
    with pytest.raises(FileFormatError) as err:
        load(path)
    assert str(err.value) == f"{path}: {message}"


def test_spec_route_imports_no_numpy_ma(tmp_path):
    """Loading and evaluating a spec must not pull in numpy.ma (about 1.7 MB resident)."""
    script = """
import sys
from treerisk import AdaptedProcess, StaticRV, rho_eval, static_rho_coherent_direct
from treerisk import uniform_binomial, worst_case_spec
from treerisk.fileio import dump_spec, load_spec
tree = uniform_binomial(2)
dump_spec(worst_case_spec(tree), sys.argv[1])
spec = load_spec(sys.argv[1], tree)
rho_eval(spec, AdaptedProcess.constant(tree, 1.0))
static_rho_coherent_direct(spec, StaticRV.constant(tree, 1.0))
print("numpy.ma" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "spec.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.fixture
def dict_builds(monkeypatch):
    """The (type, field) of each dict field a value builds from its arrays while the test runs."""
    from treerisk.process import _Arrays

    builds = []
    fallback = _Arrays.__getattr__

    def counting(self, name):
        value = fallback(self, name)
        builds.append((type(self).__name__, name))
        return value

    monkeypatch.setattr(_Arrays, "__getattr__", counting)
    return builds


def test_computation_paths_build_no_dicts(tmp_path, capsys, dict_builds):
    """The library and the CLI compute on the arrays: only a dump or an explicit read builds a dict."""
    from treerisk import (
        avar,
        avar_crash_schedule,
        avar_max_density,
        decomposition_battery,
        entropic,
        es_tce,
        fairness_check,
        lebesgue_probe,
        optional_projection_raw,
        optional_projection_static,
        predictable_projection_raw,
        stopped_worst_case,
        var_alpha,
        worst_case_crash_schedule,
    )
    from treerisk.errors import UndefinedQuantityError

    from conftest import random_bimeasure, random_raw_process

    rng = np.random.default_rng(233)
    tree = random_tree(rng, max_depth=3, min_depth=3)
    spec, coherent = random_spec(tree, rng, 4), random_spec(tree, rng, 4, coherent=True)
    X, Y, Z = random_process(tree, rng), random_static(tree, rng), random_raw_process(tree, rng)
    book = [random_process(tree, rng) for _ in range(3)]
    p = {name: str(tmp_path / f"{name}.json") for name in ("tree", "spec", "coherent", "x", "y", "z", "b0", "b1", "b2")}
    dump_tree(tree, p["tree"])
    dump_spec(spec, p["spec"])
    dump_spec(coherent, p["coherent"])
    dump_process(X, p["x"])
    dump_static(Y, p["y"])
    dump_raw_process(Z, p["z"])
    for i, B in enumerate(book):
        dump_process(B, p[f"b{i}"])
    measures = [random_bimeasure(tree, rng) for _ in range(3)]
    assert dict_builds  # the dumps read the dicts
    dict_builds.clear()

    rho_eval(spec, X)
    static_rho(spec, Y)
    static_rho_coherent_direct(coherent, Y)
    M = optional_projection_static(Y)
    optional_projection_raw(Z)
    predictable_projection_raw(Z)
    for alpha in (0.1, 0.5):
        var_alpha(Y, alpha)
        avar(Y, alpha)
        avar_max_density(Y, alpha)
        try:
            es_tce(Y, alpha)
        except UndefinedQuantityError:
            pass
    entropic(Y, 1.0)
    stopped_worst_case(tree, X)
    result = allocate(coherent, book)
    fairness_check(result, coherent, book, samples=20, seed=3)
    decomposition_battery(measures)
    lebesgue_probe(worst_case_crash_schedule(range(1, 5)))
    lebesgue_probe(avar_crash_schedule(range(1, 5), 0.25))
    commands = [
        ("eval", "--tree", p["tree"], "--spec", p["spec"], "--process", p["x"]),
        ("static-eval", "--tree", p["tree"], "--spec", p["coherent"], "--process", p["y"]),
        ("project", "--tree", p["tree"], "--process", p["y"]),
        ("project", "--tree", p["tree"], "--process", p["z"]),
        ("instances", "--tree", p["tree"], "--process", p["y"], "--alpha", "0.1"),
        ("allocate", "--tree", p["tree"], "--spec", p["coherent"], "--process", p["b0"], "--process", p["b1"],
         "--process", p["b2"], "--seed", "5"),
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2) and out and not err, argv
    assert dict_builds == []

    assert M.values is M.values  # an explicit read builds the dict, once
    assert dict_builds == [("AdaptedProcess", "values")]
