"""File formats and the command line driver."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from treerisk import (
    AdaptedProcess,
    BiMeasure,
    RawProcess,
    StaticRV,
    uniform_binomial,
    worst_case_spec,
)
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
        with pytest.raises(FileFormatError):
            load_static(p, t1)

    def test_non_numeric_value(self, tmp_path, t1):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": "static", "values": {"u": "x", "d": 0.0}}))
        with pytest.raises(FileFormatError):
            load_static(p, t1)

    def test_duplicate_increment(self, tmp_path, t1):
        doc = {
            "format": "bimeasure",
            "pr": [],
            "op": [{"node": "u", "inc": 1.0}, {"node": "u", "inc": 2.0}],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            load_bimeasure(p, t1)


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

    def test_bad_choice_exits_1(self, workdir, capsys):
        _, p = workdir
        assert main(["eval", "--format", "yaml"]) == 1
        capsys.readouterr()

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
        "content, message",
        [
            (b'{"format": "static", "values": {"d": 1' + b"0" * 400 + b', "u": 0.0}}', "float range"),
            (b"\xff\xfe" + '{"format": "static"}'.encode("utf-16-le"), "not UTF-8"),
            (b'{"format": "static", "values": {"d": 1.0, "u": 0.0, "d": 5.0}}', "duplicate key 'd'"),
            (b'{"format": "static", "values": {"d": 1' + b"0" * 5000 + b', "u": 0.0}}', "invalid JSON"),
            (b"[" * 100000 + b"]" * 100000, "invalid JSON"),
        ],
        ids=["huge-integer", "utf-16", "duplicate-key", "over-long-integer", "deep-nesting"],
    )
    def test_hostile_document_exits_1(self, workdir, capsys, tmp_path, content, message):
        _, p = workdir
        bad = tmp_path / "hostile.json"
        bad.write_bytes(content)
        code, out, err = run_cli(
            capsys, "instances", "--tree", p["tree"], "--process", str(bad), "--alpha", "0.5"
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {bad}: ")
        assert message in err

    def test_project_parses_its_input_once(self, workdir, capsys, monkeypatch):
        _, p = workdir
        parsed = []
        loads = json.loads

        def counting_loads(text, **kw):
            parsed.append(text)
            return loads(text, **kw)

        monkeypatch.setattr(json, "loads", counting_loads)
        code, _, _ = run_cli(capsys, "project", "--tree", p["tree"], "--process", p["y"])
        assert code == 0
        assert len(parsed) == 2  # the tree and the input

    def test_project_rejects_other_documents(self, workdir, capsys):
        _, p = workdir
        code, out, err = run_cli(capsys, "project", "--tree", p["tree"], "--process", p["x"])
        assert code == 1
        assert out == ""
        assert err == "error: project expects a 'static' or 'raw_process' document, got 'process'\n"

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
        )
        assert result.returncode == 0
        assert "value = 1.000000000000" in result.stdout
