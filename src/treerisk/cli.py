"""Command line driver: file-driven evaluation, projection, allocation, diagnostics.

Exit codes: 0 on success, 1 on validation problems (malformed files, broken
invariants, bad flags, an unwritable ``--out``, a stdout whose encoding cannot
hold the report), 2 when a requested quantity is infeasible or undefined.
Reports are deterministic: same inputs and seed give identical bytes, and
``--out`` is written as UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from math import fsum
from pathlib import Path

import numpy as np

from . import fileio
from .allocation import allocate, fairness_check
from .bimeasure import (
    BiMeasure,
    RawBiMeasure,
    _build,
    as_raw,
    dual_projection,
    normalize_scenario,
    pairing,
    raw_pairing,
    variation,
)
from .diagnostics import (
    DEFAULT_K_GRID,
    avar_crash_schedule,
    decomposition_battery,
    lebesgue_probe,
    ui_modulus,
    worst_case_crash_schedule,
)
from .errors import UndefinedQuantityError, ValidationError
from .instances import avar, entropic, es_tce, var_alpha
from .process import (
    RawProcess,
    StaticRV,
    _new,
    optional_projection_raw,
    optional_projection_static,
    predictable_projection_raw,
)
from .riskcore import (
    RiskMeasureSpec,
    conjugate_combination,
    rho_eval,
    static_rho,
    static_rho_coherent_direct,
)


# Deepest refinement diagnose-lebesgue builds: a depth-d binomial tree has
# 2**(d + 1) - 1 nodes, 32 767 at 14.
MAX_LEBESGUE_DEPTH = 14


@dataclass
class ReportDoc:
    command: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    summary: dict[str, object] = field(default_factory=dict)
    exit_code: int = 0


def fmt_real(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        x = 0.0
    return f"{x:.12f}" if abs(x) < 1e4 else f"{x:.12e}"


def _cell(x: object) -> str:
    if isinstance(x, float):
        return fmt_real(x)
    return str(x)


_SCALARS = {str, int, float, bool, type(None)}  # cells whose json text render may indent by replace


def _sanitize(x: object) -> object:
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def render(doc: ReportDoc, fmt: str) -> str:
    if fmt == "structured":
        # json.dumps(payload, indent=2) + "\n". An indent takes json's Python encoder, so rows of
        # scalars go through its C encoder and are indented by replace: no encoded scalar holds a
        # newline, so ",\n      " parts two cells and "],\n      [" two rows; the first '"rows": null'
        # is the key, as a quote in a string is escaped. The cells are sanitized only when their text
        # holds "Infinity", json's word for an infinite float.
        sanitized = lambda: [[_sanitize(c) for c in row] for row in doc.rows]
        scalars = bool(doc.rows) and all(doc.rows) and set(map(type, chain.from_iterable(doc.rows))) <= _SCALARS
        payload = {"command": doc.command, "columns": doc.columns, "rows": None if scalars else sanitized(),
                   "summary": {k: _sanitize(v) for k, v in doc.summary.items()}}
        text = json.dumps(payload, indent=2)
        if scalars:
            cells = lambda rows: json.dumps(rows, separators=(",\n      ", ": "))[2:-2]
            body = cells(doc.rows)
            body = cells(sanitized()) if "Infinity" in body else body
            body = body.replace("],\n      [", "\n    ],\n    [\n      ")
            text = text.replace('"rows": null', f'"rows": [\n    [\n      {body}\n    ]\n  ]', 1)
        return text + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(doc.columns)
        for row in doc.rows:
            writer.writerow([_cell(c) for c in row])
        for k, v in doc.summary.items():
            buf.write(f"# {k} = {_cell(v)}\n")
        return buf.getvalue()
    # "table": --format's choices admit nothing else
    header = list(doc.columns)
    body = [[_cell(c) for c in row] for row in doc.rows]
    widths = [len(h) for h in header]
    for row in body:
        for j, c in enumerate(row):
            widths[j] = max(widths[j], len(c))
    lines = [f"{doc.command}"]
    if body or header:
        lines.append("  ".join(h.ljust(widths[j]) for j, h in enumerate(header)).rstrip())
        lines.append("  ".join("-" * widths[j] for j in range(len(header))))
        for row in body:
            lines.append("  ".join(c.ljust(widths[j]) for j, c in enumerate(row)).rstrip())
    for k, v in doc.summary.items():
        lines.append(f"{k} = {_cell(v)}")
    return "\n".join(lines) + "\n"


def _emit(doc: ReportDoc, ns: argparse.Namespace) -> None:
    text = render(doc, ns.format)
    if ns.out:
        try:
            Path(ns.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write report to {ns.out}: {exc.strerror}") from exc
    else:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:  # the text is encoded whole before any byte is written
            raise ValidationError(f"cannot write report to stdout: {exc}") from None


def _need(ns: argparse.Namespace, **flags: object) -> None:
    for name, value in flags.items():
        if value is None or (isinstance(value, (list, tuple)) and not value):
            raise ValidationError(f"command '{ns.command}' requires --{name}")


def _seed(ns: argparse.Namespace) -> int:
    _need(ns, seed=ns.seed)
    if ns.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {ns.seed}")
    return ns.seed


def _load_tree(ns: argparse.Namespace):
    _need(ns, tree=ns.tree)
    return fileio.load_tree(ns.tree)


def _single_process_path(ns: argparse.Namespace) -> str:
    _need(ns, process=ns.process)
    if len(ns.process) > 1:
        raise ValidationError(f"command '{ns.command}' takes exactly one --process")
    return ns.process[0]


def _cmd_eval(ns: argparse.Namespace) -> ReportDoc:
    tree = _load_tree(ns)
    _need(ns, spec=ns.spec)
    spec = fileio.load_spec(ns.spec, tree)
    X = fileio.load_process(_single_process_path(ns), tree)
    res = rho_eval(spec, X)
    doc = ReportDoc(command="eval", columns=["element", "penalized_loss", "maximizer"])
    for i, label in enumerate(spec.labels):
        doc.rows.append([label, res.values[i], "*" if i in res.argmax else ""])
    doc.summary["value"] = res.value
    doc.summary["maximizers"] = ",".join(spec.labels[i] for i in res.argmax)
    return doc


def _cmd_static_eval(ns: argparse.Namespace) -> ReportDoc:
    tree = _load_tree(ns)
    _need(ns, spec=ns.spec)
    spec = fileio.load_spec(ns.spec, tree)
    Y = fileio.load_static(_single_process_path(ns), tree)
    doc = ReportDoc(command="static-eval", columns=["metric", "value"])
    value = static_rho(spec, Y)
    doc.rows.append(["value", value])
    if spec.is_coherent:
        doc.rows.append(["coherent_direct", static_rho_coherent_direct(spec, Y)])
    return doc


def _cmd_project(ns: argparse.Namespace) -> ReportDoc:
    tree = _load_tree(ns)
    source = fileio.load_projectable(_single_process_path(ns), tree)
    if isinstance(source, StaticRV):
        M = optional_projection_static(source)
        doc = ReportDoc(command="project", columns=["node", "optional"])
        doc.rows.extend(map(list, zip(tree.order, M.vector.tolist())))
        doc.summary["input"] = "static"
    else:
        opt = optional_projection_raw(source)
        pred = predictable_projection_raw(source)
        doc = ReportDoc(command="project", columns=["node", "optional", "predictable"])
        doc.rows.extend(map(list, zip(tree.order, opt.vector.tolist(), pred.vector.tolist())))
        doc.summary["input"] = "raw_process"
    return doc


def _cmd_conjugate(ns: argparse.Namespace) -> ReportDoc:
    tree = _load_tree(ns)
    _need(ns, spec=ns.spec, measure=ns.measure)
    spec = fileio.load_spec(ns.spec, tree)
    a = fileio.load_bimeasure(ns.measure, tree)
    sol = conjugate_combination(spec, a, tol=ns.tol)
    doc = ReportDoc(command="conjugate", columns=["element", "gamma", "weight"])
    if sol is None:
        for label, g in zip(spec.labels, spec.gammas):
            doc.rows.append([label, g, ""])
        doc.summary["value"] = "inf"
        doc.summary["status"] = "infeasible"
        doc.exit_code = 2
        return doc
    for label, g, w in zip(spec.labels, spec.gammas, sol.weights):
        doc.rows.append([label, g, w])
    doc.summary["value"] = sol.cost
    doc.summary["status"] = "feasible"
    return doc


def _cmd_allocate(ns: argparse.Namespace) -> ReportDoc:
    tree = _load_tree(ns)
    _need(ns, spec=ns.spec, process=ns.process)
    seed = _seed(ns)
    spec = fileio.load_spec(ns.spec, tree)
    positions = [fileio.load_process(p, tree) for p in ns.process]
    result = allocate(spec, positions)
    samples = 1000 if ns.samples is None else ns.samples
    cert = fairness_check(
        result, spec, positions, samples=samples, seed=seed
    )
    doc = ReportDoc(command="allocate", columns=["position", "charge"])
    for path, k in zip(ns.process, result.k):
        doc.rows.append([path, k])
    doc.summary["rho_total"] = result.rho_total
    doc.summary["sum_k"] = result.sum_k
    doc.summary["maximizer"] = result.maximizer_label
    doc.summary["fairness_checked"] = cert.checked
    doc.summary["fairness_worst_slack"] = cert.worst_slack
    doc.summary["fairness_witness_dev"] = cert.max_witness_deviation
    doc.summary["fairness_passed"] = cert.passed
    doc.summary["seed"] = cert.seed
    return doc


def _cmd_instances(ns: argparse.Namespace) -> ReportDoc:
    tree = _load_tree(ns)
    _need(ns, alpha=ns.alpha)
    Y = fileio.load_static(_single_process_path(ns), tree)
    doc = ReportDoc(command="instances", columns=["measure", "value"])
    doc.rows.append([f"var[{ns.alpha:g}]", var_alpha(Y, ns.alpha)])
    try:
        doc.rows.append([f"tce[{ns.alpha:g}]", es_tce(Y, ns.alpha)])
    except UndefinedQuantityError:
        doc.rows.append([f"tce[{ns.alpha:g}]", "undefined"])
        doc.exit_code = 2
    doc.rows.append([f"avar[{ns.alpha:g}]", avar(Y, ns.alpha)])
    doc.rows.append([f"entropic[{ns.beta:g}]", entropic(Y, ns.beta)])
    doc.rows.append(["worst_case", max(-v for v in Y.vector.tolist())])
    doc.summary["status"] = "ok" if doc.exit_code == 0 else "undefined-quantity"
    return doc


def _cmd_diagnose_ui(ns: argparse.Namespace) -> ReportDoc:
    tree = _load_tree(ns)
    _need(ns, process=ns.process)
    family = [fileio.load_static(p, tree) for p in ns.process]
    report = ui_modulus(family, ns.kgrid)
    doc = ReportDoc(command="diagnose-ui", columns=["threshold", "eta"])
    for k, eta in zip(report.thresholds, report.modulus):
        doc.rows.append([k, eta])
    doc.summary["verdict"] = report.verdict
    doc.summary["family_size"] = len(family)
    return doc


def _cmd_diagnose_lebesgue(ns: argparse.Namespace) -> ReportDoc:
    _need(ns, depths=ns.depths)
    if max(ns.depths) > MAX_LEBESGUE_DEPTH:
        raise ValidationError(
            f"--depths may not exceed {MAX_LEBESGUE_DEPTH}, got {max(ns.depths)}"
        )
    if ns.family == "worst-case":
        schedule = worst_case_crash_schedule(ns.depths)
    else:
        alpha = 0.1 if ns.alpha is None else ns.alpha
        schedule = avar_crash_schedule(ns.depths, alpha)
    report = lebesgue_probe(schedule, k_grid=ns.kgrid)
    eps_values = [eps for eps, _ in report.rows[0].exceedance]
    columns = ["depth", "rho_moving", "rho_limit", "gap"]
    columns += [f"exceed@{eps:g}" for eps in eps_values]
    columns += ["eta_max_threshold", "modulus"]
    doc = ReportDoc(command="diagnose-lebesgue", columns=columns)
    for row in report.rows:
        cells: list[object] = [row.depth, row.rho_moving, row.rho_limit, row.gap]
        cells += [value for _, value in row.exceedance]
        cells += [row.modulus.modulus[-1], row.modulus.verdict]
        doc.rows.append(cells)
    doc.summary["family"] = report.family_label
    doc.summary["exceedance_vanishing"] = report.exceedance_vanishing
    doc.summary["verdict"] = report.verdict
    return doc


def _random_signed_bimeasure(tree, rng) -> BiMeasure:
    n = len(tree.order)
    pr, op = np.zeros(n), np.zeros(n)
    for i in range(n):
        if i < tree.first_leaf and rng.uniform() < 0.7:
            pr[i] = rng.uniform(-1.0, 1.0)
        if rng.uniform() < 0.7:
            op[i] = rng.uniform(-1.0, 1.0)
    return _build(tree, np.arange(n), pr, np.arange(n), op)


def _random_raw_pair(tree, rng) -> tuple[RawProcess, RawBiMeasure]:
    # drawn leaf by leaf, k = 0..K: the process value, the right increment, then
    # the left one from k = 1 on; a 0.0 stands in for the left one at k = 0
    draws = rng.uniform(-1.0, 1.0, size=(len(tree.leaves), 3 * tree.K + 2))
    z, right, left = np.insert(draws, 2, 0.0, axis=1).reshape(len(tree.leaves), tree.K + 1, 3).transpose(2, 0, 1)
    return _new(RawProcess, tree, z), _new(RawBiMeasure, tree, left, right)


def _cmd_diagnose_identities(ns: argparse.Namespace) -> ReportDoc:
    tree = _load_tree(ns)
    seed = _seed(ns)
    samples = 100 if ns.samples is None else ns.samples
    if samples < 1:
        raise ValidationError(f"--samples must be positive, got {samples}")
    rng = np.random.default_rng(seed)

    duality_dev = 0.0
    adjoint_dev = 0.0
    signed = []
    for _ in range(samples):
        a = _random_signed_bimeasure(tree, rng)
        signed.append(a)
        plus = _build(tree, a.node, np.abs(a.pr), a.node, np.abs(a.op))
        Y = _new(StaticRV, tree, rng.uniform(-1.0, 1.0, size=len(tree.leaves)))
        if len(plus.node):
            pos = normalize_scenario(plus)
            lhs = fsum((tree.leaf_prob * variation(pos).vector * Y.vector).tolist())
            rhs = pairing(optional_projection_static(Y), pos)
            duality_dev = max(duality_dev, abs(lhs - rhs))
        Z, ra = _random_raw_pair(tree, rng)
        M = optional_projection_raw(Z)
        proj = dual_projection(ra)
        lhs2 = raw_pairing(RawProcess.from_adapted(M), ra)
        mid2 = pairing(M, proj)
        rhs2 = raw_pairing(Z, as_raw(proj))
        adjoint_dev = max(adjoint_dev, abs(lhs2 - mid2), abs(mid2 - rhs2))

    battery = decomposition_battery(signed)
    doc = ReportDoc(command="diagnose-identities", columns=["check", "max_deviation"])
    doc.rows.append(["martingale_duality", duality_dev])
    doc.rows.append(["projection_adjointness", adjoint_dev])
    doc.rows.append(
        ["terminal_bound_slack", max(r.terminal_bound_slack for r in battery.rows)]
    )
    doc.rows.append(
        ["variation_additivity", max(r.additivity_deviation for r in battery.rows)]
    )
    doc.rows.append(
        ["jordan_difference", max(r.jordan_deviation for r in battery.rows)]
    )
    doc.summary["samples"] = samples
    doc.summary["seed"] = ns.seed
    return doc


_COMMANDS = {
    "eval": _cmd_eval,
    "static-eval": _cmd_static_eval,
    "project": _cmd_project,
    "conjugate": _cmd_conjugate,
    "allocate": _cmd_allocate,
    "instances": _cmd_instances,
    "diagnose-ui": _cmd_diagnose_ui,
    "diagnose-lebesgue": _cmd_diagnose_lebesgue,
    "diagnose-identities": _cmd_diagnose_identities,
}


def run(ns: argparse.Namespace) -> int:
    """Execute one parsed command, write its report and return the process exit code."""
    doc = _COMMANDS[ns.command](ns)
    _emit(doc, ns)
    return doc.exit_code


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"expected a comma separated integer list, got {text!r}") from None


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"expected a comma separated number list, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treerisk",
        description="Multi-period risk measures on finite scenario trees.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--tree", help="tree file")
    parser.add_argument(
        "--process",
        action="append",
        default=[],
        help="process, static or raw process file; repeatable",
    )
    parser.add_argument("--measure", help="bi-measure file")
    parser.add_argument("--spec", help="risk measure spec file")
    parser.add_argument("--alpha", type=float, help="quantile level in (0,1)")
    parser.add_argument("--beta", type=float, default=1.0, help="entropic parameter")
    parser.add_argument("--depths", help="comma separated refinement depths")
    parser.add_argument("--tol", type=float, default=1e-9, help="feasibility tolerance")
    parser.add_argument("--seed", type=int, help="seed for randomized procedures")
    parser.add_argument("--samples", type=int, help="randomized sample count")
    parser.add_argument("--kgrid", help="comma separated tail thresholds")
    parser.add_argument(
        "--family",
        choices=("worst-case", "avar"),
        default="worst-case",
        help="canonical refinement family",
    )
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument(
        "--format",
        choices=("table", "csv", "structured"),
        default="table",
        help="report rendering",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        ns.depths = _parse_int_list(ns.depths) if ns.depths else ()
        ns.kgrid = _parse_float_list(ns.kgrid) if ns.kgrid else DEFAULT_K_GRID
        return run(ns)
    except UndefinedQuantityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
