"""Depth ladder of per-layer self times, for reading growth orders. Reference only.

    python3 bench/ladder.py [--depths 6-14] [--seed 1]

On a binomial tree of each depth, runs one traced pass of the CLI commands
that read a tree file (eval, static-eval, project static and raw, allocate
with 5 fairness samples, instances) against an 8-element coherent spec of
density 0.5, and prints a markdown table of the self seconds per layer
category. Depth 14 takes about a minute, most of it in ``avar``.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import ROOT, SRC, Program  # noqa: E402
from tracing import TIME_METRICS, Tracer  # noqa: E402
from workloads import CliFiles, cli_ops  # noqa: E402
from inputs import binomial_tree, random_spec  # noqa: E402


def depth_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description="per-layer self times over tree depths")
    ap.add_argument("--depths", type=depth_range, default=depth_range("6-14"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    prog = Program()
    prog.load()
    tracer = Tracer()
    tracer.install()
    work = ROOT / ".bench_work" / "ladder"
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    table = {}
    try:
        for d in args.depths:
            tree = binomial_tree(d)
            f = CliFiles(work, f"b{d}", tree)
            N, L = tree.n_nodes, len(tree.leaves)
            els = random_spec(rng, tree, 8, 0.5, coherent=True)
            spec = f.spec("spec", els)
            cases = [
                f.eval(spec, els, rng.normal(size=N)),
                f.static_eval("static", spec, els, rng.normal(size=L)),
                f.project_static(rng.normal(size=L)),
                f.project_raw(rng.normal(size=(L, d + 1))),
                f.allocate(spec, els, [rng.normal(size=N) for _ in range(3)], 5, 1),
                f.instances(rng.normal(size=L), 0.05, 1.0),
            ]
            before = tracer.snapshot()
            for op in cli_ops(prog, cases, work / "out"):
                op.check(op.collect(op.run()))
            after = tracer.snapshot()
            table[d] = {k: after[k] - before[k] for k in TIME_METRICS}
            print(f"depth {d}: {N} nodes done", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rows = [k for k in TIME_METRICS if any(table[d][k] > 0 for d in table)]
    print("| layer self time (s) | " + " | ".join(f"d={d}" for d in table) + " |")
    print("| --- |" + " ---: |" * len(table))
    for k in rows:
        print(f"| `{k}` | " + " | ".join(f"{table[d][k]:.3g}" for d in table) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
