"""Benchmark for treerisk: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload {cli_deep,cli_small_exact,api_batch} \
        --seed N --seconds S --trace {0,1}

Run from a checkout: the program is imported from ``src/`` next to this
directory, in this one process, with no extra threads. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``. Inputs and reports live in a scratch
directory under ``.bench_work/`` that is removed at the end; a traced run
leaves its spans in ``.bench_work/trace-<workload>-<seed>.json``.

A run repeats whole rounds of the workload's fixed operation sequence until
``--seconds`` have passed (at least three rounds). The first round's outputs
are checked against references computed apart from the program; every later
round must reproduce them exactly. ``attempted`` and ``failed`` count the
operations of one round. Each operation's time is the median over
the rounds of its time scaled to a reference machine speed (see ``gauge``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gauge  # noqa: E402
import reference as R  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import KINDS, RATES, WORKLOADS, Rejected  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 3
# later rounds repeat short operations until each kind's calls add up to KIND_S
KIND_S, MAX_REPS = 0.2, 8

UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    **{f"{k}_ms": "ms" for k in KINDS},
    **{r: "1/s" for r in RATES},
}


class Program:
    """The treerisk package and its CLI module, imported afresh from ``src/``."""

    def load(self) -> None:
        for name in [n for n in sys.modules if n == "treerisk" or n.startswith("treerisk.")]:
            del sys.modules[name]
        self.pkg = importlib.import_module("treerisk")
        self.cli = importlib.import_module("treerisk.cli")
        if Path(self.pkg.__file__).resolve().parent != SRC / "treerisk":
            raise SystemExit(f"imported treerisk from {self.pkg.__file__}, not from {SRC}")


class Session:
    """Correctness bookkeeping: the first round is kept and checked, later rounds must repeat it.

    ``attempted`` and ``failed`` count the operations of one round, so they do
    not grow with the number of rounds that fit into a run; every later round
    must reject exactly the same operations, or it differs from the first.
    """

    def __init__(self):
        self.ops: list | None = None
        self.first: list | None = None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, ops, results) -> None:
        if self.first is None:
            self.ops, self.first = ops, results
            self.attempted = len(ops)
            self.failed = sum(isinstance(r, Rejected) for r in results)
            return
        for i, (op, r) in enumerate(zip(ops, results)):
            if r != self.first[i]:
                self.errors.append(f"{op.kind} operation {i}: output differs from the first round")

    def check(self) -> None:
        """Check the first round against the references (after the timed rounds, so
        the references' memory and imports stay out of every measurement)."""
        for op, r in zip(self.ops or [], self.first or []):
            try:
                op.check(r)
            except R.CheckFailed as exc:
                self.errors.append(str(exc))


def repetitions(ops, first: list[float]) -> list[int]:
    """How often later rounds call each operation in a row.

    The calls of one kind add up to at least ``KIND_S`` per round (at most
    ``MAX_REPS`` calls each), so that a kind with few short calls, such as
    two ``diagnose-lebesgue`` calls of 5 ms, still gets enough samples.
    """
    total: dict[str, float] = {}
    for op, t in zip(ops, first):
        total[op.kind] = total.get(op.kind, 0.0) + t
    return [min(MAX_REPS, max(1, math.ceil(KIND_S / total[op.kind]))) for op in ops]


def run_rounds(ops, seconds, session, tracer=None, repeat=False):
    """Whole rounds until ``seconds`` pass (at least ``MIN_ROUNDS``).

    Each round starts by freezing every live object (set-up structures, the
    inputs, the first round's results) out of the collector's reach, and
    garbage is collected before each call, so every call starts from the
    same collector state and pays only for the objects it creates. Each
    call's time is scaled by the gauge sampled around and during it (see
    ``gauge.timed``). With ``repeat``, later rounds call short operations
    several times in a row (see ``repetitions``); every repeat must return
    what the first call did.
    Returns each operation's median scaled time over all its calls and, when
    traced, each round's per-layer deltas with times scaled by the round's
    median gauge.
    """
    scaled: list[list[float]] = [[] for _ in ops]
    reps = [1] * len(ops)
    layers = []
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        gc.collect()
        gc.freeze()
        before = tracer.snapshot() if tracer else None
        results = []
        g = gauge.sample()
        samples = [g]
        for i, op in enumerate(ops):
            call = (lambda op=op: tracer.root(f"bench.{op.kind}", op.run)) if tracer else op.run
            for rep in range(reps[i]):
                gc.collect()
                ret, t, g = gauge.timed(call, g)
                samples.append(g)
                scaled[i].append(t)
                out = op.collect(ret)
                if rep == 0:
                    results.append(out)
                elif out != results[-1]:
                    session.errors.append(f"{op.kind} operation {i}: repeated call differs from the first")
        if tracer:
            after = tracer.snapshot()
            factor = gauge.REFERENCE_S / statistics.median(samples)
            layers.append({k: (after[k] - before[k]) * (factor if k.endswith("_s") else 1) for k in after})
        session.record(ops, results)
        if repeat and rounds == 0:
            reps = repetitions(ops, [t[0] for t in scaled])
        rounds += 1
    return [statistics.median(t) for t in scaled], layers


def timed_setup(prog: Program, workload):
    """Import the program afresh and build the workload's reusable structures.

    Returns the scaled set-up seconds and the state.
    """
    def setup():
        prog.load()
        return workload.setup(prog)

    state, dt, _ = gauge.timed(setup, gauge.sample())
    return dt, state


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seconds: float, session: Session) -> dict[str, float]:
    """Set-up is the median of SETUP_REPEATS; the rest adds up operation medians.

    ``peak_rss_mb`` is how far the process's peak resident memory rises above
    its peak before the program is first imported (the harness, numpy and the
    prepared inputs): the program's import, its set-up structures and the
    rounds' peak, with the references' work left until after it is read.
    """
    base = max_rss_mb()
    prog = Program()
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # the previous set-up's structures must not share this one's peak
        gc.collect()
        dt, state = timed_setup(prog, workload)
        setups.append(dt)
    ops = workload.ops(prog, state)
    times, _ = run_rounds(ops, seconds, session, repeat=True)
    m = {
        "setup_s": statistics.median(setups),
        "run_s": sum(times),
        "peak_rss_mb": max_rss_mb() - base,
    }
    for kind in KINDS:
        m[f"{kind}_ms"] = 1000.0 * statistics.fmean(t for op, t in zip(ops, times) if op.kind == kind)
    for rate in RATES:
        pairs = [(op.units, t) for op, t in zip(ops, times) if op.rate == rate]
        m[rate] = sum(u for u, _ in pairs) / sum(t for _, t in pairs)
    return m


def per_layer(workload, seconds: float, session: Session, trace_path: Path) -> dict[str, float]:
    """Untraced rounds, then tracing installed, set-up repeated and traced rounds.

    A layer metric is its value in the traced set-up plus its median over
    the traced rounds. ``trace.overhead_pct`` compares the traced and
    untraced run times.
    """
    prog = Program()
    _, state = timed_setup(prog, workload)
    plain, _ = run_rounds(workload.ops(prog, state), seconds / 2, session)
    tracer = Tracer()
    tracer.install()
    g0 = gauge.sample()
    state = tracer.root("bench.setup", lambda: workload.setup(prog))
    factor = gauge.REFERENCE_S / (0.5 * (g0 + gauge.sample()))
    at_setup = {k: v * (factor if k.endswith("_s") else 1) for k, v in tracer.snapshot().items()}
    traced, layers = run_rounds(workload.ops(prog, state), seconds / 2, session, tracer)
    tracer.write(trace_path)
    # counts repeat exactly from round to round
    m = {k: at_setup[k] + (statistics.median(r[k] for r in layers) if k.endswith("_s") else layers[0][k]) for k in at_setup}
    m["trace.untraced_run_s"] = sum(plain)
    m["trace.run_s"] = sum(traced)
    m["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
    m["trace.spans"] = len(tracer.spans) / len(layers)
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.startswith(("fileio.bytes", "cli.bytes")):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "treerisk" / "__init__.py").is_file():
        print(f"error: no treerisk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    scratch = ROOT / ".bench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    session = Session()
    try:
        workload.prepare(args.seed, work)
        gauge.start()
        if args.trace:
            metrics = per_layer(workload, args.seconds, session, scratch / f"trace-{args.workload}-{args.seed}.json")
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics = end_to_end(workload, args.seconds, session)
            units = UNITS
        session.check()
    finally:
        gauge.stop()
        shutil.rmtree(work, ignore_errors=True)
    for msg in session.errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
