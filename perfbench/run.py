"""netident benchmark: four seeded workloads, end-to-end metrics, and a traced per-layer run.

Run from the root of a netident checkout:

    python3 perfbench/run.py --workload check --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``perfbench/README.md``.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a verdict is wrong or
an operation raised, 2 when the checkout holds no ``src/netident``.

One process runs every timed operation, one at a time, for ``--seconds``.
It draws a fixed pool of items from the seed and runs them in turn; after
the first pass each in-process repeat gets its item with the nodes
relabeled, the same work but not an input the program has seen.  Every
few hundred milliseconds, just before an operation, it times a fixed
reference of ``reference.py``, and each reported time is scaled to a host
on which that reference takes ``reference.REFERENCE_S``: the host's
changing speed divides out.  The raw times are printed and saved too.
Then it checks every item's outputs, untimed, and sets up again in fresh
processes to measure set-up time.

``--smoke`` runs every workload at tiny sizes, traced and untraced, with
the same checks, in under 30 s.  Its numbers are not measurements.

Each run works in ``.perfbench/<workload>-seed<seed>-trace<trace>/`` under
the checkout: generated inputs, the CLI's network files, the spans of a
traced run and ``result.json`` with every operation's time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference

WORKLOADS = ("check", "walks-acyclic", "walks-cyclic", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MEM_CAP_BYTES = 2 << 30  # address-space cap of every benchmark process and CLI child
OP_TIMEOUT_S = 20.0
# The timed loop stops at this multiple of --seconds, or this many seconds if
# more, even short of the workload's minimum operation count.
LOOP_LIMIT, LOOP_LIMIT_MIN_S = 2.0, 10.0
REFERENCE_EVERY_S = 0.25  # read the workload's reference again, before the next operation, once this much has passed
SETUP_CHILDREN = 4  # fresh processes that set up again; with this one's, setup_s is a median of 5
SETUP_TIMEOUT_S = 60.0
SMOKE_MIN_OPS = 10

END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "decided_share": "ratio",
    "passed_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TIMED = ("verdicts_per_s", "verdict_ms_p50", "verdict_ms_tail", "setup_s")

# Per-layer metrics, each per traced operation.  ``.ms`` is self time (span
# minus its child spans); ``.total_ms`` includes the children.
PER_LAYER = {
    "numeric.closed_loop.ms": "ms",
    "numeric.closed_loop.calls": "count",
    "numeric.rank_field.ms": "ms",
    "numeric.rank_field.cells": "count",
    "numeric.sensitivity_matrix.ms": "ms",
    "numeric.generic_rank.ms": "ms",
    "identifiability.local_identifiability.total_ms": "ms",
    "identifiability.decoupled_identifiability.total_ms": "ms",
    "combinatorial.repetition_table.ms": "ms",
    "combinatorial.repetition_table.entries": "count",
    "combinatorial.enumerate_walks.ms": "ms",
    "combinatorial.enumerate_walks.calls": "count",
    "combinatorial.enumerate_walks.walks": "count",
    "combinatorial.verdict_from_table.ms": "ms",
    "combinatorial.exhaustive_degree_bound.ms": "ms",
    "oracle.symbolic_det.ms": "ms",
    "oracle.symbolic_det.terms": "count",
    "netmodel.separate.ms": "ms",
    "netmodel.separate.calls": "count",
    "netmodel.validate.ms": "ms",
    "netmodel.decouple.ms": "ms",
    "netmodel.load_network.ms": "ms",
    "cli.python_floor_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead": "ratio",
}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def capped(fn, *args):
    """Call under the per-operation time cap; the memory cap is the process limit.

    A CLI child still running at the cap is killed and waited for by
    ``subprocess.run`` as the exception passes through it.
    """
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Op:
    item: int
    seconds: float
    reference_s: float  # the workload's latest reference reading before this operation
    out: object
    status: str | None  # None when the operation returned; else why it failed
    traced: bool

    @property
    def scaled(self) -> float:
        """Seconds on a host where the reference takes ``reference.REFERENCE_S``."""
        return self.seconds * reference.REFERENCE_S / self.reference_s


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile: at p=90 of 100 values, 10 values lie beyond it."""
    rank = math.ceil(p / 100 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def limit_process(src: Path) -> None:
    """Memory and time caps, then ``netident`` from the checkout's ``src``."""
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))
    signal.signal(signal.SIGALRM, _alarm)
    import netident

    if Path(netident.__file__).resolve().parent != (src / "netident").resolve():
        raise SystemExit(f"error: netident imported from {netident.__file__}, not from {src}")


def set_up(args, src: Path, workdir: Path):
    """Import ``netident``, draw the items, write them to files, warm up.

    Everything a run does before its first timed operation, so a fresh
    process calling this measures one set-up.  Returns the workload, the
    items, the set-up's seconds and a reading of the reference routine
    taken just before it.
    """
    reference_s = reference.median_of(reference.time_routine)
    started = time.perf_counter()
    limit_process(src)
    import workloads

    work = workloads.make(args.workload, src)
    items = {i: work.draw(args.seed, i, args.size) for i in range(work.count(args.size))}
    work.write(items, workdir)
    work.warm(items)
    return work, items, time.perf_counter() - started, reference_s


def timed_loop(args, work, items: dict, tracer) -> list[Op]:
    """Run the items in turn, passing over the pool again as needed, for ``--seconds``.

    The loop also runs until the workload's minimum operation count puts
    ten operations beyond its tail percentile, but never past its limit.
    In a traced run a seeded coin traces about half the operations.
    """
    min_ops = work.min_ops if args.size == "full" else SMOKE_MIN_OPS
    coin = random.Random(f"trace/{args.workload}/{args.seed}")
    ops: list[Op] = []
    reference_s, reference_at = 0.0, -math.inf
    started = time.perf_counter()
    deadline = started + args.seconds
    limit = started + max(LOOP_LIMIT * args.seconds, LOOP_LIMIT_MIN_S)
    while True:
        now = time.perf_counter()
        if (now >= deadline and len(ops) >= min_ops) or now >= limit:
            if len(ops) < min_ops:
                print(f"warning: stopped at the loop limit after {len(ops)} operations", file=sys.stderr)
            return ops
        if now - reference_at >= REFERENCE_EVERY_S:
            reference_s, reference_at = work.time_reference(), time.perf_counter()
        op_id = len(ops)
        item, rnd = op_id % len(items), op_id // len(items)
        value = work.variant(items[item], args.seed, item, rnd)
        traced = tracer is not None and coin.random() < 0.5
        spans_file = work.workdir / f"spans-{op_id}.json"
        if traced:
            if work.in_process:
                tracer.install(op_id)
            else:
                work.traced_child = spans_file
        t0 = time.perf_counter()
        out, status = None, None
        try:
            out = capped(work.run, value)
        except OpTimeout:
            status = "time cap"
        except MemoryError:
            status = "memory cap"
        except Exception as exc:
            traceback.print_exc()
            status = f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            work.traced_child = None
            if spans_file.exists():
                child = json.loads(spans_file.read_text())
                tracer.merge(child["spans"], op_id, child["import_ms"])
        if status is None and not work.in_process and out[0] not in (0, 1, 2):
            status = f"exit code {out[0]}"
        ops.append(Op(item, elapsed, reference_s, out, status, traced))


def verify(work, items: dict, ops: list[Op]) -> dict[int, str]:
    """Independent checks, untimed: item index -> why its output is wrong.

    Every repeat of an item, relabeled or not, must give the same output,
    and that output must pass the workload's own check.
    """
    outs: dict[int, list] = {}
    for op in ops:
        if op.status is None:
            outs.setdefault(op.item, []).append(op.out)
    wrong = {}
    for item, seen in outs.items():
        try:
            if work.repeat_once and len(seen) == 1:
                seen.append(capped(work.run, items[item]))
            if any(out != seen[0] for out in seen):
                wrong[item] = "outputs differ between repeats of the same input"
                continue
            problem = capped(work.check, item, items[item], seen[0])
        except Exception as exc:
            traceback.print_exc()
            problem = f"check could not finish: {exc!r}"
        if problem:
            wrong[item] = problem
    return wrong


def set_up_again(args, env: dict) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) of each of ``SETUP_CHILDREN`` fresh processes, in turn.

    A smoke run sets up once more, to keep it short.
    """
    argv = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "0", "--size", args.size, "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_CHILDREN if args.size == "full" else 1):
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}: {proc.stderr[-2000:]}")
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return samples


def end_to_end(work, ops, wrong, setup_samples, peak_mb, raw: bool) -> dict[str, float]:
    """The end-to-end metrics; times scaled to the reference host, or as measured when ``raw``."""
    times = sorted(op.seconds if raw else op.scaled for op in ops)
    setups = [s if raw else s * reference.REFERENCE_S / r for s, r in setup_samples]
    failed = sum(1 for op in ops if op.status is not None or op.item in wrong)
    decided = sum(1 for op in ops if op.status is None and op.item not in wrong and work.decided(op.out))
    return {
        "verdicts_per_s": (len(ops) - failed) / sum(times),
        "verdict_ms_p50": statistics.median(times) * 1e3,
        "verdict_ms_tail": percentile(times, work.tail) * 1e3,
        "decided_share": decided / len(ops),
        "passed_share": 1 - failed / len(ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
    }


def per_layer(work, ops, tracer, env) -> dict[str, float]:
    from tracer import layer_totals

    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    if not traced or not untraced:
        raise SystemExit("error: the run needs traced and untraced operations")
    scale = {op_id: reference.REFERENCE_S / op.reference_s for op_id, op in enumerate(ops)}
    totals = layer_totals(tracer.spans, scale)
    values = {name: totals.get(name, 0) / len(traced) for name in PER_LAYER}
    values["cli.main_ms"] = totals.get("cli.main.total_ms", 0) / len(traced)
    values["cli.import_ms"] = sum(ms * scale[op_id] for op_id, ms in tracer.child_import_ms) / len(traced)
    values["cli.python_floor_ms"] = 0.0
    if not work.in_process:
        floor = []
        for _ in range(5):
            reference_s = reference.median_of(reference.time_start, 3)
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
            floor.append((time.perf_counter() - started) * reference.REFERENCE_S / reference_s)
        values["cli.python_floor_ms"] = statistics.median(floor) * 1e3
    values["trace.overhead"] = statistics.median(op.scaled for op in traced) / statistics.median(
        op.scaled for op in untraced
    )
    return values


def run(args, src: Path, workdir: Path) -> int:
    work, items, own_setup_s, own_reference_s = set_up(args, src, workdir)
    import inputs
    import workloads

    env = workloads.child_env(src)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    ops = timed_loop(args, work, items, tracer)
    usage = resource.RUSAGE_SELF if work.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024  # before the checks, which build their own data
    wrong = verify(work, items, ops)

    raised = [op for op in ops if op.status and op.status.startswith(("raised", "exit code"))]
    correct = not wrong and not raised
    failed = sum(1 for op in ops if op.status is not None or op.item in wrong)
    digest = inputs.digest(work.network(item) for item in items.values())

    setup_samples = [(own_setup_s, own_reference_s)]
    raw = {}
    if args.trace:
        metrics, units = per_layer(work, ops, tracer, env), PER_LAYER
        (workdir / "trace.json").write_text(json.dumps(tracer.spans))
    else:
        setup_samples += set_up_again(args, env)
        metrics, units = end_to_end(work, ops, wrong, setup_samples, peak_mb, raw=False), END_TO_END
        raw = {name: value for name, value in end_to_end(work, ops, wrong, setup_samples, peak_mb, raw=True).items() if name in TIMED}
    info = environment()
    absent = tracer.absent if tracer else []
    references = [op.reference_s for op in ops]

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print(f"inputs {len(items)} items  sha256 {digest}")
    print(f"operations {len(ops)} attempted  {failed} failed  tail percentile p{work.tail}")
    print(
        f"reference {statistics.median(references) * 1e3:.3f} ms median "
        f"({min(references) * 1e3:.3f} to {max(references) * 1e3:.3f}); "
        f"times are scaled to {reference.REFERENCE_S * 1e3:g} ms"
    )
    print("environment " + json.dumps(info, sort_keys=True))
    if absent:
        print("absent trace targets: " + " ".join(absent))
    for item, why in sorted(wrong.items()):
        print(f"WRONG item {item}: {why}")
    for op in ops:
        if op.status is not None:
            print(f"FAILED item {op.item}: {op.status}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:.6g} {units[name]}")
    for name, value in raw.items():
        print(f"  {name + ' (as measured, not scaled)':<52} {value:.6g} {units[name]}")
    (workdir / "result.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "size": args.size,
                "trace": args.trace,
                "inputs_sha256": digest,
                "tail_percentile": work.tail,
                "reference_s": reference.REFERENCE_S,
                "environment": info,
                "absent": absent,
                "setup_samples_s": setup_samples,
                "ops": [[op.item, op.seconds, op.reference_s, op.traced, op.status] for op in ops],
                "wrong": {str(item): why for item, why in wrong.items()},
                "metrics": metrics,
                "as_measured": raw,
            },
            indent=1,
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def smoke() -> int:
    """Every workload at tiny size, untraced and traced; one summary line each."""
    started = time.perf_counter()
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True, timeout=120)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            good = result is not None and result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"smoke {name} trace {trace}: {'ok' if good else f'FAILED (exit {proc.returncode})'}")
            if not good:
                print(proc.stdout + proc.stderr)
    print(json.dumps({"smoke": True, "correct": ok, "seconds": time.perf_counter() - started}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload; not a measurement")
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)  # print one set-up's seconds
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    src = root / "src"
    if not (src / "netident" / "__init__.py").is_file():
        print("error: no src/netident here; run from the root of a netident checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    if args.smoke:
        return smoke()
    workdir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_only:
        setup_dir = workdir / "setup"
        setup_dir.mkdir(parents=True, exist_ok=True)
        print(json.dumps(set_up(args, src, setup_dir)[2:]))
        return 0
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return run(args, src, workdir)


if __name__ == "__main__":
    raise SystemExit(main())
