"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-1m --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload serve-1m --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --list

Each run starts fresh single-threaded measuring processes
(``worker.py``; BLAS pinned to one thread) that import the program from
``src/`` of the checkout:

* ``--trace 0`` starts three processes one after another, each repeating
  the timed operation for about a third of ``--seconds``; the workload's
  items (the six searches of ``hadas-bilevel``) rotate across them.
  ``setup_s`` is the median time from starting a process to its "ready"
  line, ``peak_rss_mb`` the median peak resident set, and ``run_rel`` the
  median of each operation's wall time over the wall time of a fixed host
  reference snippet run just before it (per item, summed over items).  The
  plain wall time is printed too, but the shared hosts this runs on drift
  in speed by tens of per cent within minutes, which the ratio cancels.
* ``--trace 1`` starts one untraced and one traced process, half of
  ``--seconds`` each, and reports every per-layer metric from the traced
  one, plus ``bench.run_s`` (the untraced plain wall time) and
  ``bench.trace_overhead_frac`` -- traced over untraced ``run_rel``, minus
  one.

Every operation's output is checked outside the program (see
``workloads.py``), and every operation of a run -- across repetitions and
processes, traced or not -- must produce the same output digest.  An
operation that fails a check counts as failed.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it list
each metric with its unit, direction and kind, and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from catalog import END_TO_END, PER_LAYER, PREFIX, WORKLOADS, derive_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fresh processes per untraced run; set-up time is their median.
SETUP_SAMPLES = 3
#: Whole-run ceiling: a run must end well inside three minutes.
RUN_BUDGET_S = 170.0
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(
    args, seconds: float, traced: bool, deadline: float, first_op: int = 0
) -> dict:
    """Start one measuring process and collect its events.

    Items rotate on from ``first_op``; the process runs until the run's
    operations, ``first_op`` of them plus its own, cover every item.
    """
    root = os.path.dirname(HERE)
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", "1" if traced else "0",
        "--first-op", str(first_op),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    # The whole run must end in time: kill a process that outlives it.
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    events: dict = {"ops": []}
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                sys.stderr.write(line)
                continue
            event = json.loads(line[len(PREFIX):])
            kind = event.pop("event")
            if kind == "ready":
                events["setup_s"] = time.perf_counter() - start
                events["ready"] = event
            elif kind == "op":
                events["ops"].append(event)
            else:
                events["done"] = event
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or "done" not in events:
        raise WorkerFailed(
            f"measuring process exited with code {code}"
            + (" (run budget exceeded)" if time.perf_counter() >= deadline else "")
        )
    return events


def per_item_medians(ops: list[dict], field) -> dict[str, float]:
    by_item: dict[str, list[float]] = {}
    for op in ops:
        by_item.setdefault(op["item"], []).append(field(op))
    return {item: statistics.median(values) for item, values in by_item.items()}


def op_seconds(ops: list[dict]) -> float:
    """Median operation wall time per item, summed over items."""
    return sum(per_item_medians(ops, lambda op: op["seconds"]).values())


def op_relative(ops: list[dict]) -> float:
    """Median operation time over its host reference, per item, summed."""
    return sum(per_item_medians(ops, lambda op: op["seconds"] / op["reference"]).values())


def layer_totals(worker: dict) -> dict[str, float]:
    """Raw per-layer totals of one set-up plus one pass over every item.

    Set-up totals come from the "ready" event; for each raw key the
    operations contribute their per-item median, summed over items.
    """
    raw = dict(worker["ready"]["layers"])
    ops = worker["ops"]
    for key in {key for op in ops for key in op["layers"]}:
        medians = per_item_medians(ops, lambda op: op["layers"].get(key, 0.0))
        raw[key] = raw.get(key, 0.0) + sum(medians.values())
    return raw


def check_ops(workers: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): checks plus cross-op digest equality."""
    ops = [op for worker in workers for op in worker["ops"]]
    reference: dict[str, str] = {}
    failed = 0
    messages: list[str] = []
    for op in ops:
        errors = list(op["errors"])
        expected = reference.setdefault(op["item"], op["digest"])
        if op["digest"] != expected:
            errors.append(
                f"output digest {op['digest']} differs from {expected} "
                f"for the same item"
            )
        if errors:
            failed += 1
            messages.extend(f"{op['item']}: {error}" for error in errors)
    return len(ops), failed, messages


def measure(args) -> tuple[dict, list[dict]]:
    deadline = time.perf_counter() + RUN_BUDGET_S
    if args.trace:
        untraced = run_worker(args, args.seconds / 2, False, deadline)
        traced = run_worker(args, args.seconds / 2, True, deadline)
        workers = [untraced, traced]
        metrics = derive_layer_metrics(layer_totals(traced))
        metrics["bench.run_s"] = op_seconds(untraced["ops"])
        metrics["bench.trace_overhead_frac"] = (
            op_relative(traced["ops"]) / op_relative(untraced["ops"]) - 1.0
        )
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        workers = []
        for _ in range(SETUP_SAMPLES):
            first_op = sum(len(worker["ops"]) for worker in workers)
            workers.append(
                run_worker(args, args.seconds / SETUP_SAMPLES, False, deadline, first_op)
            )
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "run_rel": op_relative([op for worker in workers for op in worker["ops"]]),
            "peak_rss_mb": statistics.median(w["done"]["peak_rss_mb"] for w in workers),
        }
        units = {name: unit for name, unit, *_ in END_TO_END}
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, workers


def describe(metrics: dict, workers: list[dict], messages: list[str]) -> None:
    """Human-readable lines printed before the result line."""
    kinds = {name: (better, kind) for name, _, better, kind, *_ in END_TO_END + PER_LAYER}
    print(f"{'metric':34s} {'value':>16s} {'unit':8s} {'better':6s} kind")
    for name, entry in metrics.items():
        better, kind = kinds[name]
        print(f"{name:34s} {entry['value']:16.6g} {entry['unit']:8s} {better:6s} {kind}")
    ops = [op for worker in workers for op in worker["ops"]]
    print(f"plain wall time of the operation (per item, summed): "
          f"{op_seconds(ops):.4f} s")
    for index, worker in enumerate(workers):
        for op in worker["ops"]:
            print(f"process {index} {op['item']}: {op['seconds']:.4f} s "
                  f"(reference {op['reference']:.4f} s), "
                  f"digest {op['digest']}, {op['detail']}")
    for message in messages:
        print(f"CHECK FAILED {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print the workloads, why each was chosen, and every "
                             "metric with the end-to-end metric and workload it moves")
    args = parser.parse_args(argv)
    if args.list:
        for name, why in WORKLOADS.items():
            print(f"{name}: {why}\n")
        for name, unit, better, kind, meaning in END_TO_END:
            print(f"{name} [{unit}, {better} is better, {kind}]: {meaning}")
        print(f"\n{'per-layer metric':36s} {'unit':8s} {'better':6s} {'kind':9s} "
              "moves       on workload")
        for name, unit, better, kind, moves, workload in PER_LAYER:
            print(f"{name:36s} {unit:8s} {better:6s} {kind:9s} {moves:11s} {workload}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(os.path.dirname(HERE), "src", "repro")):
        print("perfbench: no src/repro next to the benchmark; nothing to measure",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        print(f"== {name}")
        args.workload = name
        status = max(status, run_workload(args))
    return status


def run_workload(args) -> int:
    """Measure one workload and print its metrics, ending with the result line."""
    try:
        metrics, workers = measure(args)
    except WorkerFailed as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    attempted, failed, messages = check_ops(workers)
    describe(metrics, workers, messages)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
