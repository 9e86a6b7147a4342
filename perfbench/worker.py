"""One measuring process: set up a workload, then run timed operations.

Started by ``run.py``, never by hand.  It reports on stdout in lines that
start with ``@perfbench `` followed by one JSON object:

* ``{"event": "ready", "layers": ...}`` once set-up is done (``run.py``
  times the interval from starting this process to reading this line;
  when traced, ``layers`` holds the set-up's per-layer totals);
* ``{"event": "op", ...}`` after each timed operation, with its item, wall
  time, the wall time of the host reference run just before it, output
  digest, failed checks and -- when traced -- the raw per-layer totals;
* ``{"event": "done", "peak_rss_mb": ...}`` at the end.

Operations repeat for about ``--seconds``, rotating over the workload's
items from ``--first-op`` (the run's operations so far), and go on at least
until the run's operations cover every item.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from catalog import PREFIX


def emit(event: str, **fields) -> None:
    sys.stdout.write(PREFIX + json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


class HostReference:
    """A fixed snippet of interpreter and NumPy work, timed right before
    every operation.

    The shared hosts this benchmark runs on change speed by tens of per
    cent within minutes, for every kind of code at once; an operation's
    time divided by the reference time measured next to it cancels that
    drift (``run_rel``), while the plain seconds are still reported.
    """

    def __init__(self):
        self._array = np.random.default_rng(0).random(1_000_000)
        self.seconds()  # first call pays for page faults and dict growth

    def seconds(self) -> float:
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(300_000):
            table[i % 1000] = table.get(i % 1000, 0) + i
        ordered = np.sort(self._array)
        float(np.cumsum(ordered)[-1] + (self._array * self._array).sum())
        return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-op", type=int, default=0,
                        help="the run's operations so far; items rotate on from here")
    args = parser.parse_args(argv)

    import workloads
    from probe import install_layer_probe, peak_rss_mb, recorder_totals

    traced = bool(args.trace)
    probe = install_layer_probe() if traced else None
    if traced:
        from repro.obs import trace
        from repro.obs.trace import Recorder

    bench = workloads.WORKLOAD_CLASSES[args.workload](args.seed)
    bench.setup()
    emit("ready", layers=probe.totals() if traced else {})
    reference = HostReference()

    items = bench.items
    min_ops = max(1, len(items) - args.first_op)
    deadline = time.perf_counter() + args.seconds
    times: list[float] = []
    # Start another operation only when it is expected to end no more than
    # half an operation past the deadline, so a run's timed phase stays
    # close to --seconds whatever the operation length.
    while len(times) < min_ops or (
        time.perf_counter() + statistics.median(times) / 2 < deadline
    ):
        item = items[(args.first_op + len(times)) % len(items)]
        prepared = bench.prepare(item)
        reference_s = reference.seconds()
        if traced:
            probe.reset()
            recorder = Recorder()
            trace.install(recorder)
        start = time.perf_counter()
        result = bench.run(item, prepared)
        elapsed = time.perf_counter() - start
        if traced:
            trace.uninstall()
        outcome = bench.inspect(item, result)
        layers = {}
        if traced:
            layers = {**probe.totals(), **recorder_totals(recorder), **outcome["report"]}
        emit(
            "op",
            item=item,
            seconds=elapsed,
            reference=reference_s,
            digest=outcome["digest"],
            errors=outcome["errors"],
            detail=outcome["detail"],
            layers=layers,
        )
        del result, prepared
        times.append(elapsed)
    emit("done", peak_rss_mb=peak_rss_mb())
    return 0


if __name__ == "__main__":
    sys.exit(main())
