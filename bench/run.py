"""listlab benchmark: one workload per run, measured from outside the program.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: modelcheck, simulate, native, combinatorics (see workloads.py and
BENCHMARK.json for what each runs and why).  The program is imported from
this checkout's ``src/``; without it the benchmark exits with code 1.

``--trace 0`` sets the workload up seven times (``setup_s`` is the import
time plus the median set-up), then repeats passes over the workload's items
for ``--seconds``.  Other tenants of the machine slow it down by up to half
for minutes at a time, which no choice among one run's samples undoes.  So
each item is timed between two runs of a fixed reference loop of plain
Python work, and its time is divided by theirs: load that slows both alike
cancels.  Every workload reports the same end-to-end metrics: ``pass_ref``
(one pass over the workload, the sum of its items' median ratios, in units
of the reference loop), ``setup_s`` and ``peak_rss_mb``.  The workload's own
figures, such as searches per second, are printed in seconds as
``headline`` lines, from each item's fastest pass.

``--trace 1`` runs one traced pass of every workload, with probes, and
derives the per-layer metrics from the spans' self times.  It then
alternates untraced and traced passes of the named workload for
``--seconds``; the tracing overhead is the relative difference of their
``pass_ref``.  All spans are written to ``bench/out/spans-<workload>.jsonl.gz``.

Both print reference-check counts, the result fingerprints (compared with
``bench/fingerprints.json``; a difference is a change of behaviour, not a
speed-up) and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from spans import NullTracer, Tracer, self_times

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
REFERENCE_ROUNDS = 15_000


def import_listlab() -> float:
    """Import listlab from this checkout's src/ and return the seconds taken."""
    if not (SRC / "listlab" / "__init__.py").is_file():
        sys.exit(f"bench: no listlab sources under {SRC}")  # exit code 1
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import listlab.cli  # noqa: F401  (imports every module)
    elapsed = time.perf_counter() - t0
    if Path(listlab.cli.__file__).resolve().parent != SRC / "listlab":
        sys.exit(f"bench: listlab was imported from {listlab.cli.__file__}")
    return elapsed


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def reference_loop() -> float:
    """Seconds taken by a fixed stretch of plain Python work, of the kinds
    listlab does: dict and list updates and sorting, then allocating small
    objects and hashing tuples built from them into a set.  It imports
    nothing from listlab and never changes, so it measures only how fast
    the machine runs at the moment."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    window: list[tuple[int, int]] = []
    for i in range(REFERENCE_ROUNDS):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + 1
        window.append((k, i & 7))
        if len(window) > 64:
            window.sort()
            del window[:32]
    seen = set()
    cells: list[_Cell] = []
    for i in range(REFERENCE_ROUNDS // 5):
        cells.append(_Cell(i, (i * 31) % 97))
        seen.add((tuple((c.a & 15, c.b) for c in cells[-4:]), i % 101))
        if len(cells) > 512:
            del cells[:256]
    return time.perf_counter() - t0


def one_pass(workload, tracer, checks, times) -> None:
    """Run every item once, timing its run and then checking its output.

    Appends (item seconds, mean seconds of the reference loops just before
    and just after it) to ``times[item id]``.
    """
    before = reference_loop()
    for item in workload.items():
        try:
            with tracer.span("bench.item", item.id):
                t0 = time.perf_counter()
                out = item.run(tracer, item.id)
                elapsed = time.perf_counter() - t0
            after = reference_loop()
            times[item.id].append((elapsed, (before + after) / 2))
            before = after
            item.check(out, checks)
        except Exception:
            traceback.print_exc()
            checks.expect(False, f"{item.id} raised")
        gc.collect()  # so that no item pays for collecting another's garbage


def check_complete(workload, times) -> None:
    missing = [it.id for it in workload.items() if not times[it.id]]
    if missing:
        sys.exit(f"bench: no successful run of {missing}")


def median_ratios(times) -> dict[str, float]:
    """Each item's median time in units of the reference loop."""
    return {k: statistics.median(t / r for t, r in v) for k, v in times.items()}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "listlab").glob("*.py")))


def print_fingerprints(found: dict) -> None:
    recorded = json.loads((BENCH / "fingerprints.json").read_text())
    for name, value in found.items():
        if name not in recorded:
            verdict = "not recorded"
        elif recorded[name] == value:
            verdict = "as recorded"
        else:
            verdict = f"CHANGED, recorded {json.dumps(recorded[name])}"
        print(f"fingerprint {name} = {json.dumps(value)} ({verdict})")
    print(f"size src_lines = {src_lines()}")


def untraced(cls, seed, seconds, tmp, import_s, checks) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = cls(seed, tmp)
        workload.warm_up()
        setups.append(time.perf_counter() - t0)
    print(f"shape {workload.shape()}")
    times = defaultdict(list)
    tracer = NullTracer()
    deadline = time.perf_counter() + seconds
    while True:
        one_pass(workload, tracer, checks, times)
        if time.perf_counter() >= deadline:
            break
    check_complete(workload, times)
    best = {k: min(t for t, _ in v) for k, v in times.items()}
    ratios = median_ratios(times)
    for item_id, samples in times.items():
        print(f"item {item_id}: best {best[item_id]:.6f} s, median "
              f"{statistics.median(t for t, _ in samples):.6f} s, median ratio "
              f"{ratios[item_id]:.4f} over {len(samples)} passes")
    print(f"reference loop: median "
          f"{statistics.median(r for v in times.values() for _, r in v):.6f} s")
    for name, (value, unit) in workload.headline(best).items():
        print(f"headline {name} = {value:.6g} {unit}")
    print_fingerprints(workload.fingerprints())
    return {
        "pass_ref": (sum(ratios.values()), "ref"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(workloads, name, seed, seconds, tmp, checks) -> dict:
    built = {n: cls(seed, tmp) for n, cls in workloads.items()}
    layer = Tracer()
    for workload in built.values():
        workload.warm_up()
        one_pass(workload, layer, checks, defaultdict(list))
        workload.probes(layer)
    selfs = self_times(layer.spans)
    metrics = {}
    fingerprints = {}
    for workload in built.values():
        metrics.update(workload.layer_metrics(layer.spans, selfs))
        fingerprints.update(workload.fingerprints())
    print_fingerprints(fingerprints)

    target = built[name]
    plain, traced_times = defaultdict(list), defaultdict(list)
    overhead = Tracer()
    sides = [(NullTracer(), plain), (overhead, traced_times)]
    deadline = time.perf_counter() + seconds
    while True:
        for tracer, times in sides:
            one_pass(target, tracer, checks, times)
        sides.reverse()  # alternate which side runs first
        if time.perf_counter() >= deadline:
            break
    check_complete(target, plain)
    check_complete(target, traced_times)
    base = sum(median_ratios(plain).values())
    metrics["trace.overhead_share"] = (
        sum(median_ratios(traced_times).values()) / base - 1, "ratio")
    path = OUT / f"spans-{name}.jsonl.gz"
    overhead.spans[:0] = layer.spans
    overhead.write(path)
    print(f"spans written to {path.relative_to(BENCH.parent)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_listlab()
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"gil={'on' if gil else 'off'} workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why {WORKLOADS[args.workload].why}")
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        if args.trace:
            metrics = traced(WORKLOADS, args.workload, args.seed, args.seconds,
                             tmp, checks)
        else:
            metrics = untraced(WORKLOADS[args.workload], args.seed, args.seconds,
                               tmp, import_s, checks)
    finally:
        for f in tmp.iterdir():
            f.unlink()
        tmp.rmdir()
    print(f"checks attempted={checks.attempted} failed={checks.failed} "
          f"failed_share={checks.failed / max(checks.attempted, 1):.6g}")
    for message in checks.messages:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
