"""The benchmark's output checks, run once per workload as ordinary tests.

Each workload in ``bench/workloads.py`` checks every item's output against
``bench/reference.py``.  A change that breaks one of those checks breaks
the benchmark, so each workload's items run here once, untimed: once with
``NullTracer``, as an untraced bench run does, and once as a traced run
does, under a real ``Tracer`` (native workers then open one span per
search) followed by the workload's probes and its per-layer metrics.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from spans import NullTracer, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402


def _run_items(workload, tracer) -> Checks:
    checks = Checks()
    for item in workload.items():
        item.check(item.run(tracer, item.id), checks)
    return checks


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_bench_item_passes_its_check(name, tmp_path):
    checks = _run_items(WORKLOADS[name](7, tmp_path), NullTracer())
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_bench_item_passes_its_check_traced(name, tmp_path):
    workload = WORKLOADS[name](7, tmp_path)
    tracer = Tracer()
    checks = _run_items(workload, tracer)
    workload.probes(tracer)
    workload.layer_metrics(tracer.spans, self_times(tracer.spans))
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages
