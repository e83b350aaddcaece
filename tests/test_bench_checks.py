"""The benchmark's output checks, run once per workload as ordinary tests.

Each workload in ``bench/workloads.py`` checks every item's output against
``bench/reference.py``.  A change that breaks one of those checks breaks
the benchmark, so each workload's items run here once, untimed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from spans import NullTracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_bench_item_passes_its_check(name, tmp_path):
    workload = WORKLOADS[name](7, tmp_path)
    checks = Checks()
    for item in workload.items():
        item.check(item.run(NullTracer(), item.id), checks)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages
