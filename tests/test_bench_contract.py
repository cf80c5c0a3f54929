"""The benchmark's workloads run on this program and pass their own checks.

bench/workloads.py is imported as it stands.  Each workload runs one
seeded round as a benchmark worker does, prepare -> run -> extract ->
check, so a change to the report, zero_points or compare_sets that the
benchmark calls shows here as a failure or a problem from its checks.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["sweep-d21-f27", "decompose-d30-f9"])
def test_workload_round_passes_its_checks(name):
    work = workloads.WORKLOADS[name]
    inputs = work.prepare(random.Random(f"{name}:11:0"))
    out = work.extract(inputs, work.run(inputs))
    assert work.check(inputs, out) == []
