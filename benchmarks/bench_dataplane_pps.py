"""Dataplane pps sweep: flow lookup, compiled actions, batched chains.

Sweeps flow-table sizes (10/100/1k/5k entries — small-table bypass
below 17, two-level index above) against the pre-PR linear scan, the
compiled action closures against the interpreted reference loop per
steering shape, and chain lengths for the per-hop batch path (tapped
hops) and production batch path vs per-frame ``Datapath.process``;
writes ``BENCH_dataplane.json`` so later changes can track the pps
trajectory.

Run with pytest (perf marker)::

    PYTHONPATH=src python -m pytest -m perf benchmarks/bench_dataplane_pps.py -s

or standalone::

    PYTHONPATH=src python benchmarks/bench_dataplane_pps.py
"""

import os
import sys

import pytest

if __package__ in (None, ""):  # running as a script
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from benchmarks.conftest import bench_json_path, print_block
from repro.perf.dataplane import check_results, format_results, \
    run_dataplane_bench, write_bench_json

@pytest.fixture(scope="module")
def results(request):
    # Sweep parameters are the run_dataplane_bench defaults so this
    # entry point and tests/test_perf_dataplane.py cannot drift.
    quick = request.config.getoption("--quick")
    data = run_dataplane_bench(quick=quick)
    print_block("Dataplane pps: indexed lookup + batched pipeline",
                format_results(data))
    if not quick:  # the trajectory artifact always comes from a full sweep
        path = bench_json_path(request.config)
        write_bench_json(data, path)
        print(f"wrote {path}")
    return data


@pytest.mark.perf
def test_acceptance_criteria(results):
    # check_results is the single source of truth for every threshold:
    # >=10x at 1k entries, >=1.3x per-hop chain batching, no small-table
    # regression, compiled actions not slower on average, parse_cidr-free.
    check_results(results)


@pytest.mark.perf
def test_speedup_grows_with_table_size(results):
    speedups = [p["speedup"] for p in results["lookup"]]
    if len(speedups) < 2:
        pytest.skip("quick sweep has a single table size")
    assert speedups[-1] > speedups[0], speedups


def main() -> None:
    data = run_dataplane_bench()
    print_block("Dataplane pps: indexed lookup + batched pipeline",
                format_results(data))
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_dataplane.json")
    write_bench_json(data, path)
    print(f"wrote {path}")
    check_results(data)


if __name__ == "__main__":
    main()
