"""Control-plane churn harness: tier-1 smoke + the perf-marked bench.

The ``perf``-marked test is the 1k-graph churn entry point: it writes
``BENCH_controlplane.json`` next to the dataplane artifact (the
directory of ``--bench-json``) and asserts :func:`check_results` — in
``--quick`` mode it runs the same scenario at the CI smoke size and
leaves the artifact untouched.  The unmarked tests keep the harness
and its gates covered in tier-1 with the quick fleet.
"""

import json
import os

import pytest

from repro.perf.controlplane import (
    CONTROLPLANE_MAX_CONVERGE_TICKS,
    check_results,
    run_controlplane_bench,
)
from repro.perf.dataplane import write_bench_json


@pytest.fixture(scope="module")
def quick_results():
    return run_controlplane_bench(quick=True)


def test_quick_fleet_converges_and_gates(quick_results):
    """The tier-1 smoke leg: the quick fleet deploys, churns and
    converges within the exact tick gates, policies survive re-PUTs,
    and the journal drops nothing and keeps its seqs in order."""
    assert quick_results["meta"]["quick"] is True
    assert quick_results["deploy"]["ticks_to_converge"] <= \
        CONTROLPLANE_MAX_CONVERGE_TICKS
    journal = quick_results["journal"]
    assert journal["events_total"] > 0
    assert journal["duplicate_seqs"] == 0
    assert journal["unordered_graphs"] == 0
    check_results(quick_results)
    json.dumps(quick_results)  # JSON-clean


def test_gates_catch_convergence_regression(quick_results):
    doctored = json.loads(json.dumps(quick_results))
    doctored["deploy"]["ticks_to_converge"] = 7
    with pytest.raises(AssertionError, match="productive ticks"):
        check_results(doctored)
    doctored = json.loads(json.dumps(quick_results))
    doctored["churn_rounds"][0]["converged"] = False
    with pytest.raises(AssertionError, match="never converged"):
        check_results(doctored)


def test_gates_catch_policy_and_journal_regressions(quick_results):
    doctored = json.loads(json.dumps(quick_results))
    doctored["policies"]["preserved_after_replut"] = 0
    with pytest.raises(AssertionError, match="persisted policies"):
        check_results(doctored)
    doctored = json.loads(json.dumps(quick_results))
    doctored["journal"]["dropped_total"] = 12
    with pytest.raises(AssertionError, match="journal events dropped"):
        check_results(doctored)
    doctored = json.loads(json.dumps(quick_results))
    doctored["journal"]["duplicate_seqs"] = 1
    with pytest.raises(AssertionError, match="journal integrity"):
        check_results(doctored)
    doctored = json.loads(json.dumps(quick_results))
    doctored["journal"]["unordered_graphs"] = 3
    with pytest.raises(AssertionError, match="journal integrity"):
        check_results(doctored)
    doctored = json.loads(json.dumps(quick_results))
    doctored["tick_errors"] = 2
    with pytest.raises(AssertionError, match="tick error"):
        check_results(doctored)


def test_gates_catch_latency_regression(quick_results):
    doctored = json.loads(json.dumps(quick_results))
    doctored["tick_latency"]["mean_per_graph_s"] = 1.0
    with pytest.raises(AssertionError, match="ms/graph"):
        check_results(doctored)


@pytest.mark.perf
def test_controlplane_churn_bench(request):
    """The 1k-graph churn bench; writes ``BENCH_controlplane.json``.

    With ``--quick`` the fleet shrinks to the smoke size, the same
    gates run, and the artifact is left untouched (trajectory files
    always come from full runs).
    """
    quick = request.config.getoption("--quick")
    results = run_controlplane_bench(quick=quick)
    print(f"\n{results['graphs']} graphs: "
          f"deploy {results['deploy']['ticks_to_converge']} tick(s) in "
          f"{results['deploy']['total_seconds']:.2f}s, mean tick "
          f"{results['tick_latency']['mean_per_graph_s'] * 1e6:.0f} "
          f"us/graph")
    if not quick:
        bench_dir = os.path.dirname(
            request.config.getoption("--bench-json")) or "."
        path = os.path.join(bench_dir, "BENCH_controlplane.json")
        write_bench_json(results, path)
        print(f"wrote {path}")
        assert os.path.exists(path)
    check_results(results)
