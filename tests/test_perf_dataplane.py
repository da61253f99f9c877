"""Dataplane pps harness: fast sanity checks + the perf-marked sweep.

The ``perf``-marked test is the `pytest -m perf` entry point: it runs
the full table-size/chain-length sweep and writes the JSON artifact
(``--bench-json``, default ``BENCH_dataplane.json``).  The unmarked
tests keep the harness itself covered in tier-1 with tiny workloads.
"""

import json
import os

import pytest

from repro.perf.dataplane import (
    build_steering_table,
    check_fused_invalidation,
    check_results,
    count_chain_excess_parse_frame,
    count_fast_path_parse_cidr,
    format_results,
    run_dataplane_bench,
    sweep_chain,
    sweep_lookup,
    write_bench_json,
)
from repro.perf.dataplane import _steering_frames


def test_sweep_lookup_shape():
    points = sweep_lookup(sizes=(4, 16), packets=50)
    assert [p.table_size for p in points] == [4, 16]
    for point in points:
        assert point.linear_pps > 0 and point.indexed_pps > 0
        assert point.speedup == pytest.approx(
            point.indexed_pps / point.linear_pps)


def test_sweep_chain_delivers_everything():
    points = sweep_chain(lengths=(1, 3), packets=40)
    assert [p.chain_length for p in points] == [1, 3]
    for point in points:
        assert point.single_pps > 0 and point.batched_pps > 0
        assert point.dispatch_pps > 0
    # The multi-hop production leg must have gone through fused
    # programs and dispatch slots; the single-hop point must not fuse
    # (fast_out is already optimal there).
    assert points[0].fused_hits == 0
    assert points[1].fused_hits > 0
    assert points[1].dispatch_hits > 0


def test_fast_path_parse_cidr_free():
    table = build_steering_table(64)
    workload = _steering_frames(64, 30, seed=3)
    assert count_fast_path_parse_cidr(table, workload) == 0


def test_chain_never_reparses_untouched_frames():
    """Structural zero-reparse: one parse_frame per frame per chain on
    the per-hop path (tapped hops), and *at most* one on the production
    path — dispatch-hit
    frames are parked raw, so a plain fused chain delivers all 25 frames
    with zero parses (excess == -packets)."""
    for length in (1, 2, 4):
        assert count_chain_excess_parse_frame(length, packets=25) == 0
        fused_excess = count_chain_excess_parse_frame(length, packets=25,
                                                      fused=True)
        expected = 0 if length == 1 else -25
        assert fused_excess == expected, (
            "dispatch-hit frames should reach the terminal unparsed, "
            f"got excess {fused_excess} at length {length}")


def test_fused_invalidation_check_is_clean():
    """The invalidation-fallback probe: no stale frames, full
    fallback delivery, and a re-fuse afterwards."""
    outcome = check_fused_invalidation(packets=30)
    assert outcome["fused_before_flowmod"] == 30
    assert outcome["stale_frames_delivered"] == 0
    assert outcome["fallback_delivered"] == 30
    assert outcome["invalidations"] >= 1
    assert outcome["refused_after_retrace"] == 30


def test_quick_smoke_no_regression_gates():
    """The tier-1 perf smoke leg: a sub-second quick sweep held to the
    no-regression gates (point floors + both purity counters), so a
    perf breakage is caught without waiting for `pytest -m perf`."""
    results = run_dataplane_bench(quick=True)
    assert results["meta"]["quick"] is True
    assert [p["chain_length"] for p in results["chain"]] == [2]
    try:
        check_results(results)
    except AssertionError:
        # The floors sit far below the real speedups (~2x vs the 0.9x
        # gate), but this leg runs in tier-1 on whatever the CI box is
        # doing, so allow exactly one re-measure before declaring a
        # genuine regression.
        check_results(run_dataplane_bench(quick=True))


def test_quick_gates_catch_lookup_regression():
    """The quick gates are real: a doctored result dict with a lookup
    regression must fail even in quick mode."""
    results = run_dataplane_bench(quick=True)
    for point in results["lookup"]:
        point["speedup"] = 0.05
    with pytest.raises(AssertionError, match="lookup regressed"):
        check_results(results)


def test_quick_gates_catch_fusion_regressions():
    """The fused gates are real even in quick mode: a chain point with
    zero fused hits, and a stale-frame leak in the invalidation probe,
    must both fail."""
    results = run_dataplane_bench(quick=True)
    doctored = json.loads(json.dumps(results))
    for point in doctored["chain"]:
        point["fused_hits"] = 0
    with pytest.raises(AssertionError, match="fusion never engaged"):
        check_results(doctored)
    doctored = json.loads(json.dumps(results))
    doctored["fusion_invalidation"]["stale_frames_delivered"] = 7
    with pytest.raises(AssertionError, match="stale fused chain"):
        check_results(doctored)


def test_quick_gates_catch_tracing_overhead_regressions():
    """The tracing-overhead gates are real even in quick mode: a
    doctored ratio below the 97% floor, a sampler that fired during
    the timed leg, and a dead engagement probe must all fail."""
    results = run_dataplane_bench(quick=True)
    doctored = json.loads(json.dumps(results))
    doctored["tracing_overhead"]["ratio"] = 0.5
    with pytest.raises(AssertionError, match="tracing overhead too high"):
        check_results(doctored)
    doctored = json.loads(json.dumps(results))
    doctored["tracing_overhead"]["sampled_batches"] = 3
    with pytest.raises(AssertionError, match="measurement invalid"):
        check_results(doctored)
    doctored = json.loads(json.dumps(results))
    doctored["tracing_overhead"]["sampler_engaged"] = False
    with pytest.raises(AssertionError, match="never engaged"):
        check_results(doctored)


def test_quick_gates_catch_churn_regressions():
    """The churn gates are real even in quick mode: a remap fraction
    over the 1/min(N,N') bound, and any broken connection in the
    scale-cycle probe, must both fail."""
    results = run_dataplane_bench(quick=True)
    doctored = json.loads(json.dumps(results))
    doctored["churn"]["remap"]["steps"][1]["fraction"] = 0.9
    with pytest.raises(AssertionError, match="remapped"):
        check_results(doctored)
    doctored = json.loads(json.dumps(results))
    doctored["churn"]["cycle"]["broken_connections"] = 3
    with pytest.raises(AssertionError, match="connections broke"):
        check_results(doctored)
    doctored = json.loads(json.dumps(results))
    doctored["churn"]["cycle"]["state"]["adopted"] = 0
    with pytest.raises(AssertionError, match="adopted"):
        check_results(doctored)


def test_churn_bench_legs_directly():
    from repro.perf.churn import (
        measure_replica_churn,
        run_scale_cycle_probe,
    )
    remap = measure_replica_churn(flows=600, max_replicas=3, seed=3)
    # Ladder 1 -> 2 -> 3 -> 2 -> 1: four steps, every one in bound.
    assert len(remap["steps"]) == 4
    assert remap["worst_margin"] <= 0.05
    for step in remap["steps"]:
        assert step["moved"] <= step["flows"]
    cycle = run_scale_cycle_probe(phase1_flows=10, phase2_flows=20,
                                  data_frames=1, seed=3)
    assert cycle["broken_connections"] == 0
    assert cycle["state"]["adopted"] == 10
    assert cycle["replicas_used_during_spread"] == 3


def test_results_serialize_and_format():
    results = run_dataplane_bench(sizes=(4,), chain_lengths=(1,),
                                  lookup_packets=30, chain_packets=20)
    text = format_results(results)
    assert "speedup" in text and "parse_cidr" in text
    json.dumps(results)  # JSON-clean


@pytest.mark.perf
def test_dataplane_pps_sweep(request):
    """The full sweep; asserts the ≥10x target and writes the artifact.

    With ``--quick`` the sweep runs in the smoke configuration and the
    artifact is left untouched (trajectory files come from full runs).
    """
    quick = request.config.getoption("--quick")
    results = run_dataplane_bench(quick=quick)
    print("\n" + format_results(results))
    bench_path = request.config.getoption("--bench-json")
    if not quick:
        write_bench_json(results, bench_path)
        print(f"wrote {bench_path}")
        assert os.path.exists(bench_path)
    try:
        try:
            check_results(results)  # >=10x at 1k, parse_cidr-free
        except AssertionError:
            if not quick:
                raise
            # Quick mode shares the tier-1 smoke's one-retry policy:
            # its timing floors run on a loaded CI box, so re-measure
            # once before declaring a regression.
            results = run_dataplane_bench(quick=True)
            check_results(results)
    except AssertionError:
        # Freeze the flight-recorder dump + histogram snapshot from
        # the tracing probe next to the bench artifact so CI can
        # upload them on a failed perf job.
        flight_path = os.path.join(
            os.path.dirname(bench_path) or ".", "FLIGHT_dataplane.json")
        tracing = results.get("tracing_overhead", {})
        write_bench_json({
            "flight": tracing.get("flight"),
            "histograms": tracing.get("histograms"),
            "tracing_overhead": {
                k: v for k, v in tracing.items()
                if k not in ("flight", "histograms")},
            "meta": results.get("meta"),
        }, flight_path)
        print(f"wrote {flight_path}")
        raise
