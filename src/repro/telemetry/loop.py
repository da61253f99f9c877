"""The continuous control loop: tick, sample, scale — forever.

PR 4 left the reconciler *on-demand*: every deploy/update/REST trigger
ran it to convergence, but nothing watched the node in between.  The
:class:`ControlLoop` closes that gap.  Each iteration:

1. **reconcile tick** per known graph — health probes, plan, execute
   (one tick, not tick-to-convergence: convergence happens *across*
   iterations, which is what makes the loop's cost per iteration
   bounded and its behavior inspectable mid-flight);
2. **telemetry sample** into the metrics registry;
3. **autoscaler evaluation** (optional) — which may edit desired
   state for the next iteration's ticks to converge on.

Two drivers of the same ``step``:

* :meth:`run_sim` registers the loop as a discrete-event-simulator
  process and rebinds the journal clock to the virtual clock — tests
  replay overload -> scale-out -> drain -> scale-in scenarios with
  bit-for-bit deterministic timestamps, MTTR and time-to-scale;
* :meth:`start` runs the identical ``step`` on a daemon thread against
  the monotonic wall clock for `repro serve`-style deployments.

Both drivers tick every graph on one thread, in sorted ``graph_id``
order, so sim traces and direct ``step()`` calls are deterministic.
REST handler threads still run beside the loop thread; the reconciler's
per-graph locks and its execution mutex keep the two apart.  There is
no tick worker pool: reconcile work is CPU-bound Python, and under the
GIL a pool measured slower than one thread.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.core.orchestrator import LocalOrchestrator
from repro.sim.engine import Process, Simulator
from repro.telemetry.autoscaler import Autoscaler
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["ControlLoop"]


class ControlLoop:
    """Drives reconcile ticks + telemetry + scaling on a fixed period."""

    def __init__(self, orchestrator: LocalOrchestrator,
                 registry: MetricsRegistry,
                 autoscaler: Optional[Autoscaler] = None,
                 interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.orchestrator = orchestrator
        self.registry = registry
        self.autoscaler = autoscaler
        self.interval = interval
        # Ad-hoc samples (REST scrapes) between two loop iterations
        # must not shorten the rate windows scaling decisions read.
        registry.min_rate_window = interval / 2.0
        self.iterations = 0
        self.steps_executed = 0
        self.scale_events = 0
        self.tick_errors = 0
        self.last_error: str = ""
        self._stop: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None

    # -- one iteration -----------------------------------------------------------
    def _tick_one(self, graph_id: str) -> int:
        """Tick one graph, absorbing its failure into loop stats.

        One graph's broken driver must not starve every other graph of
        its reconcile tick — the failed graph keeps its checkpointed
        state and is retried next iteration.
        """
        try:
            return self.orchestrator.reconciler.tick(graph_id).done_count
        except Exception as exc:
            self.tick_errors += 1
            self.last_error = f"{graph_id}: {exc}"
            return 0

    def step(self, now: Optional[float] = None) -> dict:
        """Tick every graph once, sample, evaluate policies.

        Returns a small stats dict (handy for tests and the journal).
        A graph whose tick plan fails keeps its checkpointed state and
        is retried next iteration — exactly the reconciler's contract.
        """
        t = self.registry.now() if now is None else now
        self.iterations += 1
        reconciler = self.orchestrator.reconciler
        tracer = reconciler.tracer
        tick_started = time.perf_counter() if tracer is not None else 0.0
        graph_ids = sorted(set(reconciler.desired) | set(reconciler.observed))
        executed = sum(self._tick_one(graph_id) for graph_id in graph_ids)
        self.registry.sample(t)
        decisions = (self.autoscaler.evaluate(t)
                     if self.autoscaler is not None else [])
        self.steps_executed += executed
        self.scale_events += len(decisions)
        if tracer is not None:
            tracer.observe_tick(time.perf_counter() - tick_started,
                                graphs=len(graph_ids))
        return {"t": t, "graphs": len(graph_ids),
                "steps-executed": executed,
                "scale-decisions": len(decisions)}

    # -- sim driver --------------------------------------------------------------
    def run_sim(self, sim: Simulator) -> Process:
        """Attach the loop to a simulator as a process (virtual clock).

        The reconciler journal's clock is rebound to ``sim.now`` so
        every event timestamp, rate window, MTTR and time-to-scale is
        in virtual seconds — run ``sim.run(until=...)`` to advance.
        Flow-state aging (:mod:`repro.switch.state`) moves onto the
        same axis: every LSI's state clock is rebound each tick, so
        graphs deployed mid-simulation age their flow entries in
        virtual time too.  The process never terminates on its own;
        the ``until`` bound (or :meth:`Simulator.stop`) ends it.
        """
        clock = lambda: sim.now  # noqa: E731 - one shared rebindable clock
        self.orchestrator.reconciler.journal.clock = clock
        steering = getattr(self.orchestrator, "steering", None)

        def ticker():
            while True:
                try:
                    if steering is not None:
                        steering.set_state_clock(clock)
                    self.step(sim.now)
                except Exception as exc:  # keep the loop alive; record
                    self.last_error = str(exc)
                yield sim.timeout(self.interval)

        return sim.process(ticker(), name="control-loop")

    # -- thread driver -----------------------------------------------------------
    def start(self) -> "ControlLoop":
        """Run the loop on a daemon thread (monotonic wall clock)."""
        if self._thread is not None:
            raise RuntimeError("control loop already running")
        self._stop = threading.Event()

        def run() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.step(time.monotonic())
                except Exception as exc:
                    self.last_error = str(exc)

        self._thread = threading.Thread(target=run, name="control-loop",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._stop is not None:
            self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
            self._stop = None
