"""The autoscaler: measured load in, desired replica counts out.

The paper's premise only scales to "heavy traffic from millions of
users" if a single NF in a chain can become N replicas under load
(analytical VNF performance models — Prados-Garzon et al. — size
exactly this).  The autoscaler closes that loop *declaratively*: it
never creates or destroys anything itself.  Each evaluation reads the
per-NF load from the :class:`~repro.telemetry.metrics.MetricsRegistry`
and, when a policy says so, rewrites the **desired** graph's replica
count through :meth:`Reconciler.set_desired`; the reconciler's next
ticks plan and execute the convergence (create/steer or drain/destroy)
with all of its usual checkpointing and healing semantics.

Hysteresis.  Scale-out triggers when the measured per-replica load
exceeds ``target_pps``; scale-in only when the load would fit at the
*reduced* count with ``scale_in_headroom`` to spare — the two
thresholds never overlap, so a load sitting exactly at a boundary
cannot flap.  ``cooldown_seconds`` additionally rate-limits direction
changes per NF, and scale-in steps one replica at a time (drain
gently) while scale-out jumps straight to the needed count (overload
is the case to hurry for).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.reconciler import Reconciler
from repro.nffg.model import Nffg, ScalingPolicy
from repro.telemetry.metrics import MetricsRegistry

# ScalingPolicy moved into repro.nffg.model when policies became durable
# graph state (serialized with the NF-FG); re-exported here because this
# was its historical home.
__all__ = ["Autoscaler", "ScalingDecision", "ScalingPolicy"]


@dataclass(frozen=True)
class ScalingDecision:
    """One applied replica-count change (the autoscaler's audit row)."""

    at: float
    graph_id: str
    nf_id: str
    from_replicas: int
    to_replicas: int
    measured_pps: float
    reason: str

    def to_dict(self) -> dict:
        return {"at": self.at, "graph-id": self.graph_id,
                "nf-id": self.nf_id, "from": self.from_replicas,
                "to": self.to_replicas, "pps": self.measured_pps,
                "reason": self.reason}


@dataclass
class Autoscaler:
    """Evaluates scaling policies against measured load."""

    reconciler: Reconciler
    registry: MetricsRegistry
    #: (graph_id, nf_id) -> policy
    policies: dict[tuple[str, str], ScalingPolicy] = field(
        default_factory=dict)
    decisions: list[ScalingDecision] = field(default_factory=list)
    _last_change: dict[tuple[str, str], float] = field(default_factory=dict)

    def add_policy(self, graph_id: str, policy: ScalingPolicy) -> None:
        self.policies[(graph_id, policy.nf_id)] = policy

    def remove_policy(self, graph_id: str, nf_id: str) -> None:
        self.policies.pop((graph_id, nf_id), None)

    def _policy_sources(self) -> dict[tuple[str, str], ScalingPolicy]:
        """Graph-embedded policies merged with explicit ones.

        Policies persisted in the desired graph (``scaling-policies``
        in the NF-FG document, ``PUT /graphs/{id}/policies``) autoscale
        with no driver attached; a policy registered directly through
        :meth:`add_policy` overrides the persisted one for the same
        (graph, NF) — the explicit caller knows best.
        """
        merged: dict[tuple[str, str], ScalingPolicy] = {}
        for graph_id, raw in list(self.reconciler.desired_raw.items()):
            for policy in raw.policies:
                merged[(graph_id, policy.nf_id)] = policy
        merged.update(self.policies)
        return merged

    # -- the decision ------------------------------------------------------------
    def _wanted(self, policy: ScalingPolicy, current: int,
                pps: float) -> tuple[int, str]:
        """(desired replica count, reason) under hysteresis."""
        if pps > policy.target_pps * current:
            needed = math.ceil(pps / policy.target_pps)
            want = min(max(needed, current + 1), policy.max_replicas)
            if want > current:
                return want, (f"overload: {pps:.0f} pps > "
                              f"{policy.target_pps:.0f}/replica x {current}")
        if current > policy.min_replicas:
            reduced = current - 1
            fits = policy.target_pps * reduced * policy.scale_in_headroom
            if pps < fits:
                return reduced, (f"drain: {pps:.0f} pps fits {reduced} "
                                 f"replica(s) with headroom")
        return current, ""

    def evaluate(self, now: Optional[float] = None) -> list[ScalingDecision]:
        """One pass over every policy; applies and returns the changes.

        Each change rewrites the raw desired graph (replica count only)
        via ``set_desired`` and journals an ``autoscale`` event — the
        reconciler converges on its own schedule (the control loop's
        next tick, or an explicit ``reconcile``).
        """
        t = self.registry.now() if now is None else now
        applied: list[ScalingDecision] = []
        for (graph_id, nf_id), policy in sorted(
                self._policy_sources().items()):
            # The check (read replicas, decide) and the act
            # (set_desired) must be one atomic step against REST
            # updates and concurrent ticks on the same graph.
            with self.reconciler.lock(graph_id):
                decision = self._evaluate_one(graph_id, nf_id, policy, t)
            if decision is not None:
                applied.append(decision)
        return applied

    def _evaluate_one(self, graph_id: str, nf_id: str,
                      policy: ScalingPolicy,
                      t: float) -> Optional[ScalingDecision]:
        raw = self.reconciler.desired_raw.get(graph_id)
        if raw is None:
            return None
        try:
            spec = raw.nf(nf_id)
        except KeyError:
            return None
        pps = self.registry.group_pps(graph_id, nf_id)
        if pps is None:
            return None  # fewer than two samples: no rate signal yet
        current = spec.replicas
        want, reason = self._wanted(policy, current, pps)
        if want == current:
            return None
        last = self._last_change.get((graph_id, nf_id))
        if last is not None and t - last < policy.cooldown_seconds:
            return None
        new_graph = Nffg(
            graph_id=raw.graph_id, name=raw.name,
            nfs=[replace(s, replicas=want) if s.nf_id == nf_id else s
                 for s in raw.nfs],
            endpoints=list(raw.endpoints),
            flow_rules=list(raw.flow_rules),
            policies=list(raw.policies))
        self.reconciler.set_desired(new_graph)
        self.reconciler.journal.append(
            graph_id, "autoscale", nf_id=nf_id,
            detail=f"{current} -> {want} replicas ({reason})")
        decision = ScalingDecision(
            at=t, graph_id=graph_id, nf_id=nf_id,
            from_replicas=current, to_replicas=want,
            measured_pps=pps, reason=reason)
        self.decisions.append(decision)
        self._last_change[(graph_id, nf_id)] = t
        return decision
