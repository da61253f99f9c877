"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark never edits the program.  In a traced run it replaces a
layer's public entry points (class methods, or a function where a
module binds it by name) with a wrapper that records one span per call,
and restores the originals afterwards.  A span is
``(site, start, end, parent)``: ``site`` names the wrapped entry point,
``parent`` is the span that was open when the call began.  Spans are
recorded only while a root span is open (an injection call, a REST call
or a set-up), so the generator's own calls into the same code — frame
building, ESP for inbound traffic, checks — never show up as layer time.

Spans live in flat arrays until the run ends; :func:`SpanStore.summarise`
then derives each layer's self time (a span's duration minus the time
its child spans cover) and each site's call count, split by root kind.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

#: Root span kinds: what the generator is doing when a span is recorded.
ROOT_INJECT = "bench.inject"
ROOT_OP = "bench.op"
ROOT_SETUP = "bench.setup"
ROOTS = (ROOT_INJECT, ROOT_OP, ROOT_SETUP)

#: (layer, module, owner, attribute).  ``owner`` is a class name whose
#: attribute is wrapped, or ``None`` for a function bound by name in
#: ``module`` — wrapped there, where the layer above calls it.
_ENTRY_POINTS = (
    ("switch", "repro.switch.datapath", "Datapath", "process"),
    ("switch", "repro.switch.datapath", "Datapath", "process_batch_from"),
    ("linuxnet.namespace", "repro.linuxnet.devices", "NetDevice", "receive"),
    ("linuxnet.namespace", "repro.linuxnet.devices", "NetDevice",
     "receive_batch"),
    ("linuxnet.iptables", "repro.linuxnet.iptables", "Ruleset", "traverse"),
    ("linuxnet.routing", "repro.linuxnet.routing", "RouteTable", "lookup"),
    ("linuxnet.conntrack", "repro.linuxnet.conntrack", "ConnTrack", "lookup"),
    ("linuxnet.conntrack", "repro.linuxnet.conntrack", "ConnTrack", "create"),
    ("ipsec", "repro.linuxnet.namespace", None, "esp_encapsulate"),
    ("ipsec", "repro.linuxnet.namespace", None, "esp_decapsulate"),
    ("net", "repro.net.ipv4", "IPv4Packet", "from_bytes"),
    ("net", "repro.net.ipv4", "IPv4Packet", "to_bytes"),
    ("net", "repro.net.transport", "UdpDatagram", "from_bytes"),
    ("net", "repro.net.transport", "UdpDatagram", "to_bytes"),
    ("net", "repro.switch.datapath", None, "parse_frame"),
    ("net", "repro.switch.fusion", None, "parse_frame"),
    ("net", "repro.switch.actions", None, "parse_frame"),
    ("rest", "repro.rest.app", "RestApp", "handle"),
    ("nffg", "repro.rest.app", None, "nffg_from_dict"),
    ("nffg", "repro.rest.app", None, "nffg_to_dict"),
    ("nffg", "repro.core.orchestrator", None, "validate_nffg"),
    ("nffg", "repro.core.reconciler", None, "diff_nffg"),
    ("nffg", "repro.core.reconciler", None, "expand_replicas"),
    ("core.orchestrator", "repro.core.orchestrator", "LocalOrchestrator",
     "deploy"),
    ("core.orchestrator", "repro.core.orchestrator", "LocalOrchestrator",
     "undeploy"),
    ("core.orchestrator", "repro.core.orchestrator", "LocalOrchestrator",
     "update"),
    ("core.orchestrator", "repro.core.orchestrator", "LocalOrchestrator",
     "apply"),
    ("core.orchestrator", "repro.core.orchestrator", "LocalOrchestrator",
     "status"),
    ("core.orchestrator", "repro.core.orchestrator", "LocalOrchestrator",
     "list_graphs"),
    ("core.reconciler", "repro.core.reconciler", "Reconciler", "set_desired"),
    ("core.reconciler", "repro.core.reconciler", "Reconciler",
     "clear_desired"),
    ("core.reconciler", "repro.core.reconciler", "Reconciler",
     "check_health"),
    ("core.reconciler", "repro.core.reconciler", "Reconciler", "plan"),
    ("core.reconciler", "repro.core.reconciler", "Reconciler", "tick"),
    ("core.reconciler", "repro.core.reconciler", "Reconciler", "reconcile"),
    ("core.reconciler", "repro.core.reconciler", "Reconciler", "forget"),
    ("core.steering", "repro.core.steering", "TrafficSteeringManager",
     "create_graph_network"),
    ("core.steering", "repro.core.steering", "TrafficSteeringManager",
     "attach_instances"),
    ("core.steering", "repro.core.steering", "TrafficSteeringManager",
     "detach_instance"),
    ("core.steering", "repro.core.steering", "TrafficSteeringManager",
     "prune_dead_trunks"),
    ("core.steering", "repro.core.steering", "TrafficSteeringManager",
     "remove_graph_network"),
    ("core.steering", "repro.core.steering", "TrafficSteeringManager",
     "install_rules"),
    ("core.steering", "repro.core.steering", "TrafficSteeringManager",
     "uninstall_rule"),
    ("core.steering", "repro.core.steering", "TrafficSteeringManager",
     "invalidate_fusion"),
    ("compute", "repro.compute.manager", "ComputeManager", "create"),
    ("compute", "repro.compute.manager", "ComputeManager", "configure"),
    ("compute", "repro.compute.manager", "ComputeManager", "start"),
    ("compute", "repro.compute.manager", "ComputeManager", "stop"),
    ("compute", "repro.compute.manager", "ComputeManager", "update"),
    ("compute", "repro.compute.manager", "ComputeManager", "restart"),
    ("compute", "repro.compute.manager", "ComputeManager", "health"),
    ("compute", "repro.compute.manager", "ComputeManager", "destroy"),
    ("linuxnet.cmdline", "repro.linuxnet.cmdline", "ScriptRunner", "run"),
)

def _site_name(module: str, owner, attribute: str) -> str:
    return f"{owner}.{attribute}" if owner else f"{module}.{attribute}"


class SpanStore:
    """Flat in-memory span arrays plus the wrapper factory."""

    def __init__(self) -> None:
        self.sites: list[str] = list(ROOTS)
        self.site_layer: list[str] = list(ROOTS)
        self.site: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.top = -1
        #: sum of ``len(plan.steps)`` over traced ``Reconciler.plan`` calls,
        #: split by root kind.
        self.plan_steps = {kind: 0 for kind in ROOTS}
        self._root_kind = ""
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------
    def root(self, kind: str, func, *args):
        """Call ``func(*args)`` inside a root span of ``kind``; returns
        ``(result, seconds)``."""
        index = len(self.site)
        self.site.append(self.sites.index(kind))
        self.parent.append(-1)
        self.end.append(0.0)
        self.top = index
        self._root_kind = kind
        started = perf_counter()
        self.start.append(started)
        try:
            result = func(*args)
        finally:
            ended = perf_counter()
            self.end[index] = ended
            self.top = -1
        return result, ended - started

    def _wrapper(self, site: int, func, nf_side_only: bool = False,
                 counts_plan: bool = False):
        store = self
        site_arr, parent_arr = self.site, self.parent
        start_arr, end_arr = self.start, self.end

        def traced(*args, **kwargs):
            parent = store.top
            if parent < 0 or (nf_side_only and not _in_nf_namespace(args[0])):
                return func(*args, **kwargs)
            index = len(site_arr)
            site_arr.append(site)
            parent_arr.append(parent)
            end_arr.append(0.0)
            store.top = index
            start_arr.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                end_arr[index] = perf_counter()
                store.top = parent
            if counts_plan:
                store.plan_steps[store._root_kind] += len(result.steps)
            return result

        traced.__wrapped__ = func
        return traced

    # -- installing -------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`_ENTRY_POINTS`."""
        for layer, module_name, owner_name, attribute in _ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            site = len(self.sites)
            self.sites.append(_site_name(module_name, owner_name, attribute))
            self.site_layer.append(layer)
            raw = owner.__dict__[attribute] if owner_name else \
                getattr(module, attribute)
            self._restore.append((owner, attribute, raw))
            options = {"nf_side_only": layer == "linuxnet.namespace",
                       "counts_plan": attribute == "plan"}
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(site, raw.__func__,
                                                   **options))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrapper(site, raw.__func__,
                                                     **options))
            else:
                wrapped = self._wrapper(site, raw, **options)
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()

    # -- aggregation --------------------------------------------------------------
    def summarise(self) -> dict:
        """Self time per (root kind, layer), calls per (root kind, site),
        and root counts and durations per root kind."""
        count = len(self.site)
        site_arr, parent_arr = self.site, self.parent
        start_arr, end_arr = self.start, self.end
        duration = array("d", (end_arr[i] - start_arr[i]
                               for i in range(count)))
        child = array("d", bytes(8 * count))
        root_of = array("i", bytes(4 * count))
        for i in range(count):
            parent = parent_arr[i]
            if parent >= 0:
                child[parent] += duration[i]
                root_of[i] = root_of[parent]
            else:
                root_of[i] = i
        self_time: dict[tuple[str, str], float] = {}
        calls: dict[tuple[str, str], int] = {}
        roots: dict[str, list[float]] = {kind: [] for kind in ROOTS}
        for i in range(count):
            kind = self.sites[site_arr[root_of[i]]]
            if parent_arr[i] < 0:
                roots[kind].append(duration[i])
                key = (kind, "bench.unattributed")
            else:
                key = (kind, self.site_layer[site_arr[i]])
                site_key = (kind, self.sites[site_arr[i]])
                calls[site_key] = calls.get(site_key, 0) + 1
            self_time[key] = self_time.get(key, 0.0) + duration[i] - child[i]
        return {"self_time": self_time, "calls": calls, "roots": roots,
                "plan_steps": dict(self.plan_steps), "spans": count}


def _in_nf_namespace(device) -> bool:
    """True for a device inside an NF's namespace (not the root one,
    where switch ports and node NICs live, and not a detached wire)."""
    namespace = device.namespace
    return namespace is not None and namespace.name != "root"
