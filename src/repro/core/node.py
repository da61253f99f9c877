"""The assembled NFV compute node (Figure 1 in one object).

Construction wires: a Linux host (kernel substrate), LSI-0 with node
NICs attached, image + template repositories, the NNF plugin registry,
the four management drivers behind a compute manager, the resource
manager, the traffic-steering manager, and the local orchestrator.  A
REST application (``repro.rest``) is bound on top by the CLI/examples.
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.repository import VnfRepository
from repro.catalog.resolver import ResolutionPolicy
from repro.compute.drivers.docker import DockerDriver
from repro.compute.drivers.dpdk import DpdkDriver
from repro.compute.drivers.native import NativeDriver
from repro.compute.drivers.vm_kvm import KvmDriver
from repro.compute.manager import ComputeManager
from repro.core.orchestrator import DeployedGraph, LocalOrchestrator
from repro.core.placement import PlacementPolicy
from repro.core.steering import TrafficSteeringManager
from repro.linuxnet.devices import NetDevice, VethPair
from repro.linuxnet.host import LinuxHost
from repro.nffg.model import Nffg
from repro.nnf.plugins import stock_registry
from repro.nnf.registry import NnfRegistry
from repro.nnf.sharing import SharedNnfManager
from repro.resources.accounting import ResourceAccountant
from repro.resources.capabilities import NodeCapabilities
from repro.resources.images import ImageRegistry

__all__ = ["ComputeNode"]


class ComputeNode:
    """One NFV-enabled node (CPE or server)."""

    def __init__(self, name: str = "cpe",
                 capabilities: Optional[NodeCapabilities] = None,
                 repository: Optional[VnfRepository] = None,
                 images: Optional[ImageRegistry] = None,
                 nnf_registry: Optional[NnfRegistry] = None,
                 resolution: ResolutionPolicy =
                 ResolutionPolicy.PREFER_NATIVE) -> None:
        self.name = name
        self.capabilities = (capabilities if capabilities is not None
                             else NodeCapabilities.residential_cpe_with_kvm())
        self.host = LinuxHost(hostname=name)
        self.images = images if images is not None else ImageRegistry.stock()
        self.repository = (repository if repository is not None
                           else VnfRepository.stock())
        self.nnf_registry = (nnf_registry if nnf_registry is not None
                             else stock_registry())
        self.accountant = ResourceAccountant(self.capabilities)
        self.steering = TrafficSteeringManager()

        self.shared_nnfs = SharedNnfManager()
        self.compute = ComputeManager()
        features = self.capabilities.features
        if "kvm" in features:
            self.compute.register_driver(
                KvmDriver(self.host, behaviors=self.nnf_registry))
        if "docker" in features:
            self.compute.register_driver(
                DockerDriver(self.host, behaviors=self.nnf_registry))
        if "dpdk" in features:
            self.compute.register_driver(
                DpdkDriver(self.host, behaviors=self.nnf_registry))
        if "native" in features:
            self.compute.register_driver(
                NativeDriver(self.host, self.nnf_registry,
                             shared=self.shared_nnfs))

        self.placement = PlacementPolicy(self.capabilities, self.repository,
                                         self.nnf_registry,
                                         resolution=resolution)
        self.orchestrator = LocalOrchestrator(
            placement=self.placement, compute=self.compute,
            steering=self.steering, accountant=self.accountant,
            images=self.images)
        # Telemetry rides on the counters the dataplane and journal
        # already maintain; constructing the registry costs nothing
        # until someone samples it (control loop, REST, `repro top`).
        from repro.telemetry.metrics import MetricsRegistry
        self.telemetry = MetricsRegistry(self.steering,
                                         self.orchestrator.reconciler)
        # Tracing + flight recorder: the sampler keeps the dataplane
        # cost at one counter compare per unsampled batch, so it is on
        # by default on a full node.  The journal is resolved through a
        # callable because it may be replaced, or its clock rebound
        # (sim mode), later.
        from repro.telemetry.tracing import Tracer
        self.tracer = Tracer(
            journal=lambda: self.orchestrator.reconciler.journal)
        self.orchestrator.reconciler.tracer = self.tracer
        self.orchestrator.reconciler.journal.on_drop = \
            self.tracer.on_journal_drop
        self.steering.set_tracer(self.tracer)
        self._wires: dict[str, NetDevice] = {}

    # -- physical interfaces -----------------------------------------------------
    def add_physical_interface(self, name: str) -> NetDevice:
        """Create a node NIC attached to LSI-0.

        Returns the *wire side* device — the far end of the cable — so
        tests and traffic generators can inject/receive frames exactly
        where the paper's iPerf boxes sat.
        """
        pair = VethPair(name, f"{name}-wire")
        self.host.root.add_device(pair.a)
        pair.a.set_up()
        pair.b.set_up()
        self.steering.register_physical(pair.a)
        self._wires[name] = pair.b
        return pair.b

    def wire(self, interface: str) -> NetDevice:
        try:
            return self._wires[interface]
        except KeyError:
            raise KeyError(
                f"no physical interface {interface!r} on {self.name}"
            ) from None

    # -- orchestration passthroughs --------------------------------------------------
    def deploy(self, graph: Nffg) -> DeployedGraph:
        return self.orchestrator.deploy(graph)

    def undeploy(self, graph_id: str) -> DeployedGraph:
        return self.orchestrator.undeploy(graph_id)

    def update(self, graph: Nffg) -> DeployedGraph:
        return self.orchestrator.update(graph)

    def apply(self, graph: Nffg) -> "tuple[DeployedGraph, bool]":
        """Deploy-or-update atomically; returns ``(record, created)``."""
        return self.orchestrator.apply(graph)

    # -- description (REST: "node description, capabilities, resources") ---------------
    def describe(self) -> dict:
        return {
            "name": self.name,
            "class": self.capabilities.node_class.value,
            "cpu-cores": self.capabilities.cpu_cores,
            "cpu-mhz": self.capabilities.cpu_mhz,
            "ram-mb": self.capabilities.ram_mb,
            "disk-mb": self.capabilities.disk_mb,
            "features": sorted(self.capabilities.features),
            "technologies": [t.value for t in self.compute.technologies],
            "utilisation": self.accountant.utilisation(),
            "deployed-graphs": self.orchestrator.list_graphs(),
            "nnfs": self.nnf_registry.describe(),
            "flow-counts": self.steering.flow_counts(),
        }
