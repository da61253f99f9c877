"""Software switch substrate: the Logical Switch Instances of Figure 1.

The un-orchestrator steers traffic with one software switch per service
graph (the *LSI*) plus a base *LSI-0* that classifies node ingress
traffic, all programmed over OpenFlow.  This package provides:

* :mod:`repro.switch.flowtable` — priority-ordered match/action tables
  with OpenFlow-1.0-style field matching (in_port, MACs, ethertype,
  VLAN, IPv4 prefixes, L4 ports) and counters;
* :mod:`repro.switch.actions` — output / push-pop VLAN / set-field /
  controller actions;
* :mod:`repro.switch.datapath` — the pipeline: ports, lookup, action
  execution, packet-in on miss;
* :mod:`repro.switch.fusion` — chain fusion: whole stable LSI chains
  compiled into straight-line programs, one ingress lookup per batch
  group;
* :mod:`repro.switch.state` — per-flow state tables (OpenState-style
  match -> state -> action) giving load-balanced hops replica
  affinity that survives scale events;
* :mod:`repro.switch.lsi` — the LSI wrapper and inter-LSI virtual
  links (the "Virtual Link among LSIs" of Figure 1).
"""

from repro.switch.actions import (
    ActionError,
    Controller,
    Output,
    PopVlan,
    PushVlan,
    SelectOutput,
    SetField,
    flow_hash,
    flow_key,
    rendezvous_select,
)
from repro.switch.datapath import Datapath, SwitchPort
from repro.switch.flowtable import FlowEntry, FlowMatch, FlowTable
from repro.switch.fusion import FusedChain, FusionEngine
from repro.switch.lsi import LogicalSwitchInstance, VirtualLink
from repro.switch.state import FlowStateRegistry, FlowStateTable

__all__ = [
    "ActionError",
    "Controller",
    "Datapath",
    "FlowEntry",
    "FlowMatch",
    "FlowStateRegistry",
    "FlowStateTable",
    "FlowTable",
    "FusedChain",
    "FusionEngine",
    "LogicalSwitchInstance",
    "Output",
    "PopVlan",
    "PushVlan",
    "SelectOutput",
    "SetField",
    "SwitchPort",
    "VirtualLink",
    "flow_hash",
    "flow_key",
    "rendezvous_select",
]
