"""JSON (de)serialisation of NF-FGs, un-orchestrator style.

Document shape::

    {"forwarding-graph": {
        "id": "g1", "name": "...",
        "VNFs": [{"id": "fw", "template": "firewall",
                  "technology": "native",               # optional
                  "replicas": 2,                        # optional (default 1)
                  "configuration": {"key": "value"}}],  # optional
        "end-points": [{"id": "wan", "type": "interface",
                        "interface": "wan0", "vlan-id": 101}],
        "big-switch": {"flow-rules": [
            {"id": "r1", "priority": 100,
             "match": {"port_in": "endpoint:wan", "ip_dst": "10.0.0.0/24"},
             "action": {"output": "vnf:fw:wan"}}]},
        "scaling-policies": [                       # optional
            {"nf": "fw", "target-pps": 50000.0,
             "min-replicas": 1, "max-replicas": 4}]}}
"""

from __future__ import annotations

import json
from typing import Any

from repro.nffg.model import (
    Endpoint,
    FlowMatchSpec,
    FlowRule,
    Nffg,
    NfInstanceSpec,
    PortRef,
    ScalingPolicy,
)

__all__ = ["nffg_from_dict", "nffg_from_json", "nffg_to_dict",
           "nffg_to_json"]

_MATCH_FIELDS = ("eth_type", "vlan_id", "ip_src", "ip_dst", "ip_proto",
                 "tp_src", "tp_dst")


def nffg_to_dict(graph: Nffg) -> dict[str, Any]:
    vnfs = []
    for spec in graph.nfs:
        entry: dict[str, Any] = {"id": spec.nf_id, "template": spec.template}
        if spec.technology is not None:
            entry["technology"] = spec.technology
        if spec.config:
            entry["configuration"] = spec.config_dict()
        if spec.replicas != 1:
            entry["replicas"] = spec.replicas
        vnfs.append(entry)
    endpoints = []
    for endpoint in graph.endpoints:
        entry = {"id": endpoint.ep_id, "type": endpoint.ep_type,
                 "interface": endpoint.interface}
        if endpoint.vlan_id is not None:
            entry["vlan-id"] = endpoint.vlan_id
        endpoints.append(entry)
    rules = []
    for rule in graph.flow_rules:
        match: dict[str, Any] = {"port_in": str(rule.match.port_in)}
        for field_name in _MATCH_FIELDS:
            value = getattr(rule.match, field_name)
            if value is not None:
                match[field_name] = value
        rules.append({"id": rule.rule_id, "priority": rule.priority,
                      "match": match,
                      "action": {"output": str(rule.output)}})
    body: dict[str, Any] = {
        "id": graph.graph_id,
        "name": graph.name,
        "VNFs": vnfs,
        "end-points": endpoints,
        "big-switch": {"flow-rules": rules},
    }
    if graph.policies:
        body["scaling-policies"] = [p.to_dict() for p in graph.policies]
    return {"forwarding-graph": body}


def nffg_to_json(graph: Nffg, indent: int = 2) -> str:
    return json.dumps(nffg_to_dict(graph), indent=indent, sort_keys=True)


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ValueError(f"NF-FG JSON: missing {key!r} in {context}")
    return mapping[key]


_KINDS = {dict: "an object", list: "an array"}


def _typed(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a JSON ``kind`` (``dict`` or ``list``).

    A wrong container type is a ``ValueError`` — a 400 at the REST
    boundary — instead of a ``TypeError``/``AttributeError`` from the
    first ``in``/``.get``/iteration that trips over it.
    """
    if not isinstance(value, kind):
        raise ValueError(f"NF-FG JSON: {what} must be {_KINDS[kind]}, "
                         f"got {type(value).__name__}")
    return value


def nffg_from_dict(document: dict[str, Any]) -> Nffg:
    _typed(document, dict, "the document")
    body = _typed(_require(document, "forwarding-graph", "document root"),
                  dict, "forwarding-graph")
    graph = Nffg(graph_id=str(_require(body, "id", "forwarding-graph")),
                 name=str(body.get("name", "")))
    for entry in _typed(body.get("VNFs", []), list, "VNFs"):
        _typed(entry, dict, "each VNF")
        config = _typed(entry.get("configuration", {}), dict,
                        "configuration")
        replicas = entry.get("replicas", 1)
        if not isinstance(replicas, int) or replicas < 1:
            raise ValueError("NF-FG JSON: replicas must be a positive "
                             f"integer, got {replicas!r}")
        graph.nfs.append(NfInstanceSpec.with_config(
            nf_id=str(_require(entry, "id", "VNF")),
            template=str(_require(entry, "template", "VNF")),
            technology=entry.get("technology"),
            config={str(k): str(v) for k, v in config.items()},
            replicas=replicas))
    for entry in _typed(body.get("end-points", []), list, "end-points"):
        _typed(entry, dict, "each end-point")
        graph.endpoints.append(Endpoint(
            ep_id=str(_require(entry, "id", "end-point")),
            ep_type=str(entry.get("type", "interface")),
            interface=str(_require(entry, "interface", "end-point")),
            vlan_id=entry.get("vlan-id")))
    big_switch = _typed(body.get("big-switch", {}), dict, "big-switch")
    for entry in _typed(big_switch.get("flow-rules", []), list,
                        "flow-rules"):
        _typed(entry, dict, "each flow-rule")
        raw_match = _typed(_require(entry, "match", "flow-rule"), dict,
                           "a flow-rule match")
        kwargs = {name: raw_match[name] for name in _MATCH_FIELDS
                  if name in raw_match}
        match = FlowMatchSpec(
            port_in=PortRef.parse(str(_require(raw_match, "port_in",
                                               "flow-rule match"))),
            **kwargs)
        action = _typed(_require(entry, "action", "flow-rule"), dict,
                        "a flow-rule action")
        priority = entry.get("priority", 100)
        try:
            priority = int(priority)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("NF-FG JSON: a flow-rule priority must be an "
                             f"integer, got {priority!r}") from None
        graph.flow_rules.append(FlowRule(
            rule_id=str(_require(entry, "id", "flow-rule")),
            priority=priority,
            match=match,
            output=PortRef.parse(str(_require(action, "output",
                                              "flow-rule action")))))
    for entry in _typed(body.get("scaling-policies", []), list,
                        "scaling-policies"):
        graph.policies.append(ScalingPolicy.from_dict(entry))
    return graph


def nffg_from_json(text: str) -> Nffg:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"NF-FG JSON: not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise ValueError("NF-FG JSON: top level must be an object")
    return nffg_from_dict(document)
