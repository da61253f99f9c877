"""Control-plane concurrency: the races the per-graph locks close.

Every test here fails (or flakes, which in CI is the same thing) when
the per-graph locking is removed:

* the PUT upsert test reproduces the ``_put_graph`` check-then-act
  TOCTOU — N threads PUT the same fresh graph; without the lock held
  across the deployed-check and the verb, several threads race into
  ``deploy`` and the losers surface spurious 409s (lost updates);
* the PUT-vs-tick test races REST mutations against control-loop
  ticks on the same reconciler — unlocked, the tick's plan compiles
  against desired state mid-replacement;
* the journal tests hammer one ring from many threads — the old
  unsynchronized ``len(log) == max_events`` check undercounted drops.
"""

import json
import threading
import urllib.request

import pytest

from repro.core import ComputeNode
from repro.core.reconciler import (
    EventJournal,
    GraphLockRegistry,
)
from repro.nffg.json_codec import nffg_to_dict
from repro.nffg.model import Nffg
from repro.resources.capabilities import NodeCapabilities, NodeClass
from repro.rest.app import RestApp
from repro.rest.client import RestClient
from repro.rest.server import NodeHttpServer
from repro.telemetry import Autoscaler, ControlLoop


def _big_node(name="conc"):
    caps = NodeCapabilities(
        node_class=NodeClass.DATACENTER, cpu_cores=1024, cpu_mhz=2600,
        ram_mb=1 << 22, disk_mb=1 << 26,
        features=frozenset({"docker", "kvm", "linux", "netns",
                            "iptables", "xfrm"}))
    node = ComputeNode(name, capabilities=caps)
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    return node


def _graph(graph_id, rounds="0"):
    graph = Nffg(graph_id=graph_id, name=f"conc {graph_id}")
    graph.add_nf("fw", "firewall", technology="docker",
                 config={"round": rounds})
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:fw:lan")
    graph.add_flow_rule("r2", "vnf:fw:wan", "endpoint:wan")
    return graph


def _run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "worker thread hung"


class TestPutUpsertRace:
    def test_concurrent_puts_of_fresh_graph_one_201_rest_200(self):
        """The ``_put_graph`` TOCTOU regression test.

        Eight threads PUT the same not-yet-deployed graph through one
        barrier.  The locked ``apply`` upsert admits exactly one
        creator (201) and updates for everyone else (200); the
        unpatched handler let several threads pass the deployed-check
        and the deploy losers returned 409 "already deployed".
        """
        node = _big_node()
        app = RestApp(node)
        document = json.dumps(nffg_to_dict(_graph("race"))).encode()
        threads = 8
        barrier = threading.Barrier(threads)
        statuses = []

        def put():
            barrier.wait()
            response = app.handle("PUT", "/nffg/race", document)
            statuses.append(response.status)

        _run_threads([put] * threads)
        assert sorted(statuses) == [200] * (threads - 1) + [201], (
            f"lost update: expected one 201 and {threads - 1} 200s, "
            f"got {sorted(statuses)}")
        assert node.orchestrator.status("race")["converged"]

    def test_put_vs_control_loop_tick_on_same_graph(self):
        """REST updates racing loop ticks must never corrupt state.

        One writer thread re-PUTs the graph with alternating configs
        while another drives bare reconcile ticks as fast as it can —
        the control loop's half of the race without the interval
        pacing.  Every PUT must succeed (200), no tick may raise, and
        the surviving desired state must converge.
        """
        node = _big_node()
        app = RestApp(node)
        client = RestClient(app)
        client.deploy_graph(_graph("live"))
        reconciler = node.orchestrator.reconciler
        stop = threading.Event()
        tick_errors = []
        put_statuses = []

        def writer():
            for round_no in range(30):
                document = nffg_to_dict(_graph("live", rounds=str(round_no)))
                put_statuses.append(
                    client.put("/nffg/live", document).status)
            stop.set()

        def ticker():
            while not stop.is_set():
                try:
                    reconciler.tick("live")
                except Exception as exc:  # pragma: no cover - bug path
                    tick_errors.append(exc)
                    stop.set()

        _run_threads([writer, ticker])
        assert not tick_errors, f"tick raced a PUT: {tick_errors[0]!r}"
        assert put_statuses == [200] * 30
        node.orchestrator.reconcile("live")
        assert node.orchestrator.status("live")["converged"]


class TestGraphLockRegistry:
    def test_same_graph_same_lock_and_reentrant(self):
        locks = GraphLockRegistry()
        lock = locks.get("g1")
        assert locks.get("g1") is lock
        assert locks.get("g2") is not lock
        with lock:
            with locks.get("g1"):  # reentrant: deploy -> reconcile -> tick
                pass
        assert len(locks) == 2

    def test_concurrent_get_returns_one_lock_per_graph(self):
        locks = GraphLockRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def fetch():
            barrier.wait()
            seen.append(locks.get("contested"))

        _run_threads([fetch] * 8)
        assert len(set(map(id, seen))) == 1


class TestJournalThreadSafety:
    def test_ring_full_drop_accounting_is_exact(self):
        """The drop-undercount regression test: ``len(events) +
        dropped`` must equal total appends, exactly, under contention
        on a full ring."""
        journal = EventJournal(max_events=50)
        per_thread, threads = 400, 8

        def hammer():
            for _ in range(per_thread):
                journal.append("g", "tick")

        _run_threads([hammer] * threads)
        total = per_thread * threads
        assert len(journal.events("g")) == 50
        assert journal.dropped_count("g") == total - 50
        seqs = [event.seq for event in journal.events("g")]
        assert seqs == sorted(seqs) and len(set(seqs)) == 50


class TestLoopDeterminism:
    def test_direct_step_order_is_deterministic(self):
        """Two identical fleets step to identical journals."""
        def run_once():
            node = _big_node()
            loop = ControlLoop(node.orchestrator, node.telemetry)
            for i in range(6):
                node.orchestrator.reconciler.set_desired(_graph(f"g{i}"))
            for _ in range(3):
                loop.step(now=float(loop.iterations))
            journal = node.orchestrator.reconciler.journal
            return [(e.seq, e.kind, e.graph_id)
                    for graph_id in journal.graphs()
                    for e in journal.events(graph_id)]

        assert run_once() == run_once()

    def test_thread_mode_converges_fleet(self):
        node = _big_node()
        loop = ControlLoop(node.orchestrator, node.telemetry,
                           interval=0.01)
        for i in range(12):
            node.orchestrator.reconciler.set_desired(_graph(f"g{i}"))
        loop.start()
        try:
            deadline = threading.Event()
            for _ in range(300):
                if all(node.orchestrator.status(f"g{i}")["converged"]
                       for i in range(12)
                       if f"g{i}" in node.orchestrator.deployed) \
                        and len(node.orchestrator.deployed) == 12:
                    break
                deadline.wait(0.02)
        finally:
            loop.stop()
        assert len(node.orchestrator.deployed) == 12
        for i in range(12):
            assert node.orchestrator.status(f"g{i}")["converged"]
        assert loop.tick_errors == 0, loop.last_error


class TestRealSocketConcurrency:
    @pytest.fixture()
    def server(self):
        node = _big_node("sock")
        server = NodeHttpServer(node).start()
        yield node, server
        server.stop()

    @staticmethod
    def _request(url, method="GET", document=None, timeout=10):
        body = (None if document is None
                else json.dumps(document).encode())
        request = urllib.request.Request(url, data=body, method=method)
        try:
            with urllib.request.urlopen(request, timeout=timeout) as reply:
                return reply.status, json.loads(reply.read() or b"null")
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read() or b"{}")

    def test_disjoint_and_overlapping_clients_no_lost_updates(self, server):
        """N clients over a real socket: disjoint graphs deploy and
        converge; overlapping updates of one shared graph all land
        (every PUT 200/201, exactly one creator), and the journal's
        exact counts survive the contention."""
        node, http = server
        base = http.url
        client_count = 6
        updates_per_client = 5
        results = [[] for _ in range(client_count)]

        def run_client(index):
            own = f"own-{index}"
            status, _ = self._request(
                f"{base}/nffg/{own}", "PUT", nffg_to_dict(_graph(own)))
            results[index].append(("own", status))
            for round_no in range(updates_per_client):
                status, _ = self._request(
                    f"{base}/nffg/shared", "PUT",
                    nffg_to_dict(_graph("shared",
                                        rounds=f"{index}.{round_no}")))
                results[index].append(("shared", status))
            status, _ = self._request(
                f"{base}/graphs/{own}/reconcile", "POST")
            results[index].append(("reconcile", status))

        _run_threads([lambda i=i: run_client(i)
                      for i in range(client_count)])

        shared_statuses = [status for per_client in results
                           for kind, status in per_client
                           if kind == "shared"]
        assert shared_statuses.count(201) <= 1
        assert all(status in (200, 201) for status in shared_statuses), (
            f"lost update over the socket: {sorted(shared_statuses)}")
        for per_client in results:
            assert per_client[0][1] == 201      # own graph created once
            assert per_client[-1][1] == 200     # reconcile converged
        graph_ids = [f"own-{i}" for i in range(client_count)] + ["shared"]
        for graph_id in graph_ids:
            status, body = self._request(f"{base}/nffg/{graph_id}/status")
            assert status == 200 and body["converged"], graph_id
            status, body = self._request(
                f"{base}/graphs/{graph_id}/events")
            assert status == 200
            journal = node.orchestrator.journal
            assert len(body["events"]) == \
                len(journal.events(graph_id))
            assert body["dropped"] == journal.dropped_count(graph_id)

    def test_policies_persist_and_autoscale_ready_over_socket(self, server):
        """PUT /graphs/{id}/policies persists into desired state, is
        readable back, survives a plain graph re-PUT, and feeds the
        autoscaler's merged policy sources with no driver attached."""
        node, http = server
        base = http.url
        status, _ = self._request(
            f"{base}/nffg/pol", "PUT", nffg_to_dict(_graph("pol")))
        assert status == 201
        policy = {"nf": "fw", "target-pps": 500.0, "max-replicas": 3}
        status, body = self._request(
            f"{base}/graphs/pol/policies", "PUT",
            {"scaling-policies": [policy]})
        assert status == 200
        assert body["scaling-policies"][0]["target-pps"] == 500.0
        # Plain re-PUT without policies must not disable autoscaling.
        status, _ = self._request(
            f"{base}/nffg/pol", "PUT",
            nffg_to_dict(_graph("pol", rounds="9")))
        assert status == 200
        status, body = self._request(f"{base}/graphs/pol/policies")
        assert status == 200 and len(body["scaling-policies"]) == 1
        scaler = Autoscaler(reconciler=node.orchestrator.reconciler,
                            registry=node.telemetry)
        assert ("pol", "fw") in scaler._policy_sources()
        # Unknown NF and malformed entries are rejected up front.
        status, body = self._request(
            f"{base}/graphs/pol/policies", "PUT",
            {"scaling-policies": [{"nf": "ghost", "target-pps": 1.0}]})
        assert status == 400 and "ghost" in body["error"]
        status, _ = self._request(
            f"{base}/graphs/pol/policies", "PUT",
            {"scaling-policies": [{"nf": "fw"}]})
        assert status == 400
        # An empty array clears the persisted policies.
        status, body = self._request(
            f"{base}/graphs/pol/policies", "PUT",
            {"scaling-policies": []})
        assert status == 200
        status, body = self._request(f"{base}/graphs/pol/policies")
        assert body["scaling-policies"] == []
