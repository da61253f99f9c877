"""REST app, client and socket-server tests."""

import json

import pytest

from repro import ComputeNode, Nffg, RestApp, RestClient
from repro.nffg.json_codec import nffg_to_dict


@pytest.fixture
def node():
    node = ComputeNode("rest-test")
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    return node


@pytest.fixture
def client(node):
    return RestClient(RestApp(node))


def nat_graph(graph_id="g1"):
    graph = Nffg(graph_id=graph_id)
    graph.add_nf("nat1", "nat", config={
        "lan.address": "192.168.1.1/24",
        "wan.address": "203.0.113.2/24",
        "gateway": "203.0.113.1"})
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:nat1:lan")
    graph.add_flow_rule("r2", "vnf:nat1:lan", "endpoint:lan")
    graph.add_flow_rule("r3", "vnf:nat1:wan", "endpoint:wan")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat1:wan",
                        ip_dst="203.0.113.0/24")
    return graph


class TestRestApp:
    def test_root_describes_node(self, client):
        description = client.node_description()
        assert description["name"] == "rest-test"
        assert "native" in description["technologies"]
        assert description["deployed-graphs"] == []

    def test_deploy_and_status(self, client):
        body = client.deploy_graph(nat_graph())
        assert body["nfs"]["nat1"]["technology"] == "native"
        status = client.graph_status("g1")
        assert status["nfs"]["nat1"]["state"] == "running"
        assert client.list_graphs() == ["g1"]

    def test_get_deployed_graph_document(self, client):
        client.deploy_graph(nat_graph())
        response = client.get("/nffg/g1")
        assert response.status == 200
        assert response.body["forwarding-graph"]["id"] == "g1"

    def test_put_is_update_when_deployed(self, client, node):
        client.deploy_graph(nat_graph())
        updated = nat_graph()
        updated.flow_rules = updated.flow_rules[:3]
        response = client.put("/nffg/g1", nffg_to_dict(updated))
        assert response.status == 200  # update, not create
        assert response.body["flow-rules"] == 3

    def test_undeploy(self, client, node):
        client.deploy_graph(nat_graph())
        client.undeploy_graph("g1")
        assert client.list_graphs() == []
        assert node.accountant.ram_used_mb == 0

    def test_404_for_unknown_paths_and_graphs(self, client):
        assert client.get("/nope").status == 404
        assert client.get("/nffg/ghost/status").status == 404
        assert client.delete("/nffg/ghost").status == 404

    def test_405_for_wrong_method(self, client):
        response = client.app.handle("DELETE", "/")
        assert response.status == 405

    def test_400_for_malformed_body(self, client):
        response = client.app.handle("PUT", "/nffg/g1", b"{broken")
        assert response.status == 400
        response = client.app.handle("PUT", "/nffg/g1", b"")
        assert response.status == 400

    @pytest.mark.parametrize("document", [
        {"forwarding-graph": {"id": "g1", "VNFs": 5}},
        {"forwarding-graph": 5},
        {"forwarding-graph": {"id": "g1", "end-points": "lan0"}},
        {"forwarding-graph": {"id": "g1", "VNFs": [5]}},
        {"forwarding-graph": {"id": "g1",
                              "big-switch": {"flow-rules": [
                                  {"id": "r1", "match": "lan",
                                   "action": {"output": "endpoint:lan"}}]}}},
        [1, 2],
        *({"forwarding-graph": {"id": "g1",
                                "big-switch": {"flow-rules": [
                                    {"id": "r1", "priority": priority,
                                     "match": {"port_in": "endpoint:lan"},
                                     "action": {"output": "endpoint:lan"}}]}}}
          for priority in ([1], {}, None)),
    ])
    def test_400_for_malformed_nffg_shapes(self, client, document):
        """A wrong container type anywhere in the NF-FG is a 400 naming
        the expected type, never an exception out of ``handle``."""
        response = client.app.handle("PUT", "/nffg/g1",
                                     json.dumps(document).encode())
        assert response.status == 400
        assert "must be an" in response.body["error"]

    def test_400_for_id_mismatch(self, client):
        response = client.put("/nffg/other", nffg_to_dict(nat_graph()))
        assert response.status == 400

    def test_409_for_orchestration_failure(self, client):
        graph = Nffg(graph_id="bad")
        graph.add_nf("x", "ghost-template")
        graph.add_endpoint("lan", "lan0")
        graph.add_flow_rule("r1", "endpoint:lan", "vnf:x:lan")
        response = client.put("/nffg/bad", nffg_to_dict(graph))
        assert response.status == 409
        assert "unknown template" in response.body["error"]

    def test_nnfs_inventory(self, client):
        rows = client.list_nnfs()
        names = {row["name"] for row in rows}
        assert "iptables-nat" in names
        assert "strongswan" in names

    def test_response_bytes_json(self, client):
        response = client.get("/")
        decoded = json.loads(response.to_bytes())
        assert decoded["name"] == "rest-test"


class TestHttpServer:
    def test_real_socket_roundtrip(self, node):
        import urllib.error
        import urllib.request

        from repro.rest.server import NodeHttpServer
        try:
            server = NodeHttpServer(node, port=0).start()
        except OSError:
            pytest.skip("cannot bind a localhost socket here")
        try:
            with urllib.request.urlopen(f"{server.url}/") as reply:
                body = json.loads(reply.read())
            assert body["name"] == "rest-test"
            request = urllib.request.Request(
                f"{server.url}/nffg/g1",
                data=json.dumps(nffg_to_dict(nat_graph())).encode(),
                method="PUT")
            with urllib.request.urlopen(request) as reply:
                assert reply.status == 201
            with urllib.request.urlopen(f"{server.url}/nffg") as reply:
                assert json.loads(reply.read())["nffgs"] == ["g1"]
            # Error status propagates over the socket too.
            try:
                urllib.request.urlopen(f"{server.url}/nffg/ghost")
                pytest.fail("expected HTTP 404")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
        finally:
            server.stop()
