"""A minimal IKE-style key exchange over the simulated dataplane.

The strongSwan *plugin* installs SAs derived directly from the PSK so
deployments are synchronous (see README "Substitutions").  This module
implements the dynamic alternative the real daemon uses: a two-message
nonce exchange on UDP/500 that derives fresh SA material per negotiation
and installs it into the namespace's XFRM database.  It exists to
exercise the control-plane path end to end (daemon sockets, UDP delivery
through LSIs, rekeying) and is used by the rekey tests and the API directly.

Wire format (UDP payload)::

    IKE_INIT:  "INIT"  | spi_i (8 hex) | nonce_i (32 hex)
    IKE_RESP:  "RESP"  | spi_i (8 hex) | spi_r (8 hex) | nonce_r (32 hex)

Security notice: this is a *protocol-shaped* stand-in (no DH, no
authentication beyond the PSK-derived keys); see the crypto module's
substitution note.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.ipsec.crypto import derive_keys
from repro.ipsec.sa import SecurityAssociation, SpiAllocator
from repro.linuxnet.namespace import NetworkNamespace
from repro.linuxnet.xfrm import Selector, XfrmDirection, XfrmPolicy, XfrmState
from repro.net.ipv4 import IPv4Packet
from repro.net.transport import UdpDatagram

__all__ = ["IkeDaemon", "IkeError"]

IKE_PORT = 500
_NONCE_LEN = 16  # bytes


class IkeError(Exception):
    """Negotiation failure (bad message, unknown peer, no proposal)."""


@dataclass
class _Negotiation:
    peer: str
    local_spi: int
    nonce: bytes
    established: bool = False


class IkeDaemon:
    """One IKE endpoint bound to UDP/500 inside a namespace.

    Usage::

        left = IkeDaemon(ns_left, local="203.0.113.1", psk=b"s3cret",
                         local_subnet="192.168.100.0/24",
                         remote_subnet="192.168.200.0/24")
        right = IkeDaemon(ns_right, local="203.0.113.2", psk=b"s3cret",
                          local_subnet="192.168.200.0/24",
                          remote_subnet="192.168.100.0/24")
        left.initiate("203.0.113.2")   # -> SAs + policies on both ends

    Both daemons must be reachable through the simulated dataplane
    (routes + up devices), because the handshake really crosses it.
    """

    def __init__(self, namespace: NetworkNamespace, local: str, psk: bytes,
                 local_subnet: str, remote_subnet: str,
                 install_policies: bool = True) -> None:
        if not psk:
            raise IkeError("empty pre-shared key")
        self.namespace = namespace
        self.local = local
        self.psk = psk
        self.local_subnet = local_subnet
        self.remote_subnet = remote_subnet
        self.install_policies = install_policies
        self.spi_allocator = SpiAllocator(start=0x20000)
        self.negotiations: dict[int, _Negotiation] = {}
        self.established: list[str] = []
        self.rekeys = 0
        self._nonce_counter = 0
        namespace.bind_udp(IKE_PORT, self._on_datagram)

    def close(self) -> None:
        self.namespace.unbind_udp(IKE_PORT)

    # -- initiator side -----------------------------------------------------------
    def initiate(self, peer: str) -> None:
        """Send IKE_INIT; SAs are installed when the response arrives
        (synchronously, since the dataplane is synchronous)."""
        spi_i = self.spi_allocator.allocate()
        nonce_i = self._fresh_nonce(peer, spi_i)
        self.negotiations[spi_i] = _Negotiation(
            peer=peer, local_spi=spi_i, nonce=nonce_i)
        payload = f"INIT{spi_i:08x}{nonce_i.hex()}".encode()
        self.namespace.send_udp(self.local, peer, IKE_PORT, IKE_PORT,
                                payload)
        negotiation = self.negotiations.get(spi_i)
        if negotiation is None or not negotiation.established:
            raise IkeError(f"IKE negotiation with {peer} did not complete "
                           "(is the peer daemon reachable?)")

    def rekey(self, peer: str) -> None:
        """Negotiate fresh SAs with ``peer``, replacing the old ones."""
        self._drop_sas_for(peer)
        self.rekeys += 1
        self.initiate(peer)

    # -- responder side --------------------------------------------------------------
    def _on_datagram(self, namespace: NetworkNamespace, packet: IPv4Packet,
                     datagram: UdpDatagram) -> None:
        text = datagram.payload.decode(errors="replace")
        if text.startswith("INIT") and len(text) == 4 + 8 + 32:
            self._handle_init(packet.src, text)
        elif text.startswith("RESP") and len(text) == 4 + 16 + 32:
            self._handle_resp(packet.src, text)
        # Anything else is not ours: real charon logs and drops too.

    def _handle_init(self, peer: str, text: str) -> None:
        spi_i = int(text[4:12], 16)
        nonce_i = bytes.fromhex(text[12:])
        spi_r = self.spi_allocator.allocate()
        nonce_r = self._fresh_nonce(peer, spi_r)
        # Responder derives and installs immediately...
        self._install_pair(peer=peer, spi_in=spi_r, spi_out=spi_i,
                           nonce_i=nonce_i, nonce_r=nonce_r)
        # ...then answers so the initiator can do the same.
        payload = f"RESP{spi_i:08x}{spi_r:08x}{nonce_r.hex()}".encode()
        self.namespace.send_udp(self.local, peer, IKE_PORT, IKE_PORT,
                                payload)

    def _handle_resp(self, peer: str, text: str) -> None:
        spi_i = int(text[4:12], 16)
        spi_r = int(text[12:20], 16)
        nonce_r = bytes.fromhex(text[20:])
        negotiation = self.negotiations.get(spi_i)
        if negotiation is None or negotiation.peer != peer:
            raise IkeError(f"unsolicited IKE response from {peer}")
        self._install_pair(peer=peer, spi_in=spi_i, spi_out=spi_r,
                           nonce_i=negotiation.nonce, nonce_r=nonce_r)
        negotiation.established = True
        self.established.append(peer)

    # -- SA installation ---------------------------------------------------------------
    def _install_pair(self, peer: str, spi_in: int, spi_out: int,
                      nonce_i: bytes, nonce_r: bytes) -> None:
        """Install inbound + outbound SAs (and policies, once)."""
        enc_in, auth_in = derive_keys(self.psk, nonce_i, nonce_r, spi_in)
        enc_out, auth_out = derive_keys(self.psk, nonce_i, nonce_r,
                                        spi_out)
        self.namespace.xfrm.add_state(XfrmState(sa=SecurityAssociation(
            spi=spi_in, src=peer, dst=self.local,
            enc_key=enc_in, auth_key=auth_in)))
        self.namespace.xfrm.add_state(XfrmState(sa=SecurityAssociation(
            spi=spi_out, src=self.local, dst=peer,
            enc_key=enc_out, auth_key=auth_out)))
        if self.install_policies and not any(
                p.tmpl_dst == peer
                for p in self.namespace.xfrm.policies()):
            self.namespace.xfrm.add_policy(XfrmPolicy(
                selector=Selector(self.local_subnet, self.remote_subnet),
                direction=XfrmDirection.OUT,
                tmpl_src=self.local, tmpl_dst=peer))
            self.namespace.xfrm.add_policy(XfrmPolicy(
                selector=Selector(self.remote_subnet, self.local_subnet),
                direction=XfrmDirection.IN,
                tmpl_src=peer, tmpl_dst=self.local))

    def _drop_sas_for(self, peer: str) -> None:
        for state in list(self.namespace.xfrm.states()):
            if state.sa.src == peer or state.sa.dst == peer:
                self.namespace.xfrm.delete_state(state.sa.dst,
                                                 state.sa.spi)

    def _fresh_nonce(self, peer: str, spi: int) -> bytes:
        # Deterministic per (local, peer, spi, counter): reproducible
        # runs without OS randomness, unique per negotiation.
        self._nonce_counter += 1
        material = (f"{self.local}|{peer}|{spi}|{self._nonce_counter}"
                    .encode())
        return hashlib.sha256(material).digest()[:_NONCE_LEN]
